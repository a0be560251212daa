"""Product domains X = (a_1, b_1) x ... x (a_d, b_d) in R^d.

Half-lines and the full line are allowed per axis (infinite endpoints).
Geometric objects elsewhere in the package (cuboids, enlargements) are
always taken as subsets of the domain, so the clipping helpers here are
the single source of truth for boundary behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned product domain.

    intervals: one (a_j, b_j) pair per axis with a_j < b_j; use
    ``-math.inf`` / ``math.inf`` for unbounded axes.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.intervals:
            if not a < b:
                raise ValueError(f"degenerate interval ({a}, {b})")

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def lower(self) -> np.ndarray:
        return np.array([a for a, _ in self.intervals])

    @property
    def upper(self) -> np.ndarray:
        return np.array([b for _, b in self.intervals])

    def clip_box(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Intersect the closed box [lo, hi] with the domain closure."""
        lo = np.maximum(np.asarray(lo, dtype=float), self.lower)
        hi = np.minimum(np.asarray(hi, dtype=float), self.upper)
        return lo, hi


def real_line(d: int = 1) -> DomainSpec:
    return DomainSpec(tuple((-math.inf, math.inf) for _ in range(d)))


def half_line(d: int = 1) -> DomainSpec:
    return DomainSpec(tuple((0.0, math.inf) for _ in range(d)))


def product_domain(*domains: DomainSpec) -> DomainSpec:
    intervals: tuple[tuple[float, float], ...] = ()
    for dom in domains:
        intervals = intervals + dom.intervals
    return DomainSpec(intervals)
