"""Cuboid geometry, admissible coverings, box products, partitions of unity.

An admissible covering tiles the domain X with closed, almost-cube
cuboids subject to four properties: the union covers X, distinct cuboids
overlap in measure zero, side lengths within one cuboid are comparable
(shape constant C1), and diameters of touching cuboids are comparable
(neighbour constant C2).  Enlargements Q*, Q**, Q*** scale the half-widths
by kappa, kappa^2, kappa^3 and are always intersected with X.

Countable families are materialized over finite index windows; the
family name and window are retained to identify the covering in reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import DomainSpec, half_line, product_domain, real_line
from .errors import CoveringHoleError, SplitBudgetError
from .quadrature import WORKING_SET, halton

DEFAULT_KAPPA = 1.05


# ---------------------------------------------------------------------------
# Cuboids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cuboid:
    """Closed axis-aligned box Q(z, r_1..r_d), taken as a subset of X."""

    center: tuple[float, ...]
    half_widths: tuple[float, ...]
    domain: DomainSpec

    def __post_init__(self):
        if len(self.center) != len(self.half_widths):
            raise ValueError("center/half_widths dimension mismatch")
        if any(r <= 0 for r in self.half_widths):
            raise ValueError("half-widths must be positive")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def diameter(self) -> float:
        """d_Q = 2 sqrt(sum r_i^2), from the stored half-widths."""
        return 2.0 * math.sqrt(sum(r * r for r in self.half_widths))

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Geometric box (lo, hi) clipped to the domain closure."""
        z = np.array(self.center)
        r = np.array(self.half_widths)
        return self.domain.clip_box(z - r, z + r)

    def enlarged(self, kappa: float, level: int = 1) -> "Cuboid":
        factor = kappa ** level
        return Cuboid(self.center,
                      tuple(factor * r for r in self.half_widths),
                      self.domain)


# ---------------------------------------------------------------------------
# Coverings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleCovering:
    """Finite window of a countable covering family.

    ``window_box`` is the exactly tiled sub-box of X used for coverage
    sampling; ``validate_covering`` measures the shape and neighbour
    constants C1 and C2.
    """

    cuboids: tuple[Cuboid, ...]
    kappa: float
    domain: DomainSpec
    window_box: tuple[tuple[float, ...], tuple[float, ...]]
    family: str
    window: tuple

    def __post_init__(self):
        if not self.cuboids:
            raise ValueError("covering window is empty")
        if not (math.isfinite(self.kappa) and self.kappa > 1.0):
            raise ValueError(f"kappa must be finite and exceed 1, "
                             f"got {self.kappa}")

    @property
    def dimension(self) -> int:
        return self.cuboids[0].dimension

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) arrays of the cuboids' boxes, as ``Cuboid.box`` gives them."""
        z = np.array([q.center for q in self.cuboids], dtype=float)
        r = np.array([q.half_widths for q in self.cuboids], dtype=float)
        return self.domain.clip_box(z - r, z + r)

    def enlarged_boxes(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) arrays of the boxes of ``q.enlarged(kappa, level)``."""
        z = np.array([q.center for q in self.cuboids], dtype=float)
        r = self.kappa ** level * np.array(
            [q.half_widths for q in self.cuboids], dtype=float)
        return self.domain.clip_box(z - r, z + r)


def covering_bessel(window: tuple[int, int],
                    kappa: float = DEFAULT_KAPPA) -> AdmissibleCovering:
    """Dyadic intervals [2^n, 2^{n+1}] on (0, inf) for n in the window."""
    n_lo, n_hi = window
    dom = half_line()
    cuboids = tuple(
        Cuboid((3.0 * 2.0 ** (n - 1),), (2.0 ** (n - 1),), dom)
        for n in range(n_lo, n_hi + 1)
    )
    return AdmissibleCovering(
        cuboids=cuboids, kappa=kappa, domain=dom,
        window_box=((2.0 ** n_lo,), (2.0 ** (n_hi + 1),)),
        family="bessel", window=window)


def covering_laguerre(window: tuple[int, int],
                      kappa: float = DEFAULT_KAPPA) -> AdmissibleCovering:
    """The two-regime half-line covering used with the Laguerre kernel.

    Negative indices m contribute plain dyadic intervals [2^m, 2^{m+1}]
    (the small-x regime); indices n >= 0 contribute blocks of
    2^{2n+1} congruent intervals of length 2^{-n-1} tiling [2^n, 2^{n+1}]
    (refinement toward large x).
    """
    n_lo, n_hi = window
    dom = half_line()
    cuboids: list[Cuboid] = []
    for m in range(n_lo, min(n_hi, -1) + 1):
        cuboids.append(Cuboid((3.0 * 2.0 ** (m - 1),), (2.0 ** (m - 1),), dom))
    for n in range(max(n_lo, 0), n_hi + 1):
        length = 2.0 ** (-n - 1)
        count = 2 ** (2 * n + 1)
        base = 2.0 ** n
        for k in range(count):
            lo = base + k * length
            cuboids.append(Cuboid((lo + 0.5 * length,), (0.5 * length,), dom))
    return AdmissibleCovering(
        cuboids=tuple(cuboids), kappa=kappa, domain=dom,
        window_box=((2.0 ** n_lo,), (2.0 ** (n_hi + 1),)),
        family="laguerre", window=window)


def covering_uniform(domain: DomainSpec, tau: float,
                     window: tuple[Sequence[float], Sequence[float]],
                     kappa: float = DEFAULT_KAPPA) -> AdmissibleCovering:
    """Grid of congruent cubes with diameter tau over the window box."""
    d = domain.dimension
    side = tau / math.sqrt(d)
    lo = np.asarray(window[0], dtype=float)
    hi = np.asarray(window[1], dtype=float)
    counts = [max(1, int(math.ceil((hi[j] - lo[j]) / side - 1e-9)))
              for j in range(d)]
    axes = [lo[j] + side * (np.arange(counts[j]) + 0.5) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in mesh], axis=-1)
    cuboids = tuple(Cuboid(tuple(float(v) for v in c), (side / 2.0,) * d, domain)
                    for c in centers)
    actual_hi = tuple(float(lo[j] + counts[j] * side) for j in range(d))
    return AdmissibleCovering(
        cuboids=cuboids, kappa=kappa, domain=domain,
        window_box=(tuple(float(v) for v in lo), actual_hi),
        family="uniform", window=(tau, tuple(float(v) for v in lo),
                                  tuple(float(v) for v in hi)))


def covering_line_strips(inner: AdmissibleCovering, extent: float,
                         kappa: float | None = None) -> AdmissibleCovering:
    """Covering of R x X_2: each strip R x Q_2 is tiled by intervals
    whose half-width equals d_{Q_2}, anchored at the origin.

    Tiles overhang the requested extent so that every strip is tiled by
    full-size cells; the window box used for coverage checks stays at
    [-extent, extent].
    """
    kappa = kappa if kappa is not None else inner.kappa
    dom = product_domain(real_line(), inner.domain)
    cuboids: list[Cuboid] = []
    for q2 in inner.cuboids:
        r1 = q2.diameter
        width = 2.0 * r1
        m_lo = int(math.floor(-extent / width))
        m_hi = int(math.ceil(extent / width))
        for m in range(m_lo, m_hi):
            center1 = (m + 0.5) * width
            cuboids.append(Cuboid((center1, *q2.center),
                                  (r1, *q2.half_widths), dom))
    win2_lo, win2_hi = inner.window_box
    return AdmissibleCovering(
        cuboids=tuple(cuboids), kappa=kappa, domain=dom,
        window_box=((-extent, *win2_lo), (extent, *win2_hi)),
        family=f"line_strips({inner.family})", window=(extent, inner.window))


def _split_edges(center: float, half: float, m: int) -> np.ndarray:
    # shared float edges so adjacent pieces meet exactly
    return center - half + 2.0 * half * np.arange(m + 1) / m


def box_product(a: AdmissibleCovering, b: AdmissibleCovering,
                max_ratio: int = 64) -> AdmissibleCovering:
    """Covering of X_a x X_b: each product cell's longer factor is split
    into congruent pieces with diameters comparable to the shorter one.

    The per-axis split count is ceil(d_long / d_short); ratios within
    1e-9 of 1 are treated as equal and left unsplit.  Ratios beyond
    ``max_ratio`` raise SplitBudgetError, which bounds the piece count on
    finite windows.
    """
    dom = product_domain(a.domain, b.domain)
    kappa = min(a.kappa, b.kappa)
    cells: list[Cuboid] = []
    for qa in a.cuboids:
        for qb in b.cuboids:
            da, db = qa.diameter, qb.diameter
            ratio = max(da, db) / min(da, db)
            if ratio <= 1.0 + 1e-9:
                cells.append(Cuboid((*qa.center, *qb.center),
                                    (*qa.half_widths, *qb.half_widths), dom))
                continue
            m = int(math.ceil(ratio - 1e-9))
            if m > max_ratio:
                raise SplitBudgetError(
                    f"diameter ratio {ratio:.3g} exceeds split budget {max_ratio}")
            long_q, short_q, long_first = (qa, qb, True) if da > db \
                else (qb, qa, False)
            axes_edges = [_split_edges(z, r, m)
                          for z, r in zip(long_q.center, long_q.half_widths)]
            index_mesh = np.meshgrid(*[np.arange(m)] * long_q.dimension,
                                     indexing="ij")
            for idx in zip(*(g.ravel() for g in index_mesh)):
                piece_center = []
                piece_half = []
                for ax, k in enumerate(idx):
                    e = axes_edges[ax]
                    piece_center.append(float(0.5 * (e[k] + e[k + 1])))
                    piece_half.append(float(0.5 * (e[k + 1] - e[k])))
                if long_first:
                    center = (*piece_center, *short_q.center)
                    half = (*piece_half, *short_q.half_widths)
                else:
                    center = (*short_q.center, *piece_center)
                    half = (*short_q.half_widths, *piece_half)
                cells.append(Cuboid(tuple(center), tuple(half), dom))
    wa_lo, wa_hi = a.window_box
    wb_lo, wb_hi = b.window_box
    return AdmissibleCovering(
        cuboids=tuple(cells), kappa=kappa, domain=dom,
        window_box=((*wa_lo, *wb_lo), (*wa_hi, *wb_hi)),
        family=f"({a.family})x({b.family})", window=(a.window, b.window))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _boxes_touch(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    return np.all((lo_a <= hi_b) & (lo_b <= hi_a), axis=-1)


def _starts_within(lo, hi, starts, side: str):
    """(k, l) for every box k and every l with starts[l] in [lo[k], hi[k]]
    (side "left") or in (lo[k], hi[k]] (side "right"), in ascending k, in
    blocks of at most ``WORKING_SET`` pairs."""
    order = np.argsort(starts, kind="stable")
    ordered = starts[order]
    first = np.searchsorted(ordered, lo, side=side)
    count = np.maximum(np.searchsorted(ordered, hi, side="right") - first, 0)
    end = np.cumsum(count)
    shift = first - (end - count)   # order[flat + shift[k]]: pair flat of k
    total = int(end[-1]) if len(end) else 0
    for s in range(0, total, WORKING_SET):
        e = min(s + WORKING_SET, total)
        k0, k1 = np.searchsorted(end, (s, e - 1), side="right")
        ks = np.arange(k0, k1 + 1)
        k = np.repeat(ks, np.minimum(end[ks], e)
                      - np.maximum(end[ks] - count[ks], s))
        yield k, order[np.arange(s, e) + shift[k]]


def _box_pairs(lo_a, hi_a, lo_b, hi_b) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), in lexicographic order, of the closed boxes
    A_i = [lo_a[i], hi_a[i]] and B_j = [lo_b[j], hi_b[j]] that intersect.

    Sort and sweep on axis 0: a pair is found from whichever box starts
    first there (A on ties), whose axis-0 extent holds the other's start;
    the candidates are then filtered on every axis, one block of
    ``_starts_within`` at a time, so only the pairs found outlive a block.
    Points are boxes with lo = hi; a B box that is a point on axis 0 holds
    no start after its own, so the second sweep leaves it out.
    """
    wide = np.flatnonzero(lo_b[:, 0] < hi_b[:, 0])
    found = [(np.empty(0, dtype=np.intp),) * 2]
    for i, j in itertools.chain(
            _starts_within(lo_a[:, 0], hi_a[:, 0], lo_b[:, 0], "left"),
            ((i, wide[j]) for j, i in _starts_within(
                lo_b[wide, 0], hi_b[wide, 0], lo_a[:, 0], "right"))):
        keep = np.ones(len(i), dtype=bool)
        for la, ha, lb, hb in zip(lo_a.T, hi_a.T, lo_b.T, hi_b.T):
            keep &= (la[i] <= hb[j]) & (lb[j] <= ha[i])
        found.append((i[keep], j[keep]))
    i, j = (np.concatenate(v) for v in zip(*found))
    order = np.lexsort((j, i))
    return i[order], j[order]


def _boxes_overlap_measure(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    width = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    return np.prod(np.maximum(width, 0.0), axis=-1)


@dataclass
class CoveringReport:
    family: str
    cuboid_count: int
    measured_c1: float
    measured_c2: float
    max_overlap_count: int
    covers_window: bool
    uncovered_points: list
    overlap_violations: list
    neighbours_equivalent: bool
    neighbour_counterexamples: list
    kappa: float
    samples: int

    @property
    def passed(self) -> bool:
        return (self.covers_window and not self.overlap_violations
                and self.neighbours_equivalent
                and math.isfinite(self.measured_c1)
                and math.isfinite(self.measured_c2))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} covering={self.family} cuboids={self.cuboid_count} "
                f"C1={self.measured_c1:.6g} C2={self.measured_c2:.6g} "
                f"overlap3*={self.max_overlap_count} "
                f"covers={self.covers_window} "
                f"neighbours={self.neighbours_equivalent}")


def validate_covering(c: AdmissibleCovering, samples: int = 4096) -> CoveringReport:
    """Measure the covering constants and check the four properties.

    Shape/overlap/neighbour checks run exactly on cuboid interval
    arithmetic; window coverage and the Q***-overlap count use Halton
    sampling of the window box.  Reports, never raises, on violations.

    Only pairs whose Q*** boxes meet are examined: Q*** contains Q, so
    every touching pair of cuboids is among them.  With the sort and
    sweep of ``_box_pairs`` the cost is O(n log n + pairs), not O(n^2).
    """
    n = len(c.cuboids)
    lo, hi = c.boxes()
    lo3, hi3 = c.enlarged_boxes(3)
    r = np.array([q.half_widths for q in c.cuboids])
    diam = np.array([q.diameter for q in c.cuboids])

    measured_c1 = float(np.max(r.max(axis=1) / r.min(axis=1)))

    i, j = _box_pairs(lo3, hi3, lo3, hi3)
    distinct = i < j
    i, j = i[distinct], j[distinct]
    touch = _boxes_touch(lo[i], hi[i], lo[j], hi[j])
    overlap = _boxes_overlap_measure(lo[i], hi[i], lo[j], hi[j])
    # property 2: positive-measure overlaps between distinct cuboids
    scale = np.minimum(diam[i], diam[j])
    bad = np.flatnonzero(overlap > 1e-12 * scale ** lo.shape[1])[:16]
    overlap_violations = [(int(i[k]), int(j[k]), float(overlap[k]))
                          for k in bad]
    # property 4 on touching pairs
    measured_c2 = 1.0
    if np.any(touch):
        ratio = np.maximum(diam[i] / diam[j], diam[j] / diam[i])
        measured_c2 = max(measured_c2, float(ratio[touch].max()))
    # (neighbours): Q1*** meets Q2*** iff Q1 meets Q2
    mismatch = np.flatnonzero(~touch)
    neighbour_bad = [(int(i[k]), int(j[k])) for k in mismatch[:16]]

    win_lo = np.asarray(c.window_box[0], dtype=float)
    win_hi = np.asarray(c.window_box[1], dtype=float)
    margin = 1e-9 * (win_hi - win_lo)
    pts = win_lo + margin + halton(samples, len(win_lo)) \
        * (win_hi - win_lo - 2 * margin)
    covered = np.zeros(samples, dtype=bool)
    covered[_box_pairs(pts, pts, lo, hi)[0]] = True
    count3 = np.bincount(_box_pairs(pts, pts, lo3, hi3)[0], minlength=samples)
    uncovered = [tuple(map(float, p)) for p in pts[~covered][:16]]

    return CoveringReport(
        family=c.family, cuboid_count=n,
        measured_c1=measured_c1, measured_c2=measured_c2,
        max_overlap_count=int(count3.max()),
        covers_window=bool(covered.all()), uncovered_points=uncovered,
        overlap_violations=overlap_violations,
        neighbours_equivalent=not mismatch.size,
        neighbour_counterexamples=neighbour_bad,
        kappa=c.kappa, samples=samples)


# ---------------------------------------------------------------------------
# Partition of unity
# ---------------------------------------------------------------------------

class PartitionOfUnity:
    """Normalized trapezoid bumps psi_Q subordinate to {Q*}.

    The raw bump equals 1 on Q and falls linearly to 0 on the boundary of
    Q* (per-axis product of 1-D trapezoids); psi_Q divides by the bump
    sum.  The bumps are Lipschitz rather than C^1: the construction only
    needs the derivative bound ||psi_Q'|| <= C / d_Q, which the linear
    ramps satisfy almost everywhere.  Every result comes from ``_pairs``.
    """

    def __init__(self, covering: AdmissibleCovering):
        self.covering = covering
        self._z = np.array([q.center for q in covering.cuboids])
        self._r = np.array([q.half_widths for q in covering.cuboids])
        self._kappa = covering.kappa
        # closed Q* boxes, outside which a bump is exactly 0.0
        reach = self._kappa * self._r
        self._star_lo = self._z - reach
        self._star_hi = self._z + reach
        # probe the window for holes at construction time
        self._pairs(self._window_probe(256))

    def _window_probe(self, count: int) -> np.ndarray:
        lo = np.asarray(self.covering.window_box[0], dtype=float)
        hi = np.asarray(self.covering.window_box[1], dtype=float)
        return lo + halton(count, len(lo)) * (hi - lo)

    def _as_points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        d = self.covering.dimension
        if d == 1 and (pts.ndim == 1 or pts.ndim == 0):
            pts = np.atleast_1d(pts)[:, None]
        return pts

    def _bump(self, j, pts) -> np.ndarray:
        """The bumps of the cuboids j at the points pts, elementwise over
        the leading axes (the last axis of pts holds the coordinates).

        A bump is nonzero only where |x - z| < kappa r, and then
        z - kappa r <= x <= z + kappa r also holds in floating point, so a
        test against the closed Q* boxes never leaves out a nonzero bump.
        """
        r = self._r[j]
        dist = np.abs(pts - self._z[j])
        ramp = (self._kappa * r - dist) / ((self._kappa - 1.0) * r)
        return np.prod(np.clip(ramp, 0.0, 1.0), axis=-1)

    def _pairs(self, pts, strict: bool = True):
        """The (cuboid, point) pairs (c, p) of the closed Q* boxes and the
        points pts (k, d), in ascending cuboid order, the bumps b there and
        each point's bump sum s, so that psi = b / s[p].

        ``np.bincount`` adds a point's bumps one after another in ascending
        cuboid order, whatever the other points are.  A point with a NaN
        coordinate meets no box and gets s = NaN, so its psi is NaN.  Where
        no bump reaches a point, CoveringHoleError names the first such
        point, or with ``strict=False`` s = inf there, so its psi is 0.
        """
        c, p = _box_pairs(self._star_lo, self._star_hi, pts, pts)
        b = self._bump(c, pts[p])
        # bincount gives ints when there are no pairs
        s = np.bincount(p, weights=b, minlength=len(pts)).astype(float)
        s[np.isnan(pts).any(axis=1)] = np.nan
        hole = s <= 0.0
        if np.any(hole):
            if strict:
                raise CoveringHoleError(
                    f"no bump reaches point {tuple(pts[hole][0])}")
            s[hole] = np.inf
        return c, p, b, s

    def psi_sum(self, x) -> np.ndarray:
        """sum_Q psi_Q(x), each point's psi added in ascending cuboid order,
        with no (n_cuboids, n_points) matrix.  Raises CoveringHoleError
        where no bump reaches; NaN at a NaN point."""
        pts = self._as_points(x)
        _, p, b, s = self._pairs(pts)
        total = np.bincount(p, weights=b / s[p],
                            minlength=len(pts)).astype(float)
        total[np.isnan(s)] = np.nan
        return total

    def evaluate_all(self, x, strict: bool = True) -> np.ndarray:
        """psi matrix, shape (n_cuboids, n_points); columns sum to 1, and
        the column of a NaN point is NaN.

        With ``strict=False`` points beyond the finite window (where no
        bump reaches) yield psi = 0 instead of raising.
        """
        pts = self._as_points(x)
        c, p, b, s = self._pairs(pts, strict)
        out = np.zeros((len(self._z), len(pts)))
        out[c, p] = b / s[p]
        out[:, np.isnan(s)] = np.nan
        return out

    def evaluate(self, index: int, x, strict: bool = True) -> np.ndarray:
        """Row ``index`` of ``evaluate_all(x, strict)``, bit for bit."""
        pts = self._as_points(x)
        return self.evaluate_rows([index], pts[None],
                                  np.ones((1, len(pts)), dtype=bool), strict)

    def evaluate_rows(self, index, pts, valid, strict: bool = True) -> np.ndarray:
        """psi_{index[i]} at the valid points of row i of pts (rows, m, d),
        bit for bit what ``evaluate(index[i], pts[i][valid[i]])`` gives;
        flat, in row order.  The hole check names the first valid point,
        in that order, that no bump reaches.

        Each point's own-cuboid bump (0.0 where its closed Q* does not
        hold the point) is divided by the point's bump sum from ``_pairs``.
        """
        pts = pts[valid]
        own = np.repeat(np.asarray(index), valid.sum(axis=1))
        c, p, b, s = self._pairs(pts, strict)
        mine = c == own[p]
        num = np.zeros(len(pts))
        num[p[mine]] = b[mine]
        return num / s

    def derivative_bound(self, index: int) -> float:
        """max |psi'| over Q*, central differences at 1000 points (1-D only).

        The scan stays inside the covered window; outside it the finite
        family has no bumps and psi is undefined.
        """
        if self.covering.dimension != 1:
            raise NotImplementedError("derivative scan implemented for d=1")
        q = self.covering.cuboids[index]
        z, r = q.center[0], q.half_widths[0]
        kr = self._kappa * r
        win_lo = self.covering.window_box[0][0]
        win_hi = self.covering.window_box[1][0]
        h = 2.0 * kr / 1000 * 1e-3
        lo = max(z - kr, win_lo + 2 * h)
        hi = min(z + kr, win_hi - 2 * h)
        u = np.linspace(lo, hi, 1000)
        psi_p = self.evaluate(index, u + h)
        psi_m = self.evaluate(index, u - h)
        return float(np.max(np.abs(psi_p - psi_m) / (2.0 * h)))


def partition_of_unity(covering: AdmissibleCovering) -> PartitionOfUnity:
    return PartitionOfUnity(covering)


# ---------------------------------------------------------------------------
# SVG emitter
# ---------------------------------------------------------------------------

def covering_svg(c: AdmissibleCovering, size: int = 640,
                 log_axes: bool = False, margin: float = 12.0) -> str:
    """One rectangle per cuboid of a 2-D covering; optional log-log axes."""
    if c.dimension != 2:
        raise ValueError("SVG emitter draws 2-D coverings")
    lo, hi = c.boxes()
    if log_axes:
        if np.any(lo <= 0):
            raise ValueError("log axes need strictly positive boxes")
        lo, hi = np.log10(lo), np.log10(hi)
    mn = lo.min(axis=0)
    mx = hi.max(axis=0)
    span = np.maximum(mx - mn, 1e-300)
    scale = (size - 2 * margin) / span.max()

    def sx(v):
        return margin + (v - mn[0]) * scale

    def sy(v):
        return size - margin - (v - mn[1]) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for (l0, l1), (h0, h1) in zip(lo, hi):
        x, y = sx(l0), sy(h1)
        w, h = (h0 - l0) * scale, (h1 - l1) * scale
        lines.append(
            f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" height="{h:.3f}" '
            f'fill="none" stroke="black" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
