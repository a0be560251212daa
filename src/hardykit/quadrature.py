"""Shared numerical engines.

Three pieces used throughout the package:

* geometric t-grids discretizing suprema over the time variable, with a
  vectorized golden-section refinement pass around the discrete argmax;

* product midpoint rules over boxes, box complements, and windows, with
  two-level Richardson refinement and a reported error estimate, for
  integrands of one value or of rows of values per node;

* 15-point Gauss-Kronrod panels plus ``integrate_adaptive``, the one
  adaptive 1-D driver (the stable density's Kanter integral and clipped
  mass integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError

# ---------------------------------------------------------------------------
# Gauss-Kronrod 15/7
# ---------------------------------------------------------------------------

_GK_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
GK15_X = np.concatenate([-_GK_NODES[:-1], _GK_NODES[::-1]])
GK15_WK = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
GK15_WG = np.concatenate([_GK_WG[:-1], _GK_WG[::-1]])


def gauss_kronrod_15(f, a: float, b: float) -> tuple[float, float]:
    """One K15/G7 panel on [a, b]: (K15 integral, error estimate).

    The estimate is QUADPACK's qk15 (Piessens et al. 1983):
    resasc * min(1, (200 |K15 - G7| / resasc)^1.5), where resasc is the
    K15 integral of |f - mean f|, so it scales with the integrand.
    """
    h = 0.5 * (b - a)
    y = np.asarray(f(0.5 * (a + b) + h * GK15_X), dtype=float)
    resk = float(np.dot(GK15_WK, y))
    k15 = h * resk
    g7 = h * float(np.dot(GK15_WG, y))
    diff = abs(k15 - g7)
    resasc = h * float(np.dot(GK15_WK, np.abs(y - 0.5 * resk)))
    if resasc == 0.0 or diff == 0.0:
        return k15, diff
    return k15, resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)


def integrate_adaptive(f, a: float, b: float, *, rtol: float = 1e-10,
                       atol: float = 0.0, breakpoints=(),
                       max_panels: int = 2000) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b] with optional seed breakpoints.

    Bisects the worst-error panel until the summed error estimate meets
    max(atol, rtol * |integral|); raises QuadratureError with the achieved
    estimate once the panel budget is exhausted.
    """
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = gauss_kronrod_15(f, lo, hi)
        panels.append((err, lo, hi, val))
    while True:
        total = math.fsum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
        if err <= max(atol, rtol * abs(total)):
            return total, err
        if len(panels) >= max_panels:
            raise QuadratureError(
                "adaptive quadrature budget exhausted",
                estimate=err, budget=max_panels)
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        v1, e1 = gauss_kronrod_15(f, lo, mid)
        v2, e2 = gauss_kronrod_15(f, mid, hi)
        panels.append((e1, lo, mid, v1))
        panels.append((e2, mid, hi, v2))


# ---------------------------------------------------------------------------
# Quasi-random sequences
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def halton(n: int, dim: int, start: int = 1) -> np.ndarray:
    """First n Halton points in [0,1)^dim (deterministic, unseeded)."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    out = np.empty((n, dim))
    index = np.arange(start, start + n, dtype=np.int64)
    for j in range(dim):
        base = _PRIMES[j]
        k = index
        value = np.zeros(n)
        denom = 1.0
        # one pass per digit position, all points at once; a point whose
        # digits are used up adds 0.0, which leaves its value unchanged
        while np.any(k > 0):
            k, digit = np.divmod(k, base)
            denom *= base
            value += digit / denom
        out[:, j] = value
    return out


# ---------------------------------------------------------------------------
# Time grids and suprema in t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TGrid:
    """Geometric grid covering [t_min, t_max]."""

    t_min: float
    t_max: float
    points_per_decade: int = 16

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")

    @property
    def values(self) -> np.ndarray:
        decades = math.log10(self.t_max / self.t_min)
        count = max(2, int(round(decades * self.points_per_decade)) + 1)
        return np.geomspace(self.t_min, self.t_max, count)


class SupResult(NamedTuple):
    values: np.ndarray         # (deltas, N): sup over t of t^delta f(t, .)
    argmax_t: np.ndarray       # (deltas, N): refined maximizer
    boundary_frac: np.ndarray  # (deltas,): share of argmaxes at a grid end


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# values per call of ``f`` on the t-grid: a chunk holds max(1, 2**15 // N) times
_CHUNK_VALUES = 2 ** 15


def golden_refine(f: Callable, ts: np.ndarray, idx: np.ndarray,
                  deltas, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section pass in log-t between the grid neighbours of idx.

    Row r of ``idx`` (shape (len(deltas), N)) holds the grid argmax of
    t^deltas[r] * f(t) per batch point; every row is refined in the same
    calls to ``f``, which receive t of the shape of ``idx``.  Returns
    (values, maximizers), shaped like ``idx``.
    """
    deltas = [float(d) for d in np.atleast_1d(deltas)]
    a = np.log(ts[np.maximum(idx - 1, 0)])
    b = np.log(ts[np.minimum(idx + 1, len(ts) - 1)])
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)

    def g(log_t):
        t = np.exp(log_t)
        rows = t.reshape(len(deltas), -1)
        weight = np.stack([row ** dl for row, dl in zip(rows, deltas)])
        return np.asarray(f(t), dtype=float) * weight.reshape(t.shape)

    f1 = g(x1)
    f2 = g(x2)
    for _ in range(iters):
        take_left = f1 >= f2
        b = np.where(take_left, x2, b)
        a = np.where(take_left, a, x1)
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        f1, f2 = g(x1), g(x2)
    refined = np.maximum(f1, f2)
    t_ref = np.exp(np.where(f1 >= f2, x1, x2))
    return refined, t_ref


def _grid_values(f: Callable, ts: np.ndarray) -> np.ndarray:
    """(T, N) values of f on the t-grid, evaluated in chunks of times."""
    first = np.asarray(f(ts[:1, None]), dtype=float)
    n = first.shape[-1]
    rows = max(1, _CHUNK_VALUES // n)
    vals = np.empty((len(ts), n))
    vals[:1] = first
    for i in range(1, len(ts), rows):
        vals[i:i + rows] = f(ts[i:i + rows, None])
    return vals


def sup_over_t(f: Callable, grid: TGrid, deltas=(0.0,),
               golden_iters: int = 18) -> SupResult:
    """max over the t-grid of t^delta * f(t) for every delta, refined by
    golden section.

    ``f`` is called with a column of times, shape (rows, 1), and returns
    the batch values at each of them, shape (rows, N); the golden pass
    calls it with one time per value, shape (len(deltas), N).  One grid
    evaluation and one golden pass serve every delta.
    """
    ts = grid.values
    deltas = [float(d) for d in deltas]
    vals = _grid_values(f, ts)
    n = vals.shape[1]
    cols = np.arange(n)
    idx = np.empty((len(deltas), n), dtype=np.intp)
    best = np.empty((len(deltas), n))
    for r, delta in enumerate(deltas):
        weighted = vals * (ts[:, None] ** delta)
        idx[r] = np.argmax(weighted, axis=0)
        best[r] = weighted[idx[r], cols]
    boundary = np.mean((idx == 0) | (idx == len(ts) - 1), axis=1)
    if golden_iters > 0:
        refined, t_ref = golden_refine(f, ts, idx, deltas, golden_iters)
    else:
        refined, t_ref = best, ts[idx]
    improved = refined > best
    return SupResult(np.maximum(best, refined),
                     np.where(improved, t_ref, ts[idx]), boundary)


# ---------------------------------------------------------------------------
# Spatial midpoint rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Panel:
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    nodes_per_axis: tuple[int, ...]

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.hi, self.lo)))


@dataclass(frozen=True)
class SpatialRule:
    """Disjoint axis-aligned panels with per-panel midpoint grids.

    Weights are positive and sum to the measure of the covered region by
    construction.
    """

    panels: tuple[Panel, ...]

    @property
    def dimension(self) -> int:
        return len(self.panels[0].lo) if self.panels else 1

    @property
    def volume(self) -> float:
        return sum(p.volume for p in self.panels)

    def nodes_and_weights(self, level: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint nodes/weights; level multiplies every axis count."""
        pts, wts = [], []
        for p in self.panels:
            axes = []
            cell = 1.0
            for a, b, n in zip(p.lo, p.hi, p.nodes_per_axis):
                m = n * level
                h = (b - a) / m
                axes.append(a + h * (np.arange(m) + 0.5))
                cell *= h
            if len(axes) == 1:
                grid = axes[0][:, None]
            else:
                mesh = np.meshgrid(*axes, indexing="ij")
                grid = np.stack([g.ravel() for g in mesh], axis=-1)
            pts.append(grid)
            wts.append(np.full(grid.shape[0], cell))
        if not pts:
            d = self.dimension
            return np.empty((0, d)), np.empty(0)
        return np.concatenate(pts), np.concatenate(wts)


class IntegralResult(NamedTuple):
    value: float | list[float]
    error: float | list[float]


def integrate(rule: SpatialRule, f, tol: float | None = None) -> IntegralResult:
    """Weighted sum with two-level Richardson refinement.

    ``f`` receives nodes of shape (N,) in one dimension, (N, d) above, and
    returns N values, or rows of N values.  Each row is summed as a call
    for that row alone would sum it, so value and error are floats, or
    lists with one float per row.  The reported error is the coarse-fine
    difference; when ``tol`` is set and any row's error exceeds it, a
    QuadratureError carrying the largest estimate is raised.
    """
    if not rule.panels:
        return IntegralResult(0.0, 0.0)
    d = rule.dimension

    def apply(level):
        pts, wts = rule.nodes_and_weights(level)
        x = pts[:, 0] if d == 1 else pts
        return np.sum(wts * np.asarray(f(x), dtype=float), axis=-1)

    coarse = apply(1)
    fine = apply(2)
    value = fine + (fine - coarse) / 3.0
    error = np.abs(fine - coarse)
    if tol is not None and np.any(error > tol):
        raise QuadratureError("spatial integral error estimate above tolerance",
                              estimate=float(np.nanmax(error)), budget=tol)
    return IntegralResult(value.tolist(), error.tolist())


def rule_for_box(lo, hi, nodes_per_axis) -> SpatialRule:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(hi <= lo):
        return SpatialRule(panels=())
    if np.isscalar(nodes_per_axis) or isinstance(nodes_per_axis, int):
        nodes_per_axis = (int(nodes_per_axis),) * len(lo)
    return SpatialRule(panels=(Panel(tuple(lo), tuple(hi), tuple(nodes_per_axis)),))


def rule_for_complement(window_lo, window_hi, hole_lo, hole_hi,
                        nodes_near: int = 32, nodes_cross: int = 24
                        ) -> SpatialRule:
    """Window minus hole as a graded tensor decomposition.

    Every axis is cut into the hole range plus geometrically growing
    panels on both sides; the rule is the product of these segments with
    the all-inside box removed.  Near-hole structure (where condition
    integrands ridge along the hole's coordinate ranges) is resolved on
    every axis without wasting nodes on the far field.
    """
    window_lo = np.atleast_1d(np.asarray(window_lo, dtype=float))
    window_hi = np.atleast_1d(np.asarray(window_hi, dtype=float))
    hole_lo = np.atleast_1d(np.asarray(hole_lo, dtype=float))
    hole_hi = np.atleast_1d(np.asarray(hole_hi, dtype=float))
    d = len(window_lo)
    hole_lo = np.maximum(hole_lo, window_lo)
    hole_hi = np.minimum(hole_hi, window_hi)
    n_graded = nodes_near if d == 1 else max(6, nodes_cross // 2)
    n_inside = nodes_cross
    first_frac = 8.0 if d == 1 else 2.0
    grow = 2.0 if d == 1 else 2.5

    def graded(start, end, first):
        """Segments from start toward end with geometrically growing widths."""
        sign = 1.0 if end > start else -1.0
        edges = [start]
        w = first
        while sign * (end - edges[-1]) > 1.5 * w:
            edges.append(edges[-1] + sign * w)
            w *= grow
        edges.append(end)
        return [(min(a, b), max(a, b), n_graded, False)
                for a, b in zip(edges[:-1], edges[1:]) if a != b]

    axis_segments: list[list[tuple[float, float, int, bool]]] = []
    for j in range(d):
        width = hole_hi[j] - hole_lo[j]
        first = max(width / first_frac, 1e-12)
        inside = [(hole_lo[j], hole_hi[j], n_inside, True)] if width > 0 else []
        axis_segments.append(graded(hole_lo[j], window_lo[j], first) + inside
                             + graded(hole_hi[j], window_hi[j], first))

    panels: list[Panel] = []
    index_mesh = np.meshgrid(*[np.arange(len(s)) for s in axis_segments],
                             indexing="ij")
    for idx in zip(*(g.ravel() for g in index_mesh)):
        segs = [axis_segments[j][k] for j, k in enumerate(idx)]
        if all(s[3] for s in segs):
            continue  # the hole itself
        panels.append(Panel(tuple(s[0] for s in segs),
                            tuple(s[1] for s in segs),
                            tuple(s[2] for s in segs)))
    return SpatialRule(panels=tuple(panels))
