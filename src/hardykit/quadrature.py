"""Shared numerical engines.

Three pieces used throughout the package:

* geometric t-grids discretizing suprema over the time variable, with a
  vectorized Brent-style refinement (parabolic steps, golden-section
  fallback) around the discrete argmax;

* product midpoint rules over boxes, box complements, and windows, with
  two-level Richardson refinement and a reported error estimate, for
  integrands of one value or of rows of values per node;

* 15-point Gauss-Kronrod panels, ``bisect_panels``, the one pass-by-pass
  bisection loop behind every adaptive table (the subordination rule in
  ``kernels``, the stable density's Kanter integrals), and on it
  ``integrate_adaptive``, the adaptive 1-D integral (clipped mass
  integrals), and ``ChebTable``, the piecewise Chebyshev table (the
  radial profile in ``kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError

# The working-set budget: the most elements one temporary array holds on
# the paths whose arrays would otherwise grow with the input (the box sweep
# of ``coverings``, the blocks of ``atoms.localize``, the erfc terms of
# ``kernels``' exact ``step_apply``, the t-grid chunks and weighted blocks
# of ``sup_over_t``, the blocks of Kanter's integrals in
# ``specfun.stable_density``).  Those paths work in blocks under it, and no
# result depends on it.
WORKING_SET = 2 ** 16

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


def gauss_kronrod_15(f, a, b):
    """K15/G7 panels on [a, b], arrays of panel ends: (K15 integrals,
    error estimates), shaped like a and b, from one call of ``f`` on the
    1-D array of every panel's 15 nodes, panel by panel.

    The estimate is QUADPACK's qk15 (Piessens et al. 1983):
    resasc * min(1, (200 |K15 - G7| / resasc)^1.5), where resasc is the
    K15 integral of |f - mean f|, so it scales with the integrand.
    """
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + h[..., None] * GK15_X
    y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    resk = y @ GK15_WK
    k15 = h * resk
    diff = np.abs(k15 - h * (y @ GK15_WG))
    resasc = h * (np.abs(y - 0.5 * resk[..., None]) @ GK15_WK)
    # where resasc = 0 the ratio is inf or NaN, which fmin drops: err = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return k15, resasc * np.fmin(1.0, (200.0 * diff / resasc) ** 1.5)


def bisect_panels(lo, hi, check, key, max_panels: int, what: str):
    """Refine the panels [lo, hi] pass by pass: the one bisection loop of
    ``integrate_adaptive``, the stable density's Kanter integrals, the
    subordination rule and ``ChebTable``.

    Each pass makes one call ``check(lo, hi, key)`` on every pending
    panel.  It returns ``(ok, err, *data)``, arrays with one entry or row
    per panel: the panels where ``ok`` holds are kept with their data, and
    the others are halved into the next pass, both halves under their
    panel's key (all left halves, then all right halves).  Once the panels
    kept and pending under one key would number more than ``max_panels``,
    raises QuadratureError("<what> above budget") with the largest ``err``
    of a failing panel, so a panel that never passes costs bounded work.
    Returns lo, hi, key and the data of the kept panels, sorted by
    (key, lo).
    """
    kept = []
    while lo.size:
        ok, err, *data = check(lo, hi, key)
        kept.append([lo[ok], hi[ok], key[ok], *(d[ok] for d in data)])
        fail = ~ok
        held = np.concatenate([k[2] for k in kept] + [key[fail]] * 2)
        if fail.any() and np.max(np.bincount(held)) > max_panels:
            raise QuadratureError(f"{what} above budget",
                                  estimate=float(np.max(err[fail])),
                                  budget=max_panels)
        # rows: left ends, midpoints, right ends of the failing panels
        ends = np.stack([lo[fail], 0.5 * (lo + hi)[fail], hi[fail]])
        lo, hi, key = ends[:-1].ravel(), ends[1:].ravel(), np.tile(key[fail], 2)
    out = [np.concatenate(c) for c in zip(*kept)]
    order = np.lexsort((out[0], out[2]))
    return [c[order] for c in out]


def integrate_keyed(f, lo, hi, key, *, rtol: float, atol: float = 0.0,
                    max_panels: int) -> np.ndarray:
    """Adaptive Gauss-Kronrod integrals, one per key, refined together by
    ``bisect_panels``: key k integrates over its seed panels [lo, hi], in
    at most ``max_panels`` panels.

    ``f(x, k)`` takes a 1-D array of nodes and each node's key.  A pass
    makes one call of ``f`` on the 15 nodes of every pending panel.  Each
    key's tolerance is max(atol, rtol * |integral|), the integral summed
    over its panels kept so far and those of the pass.  A panel is kept
    when its error estimate is within its share (hi - lo)/(key's span) of
    it.  All of a key's pending panels are kept once its estimates, kept
    and pending, sum to within it, or once the halves of its panels that
    failed the last pass sum to no smaller an estimate than those panels
    did, and to a value within it of theirs: then halving no longer helps
    and the estimates are the integrand's rounding noise, where a
    worst-panel-first loop stops too.  Returns per key, as the two rows
    of one array, the integral and the summed estimate of its kept panels.
    """
    span = np.bincount(key, hi - lo)
    done = np.zeros((2, span.size))     # the sums over the kept panels
    last = np.full((2, span.size), np.inf)  # and over the last failures

    def sums(key, *values):     # per key, as rows
        return np.array([np.bincount(key, v, span.size) for v in values])

    def check(lo, hi, key):
        val, err = gauss_kronrod_15(lambda x: f(x, np.repeat(key, 15)), lo, hi)
        pend = sums(key, val, err)
        total, spent = done + pend
        tol = np.maximum(atol, rtol * np.abs(total))
        stop = (spent <= tol) | ((pend[1] >= last[1])
                                 & (np.abs(pend[0] - last[0]) <= tol))
        ok = (err <= (hi - lo) / span[key] * tol[key]) | stop[key]
        done[:] += sums(key[ok], val[ok], err[ok])
        last[:] = sums(key[~ok], val[~ok], err[~ok])
        return ok, err

    bisect_panels(lo, hi, check, key, max_panels, "adaptive quadrature")
    return done


def integrate_adaptive(f, a: float, b: float, *, rtol: float = 1e-10,
                       atol: float = 0.0, breakpoints=(),
                       max_panels: int = 2000) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b] with optional seed breakpoints:
    ``integrate_keyed`` with one key, so the summed error estimate meets
    max(atol, rtol * |integral|).  Raises QuadratureError once more than
    ``max_panels`` panels would be needed.
    """
    if a == b:
        return 0.0, 0.0
    edges = np.array(sorted({a, b, *(p for p in breakpoints if a < p < b)}))
    val, err = integrate_keyed(lambda x, _: f(x), edges[:-1], edges[1:],
                               np.zeros(len(edges) - 1, dtype=np.intp),
                               rtol=rtol, atol=atol, max_panels=max_panels)
    return float(val[0]), float(err[0])


# ---------------------------------------------------------------------------
# Piecewise Chebyshev tables
# ---------------------------------------------------------------------------

# Chebyshev extrema of degree 16 on [-1, 1], and four off-node check
# points at angle midpoints, where the aliased error T_17 - T_15 of the
# interpolant is largest
_CHEB_DEG = 16
_CHEB_Z = np.cos(math.pi * np.arange(_CHEB_DEG + 1) / _CHEB_DEG)
_CHEB_CHECK = np.cos(math.pi * (np.array([3, 7, 8, 12]) + 0.5) / _CHEB_DEG)


class ChebTable:
    """f(u) on [edges[0], edges[-1]] as piecewise Chebyshev interpolants of
    degree 16, refined pass by pass (``bisect_panels``) from the seed
    panels between consecutive ``edges``.

    A pass calls ``f`` once per pending panel, on the panel's 17 Chebyshev
    extrema and 4 off-node points (a 1-D array of 21 u), fits all panels
    with one multi-column ``chebfit`` and checks them at the off-node
    points at once.  A panel whose interpolant there differs from f by
    more than ``tol``, or where some value of f is not finite (kept out of
    the fit, whose lstsq scales every column by the largest value), is
    halved into the next pass.  A table that would hold more than
    ``max_panels`` panels, kept and pending, raises
    QuadratureError("<what> above budget").  The kept panels run from left
    to right: ``lo``, ``hi`` and ``coef``, one row per degree.

    Calling the table clamps u to [lo[0], hi[-1]] and runs numpy's
    ``chebval`` Clenshaw recurrence one degree at a time on each point's
    coefficient, with the bits of ``chebval`` and no (17 x points) gather,
    so a point's value does not depend on the other points.
    """

    def __init__(self, f, edges, tol: float, max_panels: int, what: str):
        # imported here, as scipy is: at module level it adds 0.7 MB to
        # every command, tabulated or not
        from numpy.polynomial.chebyshev import chebfit, chebval
        z = np.concatenate([_CHEB_Z, _CHEB_CHECK])

        def check(ua, ub, _):
            mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
            vals = np.array([f(m + h * z) for m, h in zip(mid, half)]).T
            broken = ~np.all(np.isfinite(vals), axis=0)
            vals[:, broken] = 0.0
            c_k = chebfit(_CHEB_Z, vals[:_CHEB_DEG + 1], _CHEB_DEG)
            err = np.max(np.abs(chebval(_CHEB_CHECK, c_k)
                                - vals[_CHEB_DEG + 1:].T), axis=1)
            err[broken] = np.inf
            return err <= tol, err, c_k.T

        # one key: the seed panels and their halves run from left to right
        self.lo, self.hi, _, coef = bisect_panels(
            edges[:-1], edges[1:], check, np.zeros(edges.size - 1, np.intp),
            max_panels, what)
        self.coef = np.ascontiguousarray(coef.T)

    def __call__(self, u):
        u = np.clip(u, self.lo[0], self.hi[-1])
        i = np.searchsorted(self.lo, u, side="right") - 1
        lo, hi = self.lo[i], self.hi[i]
        z = (2.0 * u - lo - hi) / (hi - lo)
        # numpy's chebval recurrence (c0, c1 = c_k - c1, c0 + c1 2z), one
        # degree at a time and in place
        z2 = 2 * z
        c0, c1 = self.coef[-2].take(i), self.coef[-1].take(i)
        for row in self.coef[-3::-1]:
            c_k = row.take(i)
            c_k -= c1
            c1 *= z2
            c1 += c0
            c0 = c_k
        c1 *= z
        c1 += c0
        return c1


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
    values: np.ndarray  # (deltas, N): sup over t of t^delta f(t, .)
    at_end: np.ndarray  # (deltas, N): grid argmax at the first or last time


# a golden-section step goes this share of the larger side into the bracket
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def golden_refine(f: Callable, t: np.ndarray, values: np.ndarray,
                  deltas, iters: int) -> np.ndarray:
    """Brent-style refinement in log t of a grid maximum.

    ``t`` and ``values`` (shape (3, len(deltas), N)) hold, per batch point
    and per row r, three consecutive grid times, among them the grid
    argmax of t^deltas[r] * f(t) (the first, last or middle one), and the
    weighted values there.  The maximum lies in the bracket between its
    grid neighbours.  Each of the ``iters`` calls to ``f`` receives one
    time per value, t of shape (len(deltas), N): the vertex of the
    parabola through the best three points seen when it lies strictly
    inside the bracket and off the best point, else a golden-section step
    0.382 of the way into the larger side of the bracket (Brent 1973,
    ch. 5).  The bracket closes at the new point, or, when the new point
    is better, at the old best.  Returns the running maximum over the grid
    value and every evaluation, shaped like one row of ``t``, so that a
    NaN anywhere propagates.
    """
    deltas = [float(d) for d in np.atleast_1d(deltas)]
    log_t = np.log(t)
    pos = np.argmax(values, axis=0)[None]

    def at(arr, i):
        return np.take_along_axis(arr, i, axis=0)[0]

    # x is the best point, w the second and v the third
    x, fx = at(log_t, pos), at(values, pos)
    w, fw = at(log_t, (pos + 1) % 3), at(values, (pos + 1) % 3)
    v, fv = at(log_t, (pos + 2) % 3), at(values, (pos + 2) % 3)
    swap = fv > fw
    w, fw, v, fv = (np.where(swap, v, w), np.where(swap, fv, fw),
                    np.where(swap, w, v), np.where(swap, fw, fv))
    a, b = at(log_t, np.maximum(pos - 1, 0)), at(log_t, np.minimum(pos + 1, 2))
    best = fx
    for _ in range(iters):
        dw, dv = x - w, x - v
        r, q = dw * (fx - fv), dv * (fx - fw)
        # the vertex is 0/0 where the points are flat, NaN or repeated
        with np.errstate(divide="ignore", invalid="ignore"):
            u = x - (dw * r - dv * q) / (2.0 * (r - q))
        above, below = b - x, a - x
        u = np.where((a < u) & (u < b) & (u != x), u,
                     x + _CGOLD * np.where(above > -below, above, below))
        t_u = np.exp(u)
        weight = np.stack([row ** dl for row, dl in zip(t_u, deltas)])
        f_u = np.asarray(f(t_u), dtype=float) * weight
        best = np.maximum(best, f_u)
        better = f_u > fx
        # x is at least as good as w, so a better point is also above w
        above_w, above_v = f_u >= fw, f_u >= fv
        # the old best (better) or the new point (worse) closes the
        # bracket from below when it lies below the other
        end = np.where(better, x, u)
        lower = better == (u > x)
        a, b = np.where(lower, end, a), np.where(lower, b, end)
        v, fv = (np.where(above_w, w, np.where(above_v, u, v)),
                 np.where(above_w, fw, np.where(above_v, f_u, fv)))
        w, fw = (np.where(better, x, np.where(above_w, u, w)),
                 np.where(better, fx, np.where(above_w, f_u, fw)))
        x, fx = np.where(better, u, x), np.where(better, f_u, fx)
    return best


def _grid_values(f: Callable, ts: np.ndarray) -> np.ndarray:
    """(T, N) values of f on the t-grid, evaluated in chunks of times."""
    first = np.asarray(f(ts[:1, None]), dtype=float)
    n = first.shape[-1]
    rows = max(1, (WORKING_SET // 2) // n)
    vals = np.empty((len(ts), n))
    vals[:1] = first
    for i in range(1, len(ts), rows):
        vals[i:i + rows] = f(ts[i:i + rows, None])
    return vals


def sup_over_t(f: Callable, grid: TGrid, deltas=(0.0,),
               golden_iters: int = 5) -> SupResult:
    """max over the t-grid of t^delta * f(t) for every delta, refined by
    ``golden_refine`` from the three grid times around each maximum.

    ``f`` is called with a column of times, shape (rows, 1), and returns
    the batch values at each of them, shape (rows, N); the refinement
    calls it ``golden_iters`` times with one time per value, shape
    (len(deltas), N), and 0 keeps the grid maximum.  One grid evaluation
    and one refinement serve every delta.  Returns the sup and, per delta
    and point, whether the grid argmax lies at the first or last time.
    """
    ts = grid.values
    deltas = [float(d) for d in deltas]
    vals = _grid_values(f, ts)
    last = len(ts) - 1
    n = vals.shape[1]
    cols = np.arange(n)
    # the weighted grid is formed in blocks of points, so that the grid
    # values are the one (T, N) array held
    block = max(1, (WORKING_SET // 2) // len(ts))
    idx = np.empty((len(deltas), n), dtype=np.intp)
    for r, delta in enumerate(deltas):
        weight = ts[:, None] ** delta
        for s in range(0, n, block):
            idx[r, s:s + block] = np.argmax(vals[:, s:s + block] * weight,
                                            axis=0)
    # three consecutive grid times holding the argmax, one more inside the
    # grid at either end
    start = np.maximum(np.minimum(idx - 1, last - 2), 0)
    near = np.minimum(start + np.arange(3)[:, None, None], last)
    fvals = np.stack([vals[near[:, r], cols] * ts[near[:, r]] ** delta
                      for r, delta in enumerate(deltas)], axis=1)
    return SupResult(golden_refine(f, ts[near], fvals, deltas, golden_iters),
                     (idx == 0) | (idx == last))


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

    def richardson_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, coarse weights, fine weights): the nodes of level 1 and
        then of level 2, of shape (N,) in one dimension and (N, d) above."""
        coarse, w_coarse = self.nodes_and_weights(1)
        fine, w_fine = self.nodes_and_weights(2)
        pts = np.concatenate([coarse, fine])
        return (pts[:, 0] if self.dimension == 1 else pts), w_coarse, w_fine


class IntegralResult(NamedTuple):
    value: float | list[float]
    error: float | list[float]


def richardson(vals, w_coarse: np.ndarray,
               w_fine: np.ndarray) -> IntegralResult:
    """Two-level Richardson sum of values on ``SpatialRule.richardson_nodes``.

    ``vals`` holds, along its last axis, the values at the coarse nodes
    and then at the fine ones; it is one row or rows of them.  Each row is
    summed as a call for that row alone would sum it, so value and error
    are floats, or lists with one float per row.  The reported error is
    the coarse-fine difference; ``verify`` and ``maximal`` judge it, not
    this sum, against ``error_budget_rel`` of the value.
    """
    n = len(w_coarse)
    coarse = np.sum(w_coarse * vals[..., :n], axis=-1)
    fine = np.sum(w_fine * vals[..., n:], axis=-1)
    value = fine + (fine - coarse) / 3.0
    error = np.abs(fine - coarse)
    return IntegralResult(value.tolist(), error.tolist())


def integrate(rule: SpatialRule, f) -> IntegralResult:
    """Weighted sum with two-level Richardson refinement: one call of ``f``
    on ``rule.richardson_nodes()``, summed by :func:`richardson`, whose
    error is reported, not judged."""
    if not rule.panels:
        return IntegralResult(0.0, 0.0)
    x, w_coarse, w_fine = rule.richardson_nodes()
    return richardson(np.asarray(f(x), dtype=float), w_coarse, w_fine)


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
