import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hardykit import quadrature as q
from hardykit.errors import QuadratureError
from hardykit.verifier import VerifierSettings


def test_tgrid_invariants():
    grid = q.TGrid(1e-6, 1e2, 16)
    v = grid.values
    assert v[0] == 1e-6 and v[-1] == 1e2
    assert np.all(np.diff(v) > 0)
    with pytest.raises(ValueError):
        q.TGrid(1.0, 0.5)


def test_sup_over_t_heat_closed_form():
    # sup_t (4 pi t)^{-1/2} exp(-r^2/4t) = (2 pi e)^{-1/2} / r at t = r^2/2
    rs = np.array([0.5, 1.0, 2.0, 5.0])
    grid = q.TGrid(1e-6, 1e4, 16)
    res = q.sup_over_t(
        lambda t: (4 * math.pi * t) ** -0.5 * np.exp(-rs ** 2 / (4 * t)), grid)
    expected = (2 * math.pi * math.e) ** -0.5 / rs
    assert np.max(np.abs(res.values[0] - expected) / expected) < 1e-4


def test_sup_over_t_monotone_hits_t_min():
    grid = q.TGrid(1e-6, 1e4, 16)
    res = q.sup_over_t(lambda t: (4 * math.pi * t) ** -0.5 * np.ones(1), grid)
    assert res.at_end.tolist() == [[True]]
    assert_allclose(res.values[0, 0], (4 * math.pi * 1e-6) ** -0.5, rtol=1e-12)


def test_sup_over_t_grid_stability():
    # doubling points_per_decade moves results by < 0.5%
    rs = np.geomspace(0.2, 8.0, 7)

    def f(t):
        return (4 * math.pi * t) ** -0.5 * np.exp(-rs ** 2 / (4 * t))

    a = q.sup_over_t(f, q.TGrid(1e-6, 1e4, 16)).values[0]
    b = q.sup_over_t(f, q.TGrid(1e-6, 1e4, 32)).values[0]
    assert np.max(np.abs(a - b) / b) < 5e-3


def test_integrate_constant_weight_normalization():
    rule = q.rule_for_box([1.0], [2.0], 64)
    res = q.integrate(rule, lambda x: np.ones_like(x))
    assert res.value == 1.0
    _, w = rule.nodes_and_weights()
    assert np.all(w > 0)
    assert_allclose(w.sum(), rule.volume, rtol=1e-14)


def test_integrate_gaussian_mass():
    t = 0.37
    w = 20 * math.sqrt(t)
    rule = q.rule_for_box([-w], [w], 512)
    res = q.integrate(rule,
                      lambda x: (4 * math.pi * t) ** -0.5 * np.exp(-x ** 2 / (4 * t)))
    assert abs(res.value - 1.0) < 1e-8


def test_complement_rule_additivity():
    # window 10x the cuboid: complement equals window minus hole
    f = lambda x: np.exp(-x ** 2 / 8.0)
    full = q.integrate(q.rule_for_box([-10.0], [10.0], 4096), f)
    hole = q.integrate(q.rule_for_box([1.0], [2.0], 512), f)
    comp = q.integrate(
        q.rule_for_complement([-10.0], [10.0], [1.0], [2.0], nodes_near=64), f)
    assert abs(full.value - hole.value - comp.value) < 1e-9


def test_complement_rule_volume_2d():
    comp = q.rule_for_complement([-4, -4], [4, 4], [1, 2], [2, 3])
    assert_allclose(comp.volume, 64.0 - 1.0, rtol=1e-12)


def test_refinement_convergence_invariant():
    # halving node spacing moves the value by less than the error estimate
    probes = [
        (lambda x: np.exp(-x ** 2), [-4.0], [4.0]),
        (lambda x: 1.0 / (1.0 + x ** 2), [0.0], [6.0]),
        (lambda x: np.abs(np.sin(3 * x)), [0.0], [3.0]),
    ]
    for f, lo, hi in probes:
        coarse = q.integrate(q.rule_for_box(lo, hi, 64), f)
        fine = q.integrate(q.rule_for_box(lo, hi, 128), f)
        assert abs(fine.value - coarse.value) <= coarse.error + 1e-15


def test_empty_rule():
    rule = q.rule_for_box([2.0], [1.0], 16)
    assert q.integrate(rule, lambda x: x).value == 0.0


def test_integrate_hard_tolerance_raises():
    rule = q.rule_for_box([0.0], [1.0], 8)
    with pytest.raises(QuadratureError):
        q.integrate(rule, lambda x: np.abs(np.sin(40 * x)), tol=1e-14)


def _row_rule(dim, complement):
    if complement:
        return q.rule_for_complement([-4.0] * dim, [4.0] * dim, [0.5] * dim,
                                     [1.5] * dim, nodes_near=12, nodes_cross=8)
    return q.rule_for_box([-1.0] * dim, [2.0] * dim, 17)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), complement=st.booleans(),
       rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_rows_match_per_row_calls(dim, complement, rows, seed):
    rule = _row_rule(dim, complement)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, rows)
    rate = rng.uniform(0.1, 5.0, rows)

    def row(r, x):
        z = x if dim == 1 else np.sum(x, axis=-1)
        return scale[r] * np.exp(-rate[r] * z * z) * (1.0 + np.sin(3.0 * z))

    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return np.stack([row(r, x) for r in range(rows)])

    stacked = q.integrate(rule, f)
    # one call of f on the coarse nodes and then the fine ones
    n = sum(len(rule.nodes_and_weights(level)[1]) for level in (1, 2))
    assert shapes == [(n,) if dim == 1 else (n, dim)]
    single = [q.integrate(rule, lambda x, r=r: row(r, x)) for r in range(rows)]
    assert all(type(v) is float for s in single for v in s)
    # bit for bit, one float per row
    assert [v.hex() for v in stacked.value] == [s.value.hex() for s in single]
    assert [e.hex() for e in stacked.error] == [s.error.hex() for s in single]
    # a tolerance that only the worst row exceeds raises; its error does not
    top = max(stacked.error)
    rest = max((e for e in stacked.error if e < top), default=0.0)
    with pytest.raises(QuadratureError):
        q.integrate(rule, f, tol=0.5 * (top + rest))
    assert q.integrate(rule, f, tol=top) == stacked


def test_adaptive_gk():
    val, err = q.integrate_adaptive(lambda x: np.exp(-x), 0.0, 40.0, rtol=1e-12)
    assert abs(val - 1.0) < 1e-11
    # spike needs the seed breakpoints
    t = 1e-6
    val, err = q.integrate_adaptive(
        lambda y: (4 * math.pi * t) ** -0.5 * np.exp(-(y - 0.5) ** 2 / (4 * t)),
        0.0, 1.0, rtol=1e-9,
        breakpoints=[0.5 - 10 * math.sqrt(t), 0.5 + 10 * math.sqrt(t)])
    assert abs(val - 1.0) < 1e-8


def test_adaptive_gk_error_scales_with_integrand():
    # the K15/G7 estimate is homogeneous of degree 1 in the integrand, so
    # c * f bisects the same panels at every scale c and the reported
    # error bounds the true one
    exact = math.atan(10.0)
    rel_true, rel_reported = [], []
    for c in 10.0 ** np.arange(-16, 7, 2):
        val, err = q.integrate_adaptive(lambda x: c / (1.0 + x * x),
                                        0.0, 10.0, rtol=1e-8)
        assert abs(val - c * exact) <= err
        rel_true.append(abs(val - c * exact) / (c * exact))
        rel_reported.append(err / (c * exact))
    assert max(rel_true) < 1e-13
    assert_allclose(rel_reported, rel_reported[0], rtol=1e-6)


def test_adaptive_gk_budget_error():
    with pytest.raises(QuadratureError) as info:
        q.integrate_adaptive(lambda x: np.sin(1e4 * x) ** 2, 0.0, 1.0,
                             rtol=1e-14, max_panels=8)
    assert info.value.estimate is not None


def test_bisect_panels_budget_binds_only_on_failure():
    # ten seed panels under one key against a budget of four: all pass at
    # once, so the table is whole and nothing is above budget
    lo = np.arange(10.0)

    def check(a, b, k):
        return np.ones(a.size, dtype=bool), np.zeros(a.size)

    out = q.bisect_panels(lo, lo + 1.0, check, np.zeros(10, dtype=np.intp),
                          4, "test table")
    np.testing.assert_array_equal(out[0], lo)


def test_integrate_keyed_budget_per_key():
    # the budget holds per integral: ten integrals of cos(40 x) over [0, 1]
    # take 16 panels each, 160 in all, within a budget of 16
    val, _ = q.integrate_keyed(lambda x, k: np.cos(40.0 * x), np.zeros(10),
                               np.ones(10), np.arange(10), rtol=1e-10,
                               max_panels=16)
    assert_allclose(val, math.sin(40.0) / 40.0, rtol=1e-10)
    # key 9 never resolves (NaN): it raises at its own budget of 50 panels,
    # without the panels the other keys leave unused, so no pass holds more
    # than 32 panels of 15 nodes
    sizes = []

    def f(x, k):
        sizes.append(x.size)
        return np.where(k == 9, np.nan, np.cos(x))

    with pytest.raises(QuadratureError, match="adaptive quadrature above"):
        q.integrate_keyed(f, np.zeros(10), np.ones(10), np.arange(10),
                          rtol=1e-10, max_panels=50)
    assert max(sizes) <= 15 * 32


def test_gauss_kronrod_constants_full_precision():
    # QUADPACK's qk15 nodes and weights to 33 digits: both weight sets sum
    # to 2, K15 is exact on x^k for k <= 22 and G7 for k <= 13 up to
    # rounding, and a smooth integral on one panel is correctly rounded
    assert math.fsum(q.GK15_WK) == 2.0 and math.fsum(q.GK15_WG) == 2.0
    for weights, degree in ((q.GK15_WK, 22), (q.GK15_WG, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(weights * q.GK15_X ** k) - exact) <= 4e-16
    for f, exact in ((lambda x: x ** 6, 1.0 / 7.0),
                     (np.exp, math.e - 1.0)):
        val, _ = q.integrate_adaptive(f, 0.0, 1.0)
        assert abs(val - exact) <= 4e-16 * exact


def test_halton_deterministic():
    a = q.halton(5, 2)
    b = q.halton(5, 2)
    assert np.array_equal(a, b)
    assert_allclose(a[0], [0.5, 1.0 / 3.0])
    assert np.all((a >= 0) & (a < 1))


def _halton_reference(n, dim, start=1):
    """Point-by-point radical inverse, the loop the vectorised halton
    must reproduce bit for bit."""
    out = np.empty((n, dim))
    for j in range(dim):
        base = q._PRIMES[j]
        for i in range(n):
            k = i + start
            value, denom = 0.0, 1.0
            while k > 0:
                k, digit = divmod(k, base)
                denom *= base
                value += digit / denom
            out[i, j] = value
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 5000), dim=st.integers(1, len(q._PRIMES)),
       start=st.one_of(st.integers(0, 3), st.integers(0, 10 ** 7)))
@example(n=5000, dim=len(q._PRIMES), start=1)
def test_halton_matches_point_loop(n, dim, start):
    got = q.halton(n, dim, start)
    ref = _halton_reference(n, dim, start)
    assert got.shape == (n, dim)
    assert got.tobytes() == ref.tobytes()


def _grid_near(f, ts, deltas):
    """Per point and delta: the grid argmax of t^delta f(t), and the three
    consecutive grid times that hold it (one more inside the grid at
    either end) with their weighted values, shape (3, len(deltas), N)."""
    vals = np.stack([np.asarray(f(t), dtype=float) for t in ts])
    cols = np.arange(vals.shape[1])
    idx, times, values = [], [], []
    for delta in deltas:
        weighted = vals * ts[:, None] ** delta
        i = np.argmax(weighted, axis=0)
        start = np.maximum(np.minimum(i - 1, len(ts) - 3), 0)
        near = np.minimum(start + np.arange(3)[:, None], len(ts) - 1)
        idx.append(i)
        times.append(ts[near])
        values.append(weighted[near, cols])
    return np.array(idx), np.stack(times, axis=1), np.stack(values, axis=1)


def test_golden_refine_quadratic():
    ts = np.geomspace(0.1, 10.0, 33)
    f = lambda t: -(np.log(np.atleast_1d(t)) - 0.3) ** 2 + 1.0
    _, t3, f3 = _grid_near(f, ts, [0.0])
    refined = q.golden_refine(f, t3, f3, 0.0, 5)
    # a parabola in log t: the first vertex is its peak
    assert abs(refined[0, 0] - 1.0) < 1e-14


@pytest.mark.parametrize("iters", [0, 1, 6, 15])
@pytest.mark.parametrize("deltas", [[0.0], [0.0, 0.1], [0.0, 0.1, -0.18]])
def test_golden_refine_one_call_per_iteration(iters, deltas):
    ts = np.geomspace(0.1, 10.0, 9)
    x = np.linspace(-0.5, 0.5, 7)
    shapes = []

    def f(t):
        shapes.append(np.shape(t))
        return np.exp(-(np.log(t) - x) ** 2)

    _, t3, f3 = _grid_near(f, ts, deltas)
    shapes.clear()
    q.golden_refine(f, t3, f3, deltas, iters)
    assert shapes == [(len(deltas), len(x))] * iters


def test_golden_refine_long_run_stays_on_peak():
    ts = np.geomspace(0.1, 10.0, 33)
    f = lambda t: -(np.log(np.atleast_1d(t)) - 0.3) ** 2 + 1.0
    _, t3, f3 = _grid_near(f, ts, [0.0])
    refined = q.golden_refine(f, t3, f3, 0.0, 40)
    assert abs(refined[0, 0] - 1.0) <= 1e-14


@pytest.mark.parametrize("k", range(1, 7))
def test_refinement_nan_propagates(k):
    # a NaN at any refined time makes the sup NaN, as a NaN on the grid does
    x = np.linspace(0.5, 2.0, 7)
    calls = []

    def f(t):
        if np.shape(t)[-1] == len(x):
            calls.append(t)
            if len(calls) == k:
                return np.full(np.shape(t), np.nan)
        return np.exp(-(np.log(t) - x) ** 2)

    res = q.sup_over_t(f, q.TGrid(0.1, 10.0, 4), golden_iters=6)
    assert np.all(np.isnan(res.values))
    assert len(calls) == 6


def _heat_sup(r, delta):
    a = 0.5 - delta
    return ((r * r / 4.0) ** (delta - 0.5) * a ** a * math.exp(-a)
            / math.sqrt(4.0 * math.pi))


@pytest.mark.parametrize("ppd", [8, 12, 16])
@pytest.mark.parametrize("delta", [0.0, 0.1, 0.18, -0.1])
def test_sup_over_t_heat_oracle(ppd, delta):
    # sup_t t^delta H_t(r) = (r^2/4)^(delta - 1/2) a^a e^-a / sqrt(4 pi),
    # a = 1/2 - delta, at t = r^2/4a: from 1e-3 to 250, inside the grid;
    # the verifier's default count of refinement steps
    rs = np.geomspace(0.05, 20.0, 41)
    res = q.sup_over_t(
        lambda t: (4 * math.pi * t) ** -0.5 * np.exp(-rs ** 2 / (4 * t)),
        q.TGrid(1e-6, 1e4, ppd), [delta], VerifierSettings().golden_iters)
    exact = np.array([_heat_sup(r, delta) for r in rs])
    assert np.max(np.abs(res.values[0] / exact - 1.0)) <= 1e-12
    assert not np.any(res.at_end)


def _shape_fn(shape, x):
    bump = lambda t, c: np.exp(-(np.log(t) - c) ** 2)
    if shape == "smooth":
        return lambda t: bump(t, x)
    if shape == "kinked":
        return lambda t: np.abs(bump(t, x) - 0.8 * bump(t, 0.7 - x))
    if shape == "flat":
        return lambda t: np.ones(np.broadcast(t, x).shape)
    return lambda t: np.zeros(np.broadcast(t, x).shape)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["smooth", "kinked", "flat", "zero"]),
       n=st.integers(1, 9), log_t_min=st.integers(-3, 0),
       decades=st.integers(1, 3), ppd=st.integers(1, 9),
       deltas=st.lists(st.sampled_from([0.0, 0.1, 0.18, -0.1, -0.18]),
                       min_size=1, max_size=3, unique=True),
       iters=st.integers(1, 8))
def test_refinement_stays_in_bracket(shape, n, log_t_min, decades, ppd,
                                     deltas, iters):
    # never below the grid maximum, and flagged at a grid end exactly where
    # the grid argmax lies there
    x = np.linspace(-1.5, 1.5, n) + 0.01 * log_t_min
    f = _shape_fn(shape, x)
    grid = q.TGrid(10.0 ** log_t_min, 10.0 ** (log_t_min + decades), ppd)
    res = q.sup_over_t(f, grid, deltas, iters)
    ts = grid.values
    idx, _, f3 = _grid_near(f, ts, deltas)
    assert np.all(res.values >= np.max(f3, axis=0))
    assert np.array_equal(res.at_end, (idx == 0) | (idx == len(ts) - 1))


# ---------------------------------------------------------------------------
# The chunked estimator against a per-t reference loop
# ---------------------------------------------------------------------------

def _reference_sup(f, ts, deltas, iters):
    """One call of f per grid time, one refinement per delta."""
    vals = np.stack([np.asarray(f(t), dtype=float) for t in ts.tolist()])
    n = vals.shape[1]
    cols = np.arange(n)
    last = len(ts) - 1
    values, at_end = [], []
    for delta in deltas:
        weighted = vals * (ts[:, None] ** delta)
        idx = np.argmax(weighted, axis=0)
        best = weighted[idx, cols]
        at_end.append((idx == 0) | (idx == last))
        # x the argmax, w and v the other two of the three grid times
        # around it, w the better one; a and b its grid neighbours
        start = np.maximum(np.minimum(idx - 1, last - 2), 0)
        ring = [np.minimum(start + (idx - start + k) % 3, last)
                for k in (0, 1, 2)]
        x, w, v = (np.log(ts[i])[None, :] for i in ring)
        fx, fw, fv = (weighted[i, cols][None, :] for i in ring)
        swap = fv > fw
        w, v = np.where(swap, v, w), np.where(swap, w, v)
        fw, fv = np.where(swap, fv, fw), np.where(swap, fw, fv)
        a = np.log(ts[np.maximum(idx - 1, 0)])[None, :]
        b = np.log(ts[np.minimum(idx + 1, last)])[None, :]
        for _ in range(iters):
            r, s = (x - w) * (fx - fv), (x - v) * (fx - fw)
            with np.errstate(divide="ignore", invalid="ignore"):
                u = x - ((x - w) * r - (x - v) * s) / (2.0 * (r - s))
            golden = np.where(b - x > x - a, x + q._CGOLD * (b - x),
                              x + q._CGOLD * (a - x))
            u = np.where((a < u) & (u < b) & (u != x), u, golden)
            t_u = np.exp(u)
            f_u = np.asarray(f(t_u), dtype=float) * t_u ** delta
            best = np.maximum(best, f_u[0])
            better, right = f_u > fx, u > x
            second = ~better & (f_u >= fw)
            third = ~better & ~second & (f_u >= fv)
            a = np.where(better & right, x, np.where(~better & ~right, u, a))
            b = np.where(better & ~right, x, np.where(~better & right, u, b))
            v_new = np.where(better | second, w, np.where(third, u, v))
            fv_new = np.where(better | second, fw, np.where(third, f_u, fv))
            w_new = np.where(better, x, np.where(second, u, w))
            fw_new = np.where(better, fx, np.where(second, f_u, fw))
            x, fx = np.where(better, u, x), np.where(better, f_u, fx)
            v, fv, w, fw = v_new, fv_new, w_new, fw_new
        values.append(best)
    return np.array(values), np.array(at_end)


def _probe_kernel(name, n):
    from hardykit import kernels as K
    x = np.geomspace(0.05, 12.0, n)
    if name == "bessel":
        return K.BesselKernel(1.0), x, 1.3
    if name == "laguerre":
        return K.LaguerreKernel(0.5), x, 0.8
    if name == "heat":
        return K.EuclideanHeat(1), x - 6.0, 0.4
    prod = K.ProductKernel([K.BesselKernel(1.0), K.LaguerreKernel(0.5)])
    return prod, np.stack([x, x[::-1]], axis=-1), np.array([1.1, 0.7])


@settings(max_examples=30, deadline=None)
@given(kernel=st.sampled_from(["bessel", "laguerre", "heat", "product"]),
       n=st.one_of(st.integers(1, 8), st.integers(900, 3000),
                   st.integers(2 ** 15 - 1, 2 ** 15 + 3)),
       log_t_min=st.integers(-5, -1), decades=st.integers(1, 4),
       ppd=st.integers(1, 9),
       deltas=st.lists(st.sampled_from([0.0, 0.1, 0.18, -0.1, -0.18]),
                       min_size=1, max_size=3, unique=True),
       iters=st.sampled_from([0, 1, 4]))
def test_sup_over_t_chunks_match_per_t_loop(kernel, n, log_t_min, decades,
                                            ppd, deltas, iters):
    k, x, y = _probe_kernel(kernel, n)
    grid = q.TGrid(10.0 ** log_t_min, 10.0 ** (log_t_min + decades), ppd)

    def f(t):
        return k.eval(t, x, y)

    res = q.sup_over_t(f, grid, deltas, iters)
    values, at_end = _reference_sup(f, grid.values, deltas, iters)
    assert np.array_equal(res.values, values)
    assert np.array_equal(res.at_end, at_end)
