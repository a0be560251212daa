import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hardykit import atoms as at
from hardykit import coverings as cov
from hardykit import kernels as K
from hardykit import verifier as V
from hardykit.domain import real_line
from hardykit.errors import QuadratureError
from hardykit.quadrature import (TGrid, integrate, integrate_adaptive,
                                 rule_for_box, sup_over_t)
from tests.conftest import FAST

TINY = V.VerifierSettings(tgrid_ppd=6, qmc_y=2, nodes_near=24,
                          golden_iters=4, window_factor=30.0)


# ---------------------------------------------------------------------------
# (A1') / (A1)
# ---------------------------------------------------------------------------

def test_a1prime_bessel_scale_covariance(bessel1, qb_wide):
    report = V.verify_A1prime(bessel1, qb_wide, FAST)
    assert report.finite
    assert report.within_error_budget(0.05)
    # dyadic covariance: the constants for [1,2] and [4,8] agree within 2%
    by_label = {e.label: e.constant for e in report.per_cuboid}
    c12 = report.per_cuboid[3].constant
    c48 = report.per_cuboid[5].constant
    assert abs(c12 - c48) <= 0.02 * c12
    assert report.spread() <= 1.2


def test_a1prime_degenerate_single_huge_cuboid(heat1):
    dom = real_line(1)
    huge = cov.AdmissibleCovering(
        cuboids=(cov.Cuboid((0.0,), (100.0,), dom),),
        kappa=1.05, domain=dom, window_box=((-100.0,), (100.0,)),
        family="huge", window=())
    report = V.verify_A1prime(heat1, huge,
                              V.VerifierSettings(tgrid_ppd=4, qmc_y=0,
                                                 window_factor=0.4))
    # complement of Q** within the window is empty
    assert report.sup_constant == 0.0


def test_a1prime_heat_uniform_finite(heat1):
    qu = cov.covering_uniform(real_line(1), 1.0, ([-3.0], [3.0]))
    report = V.verify_A1prime(heat1, qu, TINY)
    assert report.finite
    # self-consistency across two spatial resolutions
    finer = V.VerifierSettings(tgrid_ppd=6, qmc_y=2, nodes_near=48,
                               golden_iters=4, window_factor=30.0)
    report2 = V.verify_A1prime(heat1, qu, finer)
    assert abs(report.sup_constant - report2.sup_constant) \
        <= 0.02 * report2.sup_constant


def test_a1prime_nan_at_window_edge_raises():
    # the Bessel window is clipped at 0, where the edge probe sits; the
    # midpoint rule never evaluates x = 0, so only the probe sees the NaN
    class NanAtOrigin(K.BesselKernel):
        def eval(self, t, x, y):
            v = super().eval(t, x, y)
            return np.where(np.asarray(x) == 0.0, np.nan, v)

    k = NanAtOrigin(1.0)
    qb = cov.covering_bessel((0, 0))
    with pytest.raises(QuadratureError, match="window edge"):
        V.verify_A1prime(k, qb, TINY)


def test_a1_delta_zero_matches_a1prime(bessel1, qb_small):
    ref = V.verify_A1prime(bessel1, qb_small, FAST)
    reports = V.verify_A1(bessel1, qb_small, gamma=0.2, settings=FAST)
    assert reports[0].parameters["delta"] == 0.0
    assert_allclose(reports[0].sup_constant, ref.sup_constant, rtol=1e-12)


def test_a1_gamma_validation(bessel1, qb_small):
    with pytest.raises(ValueError):
        V.verify_A1(bessel1, qb_small, gamma=0.5)
    with pytest.raises(ValueError):
        V.verify_A1(bessel1, qb_small, gamma=0.2, deltas=[0.3])


@pytest.mark.parametrize("deltas", [[0.3], [-0.5]])
def test_a2_delta_validation(bessel1, qb_small, deltas):
    with pytest.raises(ValueError, match="delta"):
        V.verify_A2(bessel1, qb_small, gamma=0.2, deltas=deltas)


def test_a1_delta_map_continuity(bessel1, qb_small):
    reports = V.verify_A1(bessel1, qb_small, gamma=0.2, settings=FAST)
    consts = [r.sup_constant for r in reports]
    assert all(math.isfinite(c) for c in consts)
    for a, b in zip(consts[:-1], consts[1:]):
        assert 0.1 <= b / a <= 10.0


@pytest.mark.slow
def test_a1_laguerre_case1_vs_case2(laguerre_half, ql_small):
    reports = V.verify_A1(laguerre_half, ql_small, gamma=0.2, settings=FAST)
    for r in reports:
        assert r.finite
        case1 = [e.constant for e in r.per_cuboid
                 if e.metadata["d_q"] > 0.26 and e.index < 2]
        case2 = [e.constant for e in r.per_cuboid if e.index >= 2]
        assert case1 and case2
        ratio = max(max(case1), max(case2)) / min(min(case1), min(case2))
        assert ratio <= 10.0


# ---------------------------------------------------------------------------
# (A2') / (A2)
# ---------------------------------------------------------------------------

def test_a2prime_bessel_closed_form_oracle(bessel1, qb_small):
    # beta = 1: |T - H| = (4 pi t)^{-1/2} exp(-(x+y)^2/4t), and on Q = [1,2]
    # the constrained sup over t <= 1 sits at t = 1, so the constant is
    # max_y int_{Q**} (4 pi)^{-1/2} e^{-(x+y)^2/4} dx  (frozen via adaptive GK)
    kappa = qb_small.kappa
    q = qb_small.cuboids[1]
    s_lo, s_hi = (float(v[0]) for v in q.enlarged(kappa, 1).box())
    h_lo, h_hi = (float(v[0]) for v in q.enlarged(kappa, 2).box())
    oracle = max(
        integrate_adaptive(
            lambda x: (4 * math.pi) ** -0.5 * np.exp(-(x + y) ** 2 / 4.0),
            h_lo, h_hi, rtol=1e-12)[0]
        for y in (s_lo, 0.5 * (s_lo + s_hi), s_hi))
    assert_allclose(oracle, 0.07068587457269944, rtol=1e-10)
    report = V.verify_A2prime(bessel1, qb_small, FAST)
    assert_allclose(report.sup_constant, oracle, rtol=1e-6)


def test_a2prime_identical_kernels_zero(heat1):
    qu = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    report = V.verify_A2prime(heat1, qu, TINY)
    assert report.sup_constant == 0.0


class _CountingSubordinate(K.SubordinateKernel):
    """Subordinated kernel that counts its eval calls."""

    def __init__(self, base, nu):
        super().__init__(base, nu)
        self.calls = 0

    def eval(self, t, x, y):
        self.calls += 1
        return super().eval(t, x, y)


def test_a2prime_self_comparison_evaluates_once():
    qu = cov.covering_uniform(real_line(1), 1.0, ([0.0], [1.0]))
    settings = V.VerifierSettings(tgrid_ppd=4, qmc_y=1, golden_iters=4)
    own = _CountingSubordinate(K.EuclideanHeat(1), 0.7)
    assert own.comparison() is own
    mine = V.comparison_reports(own, qu, settings, gamma=0.2)
    k = _CountingSubordinate(K.EuclideanHeat(1), 0.7)
    comp = _CountingSubordinate(K.EuclideanHeat(1), 0.7)
    explicit = V.comparison_reports(k, qu, settings, gamma=0.2, comparison=comp)
    assert [r.to_text() for r in mine] == [r.to_text() for r in explicit]
    # one comp.eval per diff call, so these count the diff calls
    assert comp.calls > 0 and k.calls == comp.calls
    assert own.calls == comp.calls


def test_a2_bessel_deltas(bessel1, qb_small):
    reports = V.verify_A2(bessel1, qb_small, gamma=0.2, settings=FAST)
    for r in reports:
        assert r.finite
        assert r.within_error_budget(0.05)
        assert r.spread() <= 1.2


def test_a2_laguerre_envelope_mechanism(laguerre_half):
    # |T_t - H_t| <= C t^{1/2} (xy + (xy)^{-1}) pointwise on the near-diagonal
    # regime used by the local comparison
    heat = K.EuclideanHeat(1)
    rng = np.random.default_rng(3)
    t = 10 ** rng.uniform(-4, -0.5, 400)
    x = rng.uniform(0.5, 2.5, 400)
    y = x * rng.uniform(0.9, 1.1, 400)
    diff = np.abs(laguerre_half.eval(t, x, y) - heat.eval(t, x, y))
    envelope = np.sqrt(t) * (x * y + 1.0 / (x * y))
    c_fit = np.max(diff / envelope)
    assert np.isfinite(c_fit)
    assert np.all(diff <= c_fit * envelope * (1 + 1e-12))


@pytest.mark.slow
def test_a2prime_subordinate_bessel(qb_small):
    sub = K.SubordinateKernel(K.BesselKernel(1.0), 0.5)
    one = cov.covering_bessel((0, 0))
    report = V.verify_A2prime(sub, one, TINY)
    assert report.finite
    assert report.parameters["comparison"].startswith("subordinate")


# ---------------------------------------------------------------------------
# (a3) / (a4)
# ---------------------------------------------------------------------------

def test_a3_a4_heat_uniform(heat1):
    qu = cov.covering_uniform(real_line(1), 1.0, ([-5.0], [5.0]))
    part = cov.partition_of_unity(qu)
    rep3, rep4 = V.verify_a3_a4(heat1, qu, part, TINY)
    assert rep3.finite and rep4.finite
    # d = 1 bound mechanism: int_{Q**} sup_{t > d^2} t^{-1/2} dx <= |Q**|/d
    for e in rep3.per_cuboid:
        d_q = e.metadata["d_q"]
        bound = (4 * math.pi) ** -0.5 * 2.2 * d_q / d_q
        assert e.constant <= bound * 1.05


def test_boundary_frac_is_fine_level_share(heat1):
    # for t >= 1 the heat kernel peaks at the grid start when
    # |x - y|^2 < 2 (1 - 2 delta) and inside the grid beyond, so the share
    # lies strictly between 0 and 1; on this box it differs between the
    # two levels at the maximising y and between that y and the last one
    qu = cov.covering_uniform(real_line(1), 1.0, ([-1.0], [1.0]))
    q0 = qu.cuboids[0]
    rule = rule_for_box([-3.0], [3.0], 11)
    grid = TGrid(1.0, 1e4, 6)
    deltas = [0.0, 0.2]
    entries = V._sup_entries(heat1.eval, q0, 0, qu, rule, grid, deltas, 1,
                             TINY, None)
    fine = rule.nodes_and_weights(2)[0][:, 0]
    norms = [q0.diameter ** (-2.0 * delta) for delta in deltas]
    best = [(0.0, math.nan)] * len(deltas)
    for y in V.y_samples(q0, qu.kappa, TINY.qmc_y)[:, 0]:
        value = integrate(rule, lambda x: sup_over_t(
            lambda t: heat1.eval(t, x, y), grid, deltas,
            TINY.golden_iters).values).value
        direct = sup_over_t(lambda t: heat1.eval(t, fine, y), grid, deltas,
                            TINY.golden_iters)
        share = np.mean(direct.at_end, axis=1)
        best = [(v * n, share[r]) if v * n > b[0] else b
                for r, (v, n, b) in enumerate(zip(value, norms, best))]
    for e, (value, frac) in zip(entries, best):
        assert 0.0 < frac < 1.0
        assert e.constant == value
        assert e.metadata["boundary_frac"] == frac
    bessel, qb = K.BesselKernel(1.0), cov.covering_bessel((0, 0))
    reports = V.complement_reports(bessel, qb, TINY, gamma=0.2)
    reports += V.comparison_reports(bessel, qb, TINY, gamma=0.2)
    reports += V.verify_a3_a4(heat1, qu, cov.partition_of_unity(qu), TINY)[:1]
    for report in reports:
        for e in report.per_cuboid:
            assert 0.0 <= e.metadata["boundary_frac"] <= 1.0


# ---------------------------------------------------------------------------
# Schrodinger (D') and (K)
# ---------------------------------------------------------------------------

def test_dprime_constant_potential(schrodinger_v1):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    report = V.verify_schrodinger_D(schrodinger_v1, qs, rho_target=2.0,
                                    settings=TINY)
    assert report.parameters["passed"]
    # analytic masses: e^{-2^n d^2} up to box/discretization error
    e0 = report.per_cuboid[0]
    for n in range(3):
        key = f"mass_n{n}"
        assert abs(e0.metadata[key] - math.exp(-2.0 ** n)) < 1e-3


def test_dprime_free_kernel_fails(schrodinger_v0):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    report = V.verify_schrodinger_D(schrodinger_v0, qs, rho_target=2.0,
                                    settings=TINY)
    assert not report.parameters["passed"]
    assert all(e.constant < 1.1 for e in report.per_cuboid)


def test_dprime_mehler_decay(schrodinger_x2):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-1.0], [1.0]))
    report = V.verify_schrodinger_D(schrodinger_x2, qs, rho_target=2.0,
                                    settings=TINY)
    assert report.parameters["passed"]


def test_dprime_nonpositive_mass_raises(schrodinger_v1, monkeypatch):
    # log(mass) has no value to fit; a clamp would fit noise
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    monkeypatch.setattr(V, "mass", lambda k, t, *args, **kw:
                        1e-3 if t < 2.0 else -7.7e-34)
    with pytest.raises(QuadratureError, match=r"cuboid 0 .*, n = 1: -7.7e-34"):
        V.verify_schrodinger_D(schrodinger_v1, qs, settings=TINY)


def test_dprime_needs_no_kernel_evaluation(schrodinger_v1, monkeypatch):
    # every (D') mass is a full-box mass, an exact eigen sum
    qs = cov.covering_uniform(real_line(1), 1.0, ([-1.0], [1.0]))
    expected = V.verify_schrodinger_D(schrodinger_v1, qs, settings=TINY)

    def no_eval(*args):
        raise AssertionError("SchrodingerKernel.eval called")
    monkeypatch.setattr(K.SchrodingerKernel, "eval", no_eval)
    report = V.verify_schrodinger_D(schrodinger_v1, qs, settings=TINY)
    assert report.to_text() == expected.to_text()


def test_heat_time_integral_closed_form():
    # int_0^t (4 pi s)^{-1/2} e^{-r^2/4s} ds = sqrt(t/pi) e^{-u^2} - |r|/2
    # erfc(u), u = |r|/(2 sqrt t), at 60 digits; values below the smallest
    # normal double cannot hold a relative accuracy and are checked
    # absolutely
    mpmath.mp.dps = 60
    tiny = np.finfo(float).tiny
    ts = np.geomspace(1.0 / 4096.0, 25.0, 25)
    rs = np.linspace(-3.0, 3.0, 61)
    got = V._heat_time_integral(ts[:, None], rs[None, :])
    for i, t in enumerate(ts):
        for j, r in enumerate(rs):
            tm, rm = mpmath.mpf(float(t)), abs(mpmath.mpf(float(r)))
            u = rm / (2 * mpmath.sqrt(tm))
            ref = float(mpmath.sqrt(tm / mpmath.pi) * mpmath.exp(-u * u)
                        - rm / 2 * mpmath.erfc(u))
            if ref >= tiny:
                assert abs(got[i, j] - ref) <= 1e-12 * ref, (t, r)
            else:
                assert abs(got[i, j] - ref) <= tiny, (t, r)
    # and the integral itself, by quadrature
    t, r = 0.3, 0.7
    quad = mpmath.quad(lambda s: (4 * mpmath.pi * s) ** -0.5
                       * mpmath.exp(-r * r / (4 * s)), [0, t])
    assert_allclose(V._heat_time_integral(t, r), float(quad), rtol=1e-12)


def test_k_constant_potential(schrodinger_v1):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    report = V.verify_schrodinger_K(schrodinger_v1, qs, settings=TINY)
    for e in report.per_cuboid:
        assert 0.9 <= e.metadata["sigma_hat"] <= 1.1
    assert report.parameters["passed"]


def test_k_zero_potential_trivially_true(schrodinger_v0):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    report = V.verify_schrodinger_K(schrodinger_v0, qs, settings=TINY)
    assert report.parameters["passed"]
    assert all(e.metadata.get("trivially_true") for e in report.per_cuboid)


def test_k_mehler_positive_sigma(schrodinger_x2):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-1.0], [1.0]))
    report = V.verify_schrodinger_K(schrodinger_x2, qs, settings=TINY)
    for e in report.per_cuboid:
        assert e.metadata["sigma_hat"] > 0.0


# ---------------------------------------------------------------------------
# Small-time limits
# ---------------------------------------------------------------------------

def test_smalltime_heat_outer_tiny(heat1):
    # Gaussian tail: outer mass at t = 1e-4, r = 1 is below 1e-50
    outer = K.mass(heat1, 1e-4, 0.0, math.inf) - K.mass(heat1, 1e-4, 0.0, 1.0)
    assert abs(outer) < 1e-50


def test_smalltime_report(heat1):
    report = V.verify_smalltime_limits(heat1, [0.0, 1.0], [0.1, 0.5])
    assert report.parameters["passed"]


def test_smalltime_bessel_inner():
    report = V.verify_smalltime_limits(K.BesselKernel(2.0), [1.0], [0.5],
                                       t_list=(1e-3, 1e-5))
    e = report.per_cuboid[0]
    assert abs(e.metadata["inner_t1e-05"] - 1.0) <= 1e-3


def test_smalltime_laguerre_boundary_disclosed():
    # x near the boundary is reported but not asserted
    report = V.verify_smalltime_limits(K.LaguerreKernel(1.0), [0.05], [0.1],
                                       t_list=(1e-3, 1e-6))
    e = report.per_cuboid[0]
    assert e.metadata["interior"] == 0.0
    assert report.parameters["passed"]   # no interior probes to fail


# ---------------------------------------------------------------------------
# Envelope fits
# ---------------------------------------------------------------------------

def test_a0prime_fits(bessel1, laguerre_half):
    for k in (bessel1, laguerre_half, K.EuclideanHeat(1)):
        report = V.verify_A0prime(k)
        assert report.finite
        assert report.sup_constant > 0


def test_gaussian_envelope_fits(bessel1, laguerre_half):
    rb = V.fit_gaussian_envelope(bessel1)
    # T_B <= H_t exactly, so C at c = 4 is the heat normalization
    assert_allclose(rb.sup_constant, (4 * math.pi) ** -0.5, rtol=1e-3)
    rl = V.fit_gaussian_envelope(laguerre_half)
    assert rl.finite


def test_gaussian_envelope_heat_oracle():
    # H_t = (4 pi t)^{-1/2} exp(-r^2 / 4t) is its own envelope at c = 4
    report = V.fit_gaussian_envelope(K.EuclideanHeat(1))
    assert report.parameters["c"] == 4.0
    assert_allclose(report.sup_constant, (4 * math.pi) ** -0.5, rtol=1e-12)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
def test_a0prime_heat_oracle(nu):
    # H_t (t + r^2)^{1/2 + nu} / t^nu = (4 pi)^{-1/2} (1 + s)^{1/2 + nu}
    # e^{-s/4} with s = r^2 / t, largest at s = 1 + 4 nu
    exact = ((4 * math.pi) ** -0.5 * math.exp(-(1 + 4 * nu) / 4)
             * (2 + 4 * nu) ** (0.5 + nu))
    fitted = V.verify_A0prime(K.EuclideanHeat(1), nu).sup_constant
    assert exact - 1e-5 * exact <= fitted <= exact


def test_laguerre_envelope_fit(laguerre_half):
    report = V.verify_laguerre_envelope(laguerre_half)
    e = report.per_cuboid[0]
    assert math.isfinite(e.constant) and e.constant > 0
    assert e.metadata["max_violation_ratio"] <= 1.0 + 1e-9
    # both branches of the min(.) term are exercised by the probe set
    assert 0.0 < e.metadata["fraction_small_xy_branch"] < 1.0


def test_laguerre_envelope_held_out_check_can_fail():
    # the probe fit misses the sup at alpha = 0: held-out probes exceed it
    report = V.verify_laguerre_envelope(K.LaguerreKernel(0.0))
    assert report.per_cuboid[0].metadata["max_violation_ratio"] > 1.1


def test_laguerre_envelope_records_held_out_verdict():
    report = V.verify_laguerre_envelope(K.LaguerreKernel(0.0))
    assert report.parameters["passed"] is False
    assert report.finite and not report.passed(0.05)


# ---------------------------------------------------------------------------
# The one verdict: VerificationReport.passed
# ---------------------------------------------------------------------------

def _report(constants, errors, **parameters):
    return V.VerificationReport(
        "test", "(none)", "none", parameters,
        [V.CuboidEntry(i, f"Q{i}", c, e)
         for i, (c, e) in enumerate(zip(constants, errors))])


def test_passed_within_budget():
    assert _report([1.0, 2.0], [0.01, 0.05]).passed(0.05)
    assert _report([1.0, 2.0], [0.0, 0.0], passed=True).passed(0.05)


def test_passed_fails_infinite_constant():
    report = _report([1.0, math.inf], [0.01, 0.0])
    # the budget alone accepts it: its scale, the sup constant, is inf
    assert report.within_error_budget(0.05)
    assert not report.passed(0.05)
    assert not _report([1.0, math.nan], [0.01, 0.0]).passed(0.05)


def test_passed_fails_error_above_budget():
    report = _report([1.0, 2.0], [0.01, 0.11])
    assert not report.within_error_budget(0.05)
    assert not report.passed(0.05)
    assert report.passed(0.06)


def test_passed_fails_recorded_target_check():
    report = _report([1.0], [0.0], passed=False)
    assert report.finite and report.within_error_budget(0.05)
    assert not report.passed(0.05)


# ---------------------------------------------------------------------------
# Propagation and negative controls
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_product_propagation():
    prod = K.ProductKernel([K.BesselKernel(1.0), K.BesselKernel(1.0)])
    boxed = cov.box_product(cov.covering_bessel((-1, 0)),
                            cov.covering_bessel((-1, 0)))
    sp = V.VerifierSettings(tgrid_ppd=5, qmc_y=2, nodes_near=20,
                            nodes_cross=14, window_factor=25.0, golden_iters=4)
    rep1 = V.verify_A1prime(prod, boxed, sp)
    rep2 = V.verify_A2prime(prod, boxed, sp)
    rep0 = V.verify_A0prime(prod)
    assert rep1.finite and rep2.finite and rep0.finite


@pytest.mark.slow
def test_subordinate_propagation():
    # base (A1) at delta 0 bounds the subordinate (A1') constant
    one = cov.covering_bessel((0, 0))
    base = V.verify_A1prime(K.BesselKernel(1.0), one, TINY)
    sub = K.SubordinateKernel(K.BesselKernel(1.0), 0.5)
    subr = V.verify_A1prime(sub, one, TINY)
    assert subr.finite
    assert subr.sup_constant <= base.sup_constant + 0.05 * base.sup_constant


def test_negative_control_distorted_covering(bessel1):
    dom = bessel1.domain
    bad = cov.AdmissibleCovering(
        cuboids=(cov.Cuboid((1.0,), (0.9,), dom),
                 cov.Cuboid((2.4,), (0.5,), dom),
                 cov.Cuboid((5.45,), (2.55,), dom)),
        kappa=1.05, domain=dom, window_box=((0.1,), (8.0,)),
        family="distorted", window=())
    assert not cov.validate_covering(bad).passed
    report = V.verify_A1prime(bessel1, bad, TINY)
    assert report.spread() > 1.2    # flagged by the stability check


class _NanAboveY(K.EuclideanHeat):
    """Heat kernel that is NaN for y > 0.45."""

    def eval(self, t, x, y):
        v = super().eval(t, x, y)
        return np.where(np.asarray(y) > 0.45, np.nan, v)


@pytest.mark.parametrize("condition", ["A1prime", "A2prime", "A2", "a3"])
def test_nan_at_one_y_sample_raises(condition):
    # the centre y = 0.5 and further samples are NaN, y = 0 is finite; a
    # NaN sample must not drop out of the maximum over y
    k = _NanAboveY(1)
    qu = cov.covering_uniform(real_line(1), 1.0, ([0.0], [1.0]))
    s = V.VerifierSettings(tgrid_ppd=4, qmc_y=2, nodes_near=16,
                           golden_iters=2, window_factor=10.0, box_nodes=32)
    run = {
        "A1prime": lambda: V.verify_A1prime(k, qu, s),
        "A2prime": lambda: V.verify_A2prime(k, qu, s),
        "A2": lambda: V.verify_A2(k, qu, 0.2, settings=s,
                                  comparison=K.EuclideanHeat(1)),
        "a3": lambda: V.verify_a3_a4(k, qu, cov.partition_of_unity(qu), s),
    }[condition]
    with pytest.raises(QuadratureError, match="not finite"):
        run()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_serialization(bessel1, qb_small):
    report = V.verify_A2prime(bessel1, qb_small, TINY)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "condition,cuboid_index,constant,error,params_hash"
    assert len(lines) == 1 + len(report.per_cuboid)
    assert csv == report.to_csv()   # deterministic
    text = report.to_text()
    assert "condition = A2prime" in text
    assert "param.kappa" in text
    h = report.params_hash()
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)


# ---------------------------------------------------------------------------
# Atom maximal norms
# ---------------------------------------------------------------------------

def test_maximal_local_atom_lower_bound(heat1, qb_small):
    atom = at.make_local_atom(qb_small.cuboids[1], cells=128)
    value, err, meta = V.maximal_norm(heat1, atom)
    assert value >= 1.0 - err
    assert meta["atom_l1"] == 1.0


def test_maximal_classical_scale_stability(bessel1, qb_wide):
    values = []
    for q in qb_wide.cuboids[1:6]:
        atom = at.random_classical_atom(q, qb_wide.kappa, seed=7, cells=96)
        v, _, _ = V.maximal_norm(bessel1, atom)
        values.append(v)
        assert v >= 1.0
    assert max(values) / min(values) <= 1.25
