import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardykit import kernels as K
from hardykit import specfun
from hardykit.atoms import make_local_atom, random_classical_atom
from hardykit.coverings import covering_bessel
from hardykit.errors import DomainError, QuadratureError
from hardykit.quadrature import integrate_adaptive


def bessel1_closed_form(t, x, y):
    # Dirichlet half-line kernel, beta = 1 via I_{1/2}; the stable form
    # avoids the cancellation of the two-exponential difference
    return (4 * math.pi * t) ** -0.5 * np.exp(-(x - y) ** 2 / (4 * t)) \
        * (-np.expm1(-x * y / t))


def mehler_closed_form(t, x, y):
    s = math.sinh(2 * t)
    c = math.cosh(2 * t)
    return (2 * math.pi * s) ** -0.5 \
        * math.exp(-(c * (x * x + y * y) - 2 * x * y) / (2 * s))


def mehler_odd_closed_form(t, x, y):
    # M_t(x, y) - M_t(x, -y), the Laguerre alpha = 1/2 kernel; the exponent
    # uses cosh(2t) - 1 = 2 sinh(t)^2, and -expm1 avoids the cancellation
    # of the two-exponential difference
    s = math.sinh(2 * t)
    exponent = -((x - y) ** 2
                 + 2 * math.sinh(t) ** 2 * (x * x + y * y)) / (2 * s)
    return (2 * math.pi * s) ** -0.5 * math.exp(exponent) \
        * -math.expm1(-2 * x * y / s)


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------

def test_heat_at_origin():
    heat = K.EuclideanHeat(1)
    assert_allclose(heat.eval(1.0, 0.0, 0.0), (4 * math.pi) ** -0.5, rtol=1e-14)
    assert_allclose((4 * math.pi) ** -0.5, 0.2820948, rtol=1e-6)


def test_heat_2d_factorizes():
    heat2 = K.EuclideanHeat(2)
    h1 = K.EuclideanHeat(1)
    x = np.array([0.3, -1.0])
    y = np.array([1.1, 0.4])
    assert_allclose(heat2.eval(0.7, x, y),
                    h1.eval(0.7, x[0], y[0]) * h1.eval(0.7, x[1], y[1]),
                    rtol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_heat_time_column_is_row_by_row(d):
    # np.power raises a column of times with the loop a single time takes
    rng = np.random.default_rng(d)
    ts = np.exp(rng.uniform(-40.0, 20.0, 400))
    x = rng.uniform(-3.0, 3.0, (50, d)) if d > 1 else rng.uniform(-3, 3, 50)
    y = np.full(d, 0.4) if d > 1 else 0.4
    heat = K.EuclideanHeat(d)
    column = heat.eval(ts[:, None], x, y)
    rows = np.stack([heat.eval(t, x, y) for t in ts])
    assert np.array_equal(column, rows)


@pytest.mark.parametrize("kernel", [
    K.BesselKernel(1.0), K.BesselKernel(2.0), K.LaguerreKernel(0.5),
    K.LaguerreKernel(1.0)], ids=lambda k: k.kind)
def test_half_line_time_column_is_row_by_row(kernel):
    # order 1/2 takes the closed form, the other orders the log-space body;
    # both give the same bits for one time, a column of times and one time
    # per point
    rng = np.random.default_rng(4)
    ts = np.exp(rng.uniform(-12.0, 5.0, 200))
    x = np.append(rng.uniform(0.0, 6.0, 49), 0.0)
    y = 0.4
    column = kernel.eval(ts[:, None], x, y)
    rows = np.stack([kernel.eval(t, x, y) for t in ts])
    per_point = kernel.eval(np.repeat(ts[:, None], x.size, axis=1), x, y)
    assert np.array_equal(column, rows)
    assert np.array_equal(per_point, rows)


def test_bessel_beta1_closed_form_grid():
    b1 = K.BesselKernel(1.0)
    rng = np.random.default_rng(1)
    t = 10 ** rng.uniform(-4, 1, 2000)
    x = rng.uniform(0.01, 20, 2000)
    y = rng.uniform(0.01, 20, 2000)
    mine = b1.eval(t, x, y)
    ref = bessel1_closed_form(t, x, y)
    denom = np.maximum(ref, 1e-280)
    assert np.max(np.abs(mine - ref) / denom) < 1e-10


def test_bessel_kernel_formula_point():
    # direct evaluation of the defining formula via mpmath
    mpmath.mp.dps = 30
    t, x, y = 0.25, 1.0, 2.0
    z = mpmath.mpf(x) * y / (2 * t)
    expected = float(mpmath.sqrt(x * y) / (2 * t) * mpmath.besseli(0.5, z)
                     * mpmath.exp(-(x * x + y * y) / (4 * t)))
    assert_allclose(K.BesselKernel(1.0).eval(t, x, y), expected, rtol=1e-12)
    # equals the closed form as well
    assert_allclose(expected, bessel1_closed_form(t, x, y), rtol=1e-12)


_HALF_LINE_POINT = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))


@settings(max_examples=200, deadline=None)
@given(x=_HALF_LINE_POINT, y=_HALF_LINE_POINT, log10_t=st.floats(-3.0, 3.0))
def test_bessel_beta1_is_reflected_heat(x, y, log10_t):
    # the kernel is e^{G - log(4 pi t)/2} (1 - e^{-xy/t}), so its relative
    # error is about eps times |G| + |log t|; points in {0} U [1e-3, 20]
    # and a Gaussian exponent G up to 100 keep that below about 110 eps
    t = 10.0 ** log10_t
    assume((x - y) ** 2 / (4.0 * t) <= 100.0)
    got = K.BesselKernel(1.0).eval(t, x, y)
    assert_allclose(got, bessel1_closed_form(t, x, y), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kernel", [
    K.BesselKernel(0.25), K.BesselKernel(0.5), K.BesselKernel(1.0),
    K.BesselKernel(2.0), K.LaguerreKernel(-0.25), K.LaguerreKernel(0.5),
    K.LaguerreKernel(1.0)], ids=lambda k: k.kind)
def test_half_line_kernels_vanish_at_zero(kernel):
    t = np.array([[1e-3], [0.5], [40.0]])
    pts = np.array([0.0, 0.25, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_x0 = kernel.eval(t, 0.0, pts)
        at_y0 = kernel.eval(t, pts, 0.0)
    assert np.all(at_x0 == 0.0) and np.all(at_y0 == 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_laguerre_against_mpmath(alpha):
    mpmath.mp.dps = 40
    lag = K.LaguerreKernel(alpha)
    for (t, x, y) in [(0.05, 1.0, 2.0), (0.5, 0.3, 0.8), (2.0, 1.5, 1.5),
                      (1e-3, 1.0, 1.0)]:
        s = mpmath.sinh(2 * t)
        z = mpmath.mpf(x) * y / s
        expected = float(mpmath.sqrt(x * y) / s * mpmath.besseli(alpha, z)
                         * mpmath.exp(-mpmath.cosh(2 * t) / (2 * s)
                                      * (x * x + y * y)))
        assert_allclose(lag.eval(t, x, y), expected, rtol=1e-11)


@settings(max_examples=200, deadline=None)
@given(alpha=st.sampled_from([-0.25, 0.0, 0.5, 1.0, 2.3]),
       t=st.floats(1e-3, 6.0), x=st.floats(1e-3, 6.0), y=st.floats(1e-3, 6.0))
def test_laguerre_is_bessel_at_mehler_time(alpha, t, x, y):
    # Laguerre(alpha) at t is Bessel(alpha + 1/2) at sinh(2t)/2 times
    # e^{-tanh(t)(x^2+y^2)/2}: coth(2t) - 1/sinh(2t) = tanh(t)
    got = K.LaguerreKernel(alpha).eval(t, x, y)
    assume(got >= 1e-280)
    ref = (K.BesselKernel(alpha + 0.5).eval(math.sinh(2.0 * t) / 2.0, x, y)
           * math.exp(-math.tanh(t) * (x * x + y * y) / 2.0))
    assert_allclose(got, ref, rtol=1e-10, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(x=_HALF_LINE_POINT, y=_HALF_LINE_POINT, log10_t=st.floats(-6.0, 1.5))
@example(x=1.0, y=1.0, log10_t=-6.0)
def test_laguerre_half_is_odd_mehler(x, y, log10_t):
    # Laguerre(1/2) is the Mehler kernel reflected at 0, checked against
    # sinh directly, not against Bessel(1); the kernel and the reference
    # each carry about eps times their exponent, at most 100.  At small t
    # log sinh(2t) needs expm1: 1 - e^{-4t} loses 1e-16/4t relative
    t = 10.0 ** log10_t
    s = math.sinh(2.0 * t)
    assume(((x - y) ** 2 + 2.0 * math.sinh(t) ** 2 * (x * x + y * y))
           / (2.0 * s) <= 100.0)
    got = K.LaguerreKernel(0.5).eval(t, x, y)
    assert_allclose(got, mehler_odd_closed_form(t, x, y), rtol=2e-13,
                    atol=0.0)


def test_laguerre_small_time_matches_heat():
    lag = K.LaguerreKernel(0.5)
    heat = K.EuclideanHeat(1)
    ratio = lag.eval(1e-3, 1.0, 1.0) / heat.eval(1e-3, 1.0, 1.0)
    assert abs(ratio - 1.0) < 0.05


def test_laguerre_extreme_times_finite():
    # sinh(2t) overflows at t = 400 and 4e4; alpha = 1/2 takes the closed
    # form, alpha = 1 the log-space body
    for alpha in (0.5, 1.0):
        lag = K.LaguerreKernel(alpha)
        for t in (1e-12, 1e-6, 1.0, 50.0, 400.0, 4e4):
            v = lag.eval(t, 1.0, 1.0)
            assert np.isfinite(v) and v >= 0.0


def test_subordinate_poisson_oracle():
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.5)
    rng = np.random.default_rng(2)
    t = 10 ** rng.uniform(math.log10(0.05), math.log10(5.0), 500)
    x = rng.uniform(-10, 10, 500)
    y = rng.uniform(-10, 10, 500)
    mine = sub.eval(t * t, x, y)   # kernel exposed at the substituted time
    ref = K.poisson_kernel(t, x, y)
    assert np.max(np.abs(mine - ref) / ref) < 1e-6


# SubordinateKernel(base, 0.7).eval(t, x, y), recorded with the stable
# density from Kanter's integral
_HEAT_07 = {
    1e-3: [0.1417663305483158, 0.8818380581499236, 0.004446308436079895,
           0.00021558617102081484],
    0.05: [0.9451547846071712, 1.194567983698566, 0.09037704123963404,
           0.0035377721804333274],
    1.0: [0.28530775583593115, 0.2889031183328396, 0.22452756226207418,
          0.037918747210813245],
    20.0: [0.06481737812634097, 0.06485811339340955, 0.06400982210649478,
           0.05529521138431321],
}
_BESSEL_07 = {
    1e-3: [0.004527654130283108, 0.14010339251466164, 0.04943436948740702,
           0.00046837213598957853],
    0.05: [0.09780419590598936, 0.9143252349146447, 0.6543367238497617,
           0.008223755738401893],
    1.0: [0.025922707829243753, 0.11719682377294827, 0.1721705941656686,
          0.07042185994072764],
    20.0: [0.00037517139972543693, 0.0018634467581548518,
           0.0036505753242033192, 0.007913412072309913],
}


def test_subordinate_values_without_noise_panels():
    heat = K.SubordinateKernel(K.EuclideanHeat(1), 0.7)
    bessel = K.SubordinateKernel(K.BesselKernel(1.0), 0.7)
    for t, expected in _HEAT_07.items():
        assert_allclose(heat.eval(t, np.array([0.0, 0.3, 1.0, 3.0]), 0.2),
                        expected, rtol=1e-11, atol=0.0)
    for t, expected in _BESSEL_07.items():
        assert_allclose(bessel.eval(t, np.array([0.1, 0.5, 1.0, 2.5]), 0.7),
                        expected, rtol=1e-11, atol=0.0)
    # the 44 inner panels below s*(0.7) ~ 2.5e-2 are not built
    assert heat.rule.panel_count == 66
    assert K.SubordinationRule(0.5).nodes.size == 1080


def test_subordination_rule_rejects_nan_density(monkeypatch):
    # a density that is NaN on a short interval (three nodes of the rule)
    # fails every panel that meets it: the build raises within its panel
    # budget, and keeps no NaN weight
    density = specfun.stable_density

    def nan_band(params, s):
        return np.where((2.6 < s) & (s < 2.72), np.nan, density(params, s))

    monkeypatch.setattr(specfun, "stable_density", nan_band)
    with pytest.raises(QuadratureError, match="subordination rule above budget"):
        K.SubordinationRule(0.7)


def test_subordination_rule_near_one():
    # at nu = 0.9995 some of Kanter's integrals reach the rounding noise of
    # their integrand (estimates of 1e-17 against a tolerance of 9e-18):
    # their refinement stops there, and the rule has the same 73 panels as
    # a worst-panel-first refinement of each integral gives
    rule = K.SubordinationRule(0.9995)
    assert rule.panel_count == 73
    assert abs(np.sum(rule.weights_k) - 1.0) < 1e-6


def test_subordination_rule_rejects_nu_above_limit():
    # above 0.9997 Kanter's integrals do not reach their tolerance: the
    # build raised QuadratureError, most often after overflow warnings
    assert K.SubordinationRule(K._NU_MAX).panel_count == 74
    for nu in (0.99975, 0.9998, 0.9999, 0.99999):
        with pytest.raises(DomainError, match="above 0.9997"):
            K.SubordinationRule(nu)


@pytest.mark.parametrize("nu", [0.7, 0.79, 0.9, 0.95])
def test_subordinate_heat_against_fourier_inversion(nu):
    # eval(t, x, y) = (1/pi) int_0^inf cos(xi r) exp(-t^nu xi^{2 nu}) dxi,
    # the inverse transform of E exp(-t S xi^2) = exp(-(t xi^2)^nu); the
    # integrand is below e^{-40} beyond xi_max.  The rule's K15/G7 check
    # holds its error to 1e-6 relative.  At nu >= 0.79 the rule holds panels
    # split by its density check; without them that check fails.  The
    # reference asks quad for 1e-8: at 1e-10 it meets roundoff on the
    # values near 1e-5 (t = 1e-3, x = 3, nu >= 0.9).
    heat = K.SubordinateKernel(K.EuclideanHeat(1), nu)
    for t in (1e-3, 0.05, 1.0, 20.0):
        a = t ** nu
        xi_max = (40.0 / a) ** (1.0 / (2.0 * nu))
        for x in (0.0, 0.3, 1.0, 3.0):
            val, _ = quad(lambda xi: math.exp(-a * xi ** (2.0 * nu)), 0.0,
                          xi_max, weight="cos", wvar=abs(x - 0.2),
                          epsabs=0.0, epsrel=1e-8, limit=500)
            assert_allclose(heat.eval(t, x, 0.2), val / math.pi, rtol=1e-6)


def _rule_profile(nu, d, rho):
    """P(rho) straight from the subordination rule, one rho per call."""
    rule = K.subordination_rule(nu)
    heat = K.EuclideanHeat(d)
    return np.array([rule.apply(heat.eval, 1.0, np.array([r] + [0.0] * (d - 1)),
                                np.zeros(d)).item() for r in rho])


@settings(max_examples=12, deadline=None)
@given(nu=st.floats(0.05, 0.99), d=st.sampled_from([1, 2]),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_radial_profile_matches_rule(nu, d, where):
    # rho = 0, the head below rho_min, the table and rho_max itself
    prof = K.radial_profile(nu, d)
    lo, hi = math.log(prof.rho_min) - 3.0, math.log(prof.rho_max)
    rho = np.concatenate([[0.0, prof.rho_max],
                          np.minimum(np.exp(lo + (hi - lo) * np.array(where)),
                                     prof.rho_max)])
    ref = _rule_profile(nu, d, rho)
    assert np.max(np.abs(prof(rho) / ref - 1.0)) <= 1e-10


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nu", [0.05, 0.3, 0.7, 0.95])
def test_radial_profile_origin_closed_form(nu, d):
    # P(0) = (4 pi)^{-d/2} E S^{-d/2}, E S^{-m} = Gamma(1 + m/nu)/Gamma(1 + m)
    exact = ((4.0 * math.pi) ** (-d / 2.0) * math.gamma(1.0 + d / (2.0 * nu))
             / math.gamma(1.0 + d / 2.0))
    prof = K.radial_profile(nu, d)
    assert_allclose(prof(0.0), exact, rtol=1e-14)
    assert_allclose(prof(prof.rho_min), exact, rtol=1e-12)
    assert_allclose(_rule_profile(nu, d, [0.0]), exact, rtol=1e-11)


@pytest.mark.parametrize("d", [1, 2])
def test_radial_profile_poisson(d):
    # nu = 1/2 at t = 1 is the Poisson kernel.  The rule's cut of s > e^60
    # grows like rho^{d+1} and stays below its 1e-7 budget up to rho_max;
    # over the verifier's range (rho <= 1e6) it is below roundoff
    prof = K.radial_profile(0.5, d)
    rho = np.concatenate([[0.0], np.geomspace(prof.rho_min / 10.0,
                                              prof.rho_max, 400)])
    x = rho if d == 1 else np.stack([rho, np.zeros_like(rho)], axis=-1)
    rel = np.abs(prof(rho) / K.poisson_kernel(1.0, x, np.zeros(d), d) - 1.0)
    assert np.max(rel) <= 1e-7
    assert np.max(rel[rho <= 1e6]) <= 1e-12


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.45, 0.7])
def test_radial_profile_polya_series(nu):
    # in 1-D, P is the symmetric 2nu-stable density, for 2nu < 1 the
    # convergent series (1/pi) sum_k (-1)^{k+1} Gamma(2 nu k + 1)/k!
    # sin(pi nu k) rho^{-2 nu k - 1} (Polya 1923; Feller II, XVII.6)
    prof = K.radial_profile(nu, 1)
    rho = np.geomspace(10.0, 1e3 * prof.rho_max, 40)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.fsum(
            (-1) ** (k + 1) * mpmath.gamma(2 * nu * k + 1) / mpmath.factorial(k)
            * mpmath.sinpi(nu * k) * mpmath.mpf(r) ** (-2 * nu * k - 1)
            for k in range(1, 120)) / mpmath.pi) for r in rho])
    rel = prof(rho) / exact - 1.0
    table = rho <= prof.rho_max
    assert np.max(np.abs(rel[rho <= 1e5])) <= 1e-11
    # beyond, the rule's cut of s > e^60 shows: low, within its budget
    assert np.all(rel[table] <= 1e-11) and np.min(rel[table]) >= -1e-7
    # above rho_max the tail series is exact
    assert np.max(np.abs(rel[~table])) <= 1e-12


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nu", [0.5, 0.7, 0.95])
def test_radial_profile_tail(nu, d):
    # P(rho) ~ A rho^{-d-2nu}, A = nu 4^nu Gamma(d/2+nu)/(pi^{d/2} Gamma(1-nu));
    # the next term is smaller by rho^{-2nu}, below 1e-9 at these rho_max
    prof = K.radial_profile(nu, d)
    r = prof.rho_max
    slope = math.log(prof(r) / prof(r / 2.0)) / math.log(2.0)
    assert abs(slope + d + 2.0 * nu) <= 1e-6
    tail = (nu * 4.0 ** nu * math.gamma(d / 2.0 + nu)
            / (math.pi ** (d / 2.0) * math.gamma(1.0 - nu)))
    assert_allclose(prof(r) * r ** (d + 2.0 * nu), tail, rtol=1e-6)


@pytest.mark.parametrize("d", [1, 2])
def test_radial_profile_above_rho_max(d):
    # above rho_max P is its tail series: at nu = 1/2 the Poisson kernel
    prof = K.radial_profile(0.5, d)
    rho = np.geomspace(1.001 * prof.rho_max, 1e100, 300)
    x = rho if d == 1 else np.stack([rho, np.zeros_like(rho)], axis=-1)
    rel = np.abs(prof(rho) / K.poisson_kernel(1.0, x, np.zeros(d), d) - 1.0)
    assert np.max(rel) <= 1e-12
    # the table meets it at rho_max, low by the rule's cut of s > e^60
    below, above = prof(prof.rho_max * np.array([1.0, 1.0 + 1e-12]))
    assert 0.0 <= above / below - 1.0 <= 1e-7


def _gathered_profile(prof, rho):
    """P(rho) from numpy's chebval on the (degrees x points) gather of the
    table's coefficients, the reference for the degree-wise evaluation."""
    from numpy.polynomial.chebyshev import chebval
    rho = np.asarray(rho, dtype=float)
    u = np.log(np.clip(rho, prof.rho_min, prof.rho_max))
    i = np.clip(np.searchsorted(prof.lo, u, side="right") - 1,
                0, len(prof.lo) - 1)
    lo, hi = prof.lo[i], prof.hi[i]
    z = (2.0 * u - lo - hi) / (hi - lo)
    p = np.exp(chebval(z, prof.coef[:, i], tensor=False))
    p = np.where(rho < prof.rho_min, prof.p0, p)
    far = rho > prof.rho_max
    if np.any(far):
        p[far] = prof._tail_series(rho[far])
    return p


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
def test_radial_profile_evaluation_bits(nu, d):
    # every panel edge and midpoint, the head below rho_min and the tail
    # above rho_max, in the bits of numpy's chebval
    prof = K.radial_profile(nu, d)
    rho = np.concatenate([
        np.exp(prof.lo), np.exp(prof.hi), np.exp(0.5 * (prof.lo + prof.hi)),
        [0.0, 1e-300, prof.rho_min / 10.0, prof.rho_min, prof.rho_max,
         10.0 * prof.rho_max, 1e100]])
    ref = _gathered_profile(prof, rho)
    for r, want in zip(rho, ref):
        got = prof(r)
        assert got.shape == () and got.tobytes() == want.tobytes()
    rows = np.resize(rho, 4 * math.ceil(rho.size / 4)).reshape(4, -1)
    got = prof(rows)
    assert got.shape == rows.shape
    assert got.tobytes() == _gathered_profile(prof, rows).tobytes()
    # a point's value does not depend on the other points of its call
    rng = np.random.default_rng(7)
    batch = np.exp(rng.uniform(math.log(prof.rho_min) - 2.0,
                               math.log(prof.rho_max) + 2.0, 2 ** 15))
    where = rng.choice(batch.size, rho.size, replace=False)
    batch[where] = rho
    assert prof(batch)[where].tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7, 0.9])
def test_tail_series_drops_the_incomplete_gamma(nu, d):
    # the lower incomplete gamma factor of each term is 1.0 in double at
    # every rho >= rho_max, so leaving it out changes no bit of the tail
    from scipy.special import gammainc, gammaln
    prof = K.radial_profile(nu, d)
    rho = prof.rho_max * np.array([1.0, 1.0 + 1e-12, 1.5, 10.0, 1e3, 1e100,
                                   1e200, np.inf])
    log_half = np.log(0.5 * rho)

    def log_factor(k):
        a = 0.5 * d + nu * k
        with np.errstate(over="ignore"):
            return (gammaln(a) - 2.0 * a * log_half
                    + np.log(gammainc(a, np.exp(2.0 * log_half))))

    ref = (4.0 * math.pi) ** (-0.5 * d) * specfun.stable_series_sum(
        nu, log_factor, 1e-17)
    assert prof._tail_series(rho).tobytes() == ref.tobytes()


def test_subordinate_heat_far_from_the_diagonal():
    # the stable kernel at small natural time t, the subordinated heat
    # kernel at t^{1/nu}, puts every point far above rho_max; the kernel
    # reads the tail series, not the rule
    nu = 0.3
    sub = K.SubordinateKernel(K.EuclideanHeat(1), nu)
    t = np.array([[1e-8], [1e-6]])
    y = np.array([0.5, 3.0, 50.0])
    rho = y / np.sqrt(t ** (1.0 / nu))
    assert np.all(rho > sub.profile.rho_max)
    tail = (math.gamma(1.0 + 2.0 * nu) * math.sin(math.pi * nu) / math.pi
            * t ** (-1.0 / (2.0 * nu)) * rho ** (-1.0 - 2.0 * nu))
    # the next term is smaller by about rho^{-2 nu} < 2e-6
    assert_allclose(sub.eval(t ** (1.0 / nu), 0.0, y), tail, rtol=1e-5)
    # only the exact heat type reads the table
    assert sub.profile is K.radial_profile(nu, 1)
    assert K.SubordinateKernel(_RippledHeat(1), nu).profile is None


class _FakeRule:
    """Stands in for the subordination rule: P(rho) = fn(rho).  Counts the
    calls of ``apply``, one per panel evaluated."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def apply(self, base_eval, t, x, y):
        self.calls += 1
        return self.fn(np.asarray(x, dtype=float))


@pytest.mark.parametrize("fn,match", [
    (lambda r: np.exp(-r ** 2) * (1.0 + 1e-6 * np.sin(1e6 * np.log(r))),
     "interpolation"),
    (lambda r: r ** -10.0, "tail series"),
], ids=["unresolved", "short_tail"])
def test_radial_profile_build_checks(monkeypatch, fn, match):
    # an unresolvable ripple fails the off-node check on every halving; a
    # tail far below the stable one fails the check against the tail series.
    # The ripple raises once the table would pass its panel budget, after
    # a few hundred panel evaluations (38 seed panels, then 76 and 152)
    rule = _FakeRule(fn)
    monkeypatch.setattr(K, "subordination_rule", lambda nu: rule)
    with pytest.raises(QuadratureError, match=match):
        K.RadialProfile(0.7, 1)
    assert rule.calls <= 300


def test_stable_scaling_covariance():
    # P_{u,nu}(x, y) = u^{-d/(2 nu)} phi(|x-y| u^{-1/(2 nu)}); in the
    # substituted time this reads eval(4t, 2x, 2y) = eval(t, x, y) / 2
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.7)
    for (t, x, y) in [(0.5, 0.0, 1.0), (2.0, -1.0, 2.5)]:
        a = sub.eval(4.0 * t, 2.0 * x, 2.0 * y)
        b = sub.eval(t, x, y) / 2.0
        assert abs(a - b) <= 1e-9 * abs(b)


def test_stable_envelope_bound():
    # P_{t,nu} <= C t / (t^{1/nu} + r^2)^{d/2 + nu} with a finite C
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.7)
    rng = np.random.default_rng(9)
    t = 10 ** rng.uniform(-1, 1, 50)
    r = 10 ** rng.uniform(-1, 1, 50)
    vals = sub.eval(t ** (1 / 0.7), r, 0.0)
    env = t / (t ** (1 / 0.7) + r ** 2) ** (0.5 + 0.7)
    assert np.isfinite(np.max(vals / env))


def test_product_kernel():
    b1 = K.BesselKernel(1.0)
    lag = K.LaguerreKernel(0.5)
    prod = K.ProductKernel([b1, lag])
    x = np.array([1.0, 2.0])
    y = np.array([1.5, 2.5])
    assert_allclose(prod.eval(0.3, x, y),
                    b1.eval(0.3, 1.0, 1.5) * lag.eval(0.3, 2.0, 2.5),
                    rtol=1e-13)
    comp = prod.comparison()
    heat2 = K.EuclideanHeat(2)
    assert_allclose(comp.eval(0.3, x, y), heat2.eval(0.3, x, y), rtol=1e-13)


def test_comparison_designations():
    assert isinstance(K.BesselKernel(1.0).comparison(), K.EuclideanHeat)
    assert isinstance(K.LaguerreKernel(0.5).comparison(), K.EuclideanHeat)
    own = K.SubordinateKernel(K.EuclideanHeat(1), 0.7)
    assert own.comparison() is own
    sub_comp = K.SubordinateKernel(K.BesselKernel(1.0), 0.5).comparison()
    assert isinstance(sub_comp, K.SubordinateKernel)
    assert isinstance(sub_comp.base, K.EuclideanHeat)
    # the stable comparison evaluated at the substituted time is Poisson
    assert_allclose(sub_comp.eval(1.0, 0.3, 0.3), 1.0 / math.pi, rtol=1e-9)


def test_comparison_eval_heat_formula():
    b1 = K.BesselKernel(1.0)
    t, x, y = 0.3, 1.0, 1.7
    expected = (4 * math.pi * t) ** -0.5 * math.exp(-(x - y) ** 2 / (4 * t))
    assert_allclose(b1.comparison().eval(t, x, y), expected, rtol=1e-14)


def test_parameter_domain_errors():
    with pytest.raises(DomainError):
        K.BesselKernel(0.0)
    with pytest.raises(DomainError):
        K.LaguerreKernel(-0.5)
    with pytest.raises(DomainError):
        K.SubordinateKernel(K.EuclideanHeat(1), 1.5)
    # a NaN or infinite order fails here, not later as a series overflow
    # or a sup integral that is not finite
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="beta"):
            K.BesselKernel(bad)
        with pytest.raises(DomainError, match="alpha"):
            K.LaguerreKernel(bad)
    # d < 1 fails when built, not as numpy's negative index in the profile
    for d in (0, -1):
        with pytest.raises(DomainError, match=f"d = {d}"):
            K.EuclideanHeat(d)


def test_point_domain_errors():
    b1 = K.BesselKernel(1.0)
    with pytest.raises(DomainError):
        b1.eval(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        b1.eval(-0.5, 1.0, 1.0)


@pytest.mark.parametrize("k", [K.BesselKernel(1.0), K.BesselKernel(2.0),
                               K.LaguerreKernel(0.5), K.LaguerreKernel(1.0)])
def test_domain_checks_nan_inf_empty(k):
    # the checks are min/max reductions: a NaN anywhere fails them, the
    # closure [0, inf] passes, an empty array passes
    g = gate_atom(0, True, 0)
    t = np.array([[0.5]])
    calls = (lambda x: k.eval(0.5, x, 1.0), lambda x: k.eval(0.5, 1.0, x),
             lambda x: k.step_apply(t, x, g))
    for call in calls:
        for bad in ([np.nan], [1.0, np.nan, 2.0], [-1.0], [-np.inf],
                    [[1.0], [-0.5]]):
            with pytest.raises(DomainError):
                call(np.array(bad))
        for ok in ([np.inf], [0.0, 1.0], [[0.5], [np.inf]], []):
            with np.errstate(all="ignore"):
                call(np.array(ok))
    # times: t <= 0 anywhere raises, NaN times are let through, empty passes
    for bad in ([[0.0]], [[-np.inf]], [[np.nan], [-1.0]], [[0.5], [0.0]]):
        with pytest.raises(DomainError):
            k.eval(np.array(bad), 1.0, 1.0)
        with pytest.raises(DomainError):
            k.step_apply(np.array(bad), [1.0], g)
    with np.errstate(all="ignore"):
        assert np.isnan(k.eval(np.array([[np.nan]]), 1.0, 1.0)).all()
        assert k.eval(np.empty((0, 1)), 1.0, 1.0).shape == (0, 1)
        assert k.step_apply(np.array([[0.5]]), [], g).shape == (1, 0)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_symmetry_analytic():
    cases = [
        (K.EuclideanHeat(1), 0.7, 1.3, 2.1),
        (K.BesselKernel(1.5), 0.7, 1.3, 2.1),
        (K.LaguerreKernel(0.5), 0.2, 1.3, 0.6),
        (K.SubordinateKernel(K.EuclideanHeat(1), 0.5), 0.7, 1.3, 2.1),
    ]
    for k, t, x, y in cases:
        a, b = k.eval(t, x, y), k.eval(t, y, x)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_symmetry_schrodinger(schrodinger_v1):
    a = schrodinger_v1.eval(0.7, 1.3, -2.1)
    b = schrodinger_v1.eval(0.7, -2.1, 1.3)
    assert abs(a - b) <= 1e-9 * abs(a)


def test_subordinate_semigroup_identity():
    # exp(-s sqrt(L)) exp(-t sqrt(L)) = exp(-(s+t) sqrt(L)) read through
    # the substituted-time convention
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.5)
    s, t, x, y = 0.6, 0.9, 0.4, -0.3
    val, _ = integrate_adaptive(
        lambda u: sub.eval(s * s, x, u) * sub.eval(t * t, u, y),
        -60.0, 60.0, rtol=1e-8, breakpoints=[x, y], max_panels=2000)
    target = sub.eval((s + t) ** 2, x, y)
    assert abs(val - target) <= 1e-4 * abs(target)


def test_schrodinger_semigroup_property(schrodinger_v1):
    k = schrodinger_v1
    s, t, x, y = 0.4, 0.7, 0.3, -1.1
    grid = k.grid
    val = k.h * float(np.dot(k.eval(s, x, grid), k.eval(t, grid, y)))
    target = k.eval(s + t, x, y)
    assert abs(val - target) <= 1e-6 * abs(target)


@pytest.mark.parametrize("maker,lo,hi", [
    (lambda: K.EuclideanHeat(1), -25.0, 25.0),
    (lambda: K.BesselKernel(1.0), 0.0, 40.0),
    (lambda: K.LaguerreKernel(0.5), 0.0, 30.0),
])
def test_semigroup_property(maker, lo, hi):
    k = maker()
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = 10 ** rng.uniform(-1.5, 0.0)
        t = 10 ** rng.uniform(-1.5, 0.0)
        x = rng.uniform(max(lo, 0.2), 3.0)
        y = rng.uniform(max(lo, 0.2), 3.0)
        val, _ = integrate_adaptive(
            lambda u: k.eval(s, x, u) * k.eval(t, u, y), lo, hi,
            rtol=1e-9, breakpoints=[x, y], max_panels=3000)
        target = k.eval(s + t, x, y)
        assert abs(val - target) <= 1e-4 * abs(target)


# ---------------------------------------------------------------------------
# Propagated step functions (step_apply)
# ---------------------------------------------------------------------------

GAUSSIAN_STEP = {"heat": K.EuclideanHeat(1), "bessel": K.BesselKernel(1.0),
                 "laguerre": K.LaguerreKernel(0.5)}


def step_apply_reference(name, g, t, x, absolute=False):
    """T_t g(x) (or T_t |g|(x)) run by run, at 400 digits: the erfc
    differences cancel, and at 40 digits they gave -8.9e-270 for a
    positive value.  heat and Bessel(1) are Gaussians of mean x and
    variance 2t in y (Bessel(1) minus the one of mean -x); Laguerre(1/2)
    is the odd Mehler pair of mean +-x sech 2t and variance tanh 2t, times
    (cosh 2t)^{-1/2} e^{-x^2 tanh(2t)/2}."""
    runs = g.runs
    with mpmath.workdps(400):
        b = [mpmath.mpf(float(v)) for v in runs.boundaries]
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        if name == "laguerre":
            m = x / mpmath.cosh(2 * t)
            sigma = mpmath.sqrt(2 * mpmath.tanh(2 * t))
            amp = (mpmath.cosh(2 * t) ** mpmath.mpf(-0.5)
                   * mpmath.exp(-x * x * mpmath.tanh(2 * t) / 2))
        else:
            m, sigma, amp = x, 2 * mpmath.sqrt(t), 1
        total = mpmath.mpf(0)
        for j, v in enumerate(runs.values):
            v = mpmath.mpf(float(abs(v) if absolute else v))
            total += v * (mpmath.erfc((b[j] - m) / sigma)
                          - mpmath.erfc((b[j + 1] - m) / sigma)) / 2
            if name != "heat":
                total -= v * (mpmath.erfc((b[j] + m) / sigma)
                              - mpmath.erfc((b[j + 1] + m) / sigma)) / 2
        return amp * total


def gate_atom(j, local, seed):
    qb = covering_bessel((j, j))
    if local:
        return make_local_atom(qb.cuboids[0], cells=96)
    return random_classical_atom(qb.cuboids[0], qb.kappa, seed, cells=96)


@settings(max_examples=30, deadline=None)
@given(j=st.integers(-3, 2), local=st.booleans(), seed=st.integers(0, 2 ** 20),
       ut=st.floats(0.0, 1.0), ux=st.floats(0.0, 1.0))
@pytest.mark.parametrize("name", sorted(GAUSSIAN_STEP))
def test_step_apply_closed_form_against_mpmath(name, j, local, seed, ut, ux):
    # t in [(h/2)^2, 1e4 d_Q^2] and x in [1e-3 d_Q, 60 d_Q], log-uniform:
    # the window of maximal_norm.  The error is measured against the
    # scale of the cancelling terms, ||a||_inf + T_t|a|(x)
    g = gate_atom(j, local, seed)
    d = g.host.diameter
    t_lo, t_hi = (g.cell_width / 2.0) ** 2, 1e4 * d * d
    t = t_lo * (t_hi / t_lo) ** ut
    x = 1e-3 * d * 6e4 ** ux
    got = float(GAUSSIAN_STEP[name].step_apply(np.array([[t]]), np.array([x]),
                                               g)[0, 0])
    exact = step_apply_reference(name, g, t, x)
    scale = g.sup_norm + step_apply_reference(name, g, t, x, absolute=True)
    assert abs(got - exact) <= 1e-14 * scale, (got, float(exact))


@settings(max_examples=30, deadline=None)
@given(j=st.integers(-3, 2), right=st.booleans(), ur=st.floats(0.0, 1.0),
       ut=st.floats(0.0, 1.0))
@pytest.mark.parametrize("name", sorted(GAUSSIAN_STEP))
def test_step_apply_local_atom_tails(name, j, right, ur, ut):
    # x outside the support at a distance r with r^2/4t >= 1: each erfc is
    # taken on the far side, so the tail keeps relative accuracy
    g = gate_atom(j, True, 0)
    d = g.host.diameter
    x = g.hi + 60.0 * d * ur if right else g.lo * (1e-3 * d / g.lo) ** ur
    r = max(x - g.hi, g.lo - x)
    assume(r > 0.0)
    t_lo = (g.cell_width / 2.0) ** 2
    t_hi = min(r * r / 4.0, 1e4 * d * d)
    assume(t_lo < t_hi)
    t = t_lo * (t_hi / t_lo) ** ut
    got = float(GAUSSIAN_STEP[name].step_apply(np.array([[t]]), np.array([x]),
                                               g)[0, 0])
    exact = step_apply_reference(name, g, t, x)
    if abs(exact) > 1e-300:
        assert abs(got - exact) <= 1e-12 * abs(exact), (got, float(exact))
    else:
        assert abs(got) <= 1e-299


@pytest.mark.parametrize("name", sorted(GAUSSIAN_STEP))
def test_step_apply_closed_form_matches_midpoint(name):
    # the midpoint default sums the kernel at cell centres: by Euler-Maclaurin
    # it is off by about h^2/24 |c_j| |d/dy T_t(x, b_j)| per boundary, with
    # |d/dy H_t| <= e^{-1/2}/(2 sqrt(2 pi) t), i.e. 5e-5 ||a|| at t = 100 h^2
    # and 5e-7 ||a|| at t = 1e4 h^2
    k = GAUSSIAN_STEP[name]
    for j in (-3, 0, 2):
        for g in (gate_atom(j, True, 0), gate_atom(j, False, 11 + j)):
            h, d = g.cell_width, g.host.diameter
            t = np.geomspace(100.0 * h * h, 1e4 * d * d, 25)[:, None]
            x = np.geomspace(1e-3 * d, 60.0 * d, 150)
            closed = k.step_apply(t, x, g)
            midpoint = K.KernelFamily.step_apply(k, t, x, g)
            bound = (np.sum(np.abs(g.runs.jumps)) * h * h / 24.0
                     * math.exp(-0.5) / (2.0 * math.sqrt(2.0 * math.pi) * t))
            assert np.all(np.abs(closed - midpoint) <= 1.1 * bound)
            far = t[:, 0] >= 1e4 * h * h
            assert np.all(np.abs(closed - midpoint)[far] <= 1e-6 * g.sup_norm)


@pytest.mark.parametrize("name", sorted(GAUSSIAN_STEP))
def test_step_apply_time_shapes_match_single_times(name):
    # a t-grid column (rows, 1) and one time per point (1, N) give the bits
    # of a single time, as sup_over_t compares grid and golden values
    k = GAUSSIAN_STEP[name]
    g = gate_atom(0, False, 5)
    x = np.geomspace(1e-3, 60.0, 40)
    t = np.geomspace(1e-5, 1e3, 30)
    column = k.step_apply(t[:, None], x, g)
    per_point = k.step_apply(t[None, :30], x[:30], g)[0]
    for i, ti in enumerate(t):
        single = k.step_apply(np.array([[ti]]), x, g)[0]
        assert column[i].tobytes() == single.tobytes()
        if i < 30:
            assert per_point[i] == k.step_apply(np.array([[ti]]), x[i:i + 1],
                                                g)[0, 0]


def test_laguerre_step_apply_beyond_cosh_overflow():
    # cosh 2t overflows above t = 355; sech and 1 - sech come from e^{-2t}
    k = K.LaguerreKernel(0.5)
    g = gate_atom(0, True, 0)
    x = np.array([1e-3, 1.0, 1.5, 30.0])
    t = np.array([[300.0], [355.0], [356.0], [1e4], [1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = k.step_apply(t, x, g)
    assert np.all(np.isfinite(vals))
    for i, ti in enumerate(t[:, 0]):
        for jx, xi in enumerate(x):
            exact = step_apply_reference("laguerre", g, ti, xi)
            assert abs(vals[i, jx] - exact) <= 1e-14 * g.sup_norm


def test_step_apply_orders_and_checks():
    g = gate_atom(0, True, 0)
    t = np.array([[0.5]])
    # general orders keep the midpoint default
    for k in (K.BesselKernel(2.0), K.LaguerreKernel(1.0)):
        assert (k.step_apply(t, [1.0], g).tobytes()
                == K.KernelFamily.step_apply(k, t, [1.0], g).tobytes())
    for k in (K.BesselKernel(1.0), K.LaguerreKernel(0.5)):
        with pytest.raises(DomainError):
            k.step_apply(t, [-1.0, 1.0], g)
        with pytest.raises(DomainError):
            k.step_apply(np.array([[0.0]]), [1.0], g)


# ---------------------------------------------------------------------------
# Mass integrals
# ---------------------------------------------------------------------------

def test_mass_heat_probability():
    heat = K.EuclideanHeat(1)
    for t in (1e-3, 0.3, 37.0):
        assert abs(K.mass(heat, t, 0.5) - 1.0) < 1e-8


def test_mass_bessel_boundary_loss():
    m = K.mass(K.BesselKernel(2.0), 1.0, 0.01)
    assert 0.0 <= m < 1.0
    # refinement agreement
    m2 = K.mass(K.BesselKernel(2.0), 1.0, 0.01, rtol=1e-11)
    assert abs(m - m2) < 1e-6


def test_mass_laguerre_small_time_local():
    m = K.mass(K.LaguerreKernel(1.0), 1e-4, 1.0, 0.1)
    assert abs(m - 1.0) < 1e-3


def test_mass_bounded_by_one():
    cases = [
        (K.EuclideanHeat(1), 0.7, 0.0),
        (K.BesselKernel(0.5), 0.5, 1.0),
        (K.BesselKernel(1.0), 2.0, 0.3),
        (K.LaguerreKernel(0.5), 0.5, 1.0),
        (K.SubordinateKernel(K.EuclideanHeat(1), 0.5), 0.5, 0.0),
    ]
    for k, t, x in cases:
        assert K.mass(k, t, x) <= 1.0 + 1e-6


def test_mass_2d_product():
    prod = K.ProductKernel([K.EuclideanHeat(1), K.EuclideanHeat(1)])
    with pytest.raises(ValueError, match="mass needs a 1-D kernel, "
                                         "got dimension 2"):
        K.mass(prod, 0.2, np.array([0.0, 0.0]))


def test_heat_step_apply_needs_1d():
    g = make_local_atom(covering_bessel((0, 0), 1.05).cuboids[0], 16)
    with pytest.raises(DomainError, match="dimension 2"):
        K.EuclideanHeat(2).step_apply(np.array([[0.5]]), np.array([1.0]), g)


# ---------------------------------------------------------------------------
# Discretized Schrodinger kernel
# ---------------------------------------------------------------------------

def test_schrodinger_free_matches_heat(schrodinger_v0):
    heat = K.EuclideanHeat(1)
    got = schrodinger_v0.eval(0.5, 0.0, 0.0)
    assert abs(got - heat.eval(0.5, 0.0, 0.0)) < 1e-3 * heat.eval(0.5, 0.0, 0.0)


def test_schrodinger_mehler(schrodinger_x2):
    expected = (2 * math.pi * math.sinh(1.0)) ** -0.5
    got = schrodinger_x2.eval(0.5, 0.0, 0.0)
    assert abs(got - expected) < 1e-3 * expected
    for (t, x, y) in [(0.5, 0.3, -0.7), (1.0, 1.5, 1.0), (0.1, 2.0, 2.5)]:
        ref = mehler_closed_form(t, x, y)
        assert abs(schrodinger_x2.eval(t, x, y) - ref) <= 1e-3 * ref + 1e-12


def test_schrodinger_dominated_by_heat(schrodinger_v1):
    heat = K.EuclideanHeat(1)
    xs = schrodinger_v1.grid[200:-200:25]
    vals = schrodinger_v1.eval(0.7, xs, 1.1)
    ref = heat.eval(0.7, xs, 1.1)
    assert np.all(vals <= ref + 1e-6)


def test_schrodinger_constant_potential_mass(schrodinger_v1):
    assert abs(K.mass(schrodinger_v1, 2.0, 0.3) - math.exp(-2.0)) < 1e-4


@pytest.mark.parametrize("name", ["schrodinger_v1", "schrodinger_x2"])
def test_schrodinger_box_mass_is_node_sum(name, request):
    # the kernel is piecewise linear in y with zeros at +-R, so its
    # integral over the box is h times the sum of its node values
    k = request.getfixturevalue(name)
    for t in (1e-4, 1e-2, 0.25, 1.0, 4.0, k.max_valid_time()):
        for x in (-3.0, 0.0, 0.37, 2.5):
            exact = k.h * math.fsum(k.eval(t, x, k.grid))
            assert abs(K.mass(k, t, x) - exact) <= 1e-12 * exact
            wide = K.mass(k, t, x, 2.0 * k.box_half_width)
            assert abs(wide - exact) <= 1e-12 * exact


@pytest.mark.parametrize("name", ["schrodinger_v1", "schrodinger_x2"])
def test_schrodinger_time_shapes_match_single_times(name, request):
    # one broadcast eigen sum serves a single time, a column of times and
    # one time per point
    k = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    x = rng.uniform(-15.0, 15.0, 200)
    ts = np.geomspace(1e-4, k.max_valid_time(), 31)
    column = k.eval(ts[:, None], x, 0.7)
    assert np.array_equal(column, np.stack([k.eval(t, x, 0.7) for t in ts]))
    per_point = rng.choice(ts, size=(1, len(x)))
    single = [k.eval(t, xi, 0.7) for t, xi in zip(per_point[0], x)]
    assert np.array_equal(k.eval(per_point, x, 0.7)[0], single)


def test_schrodinger_guards():
    with pytest.raises(DomainError):
        K.schrodinger_build(lambda x: -np.ones_like(x), 10.0, 200)
    k = K.schrodinger_build(lambda x: np.zeros_like(x), 10.0, 200)
    with pytest.raises(DomainError):
        k.eval(25.0, 0.0, 0.0)   # sqrt(t) beyond box/4
    with pytest.raises(DomainError):
        k.eval(0.5, 11.0, 0.0)   # outside the truncation box


class _RippledHeat(K.EuclideanHeat):
    """Heat kernel with a fast ripple above t = 1e8 that no fixed
    subordination rule resolves."""

    def eval(self, t, x, y):
        t = np.asarray(t, dtype=float)
        ripple = np.where(t > 1e8, 0.5 * np.cos(1e3 * np.log(t)), 0.0)
        return super().eval(t, x, y) * (1.0 + ripple)


def test_subordinate_time_column_is_row_by_row():
    x = np.linspace(-2.0, 2.0, 9)
    ts = np.geomspace(1e-3, 1e3, 7)
    for k in (K.SubordinateKernel(K.EuclideanHeat(1), 0.7),
              K.SubordinateKernel(_RippledHeat(1), 0.5)):
        column = k.eval(ts[:, None], x, 0.3)
        rows = np.stack([k.eval(t, x, 0.3) for t in ts])
        assert np.array_equal(column, rows)
    # every row keeps its own error check: one rippled row fails the column
    sub = K.SubordinateKernel(_RippledHeat(1), 0.5)
    with pytest.raises(QuadratureError):
        sub.eval(1e9, x, 0.3)
    with pytest.raises(QuadratureError):
        sub.eval(np.array([[1e-3], [1.0], [1e9]]), x, 0.3)


class _NaNHeat(K.EuclideanHeat):
    """Heat kernel that returns NaN for t > 10."""

    def eval(self, t, x, y):
        t = np.asarray(t, dtype=float)
        return np.where(t > 10.0, np.nan, super().eval(t, x, y))


def test_subordinate_nan_base_raises():
    # a NaN error estimate compares False with any budget; it must fail
    sub = K.SubordinateKernel(_NaNHeat(1), 0.5)
    with pytest.raises(QuadratureError):
        sub.eval(1.0, np.array([0.0, 1.0]), 0.0)


class _PlainHeat(K.EuclideanHeat):
    """The heat kernel under another type: subordinated through the rule."""


_POINTS_2D = np.array([[0.5, 1.0], [1.0, 2.0], [2.0, 0.7]])


@pytest.mark.parametrize("base", [
    _PlainHeat(2), K.ProductKernel([K.BesselKernel(1.0), K.LaguerreKernel(0.5)])],
    ids=["heat_subclass", "bessel_x_laguerre"])
def test_subordinate_2d_base_value_shape(base):
    # the coordinate axis of (N, d) points is not a value axis
    sub = K.SubordinateKernel(base, 0.7)
    y = np.array([1.0, 1.5])
    ts = np.array([0.3, 2.0])
    rows = [sub.eval(t, _POINTS_2D, y) for t in ts]
    assert all(row.shape == (3,) for row in rows)
    column = sub.eval(ts[:, None], _POINTS_2D, y)
    assert column.shape == (2, 3)
    assert np.array_equal(column, np.stack(rows))


def test_subordinate_2d_heat_subclass_matches_profile():
    y = np.array([1.0, 1.5])
    ts = np.array([[0.3], [2.0]])
    rule = K.SubordinateKernel(_PlainHeat(2), 0.7)
    profile = K.SubordinateKernel(K.EuclideanHeat(2), 0.7)
    assert rule.profile is None and profile.profile is not None
    assert_allclose(rule.eval(ts, _POINTS_2D, y),
                    profile.eval(ts, _POINTS_2D, y), rtol=1e-10)


@pytest.mark.parametrize("nu,d,panels", [(0.01, 1, 252), (0.02, 2, 143)])
def test_radial_profile_small_nu(nu, d, panels):
    # the seed panels grow like 1/nu (252 at nu = 0.01, d = 1), and the
    # table's budget with them; the rule's nodes there reach s = 2.7e-315,
    # where the 1-D heat kernel is 0 away from the diagonal
    assert K.radial_profile(nu, d).lo.size == panels


def test_radial_profile_rejects_overflowing_nodes():
    # at nu = 0.01 the rule's nodes reach s = 2.7e-315, where the 2-D heat
    # kernel's (4 pi s)^{-1} overflows; under the suite's warnings-as-errors
    # setting the build must fail on the named cause, not on the warning
    with pytest.raises(DomainError,
                       match=r"nu = 0\.01, d = 2: .* smallest node s = \d"):
        K.radial_profile(0.01, 2)
