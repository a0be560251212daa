import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hardykit import kernels as K
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
    # the kernel is exp of a sum of logs, so its relative error is about
    # eps times the size of those logs; points in {0} U [1e-3, 20] and a
    # Gaussian exponent up to 100 keep them below about 130
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


def test_laguerre_small_time_matches_heat():
    lag = K.LaguerreKernel(0.5)
    heat = K.EuclideanHeat(1)
    ratio = lag.eval(1e-3, 1.0, 1.0) / heat.eval(1e-3, 1.0, 1.0)
    assert abs(ratio - 1.0) < 0.05


def test_laguerre_extreme_times_finite():
    lag = K.LaguerreKernel(1.0)
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


def test_stable_natural_time():
    st = K.StableKernel(0.5, 1)
    assert_allclose(st.eval(1.0, 0.0, 0.0), 1.0 / math.pi, rtol=1e-9)
    # consistency with the substituted-time kernel
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.5)
    assert_allclose(st.eval(0.7, 1.0, 0.2), sub.eval(0.7 ** 2, 1.0, 0.2),
                    rtol=1e-12)


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


def test_subordinate_heat_against_fourier_inversion():
    # eval(t, x, y) = (1/pi) int_0^inf cos(xi r) exp(-t^nu xi^{2 nu}) dxi,
    # the inverse transform of E exp(-t S xi^2) = exp(-(t xi^2)^nu); the
    # integrand is below e^{-40} beyond xi_max.  The rule's K15/G7 check
    # holds its error to 1e-6 relative.
    nu = 0.7
    heat = K.SubordinateKernel(K.EuclideanHeat(1), nu)
    for t in (1e-3, 0.05, 1.0, 20.0):
        a = t ** nu
        xi_max = (40.0 / a) ** (1.0 / (2.0 * nu))
        for x in (0.0, 0.3, 1.0, 3.0):
            val, _ = quad(lambda xi: math.exp(-a * xi ** (2.0 * nu)), 0.0,
                          xi_max, weight="cos", wvar=abs(x - 0.2),
                          epsabs=0.0, epsrel=1e-10, limit=500)
            assert_allclose(heat.eval(t, x, 0.2), val / math.pi, rtol=1e-6)


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
    st = K.StableKernel(0.7, 1)
    rng = np.random.default_rng(9)
    t = 10 ** rng.uniform(-1, 1, 50)
    r = 10 ** rng.uniform(-1, 1, 50)
    vals = st.eval(t, r, 0.0)
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
    for own in (K.SubordinateKernel(K.EuclideanHeat(1), 0.7),
                K.StableKernel(0.7, 1)):
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


def test_point_domain_errors():
    b1 = K.BesselKernel(1.0)
    with pytest.raises(DomainError):
        b1.eval(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        b1.eval(-0.5, 1.0, 1.0)


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
    m = K.mass(prod, 0.2, np.array([0.0, 0.0]))
    assert abs(m - 1.0) < 1e-6


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
              K.StableKernel(0.7, 1), K.SubordinateKernel(_RippledHeat(1), 0.5)):
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
