import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import ive
from scipy.stats import levy_stable

from hardykit import specfun as sf
from hardykit.errors import DomainError


# ---------------------------------------------------------------------------
# Modified Bessel function
# ---------------------------------------------------------------------------

def _scaled(tau, z):
    """e^{-z} I_tau(z) through the log form the kernels use."""
    with np.errstate(divide="ignore"):
        return np.exp(sf.log_bessel_i_scaled(tau, np.log(z)))


def test_bessel_half_order_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    got = _scaled(0.5, 1.0) * math.exp(1.0)
    assert_allclose(got, expected, rtol=1e-13)
    assert_allclose(expected, 0.9376748882454868, rtol=1e-12)


def test_bessel_at_zero():
    # z = 0 is log z = -inf: I_0(0) = 1 and I_tau(0) = 0 for tau > 0
    assert sf.log_bessel_i_scaled(0.0, -math.inf) == 0.0
    assert _scaled(3.0, 0.0) == 0.0


def test_bessel_against_high_precision_series():
    # independent arbitrary-precision oracle at z = 50
    mpmath.mp.dps = 40
    expected = float(mpmath.besseli(0, 50) * mpmath.exp(-50))
    got = _scaled(0.0, 50.0)
    assert abs(got - expected) / expected < 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.5])
def test_bessel_against_scipy_grid(tau):
    z = np.geomspace(1e-6, 5e4, 200)
    mine = _scaled(tau, z)
    ref = ive(tau, z)
    assert_allclose(mine, ref, rtol=5e-13)


@pytest.mark.parametrize("tau", [0.0, 0.3, 1.5, 3.0])
def test_bessel_branch_crossover(tau):
    # the series serves log z <= log z0, the asymptotic expansion above
    log_z0 = math.log(sf._bessel_switch_point(tau))
    series = sf.log_bessel_i_scaled(tau, log_z0)
    asym = sf.log_bessel_i_scaled(tau, np.nextafter(log_z0, math.inf))
    assert abs(math.expm1(series - asym)) < 1e-9
    band = np.log(np.linspace(0.9, 1.1, 41)) + log_z0
    got = np.exp(sf.log_bessel_i_scaled(tau, band))
    ref = ive(tau, np.exp(band))
    assert np.max(np.abs(got - ref) / ref) < 1e-9


def test_asymptotic_terms_shrink_above_switch():
    # the asymptotic series runs at z > z0(tau) = max(30, 1.5 tau^2), where
    # every ratio of consecutive terms is below 1, so no term is dropped
    for tau in np.linspace(-0.5, 60.0, 1211):
        z0 = sf._bessel_switch_point(tau)
        k = np.arange(40.0)
        factor = np.abs(4 * tau * tau - (2 * k + 1) ** 2) / (8 * (k + 1) * z0)
        assert factor.max() < 1.0


def test_bessel_positive_and_monotone():
    z = np.geomspace(1e-6, 600.0, 400)
    for tau in (0.0, 0.5, 2.0):
        unscaled = _scaled(tau, z) * np.exp(z)
        assert np.all(unscaled[z > 0] > 0.0)
        assert np.all(np.diff(unscaled) > 0.0)


def test_bessel_domain_errors():
    # every real log z is an argument; only the order has a domain
    with pytest.raises(DomainError):
        sf.log_bessel_i_scaled(-0.75, 0.0)


def test_log_bessel_matches_linear():
    log_z = np.log(np.array([1e-10, 1e-3, 0.7, 20.0, 3e3, 1e6]))
    for tau in (0.0, 0.5, 1.0):
        direct = np.log(ive(tau, np.exp(log_z)))
        via_log = sf.log_bessel_i_scaled(tau, log_z)
        assert_allclose(via_log, direct, rtol=0, atol=1e-12)


def test_half_order_against_mpmath():
    # the closed form log(-expm1(-2z)) - log(2 pi z)/2 against 40 digits
    mpmath.mp.dps = 40
    log_z = np.linspace(-30.0, 8.0, 381)
    got = sf.log_bessel_i_scaled(0.5, log_z)
    ref = []
    for lz in log_z:
        z = mpmath.exp(mpmath.mpf(float(lz)))
        ref.append(float(mpmath.log(mpmath.besseli(0.5, z)) - z))
    assert np.max(np.abs(got - np.array(ref))) < 1e-14


def test_half_order_underflow_band():
    # from z = e^{-30} down to exact underflow the value is the lead
    # (log z - log(pi/2))/2 minus z < 1e-13
    log_z = np.linspace(-800.0, -30.0, 771)
    lead = 0.5 * (log_z - math.log(0.5 * math.pi))
    got = sf.log_bessel_i_scaled(0.5, log_z)
    assert_allclose(got, lead, rtol=1e-15, atol=1e-13)
    assert np.all(np.isfinite(got))


def test_half_order_at_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.log_bessel_i_scaled(0.5, -math.inf) == -math.inf
        got = sf.log_bessel_i_scaled(0.5, np.array([-math.inf, 0.0, 800.0]))
    assert got[0] == -math.inf
    assert np.all(np.isfinite(got[1:]))


# log_bessel_i_scaled at the general orders, recorded as float.hex from the
# power-series/asymptotic implementation; the closed form at tau = 1/2
# must leave these bits alone
_GENERAL_ORDER_LOG_Z = [-math.inf, -800.0, -30.0, -4.0, -0.5, 0.0, 1.5, 3.4,
                        3.5, 5.0, 8.0, 20.0]
_GENERAL_ORDER_BITS = {
    0.0: ["0x0.0p+0", "0x0.0p+0", "-0x1.a56e0c2ac7f75p-44",
          "-0x1.2ab59b5523e93p-6", "-0x1.087edc9c2ab9ep-1",
          "-0x1.87363bb31c152p-1", "-0x1.a2fd6be75e718p+0",
          "-0x1.4eae50f21ccb8p+1", "-0x1.552228fef5ed3p+1",
          "-0x1.b58415e8ffd63p+1", "-0x1.3acf33a83358fp+2",
          "-0x1.5d67f1c84155ap+3"],
    0.3: ["-inf", "-0x1.e03314f7b0eacp+7", "-0x1.23314f7b0eb00p+3",
          "-0x1.5169ca2875553p+0", "-0x1.92becbc56d4fap-1",
          "-0x1.d47181053f119p-1", "-0x1.a5fe4ac95e690p+0",
          "-0x1.4ee0611387f30p+1", "-0x1.554f6213b3613p+1",
          "-0x1.b58e0e080230dp+1", "-0x1.3acf72fbee865p+2",
          "-0x1.5d67f1c84e151p+3"],
    1.5: ["-inf", "-0x1.2c54c3077d890p+10", "-0x1.729860efb1238p+5",
          "-0x1.d5ee902530d9dp+2", "-0x1.5279a7a818a6cp+1",
          "-0x1.1ce6bb25aa131p+1", "-0x1.ebd509efb125ep+0",
          "-0x1.53919e217aae0p+1", "-0x1.598c88a356045p+1",
          "-0x1.b67d506877138p+1", "-0x1.3ad562d578aeap+2",
          "-0x1.5d67f1c980071p+3"],
    2.5: ["-inf", "-0x1.f4bbc40f5d3f5p+10", "-0x1.37bc40f5d3f51p+6",
          "-0x1.9e77e01c1dfccp+3", "-0x1.30e82eef3c479p+2",
          "-0x1.ee75cf46773e3p+1", "-0x1.33a460980e4a8p+1",
          "-0x1.5c40bfb4c5c40p+1", "-0x1.61650e68165edp+1",
          "-0x1.b8386057ddfe5p+1", "-0x1.3ae0615eccadep+2",
          "-0x1.5d67f1cbb697ep+3"],
}


@pytest.mark.parametrize("tau", sorted(_GENERAL_ORDER_BITS))
def test_general_orders_bit_identical(tau):
    got = sf.log_bessel_i_scaled(tau, np.array(_GENERAL_ORDER_LOG_Z))
    assert [float(v).hex() for v in got] == _GENERAL_ORDER_BITS[tau]


# ---------------------------------------------------------------------------
# Stable subordinator density
# ---------------------------------------------------------------------------

def test_params_invariants():
    assert sf.StableDensityParams(0.5).nu == 0.5
    with pytest.raises(DomainError):
        sf.StableDensityParams(1.0)
    with pytest.raises(DomainError):
        sf.StableDensityParams(0.0)


def test_density_half_closed_form():
    p = sf.StableDensityParams(0.5)
    # g_{1/2}(s) = (2 sqrt(pi))^{-1} s^{-3/2} exp(-1/(4s))
    assert_allclose(sf.stable_density(p, 1.0),
                    math.exp(-0.25) / (2.0 * math.sqrt(math.pi)), rtol=1e-14)
    assert_allclose(sf.stable_density(p, 1.0), 0.2196956447, rtol=1e-9)


def test_density_vanishes_at_zero():
    p = sf.StableDensityParams(0.5)
    assert sf.stable_density(p, 1e-4) < 1e-100


def _zero_threshold(nu):
    """s*(nu): the log bound equals log(1e-300) there."""
    def excess(log_s):
        return (float(sf._stable_log_bound(nu, math.exp(log_s)))
                - math.log(1e-300))
    return math.exp(brentq(excess, math.log(1e-300),
                           math.log(sf.stable_series_switch(nu))))


def test_zero_branch_at_half_matches_closed_form():
    # the closed form runs first at nu = 1/2; wherever the zero branch
    # would apply, the closed form is below 1e-300 as well
    s = np.geomspace(1e-12, 1.0, 2001)
    zeroed = sf._stable_log_bound(0.5, s) < math.log(1e-300)
    assert 0 < zeroed.sum() < len(s)
    log_closed = -0.25 / s - math.log(2.0 * math.sqrt(math.pi)) - 1.5 * np.log(s)
    assert np.all(log_closed[zeroed] < math.log(1e-300))
    assert_allclose(_zero_threshold(0.5), 3.54e-4, rtol=0.01)
    assert_allclose(_zero_threshold(0.7), 2.52e-2, rtol=0.01)


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.5, 0.7, 0.9])
def test_left_tail_bound_dominates_levy_stable(nu):
    # g(s) <= p B s^{-1/(1-nu)} e^{-B s^{-p}} wherever B s^{-p} >= 1
    s_star = _zero_threshold(nu)
    p = nu / (1.0 - nu)
    s_edge = nu * (1.0 - nu) ** (1.0 / p)    # B s^{-p} = 1
    s = np.geomspace(s_star, 0.999 * s_edge, 60)
    bound = np.exp(sf._stable_log_bound(nu, s))
    assert np.all(np.isfinite(bound))
    kanter = np.array([sf._stable_kanter(nu, float(si)) for si in s])
    assert np.all(bound >= kanter)
    scale = math.cos(math.pi * nu / 2.0) ** (1.0 / nu)
    pdf = levy_stable.pdf(s, nu, 1.0, loc=0.0, scale=scale)
    resolved = pdf >= 1e-12
    assert resolved.sum() >= 5
    assert np.all(bound[resolved] >= pdf[resolved])
    # beyond s_edge the bound does not hold and is not used
    assert sf._stable_log_bound(nu, 1.01 * s_edge) == math.inf


def _kanter_mpmath(nu, s):
    """Kanter's integral in 40-digit arithmetic, straight from A(phi)."""
    with mpmath.workdps(40):
        nu, s = mpmath.mpf(nu), mpmath.mpf(s)
        p = nu / (1 - nu)
        x = s ** -p
        width = mpmath.sqrt(2 / (x * (1 - nu) * nu ** p * nu))

        def integrand(phi):
            a = (mpmath.sin(nu * phi) ** nu * mpmath.sin((1 - nu) * phi) ** (1 - nu)
                 / mpmath.sin(phi)) ** (1 / (1 - nu))
            return a * mpmath.exp(-x * a)

        cuts = [k * mpmath.pi / 8 for k in range(9)]
        cuts += [width * 2 ** k for k in range(12) if width * 2 ** k < mpmath.pi]
        total = mpmath.quad(integrand, sorted(cuts))
        return float(p / mpmath.pi * s ** (-1 / (1 - nu)) * total)


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.6, 0.7, 0.79, 0.9, 0.95])
def test_kanter_against_mpmath(nu):
    s = np.geomspace(_zero_threshold(nu), sf.stable_series_switch(nu), 13)[:-1]
    checked = 0
    for si in s:
        ref = _kanter_mpmath(nu, si)
        if ref >= 1e-30:
            assert_allclose(sf._stable_kanter(nu, float(si)), ref, rtol=1e-12)
            checked += 1
    assert checked >= 4


def test_zero_branch_skips_kanter(monkeypatch):
    nu = 0.7
    s_star = _zero_threshold(nu)
    below = np.geomspace(1e-6, 0.999 * s_star, 9)

    def no_kanter(*args, **kwargs):
        raise AssertionError("Kanter's integral evaluated in the zero region")

    monkeypatch.setattr(sf, "_stable_kanter", no_kanter)
    p = sf.StableDensityParams(nu)
    assert np.array_equal(sf.stable_density(p, below), np.zeros_like(below))
    assert sf.stable_density(p, 0.5 * s_star) == 0.0


def test_left_tail_bound_overflows_to_minus_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf._stable_log_bound(0.9999, 0.1) == -math.inf
        assert sf._stable_log_bound(0.9999, 0.4) == -math.inf
        assert np.isfinite(sf._stable_log_bound(0.9999, 0.998))
        assert sf._stable_log_bound(0.9999, 2.0) == math.inf


def test_density_domain_error():
    with pytest.raises(DomainError):
        sf.stable_density(sf.StableDensityParams(0.5), 0.0)


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7, 0.9])
def test_density_total_mass(nu):
    mass = sf.stable_laplace_check(sf.StableDensityParams(nu), 0.0)
    assert abs(mass - 1.0) <= 1e-4


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.6, 0.75, 0.9])
def test_density_branch_crossover(nu):
    s1 = sf.stable_series_switch(nu)
    band = np.linspace(0.85 * s1, 1.15 * s1, 7)
    series = sf._stable_series(nu, band)
    kanter = np.array([sf._stable_kanter(nu, float(s)) for s in band])
    assert np.max(np.abs(series - kanter) / np.abs(series)) < 1e-6


@pytest.mark.parametrize("nu", [0.3, 0.7])
def test_density_against_scipy_levy_stable(nu):
    # S1 parameterization of the one-sided law with transform exp(-x^nu)
    scale = math.cos(math.pi * nu / 2.0) ** (1.0 / nu)
    p = sf.StableDensityParams(nu)
    for s in (0.5, 1.0, 3.0):
        ref = levy_stable.pdf(s, nu, 1.0, loc=0.0, scale=scale)
        assert_allclose(sf.stable_density(p, s), ref, rtol=1e-8)


def test_density_nonnegative_and_tail_bounded():
    s = np.geomspace(1e-3, 1e3, 121)
    for nu in (0.3, 0.6, 0.9):
        g = sf.stable_density(sf.StableDensityParams(nu), s)
        assert np.all(g >= 0.0)
        assert np.isfinite(np.max(s * g))


def test_laplace_identity_examples():
    # exact exponent cases
    assert abs(sf.stable_laplace_check(sf.StableDensityParams(0.5), 4.0)
               - math.exp(-2.0)) < 1e-10
    assert abs(sf.stable_laplace_check(sf.StableDensityParams(0.7), 1.0)
               - math.exp(-1.0)) < 1e-8
    assert abs(sf.stable_laplace_check(sf.StableDensityParams(0.3), 0.0)
               - 1.0) < 1e-6


def test_laplace_identity_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nu = rng.uniform(0.2, 0.9)
        x = rng.uniform(0.0, 50.0)
        got = sf.stable_laplace_check(sf.StableDensityParams(nu), x)
        assert abs(got - math.exp(-x ** nu)) <= 1e-4
