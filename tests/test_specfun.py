import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
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


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.5, 3.0])
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


# ---------------------------------------------------------------------------
# Stable subordinator density
# ---------------------------------------------------------------------------

def test_params_invariants():
    p = sf.StableDensityParams(0.5)
    assert math.pi / 2 < p.theta_nu < math.pi
    assert math.cos(p.theta_nu) < 0
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


def test_density_domain_error():
    with pytest.raises(DomainError):
        sf.stable_density(sf.StableDensityParams(0.5), 0.0)


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.7, 0.9])
def test_density_total_mass(nu):
    mass = sf.stable_total_mass(sf.StableDensityParams(nu))
    assert abs(mass - 1.0) <= 1e-4


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.6, 0.75, 0.9])
def test_density_branch_crossover(nu):
    p = sf.StableDensityParams(nu)
    s1 = sf.stable_series_switch(nu)
    band = np.linspace(0.85 * s1, 1.15 * s1, 7)
    series = sf._stable_series(nu, band)
    contour = np.array([sf._stable_contour(nu, float(s), p.theta_nu)
                        for s in band])
    assert np.max(np.abs(series - contour) / np.abs(series)) < 1e-6


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
