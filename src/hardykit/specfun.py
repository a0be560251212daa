"""Scalar special functions backing every kernel.

Three families live here:

* the modified Bessel function of the first kind ``I_tau`` for orders
  ``tau >= -1/2``, evaluated through an ascending power series for small
  arguments and the large-argument asymptotic expansion above a per-order
  switch point, at every order (tau = 1/2 included).  Kernels consume the
  log of the exponentially scaled form, ``log(e^{-z} I_tau(z))`` from
  ``log z``, so that the Gaussian factors of the kernels cancel the
  exponential growth without overflow.  The Bessel and Laguerre kernels
  of order 1/2 do not use it: ``kernels._log_space_kernel`` evaluates
  their closed form in linear space;

* the complementary error function ``erfc`` and its scaled form
  ``erfcx`` = e^{x^2} erfc for x >= 0, Cody's rational approximations in
  numpy (no scipy import), and ``erf_window``, the Taylor series of
  (erf(u + delta) - erf(u - delta))/2 for small windows.  The order-1/2
  kernels propagate step functions with them
  (``KernelFamily.step_apply``), and the (K) condition integrates the
  heat kernel over time with ``erfcx``;

* the density ``g_nu`` of the one-sided nu-stable subordinator, i.e. the
  probability density on (0, inf) whose Laplace transform is
  ``exp(-x^nu)``.  It is evaluated through a convergent large-argument
  series and, below a per-nu switch point, through Kanter's integral, a
  positive integral over [0, pi] that does not oscillate.  The same
  integrand bounds g_nu(s) by p B s^{-1/(1-nu)} e^{-B s^{-p}} with
  p = nu/(1-nu) and B = (1-nu) nu^p; where that bound is under 1e-300 the
  density is returned as an exact 0.  The zero region is s < s*(nu), with
  s* about 3.5e-4 at nu = 1/2 and about 2.5e-2 at nu = 0.7.

Everything is pure and accepts numpy arrays where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
# _gk15 is unused here; perfbench/tracer.py rebinds it in every module and
# requires this binding
from .quadrature import gauss_kronrod_15 as _gk15  # noqa: F401
from .quadrature import WORKING_SET, integrate_keyed


# ---------------------------------------------------------------------------
# Modified Bessel function I_tau
# ---------------------------------------------------------------------------

def _bessel_switch_point(tau: float) -> float:
    # Both branches reach ~1e-13 relative accuracy at the switch: the
    # asymptotic series needs z well past tau^2, the power series is
    # cancellation-free (all terms positive) at any z.
    return max(30.0, 1.5 * tau * tau)


def log_bessel_i_scaled(tau: float, log_z):
    """log(e^{-z} I_tau(z)) from log(z), stable for z under/overflowing.

    Used by kernels evaluated in log space: for tau > -1/2 the small-z
    behaviour is tau*log(z/2) - lgamma(tau+1) - z, which stays
    representable even when z itself underflows.  Every order runs the
    power series below the switch point and the asymptotic expansion above
    it; a series sum that overflows (possible for tau >~ 23) raises
    DomainError.  Order 1/2 kernels (Bessel beta = 1, Laguerre
    alpha = 1/2) take their closed form in ``kernels._log_space_kernel``
    and never reach this function.
    """
    if tau < -0.5:
        raise DomainError(f"order tau={tau} below -1/2")
    log_z = np.asarray(log_z, dtype=float)
    z0 = _bessel_switch_point(tau)
    log_z0 = math.log(z0)
    out = np.empty_like(log_z)

    small = log_z <= log_z0
    if np.any(small):
        # scipy loads on first use: order-1/2 kernels never call this
        from scipy.special import gammaln

        lz = log_z[small]
        z = np.exp(lz)
        # correction series sum_k (z^2/4)^k / (k! (tau+1)_k), all positive
        corr = np.ones_like(z)
        term = np.ones_like(z)
        q = z * z / 4.0
        with np.errstate(over="ignore"):
            for k in range(500):
                term = term * q / ((k + 1.0) * (tau + k + 1.0))
                corr += term
                if np.all(term <= 1e-18 * corr):
                    break
        if not np.all(np.isfinite(corr)):
            bad = float(np.min(z[~np.isfinite(corr)]))
            raise DomainError(f"Bessel series overflows at tau={tau}, z={bad:g}")
        if tau == 0.0:
            lead = np.zeros_like(lz)   # avoids 0 * (-inf) when z underflows
        else:
            lead = tau * (lz - math.log(2.0))
        out[small] = lead - gammaln(tau + 1.0) - z + np.log(corr)
    if np.any(~small):
        lz = log_z[~small]
        inv_z = np.exp(-lz)
        mu = 4.0 * tau * tau
        total = np.ones_like(lz)
        term = np.ones_like(lz)
        # above the switch point z > max(30, 1.5 tau^2), so every factor
        # |mu - (2k+1)^2| / (8(k+1)z) with k < 40 is at most
        # max(79^2 / (8 * 40 * 30), 1/3) < 1: each term is below the last
        for k in range(40):
            factor = -(mu - (2 * k + 1.0) ** 2) * inv_z / (8.0 * (k + 1.0))
            term = term * factor
            total += term
            if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
                break
        out[~small] = -0.5 * (math.log(2.0 * math.pi) + lz) + np.log(total)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Complementary error function
# ---------------------------------------------------------------------------

# W. J. Cody, Rational Chebyshev approximations for the error function,
# Math. Comp. 23 (1969) 631-637, with the coefficients of his CALERF:
# erf(x) = x A(x^2)/B(x^2) on [0, 0.46875], erfc(x) = e^{-x^2} C(x)/D(x)
# on (0.46875, 4] and x erfc(x) = e^{-x^2} (1/sqrt(pi) + P(y)/Q(y)),
# y = 1/x^2, above 4
_ERFC_A = (3.16112374387056560e00, 1.13864154151050156e02,
           3.77485237685302021e02, 3.20937758913846947e03,
           1.85777706184603153e-1)
_ERFC_B = (2.36012909523441209e01, 2.44024637934444173e02,
           1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
# erfc(x) rounds to 0 above about 27.23; the last subnormals lie below
_ERFC_ZERO = 27.3
# x + 2^48 - 2^48 is x rounded to a multiple of 1/16 for 0 <= x < 2^47
_ROUND_16TH = 2.0 ** 48


def _times_exp_neg_square(x, r):
    """r e^{-x^2}, in place in r, for 0 <= x < 2^47 and r > 0 normal.

    e^{-x^2} = e^{-s^2} e^{-(x-s)(x+s)} with s = x rounded to a multiple
    of 1/16, so s^2 is exact (Cody).  Where e^{-s^2} would be subnormal
    (s^2 > 700), it is taken at e^{64} times its size and the product is
    scaled by e^{-64} last, so that a subnormal result is rounded once."""
    s = x + _ROUND_16TH
    s -= _ROUND_16TH
    d = x - s
    d *= x + s
    np.negative(d, out=d)
    r *= np.exp(d, out=d)
    s *= s
    deep = (s > 700.0).nonzero()
    np.negative(s, out=s)
    s[deep] += 64.0
    r *= np.exp(s, out=s)
    r[deep] *= math.exp(-64.0)
    return r


def _horner_ratio(y, num_coef, den_coef):
    """(num_coef[-1] y^n + ... + num_coef[n]) / (y^n + den_coef[0] y^(n-1)
    + ... + den_coef[n-1]), Cody's nesting with n = len(den_coef)."""
    num = num_coef[-1] * y
    den = y + den_coef[0]
    num += num_coef[0]
    num *= y
    den *= y
    for a, b in zip(num_coef[1:-2], den_coef[1:-1]):
        num += a
        num *= y
        den += b
        den *= y
    num += num_coef[-2]
    den += den_coef[-1]
    num /= den
    return num


def erfc(x):
    """Complementary error function for x >= 0, to about 1e-15 relative.

    Cody's three rational approximations, written for numpy arrays (no
    scipy).  The value is positive up to about x = 27.23, subnormal above
    26.55, and an exact 0 above; NaN stays NaN, and x < 0 raises
    DomainError.  Each range gathers its points by index: boolean-mask
    indexing is several times slower on the mixed masks of a kernel batch.
    """
    return _cody_erfc(x, scaled=False)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0, to
    about 1e-15 relative.

    The rational parts of ``erfc`` without its factor e^{-x^2} (Cody's
    CALERF with jint = 2): e^{x^2} (1 - erf x) up to 0.46875, C(x)/D(x)
    up to 4 and (1/sqrt(pi) - y P(y)/Q(y))/x, y = 1/x^2, above, which is
    about 1/(sqrt(pi) x) and 0 at x = inf.  NaN stays NaN, and x < 0
    raises DomainError.
    """
    return _cody_erfc(x, scaled=True)


def _cody_erfc(x, scaled: bool):
    """erfc(x), or erfcx(x) where ``scaled``: the body of both."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.zeros(flat.shape)
    if not (flat >= 0.0).all():
        if (flat < 0.0).any():
            name = "erfcx" if scaled else "erfc"
            raise DomainError(f"{name} is implemented for x >= 0")
        out[np.isnan(flat)] = np.nan

    idx = (flat <= 0.46875).nonzero()[0]
    if idx.size:
        xs = flat.take(idx)
        erf = _horner_ratio(xs * xs, _ERFC_A, _ERFC_B)
        erf *= xs
        out[idx] = (1.0 - erf) * np.exp(xs * xs) if scaled else 1.0 - erf

    idx = ((flat > 0.46875) & (flat <= 4.0)).nonzero()[0]
    if idx.size:
        xm = flat.take(idx)
        r = _horner_ratio(xm, _ERFC_C, _ERFC_D)
        out[idx] = r if scaled else _times_exp_neg_square(xm, r)

    # erfc is an exact 0 from _ERFC_ZERO on; erfcx runs to x = inf
    big = flat > 4.0 if scaled else (flat > 4.0) & (flat < _ERFC_ZERO)
    idx = big.nonzero()[0]
    if idx.size:
        xb = flat.take(idx)
        with np.errstate(over="ignore"):    # y = 0 above 1.3e154
            y = 1.0 / (xb * xb)
        r = _horner_ratio(y, _ERFC_P, _ERFC_Q)
        r *= -y
        r += 1.0 / math.sqrt(math.pi)
        r /= xb
        out[idx] = r if scaled else _times_exp_neg_square(xb, r)
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


# erf_window's series is exact to rounding for delta max(u, 1) up to this
ERF_WINDOW_MAX = 0.1


def erf_window(u, delta):
    """(erf(u + delta) - erf(u - delta))/2 for u >= 0 and a small window,
    0 <= delta max(u, 1) <= ``ERF_WINDOW_MAX``, to about 1e-15 relative.

    The difference of two erfc values loses the digits that the window
    does not resolve (all of them as delta -> 0).  Its Taylor series in
    delta does not: (2 delta/sqrt(pi)) e^{-u^2} sum_k delta^{2k}
    H_{2k}(u)/(2k+1)!, with the Hermite polynomials H_n; the terms after
    k = 5 are below 1e-17 of the sum.
    """
    u = np.asarray(u, dtype=float)
    delta = np.asarray(delta, dtype=float)
    h_prev, h = np.ones_like(u), 2.0 * u       # H_0, H_1
    d2 = delta * delta
    power = np.ones(np.broadcast_shapes(u.shape, delta.shape))
    total = power.copy()
    for n in range(1, 10):
        h_prev, h = h, 2.0 * u * h - 2.0 * n * h_prev     # H_{n+1}
        if n % 2:
            power *= d2
            total += power * h / math.factorial(n + 2)
    total *= (2.0 / math.sqrt(math.pi)) * delta
    return _times_exp_neg_square(u, total)


# ---------------------------------------------------------------------------
# One-sided stable subordinator density g_nu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableDensityParams:
    """Index nu in (0, 1) of the one-sided stable subordinator."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise DomainError(f"nu={self.nu} outside (0, 1)")


# log(1e-300): the density is returned as 0 where its bound lies below this
_LOG_DENSITY_FLOOR = math.log(1e-300)


def _stable_log_bound(nu: float, s):
    """log(p B s^{-1/(1-nu)} e^{-B s^{-p}}), an upper bound for log g_nu(s)
    wherever x B >= 1 with x = s^{-p} (+inf elsewhere).

    In Kanter's integral (``_stable_kanter``) A >= B, and A e^{-x A}
    decreases in A once x A >= 1, so the integrand is at most B e^{-x B}
    there.  The bound is computed in log form, so that for nu near 1 the
    term x B overflows to inf and the log bound to -inf.
    """
    p = nu / (1.0 - nu)
    log_b = math.log1p(-nu) + p * math.log(nu)
    log_s = np.log(np.asarray(s, dtype=float))
    with np.errstate(over="ignore"):
        xb = np.exp(log_b - p * log_s)
    bound = math.log(p) + log_b - (1.0 + p) * log_s - xb
    return np.where(xb >= 1.0, bound, math.inf)


def stable_negligible(nu: float, s):
    """True where the bound of ``_stable_log_bound`` puts g_nu(s) below
    1e-300.  ``stable_density`` returns an exact 0 there (at nu = 1/2 the
    closed form is below 1e-300 there as well)."""
    return _stable_log_bound(nu, s) < _LOG_DENSITY_FLOOR


def stable_series_switch(nu: float) -> float:
    """Smallest s at which the alternating series is used.

    Below the switch the series still converges but its largest term
    grows like (nu/s)^{nu k/(1-nu)}-ish and cancellation starts eating
    digits; Kanter's integral takes over there.
    """
    return max(0.6, nu + 0.2)


def stable_series_sum(nu: float, log_factor, rtol: float):
    """pi^{-1} sum_{k >= 1} (-1)^{k+1} sin(pi nu k) Gamma(nu k + 1)/k! f_k,
    shaped as ``log_factor(k)`` = log f_k (a float gives a float).

    sin may vanish at single k, so each element stops on its envelopes
    Gamma(nu k + 1)/k! f_k, once one is at most ``rtol`` of its sum, and
    takes no term after that: its value does not depend on the other
    elements of the call.  Raises ``QuadratureError`` when an element
    takes more than 400 terms.
    """
    total, active = 0.0, True
    for k in range(1, 401):
        envelope = np.exp(math.lgamma(nu * k + 1.0) - math.lgamma(k + 1.0)
                          + log_factor(k))
        term = (-1.0) ** (k + 1) * math.sin(math.pi * nu * k) * envelope
        total = np.where(active, total + term, total)
        active = active & ~(envelope <= rtol * np.abs(total))
        if not np.any(active):
            total = total / math.pi
            return float(total) if np.ndim(total) == 0 else total
    raise QuadratureError("stable series did not converge in 400 terms",
                          estimate=float(np.max(envelope)), budget=rtol)


def _stable_series(nu: float, s: np.ndarray) -> np.ndarray:
    """g_nu(s) = pi^{-1} sum_k (-1)^{k+1} Gamma(nu k+1)/k! sin(pi nu k) s^{-nu k-1}.

    Standard large-argument expansion of the one-sided stable density;
    convergent for every s > 0, numerically usable for s >= switch.
    """
    log_s = np.log(np.asarray(s, dtype=float))
    # in the far tail g is far below 1e-14: the terms stop relative to it
    return stable_series_sum(nu, lambda k: -(nu * k + 1.0) * log_s, 1e-14)


def _stable_kanter(nu: float, s):
    """g_nu(s) from Kanter's integral (Kanter 1975; Chambers, Mallows and
    Stuck 1976), for every s of an array at once (a float gives a float):

        g_nu(s) = (p/pi) s^{-1/(1-nu)} int_0^pi A(phi) e^{-x A(phi)} dphi,

    x = s^{-p}, p = nu/(1-nu), A(phi) = [sin(nu phi)^nu
    sin((1-nu) phi)^{1-nu} / sin(phi)]^{1/(1-nu)}.  The integrand is
    positive and does not oscillate.  A increases from B = A(0+); the
    quadrature runs on A e^{-x(A-B)}, with log(A/B) written from sinc so
    that it stays exact near 0, and e^{-x B} is applied in log space.
    Near 0, log A ~ log B + nu phi^2/2, so the integrand has width
    w = sqrt(2/(x B nu)); each s's seed breakpoints are w, 2w, 4w, ...
    and every pi/8.  The integrals, one per s, are one keyed batch of
    ``quadrature.integrate_keyed`` at rtol 1e-12 and at most 2000 panels
    per s: each pass evaluates the pending K15/G7 panels of every s in one
    call.
    """
    p = nu / (1.0 - nu)
    log_b = math.log1p(-nu) + p * math.log(nu)   # B = A(0+) = (1-nu) nu^p
    xb = np.exp(log_b - p * np.log(np.atleast_1d(s)))

    def integrand(phi, xb):
        log_ratio = (nu * np.log(np.sinc(nu * phi / math.pi))
                     + (1.0 - nu) * np.log(np.sinc((1.0 - nu) * phi / math.pi))
                     - np.log(np.sinc(phi / math.pi))) / (1.0 - nu)
        with np.errstate(over="ignore"):
            return np.exp(log_b + log_ratio - xb * np.expm1(log_ratio))

    # one row of edges per s: every k pi/8 and the w 2^j, sorted.  The
    # doublings at or above pi are cut to pi and give empty panels, left
    # out; 64 of them reach pi from any w above 2^-64 pi, that is x B nu
    # below 7e37, far past the zero region of every nu
    w = np.sqrt(2.0 / (xb * nu))[:, None] * 2.0 ** np.arange(64)
    edges = np.sort(np.concatenate([
        np.broadcast_to(np.arange(9) * (math.pi / 8.0), (xb.size, 9)),
        np.minimum(w, math.pi)], axis=1), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    live = lo < hi
    total, _ = integrate_keyed(lambda phi, key: integrand(phi, xb[key]),
                               lo[live], hi[live], np.nonzero(live)[0],
                               rtol=1e-12, max_panels=2000)
    g = np.exp(np.log(p / math.pi * total) - (1.0 + p) * np.log(s) - xb)
    return g if np.ndim(s) else float(g[0])


def stable_density(params: StableDensityParams, s):
    """Density g_nu(s) of the one-sided nu-stable subordinator, s > 0
    (``DomainError`` names the first s that is not, NaN included).

    Dispatch: closed form at nu = 1/2, the alternating series for
    s >= stable_series_switch(nu), an exact 0 where the bound
    p B s^{-1/(1-nu)} e^{-B s^{-p}} is below 1e-300 (s < s*(nu): about
    3.5e-4 at nu = 1/2, about 2.5e-2 at nu = 0.7; see
    ``_stable_log_bound``), and Kanter's integral in between.
    """
    s_arr = np.asarray(s, dtype=float)
    bad = ~(s_arr > 0.0)            # NaN included
    if np.any(bad):
        raise DomainError("stable density requires s > 0, got s = "
                          f"{float(s_arr[bad][0])!r}")
    nu = params.nu
    if nu == 0.5:
        out = np.exp(-0.25 / s_arr) / (2.0 * math.sqrt(math.pi) * s_arr ** 1.5)
        return out if out.ndim else float(out)

    out = np.zeros_like(s_arr)
    big = s_arr >= stable_series_switch(nu)
    if np.any(big):
        out[big] = _stable_series(nu, s_arr[big])
    kanter = np.flatnonzero(~big & ~stable_negligible(nu, s_arr))
    # Kanter's integrals go in blocks of points, each integral about 16
    # panels of 15 nodes, so that a pass's temporaries stay near the
    # working-set budget; no value depends on its block
    for i in range(0, kanter.size, WORKING_SET // 256):
        block = kanter[i:i + WORKING_SET // 256]
        out.flat[block] = _stable_kanter(nu, s_arr.flat[block])
    return out if out.ndim else float(out)


def stable_laplace_check(params: StableDensityParams, x: float) -> float:
    """integral_0^inf exp(-x s) g_nu(s) ds as the weighted sum of the rule
    every subordinated kernel uses, ``kernels.subordination_rule(nu)``:
    sum_k w_k e^{-x s_k} over its nodes and K15 weights.

    The exact value is exp(-x^nu); the deviation measures that rule, and
    with it both g_nu branches.  The rule stops at s = e^60.  At x = 0
    the mass beyond is added as the series integrated term by term,
    f_k = e^{-60 nu k}/(nu k); for x > 0 it is left out, and what is left
    out is at most e^{-x e^60} times that x = 0 tail.  Valid for x >= 0;
    returns a float.
    """
    if x < 0.0:
        raise DomainError("stable_laplace_check requires x >= 0")
    # kernels imports this module at load time
    from . import kernels

    nu = params.nu
    rule = kernels.subordination_rule(nu)
    total = float(np.sum(rule.weights_k * np.exp(-x * rule.nodes)))
    if x == 0.0:
        total += stable_series_sum(
            nu, lambda k: -nu * k * kernels._LOG_S_MAX - math.log(nu * k),
            1e-16)
    return total
