"""Scalar special functions backing every kernel.

Two families live here:

* the modified Bessel function of the first kind ``I_tau`` for orders
  ``tau >= -1/2``, evaluated through an ascending power series for small
  arguments and the large-argument asymptotic expansion above a per-order
  switch point, at every order (tau = 1/2 included).  Kernels consume the
  log of the exponentially scaled form, ``log(e^{-z} I_tau(z))`` from
  ``log z``, so that the Gaussian factors of the kernels cancel the
  exponential growth without overflow.  The Bessel and Laguerre kernels
  of order 1/2 do not use it: ``kernels._log_space_kernel`` evaluates
  their closed form in linear space;

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
from .quadrature import gauss_kronrod_15 as _gk15
from .quadrature import integrate_adaptive


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

    sin may vanish at single k, so the sum stops on the envelopes
    Gamma(nu k + 1)/k! f_k, once each is at most ``rtol`` of the sum; it
    raises ``QuadratureError`` when that takes more than 400 terms.
    """
    from scipy.special import gammaln

    total = 0.0
    for k in range(1, 401):
        envelope = np.exp(gammaln(nu * k + 1.0) - gammaln(k + 1.0)
                          + log_factor(k))
        total = total + ((-1.0) ** (k + 1) * math.sin(math.pi * nu * k)
                         * envelope)
        if np.all(envelope <= rtol * np.abs(total)):
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


def _stable_kanter(nu: float, s: float) -> float:
    """g_nu(s) from Kanter's integral (Kanter 1975; Chambers, Mallows and
    Stuck 1976):

        g_nu(s) = (p/pi) s^{-1/(1-nu)} int_0^pi A(phi) e^{-x A(phi)} dphi,

    x = s^{-p}, p = nu/(1-nu), A(phi) = [sin(nu phi)^nu
    sin((1-nu) phi)^{1-nu} / sin(phi)]^{1/(1-nu)}.  The integrand is
    positive and does not oscillate.  A increases from B = A(0+); the
    quadrature runs on A e^{-x(A-B)}, with log(A/B) written from sinc so
    that it stays exact near 0, and e^{-x B} is applied in log space.
    Near 0, log A ~ log B + nu phi^2/2, so the integrand has width
    w = sqrt(2/(x B nu)); the seed breakpoints are w, 2w, 4w, ... and
    every pi/8.
    """
    p = nu / (1.0 - nu)
    log_b = math.log1p(-nu) + p * math.log(nu)   # B = A(0+) = (1-nu) nu^p
    xb = math.exp(log_b - p * math.log(s))

    def integrand(phi):
        log_ratio = (nu * np.log(np.sinc(nu * phi / math.pi))
                     + (1.0 - nu) * np.log(np.sinc((1.0 - nu) * phi / math.pi))
                     - np.log(np.sinc(phi / math.pi))) / (1.0 - nu)
        with np.errstate(over="ignore"):
            return np.exp(log_b + log_ratio - xb * np.expm1(log_ratio))

    edges = [k * math.pi / 8.0 for k in range(1, 8)]
    w = math.sqrt(2.0 / (xb * nu))
    while w < math.pi:
        edges.append(w)
        w *= 2.0
    total, _ = integrate_adaptive(integrand, 0.0, math.pi, rtol=1e-12,
                                  breakpoints=edges)
    return math.exp(math.log(p / math.pi * total)
                    - (1.0 + p) * math.log(s) - xb)


def stable_density(params: StableDensityParams, s):
    """Density g_nu(s) of the one-sided nu-stable subordinator, s > 0.

    Dispatch: closed form at nu = 1/2, the alternating series for
    s >= stable_series_switch(nu), an exact 0 where the bound
    p B s^{-1/(1-nu)} e^{-B s^{-p}} is below 1e-300 (s < s*(nu): about
    3.5e-4 at nu = 1/2, about 2.5e-2 at nu = 0.7; see
    ``_stable_log_bound``), and Kanter's integral in between.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise DomainError("stable density requires s > 0")
    nu = params.nu
    if nu == 0.5:
        out = np.exp(-0.25 / s_arr) / (2.0 * math.sqrt(math.pi) * s_arr ** 1.5)
        return out if out.ndim else float(out)

    out = np.zeros_like(s_arr)
    big = s_arr >= stable_series_switch(nu)
    if np.any(big):
        out[big] = _stable_series(nu, s_arr[big])
    kanter = ~big & ~stable_negligible(nu, s_arr)
    if np.any(kanter):
        out[kanter] = [_stable_kanter(nu, float(si)) for si in s_arr[kanter]]
    return out if out.ndim else float(out)


def stable_laplace_check(params: StableDensityParams, x: float) -> float:
    """Quadrature value of integral_0^inf exp(-x s) g_nu(s) ds.

    The exact value is exp(-x^nu); the deviation measures the joint
    accuracy of both g_nu branches.  Valid for x >= 0; returns a float.
    """
    if x < 0.0:
        raise DomainError("stable_laplace_check requires x >= 0")
    nu = params.nu
    s1 = stable_series_switch(nu)

    def integrand(s):
        return np.exp(-x * s) * stable_density(params, s)

    # (0, s1]: the density vanishes superexponentially at 0
    edges = list(np.geomspace(1e-8 * s1, s1, 40))
    edges[0] = 0.0
    lower = math.fsum(_gk15(integrand, a, b)[0]
                      for a, b in zip(edges[:-1], edges[1:]))

    # [s1, S]: series branch, log panels; S set so the remainder is tiny
    if x > 0.0:
        s_cut = min(max(46.0 / x, 10.0 * s1), 1e15)
    else:
        s_cut = 1e4
    edges = np.geomspace(s1, s_cut, max(8, int(3.5 * math.log10(s_cut / s1)) + 1))
    upper = math.fsum(_gk15(integrand, a, b)[0]
                      for a, b in zip(edges[:-1], edges[1:]))

    # remainder beyond S: at x = 0 the series integrated term by term,
    # f_k = S^{-nu k}/(nu k); exponentially damped else
    if x == 0.0:
        tail = stable_series_sum(
            nu, lambda k: -nu * k * math.log(s_cut) - math.log(nu * k), 1e-16)
    else:
        tail = 0.0  # bounded by e^{-x s_cut} <= e^{-46}
    return lower + upper + tail
