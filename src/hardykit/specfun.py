"""Scalar special functions backing every kernel.

Two families live here:

* the modified Bessel function of the first kind ``I_tau`` for orders
  ``tau >= -1/2``, evaluated through an ascending power series for small
  arguments and the large-argument asymptotic expansion above a per-order
  switch point.  At tau = 1/2 the closed form
  ``I_{1/2}(z) = sqrt(2/(pi z)) sinh z`` (DLMF 10.49) replaces both.
  Kernels consume the log of the exponentially scaled form,
  ``log(e^{-z} I_tau(z))`` from ``log z``, so that the Gaussian factors of
  the kernels cancel the exponential growth without overflow;

* the density ``g_nu`` of the one-sided nu-stable subordinator, i.e. the
  probability density on (0, inf) whose Laplace transform is
  ``exp(-x^nu)``.  It is evaluated through a convergent large-argument
  series and, below a per-nu switch point, through an oscillatory contour
  integral along the rays ``arg w = +/- theta_nu`` with
  ``theta_nu = pi / (1 + nu)``.  In the far left tail neither runs: the
  Chernoff bound P(S <= x) <= exp(-B x^{-nu/(1-nu)}),
  B = (1-nu) nu^{nu/(1-nu)}, and the unimodality of positive stable laws
  (Yamazato 1978) give g_nu(s) <= P(S <= 2s)/s below the mode, and where
  that bound is under 1e-300 the density is returned as an exact 0.  The
  zero region is s < s*(nu), with s* about 1.8e-4 at nu = 1/2 and about
  1.26e-2 at nu = 0.7.

Everything is pure and accepts numpy arrays where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, QuadratureError
from .quadrature import gauss_kronrod_15 as _gk15
from .quadrature import integrate_adaptive

# The contour representation of g_nu is normalized so that g_nu is a
# probability density; the 1/pi factor was fixed by enforcing
# integral(g_nu) = 1 and is echoed into verification report metadata.
STABLE_DENSITY_NORMALIZATION = 1.0 / math.pi


# ---------------------------------------------------------------------------
# Modified Bessel function I_tau
# ---------------------------------------------------------------------------

def _bessel_switch_point(tau: float) -> float:
    # Both branches reach ~1e-13 relative accuracy at the switch: the
    # asymptotic series needs z well past tau^2, the power series is
    # cancellation-free (all terms positive) at any z.
    return max(30.0, 1.5 * tau * tau)


# below this z the half-order form is written from log z (its next term,
# z^2/6, is under 2e-17); above 40 in log z, -expm1(-2z) is exactly 1 and
# the cap only keeps exp finite
_HALF_ORDER_TINY_Z = 1e-8
_HALF_ORDER_LOG_Z_CAP = 40.0


def _log_bessel_half_scaled(log_z: np.ndarray) -> np.ndarray:
    """log(e^{-z} I_{1/2}(z)) = log(-expm1(-2z)) - log(2 pi z)/2.

    I_{1/2}(z) = sqrt(2/(pi z)) sinh z (DLMF 10.49).  Below
    ``_HALF_ORDER_TINY_Z`` the value is (log z - log(pi/2))/2 - z, so an
    underflowing z keeps the tau*log(z/2) lead and log z = -inf gives
    -inf without a warning.
    """
    z = np.exp(np.minimum(log_z, _HALF_ORDER_LOG_Z_CAP))
    general = (np.log(-np.expm1(-2.0 * np.maximum(z, _HALF_ORDER_TINY_Z)))
               - 0.5 * (math.log(2.0 * math.pi) + log_z))
    tiny = 0.5 * (log_z - math.log(0.5 * math.pi)) - z
    return np.where(z < _HALF_ORDER_TINY_Z, tiny, general)


def log_bessel_i_scaled(tau: float, log_z):
    """log(e^{-z} I_tau(z)) from log(z), stable for z under/overflowing.

    Used by kernels evaluated in log space: for tau > -1/2 the small-z
    behaviour is tau*log(z/2) - lgamma(tau+1) - z, which stays
    representable even when z itself underflows.  Order 1/2 (Bessel
    beta = 1, Laguerre alpha = 1/2) uses the closed form
    log(-expm1(-2z)) - log(2 pi z)/2 in a few vector operations; every
    other order runs the power series below the switch point and the
    asymptotic expansion above it.
    """
    if tau < -0.5:
        raise DomainError(f"order tau={tau} below -1/2")
    log_z = np.asarray(log_z, dtype=float)
    if tau == 0.5:
        out = _log_bessel_half_scaled(log_z)
        return out if out.ndim else float(out)
    z0 = _bessel_switch_point(tau)
    log_z0 = math.log(z0)
    out = np.empty_like(log_z)

    small = log_z <= log_z0
    if np.any(small):
        lz = log_z[small]
        z = np.exp(lz)
        # correction series sum_k (z^2/4)^k / (k! (tau+1)_k), all positive
        corr = np.ones_like(z)
        term = np.ones_like(z)
        q = z * z / 4.0
        for k in range(500):
            term = term * q / ((k + 1.0) * (tau + k + 1.0))
            corr += term
            if np.all(term <= 1e-18 * corr):
                break
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
        active = np.ones_like(lz, dtype=bool)
        for k in range(40):
            factor = -(mu - (2 * k + 1.0) ** 2) * inv_z / (8.0 * (k + 1.0))
            new_term = term * factor
            grow = np.abs(new_term) >= np.abs(term)
            active = active & ~grow
            term = np.where(active, new_term, 0.0)
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
    """Index nu in (0,1) plus the contour angle theta_nu = pi/(1+nu).

    theta_nu lies in (pi/2, pi), so cos(theta_nu) < 0 and the contour
    integrand is damped in both w and w^nu.
    """

    nu: float
    theta_nu: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise DomainError(f"nu={self.nu} outside (0, 1)")
        object.__setattr__(self, "theta_nu", math.pi / (1.0 + self.nu))


# log(1e-300): the density is returned as 0 where its bound lies below this
_LOG_DENSITY_FLOOR = math.log(1e-300)


def _stable_left_tail_log_bound(nu: float, s):
    """log(P(S <= 2s) / s) from the Chernoff bound, an upper bound for
    log g_nu(s) wherever 2s lies below the mode of g_nu.

    E e^{-lambda S} = e^{-lambda^nu} gives, at the optimal lambda,
    P(S <= x) <= exp(-B x^{-p}) with p = nu/(1-nu) and
    B = (1-nu) nu^p.  The bound is computed in log form, so that for nu
    near 1 the term B x^{-p} overflows to inf and the log bound to -inf.
    Where it is below log(1e-300), 2s is far below the mode (2 s*(nu) is
    under 0.93 times the mode at every nu from 0.05 to 0.99 probed, and
    the tests check it at nu = 0.2, 0.3, 0.5, 0.7, 0.9).
    """
    p = nu / (1.0 - nu)
    log_b = math.log1p(-nu) + p * math.log(nu)
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        return -np.exp(log_b - p * np.log(2.0 * s)) - np.log(s)


def stable_series_switch(nu: float) -> float:
    """Smallest s at which the alternating series is used.

    Below the switch the series still converges but its largest term
    grows like (nu/s)^{nu k/(1-nu)}-ish and cancellation starts eating
    digits; the contour integral takes over there.
    """
    return max(0.6, nu + 0.2)


def _stable_series(nu: float, s: np.ndarray) -> np.ndarray:
    """g_nu(s) = pi^{-1} sum_k (-1)^{k+1} Gamma(nu k+1)/k! sin(pi nu k) s^{-nu k-1}.

    Standard large-argument expansion of the one-sided stable density;
    convergent for every s > 0, numerically usable for s >= switch.
    """
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    log_s = np.log(s)
    for k in range(1, 400):
        log_mag = gammaln(nu * k + 1.0) - gammaln(k + 1.0) - (nu * k + 1.0) * log_s
        envelope = np.exp(log_mag)
        total += ((-1.0) ** (k + 1)) * math.sin(math.pi * nu * k) * envelope
        # the sin factor may vanish at individual k; truncate on the envelope
        if np.all(envelope < 1e-14 * np.maximum(1.0, np.abs(total))):
            break
    return total / math.pi


def _stable_contour_w_max(nu: float, s: float, theta: float) -> float:
    """w beyond which the damping exp((ws + w^nu) cos(theta)) is < 1e-16."""
    target = 40.0 / abs(math.cos(theta))
    lo, hi = 1.0, 2.0
    while lo * s + lo ** nu > target:
        lo /= 2.0
        if lo < 1e-300:
            return lo
    while hi * s + hi ** nu < target:
        hi *= 2.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid * s + mid ** nu < target:
            lo = mid
        else:
            hi = mid
    return hi


def _stable_contour(nu: float, s: float, theta: float,
                    rtol: float = 1e-9, max_panels: int = 20000) -> float:
    """g_nu(s) by quadrature of the contour integral along arg w = theta.

    The seed panels follow the local oscillation of the phase
    (s w - w^nu) sin(theta), and ``integrate_adaptive`` bisects them until
    the error budget holds; the tail is truncated where the joint damping
    factor drops below 1e-16.
    """
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)

    def integrand(w):
        w = np.maximum(w, 0.0)
        damp = np.exp((w * s + np.power(w, nu)) * cos_t)
        phase = (s * w - np.power(w, nu)) * sin_t + theta
        return damp * np.sin(phase)

    w_max = _stable_contour_w_max(nu, s, theta)
    # initial edge where the w^nu phase alone has advanced by ~pi
    w_lo = min((math.pi / sin_t) ** (1.0 / nu), w_max)
    edges = [0.0]
    w = w_lo / 64.0
    while w < w_lo:
        edges.append(w)
        w *= 4.0
    w = w_lo
    while w < w_max:
        edges.append(w)
        speed = sin_t * (s + nu * w ** (nu - 1.0))
        step = min(math.pi / speed, w)
        w += step
        if len(edges) > max_panels:
            raise QuadratureError(
                "stable density contour produced too many oscillation panels",
                budget=max_panels)
    total, _ = integrate_adaptive(integrand, 0.0, w_max, rtol=rtol,
                                  atol=rtol * 1e-3, breakpoints=edges[1:],
                                  max_panels=max_panels)
    return total * STABLE_DENSITY_NORMALIZATION


def stable_density(params: StableDensityParams, s):
    """Density g_nu(s) of the one-sided nu-stable subordinator, s > 0.

    Dispatch: closed form at nu = 1/2, the alternating series for
    s >= stable_series_switch(nu), an exact 0 where the left-tail bound
    P(S <= 2s)/s is below 1e-300 (s < s*(nu): about 1.8e-4 at nu = 1/2,
    about 1.26e-2 at nu = 0.7; see ``_stable_left_tail_log_bound``), and
    the contour quadrature in between.  Values within quadrature noise of
    zero are clamped to 0.
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
    contour = ~big & (_stable_left_tail_log_bound(nu, s_arr)
                      >= _LOG_DENSITY_FLOOR)
    if np.any(contour):
        out[contour] = [_stable_contour(nu, float(si), params.theta_nu)
                        for si in s_arr[contour]]
    if np.any(out < -1e-9):
        raise QuadratureError(
            "stable density quadrature returned a significantly negative value",
            estimate=float(out.min()))
    out = np.maximum(out, 0.0)
    return out if out.ndim else float(out)


def _stable_series_tail_integral(nu: float, s_cut: float) -> float:
    """Exact integral of the series representation over [s_cut, inf)."""
    total = 0.0
    for k in range(1, 400):
        log_mag = gammaln(nu * k + 1.0) - gammaln(k + 1.0) - nu * k * math.log(s_cut)
        envelope = math.exp(log_mag) / (nu * k)
        total += ((-1.0) ** (k + 1)) * math.sin(math.pi * nu * k) * envelope
        if envelope < 1e-16 * max(1.0, abs(total)):
            break
    return total / math.pi


def stable_laplace_check(params: StableDensityParams, x: float) -> float:
    """Quadrature value of integral_0^inf exp(-x s) g_nu(s) ds.

    The exact value is exp(-x^nu); the deviation measures the joint
    accuracy of both g_nu branches.  Valid for x >= 0.
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

    # remainder beyond S: exact series tail at x=0, exponentially damped else
    if x == 0.0:
        tail = _stable_series_tail_integral(nu, s_cut)
    else:
        tail = 0.0  # bounded by e^{-x s_cut} <= e^{-46}
    return lower + upper + tail


def stable_total_mass(params: StableDensityParams) -> float:
    """integral_0^inf g_nu(s) ds; equals 1 for a correctly normalized density."""
    return stable_laplace_check(params, 0.0)
