"""Semigroup kernels T_t(x, y) with pointwise evaluation, comparison
kernels, and mass integrals of 1-D kernels.

Implemented families:

* ``EuclideanHeat(d)``: (4 pi t)^{-d/2} exp(-|x-y|^2 / 4t) on R^d;

* ``BesselKernel(beta)`` on (0, inf):
  sqrt(xy)/(2t) I_{beta-1/2}(xy/2t) exp(-(x^2+y^2)/4t),
  evaluated in log space through the scaled Bessel function so the
  exponential growth of I and the Gaussian factor cancel exactly;

* ``LaguerreKernel(alpha)`` on (0, inf):
  sqrt(xy)/sinh(2t) I_alpha(xy/sinh 2t) exp(-coth(2t)(x^2+y^2)/2),
  the Bessel form at time sinh(2t)/2 times exp(-tanh(t)(x^2+y^2)/2);
  both run one body (``_log_space_kernel``): at order 1/2 (beta = 1,
  alpha = 1/2) its closed form in linear space, at every other order in
  log space through ``specfun.log_bessel_i_scaled``; stable down to
  t ~ 1e-12 and up to overflow times;

* ``SchrodingerKernel``: eigen-expansion of the second-order finite
  difference discretization of -Delta + V on a truncation box with zero
  boundary values (``schrodinger_build``), one broadcast eigen sum;

* ``SubordinateKernel(base, nu)``: the subordinated semigroup evaluated
  at the substituted time, eval(t) = integral_0^inf base(t s) g_nu(s) ds,
  by a fixed Gauss-Kronrod rule in s (``SubordinationRule``; the Laplace
  oracle ``specfun.stable_laplace_check`` sums the same rule).  With
  base = EuclideanHeat this is the 2nu-stable kernel P_{t^nu, nu}, read
  from a cached radial profile (``RadialProfile``):
  t^{-d/2} P(|x - y|/sqrt t), a table up to |x - y|/sqrt t = rho_max and
  a tail series above it;

* ``ProductKernel(factors)``: coordinate-wise product at a shared t.

All evaluators broadcast over numpy arrays in t, x, y, and give the same
bits for a single time, a column of times (rows, 1) and one time per
point.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import specfun
from .domain import DomainSpec, half_line, product_domain, real_line
from .errors import DomainError, QuadratureError
from .quadrature import (GK15_WG, GK15_WK, GK15_X, WORKING_SET,
                         bisect_panels, integrate_adaptive)


def _log_sinh(u):
    """log(sinh u) without overflow for large u, and to full relative
    precision for small u, where 1 - e^{-2u} would cancel."""
    u = np.asarray(u, dtype=float)
    return u + np.log(-np.expm1(-2.0 * u)) - math.log(2.0)


def _dist2(x, y, d: int):
    """|x - y|^2, with the coordinates on the last axis when d > 1."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return diff ** 2 if d == 1 else np.sum(diff ** 2, axis=-1)


def _log_space_kernel(tau: float, x, y, log_s, gauss):
    """sqrt(xy)/S I_tau(z) e^{G-z}, z = xy/S with S = e^{log_s}, the
    Bessel and Laguerre form.

    At tau = 1/2, sqrt(z) e^{-z} I_{1/2}(z) = (1 - e^{-2z})/sqrt(2 pi)
    (DLMF 10.49), so the kernel is e^{G - log(2 pi S)/2} (1 - e^{-2z}) in
    linear space: two exponentials per point, and an exact 0 at x = 0 or
    y = 0.  2z is 2xy e^{-log_s}, which is 0 where S itself would overflow
    (Laguerre t above about 355); e^{-log_s} is finite for S above 1e-308,
    so for every Bessel time above 6e-309.
    Every other order is exp(log(xy)/2 - log S + log(e^{-z} I_tau(z)) + G)
    with ``specfun.log_bessel_i_scaled``.  For tau < 0 it is
    (xy)^{tau+1/2} times a bounded factor: an exact 0 at x = 0 or y = 0,
    where the log form meets inf - inf."""
    if tau == 0.5:
        neg_two_z = (-2.0 * x) * y * np.exp(-log_s)
        return (np.exp(gauss - 0.5 * (math.log(2.0 * math.pi) + log_s))
                * -np.expm1(neg_two_z))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_xy = np.log(x) + np.log(y)
        log_k = (0.5 * log_xy - log_s
                 + specfun.log_bessel_i_scaled(tau, log_xy - log_s)
                 + gauss)
    if tau < 0.0:
        log_k = np.where(log_xy == -math.inf, -math.inf, log_k)
    return np.exp(log_k)


def _gaussian_step_apply(g, x, sigma, shift=None, odd=None):
    """integral g(y) phi(y - m) dy for a 1-D grid function g, with
    phi(u) = e^{-u^2/sigma^2}/(sigma sqrt(pi)) and the means m = x - shift
    (m = x without a shift).  For an odd kernel, phi(y - m) - phi(y + m),
    ``odd`` is m >= 0 itself.

    With the boundaries b_j and jumps c_j of g's runs, the integral is
    g(m) + 1/2 sum_j c_j sgn(b_j - m) erfc(|b_j - m|/sigma):
    * each erfc is taken on the far side of its boundary, so the tails
      keep relative accuracy;
    * b_j - m is formed as (b_j - x) + shift, so a mean that moves away
      from x keeps the digits of b_j - x;
    * the odd kernel subtracts 1/2 sum_j c_j erfc((b_j + m)/sigma), the
      boundaries -b_j of g's odd extension (b_j >= 0), all behind m;
    * where m/sigma is small (x -> 0, or large Laguerre times, where
      sech 2t is small) the two terms of each b_j cancel.  Where m max(b_R, sigma) <=
      sigma^2 ``specfun.ERF_WINDOW_MAX`` (b_R/sigma capped at 28, above
      which erfc vanishes) the odd integral is sum_j c_j
      ``specfun.erf_window``(b_j/sigma, m/sigma) instead.
    x has shape (N,); sigma, shift and odd broadcast against (rows, N),
    and the result is (rows, N).  The rows go through in blocks of
    max(1, ``WORKING_SET`` // (2 N boundaries)), so that the (rows, N,
    boundaries) temporaries stay under the budget whatever the caller's
    batch; every sum over boundaries is an ``np.sum`` along one point's
    terms, whose order depends neither on the block nor on the BLAS thread
    count.
    """
    runs = g.runs
    args = [None if a is None else np.asarray(a, dtype=float)
            for a in (sigma, shift, odd)]
    shape = np.broadcast_shapes(x.shape,
                                *(a.shape for a in args if a is not None))
    step = max(1, WORKING_SET // (2 * len(runs.boundaries) * max(len(x), 1)))
    if len(shape) < 2 or shape[0] <= step:
        return _gaussian_step_rows(runs, x, *args)
    out = np.empty(shape)
    for i in range(0, shape[0], step):
        out[i:i + step] = _gaussian_step_rows(runs, x, *(
            a[i:i + step] if a is not None and a.ndim == 2 and len(a) > 1
            else a for a in args))
    return out


def _gaussian_step_rows(runs, x, sigma, shift, odd):
    """``_gaussian_step_apply`` on one block of rows, with g's runs."""
    b, half_c = runs.boundaries, 0.5 * runs.jumps
    sig = sigma[..., None]
    d = b - x[:, None]
    if shift is not None:
        d = d + shift[..., None]
    behind = d <= 0.0
    # g at the mean, on runs [b_j, b_{j+1}); at m = b_j the jump's erfc(0)
    # term then gives the mean of the two sides
    level = np.concatenate(([0.0], runs.values, [0.0]))[
        np.count_nonzero(behind, axis=-1)]
    coef = np.where(behind, -half_c, half_c)
    np.abs(d, out=d)
    if odd is None:
        terms = specfun.erfc(d / sig)
        terms *= coef
        return level + np.sum(terms, axis=-1)
    nb = len(b)
    u = np.empty(np.broadcast_shapes(d.shape, sig.shape)[:-1] + (2 * nb,))
    np.divide(d, sig, out=u[..., :nb])
    np.divide(b + odd[..., None], sig, out=u[..., nb:])
    coef = np.concatenate((coef, np.broadcast_to(-half_c, coef.shape)), axis=-1)
    sig = np.broadcast_to(sig[..., 0], u.shape[:-1])     # now (rows, N)
    delta = np.broadcast_to(odd, sig.shape) / sig
    near = delta * np.clip(b[-1] / sig, 1.0, 28.0) <= specfun.ERF_WINDOW_MAX
    u[near] = np.inf        # erfc's cheapest branch; replaced below
    terms = specfun.erfc(u)
    terms *= coef
    total = level + np.sum(terms, axis=-1)
    if near.any():
        total[near] = np.sum(runs.jumps * specfun.erf_window(
            b / sig[near][:, None], delta[near][:, None]), axis=-1)
    return total


class KernelFamily:
    """Base class: an evaluatable semigroup kernel plus its comparison.

    ``step_apply`` propagates a 1-D grid function (an atom): by default a
    midpoint sum over its cells, one kernel evaluation per time; heat
    (d = 1), Bessel(beta = 1) and Laguerre(alpha = 1/2) are Gaussian in y
    and override it with the exact integral over its runs.
    """

    domain: DomainSpec
    kind: str

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def eval(self, t, x, y):
        raise NotImplementedError

    def step_apply(self, t, x, g):
        """T_t g(x) = integral T_t(x, y) g(y) dy for a 1-D grid function g
        at the N points x, one row per row of the 2-D t ((rows, 1), or one
        time per point, (rows, N)).

        The midpoint sum over g's cells: one (points x cells) evaluation
        and matvec per row of t.  Its cell sum aliases where the kernel is
        as narrow as a cell, by about 2 e^{-4 pi^2 t/h^2} relative for the
        heat kernel, so it is an estimate, not the integral.  A subordinated
        heat kernel mixes in narrower heat kernels and aliases more: at
        nu = 0.3 the maximal norm of the local atom of [-1, 0] moves from
        2.0537 (error 0.0115) at 64 cells to 2.0703 (0.0044) at 256.
        """
        x = np.asarray(x, dtype=float)
        centers = g.centers
        weights = np.full(g.cells, g.cell_width) * g.values
        return np.stack([
            self.eval(row[:, None], x[:, None], centers[None, :]) @ weights
            for row in t])

    def comparison(self) -> "KernelFamily":
        """The designated tilde-kernel for the (A2)-type conditions."""
        raise NotImplementedError

    def max_valid_time(self) -> float:
        """Largest time the evaluation is validated for (inf if unlimited)."""
        return math.inf

    def _check_points(self, *points):
        """DomainError unless every point lies in the closed domain, each
        axis's interval with its ends: one min and one max reduction per
        axis, which a NaN fails."""
        d = self.dimension
        for p in points:
            arr = np.asarray(p, dtype=float)
            if arr.size == 0:
                continue
            arr = arr.reshape(-1, d if d == 1 else arr.shape[-1])
            lo, hi = arr.min(axis=0).tolist(), arr.max(axis=0).tolist()
            for (a, b), lo_j, hi_j in zip(self.domain.intervals, lo, hi):
                if not (a <= lo_j and hi_j <= b):
                    raise DomainError(f"point outside domain for {self.kind}")

    def _check_time(self, t):
        """DomainError if some t <= 0; a NaN time is let through, so the
        minimum skips NaNs."""
        t = np.asarray(t, dtype=float).reshape(-1)
        if t.size and np.fmin.reduce(t) <= 0.0:
            raise DomainError("kernel time t must be positive")


class EuclideanHeat(KernelFamily):
    def __init__(self, d: int = 1):
        if not d >= 1:
            raise DomainError(f"heat kernel dimension d = {d} is below 1")
        self.domain = real_line(d)
        self.kind = f"euclidean_heat(d={d})"

    def eval(self, t, x, y):
        self._check_time(t)
        t = np.asarray(t, dtype=float)
        d = self.dimension
        # a t so small that |x - y|^2/(4t) overflows gives exp(-inf) = 0,
        # the kernel's limit there
        with np.errstate(over="ignore"):
            arg = _dist2(x, y, d) / (4.0 * t)
        # np.power, a ufunc, gives the same bits for every shape of t
        return np.power(4.0 * math.pi * t, -d / 2.0) * np.exp(-arg)

    def step_apply(self, t, x, g):
        """Exact: T_t g(x) = g(x) + 1/2 sum_j c_j sgn(b_j - x)
        erfc(|b_j - x|/sqrt(4t)) over g's run boundaries b_j and jumps c_j.
        Grid functions are 1-D: another dimension raises DomainError."""
        if self.dimension != 1:
            raise DomainError(f"step_apply propagates 1-D grid functions, "
                              f"the kernel has dimension {self.dimension}")
        self._check_time(t)
        return _gaussian_step_apply(g, np.asarray(x, dtype=float),
                                    2.0 * np.sqrt(t))

    def comparison(self) -> "KernelFamily":
        return self


class BesselKernel(KernelFamily):
    def __init__(self, beta: float):
        if not 0.0 < beta < math.inf:
            raise DomainError(f"bessel beta = {beta} is not in (0, inf)")
        self.beta = beta
        self.tau = beta - 0.5
        self.domain = half_line()
        self.kind = f"bessel(beta={beta:g})"

    def eval(self, t, x, y):
        self._check_time(t)
        self._check_points(x, y)
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _log_space_kernel(self.tau, x, y, np.log(2.0 * t),
                                 (x - y) ** 2 / (-4.0 * t))

    def step_apply(self, t, x, g):
        """Exact at beta = 1, where the kernel is the reflected heat kernel
        H_t(x - y) - H_t(x + y): the heat integral minus 1/2 sum_j c_j
        erfc((b_j + x)/sqrt(4t)).  Other orders take the midpoint sum."""
        if self.tau != 0.5:
            return super().step_apply(t, x, g)
        self._check_time(t)
        x = np.asarray(x, dtype=float)
        self._check_points(x, g.lo)
        return _gaussian_step_apply(g, x, 2.0 * np.sqrt(t), odd=x)

    def comparison(self) -> "KernelFamily":
        return EuclideanHeat(1)


class LaguerreKernel(KernelFamily):
    def __init__(self, alpha: float):
        if not -0.5 < alpha < math.inf:
            raise DomainError(f"laguerre alpha = {alpha} is not in (-1/2, inf)")
        self.alpha = alpha
        self.domain = half_line()
        self.kind = f"laguerre(alpha={alpha:g})"

    def eval(self, t, x, y):
        self._check_time(t)
        self._check_points(x, y)
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ls = _log_sinh(2.0 * t)
        # z - coth(2t)(x^2+y^2)/2 rewritten to stay finite for all t.  The
        # factors in t multiply the (x, y) arrays, in place where those have
        # the full shape; halving is exact, so these are the bits of
        # -(x-y)^2 e^{-ls}/2 - tanh(t)(x^2+y^2)/2
        shape = np.broadcast_shapes(x.shape, y.shape)
        exponent = np.subtract(x, y, out=np.empty(shape))
        np.square(exponent, out=exponent)
        r2 = np.multiply(x, x, out=np.empty(shape))
        r2 += y * y
        full = np.broadcast_shapes(t.shape, shape) == shape
        exponent = np.multiply(exponent, -0.5 * np.exp(-ls),
                               out=exponent if full else None)
        exponent -= np.multiply(r2, 0.5 * np.tanh(t), out=r2 if full else None)
        return _log_space_kernel(self.alpha, x, y, ls, exponent)

    def step_apply(self, t, x, g):
        """Exact at alpha = 1/2, the odd Mehler kernel: in y a Gaussian of
        mean +-x sech 2t and variance tanh 2t, times the amplitude
        (cosh 2t)^{-1/2} e^{-x^2 tanh(2t)/2}.  sech 2t and
        1 - sech 2t = (1 - e^{-2t})^2/(1 + e^{-4t}) are written from
        e^{-2t}, so they stay finite where cosh 2t overflows (t > 355).
        Other orders take the midpoint sum."""
        if self.alpha != 0.5:
            return super().step_apply(t, x, g)
        self._check_time(t)
        x = np.asarray(x, dtype=float)
        self._check_points(x, g.lo)
        t = np.asarray(t, dtype=float)
        e2 = np.exp(-2.0 * t)
        denom = 1.0 + e2 * e2
        sech = 2.0 * e2 / denom
        tanh = np.tanh(2.0 * t)
        shift = x * (np.expm1(-2.0 * t) ** 2 / denom)
        amplitude = np.sqrt(sech) * np.exp(-0.5 * tanh * (x * x))
        return amplitude * _gaussian_step_apply(
            g, x, np.sqrt(2.0 * tanh), shift=shift, odd=x * sech)

    def comparison(self) -> "KernelFamily":
        return EuclideanHeat(1)


# ---------------------------------------------------------------------------
# Subordination
# ---------------------------------------------------------------------------

# The subordination rule's right end: log of the largest s it integrates to
_LOG_S_MAX = 60

# The relative error budget of ``SubordinationRule.apply``
_APPLY_RTOL = 1e-6

# The largest nu the subordination rule is built for: in a sweep in steps of
# 1e-6, Kanter's integrals (``specfun._stable_kanter``) missed their tolerance
# at every nu from 0.999743 up, and at 34 of 701 in [0.999, 0.9997].
_NU_MAX = 0.9997


class SubordinationRule:
    """Fixed Gauss-Kronrod rule in s for integral T(t s) g_nu(s) ds.

    The seed panels are dyadic below s = 1 and e-fold above, with the
    density evaluated once per node at construction.  The dyadic panels
    reach down to the first one inside the region s < s*(nu) where
    ``specfun.stable_negligible`` bounds g_nu below 1e-300 (s* is about
    2.5e-2 at nu = 0.7, 3.5e-4 at nu = 1/2, 1e-56 at nu = 0.05), so no
    mass is cut at the left end.  Panels whose density values are all
    below 1e-300 are dropped and cost no kernel evaluation in ``apply``
    (66 panels are kept at nu = 0.7, 72 at nu = 1/2).
    A kept panel is halved while the K15/G7 difference of its own integral
    of g_nu is above 1e-7 (a tenth of the 1e-6 budget of ``apply`` against
    a total mass of 1), or that of g_nu(s)/s is above
    1e-8 E S^{-1} = 1e-8 Gamma(1 + 1/nu), or either is NaN.  The second
    test weighs s as the 2-D heat kernel does at x = y.  Without it the
    check of ``apply`` fails there at nu = 0.804 and 0.844, and the rule
    misses the exact value at x = y by up to 3.6e-10 (nu = 0.9925); with
    it, by at most 4.9e-13 for nu from 0.05 to 0.995 in steps of 0.0025.
    Up to nu = 0.7 no panel is split (probed from nu = 0.05), and above
    it a few panels are (68 panels at nu = 0.9, 66 at nu = 0.7).
    The halving goes pass by pass (``quadrature.bisect_panels``): each
    pass evaluates the density on the nodes of every pending panel in one
    ``specfun.stable_density`` call.  The halves keep their seed panel's
    key, so the nodes run in seed order and, inside a seed panel, from
    left to right.  A build that would hold more than 64 panels in one
    seed panel raises ``QuadratureError`` (at most 13 are held for nu
    from 0.999 to 0.9997).  A nu above ``_NU_MAX`` = 0.9997 raises
    ``DomainError`` before any density is evaluated.
    The polynomial right tail is cut at s = e^60 and not counted.  For a
    heat base the cut is below 1e-8 relative as long as |x - y|/sqrt(t)
    stays below ``RadialProfile.rho_max``, and above it the profile does
    not use the rule.
    """

    def __init__(self, nu: float):
        params = specfun.StableDensityParams(nu)
        if nu > _NU_MAX:
            raise DomainError(f"nu = {nu} is above {_NU_MAX}, the largest "
                              "index the subordination rule is built for")
        # 2^-k down to 2^-1073, above the smallest double 2^-1074
        negligible = specfun.stable_negligible(nu, 2.0 ** -np.arange(1074.0))
        if not negligible.any():
            raise DomainError(f"nu = {nu:g}: the stable density does not "
                              "vanish above the smallest double")
        k = int(np.argmax(negligible))
        efold = [math.exp(u) for u in range(_LOG_S_MAX + 1)]
        lo = np.concatenate([2.0 ** -np.arange(1.0, k + 1.0), efold[:-1]])
        hi = np.concatenate([2.0 ** -np.arange(float(k)), efold[1:]])
        inv_mean = math.exp(math.lgamma(1.0 + 1.0 / nu))    # E S^{-1}

        def check(a, b, _):
            h = 0.5 * (b - a)[:, None]
            s = 0.5 * (a + b)[:, None] + h * GK15_X
            g = specfun.stable_density(params, s)
            panel_k, panel_g = h * GK15_WK * g, h * GK15_WG * g
            err = np.abs(panel_k.sum(axis=1) - panel_g.sum(axis=1))
            live = ~np.all(g < 1e-300, axis=1)
            # written so that a NaN density fails its panel
            ok = ~live | ((err <= 1e-7) & (np.abs(
                ((panel_k - panel_g) / s).sum(axis=1)) <= 1e-8 * inv_mean))
            return ok, err, s, panel_k, panel_g, live

        # one key per seed panel: the kept halves stay in the seed order
        *_, s, panel_k, panel_g, live = bisect_panels(
            lo, hi, check, np.arange(lo.size), 64, "subordination rule")
        self.nodes = s[live].reshape(-1)
        self.weights_k = panel_k[live].reshape(-1)
        self.weights_g = panel_g[live].reshape(-1)
        self.panel_count = int(np.count_nonzero(live))

    def apply(self, base_eval, t, x, y, d: int = 1):
        """integral base(t s, x, y) g_nu(s) ds with a K15/G7 error check."""
        t = np.asarray(t, dtype=float)
        # in a base of dimension d > 1 the points' last axis is coordinates
        shape = np.broadcast_shapes(t.shape, *(
            np.shape(p) if d == 1 else np.shape(p)[:-1] for p in (x, y)))
        s = self.nodes.reshape((-1,) + (1,) * len(shape))
        vals = base_eval(t * s, x, y)
        k15 = np.tensordot(self.weights_k, vals, axes=(0, 0))
        g7 = np.tensordot(self.weights_g, vals, axes=(0, 0))
        err = np.max(np.abs(k15 - g7))
        scale = np.max(np.abs(k15))
        # written so that a NaN estimate (or scale) fails the check
        if not err <= max(_APPLY_RTOL * scale, 1e-13):
            raise QuadratureError("subordination quadrature error above budget",
                                  estimate=float(err), budget=_APPLY_RTOL)
        return k15


def _per_time_row(fn, t, x, y, d: int = 1):
    """fn(t) on one row of a 2-D t at a time, rows stacked.

    Applies when t carries its own leading axis of times, one that the
    points x and y do not vary along (a t-grid chunk of shape (rows, 1) or
    one refinement time per value, (deltas, N)); points of shape (N, d)
    count as N values when d > 1.  Each row then costs one temporary of
    the size of a single-time call: (nodes x values) and one K15/G7 check
    for a subordinated kernel, (values x modes) for the Schrodinger eigen
    sum.  Any other t goes to fn whole.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 2 and all(np.ndim(p) - (d > 1) < 2 for p in (x, y)):
        return np.stack([fn(row) for row in t])
    return fn(t)


@lru_cache(maxsize=8)
def subordination_rule(nu: float) -> SubordinationRule:
    return SubordinationRule(nu)


# Chebyshev extrema of degree 16 on [-1, 1], and four off-node check
# points at angle midpoints, where the aliased error T_17 - T_15 of the
# interpolant is largest
_CHEB_DEG = 16
_CHEB_Z = np.cos(math.pi * np.arange(_CHEB_DEG + 1) / _CHEB_DEG)
_CHEB_CHECK = np.cos(math.pi * (np.array([3, 7, 8, 12]) + 0.5) / _CHEB_DEG)


class RadialProfile:
    """P(rho) = integral H_s(rho) g_nu(s) ds, the subordinated heat kernel
    on R^d at t = 1 as a function of rho = |x - y|.  The heat kernel
    scales, so the subordinated one at any t is t^{-d/2} P(|x - y|/sqrt t).

    log P is tabulated in u = log rho as piecewise Chebyshev interpolants
    of degree 16 on panels of width at most 1 over [rho_min, rho_max].
    The build goes pass by pass (``quadrature.bisect_panels``).  A pass
    takes every pending panel's 17 nodes and 4 off-node points from
    ``SubordinationRule.apply``, one call per panel (its K15/G7 check is
    relative to the largest value of the call, so each panel keeps its
    own), fits all panels with one multi-column ``chebfit`` and checks
    them at the off-node points at once.  A panel whose log P there
    differs from the rule by more than 1e-12 (or whose P is 0) is halved
    into the next pass.  A table that would hold more than four times as
    many panels, kept and pending, as it has seed panels raises
    ``QuadratureError``, so a profile that no panel width resolves fails
    after seven times as many panel evaluations (the tables hold at most 3
    panels in a seed panel for nu in [0.05, 0.95], d = 1, 2; the seed
    panels grow like 1/nu, 252 at nu = 0.01, d = 1).  Evaluation runs
    numpy's ``chebval`` Clenshaw recurrence one degree at a time on each
    point's coefficient, with the bits of ``chebval`` and no (17 x points)
    gather, so a point's value does not depend on the other points.

    The ends are explicit bounds, not fits:
    * below rho_min, P is the exact P(0) = (4 pi)^{-d/2} m_{d/2}, with the
      negative moments m_a = E S^{-a} = Gamma(1 + a/nu)/Gamma(1 + a).
      Since 1 - x <= e^{-x}, P(0) - P(rho) <= P(0) rho^2 m_{d/2+1} /
      (4 m_{d/2}), which rho_min holds to 1e-13 relative;
    * the rule cuts s > S = e^60.  With g_nu(s) <= c s^{-1-nu} there,
      c = (Gamma(1 + nu) sin(pi nu) + 1/(S^nu - 1))/pi (the first term of
      the series, plus the geometric sum that bounds the rest), the cut is
      at most D = (4 pi)^{-d/2} c S^{-d/2-nu}/(d/2 + nu) at every rho.
      rho_max is where the tail A rho^{-d-2nu} of P falls to 1e8 D, with
      A = nu 4^nu Gamma(d/2 + nu)/(pi^{d/2} Gamma(1 - nu)); in 1-D
      A = Gamma(1 + 2nu) sin(pi nu)/pi (Zolotarev 1986).  So the cut is
      at most 1e-8 relative on the whole table (D is fixed and P falls);
    * above rho_max, P is its series in rho (``_tail_series``, through
      ``specfun.stable_series_sum``), exact where the rule is not.  The
      build checks the table's P(rho_max) against it to 1e-7 relative, a
      tenth of the 1e-6 budget of ``apply``, and raises
      ``QuadratureError`` above that.

    At small nu the rule's nodes reach down to where (4 pi s)^{-d/2}
    overflows (s = 2.7e-315 at nu = 0.01); the build then raises
    ``DomainError`` before it evaluates the heat kernel.
    """

    def __init__(self, nu: float, d: int):
        # imported here, as scipy is: at module level it adds 0.7 MB to
        # every command, subordinated or not
        from numpy.polynomial.chebyshev import chebfit, chebval
        self.nu, self.d = nu, d
        rule = subordination_rule(nu)
        heat = EuclideanHeat(d)
        log_4pi = -0.5 * d * math.log(4.0 * math.pi)

        def log_moment(a):
            return math.lgamma(1.0 + a / nu) - math.lgamma(1.0 + a)

        self.p0 = math.exp(log_4pi + log_moment(d / 2.0))
        self.rho_min = math.sqrt(4e-13 * math.exp(
            log_moment(d / 2.0) - log_moment(d / 2.0 + 1.0)))
        a = d / 2.0 + nu
        c = (math.gamma(1.0 + nu) * math.sin(math.pi * nu)
             + 1.0 / math.expm1(_LOG_S_MAX * nu)) / math.pi
        log_cut = log_4pi + math.log(c / a) - a * _LOG_S_MAX
        log_tail = (math.log(nu) + nu * math.log(4.0) + math.lgamma(a)
                    - 0.5 * d * math.log(math.pi) - math.lgamma(1.0 - nu))
        self.rho_max = math.exp((log_tail - math.log(1e8) - log_cut)
                                / (d + 2.0 * nu))

        def radial_heat(s, rho, _):
            # the heat kernel at distance rho along the first axis, once
            # its time factor is finite at the rule's smallest node
            s_min = float(np.min(s))
            with np.errstate(over="ignore"):
                scale = np.power(4.0 * math.pi * s_min, -d / 2.0)
            if not np.isfinite(scale):
                raise DomainError(
                    f"radial profile at nu = {nu:g}, d = {d}: the subordination"
                    f" rule's smallest node s = {s_min:.3g} overflows the heat "
                    "kernel's (4 pi s)^(-d/2)")
            x = rho if d == 1 else np.pad(rho[:, None], ((0, 0), (0, d - 1)))
            return heat.eval(s, x, 0.0)

        u_lo, u_hi = math.log(self.rho_min), math.log(self.rho_max)
        edges = np.linspace(u_lo, u_hi, math.ceil(u_hi - u_lo) + 1)
        z = np.concatenate([_CHEB_Z, _CHEB_CHECK])

        def check(ua, ub, _):
            # one pass: every pending panel, then one fit and one check
            mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
            vals = [rule.apply(radial_heat, 1.0, np.exp(m + h * z), 0.0)
                    for m, h in zip(mid, half)]
            with np.errstate(divide="ignore"):
                log_p = np.log(vals).T              # one column per panel
            # a P that underflows to 0 fails its panel, and is kept out of
            # the fit, whose lstsq scales every column by the largest value
            broken = ~np.all(np.isfinite(log_p), axis=0)
            log_p[:, broken] = 0.0
            c_k = chebfit(_CHEB_Z, log_p[:_CHEB_DEG + 1], _CHEB_DEG)
            err = np.max(np.abs(chebval(_CHEB_CHECK, c_k)
                                - log_p[_CHEB_DEG + 1:].T), axis=1)
            err[broken] = np.inf
            return err <= 1e-12, err, c_k.T

        # one key: the seed panels and their halves run from left to right
        self.lo, self.hi, _, coef = bisect_panels(
            edges[:-1], edges[1:], check, np.zeros(edges.size - 1, np.intp),
            4 * (edges.size - 1), "radial profile interpolation")
        self.coef = np.ascontiguousarray(coef.T)    # one row per degree
        # the table meets the tail series at rho_max, where every T_k is 1
        err = abs(math.expm1(sum(self.coef[:, -1])
                             - math.log(self._tail_series(self.rho_max))))
        if not err <= 1e-7:
            raise QuadratureError(
                "radial profile table and tail series disagree at rho_max",
                estimate=err, budget=1e-7)

    def _tail_series(self, rho):
        """P(rho) for rho >= rho_max, from the series of g_nu.

        For s >= 1, g_nu(s) = (1/pi) sum_k (-1)^{k+1} Gamma(nu k + 1)/k!
        sin(pi nu k) s^{-1-nu k}, which converges absolutely and
        uniformly.  Against the heat kernel, term k integrates over
        s >= 1 to (4 pi)^{-d/2} (rho/2)^{-2 a} gamma(a, rho^2/4),
        a = d/2 + nu k, with the lower incomplete gamma function.  At
        rho >= rho_max, gamma(a, rho^2/4) is Gamma(a) in double for every
        k <= 400 (checked for nu in [0.01, 1) and d <= 10, where
        rho_max^2/4 >= 1.3e7), so the terms are those of the stable tail
        expansion (Blumenthal and Getoor 1960), the first one
        A rho^{-d-2nu}.  The part s < 1 is at most (4 pi)^{-d/2}
        e^{-rho^2/4}, which underflows there.
        ``specfun.stable_series_sum`` stops the sum at 1e-17 of it.
        """
        nu, d = self.nu, self.d
        log_half = np.log(0.5 * np.asarray(rho, dtype=float))

        def log_factor(k):
            a = 0.5 * d + nu * k
            return math.lgamma(a) - 2.0 * a * log_half

        return ((4.0 * math.pi) ** (-0.5 * d)
                * specfun.stable_series_sum(nu, log_factor, 1e-17))

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        u = np.log(np.clip(rho, self.rho_min, self.rho_max))
        i = np.clip(np.searchsorted(self.lo, u, side="right") - 1,
                    0, len(self.lo) - 1)
        lo, hi = self.lo[i], self.hi[i]
        z = (2.0 * u - lo - hi) / (hi - lo)
        # numpy's chebval recurrence (c0, c1 = c_k - c1, c0 + c1 2z), one
        # degree at a time and in place: the same bits without a
        # (degrees x points) gather of the coefficients
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
        p = np.exp(c1)
        p = np.where(rho < self.rho_min, self.p0, p)
        far = rho > self.rho_max
        if np.any(far):
            p[far] = self._tail_series(rho[far])
        return p


@lru_cache(maxsize=8)
def radial_profile(nu: float, d: int) -> RadialProfile:
    return RadialProfile(nu, d)


class SubordinateKernel(KernelFamily):
    """Subordinated semigroup at the substituted time.

    ``eval(t, x, y)`` returns the kernel of the fractional-power
    semigroup at time t^nu, i.e. integral base(t s) g_nu(s) ds.  All
    estimates consume the kernel in exactly this parameterization, and
    the CLI documents the convention.  The natural-time kernel P_{t, nu}
    is ``eval(t ** (1 / nu), x, y)``.

    A base of type exactly ``EuclideanHeat`` reads the cached
    ``RadialProfile``: eval = t^{-d/2} P(|x - y|/sqrt t), a few ufunc
    calls for every shape of t (and a short series where
    |x - y|/sqrt t > rho_max).  Every other base, subclasses of the heat
    kernel included, runs ``SubordinationRule.apply`` one row of t at a
    time.
    """

    def __init__(self, base: KernelFamily, nu: float):
        if not 0.0 < nu < 1.0:
            raise DomainError("subordination requires nu in (0, 1)")
        self.base = base
        self.nu = nu
        self.domain = base.domain
        self.kind = f"subordinate({base.kind}, nu={nu:g})"
        self.rule = subordination_rule(nu)
        self.profile = (radial_profile(nu, base.dimension)
                        if type(base) is EuclideanHeat else None)

    def eval(self, t, x, y):
        self._check_time(t)
        d = self.dimension
        if self.profile is not None:
            t = np.asarray(t, dtype=float)
            return (np.power(t, -d / 2.0)
                    * self.profile(np.sqrt(_dist2(x, y, d) / t)))
        return _per_time_row(
            lambda tr: self.rule.apply(self.base.eval, tr, x, y, d),
            t, x, y, d)

    def comparison(self) -> "KernelFamily":
        if isinstance(self.base, EuclideanHeat):
            return self
        return SubordinateKernel(EuclideanHeat(self.dimension), self.nu)


def poisson_kernel(t, x, y, d: int = 1):
    """Closed-form P_{t, 1/2}; the nu = 1/2 oracle for subordination."""
    t = np.asarray(t, dtype=float)
    r2 = _dist2(x, y, d)
    c = math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)
    return c * t / (t * t + r2) ** ((d + 1) / 2.0)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

class ProductKernel(KernelFamily):
    """Coordinate-split product of lower-dimensional factors at shared t."""

    def __init__(self, factors: Sequence[KernelFamily]):
        if not factors:
            raise ValueError("product kernel needs at least one factor")
        self.factors = tuple(factors)
        self.domain = product_domain(*(f.domain for f in factors))
        self.kind = "product(" + ", ".join(f.kind for f in factors) + ")"

    def _slices(self):
        off = 0
        for f in self.factors:
            yield f, off, off + f.dimension
            off += f.dimension

    def eval(self, t, x, y):
        self._check_time(t)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = None
        for f, a, b in self._slices():
            xs = x[..., a:b]
            ys = y[..., a:b]
            if f.dimension == 1:
                xs = xs[..., 0]
                ys = ys[..., 0]
            piece = f.eval(t, xs, ys)
            out = piece if out is None else out * piece
        return out

    def max_valid_time(self) -> float:
        return min(f.max_valid_time() for f in self.factors)

    def comparison(self) -> "KernelFamily":
        return ProductKernel([f.comparison() for f in self.factors])


# ---------------------------------------------------------------------------
# Discretized Schrodinger kernel
# ---------------------------------------------------------------------------

class SchrodingerKernel(KernelFamily):
    """Eigen-expansion kernel of -d^2/dx^2 + V on [-R, R], zero BCs.

    eval(t, x, y) = sum_k e^{-t lambda_k} phi_k(x) phi_k(y) with the
    finite-difference eigenpairs; off-grid points interpolate the grid
    eigenvectors linearly, which coincides with bilinear interpolation of
    the grid kernel.  Times with sqrt(t) > R/4 are outside the validated
    range of the spectral truncation and are rejected.

    The kernel holds one copy of the eigenvectors, ``eigvecs`` (n x n,
    column-major, as LAPACK returns it): interpolation reads its rows and
    takes an exact 0.0 at the Dirichlet ends +-R.
    """

    def __init__(self, potential_values: np.ndarray, box_half_width: float,
                 grid: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray):
        self.domain = real_line(1)
        self.kind = f"schrodinger(R={box_half_width:g}, n={len(grid)})"
        self.box_half_width = box_half_width
        self.potential_values = potential_values
        self.grid = grid
        self.h = grid[1] - grid[0]
        self.eigvals = eigvals
        self.eigvecs = eigvecs  # columns, l2-orthonormal
        # grid with the Dirichlet ends, where every mode is an exact 0.0
        self._xp = np.concatenate(([-box_half_width], grid, [box_half_width]))
        # S_k = sum_j phi_k(x_j): h S_k integrates the interpolated mode
        # over the box exactly (trapezoid on the nodes, zero at +-R)
        self._col_sums = eigvecs.sum(axis=0)

    def max_valid_time(self) -> float:
        return (self.box_half_width / 4.0) ** 2

    def _check_validity(self, t):
        cap = self.max_valid_time()
        if np.any(np.asarray(t, dtype=float) > cap):
            raise DomainError(
                "requested time outside the validated range of the "
                f"truncation box (t > {cap:g})")

    def _interp_modes(self, x, k_max: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.box_half_width):
            raise DomainError("point outside the Schrodinger truncation box")
        n = len(self.grid)
        # x lies in [xp[idx], xp[idx + 1]]; node j of xp is grid node j - 1
        idx = np.clip(np.searchsorted(self._xp, x) - 1, 0, n)
        x0 = self._xp[idx]
        w = (x - x0) / (self._xp[idx + 1] - x0)
        # the Dirichlet ends take weight 0 on a clipped, unused node.
        # eigvecs is column-major, so its transpose has one contiguous row
        # per mode to gather from: fancy indexing of eigvecs' rows is 5x
        # slower, and take on eigvecs copies it first
        modes = self.eigvecs.T[:k_max]
        lo = modes.take(np.maximum(idx - 1, 0), axis=1)
        lo *= np.where(idx > 0, 1.0 - w, 0.0)
        hi = modes.take(np.minimum(idx, n - 1), axis=1)
        hi *= np.where(idx < n, w, 0.0)
        lo += hi
        return np.ascontiguousarray(np.moveaxis(lo, 0, -1))

    def _modes_and_weights(self, t, x):
        """phi_k(x) and e^{-t lambda_k}, shape t.shape + (k_max,), for the
        modes k < k_max that contribute above the double underflow at the
        smallest t."""
        t = np.asarray(t, dtype=float)
        k_max = int(np.searchsorted(t.min(initial=math.inf) * self.eigvals,
                                    746.0)) or 1
        weights = np.exp(np.multiply.outer(-t, self.eigvals[:k_max]))
        return self._interp_modes(x, k_max), weights

    def _box_mass(self, t: float, x: float) -> float:
        """Exact integral of eval(t, x, .) over the truncation box [-R, R]:
        sum_k e^{-t lambda_k} phi_k(x) S_k."""
        self._check_time(t)
        self._check_validity(t)
        phi_x, weights = self._modes_and_weights(t, x)
        return float(np.dot(phi_x * weights, self._col_sums[:len(weights)]))

    def _box_mass_floor(self, t: float, x: float) -> float:
        """Roundoff floor of ``_box_mass(t, x)``:
        eps sum_k e^{-t lambda_k} (|S_k| + sqrt(n) |phi_k(x)|), the modes
        of ``_modes_and_weights``.  ``verifier.verify_schrodinger_D``
        derives it."""
        phi_x, weights = self._modes_and_weights(t, x)
        sums = np.abs(self._col_sums[:len(weights)])
        spread = sums + math.sqrt(len(self.grid)) * np.abs(phi_x)
        return float(np.finfo(float).eps * np.dot(weights, spread))

    def _eigen_sum(self, t, x, y):
        phi_x, weights = self._modes_and_weights(t, x)
        phi_y = self._interp_modes(y, weights.shape[-1])
        return np.einsum("...k,...k,...k->...", phi_x, phi_y, weights) / self.h

    def eval(self, t, x, y):
        self._check_time(t)
        self._check_validity(t)
        return _per_time_row(lambda tr: self._eigen_sum(tr, x, y), t, x, y)

    def comparison(self) -> "KernelFamily":
        return EuclideanHeat(1)


def schrodinger_build(potential, box_half_width: float = 20.0,
                      n_points: int = 2000) -> SchrodingerKernel:
    """Discretize -d^2/dx^2 + V on [-R, R] with zero boundary values.

    ``potential`` is a callable on the grid or an array of n_points
    samples; it must be nonnegative.  The tridiagonal eigenproblem runs
    LAPACK's MRRR driver ``stemr`` (Dhillon and Parlett, Lin. Alg. Appl.
    387, 2004): O(n) workspace besides the n x n eigenvectors, which the
    kernel keeps as its one copy, and eigenpairs whose bits do not depend
    on the BLAS thread count.  The divide-and-conquer default (``stevd``)
    held a second n x n array during the build (64 against 32 MB at
    n = 2,000) and its eigenvalues moved with the thread count.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if not (0.0 < box_half_width < math.inf):
        raise ValueError("box_half_width must be finite and positive, "
                         f"got {box_half_width}")
    grid = np.linspace(-box_half_width, box_half_width, n_points + 2)[1:-1]
    h = grid[1] - grid[0]
    if callable(potential):
        v = np.asarray(potential(grid), dtype=float)
        v = np.broadcast_to(v, grid.shape).copy()
    else:
        v = np.asarray(potential, dtype=float)
        if v.shape != grid.shape:
            raise ValueError(f"potential samples must have shape {grid.shape}")
    if np.any(v < 0.0):
        raise DomainError("schrodinger_build requires a nonnegative potential")
    # scipy loads on first use, so importing hardykit does not pay for it
    from scipy.linalg import eigh_tridiagonal

    diag = 2.0 / h ** 2 + v
    off = np.full(n_points - 1, -1.0 / h ** 2)
    try:
        eigvals, eigvecs = eigh_tridiagonal(diag, off, lapack_driver="stemr")
    except Exception as exc:  # pragma: no cover - LAPACK failure
        raise QuadratureError(f"eigendecomposition failed: {exc}") from exc
    return SchrodingerKernel(v, box_half_width, grid, eigvals, eigvecs)


# ---------------------------------------------------------------------------
# Mass integrals
# ---------------------------------------------------------------------------

def mass(k: KernelFamily, t: float, x, radius: float = math.inf,
         rtol: float = 1e-9) -> float:
    """integral of T_t(x, y) over {y in X : |x - y| <= radius}, for a 1-D
    kernel (another dimension is a ValueError).

    Bounded by 1 + quadrature error for every implemented kernel.  For a
    Schrodinger kernel whose ball contains the truncation box the mass is
    the exact eigen sum; every other mass runs adaptive quadrature.
    """
    if not (radius > 0.0):
        raise DomainError("mass radius must be positive (inf for full domain)")
    if k.dimension != 1:
        raise ValueError(f"mass needs a 1-D kernel, "
                         f"got dimension {k.dimension}")
    x = float(np.asarray(x).reshape(()))
    dom_lo, dom_hi = k.domain.intervals[0]
    if isinstance(k, SchrodingerKernel):
        dom_lo = max(dom_lo, -k.box_half_width)
        dom_hi = min(dom_hi, k.box_half_width)
        if x - radius <= dom_lo and x + radius >= dom_hi:
            return k._box_mass(t, x)
    if math.isinf(radius):
        w = 45.0 * math.sqrt(t) + 10.0
        lo, hi = x - w, x + w
    else:
        lo, hi = x - radius, x + radius
    lo = max(lo, dom_lo)
    hi = min(hi, dom_hi)
    if hi <= lo:
        return 0.0
    seeds = [x + c * math.sqrt(t) for c in
             (-30.0, -10.0, -3.0, -1.0, 1.0, 3.0, 10.0, 30.0)]
    val, _ = integrate_adaptive(lambda ys: k.eval(t, x, ys), lo, hi,
                                rtol=rtol, atol=1e-14, breakpoints=seeds,
                                max_panels=4000)
    return val
