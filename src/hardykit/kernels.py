"""Semigroup kernels T_t(x, y) with pointwise evaluation, comparison
kernels, and mass integrals.

Implemented families:

* ``EuclideanHeat(d)``: (4 pi t)^{-d/2} exp(-|x-y|^2 / 4t) on R^d;

* ``BesselKernel(beta)`` on (0, inf):
  sqrt(xy)/(2t) I_{beta-1/2}(xy/2t) exp(-(x^2+y^2)/4t),
  evaluated in log space through the scaled Bessel function so the
  exponential growth of I and the Gaussian factor cancel exactly;

* ``LaguerreKernel(alpha)`` on (0, inf):
  sqrt(xy)/sinh(2t) I_alpha(xy/sinh 2t) exp(-coth(2t)(x^2+y^2)/2),
  the Bessel form at time sinh(2t)/2 times exp(-tanh(t)(x^2+y^2)/2);
  both run one log-space body (``_log_space_kernel``), stable down to
  t ~ 1e-12 and up to overflow times;

* ``SchrodingerKernel``: eigen-expansion of the second-order finite
  difference discretization of -Delta + V on a truncation box with zero
  boundary values (``schrodinger_build``), one broadcast eigen sum;

* ``SubordinateKernel(base, nu)``: the subordinated semigroup evaluated
  at the substituted time, eval(t) = integral_0^inf base(t s) g_nu(s) ds.
  With base = EuclideanHeat this is the 2nu-stable kernel P_{t^nu, nu};

* ``StableKernel(nu, d)``: the same object in its natural time
  parameter, eval(t) = P_{t, nu}: the subordinated heat kernel at time
  t^{1/nu};

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
from scipy.linalg import eigh_tridiagonal

from . import specfun
from .domain import DomainSpec, half_line, product_domain, real_line
from .errors import DomainError, QuadratureError
from .quadrature import GK15_WG, GK15_WK, GK15_X, integrate_adaptive


def _log_sinh(u):
    """log(sinh u) without overflow for large u."""
    u = np.asarray(u, dtype=float)
    return u + np.log1p(-np.exp(-2.0 * u)) - math.log(2.0)


def _dist2(x, y, d: int):
    """|x - y|^2, with the coordinates on the last axis when d > 1."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return diff ** 2 if d == 1 else np.sum(diff ** 2, axis=-1)


def _log_space_kernel(tau: float, x, y, log_s, gauss):
    """sqrt(xy)/S I_tau(z) e^{G-z}, z = xy/S, the Bessel and Laguerre
    form, as exp(log(xy)/2 - log S + log(e^{-z} I_tau(z)) + G).  For
    tau < 0 it is (xy)^{tau+1/2} times a bounded factor: an exact 0 at
    x = 0 or y = 0, where the log form meets inf - inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_xy = np.log(x) + np.log(y)
        log_k = (0.5 * log_xy - log_s
                 + specfun.log_bessel_i_scaled(tau, log_xy - log_s)
                 + gauss)
    if tau < 0.0:
        log_k = np.where(log_xy == -math.inf, -math.inf, log_k)
    return np.exp(log_k)


class KernelFamily:
    """Base class: an evaluatable semigroup kernel plus its comparison."""

    domain: DomainSpec
    kind: str

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def eval(self, t, x, y):
        raise NotImplementedError

    def comparison(self) -> "KernelFamily":
        """The designated tilde-kernel for the (A2)-type conditions."""
        raise NotImplementedError

    def max_valid_time(self) -> float:
        """Largest time the evaluation is validated for (inf if unlimited)."""
        return math.inf

    def describe(self) -> str:
        return self.kind

    def _check_points(self, *points):
        for p in points:
            arr = np.asarray(p, dtype=float)
            if not np.all(self.domain.contains(arr)):
                raise DomainError(f"point outside domain for {self.kind}")

    def _check_time(self, t):
        if np.any(np.asarray(t, dtype=float) <= 0.0):
            raise DomainError("kernel time t must be positive")


class EuclideanHeat(KernelFamily):
    def __init__(self, d: int = 1):
        self.domain = real_line(d)
        self.kind = f"euclidean_heat(d={d})"

    def eval(self, t, x, y):
        self._check_time(t)
        t = np.asarray(t, dtype=float)
        d = self.dimension
        # np.power, a ufunc, gives the same bits for every shape of t
        return (np.power(4.0 * math.pi * t, -d / 2.0)
                * np.exp(-_dist2(x, y, d) / (4.0 * t)))

    def comparison(self) -> "KernelFamily":
        return self


class BesselKernel(KernelFamily):
    def __init__(self, beta: float):
        if beta <= 0.0:
            raise DomainError("bessel kernel requires beta > 0")
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
                                 -(x - y) ** 2 / (4.0 * t))

    def comparison(self) -> "KernelFamily":
        return EuclideanHeat(1)


class LaguerreKernel(KernelFamily):
    def __init__(self, alpha: float):
        if alpha <= -0.5:
            raise DomainError("laguerre kernel requires alpha > -1/2")
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
        # z - coth(2t)(x^2+y^2)/2 rewritten to stay finite for all t
        exponent = (-(x - y) ** 2 * np.exp(-ls) / 2.0
                    - np.tanh(t) * (x * x + y * y) / 2.0)
        return _log_space_kernel(self.alpha, x, y, ls, exponent)

    def comparison(self) -> "KernelFamily":
        return EuclideanHeat(1)


# ---------------------------------------------------------------------------
# Subordination
# ---------------------------------------------------------------------------

class SubordinationRule:
    """Fixed Gauss-Kronrod rule in s for integral T(t s) g_nu(s) ds.

    Panels are dyadic below s = 1 and e-fold above, with the density
    evaluated once per node at construction.  Panels whose density values
    are all below 1e-300 are dropped.  Those include every inner panel
    inside the region s < s*(nu) where ``specfun.stable_density`` returns
    an exact 0 without Kanter's integral (s* is about 2.5e-2 at
    nu = 0.7, which leaves 66 of 110 panels; at nu = 1/2 the closed form
    leaves 72), so such panels cost no kernel evaluation in ``apply``.
    The polynomial right tail is truncated at exp(60), beyond which the
    kernel factor (t s)^{-d/2} makes the remainder negligible at the
    accuracies used here.
    """

    def __init__(self, nu: float):
        params = specfun.StableDensityParams(nu)
        self.nu = nu
        edges = [(2.0 ** (-k - 1), 2.0 ** (-k)) for k in range(50)]
        edges += [(math.exp(u), math.exp(u + 1.0)) for u in range(60)]
        nodes, wk, wg = [], [], []
        for a, b in edges:
            h = 0.5 * (b - a)
            s = 0.5 * (a + b) + h * GK15_X
            g = specfun.stable_density(params, s)
            if np.all(g < 1e-300):
                continue
            nodes.append(s)
            wk.append(h * GK15_WK * g)
            wg.append(h * GK15_WG * g)
        self.nodes = np.concatenate(nodes)
        self.weights_k = np.concatenate(wk)
        self.weights_g = np.concatenate(wg)
        self.panel_count = len(nodes)

    def apply(self, base_eval, t, x, y, rtol: float = 1e-6):
        """integral base(t s, x, y) g_nu(s) ds with a K15/G7 error check."""
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(t.shape, np.shape(x), np.shape(y))
        s = self.nodes.reshape((-1,) + (1,) * len(shape))
        vals = base_eval(t * s, x, y)
        k15 = np.tensordot(self.weights_k, vals, axes=(0, 0))
        g7 = np.tensordot(self.weights_g, vals, axes=(0, 0))
        err = np.max(np.abs(k15 - g7))
        scale = np.max(np.abs(k15))
        # written so that a NaN estimate (or scale) fails the check
        if not err <= max(rtol * scale, 1e-13):
            raise QuadratureError("subordination quadrature error above budget",
                                  estimate=float(err), budget=rtol)
        return k15


def _per_time_row(fn, t, x, y):
    """fn(t) on one row of a 2-D t at a time, rows stacked.

    Applies when t carries its own leading axis of times, one that the
    points x and y do not vary along (a t-grid chunk of shape (rows, 1) or
    one golden-section time per value, (deltas, N)).  Each row then costs
    one temporary of the size of a single-time call: (nodes x values) and
    one K15/G7 check for a subordinated kernel, (values x modes) for the
    Schrodinger eigen sum.  Any other t goes to fn whole.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 2 and np.ndim(x) < 2 and np.ndim(y) < 2:
        return np.stack([fn(row) for row in t])
    return fn(t)


@lru_cache(maxsize=8)
def subordination_rule(nu: float) -> SubordinationRule:
    return SubordinationRule(nu)


class SubordinateKernel(KernelFamily):
    """Subordinated semigroup at the substituted time.

    ``eval(t, x, y)`` returns the kernel of the fractional-power
    semigroup at time t^nu, i.e. integral base(t s) g_nu(s) ds.  All
    estimates consume the kernel in exactly this parameterization, and
    the CLI documents the convention.
    """

    def __init__(self, base: KernelFamily, nu: float):
        if not 0.0 < nu < 1.0:
            raise DomainError("subordination requires nu in (0, 1)")
        self.base = base
        self.nu = nu
        self.domain = base.domain
        self.kind = f"subordinate({base.kind}, nu={nu:g})"
        self.rule = subordination_rule(nu)

    def eval(self, t, x, y):
        self._check_time(t)
        return _per_time_row(
            lambda tr: self.rule.apply(self.base.eval, tr, x, y), t, x, y)

    def comparison(self) -> "KernelFamily":
        if isinstance(self.base, EuclideanHeat):
            return self
        return SubordinateKernel(EuclideanHeat(self.dimension), self.nu)


class StableKernel(SubordinateKernel):
    """Kernel of the 2nu-stable semigroup in its natural time, P_{t, nu}:
    the subordinated heat kernel evaluated at t^{1/nu}."""

    def __init__(self, nu: float, d: int = 1):
        if not 0.0 < nu < 1.0:
            raise DomainError("stable kernel requires nu in (0, 1)")
        super().__init__(EuclideanHeat(d), nu)
        self.kind = f"stable(nu={nu:g}, d={d})"

    def eval(self, t, x, y):
        self._check_time(t)
        return super().eval(np.asarray(t, dtype=float) ** (1.0 / self.nu), x, y)


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
        # padded grid including the zero boundary values for interpolation
        self._xp = np.concatenate(([-box_half_width], grid, [box_half_width]))
        self._vp = np.vstack([np.zeros((1, eigvecs.shape[1])),
                              eigvecs,
                              np.zeros((1, eigvecs.shape[1]))])
        # S_k = sum_j phi_k(x_j): h S_k integrates the interpolated mode
        # over the box exactly (trapezoid on the nodes, zero at +-R)
        self._col_sums = eigvecs.sum(axis=0)

    def max_valid_time(self) -> float:
        return (self.box_half_width / 4.0) ** 2

    def _check_validity(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.sqrt(t) > self.box_half_width / 4.0):
            raise DomainError(
                "requested time outside the validated range of the "
                f"truncation box (sqrt(t) > {self.box_half_width / 4.0:g})")

    def _interp_modes(self, x, k_max: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.box_half_width):
            raise DomainError("point outside the Schrodinger truncation box")
        idx = np.clip(np.searchsorted(self._xp, x) - 1, 0, len(self._xp) - 2)
        x0 = self._xp[idx]
        w = (x - x0) / (self._xp[idx + 1] - x0)
        return ((1.0 - w)[..., None] * self._vp[idx, :k_max]
                + w[..., None] * self._vp[idx + 1, :k_max])

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
    samples; it must be nonnegative.
    """
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
    diag = 2.0 / h ** 2 + v
    off = np.full(n_points - 1, -1.0 / h ** 2)
    try:
        eigvals, eigvecs = eigh_tridiagonal(diag, off)
    except Exception as exc:  # pragma: no cover - LAPACK failure
        raise QuadratureError(f"eigendecomposition failed: {exc}") from exc
    return SchrodingerKernel(v, box_half_width, grid, eigvals, eigvecs)


# ---------------------------------------------------------------------------
# Mass integrals
# ---------------------------------------------------------------------------

def _mass_1d(k: KernelFamily, t: float, x: float, radius: float,
             rtol: float) -> float:
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


def _mass_nd(k: KernelFamily, t: float, x, radius: float,
             rtol: float) -> float:
    x = np.asarray(x, dtype=float)
    d = k.dimension
    if math.isinf(radius):
        w = 45.0 * math.sqrt(t) + 10.0
    else:
        w = radius
    lo, hi = k.domain.clip_box(x - w, x + w)
    spans = hi - lo
    if np.any(spans <= 0):
        return 0.0

    def masked(pts):
        vals = k.eval(t, x[None, :], pts)
        if math.isfinite(radius):
            inside = np.linalg.norm(pts - x[None, :], axis=1) <= radius
            vals = np.where(inside, vals, 0.0)
        return vals

    from .quadrature import integrate, rule_for_box
    n = max(32, min(128, int(8 * spans.max() / math.sqrt(t))))
    result = integrate(rule_for_box(lo, hi, n), masked)
    return result.value


def mass(k: KernelFamily, t: float, x, radius: float = math.inf,
         rtol: float = 1e-9) -> float:
    """integral of T_t(x, y) over {y in X : |x - y| <= radius}.

    Bounded by 1 + quadrature error for every implemented kernel.  For a
    Schrodinger kernel whose ball contains the truncation box the mass is
    the exact eigen sum; every other 1-D mass runs adaptive quadrature.
    """
    if not (radius > 0.0):
        raise DomainError("mass radius must be positive (inf for full domain)")
    if k.dimension == 1:
        return _mass_1d(k, t, float(np.asarray(x).reshape(())), radius, rtol)
    return _mass_nd(k, t, x, radius, rtol)
