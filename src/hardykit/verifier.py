"""Campaign-style estimation of the condition constants.

Each ``verify_*`` function probes one quantitative condition over a
covering window and returns a structured report: one entry per cuboid
(or per probe sample) carrying the estimated constant and the quadrature
error estimate needed to reproduce it.  Reports state that a quantity is
bounded over the probed window with the stated error; they are
measurements, not proofs.

Suprema over y in Q* are replaced by maxima over deterministic sample
sets (center, corners, quasi-random interior points); suprema over t use
the geometric grids from :mod:`hardykit.quadrature`.  Complement
integrals are truncated at a configurable multiple of the cuboid
diameter; the empirical edge-decay tail beyond the window is recorded in
the entry metadata and is not part of the reported error.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .atoms import Atom
from .coverings import AdmissibleCovering, Cuboid, PartitionOfUnity
from .errors import QuadratureError
from .kernels import KernelFamily, SchrodingerKernel, _dist2, mass
# golden_refine is unused here; perfbench/tracer.py rebinds it in every
# module and requires this binding
from .quadrature import (SpatialRule, TGrid, golden_refine,  # noqa: F401
                         halton, integrate, richardson, rule_for_box,
                         rule_for_complement, sup_over_t)
from .specfun import erfcx


# ---------------------------------------------------------------------------
# Settings and reports
# ---------------------------------------------------------------------------

# ends of the condition t-grids, in units of d_Q^2
_TGRID_SPAN = (1e-8, 1e4)


@dataclass(frozen=True)
class VerifierSettings:
    tgrid_ppd: int = 16
    qmc_y: int = 8
    nodes_near: int = 48
    nodes_cross: int = 20
    box_nodes: int = 96
    window_factor: float = 50.0
    golden_iters: int = 5
    error_budget_rel: float = 0.05

    def __post_init__(self):
        for name in ("tgrid_ppd", "nodes_near", "nodes_cross", "box_nodes"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("golden_iters", "qmc_y"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("window_factor", "error_budget_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")


@dataclass
class CuboidEntry:
    index: int
    label: str
    constant: float
    error: float
    metadata: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    condition_id: str
    covering_id: str
    kernel_id: str
    parameters: dict
    per_cuboid: list[CuboidEntry]
    notes: list[str] = field(default_factory=list)

    @property
    def sup_constant(self) -> float:
        finite = [e.constant for e in self.per_cuboid if math.isfinite(e.constant)]
        if len(finite) < len(self.per_cuboid):
            return math.inf
        return max(finite) if finite else math.nan

    @property
    def max_error(self) -> float:
        return max((e.error for e in self.per_cuboid), default=0.0)

    @property
    def finite(self) -> bool:
        return all(math.isfinite(e.constant) for e in self.per_cuboid)

    def within_error_budget(self, rel: float) -> bool:
        scale = max(abs(self.sup_constant), 1e-12)
        return all(e.error <= rel * max(abs(e.constant), scale * 1e-3) + 1e-12
                   for e in self.per_cuboid)

    def passed(self, rel: float) -> bool:
        """The one verdict of ``verify`` and ``maximal``: every constant
        finite, every error within ``rel`` of its value, and the target
        check the estimator recorded as ``parameters["passed"]``, if any."""
        return (self.finite and self.within_error_budget(rel)
                and bool(self.parameters.get("passed", True)))

    def spread(self) -> float:
        """max/min ratio of the per-entry constants (scale stability)."""
        vals = [e.constant for e in self.per_cuboid
                if math.isfinite(e.constant) and e.constant > 0]
        if not vals:
            return math.inf
        return max(vals) / min(vals)

    def params_hash(self) -> str:
        canonical = repr(sorted(self.parameters.items()))
        payload = f"{self.condition_id}|{self.covering_id}|{self.kernel_id}|{canonical}"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_csv(self) -> str:
        h = self.params_hash()
        lines = ["condition,cuboid_index,constant,error,params_hash"]
        for e in self.per_cuboid:
            lines.append(f"{self.condition_id},{e.index},{e.constant!r},"
                         f"{e.error!r},{h}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            "[report]",
            f"condition = {self.condition_id}",
            f"covering = {self.covering_id}",
            f"kernel = {self.kernel_id}",
            f"sup_constant = {self.sup_constant!r}",
            f"max_error = {self.max_error!r}",
            f"params_hash = {self.params_hash()}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"param.{key} = {self.parameters[key]!r}")
        for note in self.notes:
            lines.append(f"note = {note}")
        for e in self.per_cuboid:
            lines.append(f"[entry {e.index}]")
            lines.append(f"label = {e.label}")
            lines.append(f"constant = {e.constant!r}")
            lines.append(f"error = {e.error!r}")
            for key in sorted(e.metadata):
                lines.append(f"meta.{key} = {e.metadata[key]!r}")
        return "\n".join(lines) + "\n"


def covering_id(c: AdmissibleCovering) -> str:
    return f"{c.family}{c.window}"


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------

def y_samples(q: Cuboid, kappa: float, qmc_count: int) -> np.ndarray:
    """Deterministic y-sample set in Q*: center, corners, Halton interior.

    Offsets are Q*-relative, so dyadically related cuboids receive
    exactly rescaled sample sets.
    """
    star = q.enlarged(kappa, 1)
    lo, hi = star.box()
    d = q.dimension
    pts = [0.5 * (lo + hi)]
    corners = np.stack(np.meshgrid(*[(lo[j], hi[j]) for j in range(d)],
                                   indexing="ij"), axis=-1).reshape(-1, d)
    pts.extend(corners)
    if qmc_count > 0:
        pts.extend(lo + halton(qmc_count, d) * (hi - lo))
    return np.array(pts)


def _window_for(q: Cuboid, factor: float) -> tuple[np.ndarray, np.ndarray]:
    z = np.array(q.center)
    w = factor * q.diameter
    return q.domain.clip_box(z - w, z + w)


def _clamped_grid(k: KernelFamily, t_lo: float, t_hi: float,
                  ppd: int) -> TGrid:
    """Geometric grid capped at the kernel's validated time range."""
    cap = k.max_valid_time()
    t_hi = min(t_hi, cap)
    if not t_lo < t_hi:
        raise QuadratureError(
            f"t-grid [{t_lo:g}, {t_hi:g}] empty after the validity cap {cap:g}")
    return TGrid(t_lo, t_hi, ppd)


def _edge_tail_estimate(integrand: Callable, win_lo, win_hi, hole_center,
                        d: int) -> float:
    """First-order tail beyond the truncation window.

    Probes the integrand at the window edges and extrapolates a ~r^{-2}
    decay; negligible for kernels with genuine spatial decay, an O(1)
    honesty signal for kernels without it.  A probe value that is not
    finite raises QuadratureError.
    """
    probes = []
    for j in range(d):
        for v in (win_lo[j], win_hi[j]):
            if not math.isfinite(v):
                continue
            p = np.array(hole_center, dtype=float)
            p[j] = v
            probes.append(p)
    if not probes:
        return 0.0
    pts = np.array(probes)
    x = pts[:, 0] if d == 1 else pts
    vals = np.asarray(integrand(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(
            "integrand not finite at the truncation window edge")
    half_extent = 0.5 * float(np.max(win_hi - win_lo))
    return float(np.sum(np.abs(vals)) * half_extent)


# ---------------------------------------------------------------------------
# Per-cuboid sup conditions: (A1') and (A1), (A2') and (A2), (a3)
# ---------------------------------------------------------------------------

def _sup_entries(point_fn: Callable, q: Cuboid, index: int,
                 covering: AdmissibleCovering, rule: SpatialRule, grid: TGrid,
                 deltas: Sequence[float], sign: int, s: VerifierSettings,
                 tail_fn: Callable | None = None) -> list[CuboidEntry]:
    """One entry per delta: max over y in Q* of d_Q^{-2 sign delta}
    int sup_t t^{sign delta} point_fn(t, x, y) dx, sign = 1 for (A1) and
    (a3), -1 for (A2), from one ``sup_over_t`` per y over both Richardson
    levels.  At the first maximising y, ``boundary_frac`` is the share of
    fine-level nodes whose t-grid argmax lies at a grid end and
    ``tail_fn(delta, y)`` the truncation tail, weighted as the entry (nan
    and 0 when no y gives a value).  A value that is not finite raises
    QuadratureError.  ``point_fn`` must broadcast over t and x."""
    d_q = q.diameter
    powers = [sign * delta for delta in deltas]
    norms = [d_q ** (-2.0 * sign * delta) for delta in deltas]
    best = [(0.0, 0.0, None, math.nan)] * len(deltas)
    if rule.panels:
        x, w_coarse, w_fine = rule.richardson_nodes()
        for y in y_samples(q, covering.kappa, s.qmc_y):
            y_pt = y[0] if q.dimension == 1 else y
            sup = sup_over_t(lambda t: point_fn(t, x, y_pt), grid, powers,
                             s.golden_iters)
            res = richardson(sup.values, w_coarse, w_fine)
            if not all(map(math.isfinite, res.value)):
                raise QuadratureError(f"sup integral not finite at y = {y_pt}")
            shares = np.mean(sup.at_end[:, len(w_coarse):], axis=1).tolist()
            best = [(v * n, e * n, y_pt, bf) if v * n > b[0] else b
                    for v, e, n, bf, b in zip(res.value, res.error, norms,
                                              shares, best)]
    entries = []
    for delta, norm, (value, err, y_pt, bf) in zip(deltas, norms, best):
        meta = {"delta": delta, "d_q": d_q, "quad_error": err,
                "boundary_frac": bf}
        if tail_fn is not None:
            meta["tail_estimate"] = (0.0 if y_pt is None
                                     else tail_fn(delta, y_pt) * norm)
        entries.append(CuboidEntry(index=index, label=f"Q{index} d={d_q:g}",
                                   constant=value, error=err, metadata=meta))
    return entries


def _a1_entry(k: KernelFamily, q: Cuboid, index: int,
              covering: AdmissibleCovering, deltas: Sequence[float],
              s: VerifierSettings) -> list[CuboidEntry]:
    d_q = q.diameter
    win_lo, win_hi = _window_for(q, s.window_factor)
    hole_lo, hole_hi = q.enlarged(covering.kappa, 2).box()
    rule = rule_for_complement(win_lo, win_hi, hole_lo, hole_hi,
                               nodes_near=s.nodes_near,
                               nodes_cross=s.nodes_cross)
    grid = _clamped_grid(k, _TGRID_SPAN[0] * d_q * d_q,
                         _TGRID_SPAN[1] * d_q * d_q, s.tgrid_ppd)

    # the error column is the quadrature estimate on the probed window;
    # the truncation tail is disclosed separately
    def tail(delta, y_pt):
        return _edge_tail_estimate(
            lambda x: sup_over_t(lambda t: k.eval(t, x, y_pt), grid, [delta],
                                 0).values[0],
            win_lo, win_hi, q.center, q.dimension)

    return _sup_entries(k.eval, q, index, covering, rule, grid, deltas, 1, s,
                        tail)


def _a2_entry(k: KernelFamily, comp: KernelFamily, q: Cuboid, index: int,
              covering: AdmissibleCovering, deltas: Sequence[float],
              s: VerifierSettings) -> list[CuboidEntry]:
    d_q = q.diameter
    lo, hi = q.enlarged(covering.kappa, 2).box()
    nodes = s.box_nodes if q.dimension == 1 else max(24, s.box_nodes // 3)
    grid = _clamped_grid(k, _TGRID_SPAN[0] * d_q * d_q, d_q * d_q,
                         s.tgrid_ppd)

    def diff(t, x, y):
        # a kernel that is its own comparison is evaluated once
        v = k.eval(t, x, y)
        return np.abs(v - (v if comp is k else comp.eval(t, x, y)))

    return _sup_entries(diff, q, index, covering, rule_for_box(lo, hi, nodes),
                        grid, deltas, -1, s)


def _a3_entry(k: KernelFamily, q: Cuboid, index: int,
              covering: AdmissibleCovering, deltas: Sequence[float],
              s: VerifierSettings) -> list[CuboidEntry]:
    d_q = q.diameter
    lo, hi = q.enlarged(covering.kappa, 2).box()
    grid = _clamped_grid(k, d_q * d_q, _TGRID_SPAN[1] * d_q * d_q,
                         s.tgrid_ppd)
    return _sup_entries(k.eval, q, index, covering,
                        rule_for_box(lo, hi, s.box_nodes), grid, deltas, 1, s)


def _weighted_deltas(gamma: float | None,
                     deltas: Sequence[float] | None) -> tuple[float, ...]:
    """The (A1)/(A2) exponents: none without gamma, else the given deltas
    or {0, gamma/2, 0.9 gamma}.  Every delta must lie in [0, gamma)."""
    if gamma is None:
        return ()
    if not 0.0 < gamma < 1.0 / 3.0:
        raise ValueError("gamma must lie in (0, 1/3)")
    if deltas is None:
        return (0.0, gamma / 2.0, 0.9 * gamma)
    if any(not 0.0 <= d < gamma for d in deltas):
        raise ValueError("every delta must lie in [0, gamma)")
    return tuple(deltas)


def _check_dimensions(k: KernelFamily, covering: AdmissibleCovering):
    """ValueError unless the kernel has the covering's dimension."""
    if k.dimension != covering.dimension:
        raise ValueError(f"kernel {k.kind} has dimension {k.dimension}, "
                         f"the covering has dimension {covering.dimension}")


def _paired_reports(entry_fn: Callable, k: KernelFamily,
                    covering: AdmissibleCovering, ids: Sequence[str], params: dict, gamma: float | None,
                    weighted: Sequence[float]) -> list[VerificationReport]:
    """One entry pass over the covering for delta = 0 and the weighted
    deltas: the ``ids[0]`` report, built from the delta = 0 entries, then
    one ``ids[1]`` report per weighted delta.  A kernel whose dimension is
    not the covering's is a ValueError."""
    _check_dimensions(k, covering)
    deltas = tuple(dict.fromkeys((0.0,) + tuple(weighted)))
    per_delta: dict[float, list[CuboidEntry]] = {d: [] for d in deltas}
    for i, q in enumerate(covering.cuboids):
        for e in entry_fn(q, i, deltas):
            per_delta[e.metadata["delta"]].append(e)

    def report(condition_id, parameters, delta):
        return VerificationReport(
            condition_id=condition_id, covering_id=covering_id(covering),
            kernel_id=k.kind, parameters=parameters,
            per_cuboid=per_delta[delta])

    return [report(ids[0], params, 0.0)] + [
        report(ids[1], {"gamma": gamma, "delta": d, **params}, d)
        for d in weighted]


def complement_reports(k: KernelFamily, covering: AdmissibleCovering,
                       settings: VerifierSettings = VerifierSettings(), *,
                       gamma: float | None = None,
                       deltas: Sequence[float] | None = None
                       ) -> list[VerificationReport]:
    """(A1') and (A1) from one pass over the covering.

    The pass always runs delta = 0 and, when ``gamma`` is given, the (A1)
    deltas (default {0, gamma/2, 0.9 gamma}).  Returns the A1prime report
    first, built from the delta = 0 entries, then one A1 report per (A1)
    delta.
    """
    params = {"window_factor": settings.window_factor,
              "tgrid_ppd": settings.tgrid_ppd, "qmc_y": settings.qmc_y,
              "kappa": covering.kappa}
    return _paired_reports(
        lambda q, i, ds: _a1_entry(k, q, i, covering, ds, settings),
        k, covering, ("A1prime", "A1"), params, gamma,
        _weighted_deltas(gamma, deltas))


def verify_A1prime(k: KernelFamily, covering: AdmissibleCovering,
                   settings: VerifierSettings = VerifierSettings()
                   ) -> VerificationReport:
    """Per cuboid: integral over (Q**)^c of sup_t T_t(x, y), maxed over y."""
    return complement_reports(k, covering, settings)[0]


def verify_A1(k: KernelFamily, covering: AdmissibleCovering, gamma: float,
              deltas: Sequence[float] | None = None,
              settings: VerifierSettings = VerifierSettings()
              ) -> list[VerificationReport]:
    """Weighted complement integrals d_Q^{-2 delta} int sup_t t^delta T_t.

    One report per delta; the deltas default to {0, gamma/2, 0.9 gamma}
    and every delta shares the single kernel evaluation grid per probe.
    """
    return complement_reports(k, covering, settings, gamma=gamma,
                              deltas=deltas)[1:]


def comparison_reports(k: KernelFamily, covering: AdmissibleCovering,
                       settings: VerifierSettings = VerifierSettings(), *,
                       gamma: float | None = None,
                       deltas: Sequence[float] | None = None,
                       comparison: KernelFamily | None = None
                       ) -> list[VerificationReport]:
    """(A2') and (A2) from one pass over the covering.

    The deltas and the report order are those of
    :func:`complement_reports`: the A2prime report first, then one A2
    report per (A2) delta.  The comparison kernel defaults to the family's
    designated tilde kernel.
    """
    comp = comparison if comparison is not None else k.comparison()
    params = {"comparison": comp.kind, "tgrid_ppd": settings.tgrid_ppd,
              "qmc_y": settings.qmc_y, "kappa": covering.kappa}
    return _paired_reports(
        lambda q, i, ds: _a2_entry(k, comp, q, i, covering, ds, settings),
        k, covering, ("A2prime", "A2"), params, gamma,
        _weighted_deltas(gamma, deltas))


def verify_A2(k: KernelFamily, covering: AdmissibleCovering, gamma: float,
              deltas: Sequence[float] | None = None,
              settings: VerifierSettings = VerifierSettings(),
              comparison: KernelFamily | None = None
              ) -> list[VerificationReport]:
    """d_Q^{2 delta} int over Q** of sup_{t <= d_Q^2} t^{-delta} |T_t - H_t|."""
    return comparison_reports(k, covering, settings, gamma=gamma,
                              deltas=deltas, comparison=comparison)[1:]


def verify_A2prime(k: KernelFamily, covering: AdmissibleCovering,
                   settings: VerifierSettings = VerifierSettings()
                   ) -> VerificationReport:
    """The delta = 0 comparison against the family's designated tilde kernel."""
    return comparison_reports(k, covering, settings)[0]


# ---------------------------------------------------------------------------
# (a3) / (a4)
# ---------------------------------------------------------------------------

def verify_a3_a4(k: KernelFamily, covering: AdmissibleCovering,
                 partition: PartitionOfUnity,
                 settings: VerifierSettings = VerifierSettings()
                 ) -> tuple[VerificationReport, VerificationReport]:
    """Large-time local mass (a3) and the partition commutator sum (a4)."""
    s = settings
    params = {"tgrid_ppd": s.tgrid_ppd, "qmc_y": s.qmc_y,
              "kappa": covering.kappa}
    [report_a3] = _paired_reports(
        lambda q, i, ds: _a3_entry(k, q, i, covering, ds, s),
        k, covering, ("a3",), params, None, ())

    # (a4): window-wide y samples against the whole cuboid sum
    win_lo = np.asarray(covering.window_box[0], dtype=float)
    win_hi = np.asarray(covering.window_box[1], dtype=float)
    d = covering.dimension
    ys = [np.array(q.center) for q in covering.cuboids[::max(1, len(covering.cuboids) // 4)]]
    ys.extend(win_lo + halton(s.qmc_y, d) * (win_hi - win_lo))
    entries_a4 = []
    for j, y in enumerate(ys):
        y_pt = y[0] if d == 1 else y
        psi_y = partition.evaluate_all(np.array([y]))[:, 0]
        total = 0.0
        err_total = 0.0
        for i, q in enumerate(covering.cuboids):
            d_q = q.diameter
            hole = q.enlarged(covering.kappa, 2)
            lo, hi = hole.box()
            # psi is only defined on the covered window; clip there
            lo = np.maximum(lo, win_lo)
            hi = np.minimum(hi, win_hi)
            rule = rule_for_box(lo, hi, max(24, s.box_nodes // 2))
            grid = _clamped_grid(k, _TGRID_SPAN[0] * d_q * d_q,
                                 d_q * d_q, max(8, s.tgrid_ppd // 2))

            def integrand(x):
                sup = sup_over_t(lambda t: k.eval(t, x, y_pt), grid,
                                 golden_iters=0).values[0]
                psi_x = partition.evaluate(
                    i, x if d > 1 else np.asarray(x), strict=False)
                return sup * np.abs(psi_x - psi_y[i])
            res = integrate(rule, integrand)
            if not math.isfinite(res.value):
                raise QuadratureError(
                    f"(a4) integral not finite at y = {y_pt}, cuboid {i}")
            total += res.value
            err_total += res.error
        entries_a4.append(CuboidEntry(
            index=j, label=f"y{j}", constant=total, error=err_total,
            metadata={"y": float(y[0]) if d == 1 else float(np.linalg.norm(y))}))
    report_a4 = VerificationReport(
        condition_id="a4", covering_id=covering_id(covering),
        kernel_id=k.kind, parameters=params, per_cuboid=entries_a4)
    return report_a3, report_a4


# ---------------------------------------------------------------------------
# Schrodinger conditions (D') and (K)
# ---------------------------------------------------------------------------

def verify_schrodinger_D(k: SchrodingerKernel, covering: AdmissibleCovering,
                         rho_target: float = 2.0, n_max: int = 8,
                         settings: VerifierSettings = VerifierSettings()
                         ) -> VerificationReport:
    """Full-domain mass at times 2^n d_Q^2; fits the achievable decay rate.

    The fitted constant per cuboid is rho_hat = exp(-slope) from the
    least-squares fit of log(mass) against n; the report passes when
    every cuboid achieves rho_hat >= rho_target.

    Each mass (the largest over the y samples) is the eigen sum
    sum_k e^{-t lambda_k} phi_k(x) S_k, S_k = sum_j phi_k(x_j), and it
    must lie above its roundoff floor, or QuadratureError is raised: a
    value at the floor carries no digit, and a fit of its log fits noise.
    The floor: the eigenvectors are orthonormal, and their computed
    components carry absolute errors of order eps.  So phi_k(x), which
    interpolates two components, is off by about eps, and S_k by at most
    sum_j |d phi_k(x_j)| <= sqrt(n) ||d phi_k||_2, about sqrt(n) eps
    (Cauchy-Schwarz).  Term k is then off by about
    eps e^{-t lambda_k} (|S_k| + sqrt(n) |phi_k(x)|), which also bounds
    the rounding of the sum itself (|phi_k(x)| <= 1), and the floor is
    eps sum_k e^{-t lambda_k} (|S_k| + sqrt(n) |phi_k(x)|)
    (``SchrodingerKernel._box_mass_floor``).  Near the Dirichlet edge of
    the truncation box the true masses fall far below it.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    _check_dimensions(k, covering)
    entries = []
    t_cap = k.max_valid_time()
    for i, q in enumerate(covering.cuboids):
        d_q = q.diameter
        ns = [n for n in range(n_max + 1) if 2.0 ** n * d_q * d_q <= t_cap]
        if len(ns) < 2:
            raise QuadratureError(
                f"cuboid {i}: validity cap allows fewer than two (D') times")
        masses = []
        for n in ns:
            t = 2.0 ** n * d_q * d_q
            m, x = max((mass(k, t, float(y[0]), math.inf, rtol=1e-8),
                        float(y[0]))
                       for y in y_samples(q, covering.kappa, settings.qmc_y))
            floor = k._box_mass_floor(t, x)
            if not m > floor:
                raise QuadratureError(
                    f"(D') mass not above its eigen-sum floor at cuboid {i} "
                    f"(center {q.center}), n = {n}: {m:g} <= {floor:g}")
            masses.append(m)
        log_m = np.log(masses)
        slope = np.polyfit(np.array(ns, dtype=float), log_m, 1)[0]
        rho_hat = math.exp(-slope)
        entries.append(CuboidEntry(
            index=i, label=f"Q{i} d={d_q:g}", constant=rho_hat,
            error=0.0,
            metadata={"d_q": d_q, "n_used": float(len(ns)),
                      **{f"mass_n{n}": m for n, m in zip(ns, masses)}}))
    passed = all(e.constant >= rho_target for e in entries)
    return VerificationReport(
        condition_id="Dprime", covering_id=covering_id(covering),
        kernel_id=k.kind,
        parameters={"rho_target": rho_target, "n_max": n_max,
                    "qmc_y": settings.qmc_y, "passed": passed},
        per_cuboid=entries,
        notes=[f"rho_target {'met' if passed else 'NOT met'} on every cuboid"])


def _heat_time_integral(t, r):
    """int_0^t (4 pi s)^{-1/2} exp(-r^2 / 4s) ds in closed form,
    sqrt(t) e^{-u^2} (1/sqrt(pi) - u erfcx(u)) with u = |r| / (2 sqrt(t)).

    Broadcasts over t > 0 and r.
    """
    sqrt_t = np.sqrt(t)
    u = np.abs(r) / (2.0 * sqrt_t)
    return sqrt_t * np.exp(-u * u) * (1.0 / math.sqrt(math.pi) - u * erfcx(u))


def verify_schrodinger_K(k: SchrodingerKernel, covering: AdmissibleCovering,
                         sigma_target: float = 0.1,
                         settings: VerifierSettings = VerifierSettings()
                         ) -> VerificationReport:
    """Fits sigma from F(t) = int_0^t int H_s(x,y) chi_{Q***} V dx ds.

    F is evaluated on a small geometric t-grid below d_Q^2; sigma_hat is
    the log-log slope and the fitted constant is max F(t)/(t/d_Q^2)^sigma.
    A potential that vanishes on Q*** makes the condition trivially true.
    """
    _check_dimensions(k, covering)
    grid_x = k.grid
    v = k.potential_values
    entries = []
    for i, q in enumerate(covering.cuboids):
        d_q = q.diameter
        lo, hi = q.enlarged(covering.kappa, 3).box()
        sel = (grid_x >= lo[0]) & (grid_x <= hi[0])
        ts = np.geomspace(d_q * d_q / 4096.0, d_q * d_q, 13)
        ys = y_samples(q, covering.kappa, settings.qmc_y)[:, 0]
        # (times, y samples, grid points) of int_0^t H_s(x_j, y) ds
        heat_int = _heat_time_integral(
            ts[:, None, None], grid_x[sel][None, None, :] - ys[None, :, None])
        fvals = np.max(k.h * (heat_int @ v[sel]), axis=1)
        if np.all(fvals <= 0.0):
            entries.append(CuboidEntry(
                index=i, label=f"Q{i} d={d_q:g}", constant=0.0, error=0.0,
                metadata={"d_q": d_q, "sigma_hat": math.inf,
                          "trivially_true": 1.0}))
            continue
        ratio = ts / (d_q * d_q)
        # the exponent comes from the small-t half of the grid
        half = max(3, len(ts) // 2)
        sigma_hat = float(np.polyfit(np.log(ratio[:half]),
                                     np.log(fvals[:half]), 1)[0])
        c_fit = float(np.max(fvals / ratio ** sigma_hat))
        entries.append(CuboidEntry(
            index=i, label=f"Q{i} d={d_q:g}", constant=c_fit, error=0.0,
            metadata={"d_q": d_q, "sigma_hat": sigma_hat}))
    sigmas = [e.metadata["sigma_hat"] for e in entries]
    passed = all(sg >= sigma_target for sg in sigmas)
    return VerificationReport(
        condition_id="K", covering_id=covering_id(covering),
        kernel_id=k.kind,
        parameters={"sigma_target": sigma_target, "qmc_y": settings.qmc_y,
                    "passed": passed},
        per_cuboid=entries,
        notes=[f"sigma_hat per cuboid: {[round(sg, 4) for sg in sigmas]}"])


# ---------------------------------------------------------------------------
# Small-time limits
# ---------------------------------------------------------------------------

def verify_smalltime_limits(k: KernelFamily, x_samples: Sequence[float],
                            r_list: Sequence[float],
                            t_list: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                            tolerance: float = 1e-2) -> VerificationReport:
    """Inner/outer mass along t -> 0: inner -> 1 and outer -> 0.

    Asserted only for probes whose distance to the domain boundary is at
    least r; boundary-adjacent probes are reported without assertion.
    """
    if k.dimension != 1:
        raise ValueError(f"small-time limits need a 1-D kernel, "
                         f"got dimension {k.dimension}")
    dom_lo, dom_hi = k.domain.intervals[0]
    entries = []
    idx = 0
    worst_asserted = 0.0
    for x in x_samples:
        # the full-domain mass does not depend on r
        totals = [mass(k, t, x, math.inf, rtol=1e-8) for t in t_list]
        for r in r_list:
            interior = (x - dom_lo >= r if math.isfinite(dom_lo) else True) \
                and (dom_hi - x >= r if math.isfinite(dom_hi) else True)
            meta = {"x": x, "r": r, "interior": float(interior)}
            for t, total in zip(t_list, totals):
                inner = mass(k, t, x, r, rtol=1e-8)
                meta[f"inner_t{t:g}"] = inner
                meta[f"outer_t{t:g}"] = max(total - inner, 0.0)
            t_final = t_list[-1]
            dev = max(abs(meta[f"inner_t{t_final:g}"] - 1.0),
                      meta[f"outer_t{t_final:g}"])
            if interior:
                worst_asserted = max(worst_asserted, dev)
            entries.append(CuboidEntry(
                index=idx, label=f"x={x:g} r={r:g}", constant=dev,
                error=0.0, metadata=meta))
            idx += 1
    passed = worst_asserted <= tolerance
    return VerificationReport(
        condition_id="smalltime_limits", covering_id="(point probes)",
        kernel_id=k.kind,
        parameters={"tolerance": tolerance, "t_final": t_list[-1],
                    "passed": passed},
        per_cuboid=entries,
        notes=[f"worst interior deviation at t={t_list[-1]:g}: {worst_asserted:.3e}"])


# ---------------------------------------------------------------------------
# Envelope fits
# ---------------------------------------------------------------------------

def _probe_set(n: int, t_range, x_range, d: int,
               start: int = 7) -> tuple[np.ndarray, ...]:
    pts = halton(n, 1 + 2 * d, start=start)
    t = t_range[0] * (t_range[1] / t_range[0]) ** pts[:, 0]
    x = x_range[0] + (x_range[1] - x_range[0]) * pts[:, 1:1 + d]
    y = x_range[0] + (x_range[1] - x_range[0]) * pts[:, 1 + d:]
    if d == 1:
        return t, x[:, 0], y[:, 0]
    return t, x, y


def _max_log_ratios(k: KernelFamily, log_envs: Sequence[Callable],
                    n_probes: int, t_range, x_range,
                    start: int = 7) -> list[float]:
    """max over Halton probes start, ..., start + n_probes - 1 of
    log T_t(x, y) - log_env(t, x, y, |x - y|^2), one per log_env, from one
    kernel evaluation.  Kernel values at the underflow floor (1e-250)
    carry no envelope information and count as log T = -inf."""
    d = k.dimension
    t, x, y = _probe_set(n_probes, t_range, x_range, d, start)
    vals = k.eval(t, x, y)
    log_vals = np.where(vals > 1e-250, np.log(np.maximum(vals, 1e-300)),
                        -np.inf)
    r2 = _dist2(x, y, d)
    return [float(np.max(log_vals - log_env(t, x, y, r2)))
            for log_env in log_envs]


def verify_A0prime(k: KernelFamily, nu: float = 0.5, n_probes: int = 4000,
                   t_range=(1e-4, 1e3), x_range=(0.05, 16.0)) -> VerificationReport:
    """Fitted constant in T_t <= C t^nu / (t + |x-y|^2)^{d/2 + nu}."""
    p = k.dimension / 2.0 + nu
    [log_c] = _max_log_ratios(
        k, [lambda t, x, y, r2: nu * np.log(t) - p * np.log(t + r2)],
        n_probes, t_range, x_range)
    entry = CuboidEntry(
        index=0, label="probe set", constant=math.exp(log_c), error=0.0,
        metadata={"n_probes": float(n_probes), "nu": nu})
    return VerificationReport(
        condition_id="A0prime", covering_id="(probe set)",
        kernel_id=k.kind,
        parameters={"nu": nu, "n_probes": n_probes,
                    "t_range": t_range, "x_range": x_range},
        per_cuboid=[entry])


def fit_gaussian_envelope(k: KernelFamily, n_probes: int = 4000,
                          t_range=(1e-4, 1e2), x_range=(0.05, 16.0),
                          c_candidates=(4.0, 4.5, 5.0, 6.0, 8.0, 12.0, 20.0)
                          ) -> VerificationReport:
    """Fitted (C, c) in T_t <= C t^{-d/2} exp(-|x-y|^2 / (c t)) (1-D factors)."""
    d = k.dimension
    log_cs = _max_log_ratios(
        k, [lambda t, x, y, r2, c=c: -(d / 2.0) * np.log(t) - r2 / (c * t)
            for c in c_candidates],
        n_probes, t_range, x_range)
    scan = {c: float(np.exp(lc)) for c, lc in zip(c_candidates, log_cs)}
    c_star = next((c for c in c_candidates if math.isfinite(scan[c])), None)
    entry = CuboidEntry(
        index=0, label="probe set", constant=scan[c_star], error=0.0,
        metadata={"c": c_star, **{f"C_at_c{c:g}": v for c, v in scan.items()}})
    return VerificationReport(
        condition_id="A0gauss", covering_id="(probe set)",
        kernel_id=k.kind,
        parameters={"n_probes": n_probes, "t_range": t_range,
                    "x_range": x_range, "c": c_star},
        per_cuboid=[entry])


def verify_laguerre_envelope(k: KernelFamily, n_probes: int = 10000,
                             t_range=(1e-4, 10.0), x_range=(0.05, 20.0),
                             c_grid=None) -> VerificationReport:
    """Smallest (C, c) with
    T_t <= C t^{-1/2} e^{-c|x-y|^2/t} e^{-c t x y} min(1, (xy/t)^{alpha+1/2}).

    The fit scans c, takes C(c) as the max probe ratio, keeps the largest
    c whose C stays within a factor 3 of the best, then checks the fitted
    constants on the next ``n_probes`` Halton points, held out of the fit:
    the check passes when no held-out ratio exceeds 1 + 1e-9.
    """
    alpha = k.alpha

    def log_env(c):
        return lambda t, x, y, r2: (
            -0.5 * np.log(t) - c * r2 / t - c * t * (x * y)
            + np.minimum(0.0, (alpha + 0.5) * (np.log(x * y) - np.log(t))))

    cs = [float(c) for c in (np.geomspace(1e-3, 0.26, 24) if c_grid is None
                             else c_grid)]
    scan = dict(zip(cs, _max_log_ratios(k, [log_env(c) for c in cs],
                                        n_probes, t_range, x_range)))
    cut = min(scan.values()) + math.log(3.0)
    c_star = max(c for c, lr in scan.items() if lr <= cut)
    c_fit = math.exp(scan[c_star])
    [log_held_out] = _max_log_ratios(k, [log_env(c_star)], n_probes, t_range,
                                     x_range, start=7 + n_probes)
    violation = math.exp(log_held_out - scan[c_star])
    passed = violation <= 1.0 + 1e-9
    t, x, y = _probe_set(n_probes, t_range, x_range, 1)
    branch_small = float(np.mean(np.log(x * y) < np.log(t)))
    entry = CuboidEntry(
        index=0, label="probe set", constant=c_fit, error=0.0,
        metadata={"c": c_star, "max_violation_ratio": violation,
                  "fraction_small_xy_branch": branch_small})
    return VerificationReport(
        condition_id="laguerre_envelope", covering_id="(probe set)",
        kernel_id=k.kind,
        parameters={"alpha": alpha, "n_probes": n_probes, "c": c_star,
                    "passed": passed},
        per_cuboid=[entry],
        notes=[f"max violation ratio {violation:.12f} on {n_probes} held-out "
               "probes (must be <= 1 + 1e-9)"])


# ---------------------------------------------------------------------------
# Atom maximal norms
# ---------------------------------------------------------------------------

def maximal_norm(k: KernelFamily, atom: Atom,
                 settings: VerifierSettings = VerifierSettings()
                 ) -> tuple[float, float, dict]:
    """L^1 norm over the truncated window of sup_t |T_t a|.

    T_t a is the kernel's ``step_apply``: exact for heat, Bessel(1) and
    Laguerre(1/2) (erfc at the atom's run boundaries, one call for a whole
    t-grid chunk), a midpoint sum over the cells, one kernel evaluation
    per time, for every other kernel.  The time grid (10 points per
    decade, each maximum refined by 4 Brent-style ``golden_refine`` steps)
    starts at the square of half an atom cell; below that the
    small-time end is realized by the |a(x)| floor (the t -> 0 limit).
    One ``sup_over_t`` per atom covers both rules, the box around the
    atom and its complement in the window, at both Richardson levels.
    The midpoint sum aliases there, by about 2 e^{-4 pi^2 t/h^2} relative
    at t = (h/2)^2, and so sits about 1.7e-5 relative above the exact
    norm at any number of cells.  The error, the coarse-fine difference of
    both rules, is judged by ``hardykit maximal``, not here.  Atoms are
    1-D: a kernel or a host cuboid of another dimension is a ValueError.
    A norm that is not finite raises QuadratureError.
    """
    q = atom.host
    if k.dimension != 1 or q.dimension != 1:
        raise ValueError(f"maximal norms need a 1-D kernel and covering, got "
                         f"kernel dimension {k.dimension} and covering "
                         f"dimension {q.dimension}")
    d_q = q.diameter
    win_lo, win_hi = _window_for(q, settings.window_factor)
    inner = q.enlarged(1.6, 3)
    in_lo, in_hi = inner.box()
    in_lo = np.maximum(in_lo, win_lo)
    in_hi = np.minimum(in_hi, win_hi)
    rule_in = rule_for_box(in_lo, in_hi, 192)
    rule_out = rule_for_complement(win_lo, win_hi, in_lo, in_hi,
                                   nodes_near=24, nodes_cross=16)
    grid = _clamped_grid(k, (atom.cell_width / 2.0) ** 2, 1e4 * d_q * d_q, 10)
    x_in, w_in_coarse, w_in_fine = rule_in.richardson_nodes()
    x_out, w_out_coarse, w_out_fine = rule_out.richardson_nodes()
    x = np.concatenate([x_in, x_out])
    sup = sup_over_t(lambda t: np.abs(k.step_apply(t, x, atom)), grid,
                     golden_iters=4).values[0]
    vals = np.maximum(sup, np.abs(atom(x)))
    res_in = richardson(vals[:len(x_in)], w_in_coarse, w_in_fine)
    res_out = richardson(vals[len(x_in):], w_out_coarse, w_out_fine)
    value = res_in.value + res_out.value
    error = res_in.error + res_out.error
    if not math.isfinite(value):
        raise QuadratureError("maximal-function norm not finite")
    meta = {"window": (float(win_lo[0]), float(win_hi[0])),
            "t_min": grid.t_min, "t_max": grid.t_max,
            "atom_l1": atom.l1_norm}
    return value, error, meta
