"""Command-line front end.

Subcommands
-----------
covering          validate a covering window, write its listing (CSV) and,
                  in two dimensions, an SVG with one rectangle per cuboid
verify            run the condition campaigns listed in the config and
                  write one CSV plus one structured text report each
maximal           generate atoms over the covering window and measure
                  their maximal-function norms
decompose         localize an input grid function and decompose each
                  piece into atoms
subordinate-check run the nu = 1/2 closed-form oracles for the
                  subordination machinery

Configs are sectioned key=value files; every default is echoed into
``config_echo.txt`` in the output directory so runs are reproducible.
Exit codes: 0 every report passed, 1 condition failure, 2 numerical
failure (a quadrature budget was exhausted or a value is not finite).
``verify`` and ``maximal`` judge every report by one rule,
``VerificationReport.passed``: its constants finite, each error column
within ``error_budget_rel`` of its value ((a3)/(a4) and the maximal
norms included), and the target check its estimator recorded.

Subordinate kernels are exposed at the substituted time: with base
kernel T and index nu, ``eval(t)`` is the fractional-power kernel at
time t^nu, the form every reported estimate consumes.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import atoms, coverings, kernels, verifier
from .domain import real_line
from .errors import DomainError, QuadratureError
from .specfun import StableDensityParams, stable_laplace_check

_DEFAULTS = {
    "kernel": {
        "kind": "bessel", "beta": "1.0", "alpha": "0.5", "nu": "0.5",
        "d": "1", "potential": "one", "box_half_width": "20.0",
        "n_points": "2000", "base": "euclidean_heat", "factors": "",
    },
    "covering": {
        "family": "bessel", "window": "-3..3", "kappa": "1.05",
        "tau": "1.0", "extent": "8.0",
    },
    "conditions": {
        "list": "A1prime,A2prime", "gamma": "0.2", "rho_target": "2.0",
        "sigma_target": "0.1", "n_max": "8",
    },
    "quadrature": {f.name: str(f.default)
                   for f in fields(verifier.VerifierSettings)},
    "maximal": {"atoms_per_cuboid": "4", "cells": "128"},
    "decompose": {"depth": "8", "cells": "1024"},
}


@dataclass
class CampaignConfig:
    raw: configparser.ConfigParser
    seed: int = 0
    threads: int = 1

    def get(self, section: str, key: str) -> str:
        return self.raw.get(section, key)

    def getfloat(self, section: str, key: str) -> float:
        return self.raw.getfloat(section, key)

    def getint(self, section: str, key: str) -> int:
        return self.raw.getint(section, key)

    def echo_lines(self) -> list[str]:
        lines = [f"seed = {self.seed}", f"threads = {self.threads}"]
        for section in self.raw.sections():
            lines.append(f"[{section}]")
            for key in sorted(self.raw[section]):
                lines.append(f"{key} = {self.raw[section][key]}")
        return lines


def load_config(path: str | None, seed: int, threads: int) -> CampaignConfig:
    """Defaults overlaid with the file; a section or key that has no
    default is a ValueError naming it."""
    # no %-interpolation: a '%' in a value is text
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(_DEFAULTS)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"config file {path!r}: {exc}") from exc
        if not read:
            raise FileNotFoundError(f"config file {path!r} not found")
    for key in parser.defaults():
        raise ValueError(f"unknown config key {key!r} in section [DEFAULT]")
    for section in parser.sections():
        known = _DEFAULTS.get(section)
        if known is None:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in known:
                raise ValueError(
                    f"unknown config key {key!r} in section [{section}]")
    return CampaignConfig(raw=parser, seed=seed, threads=threads)


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def build_covering(cfg: CampaignConfig) -> coverings.AdmissibleCovering:
    family = cfg.get("covering", "family").strip().lower()
    kappa = cfg.getfloat("covering", "kappa")
    window = cfg.get("covering", "window")
    if family == "bessel":
        return coverings.covering_bessel(_parse_window(window), kappa)
    if family == "laguerre":
        return coverings.covering_laguerre(_parse_window(window), kappa)
    if family == "uniform":
        tau = cfg.getfloat("covering", "tau")
        lo, hi = (float(v) for v in window.split(".."))
        return coverings.covering_uniform(real_line(1), tau, ([lo], [hi]), kappa)
    if family == "bessel-box":
        w = _parse_window(window)
        return coverings.box_product(coverings.covering_bessel(w, kappa),
                                     coverings.covering_bessel(w, kappa))
    if family == "laguerre-box":
        w = _parse_window(window)
        return coverings.box_product(coverings.covering_laguerre(w, kappa),
                                     coverings.covering_laguerre(w, kappa))
    if family == "bessel-laguerre-box":
        w = _parse_window(window)
        return coverings.box_product(coverings.covering_bessel(w, kappa),
                                     coverings.covering_laguerre(w, kappa))
    if family == "line-bessel":
        extent = cfg.getfloat("covering", "extent")
        return coverings.covering_line_strips(
            coverings.covering_bessel(_parse_window(window), kappa), extent)
    raise ValueError(f"unknown covering family {family!r}")


_POTENTIALS = {
    "zero": lambda x: np.zeros_like(x),
    "one": lambda x: np.ones_like(x),
    "x2": lambda x: x * x,
}


def _base_kernel(name: str, cfg: CampaignConfig,
                 factor: bool = False) -> kernels.KernelFamily:
    """The kernel whose kind is exactly ``name``.  A product factor may
    give Bessel's beta or Laguerre's alpha after a colon: ``bessel:2``."""
    name = name.strip().lower()
    kind, colon, arg = name.partition(":")
    if colon and not (factor and kind in ("bessel", "laguerre")):
        raise ValueError(f"unknown kernel kind {name!r}")
    if kind == "euclidean_heat":
        return kernels.EuclideanHeat(cfg.getint("kernel", "d"))
    if kind == "bessel":
        beta = float(arg) if arg else cfg.getfloat("kernel", "beta")
        return kernels.BesselKernel(beta)
    if kind == "laguerre":
        alpha = float(arg) if arg else cfg.getfloat("kernel", "alpha")
        return kernels.LaguerreKernel(alpha)
    if kind == "stable":
        return kernels.StableKernel(cfg.getfloat("kernel", "nu"),
                                    cfg.getint("kernel", "d"))
    if kind == "schrodinger":
        potential = cfg.get("kernel", "potential").strip().lower()
        if potential not in _POTENTIALS:
            raise ValueError(f"unknown [kernel] potential {potential!r}")
        return kernels.schrodinger_build(
            _POTENTIALS[potential], cfg.getfloat("kernel", "box_half_width"),
            cfg.getint("kernel", "n_points"))
    raise ValueError(f"unknown kernel kind {name!r}")


def build_kernel(cfg: CampaignConfig) -> kernels.KernelFamily:
    kind = cfg.get("kernel", "kind").strip().lower()
    if kind == "subordinate":
        base = _base_kernel(cfg.get("kernel", "base"), cfg)
        return kernels.SubordinateKernel(base, cfg.getfloat("kernel", "nu"))
    if kind == "product":
        factors = [_base_kernel(f, cfg, factor=True)
                   for f in cfg.get("kernel", "factors").split(",") if f.strip()]
        return kernels.ProductKernel(factors)
    return _base_kernel(kind, cfg)


def build_settings(cfg: CampaignConfig) -> verifier.VerifierSettings:
    """Each [quadrature] key parsed as the type of its default."""
    q = cfg.raw["quadrature"]
    return verifier.VerifierSettings(**{
        f.name: type(f.default)(q[f.name].strip())
        for f in fields(verifier.VerifierSettings)})


def gamma_window(k: kernels.KernelFamily) -> float:
    """Upper end of the admissible gamma interval for the family."""
    if isinstance(k, kernels.BesselKernel):
        return min(0.5, k.beta / 2.0)
    if isinstance(k, kernels.LaguerreKernel):
        return min(0.25, k.alpha / 2.0 + 0.25)
    if isinstance(k, kernels.ProductKernel):
        return min(gamma_window(f) for f in k.factors)
    return 1.0 / 3.0


def clamp_gamma(gamma: float, k: kernels.KernelFamily) -> tuple[float, bool]:
    bound = min(gamma_window(k), 1.0 / 3.0)
    if gamma >= bound:
        return 0.95 * bound, True
    return gamma, False


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _echo_config(cfg: CampaignConfig, out: Path):
    _write(out / "config_echo.txt", "\n".join(cfg.echo_lines()) + "\n")


def covering_csv(c: coverings.AdmissibleCovering) -> str:
    lines = ["index,center,half_widths,d_q"]
    for i, q in enumerate(c.cuboids):
        center = ";".join(repr(v) for v in q.center)
        half = ";".join(repr(v) for v in q.half_widths)
        lines.append(f"{i},{center},{half},{q.diameter!r}")
    return "\n".join(lines) + "\n"


def cmd_covering(cfg: CampaignConfig, out: Path) -> int:
    cov = build_covering(cfg)
    _echo_config(cfg, out)
    _write(out / "covering.csv", covering_csv(cov))
    if cov.dimension == 2:
        _write(out / "covering.svg", coverings.covering_svg(cov))
        log_ok = all(a > 0 for a, _ in cov.domain.intervals)
        if log_ok:
            _write(out / "covering_log.svg",
                   coverings.covering_svg(cov, log_axes=True))
    report = coverings.validate_covering(cov)
    text = [report.summary()]
    if report.uncovered_points:
        text.append(f"uncovered sample points: {report.uncovered_points}")
    if report.overlap_violations:
        text.append(f"overlap violations: {report.overlap_violations}")
    if report.neighbour_counterexamples:
        text.append(f"neighbour mismatches: {report.neighbour_counterexamples}")
    _write(out / "covering_report.txt", "\n".join(text) + "\n")
    print(report.summary())
    return 0 if report.passed else 1


class _ConditionRun:
    """What the condition runners share: the kernel, covering, settings
    and gamma of the campaign, and the passes that serve two conditions."""

    def __init__(self, cfg: CampaignConfig, wanted: set[str]):
        self.cfg = cfg
        self.k = build_kernel(cfg)
        self.cov = build_covering(cfg)
        self.settings = build_settings(cfg)
        self.gamma_req = cfg.getfloat("conditions", "gamma")
        self.gamma, self.clamped = clamp_gamma(self.gamma_req, self.k)
        self.wanted = wanted
        self._pairs = {}

    def pair(self, family: str):
        """(prime report, weighted reports) of the (A1'/A1) or (A2'/A2)
        pass, computed once for whichever of the two are wanted."""
        if family not in self._pairs:
            estimator = (verifier.complement_reports if family == "a1"
                         else verifier.comparison_reports)
            reports = estimator(
                self.k, self.cov, self.settings,
                gamma=self.gamma if family in self.wanted else None)
            self._pairs[family] = (reports[0], reports[1:])
        return self._pairs[family]


def _delta_tagged(name: str, reports) -> list:
    return [(rep, f"{name}_delta{rep.parameters['delta']:.3f}")
            for rep in reports]


def _schrodinger_D(run: _ConditionRun) -> list:
    cfg = run.cfg
    return [(verifier.verify_schrodinger_D(
        run.k, run.cov, cfg.getfloat("conditions", "rho_target"),
        cfg.getint("conditions", "n_max"), run.settings), None)]


def _schrodinger_K(run: _ConditionRun) -> list:
    return [(verifier.verify_schrodinger_K(
        run.k, run.cov, run.cfg.getfloat("conditions", "sigma_target"),
        run.settings), None)]


def _a3_a4(run: _ConditionRun) -> list:
    part = coverings.partition_of_unity(run.cov)
    rep3, rep4 = verifier.verify_a3_a4(run.k, run.cov, part, run.settings)
    return [(rep3, None), (rep4, None)]


def _smalltime(run: _ConditionRun) -> list:
    lo = run.cov.window_box[0][0]
    hi = run.cov.window_box[1][0]
    xs = [lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)]
    return [(verifier.verify_smalltime_limits(run.k, xs, [0.1, 0.5]), None)]


# condition name -> runner giving [(report, file tag or None)]
CONDITIONS = {
    "a1prime": lambda run: [(run.pair("a1")[0], None)],
    "a2prime": lambda run: [(run.pair("a2")[0], None)],
    "a1": lambda run: _delta_tagged("A1", run.pair("a1")[1]),
    "a2": lambda run: _delta_tagged("A2", run.pair("a2")[1]),
    "a0prime": lambda run: [(verifier.verify_A0prime(run.k), None)],
    "a0gauss": lambda run: [(verifier.fit_gaussian_envelope(run.k), None)],
    "dprime": _schrodinger_D,
    "k": _schrodinger_K,
    "a3a4": _a3_a4,
    "smalltime": _smalltime,
    "laguerre_envelope": lambda run: [
        (verifier.verify_laguerre_envelope(run.k), None)],
}


def _run_conditions(cfg: CampaignConfig, out: Path) -> tuple[bool, list[str]]:
    wanted = [c.strip() for c in cfg.get("conditions", "list").split(",")
              if c.strip()]
    summaries = []
    all_ok = True
    run = _ConditionRun(cfg, {c.lower() for c in wanted})
    for cond in wanted:
        runner = CONDITIONS.get(cond.lower())
        if runner is None:
            raise ValueError(f"unknown condition {cond!r}")
        for report, tag in runner(run):
            name = tag or report.condition_id
            if run.clamped:
                report = replace(report, notes=[
                    *report.notes, f"gamma clamped from {run.gamma_req} "
                    f"to {run.gamma} (family window)"])
            _write(out / f"{name}.csv", report.to_csv())
            _write(out / f"{name}.txt", report.to_text())
            ok = report.passed(run.settings.error_budget_rel)
            summaries.append(f"{name}: C={report.sup_constant:.6g} "
                             f"err={report.max_error:.3g} "
                             f"[{'ok' if ok else 'FAIL'}]")
            all_ok = all_ok and ok
    return all_ok, summaries


def cmd_verify(cfg: CampaignConfig, out: Path) -> int:
    _echo_config(cfg, out)
    ok, summaries = _run_conditions(cfg, out)
    _write(out / "verify_summary.txt", "\n".join(summaries) + "\n")
    for line in summaries:
        print(line)
    return 0 if ok else 1


def cmd_maximal(cfg: CampaignConfig, out: Path) -> int:
    k = build_kernel(cfg)
    cov = build_covering(cfg)
    settings = build_settings(cfg)
    per = cfg.getint("maximal", "atoms_per_cuboid")
    if per < 1:
        raise ValueError(f"atoms_per_cuboid must be at least 1, got {per}")
    cells = cfg.getint("maximal", "cells")
    _echo_config(cfg, out)
    rows = ["atom_index,cuboid_index,kind,value,error,atom_l1"]
    entries = []
    for ci, q in enumerate(cov.cuboids):
        # every even j is the same local atom |Q|^{-1} chi_Q: measured once
        local = atoms.make_local_atom(q, cells)
        local_norm = verifier.maximal_norm(k, local, settings)
        for j in range(per):
            if j % 2 == 0:
                atom, (value, err, _) = local, local_norm
            else:
                atom = atoms.random_classical_atom(
                    q, cov.kappa, seed=cfg.seed * 7919 + ci * 131 + j,
                    cells=cells)
                value, err, _ = verifier.maximal_norm(k, atom, settings)
            idx = len(entries)
            rows.append(f"{idx},{ci},{atom.kind},{value!r},{err!r},"
                        f"{atom.l1_norm!r}")
            entries.append(verifier.CuboidEntry(idx, atom.kind, value, err))
    # judged by the one rule of the verify reports
    report = verifier.VerificationReport(
        "maximal", verifier.covering_id(cov), k.kind, {}, entries)
    ok = report.passed(settings.error_budget_rel)
    status = "ok" if ok else "FAIL"
    worst = report.sup_constant
    _write(out / "maximal.csv", "\n".join(rows) + "\n")
    _write(out / "maximal.txt",
           f"atoms = {len(entries)}\nmax_maximal_norm = {worst!r}\n"
           f"kernel = {k.kind}\ncovering = {report.covering_id}\n"
           f"status = {status}\n")
    print(f"max over {len(entries)} atoms of the maximal-function norm: "
          f"{worst:.6g} [{status}]")
    return 0 if ok else 1


def cmd_decompose(cfg: CampaignConfig, out: Path, input_path: str) -> int:
    cov = build_covering(cfg)
    if cov.dimension != 1:
        raise ValueError(f"decompose needs a 1-D covering, got dimension "
                         f"{cov.dimension}")
    depth = cfg.getint("decompose", "depth")
    cells = cfg.getint("decompose", "cells")
    _echo_config(cfg, out)
    f = atoms.load_grid_function(input_path)
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"input cell {k} (x = {f.centers[k]:g}) is "
                         f"{f.values[k]}: decompose needs finite values")
    win_lo = cov.window_box[0][0]
    win_hi = cov.window_box[1][0]
    support = f.centers[np.abs(f.values) > 0]
    if support.size and (support.min() < win_lo or support.max() > win_hi):
        print(f"window error: input support [{support.min():g}, "
              f"{support.max():g}] escapes the covering window "
              f"[{win_lo:g}, {win_hi:g}]", file=sys.stderr)
        return 1
    partition = coverings.partition_of_unity(cov)
    pieces = atoms.localize(f, partition, cells)
    decs = atoms.decompose_pieces(pieces, depth)
    total_l1 = 0.0
    residual = 0.0
    recon_err = 0.0
    lines = []
    for (_, fq), dec in zip(pieces, decs):
        total_l1 += dec.coefficient_l1
        residual += dec.residual_norm
        recon_err += float(fq.cell_width * np.abs(
            dec.reconstruct().values - fq.values).sum())
        lines.extend(atoms.decomposition_to_lines(dec))
    probes = np.linspace(win_lo, win_hi, 2049)[1:-1]
    identity_err = atoms.localize_reconstruction_error(f, partition, probes)
    _write(out / "decomposition.txt", "\n".join(lines) + "\n")
    _write(out / "decompose_summary.txt",
           f"coefficient_l1 = {total_l1!r}\n"
           f"residual_l1 = {residual!r}\n"
           f"reconstruction_l1_error = {recon_err!r}\n"
           f"partition_identity_error = {identity_err!r}\n"
           f"depth = {depth}\npieces = {len(pieces)}\n")
    print(f"sum|lambda| = {total_l1:.6g}, residual = {residual:.3g}, "
          f"reconstruction error = {recon_err:.3g}")
    return 0


def cmd_subordinate_check(cfg: CampaignConfig, out: Path) -> int:
    """nu = 1/2 closed-form oracles for the subordination machinery."""
    _echo_config(cfg, out)
    sub = kernels.SubordinateKernel(kernels.EuclideanHeat(1), 0.5)
    ts = np.geomspace(0.05, 5.0, 12)
    rs = np.linspace(0.0, 12.0, 9)
    mine = sub.eval((ts * ts)[:, None], rs, 0.0)
    ref = kernels.poisson_kernel(ts[:, None], rs, 0.0)
    # numpy's max, unlike Python's, propagates a NaN error into FAIL
    worst_kernel = float(np.max(np.abs(mine - ref) / ref))
    params = StableDensityParams(0.5)
    worst_laplace = float(np.max([
        abs(stable_laplace_check(params, x) - math.exp(-math.sqrt(x)))
        for x in (0.0, 0.5, 2.0, 4.0, 25.0, 100.0)]))
    ok = worst_kernel <= 1e-5 and worst_laplace <= 1e-4
    text = (f"poisson_kernel_max_rel_err = {worst_kernel!r}\n"
            f"laplace_identity_max_abs_err = {worst_laplace!r}\n"
            f"status = {'ok' if ok else 'FAIL'}\n")
    _write(out / "subordinate_check.txt", text)
    print(text, end="")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardykit",
        description="semigroup kernels, coverings, atoms, and condition campaigns")
    parser.add_argument("--config", default=None, help="sectioned key=value file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("covering")
    sub.add_parser("verify")
    sub.add_parser("maximal")
    dec = sub.add_parser("decompose")
    dec.add_argument("input", help="grid function file")
    sub.add_parser("subordinate-check")

    args = parser.parse_args(argv)
    try:
        if args.threads != 1:
            raise ValueError(f"--threads {args.threads}: only 1 is supported, "
                             "every command runs in one thread")
        cfg = load_config(args.config, args.seed, args.threads)
        out = Path(args.out)
        if args.command == "covering":
            return cmd_covering(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "maximal":
            return cmd_maximal(cfg, out)
        if args.command == "decompose":
            return cmd_decompose(cfg, out, args.input)
        if args.command == "subordinate-check":
            return cmd_subordinate_check(cfg, out)
        raise ValueError(f"unknown command {args.command}")
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
