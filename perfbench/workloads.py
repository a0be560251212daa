"""The three workloads: their inputs, what their outputs show, and the checks.

A workload's inputs come from the seed alone.  The seed picks one of
``VARIANTS`` input sets (windows, atoms, a grid function), so that each
input set has a committed reference in ``reference/``.  The variants
differ in position, not in size, so every seed asks for the same amount of
work.

``observe`` reads a repeat's output files into plain numbers; ``check``
turns an observation into one verdict per operation (a condition report,
an atom, a covering validation, a decomposed piece or an oracle check).
"""

from __future__ import annotations

import glob
import math
import os
import re

import numpy as np

VARIANTS = 4
BUDGET = 0.05        # the acceptance error budget, within_error_budget(0.05)
REL_TOL = 0.05       # agreement with the reference (acceptance tolerance)
RECON_TOL = 1e-10    # decomposition reconstruction error
SIGMA_RANGE = (0.9, 1.1)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _config(path: str, sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _command(name, config, *argv):
    return {"name": name, "config": config, "argv": list(argv)}


def _read_kv(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _reports(directory: str) -> dict:
    """{report name: [[constant, error], ...]} from a verify output dir."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.csv"))):
        rows = []
        with open(path) as fh:
            next(fh)
            for line in fh:
                fields = line.strip().split(",")
                rows.append([float(fields[2]), float(fields[3])])
        out[os.path.basename(path)[:-4]] = rows
    return out


def _entry_meta(path: str, key: str) -> list[float]:
    """Per-entry metadata values from a structured text report."""
    pattern = re.compile(rf"^meta\.{re.escape(key)} = (.*)$")
    with open(path) as fh:
        return [float(m.group(1)) for m in map(pattern.match, fh) if m]


def _close(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(abs(ref), scale * 1e-3) + 1e-12


def _within_budget(rows) -> bool:
    """VerificationReport.within_error_budget(BUDGET) on CSV rows."""
    scale = max(max(abs(c) for c, _ in rows), 1e-12)
    return all(e <= BUDGET * max(abs(c), scale * 1e-3) + 1e-12 for c, e in rows)


def _report_verdicts(tag, observed, reference, exit_ok, extra=None):
    """One verdict per reference report: runs, finite, in budget, agrees."""
    verdicts = []
    for name, ref_rows in reference.items():
        rows = observed.get(name)
        label = f"{tag}/{name}"
        if not exit_ok:
            verdicts.append((label, False, "command failed"))
        elif rows is None or len(rows) != len(ref_rows):
            verdicts.append((label, False, "report missing or wrong length"))
        elif not all(math.isfinite(c) and math.isfinite(e) for c, e in rows):
            verdicts.append((label, False, "non-finite constant"))
        elif not _within_budget(rows):
            verdicts.append((label, False, "error column over budget"))
        elif not all(_close(c, rc, max(abs(x) for x, _ in ref_rows))
                     for (c, _), (rc, _) in zip(rows, ref_rows)):
            verdicts.append((label, False, "disagrees with reference"))
        elif extra is not None and extra(name) is not None:
            verdicts.append((label, False, extra(name)))
        else:
            verdicts.append((label, True, ""))
    return verdicts


class Campaign:
    """verify A1', A2', A1, A2 on Bessel(1) and Laguerre(0.5)."""

    name = "campaign"
    why = ("the test_06 condition path: many small kernel batches, "
           "Bessel per-call cost and per-t Python loops dominate")
    BESSEL_WINDOWS = (-1, 0, 1, 2)
    LAGUERRE_WINDOWS = (-2, -1)   # single-cuboid windows inside -2..1

    def inputs(self, seed: int, indir: str) -> dict:
        v = variant(seed)
        j = self.BESSEL_WINDOWS[v]
        m = self.LAGUERRE_WINDOWS[v % len(self.LAGUERRE_WINDOWS)]
        quad = {"tgrid_ppd": 12, "qmc_y": 4}
        conditions = {"list": "A1prime,A2prime,A1,A2", "gamma": 0.2}
        bessel = _config(os.path.join(indir, "bessel.cfg"), {
            "kernel": {"kind": "bessel", "beta": 1.0},
            "covering": {"family": "bessel", "window": f"{j}..{j}"},
            "conditions": conditions, "quadrature": quad})
        laguerre = _config(os.path.join(indir, "laguerre.cfg"), {
            "kernel": {"kind": "laguerre", "alpha": 0.5},
            "covering": {"family": "laguerre", "window": f"{m}..{m}"},
            "conditions": conditions, "quadrature": quad})
        return {"cli_seed": v, "commands": [
            _command("bessel", bessel, "verify"),
            _command("laguerre", laguerre, "verify")]}

    def observe(self, repdir: str) -> dict:
        return {tag: _reports(os.path.join(repdir, tag))
                for tag in ("bessel", "laguerre")}

    def check(self, obs: dict, ref: dict, exits: dict) -> list:
        verdicts = []
        for tag in ("bessel", "laguerre"):
            verdicts += _report_verdicts(tag, obs[tag], ref[tag],
                                         exits.get(tag) == 0)
        return verdicts


class Spectral:
    """subordinate-check, A2' on a subordinated heat kernel, D' and K."""

    name = "spectral"
    why = ("no Bessel code: large subordinated and Schrodinger kernel "
           "batches, the stable-density contour and adaptive Gauss-Kronrod")
    SUB_WINDOWS = (-1.0, -0.5, 0.0, 0.5)
    SCHR_WINDOWS = (-2.0, -1.5, -1.0, -0.5)

    def inputs(self, seed: int, indir: str) -> dict:
        v = variant(seed)
        a = self.SUB_WINDOWS[v]
        b = self.SCHR_WINDOWS[v]
        sub = _config(os.path.join(indir, "subordinate.cfg"), {
            "kernel": {"kind": "subordinate", "base": "euclidean_heat",
                       "d": 1, "nu": 0.7},
            "covering": {"family": "uniform", "tau": 1.0,
                         "window": f"{a}..{a + 1.0}"},
            "conditions": {"list": "A2prime"},
            "quadrature": {"tgrid_ppd": 8, "qmc_y": 1}})
        schr = _config(os.path.join(indir, "schrodinger.cfg"), {
            "kernel": {"kind": "schrodinger", "potential": "one",
                       "box_half_width": 20.0, "n_points": 2000},
            "covering": {"family": "uniform", "tau": 1.0,
                         "window": f"{b}..{b + 2.0}"},
            "conditions": {"list": "Dprime,K", "rho_target": 2.0,
                           "sigma_target": 0.1, "n_max": 8},
            "quadrature": {"qmc_y": 2}})
        return {"cli_seed": v, "commands": [
            _command("check", None, "subordinate-check"),
            _command("subordinate", sub, "verify"),
            _command("schrodinger", schr, "verify")]}

    def observe(self, repdir: str) -> dict:
        check = _read_kv(os.path.join(repdir, "check", "subordinate_check.txt"))
        schr = os.path.join(repdir, "schrodinger")
        dprime = _read_kv(os.path.join(schr, "Dprime.txt"))
        return {
            "oracle": {"poisson": float(check["poisson_kernel_max_rel_err"]),
                       "laplace": float(check["laplace_identity_max_abs_err"])},
            "subordinate": _reports(os.path.join(repdir, "subordinate")),
            "schrodinger": _reports(schr),
            "dprime_passed": dprime["param.passed"] == "True",
            "sigma_hat": _entry_meta(os.path.join(schr, "K.txt"), "sigma_hat"),
        }

    def check(self, obs: dict, ref: dict, exits: dict) -> list:
        check_ok = exits.get("check") == 0
        verdicts = [
            ("oracle/poisson", check_ok and obs["oracle"]["poisson"] <= 1e-5,
             "poisson oracle over 1e-5"),
            ("oracle/laplace", check_ok and obs["oracle"]["laplace"] <= 1e-4,
             "laplace identity over 1e-4"),
        ]
        verdicts += _report_verdicts("subordinate", obs["subordinate"],
                                     ref["subordinate"],
                                     exits.get("subordinate") == 0)

        def schrodinger_rule(name):
            if name == "Dprime" and not obs["dprime_passed"]:
                return "D' did not pass"
            lo, hi = SIGMA_RANGE
            if name == "K" and not (obs["sigma_hat"] and all(
                    lo <= s <= hi for s in obs["sigma_hat"])):
                return "K sigma_hat outside [0.9, 1.1]"
            return None

        verdicts += _report_verdicts("schrodinger", obs["schrodinger"],
                                     ref["schrodinger"],
                                     exits.get("schrodinger") == 0,
                                     schrodinger_rule)
        return verdicts


def _bump_function(rng, lo: float, hi: float, cells: int) -> np.ndarray:
    """Sum of three C-infinity bumps with seeded centres, widths, heights."""
    x = lo + (hi - lo) * (np.arange(cells) + 0.5) / cells
    values = np.zeros(cells)
    for _ in range(3):
        c = rng.uniform(2.2, 3.6)
        w = rng.uniform(0.2, 0.5)
        a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        u = (x - c) / w
        inside = np.abs(u) < 1.0
        values[inside] += a * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return values


def _pieces(path: str) -> list[list[float]]:
    """[[terms, sum |coeff|, remainder l1], ...] per decomposed piece."""
    pieces = []
    terms, coeff_sum = 0, 0.0
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            if line.startswith("atom "):
                coeff = float(line.rsplit("coeff=", 1)[1])
                terms += 1
                coeff_sum += abs(coeff)
                next(lines)
                next(lines)
            elif line.startswith("remainder "):
                fields = dict(p.split("=", 1) for p in line.split()[1:])
                width = (float(fields["hi"]) - float(fields["lo"])) \
                    / int(fields["cells"])
                values = np.array([float(v) for v in next(lines).split(",")])
                next(lines)
                pieces.append([terms, coeff_sum,
                               float(width * np.abs(values).sum())])
                terms, coeff_sum = 0, 0.0
    return pieces


class Atoms:
    """covering on a box product, maximal norms of atoms, decompose."""

    name = "atoms"
    why = ("validate_covering (pairwise) and partition-of-unity evaluation; "
           "maximal runs the Bessel code on (points x cells) batches")
    MAXIMAL_WINDOWS = (-1, 0, 1, 2)
    GRID_LO, GRID_HI, GRID_CELLS = 0.25, 16.0, 2048

    def inputs(self, seed: int, indir: str) -> dict:
        v = variant(seed)
        j = self.MAXIMAL_WINDOWS[v]
        box = _config(os.path.join(indir, "box.cfg"), {
            "covering": {"family": "bessel-laguerre-box", "window": "-2..2"}})
        maximal = _config(os.path.join(indir, "maximal.cfg"), {
            "kernel": {"kind": "bessel", "beta": 1.0},
            "covering": {"family": "bessel", "window": f"{j}..{j}"},
            "maximal": {"atoms_per_cuboid": 4, "cells": 96}})
        decompose = _config(os.path.join(indir, "decompose.cfg"), {
            "covering": {"family": "laguerre", "window": "-2..4"},
            "decompose": {"depth": 6, "cells": 256}})
        rng = np.random.default_rng(1000 + v)
        values = _bump_function(rng, self.GRID_LO, self.GRID_HI,
                                self.GRID_CELLS)
        grid = os.path.join(indir, "function.txt")
        with open(grid, "w") as fh:
            fh.write(f"function lo={self.GRID_LO!r} hi={self.GRID_HI!r} "
                     f"cells={self.GRID_CELLS}\n")
            fh.write(",".join(repr(float(x)) for x in values) + "\nend\n")
        return {"cli_seed": 1000 + v, "commands": [
            _command("covering", box, "covering"),
            _command("maximal", maximal, "maximal"),
            _command("decompose", decompose, "decompose", grid)]}

    def observe(self, repdir: str) -> dict:
        with open(os.path.join(repdir, "covering", "covering_report.txt")) as fh:
            summary = fh.readline().strip()
        rows = []
        with open(os.path.join(repdir, "maximal", "maximal.csv")) as fh:
            next(fh)
            for line in fh:
                f = line.strip().split(",")
                rows.append([float(f[3]), float(f[4])])
        dec = os.path.join(repdir, "decompose")
        totals = {k: float(v) for k, v in _read_kv(
            os.path.join(dec, "decompose_summary.txt")).items()}
        return {"covering": summary, "maximal": rows,
                "pieces": _pieces(os.path.join(dec, "decomposition.txt")),
                "reconstruction": totals["reconstruction_l1_error"]
                + totals["partition_identity_error"]}

    def check(self, obs: dict, ref: dict, exits: dict) -> list:
        verdicts = [("covering", exits.get("covering") == 0
                     and obs["covering"].startswith("PASS")
                     and obs["covering"] == ref["covering"],
                     "covering failed or summary differs")]
        maximal_ok = exits.get("maximal") == 0
        ref_rows = ref["maximal"]
        for i, ref_row in enumerate(ref_rows):
            row = obs["maximal"][i] if i < len(obs["maximal"]) else None
            ok = (maximal_ok and row is not None and math.isfinite(row[0])
                  and row[0] >= 1.0 and _close(row[0], ref_row[0], 1.0))
            verdicts.append((f"atom/{i}", ok, "maximal norm wrong or < 1"))
        dec_ok = (exits.get("decompose") == 0
                  and len(obs["pieces"]) == len(ref["pieces"])
                  and obs["reconstruction"] < RECON_TOL)
        scale = max(p[1] for p in ref["pieces"])
        for i, ref_piece in enumerate(ref["pieces"]):
            ok = dec_ok and all(math.isfinite(x) for x in obs["pieces"][i]) \
                and _close(obs["pieces"][i][1], ref_piece[1], scale)
            verdicts.append((f"piece/{i}", ok, "decomposed piece wrong"))
        return verdicts


WORKLOADS = {w.name: w for w in (Campaign(), Spectral(), Atoms())}
