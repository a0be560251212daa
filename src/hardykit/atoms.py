"""Atoms, random atom generation, localization, and the constructive
local decomposition.

An atom tied to a covering cuboid Q is either *classical* (supported in
a cube K inside Q*, bounded by |K|^{-1}, exactly mean zero) or *local*
(|Q|^{-1} chi_Q, no cancellation).  Functions supported in Q* decompose
into one local atom carrying the mean plus dyadic Haar-type classical
atoms; the coefficient sum upper-bounds the atomic norm and is reported
as an estimator, never as the norm itself.

Grid functions are cell-centered samples on uniform per-cuboid grids;
all integrals below are exact for these step functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coverings import Cuboid, PartitionOfUnity
from .errors import ResolutionError
from .quadrature import WORKING_SET


# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------

def _run_starts(v: np.ndarray) -> np.ndarray:
    """The first cell of each maximal run of cells with the same bits (so
    0.0 and -0.0 differ), then the cell count."""
    bits = v.view(np.uint64)
    return np.concatenate(
        ([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1, [len(v)]))


class StepRuns(NamedTuple):
    """Run-length view of a grid function: its maximal runs of cells with
    the same value (the same bits)."""

    starts: np.ndarray      # (R + 1,) first cell of each run, then cells
    values: np.ndarray      # (R,) the value of each run
    boundaries: np.ndarray  # (R + 1,) b_0 = lo < ... < b_R = hi
    jumps: np.ndarray       # (R + 1,) c_j, the value right of b_j minus left


@dataclass(frozen=True)
class GridFunction:
    """Cell-centered samples of a step function on [lo, hi] (1-D)."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("cells must be at least 1, got 0")

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.cells

    @property
    def centers(self) -> np.ndarray:
        h = self.cell_width
        return self.lo + h * (np.arange(self.cells) + 0.5)

    @property
    def integral(self) -> float:
        return float(self.cell_width * self.values.sum())

    @property
    def l1_norm(self) -> float:
        return float(self.cell_width * np.abs(self.values).sum())

    @property
    def runs(self) -> StepRuns:
        """The step function as runs: g = sum_j c_j 1[y >= b_j], with
        c_0 the first value and c_R minus the last one."""
        v = np.ascontiguousarray(self.values, dtype=float)
        starts = _run_starts(v)
        values = v[starts[:-1]]
        boundaries = self.lo + self.cell_width * starts
        boundaries[-1] = self.hi
        padded = np.concatenate(([0.0], values, [0.0]))
        return StepRuns(starts, values, boundaries, padded[1:] - padded[:-1])

    def __call__(self, x):
        """Step-function evaluation, zero outside [lo, hi]."""
        x = np.asarray(x, dtype=float)
        idx = np.floor((x - self.lo) / self.cell_width).astype(int)
        inside = (x >= self.lo) & (x < self.hi)
        idx = np.clip(idx, 0, self.cells - 1)
        return np.where(inside, self.values[idx], 0.0)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom(GridFunction):
    """Grid realization of a classical or local atom tied to a host cuboid.

    The atom is the step function on its support [lo, hi]; ``kind`` is
    "classical" or "local" and ``host`` is the covering cuboid Q.
    """

    kind: str
    host: Cuboid

    @property
    def measure(self) -> float:
        return self.hi - self.lo

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def make_local_atom(q: Cuboid, cells: int = 256) -> Atom:
    """a = |Q|^{-1} chi_Q on the cuboid's geometric box."""
    lo, hi = q.box()
    lo, hi = float(lo[0]), float(hi[0])
    value = 1.0 / (hi - lo)
    return Atom(lo, hi, np.full(cells, value), "local", q)


def random_classical_atom(q: Cuboid, kappa: float, seed: int,
                          cells: int = 256) -> Atom:
    """Seed-deterministic mean-zero atom on a random sub-cube K of Q*.

    Values are a balanced sign pattern with at most three sign changes,
    scaled to 0.95 of the size bound |K|^{-1}; the exact balance
    makes the cancellation condition hold identically.
    """
    if cells % 2:
        raise ValueError("cells must be even for an exactly balanced atom")
    rng = np.random.default_rng(seed)
    star = q.enlarged(kappa, 1)
    lo, hi = star.box()
    lo, hi = float(lo[0]), float(hi[0])
    width = hi - lo
    half = width * rng.uniform(0.15, 0.45)
    center = lo + half + rng.uniform(0.0, 1.0) * (width - 2.0 * half)
    blocks = rng.integers(1, 4) * 2
    signs = np.repeat(np.resize([1.0, -1.0], blocks), cells // blocks)
    signs = np.resize(signs, cells)
    if abs(signs.sum()) > 0:  # uneven split, rebalance the tail cells
        excess = int(signs.sum()) // 2
        flip = np.where(signs > 0)[0] if excess > 0 else np.where(signs < 0)[0]
        signs[flip[-abs(excess):]] *= -1.0
    measure = 2.0 * half
    values = signs * (0.95 / measure)
    return Atom(center - half, center + half, values, "classical", q)


@dataclass
class AtomReport:
    kind: str
    support_ok: bool
    size_margin: float          # sup_norm * |K|, should be <= 1
    cancellation: float         # |integral| * sup bound, classical only
    local_exact: bool

    @property
    def passed(self) -> bool:
        if self.kind == "local":
            return self.support_ok and self.local_exact
        return (self.support_ok and self.size_margin <= 1.0 + 1e-12
                and self.cancellation <= 1e-10)


def validate_atom(a: Atom, kappa: float) -> AtomReport:
    """Check the defining conditions by exact grid arithmetic."""
    star = a.host.enlarged(kappa, 1)
    slo, shi = star.box()
    slo, shi = float(slo[0]), float(shi[0])
    tol = 1e-12 * max(1.0, abs(shi - slo))
    support_ok = (a.lo >= slo - tol) and (a.hi <= shi + tol)
    if a.kind == "local":
        qlo, qhi = a.host.box()
        boxes = ((float(qlo[0]), float(qhi[0])), (slo, shi))
        on_box = any(abs(a.lo - lo) <= tol and abs(a.hi - hi) <= tol
                     for lo, hi in boxes)
        expected = 1.0 / a.measure
        exact = bool(np.all(np.abs(a.values - expected) <= 1e-12 * expected))
        return AtomReport("local", support_ok and on_box,
                          a.sup_norm * a.measure, 0.0, exact)
    return AtomReport("classical", support_ok, a.sup_norm * a.measure,
                      abs(a.integral), False)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

def localize(f: Callable, partition: PartitionOfUnity,
             cells: int = 256) -> list[tuple[Cuboid, GridFunction]]:
    """Split f into f_Q = psi_Q f, sampled on per-cuboid Q* grids.

    Each piece is supported in Q* by construction and the pieces sum back
    to f pointwise wherever the window covers.  All the grids are one
    (pieces x cells) matrix of centres, taken in blocks of at most
    ``WORKING_SET`` centres: f is called on a block's centres inside the
    window, and psi_Q from ``evaluate_rows``: each centre's own bump over
    its bump sum, which depends on that centre alone, so the blocks change
    no bit.
    """
    covering = partition.covering
    lo, hi = (b[:, 0] for b in covering.enlarged_boxes(1))
    h = (hi - lo) / cells
    x = lo[:, None] + h[:, None] * (np.arange(cells) + 0.5)
    inside = (x >= covering.window_box[0][0]) & (x <= covering.window_box[1][0])
    values = np.zeros(x.shape)
    index = np.arange(len(x))
    step = max(1, WORKING_SET // cells)
    for start in range(0, len(x), step):
        blk = slice(start, start + step)
        xb, ib = x[blk], inside[blk]
        psi = partition.evaluate_rows(index[blk], xb[..., None], ib)
        values[blk][ib] = psi * np.asarray(f(xb[ib]), dtype=float)
    return [(q, GridFunction(lo_q, hi_q, v)) for q, lo_q, hi_q, v
            in zip(covering.cuboids, lo.tolist(), hi.tolist(), values)]


def localize_reconstruction_error(f: Callable, partition: PartitionOfUnity,
                                  probes: np.ndarray) -> float:
    """max |sum_Q psi_Q(x) f(x) - f(x)| over the probe points; the psi sum
    is ``partition.psi_sum``, with no (cuboids x probes) matrix."""
    fx = np.asarray(f(probes), dtype=float)
    return float(np.max(np.abs(partition.psi_sum(probes) * fx - fx)))


# ---------------------------------------------------------------------------
# Local atomic decomposition
# ---------------------------------------------------------------------------

@dataclass
class AtomicDecomposition:
    terms: list[tuple[float, Atom]]
    remainder: GridFunction

    @property
    def residual_norm(self) -> float:
        return self.remainder.l1_norm

    @property
    def coefficient_l1(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def reconstruct(self, include_remainder: bool = True) -> GridFunction:
        """Exact reconstruction on the source grid."""
        base = self.remainder
        total = np.zeros_like(base.values)
        x = base.centers
        for coeff, atom in self.terms:
            total += coeff * atom(x)
        if include_remainder:
            total += base.values
        return GridFunction(base.lo, base.hi, total)


def local_decompose(fq: GridFunction, host: Cuboid,
                    depth: int) -> AtomicDecomposition:
    """Haar-type multiscale decomposition of a piece supported in Q*.

    Generation 0 carries the mean on the local atom |Q*|^{-1} chi_{Q*};
    generations 1..depth emit exactly mean-zero dyadic difference atoms.
    What is left below the final generation becomes the remainder, whose
    L^1 norm is the residual.  Terms are ordered scale-major,
    index-minor; zero coefficients are skipped.
    """
    return decompose_pieces([(host, fq)], depth)[0]


def decompose_pieces(pieces: list[tuple[Cuboid, GridFunction]],
                     depth: int) -> list[AtomicDecomposition]:
    """``local_decompose`` of every (host, piece), as array passes over
    the (pieces x cells) matrix of values; the pieces share one cell
    count.  An ``Atom`` is made only for a nonzero mean or delta."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    values = np.stack([fq.values for _, fq in pieces])
    n = values.shape[1]
    if n % (1 << depth) != 0:
        raise ResolutionError(
            f"depth {depth} needs a multiple of {1 << depth} grid cells, got {n}")
    hosts = [q for q, _ in pieces]
    lo = np.array([fq.lo for _, fq in pieces])
    hi = np.array([fq.hi for _, fq in pieces])
    measure = hi - lo
    h = measure / n
    terms: list[list[tuple[float, Atom]]] = [[] for _ in pieces]

    mean = values.mean(axis=1)
    coeff0 = mean * measure  # equals the integral of each piece
    for p in np.flatnonzero(coeff0 != 0.0):
        terms[p].append((float(coeff0[p]), Atom(
            float(lo[p]), float(hi[p]), np.full(n, 1.0 / measure[p]),
            "local", hosts[p])))

    approx = mean[:, None]
    for g in range(1, depth + 1):
        cells_per = n >> (g - 1)
        half = cells_per // 2
        # row means sum pairwise, as seg[:half].mean() does: same bits
        avg = values.reshape(len(pieces), -1, 2, half).mean(axis=-1)
        approx = np.repeat(avg.reshape(len(pieces), -1), half, axis=1)
        deltas = avg[..., 0] - avg[..., 1]
        p, j = np.nonzero(deltas)
        delta = deltas[p, j]
        d_lo = lo[p] + (j * cells_per) * h[p]
        d_hi = d_lo + cells_per * h[p]
        d_measure = d_hi - d_lo
        step = np.where(delta > 0, 1.0, -1.0) / d_measure
        atom_values = np.repeat(np.stack([step, -step], axis=1), half, axis=1)
        coeff = np.abs(delta) * d_measure / 2.0
        for k, (pk, c, a_lo, a_hi) in enumerate(zip(
                p.tolist(), coeff.tolist(), d_lo.tolist(), d_hi.tolist())):
            terms[pk].append((c, Atom(a_lo, a_hi, atom_values[k],
                                      "classical", hosts[pk])))

    remainder = values - approx
    return [AtomicDecomposition(t, GridFunction(fq.lo, fq.hi, r))
            for t, (_, fq), r in zip(terms, pieces, remainder)]


# ---------------------------------------------------------------------------
# Serialization (line-oriented text with CSV value blocks)
# ---------------------------------------------------------------------------

def _record(tag: str, fields: dict, values) -> list[str]:
    """One record: the tag and key=value fields, the values, then "end".

    A float field formats as its repr, so every record reads back exactly.
    """
    head = " ".join([tag] + [f"{k}={v}" for k, v in fields.items()])
    # each run of equal bits is formatted once
    v = np.ascontiguousarray(values, dtype=float)
    starts = _run_starts(v)
    text = [",".join([repr(x)] * n) for x, n in
            zip(v[starts[:-1]].tolist(), np.diff(starts).tolist())]
    return [head, ",".join(text), "end"]


def _parse_record(lines: list[str]) -> tuple[str, dict, np.ndarray]:
    """Inverse of ``_record``: the tag, the fields as text, the values."""
    tag, *parts = lines[0].split()
    fields = dict(part.split("=", 1) for part in parts)
    return tag, fields, np.array([float(v) for v in lines[1].split(",")])


def _read_lines(path) -> list[str]:
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


def _write_lines(path, lines: list[str]):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def decomposition_to_lines(decomposition: AtomicDecomposition) -> list[str]:
    """The terms' atom records (``coeff`` last), then the remainder record."""
    lines = []
    for coeff, a in decomposition.terms:
        lines += _record("atom", {
            "kind": a.kind, "host_center": a.host.center[0],
            "host_half": a.host.half_widths[0], "support_lo": a.lo,
            "support_hi": a.hi, "cells": a.cells, "coeff": coeff}, a.values)
    rem = decomposition.remainder
    return lines + _record(
        "remainder", {"lo": rem.lo, "hi": rem.hi, "cells": rem.cells},
        rem.values)


def save_decomposition(path, decomposition: AtomicDecomposition):
    _write_lines(path, decomposition_to_lines(decomposition))


def load_decomposition(path, domain) -> AtomicDecomposition:
    terms = []
    remainder = None
    lines = _read_lines(path)
    for i in range(0, len(lines), 3):
        tag, fields, values = _parse_record(lines[i:i + 3])
        if tag == "atom":
            host = Cuboid((float(fields["host_center"]),),
                          (float(fields["host_half"]),), domain)
            terms.append((float(fields["coeff"]), Atom(
                float(fields["support_lo"]), float(fields["support_hi"]),
                values, fields["kind"], host)))
        elif tag == "remainder":
            remainder = GridFunction(float(fields["lo"]), float(fields["hi"]),
                                     values)
        else:
            raise ValueError(f"unrecognized record {tag!r}")
    if remainder is None:
        raise ValueError("decomposition file has no remainder record")
    return AtomicDecomposition(terms, remainder)


def save_grid_function(path, g: GridFunction):
    _write_lines(path, _record("function",
                               {"lo": g.lo, "hi": g.hi, "cells": g.cells},
                               g.values))


def load_grid_function(path) -> GridFunction:
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("function "):
        raise ValueError("not a grid function file")
    _, fields, values = _parse_record(lines)
    return GridFunction(float(fields["lo"]), float(fields["hi"]), values)
