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
from typing import Callable

import numpy as np

from .coverings import Cuboid, PartitionOfUnity
from .errors import ResolutionError


# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Cell-centered samples of a step function on [lo, hi] (1-D)."""

    lo: float
    hi: float
    values: np.ndarray

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
class Atom:
    """Grid realization of a classical or local atom."""

    kind: str                  # "classical" | "local"
    host: Cuboid
    support_lo: float
    support_hi: float
    values: np.ndarray

    @property
    def measure(self) -> float:
        return self.support_hi - self.support_lo

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def cell_width(self) -> float:
        return self.measure / self.cells

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def integral(self) -> float:
        return float(self.cell_width * self.values.sum())

    @property
    def l1_norm(self) -> float:
        return float(self.cell_width * np.abs(self.values).sum())

    def as_grid_function(self) -> GridFunction:
        return GridFunction(self.support_lo, self.support_hi, self.values)


def make_local_atom(q: Cuboid, cells: int = 256) -> Atom:
    """a = |Q|^{-1} chi_Q on the cuboid's geometric box."""
    lo, hi = q.box()
    lo, hi = float(lo[0]), float(hi[0])
    value = 1.0 / (hi - lo)
    return Atom("local", q, lo, hi, np.full(cells, value))


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
    return Atom("classical", q, center - half, center + half, values)


@dataclass
class AtomReport:
    kind: str
    support_ok: bool
    cube_ok: bool
    size_margin: float          # sup_norm * |K|, should be <= 1
    cancellation: float         # |integral| * sup bound, classical only
    local_exact: bool

    @property
    def passed(self) -> bool:
        if self.kind == "local":
            return self.support_ok and self.local_exact
        return (self.support_ok and self.cube_ok
                and self.size_margin <= 1.0 + 1e-12
                and self.cancellation <= 1e-10)


def validate_atom(a: Atom, kappa: float) -> AtomReport:
    """Check the defining conditions by exact grid arithmetic."""
    star = a.host.enlarged(kappa, 1)
    slo, shi = star.box()
    slo, shi = float(slo[0]), float(shi[0])
    tol = 1e-12 * max(1.0, abs(shi - slo))
    support_ok = (a.support_lo >= slo - tol) and (a.support_hi <= shi + tol)
    if a.kind == "local":
        qlo, qhi = a.host.box()
        boxes = ((float(qlo[0]), float(qhi[0])), (slo, shi))
        on_box = any(abs(a.support_lo - lo) <= tol and abs(a.support_hi - hi) <= tol
                     for lo, hi in boxes)
        expected = 1.0 / a.measure
        exact = bool(np.all(np.abs(a.values - expected) <= 1e-12 * expected))
        return AtomReport("local", support_ok and on_box, True, a.sup_norm * a.measure,
                          0.0, exact)
    return AtomReport(
        "classical", support_ok, True,
        a.sup_norm * a.measure,
        abs(a.integral),
        False)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

def localize(f: Callable, partition: PartitionOfUnity,
             cells: int = 256) -> list[tuple[Cuboid, GridFunction]]:
    """Split f into f_Q = psi_Q f, sampled on per-cuboid Q* grids.

    Each piece is supported in Q* by construction and the pieces sum back
    to f pointwise wherever the window covers.
    """
    covering = partition.covering
    out = []
    for i, q in enumerate(covering.cuboids):
        star = q.enlarged(covering.kappa, 1)
        lo, hi = star.box()
        lo, hi = float(lo[0]), float(hi[0])
        g = GridFunction(lo, hi, np.zeros(cells))
        x = g.centers
        win_lo = covering.window_box[0][0]
        win_hi = covering.window_box[1][0]
        inside = (x >= win_lo) & (x <= win_hi)
        vals = np.zeros(cells)
        if np.any(inside):
            psi = partition.evaluate(i, x[inside])
            vals[inside] = psi * np.asarray(f(x[inside]), dtype=float)
        out.append((q, GridFunction(lo, hi, vals)))
    return out


def localize_reconstruction_error(f: Callable, partition: PartitionOfUnity,
                                  probes: np.ndarray) -> float:
    """max |sum_Q psi_Q(x) f(x) - f(x)| over the probe points."""
    psi = partition.evaluate_all(probes)
    fx = np.asarray(f(probes), dtype=float)
    return float(np.max(np.abs(psi.sum(axis=0) * fx - fx)))


# ---------------------------------------------------------------------------
# Local atomic decomposition
# ---------------------------------------------------------------------------

@dataclass
class AtomicDecomposition:
    terms: list[tuple[float, Atom]]
    residual_norm: float
    remainder: GridFunction

    @property
    def coefficient_l1(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def reconstruct(self, include_remainder: bool = True) -> GridFunction:
        """Exact reconstruction on the source grid."""
        base = self.remainder
        total = np.zeros_like(base.values)
        h = base.cell_width
        for coeff, atom in self.terms:
            start = int(round((atom.support_lo - base.lo) / h))
            stop = int(round((atom.support_hi - base.lo) / h))
            per_cell = np.repeat(atom.values,
                                 max(1, (stop - start) // atom.cells))
            total[start:stop] += coeff * per_cell[: stop - start]
        if include_remainder:
            total += base.values
        return GridFunction(base.lo, base.hi, total)


def local_decompose(fq: GridFunction, host: Cuboid, kappa: float,
                    depth: int) -> AtomicDecomposition:
    """Haar-type multiscale decomposition of a piece supported in Q*.

    Generation 0 carries the mean on the local atom |Q*|^{-1} chi_{Q*};
    generations 1..depth emit exactly mean-zero dyadic difference atoms.
    What is left below the final generation becomes the remainder, whose
    L^1 norm is the residual.  Terms are ordered scale-major,
    index-minor; zero coefficients are skipped.
    """
    n = fq.cells
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if n % (1 << depth) != 0:
        raise ResolutionError(
            f"depth {depth} needs a multiple of {1 << depth} grid cells, got {n}")
    terms: list[tuple[float, Atom]] = []
    box_measure = fq.hi - fq.lo

    mean = fq.values.mean()
    coeff0 = mean * box_measure  # equals the integral of fq
    if coeff0 != 0.0:
        local = Atom("local", host, fq.lo, fq.hi,
                     np.full(n, 1.0 / box_measure))
        terms.append((float(coeff0), local))

    approx = np.full(n, mean)
    h = fq.cell_width
    for g in range(1, depth + 1):
        pieces = 1 << (g - 1)
        cells_per = n // pieces
        half = cells_per // 2
        # row means sum pairwise, as seg[:half].mean() does: same bits
        avg = fq.values.reshape(pieces, 2, half).mean(axis=-1)
        approx = np.repeat(avg.ravel(), half)
        deltas = avg[:, 0] - avg[:, 1]
        for j in np.flatnonzero(deltas != 0.0):
            delta = deltas[j]
            d_lo = fq.lo + int(j) * cells_per * h
            d_hi = d_lo + cells_per * h
            d_measure = d_hi - d_lo
            sign = 1.0 if delta > 0 else -1.0
            values = np.repeat([sign / d_measure, -sign / d_measure], half)
            coeff = abs(delta) * d_measure / 2.0
            terms.append((float(coeff),
                          Atom("classical", host, d_lo, d_hi, values)))

    remainder_values = fq.values - approx
    remainder = GridFunction(fq.lo, fq.hi, remainder_values)
    return AtomicDecomposition(terms=terms,
                               residual_norm=remainder.l1_norm,
                               remainder=remainder)


# ---------------------------------------------------------------------------
# Serialization (line-oriented text with CSV value blocks)
# ---------------------------------------------------------------------------

def _format_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def atom_to_lines(a: Atom, coeff: float = 1.0) -> list[str]:
    head = (f"atom kind={a.kind} "
            f"host_center={a.host.center[0]!r} "
            f"host_half={a.host.half_widths[0]!r} "
            f"support_lo={a.support_lo!r} support_hi={a.support_hi!r} "
            f"cells={a.cells} coeff={coeff!r}")
    return [head, _format_floats(a.values), "end"]


def atom_from_lines(lines: list[str], domain) -> tuple[float, Atom]:
    head = lines[0].split()
    if head[0] != "atom":
        raise ValueError(f"expected atom record, got {lines[0]!r}")
    fields = dict(part.split("=", 1) for part in head[1:])
    host = Cuboid((float(fields["host_center"]),),
                  (float(fields["host_half"]),), domain)
    values = np.array([float(v) for v in lines[1].split(",")])
    atom = Atom(fields["kind"], host,
                float(fields["support_lo"]), float(fields["support_hi"]),
                values)
    return float(fields["coeff"]), atom


def decomposition_to_lines(decomposition: AtomicDecomposition) -> list[str]:
    """The terms' atom records, then the remainder record."""
    lines = []
    for coeff, atom in decomposition.terms:
        lines.extend(atom_to_lines(atom, coeff))
    rem = decomposition.remainder
    lines.append(f"remainder lo={rem.lo!r} hi={rem.hi!r} cells={rem.cells}")
    lines.append(_format_floats(rem.values))
    lines.append("end")
    return lines


def save_decomposition(path, decomposition: AtomicDecomposition):
    with open(path, "w") as fh:
        fh.write("\n".join(decomposition_to_lines(decomposition)) + "\n")


def load_decomposition(path, domain) -> AtomicDecomposition:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    terms = []
    remainder = None
    i = 0
    while i < len(lines):
        if lines[i].startswith("atom "):
            coeff, atom = atom_from_lines(lines[i:i + 3], domain)
            terms.append((coeff, atom))
            i += 3
        elif lines[i].startswith("remainder "):
            fields = dict(part.split("=", 1)
                          for part in lines[i].split()[1:])
            values = np.array([float(v) for v in lines[i + 1].split(",")])
            remainder = GridFunction(float(fields["lo"]), float(fields["hi"]),
                                     values)
            i += 3
        else:
            raise ValueError(f"unrecognized record {lines[i]!r}")
    if remainder is None:
        raise ValueError("decomposition file has no remainder record")
    return AtomicDecomposition(terms=terms,
                               residual_norm=remainder.l1_norm,
                               remainder=remainder)


def save_grid_function(path, g: GridFunction):
    with open(path, "w") as fh:
        fh.write(f"function lo={g.lo!r} hi={g.hi!r} cells={g.cells}\n")
        fh.write(_format_floats(g.values) + "\n")
        fh.write("end\n")


def load_grid_function(path) -> GridFunction:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("function "):
        raise ValueError("not a grid function file")
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:])
    values = np.array([float(v) for v in lines[1].split(",")])
    return GridFunction(float(fields["lo"]), float(fields["hi"]), values)
