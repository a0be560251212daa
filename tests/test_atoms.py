import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hardykit import atoms as at
from hardykit import coverings as cov
from hardykit.errors import CoveringHoleError, ResolutionError
from hardykit.quadrature import integrate_adaptive

from conftest import dense_psi, row_sum


@pytest.fixture(scope="module")
def qb():
    return cov.covering_bessel((-3, 3))


@pytest.fixture(scope="module")
def host(qb):
    return qb.cuboids[3]   # [1, 2]


def star_box(q, kappa):
    lo, hi = q.enlarged(kappa, 1).box()
    return float(lo[0]), float(hi[0])


# ---------------------------------------------------------------------------
# Atom construction and validation
# ---------------------------------------------------------------------------

def test_local_atom_examples(qb):
    a12 = at.make_local_atom(qb.cuboids[3])
    assert np.all(a12.values == 1.0)
    a24 = at.make_local_atom(qb.cuboids[4])
    assert np.all(a24.values == 0.5)
    for a in (a12, a24):
        assert_allclose(a.integral, 1.0, rtol=1e-14)
        assert at.validate_atom(a, qb.kappa).passed


def test_random_classical_atom(qb, host):
    a = at.random_classical_atom(host, qb.kappa, seed=42)
    report = at.validate_atom(a, qb.kappa)
    assert report.passed
    # both defining inequalities hold with a tight margin
    assert 0.9 <= a.sup_norm * a.measure <= 1.0 + 1e-12
    assert abs(a.integral) <= 1e-10
    # supported inside Q*
    lo, hi = star_box(host, qb.kappa)
    assert a.lo >= lo and a.hi <= hi


def test_random_atom_seed_determinism(qb, host):
    a = at.random_classical_atom(host, qb.kappa, seed=7)
    b = at.random_classical_atom(host, qb.kappa, seed=7)
    assert a.lo == b.lo and a.hi == b.hi
    assert np.array_equal(a.values, b.values)
    c = at.random_classical_atom(host, qb.kappa, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_validate_atom_rejects_violations(qb, host):
    a = at.random_classical_atom(host, qb.kappa, seed=3)
    too_big = at.Atom(a.lo, a.hi, a.values * 2.0, "classical", host)
    assert not at.validate_atom(too_big, qb.kappa).passed
    shifted = at.Atom(a.lo, a.hi, a.values + 1e-3 * a.sup_norm,
                      "classical", host)
    assert not at.validate_atom(shifted, qb.kappa).passed
    outside = at.Atom(a.lo - 10.0, a.hi, a.values, "classical", host)
    assert not at.validate_atom(outside, qb.kappa).passed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 7.0,
                                 float("nan"), float("inf")]),
                min_size=1, max_size=40),
       st.lists(st.integers(1, 4), min_size=40, max_size=40),
       st.floats(-50.0, 50.0), st.floats(1e-3, 20.0))
def test_runs_round_trip(pool, repeats, lo, width):
    # runs rebuild the cells bit for bit (-0.0, NaN and inf included)
    values = np.repeat(np.array(pool), repeats[:len(pool)])
    g = at.GridFunction(lo, lo + width, values)
    runs = g.runs
    rebuilt = np.repeat(runs.values, np.diff(runs.starts))
    assert rebuilt.tobytes() == values.tobytes()
    assert runs.starts[0] == 0 and runs.starts[-1] == g.cells
    bits = runs.values.view(np.uint64)
    assert np.all(bits[1:] != bits[:-1])      # maximal runs
    assert runs.boundaries[0] == g.lo and runs.boundaries[-1] == g.hi
    assert np.all(np.diff(runs.boundaries) > 0.0)
    padded = np.concatenate(([0.0], runs.values, [0.0]))
    assert runs.jumps.tobytes() == (padded[1:] - padded[:-1]).tobytes()


def test_runs_of_atoms(qb, host):
    local = at.make_local_atom(host, cells=96)
    assert len(local.runs.values) == 1
    assert local.runs.jumps[0] == -local.runs.jumps[1] == local.values[0]
    atom = at.random_classical_atom(host, qb.kappa, seed=4, cells=96)
    runs = atom.runs
    assert 2 <= len(runs.values) <= 8
    # the cells of each run sit inside its boundaries
    for j, v in enumerate(runs.values):
        mid = 0.5 * (runs.boundaries[j] + runs.boundaries[j + 1])
        assert atom(mid) == v


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

def test_localize_constant_gives_psi(qb):
    p = cov.partition_of_unity(qb)
    pieces = at.localize(lambda x: np.ones_like(x), p, cells=128)
    for i, (q, fq) in enumerate(pieces):
        win_lo = qb.window_box[0][0]
        win_hi = qb.window_box[1][0]
        centers = fq.centers
        inside = (centers >= win_lo) & (centers <= win_hi)
        psi = p.evaluate(i, centers[inside])
        assert_allclose(fq.values[inside], psi, rtol=0, atol=1e-15)


def test_localize_single_cuboid_identity():
    single = cov.covering_bessel((0, 0))
    p = cov.partition_of_unity(single)
    f = lambda x: np.sin(x)
    (_, fq), = at.localize(f, p, cells=64)
    centers = fq.centers
    inside = (centers >= 1.0) & (centers <= 2.0)
    assert_allclose(fq.values[inside], np.sin(centers[inside]), rtol=0,
                    atol=1e-15)


def test_localize_pointwise_identity(qb):
    p = cov.partition_of_unity(qb)
    f = lambda x: np.exp(-((x - 1.5) ** 2))
    probes = np.linspace(2.0 ** -3, 2.0 ** 4, 4097)
    assert at.localize_reconstruction_error(f, p, probes) <= 1e-12


def test_localize_l1_additivity(qb):
    # for f >= 0 the piece integrals recover the total mass
    p = cov.partition_of_unity(qb)
    f = lambda x: np.exp(-((x - 2.0) ** 2) / 0.5)
    pieces = at.localize(f, p, cells=2048)
    total = sum(fq.l1_norm for _, fq in pieces)
    oracle, _ = integrate_adaptive(f, 2.0 ** -3, 2.0 ** 4, rtol=1e-12,
                                   breakpoints=[1.0, 2.0, 3.0])
    assert abs(total - oracle) < 1e-5 * oracle


def test_localize_blocks_give_the_same_bits(qb):
    # one piece per block, and sweep blocks of five pairs
    p = cov.partition_of_unity(qb)
    f = lambda x: np.cos(x) + 2.0
    whole = at.localize(f, p, cells=64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(at, "WORKING_SET", 100)
        mp.setattr(cov, "WORKING_SET", 5)
        blocked = at.localize(f, p, cells=64)
    for (q, fq), (r, gr) in zip(whole, blocked, strict=True):
        assert q == r and fq.values.tobytes() == gr.values.tobytes()


def test_reconstruction_check_semantics(qb):
    p = cov.partition_of_unity(qb)
    f = lambda x: np.cos(x) + 2.0
    lo, hi = qb.window_box
    probes = np.linspace(lo[0], hi[0], 65)[1:-1]

    def dense(x):
        fx = f(x)
        return float(np.max(np.abs(row_sum(p.evaluate_all(x)) * fx - fx)))

    # each probe's psi is added in ascending cuboid order, alone or not
    for x in probes:
        assert at.localize_reconstruction_error(f, p, x[None]) == dense(x[None])
    assert at.localize_reconstruction_error(f, p, probes) == dense(probes)
    # a NaN probe gives NaN, as the dense column sum does
    with_nan = np.append(probes, np.nan)
    assert np.isnan(dense(with_nan))
    assert np.isnan(at.localize_reconstruction_error(f, p, with_nan))
    # a probe that no bump reaches raises
    with pytest.raises(CoveringHoleError):
        at.localize_reconstruction_error(f, p, np.append(probes, 100.0))


# ---------------------------------------------------------------------------
# Local decomposition
# ---------------------------------------------------------------------------

def test_decompose_local_atom_fixed_point(qb, host):
    lo, hi = star_box(host, qb.kappa)
    m = hi - lo
    fq = at.GridFunction(lo, hi, np.full(1024, 1.0 / m))
    dec = at.local_decompose(fq, host, depth=6)
    assert len(dec.terms) == 1
    coeff, atom = dec.terms[0]
    assert atom.kind == "local"
    assert_allclose(coeff, 1.0, rtol=1e-12)
    assert dec.residual_norm == 0.0


def test_decompose_haar_eigencase(qb, host):
    lo, hi = star_box(host, qb.kappa)
    m = hi - lo
    vals = np.concatenate([np.full(512, 1.0 / m), np.full(512, -1.0 / m)])
    dec = at.local_decompose(at.GridFunction(lo, hi, vals), host, 6)
    assert len(dec.terms) == 1
    coeff, atom = dec.terms[0]
    assert atom.kind == "classical"
    assert_allclose(abs(coeff), 1.0, rtol=1e-12)
    assert dec.residual_norm == 0.0
    assert at.validate_atom(atom, qb.kappa).passed


def test_decompose_hat_self_convergence(qb, host):
    lo, hi = star_box(host, qb.kappa)
    g = at.GridFunction(lo, hi, np.zeros(1024))
    x = g.centers
    mid = 0.5 * (lo + hi)
    hat = np.maximum(0.0, 1.0 - np.abs((x - mid) / ((hi - lo) / 3.0)))
    d6 = at.local_decompose(at.GridFunction(lo, hi, hat), host, 6)
    d10 = at.local_decompose(at.GridFunction(lo, hi, hat), host, 10)
    assert abs(d6.coefficient_l1 / d10.coefficient_l1 - 1.0) < 0.05
    assert d10.residual_norm == 0.0    # full depth on a 1024-cell grid
    assert d6.residual_norm > 0.0
    # reconstruction is exact including the remainder
    rec = d6.reconstruct()
    assert np.max(np.abs(rec.values - hat)) < 1e-12
    assert all(at.validate_atom(a, qb.kappa).passed for _, a in d10.terms)


def test_decompose_reconstructs_exactly(qb, host):
    lo, hi = star_box(host, qb.kappa)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=512)
    fq = at.GridFunction(lo, hi, vals)
    dec = at.local_decompose(fq, host, depth=5)
    rec = dec.reconstruct()
    assert np.max(np.abs(rec.values - vals)) < 1e-12
    assert abs(dec.remainder.l1_norm - dec.residual_norm) == 0.0


def test_decompose_linearity(qb, host):
    lo, hi = star_box(host, qb.kappa)
    x = at.GridFunction(lo, hi, np.zeros(512)).centers
    f = np.sin(x)
    g = np.cos(2 * x)
    a_, b_ = 2.0, -0.7
    rf = at.local_decompose(at.GridFunction(lo, hi, f), host, 5) \
        .reconstruct(include_remainder=False)
    rg = at.local_decompose(at.GridFunction(lo, hi, g), host, 5) \
        .reconstruct(include_remainder=False)
    rs = at.local_decompose(at.GridFunction(lo, hi, a_ * f + b_ * g),
                            host, 5) \
        .reconstruct(include_remainder=False)
    assert np.max(np.abs(rs.values - (a_ * rf.values + b_ * rg.values))) < 1e-12


def test_decompose_triangle_property(qb, host):
    lo, hi = star_box(host, qb.kappa)
    x = at.GridFunction(lo, hi, np.zeros(512)).centers
    f = np.sin(x)
    g = np.exp(-x)
    lf = at.local_decompose(at.GridFunction(lo, hi, f), host, 5) \
        .coefficient_l1
    lg = at.local_decompose(at.GridFunction(lo, hi, g), host, 5) \
        .coefficient_l1
    lfg = at.local_decompose(at.GridFunction(lo, hi, f + g), host, 5) \
        .coefficient_l1
    assert lfg <= lf + lg + 1e-10


def _loop_decompose(fq, depth):
    """Reference for local_decompose's generations: one segment at a time."""
    n, h = fq.cells, fq.cell_width
    terms = []
    approx = np.full(n, fq.values.mean())
    for g in range(1, depth + 1):
        cells_per = n >> (g - 1)
        half = cells_per // 2
        new_approx = approx.copy()
        for a0 in range(0, n, cells_per):
            seg = fq.values[a0:a0 + cells_per]
            avg_l, avg_r = seg[:half].mean(), seg[half:].mean()
            new_approx[a0:a0 + half] = avg_l
            new_approx[a0 + half:a0 + cells_per] = avg_r
            delta = avg_l - avg_r
            if delta != 0.0:
                d_lo = fq.lo + a0 * h
                d_measure = (d_lo + cells_per * h) - d_lo
                sign = 1.0 if delta > 0 else -1.0
                values = np.concatenate([np.full(half, sign / d_measure),
                                         np.full(half, -sign / d_measure)])
                terms.append((float(abs(delta) * d_measure / 2.0), d_lo, values))
        approx = new_approx
    return terms, fq.values - approx


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(0, 6), cells=st.sampled_from([64, 256]),
       seed=st.integers(0, 2 ** 16), zero_frac=st.sampled_from([0.0, 0.5, 0.9]))
def test_decompose_matches_segment_loop(host, tmp_path_factory, depth, cells,
                                       seed, zero_frac):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-6, 6, cells)
    values[rng.random(cells) < zero_frac] = 0.0
    fq = at.GridFunction(0.7, 2.3, values)
    dec = at.local_decompose(fq, host, depth)
    terms, remainder = _loop_decompose(fq, depth)
    classical = dec.terms[1:] if dec.terms and dec.terms[0][1].kind == "local" \
        else dec.terms
    assert len(classical) == len(terms)
    for (coeff, atom), (ref_coeff, ref_lo, ref_values) in zip(classical, terms):
        assert coeff == ref_coeff and atom.lo == ref_lo
        assert atom.values.tobytes() == ref_values.tobytes()
    assert dec.remainder.values.tobytes() == remainder.tobytes()
    # the atoms and the remainder add back to the piece up to rounding, and
    # the text records carry every bit of them
    rec = dec.reconstruct().values
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(values))
    assert np.max(np.abs(rec - values)) <= tol
    path = tmp_path_factory.getbasetemp() / "segment_loop_dec.txt"
    at.save_decomposition(path, dec)
    back = at.load_decomposition(path, host.domain)
    assert back.reconstruct().values.tobytes() == rec.tobytes()


def test_decompose_resolution_error(qb, host):
    lo, hi = star_box(host, qb.kappa)
    fq = at.GridFunction(lo, hi, np.zeros(24))
    with pytest.raises(ResolutionError):
        at.local_decompose(fq, host, depth=4)


# ---------------------------------------------------------------------------
# Array passes against the per-piece reference
# ---------------------------------------------------------------------------

def _piece_localize(f, p, cells):
    """localize one piece at a time, on each piece's own grid."""
    c = p.covering
    out = []
    for i, q in enumerate(c.cuboids):
        lo, hi = star_box(q, c.kappa)
        piece = at.GridFunction(lo, hi, np.zeros(cells))
        x = piece.centers
        inside = (x >= c.window_box[0][0]) & (x <= c.window_box[1][0])
        if np.any(inside):
            piece.values[inside] = dense_psi(p, x[inside, None])[i] * f(x[inside])
        out.append((q, piece))
    return out


def _piece_decompose(fq, host, depth):
    """The one-piece Haar loop: the local atom, then ``_loop_decompose``."""
    measure = fq.hi - fq.lo
    coeff0 = fq.values.mean() * measure
    terms = [] if coeff0 == 0.0 else [(float(coeff0), at.Atom(
        fq.lo, fq.hi, np.full(fq.cells, 1.0 / measure), "local", host))]
    loop_terms, remainder = _loop_decompose(fq, depth)
    terms += [(coeff, at.Atom(lo, lo + len(v) * fq.cell_width, v, "classical",
                              host)) for coeff, lo, v in loop_terms]
    return at.AtomicDecomposition(terms, at.GridFunction(fq.lo, fq.hi, remainder))


def _repr_lines(dec):
    """decomposition_to_lines with one repr per value."""
    def record(tag, fields, values):
        return [" ".join([tag] + [f"{k}={v}" for k, v in fields.items()]),
                ",".join(repr(float(v)) for v in values), "end"]

    lines = []
    for coeff, a in dec.terms:
        lines += record("atom", {
            "kind": a.kind, "host_center": a.host.center[0],
            "host_half": a.host.half_widths[0], "support_lo": a.lo,
            "support_hi": a.hi, "cells": a.cells, "coeff": coeff}, a.values)
    rem = dec.remainder
    return lines + record("remainder", {"lo": rem.lo, "hi": rem.hi,
                                        "cells": rem.cells}, rem.values)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["bessel", "laguerre"]),
       kappa=st.sampled_from([1.05, 2.1]), cells=st.sampled_from([64, 256]),
       depth=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       sign=st.sampled_from([1.0, -1.0]), cut=st.none() | st.integers(0, 11))
@example(family="bessel", kappa=2.1, cells=256, depth=6, seed=1, sign=-1.0,
         cut=5)
def test_array_passes_match_per_piece_reference(family, kappa, cells, depth,
                                                seed, sign, cut):
    c = (cov.covering_bessel((-4, 4), kappa) if family == "bessel"
         else cov.covering_laguerre((-2, 1), kappa))
    win_lo, win_hi = c.window_box[0][0], c.window_box[1][0]
    if cut is not None:
        # end the window at the first centre of one piece: that piece has
        # exactly one point inside, where 3 bumps overlap at kappa = 2.1
        lo, hi = star_box(c.cuboids[cut % len(c.cuboids)], kappa)
        first = at.GridFunction(lo, hi, np.zeros(cells)).centers[0]
        if win_lo < first < win_hi:
            win_hi = float(first)
            c = dataclasses.replace(c, window_box=((win_lo,), (win_hi,)))
    p = cov.partition_of_unity(c)
    rng = np.random.default_rng(seed)
    span = win_hi - win_lo
    a, b = np.sort(rng.uniform(win_lo - span / 2, win_hi + span / 2, 2))
    coef = rng.standard_normal(3)

    def f(x):
        # a polynomial on (a, b), which may reach past the window, and 0
        # elsewhere; sign -1 makes the zeros, and so psi * 0, -0.0
        return sign * np.where((x > a) & (x < b), np.polyval(coef, x), 0.0)

    pieces = at.localize(f, p, cells)
    ref = _piece_localize(f, p, cells)
    for (q, fq), (ref_q, ref_fq) in zip(pieces, ref, strict=True):
        assert q == ref_q and (fq.lo, fq.hi) == (ref_fq.lo, ref_fq.hi)
        assert fq.values.tobytes() == ref_fq.values.tobytes()
    for (q, fq), dec in zip(ref, at.decompose_pieces(pieces, depth)):
        assert at.decomposition_to_lines(dec) == _repr_lines(
            _piece_decompose(fq, q, depth))
    probes = np.linspace(win_lo, win_hi, 257)[1:-1]
    fx = f(probes)
    psi = dense_psi(p, probes[:, None])
    assert at.localize_reconstruction_error(f, p, probes) \
        == float(np.max(np.abs(row_sum(psi) * fx - fx)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_atom_roundtrip(tmp_path, qb, host):
    lo, hi = star_box(host, qb.kappa)
    x = at.GridFunction(lo, hi, np.zeros(256)).centers
    fq = at.GridFunction(lo, hi, np.sin(3 * x))
    dec = at.local_decompose(fq, host, depth=4)
    path = tmp_path / "dec.txt"
    at.save_decomposition(path, dec)
    back = at.load_decomposition(path, qb.domain)
    assert len(back.terms) == len(dec.terms)
    for (c1, a1), (c2, a2) in zip(dec.terms, back.terms):
        assert c1 == c2
        assert a1.kind == a2.kind
        assert a1.lo == a2.lo
        assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(back.remainder.values, dec.remainder.values)
    assert back.residual_norm == dec.residual_norm


def test_grid_function_roundtrip(tmp_path):
    g = at.GridFunction(0.5, 2.5, np.linspace(-1, 1, 64))
    path = tmp_path / "g.txt"
    at.save_grid_function(path, g)
    back = at.load_grid_function(path)
    assert back.lo == g.lo and back.hi == g.hi
    assert np.array_equal(back.values, g.values)
