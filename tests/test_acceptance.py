"""Acceptance suite: one test per criterion, each printing a PASS line
after its assertions hold at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math

import numpy as np
import pytest

from hardykit import atoms as at
from hardykit import coverings as cov
from hardykit import kernels as K
from hardykit import specfun as sf
from hardykit import verifier as V
from hardykit.cli import main as cli_main
from hardykit.domain import real_line

pytestmark = pytest.mark.acceptance

CAMPAIGN = V.VerifierSettings(tgrid_ppd=12, qmc_y=4)
PRODUCT = V.VerifierSettings(tgrid_ppd=5, qmc_y=2, nodes_near=20,
                             nodes_cross=14, window_factor=25.0,
                             golden_iters=4)


def report_line(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


def test_01_bessel_closed_form():
    b1 = K.BesselKernel(1.0)
    rng = np.random.default_rng(101)
    t = 10 ** rng.uniform(-4, 1, 10000)
    x = rng.uniform(0.01, 20.0, 10000)
    y = rng.uniform(0.01, 20.0, 10000)
    mine = b1.eval(t, x, y)
    ref = (4 * math.pi * t) ** -0.5 * np.exp(-(x - y) ** 2 / (4 * t)) \
        * (-np.expm1(-x * y / t))
    rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-280)
    worst = float(np.max(rel))
    assert worst < 1e-10
    report_line(1, f"bessel beta=1 closed form, 1e4 probes, "
                   f"max rel err {worst:.2e} < 1e-10")


def test_02_subordination_oracle():
    sub = K.SubordinateKernel(K.EuclideanHeat(1), 0.5)
    rng = np.random.default_rng(102)
    t = 10 ** rng.uniform(math.log10(0.05), math.log10(5.0), 1000)
    x = rng.uniform(-10, 10, 1000)
    y = rng.uniform(-10, 10, 1000)
    mine = sub.eval(t * t, x, y)
    ref = K.poisson_kernel(t, x, y)
    worst_kernel = float(np.max(np.abs(mine - ref) / ref))
    assert worst_kernel < 1e-5

    rng = np.random.default_rng(103)
    worst_laplace = 0.0
    for _ in range(20):
        nu = rng.uniform(0.2, 0.9)
        xv = rng.uniform(0.0, 50.0)
        got = sf.stable_laplace_check(sf.StableDensityParams(nu), xv)
        worst_laplace = max(worst_laplace, abs(got - math.exp(-xv ** nu)))
    assert worst_laplace <= 1e-4
    report_line(2, f"poisson oracle rel {worst_kernel:.2e} < 1e-5, "
                   f"laplace identity {worst_laplace:.2e} <= 1e-4")


def test_03_stable_density():
    worst_mass = 0.0
    for nu in (0.3, 0.5, 0.7, 0.9):
        mass = sf.stable_laplace_check(sf.StableDensityParams(nu), 0.0)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass <= 1e-4

    s_grid = np.geomspace(1e-3, 1e3, 41)
    sup_sg = 0.0
    worst_cross = 0.0
    for nu in (0.3, 0.5, 0.7, 0.9):
        g = sf.stable_density(sf.StableDensityParams(nu), s_grid)
        sup_sg = max(sup_sg, float(np.max(s_grid * g)))
        assert np.isfinite(sup_sg)
        s1 = sf.stable_series_switch(nu)
        band = np.linspace(0.9 * s1, 1.1 * s1, 5)
        series = sf._stable_series(nu, band)
        kanter = np.array([sf._stable_kanter(nu, float(s)) for s in band])
        worst_cross = max(worst_cross,
                          float(np.max(np.abs(series - kanter)
                                       / np.abs(series))))
    assert worst_cross < 1e-6
    report_line(3, f"total mass err {worst_mass:.2e} <= 1e-4, "
                   f"sup s*g = {sup_sg:.4f} finite, "
                   f"crossover {worst_cross:.2e} < 1e-6")


def test_04_covering_axioms():
    qb = cov.covering_bessel((-5, 5))
    rb = cov.validate_covering(qb)
    assert rb.passed and rb.measured_c1 == 1.0 and rb.measured_c2 == 2.0
    assert rb.max_overlap_count <= 2 * 2 ** 1

    rl = cov.validate_covering(cov.covering_laguerre((-2, 1)))
    assert rl.passed and rl.measured_c2 <= 4.0

    ru = cov.validate_covering(
        cov.covering_uniform(real_line(2), math.sqrt(2.0),
                             ([0.0, 0.0], [4.0, 4.0])))
    assert ru.passed
    assert ru.max_overlap_count <= 2 * 2 ** 2

    rbb = cov.validate_covering(
        cov.box_product(cov.covering_bessel((-2, 2)),
                        cov.covering_bessel((-2, 2))))
    assert rbb.passed and rbb.max_overlap_count <= 2 * 2 ** 2

    rbl = cov.validate_covering(
        cov.box_product(cov.covering_bessel((-2, 2)),
                        cov.covering_laguerre((-1, 1))))
    assert rbl.passed and rbl.max_overlap_count <= 2 * 2 ** 2

    rsb = cov.validate_covering(
        cov.covering_line_strips(cov.covering_bessel((-2, 2)), extent=8.0))
    assert rsb.passed and rsb.max_overlap_count <= 2 * 2 ** 2

    for rep in (rb, rl, ru, rbb, rbl, rsb):
        assert rep.neighbours_equivalent
    report_line(4, "six covering families validate; Q***-overlap <= 2^d*2; "
                   "neighbour equivalence exact")


def test_05_partition_of_unity():
    p = cov.partition_of_unity(cov.covering_bessel((-5, 5)))
    xs = np.linspace(2.0 ** -5, 2.0 ** 6, 100001)
    worst = float(np.max(np.abs(p.evaluate_all(xs).sum(axis=0) - 1.0)))
    assert worst <= 1e-12

    def max_bound(window):
        part = cov.partition_of_unity(cov.covering_bessel(window))
        return max(part.derivative_bound(i) * q.diameter
                   for i, q in enumerate(part.covering.cuboids))

    a = max_bound((-5, 5))
    b = max_bound((-4, 6))   # every cuboid dyadically rescaled
    assert abs(a - b) <= 1e-9 * abs(a)
    report_line(5, f"sum psi - 1 within {worst:.2e} at 1e5 points; "
                   f"max |psi'| d_Q dyadic-invariant ({a:.6f})")


@pytest.mark.slow
def test_06_condition_campaigns():
    budget = 0.05
    lines = []
    qb = cov.covering_bessel((-3, 3))
    for beta in (0.5, 1.0, 2.0):
        k = K.BesselKernel(beta)
        r1p = V.verify_A1prime(k, qb, CAMPAIGN)
        r2p = V.verify_A2prime(k, qb, CAMPAIGN)
        r1 = V.verify_A1(k, qb, gamma=0.2, settings=CAMPAIGN)
        r2 = V.verify_A2(k, qb, gamma=0.2, settings=CAMPAIGN)
        for rep in (r1p, r2p, *r1, *r2):
            assert rep.finite, rep.condition_id
            assert rep.within_error_budget(budget), rep.condition_id
        for rep in (r1p, *r1):
            assert rep.spread() <= 1.2, (rep.condition_id, rep.spread())
        lines.append(f"bessel({beta:g}): A1'={r1p.sup_constant:.3f} "
                     f"A2'={r2p.sup_constant:.3g}")

    ql = cov.covering_laguerre((-2, 1))
    for alpha in (0.5, 1.0):
        k = K.LaguerreKernel(alpha)
        r1p = V.verify_A1prime(k, ql, CAMPAIGN)
        r2p = V.verify_A2prime(k, ql, CAMPAIGN)
        r1 = V.verify_A1(k, ql, gamma=0.2, settings=CAMPAIGN)
        r2 = V.verify_A2(k, ql, gamma=0.2, settings=CAMPAIGN)
        for rep in (r1p, r2p, *r1, *r2):
            assert rep.finite, rep.condition_id
            assert rep.within_error_budget(budget), rep.condition_id
        lines.append(f"laguerre({alpha:g}): A1'={r1p.sup_constant:.3f} "
                     f"A2'={r2p.sup_constant:.3g}")

    prod = K.ProductKernel([K.BesselKernel(1.0), K.BesselKernel(1.0)])
    boxed = cov.box_product(cov.covering_bessel((-1, 1)),
                            cov.covering_bessel((-1, 1)))
    rp0 = V.verify_A0prime(prod)
    rp1 = V.verify_A1prime(prod, boxed, PRODUCT)
    rp2 = V.verify_A2prime(prod, boxed, PRODUCT)
    assert rp0.finite and rp1.finite and rp2.finite
    lines.append(f"product: A0'={rp0.sup_constant:.3f} "
                 f"A1'={rp1.sup_constant:.3f} A2'={rp2.sup_constant:.3g}")
    report_line(6, "; ".join(lines))


def test_07_schrodinger(schrodinger_v1, schrodinger_v0, schrodinger_x2):
    qs = cov.covering_uniform(real_line(1), 1.0, ([-2.0], [2.0]))
    settings = V.VerifierSettings(qmc_y=2)

    rd = V.verify_schrodinger_D(schrodinger_v1, qs, rho_target=2.0,
                                settings=settings)
    assert rd.parameters["passed"]
    rho_min = min(e.constant for e in rd.per_cuboid)

    rk = V.verify_schrodinger_K(schrodinger_v1, qs, settings=settings)
    sigmas = [e.metadata["sigma_hat"] for e in rk.per_cuboid]
    assert all(0.9 <= s <= 1.1 for s in sigmas)

    rd0 = V.verify_schrodinger_D(schrodinger_v0, qs, rho_target=2.0,
                                 settings=settings)
    assert not rd0.parameters["passed"]

    # on-grid probes across the kernel bulk (>= 1% of the diagonal peak);
    # deeper in the Gaussian tail second-order FD dispersion dominates
    worst = 0.0
    grid = schrodinger_x2.grid
    center = len(grid) // 2
    span = int(3.0 / schrodinger_x2.h)
    probe_idx = center + np.linspace(-span, span, 9, dtype=int)
    for t in (0.1, 0.5, 1.0):
        xs = grid[probe_idx]
        s, c = math.sinh(2 * t), math.cosh(2 * t)
        peak = (2 * math.pi * s) ** -0.5
        for xi in xs:
            for yj in xs:
                ref = peak * math.exp(
                    -(c * (xi * xi + yj * yj) - 2 * xi * yj) / (2 * s))
                if ref <= 0.01 * peak:
                    continue
                got = schrodinger_x2.eval(t, xi, yj)
                worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-3
    report_line(7, f"D' rho_hat >= {rho_min:.1f} (target 2) with V=1; "
                   f"K sigma in [{min(sigmas):.3f}, {max(sigmas):.3f}]; "
                   f"V=0 fails D'; Mehler on-grid rel {worst:.2e} < 1e-3")


def test_08_appendix_limits():
    cases = [
        (K.EuclideanHeat(1), [0.0, 1.0]),
        (K.BesselKernel(2.0), [0.5, 1.5]),
        (K.LaguerreKernel(1.0), [0.5, 1.5]),
    ]
    worst = 0.0
    for k, xs in cases:
        report = V.verify_smalltime_limits(k, xs, [0.1, 0.5],
                                           tolerance=1e-2)
        assert report.parameters["passed"], k.kind
        for e in report.per_cuboid:
            if e.metadata["interior"]:
                worst = max(worst, e.constant)
    assert worst <= 1e-2
    report_line(8, f"inner/outer mass limits at t=1e-6 within {worst:.2e} "
                   "<= 1e-2 for euclidean/bessel/laguerre")


@pytest.mark.slow
def test_09_atom_maximal_norms():
    b1 = K.BesselKernel(1.0)
    qb = cov.covering_bessel((-3, 3))
    values = []
    per_scale = {i: [] for i in range(len(qb.cuboids))}
    count = 0
    for i, q in enumerate(qb.cuboids):
        for j in range(8):
            if count >= 50:
                break
            if j % 2 == 0:
                atom = at.make_local_atom(q, cells=96)
            else:
                atom = at.random_classical_atom(q, qb.kappa,
                                                seed=900 + i * 17 + j, cells=96)
            v, err, _ = V.maximal_norm(b1, atom)
            assert v >= 1.0, (i, j, v)
            values.append(v)
            per_scale[i].append(v)
            count += 1
    assert count == 50
    assert np.isfinite(max(values))
    scale_max = [max(vs) for vs in per_scale.values() if vs]
    assert max(scale_max) / min(scale_max) <= 1.25
    report_line(9, f"50 atoms: maximal norms in [{min(values):.3f}, "
                   f"{max(values):.3f}], >= 1 each, scale spread "
                   f"{max(scale_max) / min(scale_max):.4f} <= 1.25")


def test_10_decomposition_roundtrip():
    qb = cov.covering_bessel((-3, 3))
    partition = cov.partition_of_unity(qb)
    c, w = 2.0, 1.2

    def bump(x):
        u = (x - c) / w
        inside = np.abs(u) < 1.0
        out = np.zeros_like(x)
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    pieces = at.localize(bump, partition, cells=1024)
    recon_err = 0.0
    sum_l1 = {6: 0.0, 10: 0.0}
    for q, fq in pieces:
        for depth in (6, 10):
            dec = at.local_decompose(fq, q, qb.kappa, depth)
            sum_l1[depth] += dec.coefficient_l1
            for _, atom in dec.terms:
                assert at.validate_atom(atom, qb.kappa).passed
            if depth == 10:
                rec = dec.reconstruct()
                recon_err += at.GridFunction(fq.lo, fq.hi,
                                             rec.values - fq.values).l1_norm
    probes = np.linspace(2.0 ** -3, 2.0 ** 4, 4097)
    identity = at.localize_reconstruction_error(bump, partition, probes)
    assert recon_err + identity < 1e-10
    drift = abs(sum_l1[6] / sum_l1[10] - 1.0)
    assert drift < 0.05
    report_line(10, f"reconstruction L1 error {recon_err + identity:.2e} "
                    f"< 1e-10; sum|lambda| depth-6 vs depth-10 drift "
                    f"{drift:.2%} < 5%")


def test_11_determinism(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("""
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = 0..1
[conditions]
list = A1prime,A2prime
[quadrature]
tgrid_ppd = 8
qmc_y = 2
golden_iters = 4
""")
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        assert cli_main(["--config", str(cfg), "--out", str(out),
                         "--seed", "13", "verify"]) == 0
        outs.append(out)
    for name in ("A1prime.csv", "A2prime.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    mcfg = tmp_path / "m.cfg"
    mcfg.write_text("""
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 2
cells = 64
""")
    for out in (m1, m2):
        assert cli_main(["--config", str(mcfg), "--out", str(out),
                         "--seed", "13", "maximal"]) == 0
    assert (m1 / "maximal.csv").read_bytes() == (m2 / "maximal.csv").read_bytes()
    report_line(11, "fixed seed reproduces byte-identical CSVs "
                    "(verify + maximal)")
