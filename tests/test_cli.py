import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardykit import atoms, cli, kernels, verifier
from hardykit.cli import main


def write_config(path, text):
    path.write_text(text)
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_covering_command(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", """
[covering]
family = bessel-box
window = -2..2
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "covering"]) == 0
    assert (out / "covering.csv").exists()
    assert (out / "covering_report.txt").exists()
    assert (out / "config_echo.txt").exists()
    svg = (out / "covering.svg").read_text()
    csv = (out / "covering.csv").read_text()
    assert svg.count("<rect") == len(csv.strip().split("\n")) - 1


def test_covering_command_1d_no_svg(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", out, "covering"]) == 0
    assert not (out / "covering.svg").exists()


def test_covering_failure_exit_code(tmp_path):
    # kappa far above 1 breaks the neighbour equivalence
    cfg = write_config(tmp_path / "c.cfg", """
[covering]
family = bessel
window = -2..2
kappa = 3.0
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "covering"]) == 1
    assert "FAIL" in (out / "covering_report.txt").read_text()


@pytest.mark.parametrize("command,kappa", [
    ("covering", "nan"), ("covering", "inf"), ("decompose", "nan"),
])
def test_kappa_not_finite_above_one_exit_1(tmp_path, capsys, command, kappa):
    # a NaN kappa passed the kappa <= 1 check: covering printed PASS and
    # decompose died with an uncaught CoveringHoleError
    fpath = tmp_path / "f.txt"
    atoms.save_grid_function(fpath, atoms.GridFunction(1.5, 3.5, np.ones(16)))
    cfg = write_config(tmp_path / "c.cfg", f"""
[covering]
family = bessel
window = -1..1
kappa = {kappa}
""")
    args = [command, fpath] if command == "decompose" else [command]
    assert run(["--config", cfg, "--out", tmp_path / "out", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kappa" in err


VERIFY_CFG = """
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = -1..1
[conditions]
list = A1prime,A2prime
[quadrature]
tgrid_ppd = 8
qmc_y = 2
golden_iters = 4
"""


def test_verify_command_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", VERIFY_CFG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["--config", cfg, "--out", out1, "--seed", 3, "verify"]) == 0
    assert run(["--config", cfg, "--out", out2, "--seed", 3, "verify"]) == 0
    for name in ("A1prime.csv", "A2prime.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "A1prime.csv").read_text().split("\n")[0]
    assert header == "condition,cuboid_index,constant,error,params_hash"
    assert (out1 / "verify_summary.txt").exists()


def test_verify_negative_control_exit_1(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = schrodinger
potential = zero
box_half_width = 12.0
n_points = 600
[covering]
family = uniform
tau = 1.0
window = -2..2
[conditions]
list = Dprime
[quadrature]
qmc_y = 2
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    assert "FAIL" in (out / "verify_summary.txt").read_text()


@pytest.mark.parametrize("key,value", [
    ("tgrid_ppd", "0"), ("nodes_near", "0"), ("nodes_cross", "-1"),
    ("box_nodes", "0"), ("golden_iters", "-3"), ("qmc_y", "-1"),
    ("window_factor", "0"), ("window_factor", "inf"),
    ("error_budget_rel", "nan"), ("error_budget_rel", "-0.05"),
])
def test_verify_out_of_range_setting_exit_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "v.cfg", f"""
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = -1..1
[conditions]
list = A1prime
[quadrature]
{key} = {value}
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "A1prime.csv").exists()


SCHRODINGER_CFG = """
[kernel]
kind = schrodinger
box_half_width = 12.0
n_points = 600
[covering]
family = uniform
tau = 1.0
window = -2..2
[conditions]
list = Dprime
"""


@pytest.mark.parametrize("command,config,key", [
    ("verify", SCHRODINGER_CFG.replace("n_points = 600",
                                       "n_points = 600\npotential = cubic"),
     "potential"),
    ("verify", SCHRODINGER_CFG.replace("n_points = 600", "n_points = 1"),
     "n_points"),
    ("verify", SCHRODINGER_CFG + "n_max = 0\n", "n_max"),
    ("maximal", "[maximal]\ncells = 0\n", "cells"),
    ("verify", SCHRODINGER_CFG.replace("12.0", "0.0"), "box_half_width"),
    ("verify", SCHRODINGER_CFG.replace("12.0", "inf"), "box_half_width"),
    ("maximal", "[maximal]\natoms_per_cuboid = 0\n", "atoms_per_cuboid"),
], ids=["potential", "n_points", "n_max", "cells", "box_half_width_zero",
        "box_half_width_inf", "atoms_per_cuboid"])
def test_bad_config_value_exit_1(tmp_path, capsys, command, config, key):
    cfg = write_config(tmp_path / "c.cfg", config)
    assert run(["--config", cfg, "--out", tmp_path / "out", command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("kernel", [
    "kind = besselfoo", "kind = laguerre2", "kind = stable_x",
    "kind = euclidean_heatwave", "kind = bessel:2",
    "kind = subordinate\nbase = besselfoo",
    "kind = product\nfactors = bessel:1,laguerre2",
    "kind = product\nfactors = bessel:1,euclidean_heat:2",
], ids=["besselfoo", "laguerre2", "stable_x", "euclidean_heatwave",
        "kind-with-beta", "base", "factor", "factor-heat-with-arg"])
def test_unknown_kernel_kind_exit_1(tmp_path, capsys, kernel):
    # each of these built the kernel of its prefix and exited 0
    cfg = write_config(tmp_path / "k.cfg", f"""
[kernel]
{kernel}
[covering]
family = bessel
window = 0..0
[conditions]
list = A0prime
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown kernel kind")
    assert not (out / "A0prime.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hardykit.cli; "
         "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


@pytest.mark.parametrize("threads", [0, 2])
def test_threads_other_than_one_exit_1(tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert run(["--out", out, "--threads", threads, "verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--threads {threads}" in err
    assert not out.exists()


def test_verify_independent_of_blas_threads(tmp_path):
    # the product rule has more nodes than OpenBLAS's threading threshold
    # for a dot product, so a BLAS reduction would sum in another order
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = product
factors = bessel:1.0, bessel:1.0
[covering]
family = bessel-box
window = 0..0
[conditions]
list = A1prime
[quadrature]
tgrid_ppd = 4
qmc_y = 0
golden_iters = 0
""")
    src = str(Path(__file__).resolve().parents[1] / "src")
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "hardykit.cli", "--config", cfg,
             "--out", str(out), "verify"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "A1prime.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_maximal_independent_of_blas_threads(tmp_path):
    # Bessel(1) maximal sums its erfc terms with np.sum, not a BLAS matvec
    cfg = write_config(tmp_path / "m.cfg", """
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 2
cells = 96
""")
    src = str(Path(__file__).resolve().parents[1] / "src")
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "hardykit.cli", "--config", cfg,
             "--out", str(out), "maximal"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "maximal.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _cli_at_blas_threads(threads, *argv):
    """hardykit's CLI in a fresh process at the given BLAS thread count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hardykit.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300)


def test_schrodinger_independent_of_blas_threads(tmp_path):
    # the spectral benchmark's Schrodinger run: the MRRR eigenpairs, and
    # so every D' mass and K constant, do not follow the thread count
    cfg = write_config(tmp_path / "s.cfg", """
[kernel]
kind = schrodinger
potential = one
box_half_width = 20.0
n_points = 2000
[covering]
family = uniform
tau = 1.0
window = -2..0
[conditions]
list = Dprime,K
rho_target = 2.0
sigma_target = 0.1
n_max = 8
[quadrature]
qmc_y = 2
""")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = _cli_at_blas_threads(threads, "--config", cfg, "--out", out,
                                    "verify")
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("Dprime.txt", "K.txt", "Dprime.csv", "K.csv")])
    assert outputs[0] == outputs[1]


def test_radial_profile_independent_of_blas_threads(tmp_path):
    # the spectral benchmark's subordinated runs: each radial-profile build
    # pass fits all its panels in one multi-column lstsq, whose bits must
    # not follow the thread count
    cfg = write_config(tmp_path / "s.cfg", """
[kernel]
kind = subordinate
base = euclidean_heat
d = 1
nu = 0.7
[covering]
family = uniform
tau = 1.0
window = -1.0..0.0
[conditions]
list = A2prime
[quadrature]
tgrid_ppd = 8
qmc_y = 1
""")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        check = _cli_at_blas_threads(threads, "--out", out / "check",
                                     "subordinate-check")
        sub = _cli_at_blas_threads(threads, "--config", cfg, "--out",
                                   out / "sub", "verify")
        assert check.returncode == 0, check.stderr
        assert sub.returncode == 0, sub.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("check/subordinate_check.txt", "sub/A2prime.txt",
                         "sub/A2prime.csv")])
    assert outputs[0] == outputs[1]


def test_spectral_commands_import_no_scipy_special(tmp_path):
    # the commands of the spectral benchmark in one process: the stable
    # series takes math.lgamma and (K) specfun.erfcx, so scipy.special
    # (about 0.05 s and 3.5 MB after scipy.linalg) is never loaded
    sub = write_config(tmp_path / "sub.cfg", """
[kernel]
kind = subordinate
base = euclidean_heat
nu = 0.7
[covering]
family = uniform
tau = 1.0
window = 0..1
[conditions]
list = A2prime
[quadrature]
tgrid_ppd = 4
qmc_y = 1
""")
    schr = write_config(tmp_path / "schr.cfg", """
[kernel]
kind = schrodinger
potential = one
box_half_width = 12.0
n_points = 600
[covering]
family = uniform
tau = 1.0
window = -2..0
[conditions]
list = Dprime,K
[quadrature]
qmc_y = 2
""")
    argvs = [["--out", str(tmp_path / "check"), "subordinate-check"],
             ["--config", sub, "--out", str(tmp_path / "sub"), "verify"],
             ["--config", schr, "--out", str(tmp_path / "schr"), "verify"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; from hardykit.cli import main; "
            f"print([main(a) for a in {argvs!r}], "
            "'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] False"


def test_dprime_roundoff_mass_exits_2(tmp_path):
    # near the edge of the x^2 box every D' mass of this cuboid lies far
    # below the eigen-sum roundoff floor (5.5e-71 against 1.1e-15 at
    # n = 0), at every BLAS thread count
    cfg = write_config(tmp_path / "d.cfg", """
[kernel]
kind = schrodinger
potential = x2
[covering]
family = uniform
window = -19..-18
[conditions]
list = Dprime
[quadrature]
qmc_y = 2
""")
    errors = []
    for threads in ("1", "2"):
        proc = _cli_at_blas_threads(threads, "--config", cfg, "--out",
                                    tmp_path / f"blas{threads}", "verify")
        assert proc.returncode == 2, proc.stderr
        assert ("not above its eigen-sum floor at cuboid 0 "
                "(center (-18.5,)), n = 0: ") in proc.stderr
        errors.append(proc.stderr)
    assert errors[0] == errors[1]


def test_maximal_command(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "m.cfg", """
[kernel]
kind = euclidean_heat
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 4
cells = 64
""")
    out1 = tmp_path / "m1"
    out2 = tmp_path / "m2"
    calls = []
    maximal_norm = verifier.maximal_norm

    def counted(*args):
        calls.append(args)
        return maximal_norm(*args)

    monkeypatch.setattr(verifier, "maximal_norm", counted)
    assert run(["--config", cfg, "--out", out1, "--seed", 5, "maximal"]) == 0
    assert run(["--config", cfg, "--out", out2, "--seed", 5, "maximal"]) == 0
    assert (out1 / "maximal.csv").read_bytes() == (out2 / "maximal.csv").read_bytes()
    assert (out1 / "maximal.txt").read_text().endswith("status = ok\n")
    rows = (out1 / "maximal.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    # each of the two runs measures, per cuboid, the local atom of every
    # even j once and the two classical atoms once each
    cuboids = {row.split(",")[1] for row in rows}
    assert len(calls) == 2 * 3 * len(cuboids)
    assert rows[0].split(",")[1:] == rows[2].split(",")[1:]
    for row in rows:
        value = float(row.split(",")[3])
        assert value >= 1.0


STABLE_CFG = """
[kernel]
kind = stable
nu = {nu}
d = 1
[covering]
family = uniform
tau = 1.0
window = -1..1
[conditions]
list = A1prime,A2prime,A1,A2,a3a4
[quadrature]
tgrid_ppd = 4
qmc_y = 2
golden_iters = 4
[maximal]
atoms_per_cuboid = 1
cells = 64
"""


@pytest.mark.parametrize("nu,a1prime,maximal", [
    (0.5, 1.8128610642943126, 3.9746237435678644),
    (0.3, 1.1710964437539524, 2.8767410242407054),
])
def test_stable_kernel_verify_and_maximal(tmp_path, nu, a1prime, maximal):
    # at the smallest natural times the window's points lie far above the
    # radial profile's rho_max (rho up to 1e15 at nu = 0.3), where the
    # kernel reads the profile's tail series; the pinned constants come
    # from evaluating every point with the subordination rule
    cfg = write_config(tmp_path / "s.cfg", STABLE_CFG.format(nu=nu))
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "--seed", 3, "verify"]) == 0
    rows = (out / "A1prime.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        assert abs(float(row.split(",")[2]) / a1prime - 1.0) <= 1e-9
    # the norms' error columns are 8.0 % (nu = 1/2) and 7.4 % (nu = 0.3)
    # of their values, above the 5 % budget: FAIL, with every file written
    assert run(["--config", cfg, "--out", out, "--seed", 3, "maximal"]) == 1
    text = (out / "maximal.txt").read_text()
    assert text.endswith("status = FAIL\n")
    value = float(text.split("max_maximal_norm = ")[1].split("\n")[0])
    assert abs(value / maximal - 1.0) <= 1e-9
    assert (out / "maximal.csv").exists()


def test_verify_small_nu_subordinate_heat(tmp_path):
    # at nu = 0.04 the verifier's rho reaches about 5e5, above
    # rho_max = 4.3e5; the pinned constant comes from the subordination
    # rule, which at nu = 0.04 cut the density below s = 2^-50 (a 1e-8
    # relative change)
    cfg = write_config(tmp_path / "s.cfg", """
[kernel]
kind = subordinate
base = euclidean_heat
nu = 0.04
d = 1
[covering]
family = uniform
tau = 1.0
window = -1..1
[conditions]
list = A1prime
[quadrature]
tgrid_ppd = 4
qmc_y = 2
golden_iters = 4
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "--seed", 3, "verify"]) == 0
    rows = (out / "A1prime.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        assert abs(float(row.split(",")[2]) / 0.16721057200569905 - 1.0) <= 1e-7


def test_maximal_nan_norm_exit_2(tmp_path, monkeypatch):
    # a kernel whose propagated atom is NaN for x > 5 makes the norm NaN;
    # it must not be dropped by the running maximum into
    # max_maximal_norm = 0.0.  maximal reads T_t a through step_apply.
    class NanBeyond5(kernels.BesselKernel):
        def step_apply(self, t, x, g):
            v = super().step_apply(t, x, g)
            return np.where(np.asarray(x) > 5.0, np.nan, v)

    monkeypatch.setattr(cli, "build_kernel", lambda cfg: NanBeyond5(1.0))
    cfg = write_config(tmp_path / "m.cfg", """
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 1
cells = 32
""")
    out = tmp_path / "m"
    assert run(["--config", cfg, "--out", out, "maximal"]) == 2
    assert not (out / "maximal.txt").exists()


def test_verify_nan_at_refined_time_exit_2(tmp_path, monkeypatch, capsys):
    # a kernel that is NaN at the first refined time of every sup (the
    # first call after the grid with one time per value) makes the sup
    # NaN, and _max_over_y raises instead of dropping it
    class NanAtFirstRefinedTime(kernels.BesselKernel):
        after_grid = False

        def eval(self, t, x, y):
            v = super().eval(t, x, y)
            refined = np.shape(t)[-1] > 1
            first, self.after_grid = refined and self.after_grid, not refined
            return np.full(np.shape(v), np.nan) if first else v

    monkeypatch.setattr(cli, "build_kernel",
                        lambda cfg: NanAtFirstRefinedTime(1.0))
    cfg = write_config(tmp_path / "v.cfg", """
[covering]
family = bessel
window = 0..0
[conditions]
list = A1prime
[quadrature]
tgrid_ppd = 4
qmc_y = 0
golden_iters = 2
""")
    assert run(["--config", cfg, "--out", tmp_path / "out", "verify"]) == 2
    assert "sup integral not finite" in capsys.readouterr().err


def test_verify_a4_nan_exit_2(tmp_path, monkeypatch, capsys):
    # a heat kernel that is NaN below t = 0.5: only the (a4) grid
    # [1e-8 d_Q^2, d_Q^2] reaches there, and its integral is a numerical
    # failure, as every other sup integral's is
    class NanBelowHalf(kernels.EuclideanHeat):
        def eval(self, t, x, y):
            v = super().eval(t, x, y)
            return np.where(np.asarray(t) < 0.5, np.nan, v)

    monkeypatch.setattr(cli, "build_kernel", lambda cfg: NanBelowHalf(1))
    cfg = write_config(tmp_path / "v.cfg", """
[covering]
family = uniform
tau = 1.0
window = -2..2
[conditions]
list = a3a4
[quadrature]
tgrid_ppd = 4
qmc_y = 1
golden_iters = 2
box_nodes = 24
""")
    assert run(["--config", cfg, "--out", tmp_path / "out", "verify"]) == 2
    assert "(a4) integral not finite at y = " in capsys.readouterr().err


def test_smalltime_needs_1d_kernel_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = product
factors = bessel,laguerre
[covering]
family = bessel-laguerre-box
window = 0..0
[conditions]
list = smalltime
""")
    assert run(["--config", cfg, "--out", tmp_path / "out", "verify"]) == 1
    assert "small-time limits need a 1-D kernel, got dimension 2" in \
        capsys.readouterr().err


@pytest.mark.parametrize("kernel,covering,conditions", [
    # D'/K measured only the first coordinate of each 2-D cuboid and
    # reported ok
    ("kind = schrodinger\nn_points = 200", "family = bessel-box\nwindow = 0..0",
     "list = Dprime,K\n[quadrature]\nqmc_y = 0"),
    ("kind = product\nfactors = bessel:1,bessel:1",
     "family = bessel\nwindow = 0..0", "list = A2prime"),
    ("kind = bessel", "family = bessel-box\nwindow = 0..0",
     "list = A1prime,A2prime"),
], ids=["schrodinger-Dprime-K", "product-A2prime", "bessel-box-A1A2"])
def test_verify_dimension_mismatch_exit_1(tmp_path, capsys, kernel, covering,
                                          conditions):
    cfg = write_config(tmp_path / "v.cfg", f"""
[kernel]
{kernel}
[covering]
{covering}
[conditions]
{conditions}
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    err = capsys.readouterr().err
    assert "has dimension" in err and "the covering has dimension" in err
    assert not (out / "verify_summary.txt").exists()


@pytest.mark.parametrize("kernel,dims", [
    ("kind = product\nfactors = bessel:1,bessel:1", "kernel dimension 2"),
    ("kind = bessel", "covering dimension 2"),
], ids=["product", "bessel"])
def test_maximal_needs_1d_exit_1(tmp_path, capsys, kernel, dims):
    cfg = write_config(tmp_path / "m.cfg", f"""
[kernel]
{kernel}
[covering]
family = bessel-box
window = 0..0
[maximal]
atoms_per_cuboid = 2
cells = 16
""")
    assert run(["--config", cfg, "--out", tmp_path / "out", "maximal"]) == 1
    err = capsys.readouterr().err
    assert "maximal norms need a 1-D kernel and covering" in err
    assert dims in err


def test_decompose_needs_1d_covering_exit_1(tmp_path, capsys):
    fpath = tmp_path / "f.txt"
    atoms.save_grid_function(fpath, atoms.GridFunction(1.5, 3.5, np.ones(16)))
    cfg = write_config(tmp_path / "d.cfg", """
[covering]
family = bessel-box
window = 0..1
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "decompose", fpath]) == 1
    assert "decompose needs a 1-D covering, got dimension 2" in \
        capsys.readouterr().err
    assert not (out / "decompose_summary.txt").exists()


def test_decompose_roundtrip(tmp_path):
    lo, hi = 2.0 ** -3, 2.0 ** 4
    n = 4096
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    c, w = 2.0, 1.2
    vals = np.where(np.abs(x - c) < w,
                    np.exp(-1.0 / np.maximum(1e-300, 1.0 - ((x - c) / w) ** 2)),
                    0.0)
    fpath = tmp_path / "bump.txt"
    atoms.save_grid_function(fpath, atoms.GridFunction(lo, hi, vals))
    cfg = write_config(tmp_path / "d.cfg", """
[covering]
family = bessel
window = -3..3
[decompose]
depth = 8
cells = 1024
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "decompose", fpath]) == 0
    summary = dict(line.split(" = ") for line in
                   (out / "decompose_summary.txt").read_text().strip().split("\n"))
    assert float(summary["reconstruction_l1_error"]) < 1e-10
    assert float(summary["partition_identity_error"]) < 1e-12
    assert float(summary["coefficient_l1"]) > 0
    # serialized decomposition loads back
    from hardykit.domain import half_line
    dec = atoms.load_decomposition(out / "decomposition.txt", half_line())
    assert dec.terms


def test_decompose_window_error(tmp_path):
    fpath = tmp_path / "wide.txt"
    atoms.save_grid_function(
        fpath, atoms.GridFunction(0.01, 40.0, np.ones(256)))
    cfg = write_config(tmp_path / "d.cfg", """
[covering]
family = bessel
window = -3..3
""")
    assert run(["--config", cfg, "--out", tmp_path / "out",
                "decompose", fpath]) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_non_finite_input_exit_1(tmp_path, capsys, bad):
    vals = np.linspace(-1.0, 1.0, 64)
    vals[10] = bad
    fpath = tmp_path / "f.txt"
    atoms.save_grid_function(fpath, atoms.GridFunction(0.25, 16.0, vals))
    cfg = write_config(tmp_path / "d.cfg", """
[covering]
family = laguerre
window = -2..4
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "decompose", fpath]) == 1
    assert "input cell 10 " in capsys.readouterr().err
    assert not (out / "decomposition.txt").exists()
    assert not (out / "decompose_summary.txt").exists()


def _polynomial_bumps(x):
    """Three bumps (1 - u^2)^2, u = (x - c)/w on |u| < 1: +, -, * and / only,
    so the values, and the decomposition of them, do not depend on libm."""
    values = np.zeros_like(x)
    for c, w, a in ((2.5, 0.4, 1.5), (3.1, 0.3, -0.8), (9.0, 2.0, 0.25)):
        u = (x - c) / w
        inside = np.abs(u) < 1.0
        values[inside] += a * (1.0 - u[inside] * u[inside]) ** 2
    return values


def test_decompose_output_digests(tmp_path):
    # the benchmark's decompose shape: 684 cuboids (laguerre -2..4), depth 6,
    # 256 cells, from a 2048-cell input; the digests pin the output bytes
    f = atoms.GridFunction(0.25, 16.0, np.zeros(2048))
    fpath = tmp_path / "f.txt"
    atoms.save_grid_function(
        fpath, atoms.GridFunction(f.lo, f.hi, _polynomial_bumps(f.centers)))
    cfg = write_config(tmp_path / "d.cfg", """
[covering]
family = laguerre
window = -2..4
[decompose]
depth = 6
cells = 256
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "decompose", fpath]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("decomposition.txt", "decompose_summary.txt")}
    assert digests == {
        "decomposition.txt":
        "28b83a6ee46d4624622772eb5e4e1afb256769282a9647875fbc931000be5737",
        "decompose_summary.txt":
        "4365256fec25a5adf8217d74453499dc3a48c3d31d556176f516a04e92931c46"}


def test_verify_fit_conditions(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = laguerre
alpha = 0.5
[covering]
family = laguerre
window = -1..0
[conditions]
list = a0prime,a0gauss,laguerre_envelope,smalltime
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 0
    for name in ("A0prime", "A0gauss", "laguerre_envelope",
                 "smalltime_limits"):
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.txt").exists()


def test_verify_laguerre_envelope_alpha0_fails(tmp_path):
    # at alpha = 0 the fitted constant misses the sup on held-out probes
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = laguerre
alpha = 0.0
[conditions]
list = laguerre_envelope
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    assert "[FAIL]" in (out / "verify_summary.txt").read_text()


def test_verify_a3a4_and_k_conditions(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = schrodinger
potential = one
box_half_width = 12.0
n_points = 600
[covering]
family = uniform
tau = 1.0
window = -2..2
[conditions]
list = K,a3a4
[quadrature]
tgrid_ppd = 6
qmc_y = 2
golden_iters = 0
box_nodes = 48
""")
    out = tmp_path / "out"
    # the coarse box rule leaves (a4) errors above the budget of its value
    assert run(["--config", cfg, "--out", out, "verify"]) == 1
    for name in ("K", "a3", "a4"):
        assert (out / f"{name}.csv").exists()
    verdicts = {line.split(":")[0]: line.rsplit(" ", 1)[1] for line in
                (out / "verify_summary.txt").read_text().splitlines()}
    assert verdicts == {"K": "[ok]", "a3": "[ok]", "a4": "[FAIL]"}


def test_verify_product_kernel_config(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", """
[kernel]
kind = product
factors = bessel:1.0, bessel:1.0
[covering]
family = bessel-box
window = 0..0
[conditions]
list = a0prime
""")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 0
    assert "product" in (out / "A0prime.txt").read_text()


def test_subordinate_check(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", out, "subordinate-check"]) == 0
    text = (out / "subordinate_check.txt").read_text()
    assert "status = ok" in text


def test_subordinate_check_nan_error_fails(tmp_path, monkeypatch, capsys):
    # a NaN error must not drop out of the maximum and read as ok
    closed_form = kernels.poisson_kernel

    def nan_far(t, x, y, d=1):
        return np.where(np.asarray(x) > 6.0, np.nan, closed_form(t, x, y, d))

    monkeypatch.setattr(kernels, "poisson_kernel", nan_far)
    out = tmp_path / "out"
    assert run(["--out", out, "subordinate-check"]) == 1
    assert "poisson_kernel_max_rel_err = nan" in capsys.readouterr().out
    assert "status = FAIL" in (out / "subordinate_check.txt").read_text()


def test_missing_config_errors(tmp_path):
    assert run(["--config", tmp_path / "nope.cfg", "--out", tmp_path,
                "covering"]) == 1


def test_unknown_config_key_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.cfg", VERIFY_CFG + "tgrid_pdd = 8\n")
    assert run(["--config", cfg, "--out", tmp_path / "out", "verify"]) == 1
    assert "'tgrid_pdd'" in capsys.readouterr().err
    cfg = write_config(tmp_path / "s.cfg", VERIFY_CFG + "[quadrature_extra]\n")
    assert run(["--config", cfg, "--out", tmp_path / "out2", "verify"]) == 1
    assert "quadrature_extra" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "tgrid_ppd = 8\n[quadrature]\n",
    "[quadrature]\ntgrid_ppd = 8\ntgrid_ppd = 4\n",
    "[quadrature]\ntgrid_ppd\n",
], ids=["key-before-section", "duplicate-key", "line-without-equals"])
def test_malformed_config_exit_1(tmp_path, capsys, text):
    cfg = write_config(tmp_path / "bad.cfg", text)
    assert run(["--config", cfg, "--out", tmp_path / "out", "covering"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_percent_in_config_value_is_text(tmp_path, capsys):
    cfg = write_config(tmp_path / "pct.cfg", "[covering]\nfamily = bes%sel\n")
    assert run(["--config", cfg, "--out", tmp_path / "out", "covering"]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown covering family 'bes%sel'\n"


def test_a1prime_shared_with_a1_is_byte_identical(tmp_path):
    base = VERIFY_CFG.replace("window = -1..1", "window = 0..0")
    for name, conditions in (("alone", "A1prime"), ("shared", "A1prime,A1")):
        cfg = write_config(tmp_path / f"{name}.cfg", base.replace(
            "list = A1prime,A2prime", f"list = {conditions}"))
        assert run(["--config", cfg, "--out", tmp_path / name, "verify"]) == 0
    for suffix in ("csv", "txt"):
        assert (tmp_path / "alone" / f"A1prime.{suffix}").read_bytes() == \
            (tmp_path / "shared" / f"A1prime.{suffix}").read_bytes()
    assert not (tmp_path / "alone" / "A1_delta0.000.csv").exists()
    assert (tmp_path / "shared" / "A1_delta0.180.csv").exists()


# (command, config) of each run whose sup-integral outputs are pinned
SUP_INTEGRAL_RUNS = {
    "verify": ("verify", """
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = 0..0
[conditions]
list = A1prime,A2prime,A1,A2
[quadrature]
tgrid_ppd = 4
qmc_y = 1
"""),
    "a3a4": ("verify", """
[kernel]
kind = euclidean_heat
[covering]
family = uniform
tau = 1.0
window = -1..1
[conditions]
list = a3a4
[quadrature]
tgrid_ppd = 4
qmc_y = 1
box_nodes = 24
"""),
    "maximal": ("maximal", """
[kernel]
kind = bessel
beta = 1.0
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 2
cells = 32
"""),
}

# float.hex of every constant, error and meta.boundary_frac of each report,
# in file order, and of every value and error of maximal.csv
SUP_INTEGRAL_BITS = {
    "A1prime.txt": ["0x1.94f22121ed0f1p+0", "0x1.dd53de39e0000p-14",
                    "0x0.0p+0"],
    "A1_delta0.000.txt": ["0x1.94f22121ed0f1p+0", "0x1.dd53de39e0000p-14",
                          "0x0.0p+0"],
    "A1_delta0.100.txt": ["0x1.6a0acdc21e24ep+0", "0x1.b399738348000p-15",
                          "0x0.0p+0"],
    "A1_delta0.180.txt": ["0x1.6a8dbc1143e71p+0", "0x1.075dd03a10000p-15",
                          "0x0.0p+0"],
    "A2prime.txt": ["0x1.218782f94c1c3p-4", "0x1.1cb038f6c0000p-22",
                    "0x1.0000000000000p+0"],
    "A2_delta0.000.txt": ["0x1.218782f94c1c3p-4", "0x1.1cb038f6c0000p-22",
                          "0x1.0000000000000p+0"],
    "A2_delta0.100.txt": ["0x1.218782f94c1c3p-4", "0x1.1cb038f6c0000p-22",
                          "0x1.0000000000000p+0"],
    "A2_delta0.180.txt": ["0x1.218782f94c1c3p-4", "0x1.1cb038f6c0000p-22",
                          "0x1.0000000000000p+0"],
    "a3.txt": ["0x1.3696ebcc5e223p-2", "0x1.3ef522ca10000p-17",
               "0x1.0000000000000p+0", "0x1.3696ebcc5e223p-2",
               "0x1.3ef522ca10000p-17", "0x1.0000000000000p+0"],
    "a4.txt": ["0x1.282589b57958cp-2", "0x1.dc3498d1038d0p-8",
               "0x1.282589b57958dp-2", "0x1.dc3498d1038d0p-8",
               "0x1.688cb15fa16a2p+0", "0x1.e30be45496240p-6"],
    "maximal.csv": ["0x1.eb6e883f24f70p+0", "0x1.8fe210e5f6000p-15",
                    "0x1.5aa9cff5d8158p+0", "0x1.bc080e0ae31b8p-8"],
}


def test_sup_integral_outputs_bit_identical(tmp_path):
    # every estimator built on sup_over_t: (A1')/(A1), (A2')/(A2), (a3),
    # (a4) and the maximal norms of atoms
    keys = ("constant = ", "error = ", "meta.boundary_frac = ")
    got = {}
    for name, (command, text) in SUP_INTEGRAL_RUNS.items():
        cfg = write_config(tmp_path / f"{name}.cfg", text)
        out = tmp_path / name
        assert run(["--config", cfg, "--out", out, command]) == 0
        if command == "maximal":
            rows = (out / "maximal.csv").read_text().strip().split("\n")[1:]
            got["maximal.csv"] = [float(v).hex() for row in rows
                                  for v in row.split(",")[3:5]]
            continue
        for path in out.glob("*.txt"):
            if path.name in SUP_INTEGRAL_BITS:
                got[path.name] = [
                    float(line.split(" = ")[1]).hex()
                    for line in path.read_text().split("\n")
                    if line.startswith(keys)]
    assert got == SUP_INTEGRAL_BITS
