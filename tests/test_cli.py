import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hardykit import atoms, cli, kernels
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


def test_verify_numerical_failure_exit_2(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", VERIFY_CFG + "hard_quad_tol = 1e-18\n")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "verify"]) == 2


def test_verify_threads_match_serial(tmp_path):
    cfg = write_config(tmp_path / "v.cfg", VERIFY_CFG)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "threaded"
    assert run(["--config", cfg, "--out", out1, "verify"]) == 0
    assert run(["--config", cfg, "--out", out2, "--threads", 3, "verify"]) == 0
    assert (out1 / "A1prime.csv").read_bytes() == (out2 / "A1prime.csv").read_bytes()


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


def test_dprime_roundoff_mass_exits_2(tmp_path):
    # near the edge of the x^2 box every D' mass of this cuboid is
    # eigen-sum roundoff, negative at one BLAS thread (-7.7e-34 at n = 0)
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hardykit.cli", "--config", cfg,
         "--out", str(tmp_path / "out"), "verify"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "cuboid 0 (center (-18.5,)), n = 0: -" in proc.stderr


def test_maximal_command(tmp_path):
    cfg = write_config(tmp_path / "m.cfg", """
[kernel]
kind = euclidean_heat
[covering]
family = bessel
window = 0..0
[maximal]
atoms_per_cuboid = 2
cells = 64
""")
    out1 = tmp_path / "m1"
    out2 = tmp_path / "m2"
    assert run(["--config", cfg, "--out", out1, "--seed", 5, "maximal"]) == 0
    assert run(["--config", cfg, "--out", out2, "--seed", 5, "maximal"]) == 0
    assert (out1 / "maximal.csv").read_bytes() == (out2 / "maximal.csv").read_bytes()
    rows = (out1 / "maximal.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    for row in rows:
        value = float(row.split(",")[3])
        assert value >= 1.0


def test_maximal_nan_norm_exit_2(tmp_path, monkeypatch):
    # a kernel that is NaN for x > 5 makes the norm NaN; it must not be
    # dropped by the running maximum into max_maximal_norm = 0.0
    class NanBeyond5(kernels.BesselKernel):
        def eval(self, t, x, y):
            v = super().eval(t, x, y)
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
    assert run(["--config", cfg, "--out", out, "verify"]) == 0
    for name in ("K", "a3", "a4"):
        assert (out / f"{name}.csv").exists()


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
