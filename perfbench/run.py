"""hardykit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's inputs are generated from
the seed into ``.perfbench_out/``; then fresh ``child.py`` processes, one
per repeat, run the CLI commands on them until ``--seconds`` is spent (at
least three repeats).  Each repeat's outputs are checked against the
committed reference for the seed's input set.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics (medians over repeats) with
``--trace 0`` and the per-layer metrics with ``--trace 1``.

``--record-reference`` runs one repeat and writes its outputs as the
reference for the seed's input set instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_REPEATS = 3
DEADLINE_S = 170.0   # the whole run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

FAMILIES = ("BesselKernel", "LaguerreKernel", "EuclideanHeat",
            "SubordinateKernel", "SchrodingerKernel", "ProductKernel")


def _layer_table() -> dict:
    """Per-layer metric name -> (tracer field, span name); see README.md."""
    spans = [
        ("specfun.log_bessel_i_scaled", ("calls", "points", "self_s")),
        ("specfun.stable_density", ("calls", "points", "self_s")),
        ("specfun.stable_laplace_check", ("self_s",)),
        *[(f"quadrature.{f}", ("calls", "self_s"))
          for f in ("sup_over_t", "golden_refine", "integrate", "halton",
                    "integrate_adaptive")],
        ("quadrature.gauss_kronrod_15", ("calls",)),
        ("quadrature.rule_for_box", ("self_s",)),
        ("quadrature.rule_for_complement", ("self_s",)),
        ("coverings.validate_covering", ("calls", "self_s")),
        ("coverings.PartitionOfUnity.evaluate_all", ("calls", "points", "self_s")),
        ("coverings.partition_of_unity", ("self_s",)),
        ("coverings.build", ("self_s",)),
        *[(f"kernels.{f}.eval", ("calls", "points", "self_s")) for f in FAMILIES],
        ("kernels.schrodinger_build", ("self_s",)),
        ("kernels.mass", ("calls", "self_s")),
        *[(f"atoms.{f}", ("calls", "self_s"))
          for f in ("make_local_atom", "random_classical_atom", "localize",
                    "local_decompose", "localize_reconstruction_error")],
        *[(f"verifier.{f}", ("calls", "self_s"))
          for f in ("verify_A1prime", "verify_A2prime", "verify_A1",
                    "verify_A2", "verify_schrodinger_D",
                    "verify_schrodinger_K", "maximal_norm", "y_samples")],
        ("cli.build", ("self_s",)),
    ]
    table = {f"{span}.{field}": (field, span)
             for span, fields in spans for field in fields}
    # inclusive durations: set-up cost of a rule, wall time of a command
    table["kernels.SubordinationRule.init_s"] = (
        "total_s", "kernels.SubordinationRule.init")
    for cmd in ("covering", "verify", "maximal", "decompose", "subordinate-check"):
        table[f"cli.{cmd}.wall_s"] = ("total_s", f"cli.{cmd}")
    return table


LAYER = _layer_table()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for name in sorted(os.listdir("src/hardykit")):
        if name.endswith(".py"):
            with open(os.path.join("src/hardykit", name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed,
        "input_variant": workloads.variant(seed),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of a .git directory in the working directory, read as files."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
    except FileNotFoundError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except FileNotFoundError:
        pass
    try:
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except FileNotFoundError:
        pass
    return None


def dir_bytes(path: str, skip=("child.json", "spans.npz", "child.log")) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f))
                     for f in files if f not in skip)
    return total


class Runner:
    def __init__(self, spec_path: str, run_dir: str, started: float):
        self.spec_path = spec_path
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
                        PYTHONHASHSEED="0", **THREAD_ENV)

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def warm_up(self) -> None:
        """Compile and page in the package once, outside any timing."""
        subprocess.run([sys.executable, "-c", "import hardykit.cli"],
                       env=self.env, check=True, timeout=max(self.time_left(), 1))

    def repeat(self, index: int, trace: bool) -> tuple[str, dict]:
        out = os.path.join(self.run_dir, f"rep{index}")
        os.makedirs(out)
        with open(os.path.join(out, "child.log"), "w") as log:
            spawn = time.monotonic()
            subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), self.spec_path,
                 out, repr(spawn), "1" if trace else "0"],
                env=self.env, stdout=log, stderr=subprocess.STDOUT, check=True,
                timeout=max(self.time_left(), 1))
        with open(os.path.join(out, "child.json")) as fh:
            return out, json.load(fh)


def check_repeat(workload, out: str, child: dict, reference: dict) -> list:
    exits = dict(child["exit_codes"])
    try:
        observed = workload.observe(out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        # every operation the reference holds counts as failed
        names = [name for name, _, _ in workload.check(reference, reference, {})]
        return [(name, False, f"unreadable output: {exc!r}") for name in names]
    return workload.check(observed, reference, exits)


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics from the traced repeats, and any inconsistency."""
    problems = []
    counts = [{**{f"{k}.calls": v for k, v in t["trace"]["calls"].items()},
               **{f"{k}.points": v for k, v in t["trace"]["points"].items()},
               **{f"{k}.errors": v for k, v in t["trace"]["errors"].items()}}
              for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("calls/points counts differ between traced repeats")
    for t in traced:
        tr = t["trace"]
        if abs(sum(tr["self_s"].values()) - tr["all_self_s"]) > 1e-6:
            problems.append("self times do not sum to the span roots")
    metrics = {}
    for name, (field, span) in LAYER.items():
        if field in ("calls", "points"):
            value, unit = counts[0].get(f"{span}.{field}", 0), "count"
        else:
            value = statistics.median(
                t["trace"][field].get(span, 0.0) for t in traced)
            unit = "s"
        metrics[name] = {"value": value, "unit": unit}
    calls = sum(counts[0].get(f"kernels.{f}.eval.calls", 0) for f in FAMILIES)
    points = sum(counts[0].get(f"kernels.{f}.eval.points", 0) for f in FAMILIES)
    metrics["kernels.eval.points_per_call"] = {
        "value": points / calls if calls else 0.0, "unit": "count"}
    for module in ("quadrature", "kernels"):
        metrics[f"{module}.errors"] = {
            "value": counts[0][f"{module}.errors"], "unit": "count"}
    metrics["cli.bytes_written"] = {"value": traced[0]["bytes_written"],
                                    "unit": "B"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(t["wall_s"] for t in traced)
        / statistics.median(u["wall_s"] for u in untraced) - 1.0,
        "unit": "ratio"}
    metrics["trace.accounted_frac"] = {
        "value": statistics.median(t["trace"]["work_self_s"] / t["wall_s"]
                                   for t in traced),
        "unit": "ratio"}
    return metrics, problems


def measure(runner: Runner, workload, reference: dict, seconds: float,
            trace: bool) -> tuple[dict, int, int]:
    """Run and check repeats until the time is spent; traced runs alternate."""
    modes = [True, False] if trace else [False]
    runs = {True: [], False: []}
    last = {True: 0.0, False: 0.0}
    attempted = failed = 0
    index = 0
    while True:
        traced = modes[index % len(modes)]
        t0 = time.monotonic()
        out, child = runner.repeat(index, traced)
        last[traced] = time.monotonic() - t0
        verdicts = check_repeat(workload, out, child, reference)
        bad = [(n, why) for n, ok, why in verdicts if not ok]
        attempted += len(verdicts)
        failed += len(bad)
        child["bytes_written"] = dir_bytes(out)
        runs[traced].append(child)
        print(f"repeat {index} trace={int(traced)} setup_s={child['setup_s']:.4f} "
              f"wall_s={child['wall_s']:.4f} cpu_s={child['cpu_s']:.4f} "
              f"peak_rss_mb={child['peak_rss_mb']:.1f} failed={len(bad)}"
              + "".join(f"\n  FAILED {n}: {why}" for n, why in bad[:10])
              + "".join(f"\n  {e}" for e in child["errors"][:3]))
        if index > 0:   # keep the first repeat's outputs for inspection
            for name in os.listdir(out):
                if name not in ("child.json", "spans.npz", "child.log"):
                    shutil.rmtree(os.path.join(out, name))
        index += 1
        elapsed = time.monotonic() - runner.started
        ahead = elapsed + last[modes[index % len(modes)]]
        if (index >= MIN_REPEATS and ahead > seconds) or ahead > DEADLINE_S - 5.0:
            return runs, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "hardykit", "cli.py")):
        print("error: run from the repository root (src/hardykit missing)",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ref_path = os.path.join(HERE, "reference",
                            f"{workload.name}-v{workloads.variant(args.seed)}.json")
    run_dir = os.path.join(".perfbench_out",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    indir = os.path.join(run_dir, "inputs")
    os.makedirs(indir)
    spec_path = os.path.join(indir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(workload.inputs(args.seed, indir), fh, indent=1)
    prov = provenance(workload.name, args.seed)
    with open(os.path.join(run_dir, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1)
    print("provenance " + json.dumps(prov))

    runner = Runner(spec_path, run_dir, started)
    runner.warm_up()
    if args.record_reference:
        out, _child = runner.repeat(0, False)
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "w") as fh:
            json.dump(workload.observe(out), fh, indent=1)
        print(f"wrote {ref_path}")
        return 0
    with open(ref_path) as fh:
        reference = json.load(fh)

    runs, attempted, failed = measure(runner, workload, reference,
                                      args.seconds, bool(args.trace))

    if args.trace:
        metrics, problems = layer_metrics(runs[True], runs[False])
    else:
        metrics = {name: {"value": statistics.median(c[name] for c in runs[False]),
                          "unit": unit} for name, unit in END_TO_END.items()}
        problems = []
    for problem in problems:
        print(f"TRACE PROBLEM: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
