"""One repeat of a workload, in a fresh process.

Usage: python3 child.py SPEC OUT SPAWN_TIME TRACE

SPEC is the JSON command list that ``workloads.py`` wrote, OUT the
directory this repeat writes into, SPAWN_TIME the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide, so the difference is the set-up time the user sees), and
TRACE 1 to install the span tracer.

Set-up is the imports, config parsing and, for every command, building its
covering, kernel and settings through ``hardykit.cli``'s builders.  The
builders are memoized, so when each command then runs through
``hardykit.cli.main`` it reuses what set-up built and the work phase holds
only the work.  The result is written to OUT/child.json.
"""

import json
import os
import resource
import sys
import time
import traceback


def _memoize(cli, names):
    """Replace cli builders by versions cached per effective config."""
    def memo(fn):
        cache = {}

        def cached(cfg):
            key = tuple(cfg.echo_lines())
            if key not in cache:
                cache[key] = fn(cfg)
            return cache[key]
        return cached

    for name in names:
        setattr(cli, name, memo(getattr(cli, name)))


BUILDERS = {
    "covering": ("build_covering",),
    "verify": ("build_kernel", "build_covering", "build_settings"),
    "maximal": ("build_kernel", "build_covering", "build_settings"),
    "decompose": ("build_covering",),
    "subordinate-check": (),
}


def main():
    spec_path, out, spawn_time, trace = sys.argv[1:5]
    spawn_time = float(spawn_time)
    trace = trace == "1"
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath("src")

    import hardykit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hardykit imported from {cli.__file__}, not {src}")

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    _memoize(cli, ("build_covering", "build_kernel", "build_settings"))

    result = {"exit_codes": [], "errors": []}
    for command in spec["commands"]:
        cfg = cli.load_config(command["config"], spec["cli_seed"], 1)
        for builder in BUILDERS[command["argv"][0]]:
            getattr(cli, builder)(cfg)
    setup_end = time.monotonic()
    work_start_pc = time.perf_counter()

    for command in spec["commands"]:
        argv = ["--out", os.path.join(out, command["name"]),
                "--seed", str(spec["cli_seed"]), "--threads", "1"]
        if command["config"] is not None:
            argv += ["--config", command["config"]]
        try:
            code = cli.main(argv + command["argv"])
        except Exception:
            code = None
            result["errors"].append(traceback.format_exc())
        result["exit_codes"].append([command["name"], code])
    sys.stdout.flush()
    work_end_pc = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        setup_s=setup_end - spawn_time, wall_s=work_end_pc - work_start_pc,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.save(os.path.join(out, "spans.npz"))
        result["trace"] = {
            "calls": tracer.calls, "points": tracer.points,
            "self_s": tracer.self_s, "total_s": tracer.total_s,
            "errors": tracer.errors,
            "work_self_s": tracer.self_time_between(work_start_pc, work_end_pc),
            "all_self_s": tracer.self_time_between(-float("inf"), float("inf")),
        }
    with open(os.path.join(out, "child.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
