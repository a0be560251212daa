"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 40] [--trace 0]

Run from the repository root.  For each workload this runs
``perfbench/run.py`` once and prints one line per metric, followed by
``failed_frac`` (failed operations over attempted ones) and whether the
outputs were correct.  Exits 1 if any workload's outputs were wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    all_correct = True
    for name, workload in workloads.WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"# {name}: {workload.why}")
        for metric, entry in result["metrics"].items():
            print(f"{name:9s} {metric:48s} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:9s} {'failed_frac':48s} "
              f"{result['failed'] / result['attempted']:>16.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        print(f"{name:9s} {'correct':48s} {result['correct']!s:>16}")
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
