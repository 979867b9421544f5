"""Run every perfbench workload and save the results.

Usage, from the root of a checkout::

    python3 perfbench/suite.py --out DIR [--seeds 1 2 3] [--seconds 10] [--trace 0 1]

Runs ``run.py`` untraced for every workload and seed and, since a
traced run covers every workload, traced once per seed, one process at
a time; saves each run's standard output as
``DIR/<workload>.trace<flag>.seed<seed>.out`` (the input of
``compare.py``) and prints every metric with its unit.  The exit status
is 1 if any run failed, reported a failed operation, or printed no
result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run every perfbench workload.")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for trace in args.trace:
        for workload in args.workloads[:1] if trace else args.workloads:
            for seed in args.seeds:
                command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                      timeout=900, check=False)
                out = args.out / f"{workload}.trace{trace}.seed{seed}.out"
                out.write_text(done.stdout, encoding="utf-8")
                label = f"{workload} trace={trace} seed={seed}"
                try:
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    print(f"{label}: no result (exit {done.returncode})\n{done.stderr[-2000:]}")
                    status = 1
                    continue
                if done.returncode or not result["correct"]:
                    status = 1
                print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
                if done.stderr.strip():
                    print(done.stderr.rstrip())
                for name, metric in result["metrics"].items():
                    print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
