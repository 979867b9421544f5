"""Run one perfbench workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload untraced and reports every
end-to-end metric.  ``--trace 1`` reports every per-layer metric: each
workload traces a different layer of the stack, so a traced run runs
the traced part of every workload, the named one first, each for an
equal share of the seconds (see README.md in this directory).  Standard
output ends with two JSON lines: the run's stamp (workload, seed, trace
flag and environment), then the result, an object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed checks
are listed on standard error.

Every process the benchmark starts runs with BLAS pinned to one thread.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed
before exit.  Without the program's sources (``src/repro``) beside this
directory the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

# Before anything imports numpy, here or in a child process.
benchlib.pin_blas_threads()

WORKLOADS = {
    "engine-paper": "workload_engine",
    "zoo-e2e": "workload_zoo",
    "serve-imdb": "workload_serve",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def use_checkout_sources() -> bool:
    """Import the program from this checkout's ``src``; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().parent == (SRC / "repro").resolve()


def measure(names, seed: int, seconds: float, trace: bool
            ) -> Tuple[benchlib.Metrics, benchlib.Outcome]:
    """Run the named workloads one after another, merging their results."""
    metrics, outcome = benchlib.Metrics(), benchlib.Outcome()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{names[0]}-", dir=WORK_DIR))
    try:
        for name in names:
            part, checks = importlib.import_module(WORKLOADS[name]).run(
                root=ROOT, seed=seed, seconds=seconds / len(names), trace=trace,
                workdir=workdir,
            )
            for metric, record in part.to_json().items():
                metrics.add(metric, record["value"], record["unit"])
            outcome.attempted += checks.attempted
            outcome.failed += checks.failed
            outcome.notes += [f"{name}: {note}" for note in checks.notes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    return metrics, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    names = [args.workload]
    if args.trace:
        names += [name for name in WORKLOADS if name != args.workload]
    metrics, outcome = measure(names, args.seed, args.seconds, bool(args.trace))

    printed = metrics.to_json()
    declared = declared_units(bool(args.trace))
    wrong = sorted(
        name for name, metric in printed.items() if declared.get(name) != metric["unit"]
    )
    missing = sorted(set(declared) - set(printed))
    if wrong or missing:
        print(f"perfbench: not as declared in BENCHMARK.json: {wrong}; missing: {missing}",
              file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": benchlib.env_stamp(ROOT),
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": printed,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
