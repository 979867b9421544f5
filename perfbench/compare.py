"""Compare two sets of perfbench results.

Usage, from the root of a checkout::

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories (searched recursively) or single files, each
file holding the standard output of one ``run.py`` invocation, as
``suite.py`` saves them.  For every workload and end-to-end metric the
command prints both sides' medians and quartiles, the relative change of
the medians, the bound from ``BENCHMARK.json`` and a verdict; the
per-layer metrics follow, pooled over every traced run (each traced run
measures every layer), with their medians and relative change.

Verdicts, with "better" and "worse" oriented by the metric's ``better``
direction.  When either side's quartile spread (as a share of its
median) exceeds the bound, the medians cannot settle the question:

- ``better`` / ``worse``: every new run beats / trails every old run
  (and, for ``worse``, the medians differ by more than the bound);
- ``unresolved``: otherwise.

When both spreads are within the bound:

- ``worse``: the new median is worse than the old by more than the bound;
- ``better``: the new median is better by more than the old side's spread;
- ``same``: otherwise.

The exit status is 1 if any metric is ``worse`` or any run reported a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import median, quartiles  # noqa: E402

#: (workload, metric) -> values across runs; per-layer metrics of every
#: traced run are pooled under :data:`TRACED`.
Values = Dict[Tuple[str, str], List[float]]
TRACED = "traced runs"


def load_runs(path: Path) -> List[dict]:
    """Every parseable run under ``path``: its stamp and its result."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        lines = [line for line in file.read_text(encoding="utf-8").splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            stamp = json.loads(lines[-2])["stamp"]
            result = json.loads(lines[-1])
            result["metrics"]
        except (ValueError, KeyError, TypeError):
            continue
        runs.append({"stamp": stamp, "result": result})
    return runs


def collect(runs: Sequence[dict]) -> Tuple[Values, Dict[str, str], Dict[str, int]]:
    values: Values = defaultdict(list)
    units: Dict[str, str] = {}
    failures: Dict[str, int] = defaultdict(int)
    for run in runs:
        workload = run["stamp"]["workload"]
        result = run["result"]
        failures[workload] += int(result.get("failed", 0)) + (0 if result.get("correct") else 1)
        group = TRACED if int(run["stamp"]["trace"]) else workload
        for name, metric in result["metrics"].items():
            values[(group, name)].append(float(metric["value"]))
            units[name] = metric["unit"]
    return values, units, failures


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    old_mid, new_mid = median(old), median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_mid - old_mid) / abs(old_mid)
    if bound is not None and max(spread(old), spread(new)) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better"
        if worse_by > bound and all(sign * (n - o) > 0 for n in new for o in old):
            return "worse"
        return "unresolved"
    if bound is not None and worse_by > bound:
        return "worse"
    if -worse_by > spread(old):
        return "better"
    return "same"


def _fmt(values: Sequence[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m for m in manifest["per_layer"]}

    old_values, units, old_failures = collect(load_runs(args.old))
    new_values, new_units, new_failures = collect(load_runs(args.new))
    units.update(new_units)
    status = 0
    workloads = [w["name"] for w in manifest["workloads"]]
    for group in workloads + [TRACED]:
        table = per_layer if group == TRACED else end_to_end
        if group == TRACED:
            print(f"== {group}: per-layer metrics")
        else:
            print(f"== {group}: failed operations old {old_failures.get(group, 0)}, "
                  f"new {new_failures.get(group, 0)}")
        if new_failures.get(group, 0):
            status = 1
        for name, spec in table.items():
            old, new = old_values.get((group, name)), new_values.get((group, name))
            if not old or not new:
                continue
            bound = spec.get("bound")
            result = verdict(old, new, spec["better"], bound)
            if group != TRACED and result == "worse":
                status = 1
            change = (median(new) - median(old)) / abs(median(old))
            limit = f"bound {bound:.0%}" if bound is not None else "per-layer"
            print(f"  {name:42s} {units.get(name, ''):>8s}  old {_fmt(old):32s} "
                  f"new {_fmt(new):32s} {change:+8.1%}  {limit:10s} {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
