"""Helpers shared by the perfbench workloads.

Statistics (medians, quartiles and the tail-percentile rule), the metric
record every run prints, process resource probes read from ``/proc``,
the environment stamp, and the seeded request schedule.  Nothing here
imports :mod:`repro`, so the helpers are testable without the program.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Metric names: start with a letter or digit, then at most 63 more
#: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: Units: 1-16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 therefore needs 1000 samples, p50 needs 20).
MIN_TAIL_SAMPLES = 10

#: Environment variables that pin every BLAS/OpenMP pool to one thread.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1


def pin_blas_threads(environ=os.environ) -> None:
    """Pin BLAS to :data:`BLAS_THREADS`; must run before numpy is imported.

    Child processes inherit the setting through the environment.
    """
    for var in BLAS_THREAD_VARS:
        environ[var] = str(BLAS_THREADS)


def quiet_cpus() -> Tuple[Set[int], Set[int]]:
    """Split the allowed CPUs into ``(measured, rest)``.

    The measured set is the highest-numbered allowed CPU, away from CPU 0,
    which services most interrupts and housekeeping; on the 2-vCPU
    reference host forward times pinned there vary by about 4% against
    about 15% on CPU 0.  With a single CPU both sets are that CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    measured = {allowed[-1]}
    return measured, (set(allowed[:-1]) or measured)


def pin(cpus: Set[int], pid: int = 0) -> None:
    """Restrict a process (0: this one) and threads it starts later to ``cpus``."""
    os.sched_setaffinity(pid, cpus)


# -- statistics ----------------------------------------------------------------


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def check_metric_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` by :func:`statistics.quantiles` (exclusive)."""
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return [only, only, only]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, as :func:`numpy.percentile` computes it.

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the requested rank on
    the side of the nearer tail, i.e.
    ``len(values) * min(pct, 100 - pct) / 100 >= MIN_TAIL_SAMPLES``.
    """
    import numpy as np

    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {pct}")
    beyond = len(values) * min(pct, 100.0 - pct) / 100.0
    # The tolerance absorbs float error in 100 - pct (p99 of 1000).
    if beyond + 1e-9 < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{pct:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(values)} samples leave {beyond:.1f}"
        )
    return float(np.percentile(values, pct))


def best_laps(repeats: Sequence[Sequence[float]]) -> float:
    """Seconds one repeat takes when each of its laps runs at its fastest.

    ``repeats`` holds the laps of identical repeats of the same work, in
    order (see :class:`spans.LapClock`).  The result sums, over lap
    positions, the shortest time that position took in any repeat.  On
    a host whose speed flickers between phases lasting milliseconds, the
    fastest lap of each position reads the same from run to run where a
    median or a mean follows the share of slow phases in the run.
    """
    if not repeats:
        raise TooFewSamples("no repeats")
    count = len(repeats[0])
    if any(len(laps) != count for laps in repeats):
        raise ValueError("repeats split into different numbers of laps")
    return float(sum(min(position) for position in zip(*repeats)))


# -- the printed result ----------------------------------------------------------


class Metrics:
    """Named measurements with units, validated as they are added."""

    def __init__(self) -> None:
        self._values: Dict[str, Dict[str, object]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        check_metric_name(name)
        check_unit(unit)
        if name in self._values:
            raise ValueError(f"metric {name!r} recorded twice")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self._values[name] = {"value": value, "unit": unit}

    def to_json(self) -> Dict[str, Dict[str, object]]:
        return dict(self._values)


class Outcome:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


# -- process probes --------------------------------------------------------------


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise KeyError(f"VmHWM not in /proc/{pid}/status")


def cpu_seconds(pid: str = "self") -> float:
    """User plus system CPU time a process has used so far, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- environment stamp -----------------------------------------------------------


def _git_sha(root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources (paths and contents).

    Identifies the code under test where no git metadata is available.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def env_stamp(root: Path) -> Dict[str, object]:
    """Where and with what a result was measured."""
    import numpy as np

    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": sys.platform,
    }


# -- seeded request schedule -----------------------------------------------------


def request_schedule(
    seed: int, count: int, population: int, max_rows: int = 4
) -> List[List[int]]:
    """``count`` requests of 1..``max_rows`` positions in ``range(population)``.

    A pure function of its arguments: the same seed gives the same
    schedule in every process.
    """
    import numpy as np

    if count < 0 or population < 1 or max_rows < 1:
        raise ValueError("need count >= 0, population >= 1 and max_rows >= 1")
    rng = np.random.default_rng([int(seed), 0x5EED])
    sizes = rng.integers(1, max_rows + 1, size=count)
    positions = rng.integers(0, population, size=int(sizes.sum()))
    schedule: List[List[int]] = []
    cursor = 0
    for size in sizes:
        schedule.append([int(p) for p in positions[cursor : cursor + size]])
        cursor += size
    return schedule
