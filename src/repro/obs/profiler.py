"""Opt-in engine profiling: phase-level timing inside the memoized core.

The engine hot path (:class:`~repro.core.layers.MemoizedRecurrentLayer`)
reads one module attribute — :data:`ACTIVE` — per forward, per timestep
and per gate phase.  When it is ``None`` (the default, always, unless a
caller explicitly installs a profiler) every fence is skipped: no
timestamps, no locks, no allocations.  ``benchmarks/bench_obs_overhead.py`` pins
that claim with a floor-asserted <2% disabled-overhead budget against a
fence-free baseline.

When a :class:`Profiler` is installed (usually via the :func:`profiled`
context manager), ``perf_counter`` fences inside the one phase body
time the predictor evaluation and the memo-table substitution — the
computation between the fences is the same code, so enabling profiling
cannot change a single bit — and record, per (layer, phase): predictor
seconds, substitution seconds, reuse counts, and per-step wall time
(compute time is the step total minus the instrumented parts).  A
forward's input projection runs once per sequence, before its first
step, and is fenced on its own: ``project_s`` per layer.

Profiling is process-global by design: one ``repro serve`` process owns
one model, and a scoped install/uninstall pair is how benchmarks and
tests flip it.  Installation is not thread-fenced — install before the
traffic you want profiled, not concurrently with it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: The live profiler, or ``None`` (the zero-cost default).  The engine
#: reads this attribute once per forward, timestep and gate phase;
#: everything else in this module is off the hot path.
ACTIVE: Optional["Profiler"] = None


class _PhaseRecord:
    __slots__ = (
        "gates", "calls", "predict_s", "substitute_s", "reused", "total"
    )

    def __init__(self, gates: Tuple[str, ...]):
        self.gates = gates
        self.calls = 0
        self.predict_s = 0.0
        self.substitute_s = 0.0
        self.reused = 0
        self.total = 0


class Profiler:
    """Accumulates phase, step and projection measurements from the engine."""

    def __init__(self):
        self._lock = threading.Lock()
        self._phases: Dict[Tuple[str, int], _PhaseRecord] = {}
        self._steps: Dict[str, List[float]] = {}  # layer -> [calls, seconds]
        self._projections: Dict[str, float] = {}  # layer -> seconds

    # -- recording (called by the engine, only when installed) ---------------

    def record_phase(
        self,
        layer: str,
        phase_index: int,
        gates: Tuple[str, ...],
        predict_s: float,
        substitute_s: float,
        reused: int,
        total: int,
    ) -> None:
        key = (layer, phase_index)
        with self._lock:
            record = self._phases.get(key)
            if record is None:
                record = self._phases[key] = _PhaseRecord(tuple(gates))
            record.calls += 1
            record.predict_s += predict_s
            record.substitute_s += substitute_s
            record.reused += reused
            record.total += total

    def record_step(self, layer: str, seconds: float) -> None:
        with self._lock:
            entry = self._steps.get(layer)
            if entry is None:
                entry = self._steps[layer] = [0.0, 0.0]
            entry[0] += 1
            entry[1] += seconds

    def record_projection(self, layer: str, seconds: float) -> None:
        """A forward's input projection, which runs outside every step."""
        with self._lock:
            self._projections[layer] = self._projections.get(layer, 0.0) + seconds

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready per-layer breakdown of where engine time went."""
        with self._lock:
            phases = {
                key: (
                    record.gates, record.calls, record.predict_s,
                    record.substitute_s, record.reused, record.total,
                )
                for key, record in self._phases.items()
            }
            steps = {layer: tuple(entry) for layer, entry in self._steps.items()}
            projections = dict(self._projections)
        layers: Dict[str, Dict[str, object]] = {}
        for (layer, phase_index), values in sorted(phases.items()):
            gates, calls, predict_s, substitute_s, reused, total = values
            entry = layers.setdefault(layer, _layer_entry())
            entry["phases"][str(phase_index)] = {
                "gates": list(gates),
                "calls": calls,
                "predict_s": predict_s,
                "substitute_s": substitute_s,
                "reused": reused,
                "total": total,
                "reuse_fraction": (reused / total) if total else 0.0,
            }
        for layer, (calls, seconds) in steps.items():
            entry = layers.setdefault(layer, _layer_entry())
            entry["steps"] = int(calls)
            entry["step_s"] = seconds
            instrumented = sum(
                phase["predict_s"] + phase["substitute_s"]
                for phase in entry["phases"].values()
            )
            # Whatever the step spent outside the predictor and the
            # memo substitution is the cell's own compute (matmuls,
            # activations) plus loop overhead.
            entry["compute_s"] = max(0.0, seconds - instrumented)
        for layer, seconds in projections.items():
            layers.setdefault(layer, _layer_entry())["project_s"] = seconds
        return {"layers": layers}


def _layer_entry() -> Dict[str, object]:
    """A snapshot's per-layer record before any measurement lands in it."""
    return {"steps": 0, "step_s": 0.0, "project_s": 0.0, "phases": {}}


def install(profiler: Profiler) -> None:
    global ACTIVE
    ACTIVE = profiler


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def profiled(profiler: Optional[Profiler] = None):
    """Install ``profiler`` (or a fresh one) for the duration of the block.

    Restores whatever was installed before — nesting works, and an
    exception cannot leave a stale profiler hot.
    """
    global ACTIVE
    active = profiler if profiler is not None else Profiler()
    previous = ACTIVE
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous
