"""Reuse accounting and neuron-output similarity profiling.

``ReuseStats`` counts, for every (layer, gate), how many neuron
evaluations were skipped thanks to memoization — the paper's
"computation reuse" percentage.  The engine records each gate phase's
reuse mask with one call per timestep, into any :class:`ReuseRecorder`:
a ``ReuseStats``, or for a stacked evaluation a
:class:`BlockReuseRecorder` that splits each mask into its row blocks'
stats.  ``output_change_profile``
reproduces the measurement behind Figure 5: the relative change of each
neuron's output between consecutive input elements.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple

import numpy as np

Array = np.ndarray
Key = Tuple[str, str]  # (layer name, gate name)


class ReuseRecorder(Protocol):
    """Where the engine records a phase's reuse decisions."""

    def record(self, layer: str, gates: Tuple[str, ...], reuse_mask: Array) -> None:
        """Record one timestep's ``(B, G*H)`` reuse mask for one phase."""


@dataclass
class ReuseStats:
    """Counts of reused vs total neuron evaluations, keyed by layer/gate."""

    reused: Dict[Key, int] = field(default_factory=dict)
    total: Dict[Key, int] = field(default_factory=dict)

    def record(self, layer: str, gates: Tuple[str, ...], reuse_mask: Array) -> None:
        """Record one timestep's decisions for one gate phase.

        ``reuse_mask`` is a boolean ``(B, G*H)`` (or ``(G*H,)``) array
        holding one ``H``-wide column block per gate of ``gates``, in
        order; every entry is one potential neuron evaluation.  A
        single gate is the phase ``(gate,)``.
        """
        if isinstance(gates, str):
            raise TypeError("gates must be a tuple of gate names, not a string")
        mask = np.asarray(reuse_mask, dtype=bool)
        width, remainder = divmod(mask.shape[-1], len(gates))
        if remainder:
            raise ValueError(
                f"a {mask.shape[-1]}-wide mask does not split into "
                f"{len(gates)} gate blocks"
            )
        evaluations = mask.size // len(gates)
        reused, total = self.reused, self.total
        for k, gate in enumerate(gates):
            key = (layer, gate)
            block = mask[..., k * width : (k + 1) * width]
            reused[key] = reused.get(key, 0) + int(np.count_nonzero(block))
            total[key] = total.get(key, 0) + evaluations

    def reset(self) -> None:
        self.reused.clear()
        self.total.clear()

    # -- queries -------------------------------------------------------------

    @property
    def total_evaluations(self) -> int:
        return sum(self.total.values())

    @property
    def total_reused(self) -> int:
        return sum(self.reused.values())

    def reuse_fraction(self) -> float:
        """Overall fraction of neuron evaluations avoided (0-1)."""
        total = self.total_evaluations
        if total == 0:
            return 0.0
        return self.total_reused / total

    def reuse_percent(self) -> float:
        return 100.0 * self.reuse_fraction()

    def by_layer(self) -> Dict[str, float]:
        """Reuse fraction aggregated per layer."""
        layers: Dict[str, List[int]] = {}
        for (layer, _), count in self.total.items():
            acc = layers.setdefault(layer, [0, 0])
            acc[1] += count
        for (layer, _), count in self.reused.items():
            layers[layer][0] += count
        return {
            layer: (reused / total if total else 0.0)
            for layer, (reused, total) in layers.items()
        }

    def by_gate(self) -> Dict[str, float]:
        """Reuse fraction aggregated per gate name (across layers)."""
        gates: Dict[str, List[int]] = {}
        for (_, gate), count in self.total.items():
            acc = gates.setdefault(gate, [0, 0])
            acc[1] += count
        for (_, gate), count in self.reused.items():
            gates[gate][0] += count
        return {
            gate: (reused / total if total else 0.0)
            for gate, (reused, total) in gates.items()
        }

    def merge(self, other: "ReuseStats") -> None:
        """Fold ``other``'s counts into this instance (exact integer sums).

        Merging is associative and order-independent, so any partition of
        an evaluation (e.g. the runner's per-batch shards) merges to the
        same counts as the unsharded run.
        """
        for key, count in other.total.items():
            self.total[key] = self.total.get(key, 0) + count
        for key, count in other.reused.items():
            self.reused[key] = self.reused.get(key, 0) + count

    def snapshot(self) -> "ReuseStats":
        """A detached copy of the current counters.

        The returned instance is a plain :class:`ReuseStats` whose dicts
        share nothing with this one, so readers can aggregate at leisure
        while recording continues.  On the thread-safe subclass the copy
        is taken under the lock — an atomic, consistent view.
        """
        copy = ReuseStats()
        copy.reused = dict(self.reused)
        copy.total = dict(self.total)
        return copy

    @classmethod
    def merged(cls, parts: Iterable["ReuseStats"]) -> "ReuseStats":
        """One :class:`ReuseStats` folding every instance in ``parts``.

        The aggregation primitive behind multi-replica serving metrics:
        each replica records into its own stats (no cross-replica lock
        contention on the inference hot path) and readers merge detached
        snapshots into a single fleet-wide view.  Exact integer sums, so
        any partition of the traffic merges to the same counts.
        """
        merged = cls()
        for part in parts:
            merged.merge(part)
        return merged


class BlockReuseRecorder:
    """Records a stacked evaluation's phases into one stats per row block.

    A stacked evaluation runs ``K`` blocks of ``rows`` batch rows in one
    pass (see :func:`repro.core.engine.apply_memoization`).  Each phase's
    ``(K*rows, G*H)`` mask is counted per (block, gate) in one reduction
    and added into the ``K`` blocks' stats, which then hold exactly what
    :meth:`ReuseStats.record` gives each block's rows evaluated alone.
    """

    def __init__(self, blocks: Sequence[ReuseStats], rows: int):
        if rows < 0:
            raise ValueError("rows must be non-negative")
        self.blocks = list(blocks)
        self.rows = rows

    def record(self, layer: str, gates: Tuple[str, ...], reuse_mask: Array) -> None:
        if isinstance(gates, str):
            raise TypeError("gates must be a tuple of gate names, not a string")
        mask = np.asarray(reuse_mask, dtype=bool)
        width, remainder = divmod(mask.shape[-1], len(gates))
        if remainder or mask.shape[0] != len(self.blocks) * self.rows:
            raise ValueError(
                f"a {mask.shape} mask does not split into {len(self.blocks)} "
                f"blocks of {self.rows} rows and {len(gates)} gate blocks"
            )
        # Sum the rows first, an add of contiguous row vectors, then each
        # gate's columns.  At zoo shapes this ran 2.5-4x faster than one
        # count_nonzero over both axes, which casts through a buffer.
        counts = (
            mask.view(np.uint8)
            .reshape(len(self.blocks), self.rows, len(gates), width)
            .sum(axis=1, dtype=np.int32)
            .sum(axis=2)
        )
        evaluations = self.rows * width
        for stats, block_counts in zip(self.blocks, counts.tolist()):
            reused, total = stats.reused, stats.total
            for gate, count in zip(gates, block_counts):
                key = (layer, gate)
                reused[key] = reused.get(key, 0) + count
                total[key] = total.get(key, 0) + evaluations


class ThreadSafeReuseStats(ReuseStats):
    """A :class:`ReuseStats` safe to record into from many threads.

    ``repro serve`` answers concurrent requests against one cumulative
    stats instance; the base class's read-modify-write counter updates
    would lose increments under that interleaving.  Every mutation and
    the :meth:`snapshot` read are serialized on an internal lock, taken
    once per recorded phase, so a snapshot never sees some gates of a
    phase counted and others not.  The lock is deliberately *not* part
    of the dataclass state: snapshots and merges hand out plain
    :class:`ReuseStats` semantics.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.RLock()

    def record(self, layer: str, gates: Tuple[str, ...], reuse_mask: Array) -> None:
        with self._lock:
            super().record(layer, gates, reuse_mask)

    def merge(self, other: "ReuseStats") -> None:
        with self._lock:
            super().merge(other)

    def reset(self) -> None:
        with self._lock:
            super().reset()

    def snapshot(self) -> ReuseStats:
        with self._lock:
            return super().snapshot()


class DetailedReuseStats(ReuseStats):
    """ReuseStats that additionally keeps every per-timestep reuse mask.

    The masks drive the event-level pipeline simulator
    (:mod:`repro.accel.eventsim`), which needs to know *which* neurons
    were skipped in each cycle-accurate gate pass, not just how many.
    Masks are stored per ``(layer, gate)`` in timestep order, each of
    shape ``(batch, neurons)``.
    """

    def __init__(self):
        super().__init__()
        self.masks: Dict[Key, List[Array]] = {}

    def record(self, layer: str, gates: Tuple[str, ...], reuse_mask: Array) -> None:
        super().record(layer, gates, reuse_mask)
        mask = np.asarray(reuse_mask, dtype=bool)
        if mask.ndim == 1:
            mask = mask[None, :]
        width = mask.shape[-1] // len(gates)
        for k, gate in enumerate(gates):
            block = mask[:, k * width : (k + 1) * width]
            self.masks.setdefault((layer, gate), []).append(block.copy())

    def reset(self) -> None:
        super().reset()
        self.masks.clear()

    def merge(self, other: "ReuseStats") -> None:
        """Fold counts *and* per-timestep masks into this instance.

        The base-class ``merge`` only sums counts; inheriting it verbatim
        would silently drop the mask detail this subclass exists for
        (mirroring how ``reset`` clears both).  Masks from ``other`` are
        appended after this instance's masks per ``(layer, gate)``,
        treating them as subsequent gate passes — consistent with how
        sequential ``record`` calls would have interleaved.  Merging a
        plain :class:`ReuseStats` only contributes counts.
        """
        super().merge(other)
        if isinstance(other, DetailedReuseStats):
            for key, masks in other.masks.items():
                ours = self.masks.setdefault(key, [])
                ours.extend(mask.copy() for mask in masks)

    def timesteps(self, layer: str, gate: str) -> int:
        return len(self.masks.get((layer, gate), []))


def relative_change(
    current: Array, previous: Array, floor: float = 1e-8
) -> Array:
    """``|current - previous| / max(|current|, floor)`` elementwise."""
    current = np.asarray(current, dtype=np.float64)
    previous = np.asarray(previous, dtype=np.float64)
    return np.abs(current - previous) / np.maximum(np.abs(current), floor)


def output_change_profile(
    hidden_sequences: Iterable[Array], clip_percent: float = 100.0
) -> Array:
    """Figure 5 measurement: per-neuron mean relative output change.

    Args:
        hidden_sequences: iterable of hidden-state tensors, each shaped
            ``(B, T, H)`` (one per layer/direction).  Neuron identity is
            the last axis; changes are measured along time.
        clip_percent: clip individual relative changes at this value (in
            percent) so near-zero outputs do not dominate the mean.

    Returns:
        1-D array of per-neuron mean relative change **in percent**,
        sorted ascending (ready to plot as a CDF over neurons).
    """
    per_neuron: List[Array] = []
    for seq in hidden_sequences:
        seq = np.asarray(seq, dtype=np.float64)
        if seq.ndim != 3:
            raise ValueError(f"expected (B, T, H) hidden states, got {seq.shape}")
        if seq.shape[1] < 2:
            raise ValueError("need at least two timesteps to measure change")
        change = relative_change(seq[:, 1:, :], seq[:, :-1, :]) * 100.0
        change = np.minimum(change, clip_percent)
        per_neuron.append(change.mean(axis=(0, 1)))
    if not per_neuron:
        raise ValueError("no hidden sequences supplied")
    profile = np.concatenate(per_neuron)
    return np.sort(profile)


def profile_summary(profile: Array) -> Dict[str, float]:
    """Summary stats the paper quotes from Figure 5 (mean, quartile)."""
    profile = np.asarray(profile)
    return {
        "mean_percent": float(profile.mean()),
        "p25_percent": float(np.percentile(profile, 25)),
        "median_percent": float(np.percentile(profile, 50)),
        "fraction_below_10pct": float(np.mean(profile <= 10.0)),
    }
