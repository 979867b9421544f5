"""Sweep-job specifications: hashable, serializable units of work.

A :class:`SweepJob` names everything needed to reproduce a threshold
sweep from scratch in any process: the zoo network (name, scale, seed),
the memoization-scheme knobs, the evaluation split, and the theta grid.
Every individual ``(job, theta)`` point canonicalises to a JSON payload
whose sha256 digest keys one :class:`~repro.runner.cache.ResultCache`
entry, and the payload itself is what travels to worker processes.
:class:`EvalShardJob` is the per-batch refinement: one ``(job, theta)``
point restricted to the ``i``-th of ``n`` deterministic shards of the
evaluation split.  Both payload kinds carry a ``kind`` discriminator so
a shard partial and a whole-point result with otherwise identical
parameters can never collide on a cache key.

Because benchmark training is fully seeded (numpy only), a point payload
is a *pure* description: any process that evaluates it produces bitwise
identical results, which is what makes content-addressed caching and
process-parallel fan-out safe.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.engine import PREDICTOR_KINDS, MemoizationScheme
from repro.core.stats import ReuseStats
from repro.metrics.accumulators import accumulator_from_payload
from repro.models.benchmark import Benchmark, MemoizedResult
from repro.models.specs import BENCHMARK_NAMES

#: Default threshold grid; matches the x-axes of Figures 1 and 16.
DEFAULT_THETAS: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: Bump whenever evaluation semantics change (training recipe, engine
#: behaviour, result schema) so stale cache entries are never reused
#: across incompatible code versions.
#:
#: v2: payloads grew a ``kind`` discriminator (sweep points vs eval
#: shards), results optionally carry metric-accumulator state, and the
#: MNMT evaluation decodes a batch-independent number of steps (shard
#: determinism) — all invalidating v1 entries.
#:
#: v3: payloads no longer carry the BNN-kernel switch: the binary mirror
#: has one kernel, so the field named no distinct computation.
CACHE_VERSION = 3


@dataclass(frozen=True)
class SweepJob:
    """One network/predictor threshold sweep, as a self-contained spec.

    Attributes:
        network: zoo benchmark name (a :data:`BENCHMARK_NAMES` member).
        thetas: the threshold grid to explore.
        predictor: one of :data:`~repro.core.engine.PREDICTOR_KINDS`.
        scale: zoo scale (``"tiny"`` or ``"bench"``).
        seed: benchmark construction/training seed.
        throttle: accumulate relative differences across reuses (Eq. 13).
        calibration: evaluate on the calibration split (§3.2.1) instead
            of the test split.
        layer_thetas: optional per-layer threshold overrides as sorted
            ``(layer, theta)`` pairs (kept as a tuple for hashability).
    """

    network: str
    thetas: Tuple[float, ...] = DEFAULT_THETAS
    predictor: str = "bnn"
    scale: str = "tiny"
    seed: int = 0
    throttle: bool = True
    calibration: bool = False
    layer_thetas: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self):
        if self.network not in BENCHMARK_NAMES:
            raise ValueError(
                f"network must be one of {tuple(BENCHMARK_NAMES)}, got "
                f"{self.network!r}"
            )
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(
                f"predictor must be one of {PREDICTOR_KINDS}, got "
                f"{self.predictor!r}"
            )
        thetas = tuple(float(theta) for theta in self.thetas)
        if not thetas:
            raise ValueError("thetas must be non-empty")
        # math.isfinite rejects NaN too, which `< 0` would wave through
        # (every comparison against NaN is False) — and these thetas
        # arrive over the wire via job_from_payload, where json.loads
        # happily produces NaN/Infinity.
        if any(not math.isfinite(theta) or theta < 0 for theta in thetas):
            raise ValueError("thresholds must be finite and non-negative")
        object.__setattr__(self, "thetas", thetas)
        if self.layer_thetas is not None:
            pairs = tuple(
                sorted((str(name), float(theta)) for name, theta in self.layer_thetas)
            )
            if any(not math.isfinite(theta) or theta < 0 for _, theta in pairs):
                raise ValueError("layer thresholds must be finite and non-negative")
            object.__setattr__(self, "layer_thetas", pairs)

    @classmethod
    def from_benchmark(
        cls,
        benchmark: Benchmark,
        scheme: MemoizationScheme,
        thetas: Sequence[float],
        calibration: bool = False,
    ) -> "SweepJob":
        """Job spec for a live benchmark instance under ``scheme``."""
        layer_thetas = None
        if scheme.layer_thetas is not None:
            layer_thetas = tuple(sorted(scheme.layer_thetas.items()))
        return cls(
            network=benchmark.name,
            thetas=tuple(thetas),
            predictor=scheme.predictor,
            scale=benchmark.scale,
            seed=benchmark.seed,
            throttle=scheme.throttle,
            calibration=calibration,
            layer_thetas=layer_thetas,
        )

    @classmethod
    def from_point_payload(cls, payload: Mapping[str, object]) -> "SweepJob":
        """Rebuild the single-theta job a ``sweep_point`` payload describes.

        Inverse of :meth:`point_payload`:
        ``SweepJob.from_point_payload(p).point_payload(p["theta"]) == p``.
        Most callers want :func:`job_from_payload`, which dispatches on
        ``kind`` and validates the payload's cache version first.
        """
        layer_thetas = payload.get("layer_thetas")
        return cls(
            network=str(payload["network"]),
            # checks: allow-nonfinite SweepJob.__post_init__ rejects non-finite thetas
            thetas=(float(payload["theta"]),),
            predictor=str(payload["predictor"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            throttle=bool(payload["throttle"]),
            calibration=bool(payload["calibration"]),
            layer_thetas=(
                tuple((str(name), float(theta)) for name, theta in layer_thetas)
                if layer_thetas is not None
                else None
            ),
        )

    def for_theta(self, theta: float) -> "SweepJob":
        """Copy of the job restricted to a single threshold."""
        return replace(self, thetas=(float(theta),))

    def scheme(self, theta: float) -> MemoizationScheme:
        """The memoization scheme for one point of this job."""
        layer_thetas = (
            dict(self.layer_thetas) if self.layer_thetas is not None else None
        )
        return MemoizationScheme(
            theta=float(theta),
            predictor=self.predictor,
            throttle=self.throttle,
            layer_thetas=layer_thetas,
        )

    # -- canonical forms ----------------------------------------------------

    def point_payload(self, theta: float) -> Dict[str, object]:
        """JSON-safe canonical description of one sweep point."""
        return {
            "kind": "sweep_point",
            "cache_version": CACHE_VERSION,
            "network": self.network,
            "scale": self.scale,
            "seed": self.seed,
            "predictor": self.predictor,
            "throttle": self.throttle,
            "calibration": self.calibration,
            "layer_thetas": (
                [list(pair) for pair in self.layer_thetas]
                if self.layer_thetas is not None
                else None
            ),
            "theta": float(theta),
        }

    def point_key(self, theta: float) -> str:
        """Content-address of one sweep point (cache key)."""
        return _digest(self.point_payload(theta))

    def spec_hash(self) -> str:
        """Content-address of the whole job (all thetas)."""
        payload = self.point_payload(self.thetas[0])
        del payload["theta"]
        payload["thetas"] = list(self.thetas)
        return _digest(payload)


@dataclass(frozen=True)
class EvalShardJob:
    """One sweep point restricted to one shard of the evaluation split.

    ``(theta, shard_index, shard_count)`` refines a :class:`SweepJob`
    point into a per-batch unit of work: the benchmark partitions its
    split with :func:`repro.models.benchmark.shard_indices` and
    evaluates only the ``shard_index``-th part.  Shard payloads are
    keyed separately from whole-point payloads (``kind`` field), so
    partial and merged results never alias in the cache.
    """

    network: str
    theta: float
    shard_index: int
    shard_count: int
    predictor: str = "bnn"
    scale: str = "tiny"
    seed: int = 0
    throttle: bool = True
    calibration: bool = False
    layer_thetas: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), got "
                f"{self.shard_index}"
            )
        # Delegate network/predictor/theta/layer_thetas validation (and
        # canonicalisation) to SweepJob — one rule set for both specs.
        point = self._sweep_point()
        object.__setattr__(self, "theta", point.thetas[0])
        object.__setattr__(self, "layer_thetas", point.layer_thetas)

    def _sweep_point(self) -> SweepJob:
        """The single-theta SweepJob this shard refines."""
        return SweepJob(
            network=self.network,
            thetas=(self.theta,),
            predictor=self.predictor,
            scale=self.scale,
            seed=self.seed,
            throttle=self.throttle,
            calibration=self.calibration,
            layer_thetas=self.layer_thetas,
        )

    @classmethod
    def from_sweep_point(
        cls, job: SweepJob, theta: float, shard_index: int, shard_count: int
    ) -> "EvalShardJob":
        """The ``shard_index``-th of ``shard_count`` shards of one point."""
        return cls(
            network=job.network,
            theta=float(theta),
            shard_index=shard_index,
            shard_count=shard_count,
            predictor=job.predictor,
            scale=job.scale,
            seed=job.seed,
            throttle=job.throttle,
            calibration=job.calibration,
            layer_thetas=job.layer_thetas,
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "EvalShardJob":
        """Rebuild the shard job an ``eval_shard`` payload describes.

        Inverse of :meth:`payload`:
        ``EvalShardJob.from_payload(p).payload() == p``.  Most callers
        want :func:`job_from_payload`, which dispatches on ``kind`` and
        validates the payload's cache version first.
        """
        point = SweepJob.from_point_payload(payload)
        return cls.from_sweep_point(
            point,
            point.thetas[0],
            int(payload["shard_index"]),
            int(payload["shard_count"]),
        )

    @property
    def shard(self) -> Tuple[int, int]:
        return (self.shard_index, self.shard_count)

    def payload(self) -> Dict[str, object]:
        """JSON-safe canonical description of this shard evaluation.

        Derived from :meth:`SweepJob.point_payload` so a new scheme knob
        is automatically part of shard cache keys too; only the ``kind``
        and the shard coordinates differ.
        """
        payload = self._sweep_point().point_payload(self.theta)
        payload["kind"] = "eval_shard"
        payload["shard_index"] = self.shard_index
        payload["shard_count"] = self.shard_count
        return payload

    def key(self) -> str:
        """Content-address of this shard evaluation (cache key)."""
        return _digest(self.payload())


def _digest(payload: Mapping[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_key(payload: Mapping[str, object]) -> str:
    """Content-address of any job payload: its cache key and queue task id.

    Matches :meth:`SweepJob.point_key` / :meth:`EvalShardJob.key` for
    the payloads those jobs emit, so a worker that only ever sees the
    payload still stores its result under the exact key the submitting
    runner polls for.
    """
    return _digest(payload)


#: ``kind`` discriminator values understood by :func:`job_from_payload`.
JOB_KINDS = ("sweep_point", "eval_shard")


def job_from_payload(
    payload: Mapping[str, object],
) -> "Union[SweepJob, EvalShardJob]":
    """Rebuild the job spec a payload describes, dispatching on ``kind``.

    The inverse of :meth:`SweepJob.point_payload` /
    :meth:`EvalShardJob.payload`: ``sweep_point`` payloads yield a
    single-theta :class:`SweepJob`, ``eval_shard`` payloads an
    :class:`EvalShardJob`, and round-tripping back through the job's
    payload method reproduces the input exactly.

    Raises:
        ValueError: on an unknown ``kind`` or a payload written by a
            different :data:`CACHE_VERSION` (a worker must never
            evaluate a spec from an incompatible code version — the
            result would be stored under a key that lies about its
            semantics).
    """
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    version = payload.get("cache_version")
    if version != CACHE_VERSION:
        raise ValueError(
            f"payload cache_version {version!r} does not match this "
            f"code's CACHE_VERSION {CACHE_VERSION}"
        )
    if kind == "sweep_point":
        return SweepJob.from_point_payload(payload)
    return EvalShardJob.from_payload(payload)


def scheme_from_payload(payload: Mapping[str, object]) -> MemoizationScheme:
    """Rebuild the memoization scheme named by a point payload."""
    layer_thetas = payload.get("layer_thetas")
    return MemoizationScheme(
        # checks: allow-nonfinite MemoizationScheme.__post_init__ rejects non-finite thetas
        theta=float(payload["theta"]),
        predictor=str(payload["predictor"]),
        throttle=bool(payload["throttle"]),
        layer_thetas=(
            {str(name): float(theta) for name, theta in layer_thetas}
            if layer_thetas is not None
            else None
        ),
    )


# -- result (de)serialization ----------------------------------------------


def result_to_payload(result: MemoizedResult) -> Dict[str, object]:
    """JSON-safe form of a :class:`MemoizedResult` (lossless for floats).

    Shard partials additionally serialize their metric-accumulator state
    and ``base_quality`` so the reduce step can merge cached partials
    without rebuilding (or training) the benchmark.
    """
    payload: Dict[str, object] = {
        "quality": float(result.quality),
        "quality_loss": float(result.quality_loss),
        "reuse_fraction": float(result.reuse_fraction),
        "stats": {
            "reused": [
                [layer, gate, int(count)]
                for (layer, gate), count in sorted(result.stats.reused.items())
            ],
            "total": [
                [layer, gate, int(count)]
                for (layer, gate), count in sorted(result.stats.total.items())
            ],
        },
    }
    if result.metric is not None:
        payload["metric"] = result.metric.to_payload()
    if result.base_quality is not None:
        payload["base_quality"] = float(result.base_quality)
    return payload


def result_from_payload(payload: Mapping[str, object]) -> MemoizedResult:
    """Inverse of :func:`result_to_payload`.

    Raises:
        KeyError, TypeError, ValueError: on malformed payloads — callers
            treat these as cache misses.
    """
    stats = ReuseStats()
    raw = payload["stats"]
    for layer, gate, count in raw["reused"]:
        stats.reused[(str(layer), str(gate))] = int(count)
    for layer, gate, count in raw["total"]:
        stats.total[(str(layer), str(gate))] = int(count)
    metric_payload = payload.get("metric")
    base_quality = payload.get("base_quality")
    return MemoizedResult(
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        quality=float(payload["quality"]),
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        quality_loss=float(payload["quality_loss"]),
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        reuse_fraction=float(payload["reuse_fraction"]),
        stats=stats,
        metric=(
            accumulator_from_payload(metric_payload)
            if metric_payload is not None
            else None
        ),
        base_quality=(
            float(base_quality) if base_quality is not None else None
        ),
    )
