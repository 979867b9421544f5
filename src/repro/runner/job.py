"""Sweep-job specifications: hashable, serializable units of work.

A :class:`SweepJob` names everything needed to reproduce a threshold
sweep from scratch in any process: the zoo network (name, scale, seed),
the memoization-scheme knobs, the evaluation split, and the theta grid.
The unit of work is one shard of one ``(job, theta)`` point: the
``shard_index``-th of ``shard_count`` deterministic partitions of the
evaluation split, where the whole point is shard ``(0, 1)``.  Each unit
canonicalises to one JSON payload whose sha256 digest keys one
:class:`~repro.runner.cache.ResultCache` entry, and the payload itself
is what travels to worker processes.

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
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.engine import PREDICTOR_KINDS, MemoizationScheme
from repro.core.stats import ReuseStats
from repro.metrics.accumulators import accumulator_from_payload
from repro.models.benchmark import (
    WHOLE,
    Benchmark,
    MemoizedResult,
    Shard,
    check_shard,
)
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
#:
#: v4: one payload form: every payload names its shard
#: (``shard_index``/``shard_count``, the whole point being ``(0, 1)``)
#: and carries no ``kind``; every result carries its metric accumulator
#: and ``base_quality``.
#:
#: v5: cells keep stacked gate weights and project each sequence's
#: inputs in one GEMM, so trained weights and activations differ from
#: v4's in their last bits.
CACHE_VERSION = 5


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
        """Rebuild the single-theta job a point payload describes.

        Inverse of :meth:`point_payload` up to the shard, which the job
        does not hold.  Payloads from outside the process go through
        :func:`job_from_payload`, which also rejects every payload that
        is not exactly the canonical one.
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

    def point_payload(
        self, theta: float, shard: Shard = WHOLE
    ) -> Dict[str, object]:
        """JSON-safe canonical description of one shard of one point.

        ``shard`` is ``(shard_index, shard_count)``; the default
        :data:`~repro.models.benchmark.WHOLE` is the whole point.
        """
        shard_index, shard_count = int(shard[0]), int(shard[1])
        check_shard(shard_index, shard_count)
        return {
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
            "shard_index": shard_index,
            "shard_count": shard_count,
        }

    def point_key(self, theta: float, shard: Shard = WHOLE) -> str:
        """Content-address of one shard of one point (cache key)."""
        return _digest(self.point_payload(theta, shard))

    def spec_hash(self) -> str:
        """Content-address of the whole job (all thetas)."""
        payload = self.point_payload(self.thetas[0])
        del payload["theta"]
        payload["thetas"] = list(self.thetas)
        return _digest(payload)


def _digest(payload: Mapping[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_key(payload: Mapping[str, object]) -> str:
    """Content-address of any job payload: its cache key and queue task id.

    Matches :meth:`SweepJob.point_key` for the payloads the job emits,
    so a worker that only ever sees the payload still stores its result
    under the exact key the submitting runner polls for.
    """
    return _digest(payload)


def job_from_payload(payload: Mapping[str, object]) -> SweepJob:
    """Rebuild the single-theta job a point payload describes.

    The inverse of :meth:`SweepJob.point_payload`: the payload names one
    shard of one point, and ``job.point_payload(theta, shard)`` must
    reproduce it exactly.  A payload that is not in that canonical form
    (a string where a bool belongs, ``true`` for ``1``, an unknown
    field) is rejected rather than coerced: a worker would otherwise
    store a result under a key that names a different computation.

    Raises:
        ValueError: on a payload written by a different
            :data:`CACHE_VERSION`, a malformed or out-of-range field, or
            a payload that is not in canonical form.
    """
    version = payload.get("cache_version")
    if version != CACHE_VERSION:
        raise ValueError(
            f"payload cache_version {version!r} does not match this "
            f"code's CACHE_VERSION {CACHE_VERSION}"
        )
    try:
        job = SweepJob.from_point_payload(payload)
        shard = (payload["shard_index"], payload["shard_count"])
        canonical = job.point_payload(job.thetas[0], shard)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed job payload: {exc!r}") from exc
    if payload_key(canonical) != payload_key(payload):
        raise ValueError(
            "job payload is not in canonical form; expected "
            f"{json.dumps(canonical, sort_keys=True)}"
        )
    return job


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

    The metric-accumulator state and ``base_quality`` are serialized too,
    so the reduce step can merge cached shard results without rebuilding
    (or training) the benchmark.
    """
    return {
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
        "metric": result.metric.to_payload(),
        "base_quality": float(result.base_quality),
    }


def result_from_payload(payload: Mapping[str, object]) -> MemoizedResult:
    """Inverse of :func:`result_to_payload`.

    Raises:
        KeyError, TypeError, ValueError: on malformed payloads, including
            one without ``metric`` or ``base_quality`` — callers treat
            these as cache misses.
    """
    stats = ReuseStats()
    raw = payload["stats"]
    for layer, gate, count in raw["reused"]:
        stats.reused[(str(layer), str(gate))] = int(count)
    for layer, gate, count in raw["total"]:
        stats.total[(str(layer), str(gate))] = int(count)
    return MemoizedResult(
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        quality=float(payload["quality"]),
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        quality_loss=float(payload["quality_loss"]),
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        reuse_fraction=float(payload["reuse_fraction"]),
        stats=stats,
        metric=accumulator_from_payload(payload["metric"]),
        # checks: allow-nonfinite result metrics are round-tripped verbatim, not threshold inputs
        base_quality=float(payload["base_quality"]),
    )
