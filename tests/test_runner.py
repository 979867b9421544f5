"""Tests for the sweep execution subsystem (repro.runner).

Covers job hashing/serialization, canonical-payload validation, cache
hit/miss semantics, cache invalidation on config change (including
CACHE_VERSION staleness and per-shard key separation), corrupted-cache
recovery, and bitwise determinism of the parallel and sharded paths
against the serial baseline.
"""

import json

import pytest

import repro.runner.job as job_module
from repro.analysis.sweep import end_to_end, network_sweep
from repro.core.engine import MemoizationScheme
from repro.core.stats import ReuseStats
from repro.metrics import AccuracyAccumulator
from repro.models.benchmark import MemoizedResult
from repro.models.zoo import load_benchmark
from repro.runner import (
    CACHE_VERSION,
    ParallelRunner,
    ResultCache,
    SweepJob,
    WorkQueue,
    drain,
    evaluate_task,
    job_from_payload,
    payload_key,
    result_from_payload,
    result_to_payload,
    scheme_from_payload,
)

THETAS = (0.0, 0.2)


def make_job(**overrides) -> SweepJob:
    kwargs = dict(network="imdb", thetas=THETAS)
    kwargs.update(overrides)
    return SweepJob(**kwargs)


def shard_payload(shard=(0, 2), **overrides) -> dict:
    """Payload of one shard of the theta=0.2 point of ``make_job``."""
    return make_job(**overrides).point_payload(0.2, shard)


def results_equal(a: MemoizedResult, b: MemoizedResult) -> bool:
    return (
        a.quality == b.quality
        and a.quality_loss == b.quality_loss
        and a.reuse_fraction == b.reuse_fraction
        and a.stats.reused == b.stats.reused
        and a.stats.total == b.stats.total
    )


class TestSweepJob:
    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="network"):
            make_job(network="resnet")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="bnn"):
            make_job(predictor="magic")

    def test_empty_thetas_rejected(self):
        with pytest.raises(ValueError, match="thetas"):
            make_job(thetas=())

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_job(thetas=(0.1, -0.2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_theta_rejected(self, bad):
        # NaN slips past a bare `< 0` gate (every NaN comparison is
        # False) and these values arrive over the wire via payloads.
        with pytest.raises(ValueError, match="finite"):
            make_job(thetas=(0.1, bad))
        with pytest.raises(ValueError, match="finite"):
            make_job(layer_thetas=(("lstm", bad),))

    def test_nonfinite_theta_rejected_from_payload(self):
        payload = make_job(thetas=(0.1,)).point_payload(0.1)
        payload["theta"] = float("nan")  # what json.loads('NaN') yields
        with pytest.raises(ValueError, match="finite"):
            job_from_payload(payload)

    def test_thetas_coerced_to_float_tuple(self):
        job = make_job(thetas=[0, 1])
        assert job.thetas == (0.0, 1.0)

    def test_point_key_is_stable(self):
        assert make_job().point_key(0.2) == make_job().point_key(0.2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"network": "eesen"},
            {"predictor": "oracle"},
            {"scale": "bench"},
            {"seed": 1},
            {"throttle": False},
            {"calibration": True},
            {"layer_thetas": (("lstm", 0.1),)},
        ],
    )
    def test_point_key_depends_on_config(self, overrides):
        assert make_job().point_key(0.2) != make_job(**overrides).point_key(0.2)

    def test_point_key_depends_on_theta(self):
        job = make_job()
        assert job.point_key(0.0) != job.point_key(0.2)

    def test_payload_is_json_serializable(self):
        payload = make_job(layer_thetas=(("lstm", 0.1),)).point_payload(0.2)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["cache_version"] == CACHE_VERSION

    def test_scheme_roundtrip_through_payload(self):
        job = make_job(predictor="oracle", throttle=False)
        payload = job.point_payload(0.2)
        assert scheme_from_payload(payload) == job.scheme(0.2)

    def test_layer_thetas_sorted_for_hashing(self):
        a = make_job(layer_thetas=(("b", 0.2), ("a", 0.1)))
        b = make_job(layer_thetas=(("a", 0.1), ("b", 0.2)))
        assert a.point_key(0.0) == b.point_key(0.0)

    def test_from_benchmark_copies_identity(self):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        scheme = MemoizationScheme(predictor="oracle", throttle=False)
        job = SweepJob.from_benchmark(bench, scheme, THETAS, calibration=True)
        assert job.network == "imdb"
        assert job.scale == "tiny"
        assert job.seed == bench.seed
        assert job.predictor == "oracle"
        assert not job.throttle
        assert job.calibration

    def test_for_theta_restricts_grid(self):
        assert make_job().for_theta(0.2).thetas == (0.2,)

    def test_spec_hash_covers_grid(self):
        assert make_job().spec_hash() != make_job(thetas=(0.0,)).spec_hash()


class TestEvalShardJob:
    """An evaluation shard: one point's payload and key restricted to
    shard ``(i, n)`` of the split (``point_payload(theta, shard=...)``)."""

    def test_invalid_shard_rejected(self):
        job = make_job()
        with pytest.raises(ValueError, match="shard_count"):
            job.point_payload(0.2, (0, 0))
        with pytest.raises(ValueError, match="shard_index"):
            job.point_key(0.2, (2, 2))
        with pytest.raises(ValueError, match="shard_index"):
            job.point_payload(0.2, (-1, 2))

    def test_payload_is_json_serializable(self):
        payload = shard_payload(layer_thetas=(("lstm", 0.1),))
        assert json.loads(json.dumps(payload)) == payload
        assert (payload["shard_index"], payload["shard_count"]) == (0, 2)
        assert payload["cache_version"] == CACHE_VERSION

    def test_key_depends_on_shard(self):
        job = make_job()
        assert job.point_key(0.2, (0, 2)) != job.point_key(0.2, (1, 2))
        assert job.point_key(0.2, (0, 2)) != job.point_key(0.2, (0, 3))

    def test_scheme_roundtrip_through_payload(self):
        payload = shard_payload(predictor="oracle", throttle=False)
        assert scheme_from_payload(payload) == MemoizationScheme(
            theta=0.2, predictor="oracle", throttle=False
        )


#: Payloads that must never be evaluated, as (changed fields, dropped
#: fields) applied to the canonical shard-(1, 3) payload: coercing any
#: of them would evaluate a different computation than the one its
#: content-address names.
NON_CANONICAL = {
    "calibration-string": ({"calibration": "false"}, ()),
    "throttle-string": ({"throttle": "no"}, ()),
    "seed-float": ({"seed": 1.5}, ()),
    "seed-bool": ({"seed": True}, ()),
    "theta-string": ({"theta": "0.2"}, ()),
    "unknown-field": ({"priority": "high"}, ()),
    "shard-index-bool": ({"shard_index": True}, ()),
    "shard-count-float": ({"shard_count": 3.0}, ()),
    "leftover-kind": ({"kind": "eval_shard"}, ()),
    "no-shard-fields": ({}, ("shard_index", "shard_count")),
    "v3-shaped": (
        {"kind": "sweep_point", "cache_version": 3},
        ("shard_index", "shard_count"),
    ),
}


class TestJobPayloadRoundTrip:
    """Every shard payload survives serialization exactly, and only the
    canonical form of a payload is accepted."""

    def test_sweep_point_roundtrip(self):
        job = make_job(
            predictor="oracle",
            throttle=False,
            calibration=True,
            layer_thetas=(("lstm", 0.1), ("out", 0.4)),
        )
        payload = job.point_payload(0.2)
        rebuilt = job_from_payload(json.loads(json.dumps(payload)))
        assert isinstance(rebuilt, SweepJob)
        assert rebuilt == job.for_theta(0.2)
        assert rebuilt.point_payload(0.2) == payload  # idempotent

    def test_eval_shard_roundtrip(self):
        job = make_job(predictor="oracle", layer_thetas=(("lstm", 0.1),))
        payload = job.point_payload(0.2, (1, 3))
        rebuilt = job_from_payload(json.loads(json.dumps(payload)))
        assert isinstance(rebuilt, SweepJob)
        assert rebuilt == job.for_theta(0.2)
        assert rebuilt.point_payload(0.2, (1, 3)) == payload  # idempotent

    @pytest.mark.parametrize("case", sorted(NON_CANONICAL))
    def test_non_canonical_payload_rejected(self, case, tmp_path):
        changed, dropped = NON_CANONICAL[case]
        payload = shard_payload(shard=(1, 3)) | changed
        for field in dropped:
            del payload[field]
        with pytest.raises(ValueError):
            job_from_payload(payload)
        # A worker quarantines it instead of storing a mislabelled result.
        queue = WorkQueue(tmp_path)
        task_id = queue.submit(payload)
        assert drain(queue, evaluate_task, idle_timeout=0) == 0
        assert queue.failed_count() == 1
        assert "ValueError" in queue.failed_error(task_id)
        assert queue.results.get(task_id) is None

    def test_foreign_cache_version_rejected(self):
        payload = make_job().point_payload(0.2)
        payload["cache_version"] = CACHE_VERSION + 1
        with pytest.raises(ValueError, match="cache_version"):
            job_from_payload(payload)

    def test_payload_key_matches_job_keys(self):
        job = make_job()
        assert payload_key(job.point_payload(0.2)) == job.point_key(0.2)
        assert payload_key(shard_payload()) == job.point_key(0.2, (0, 2))


class TestCacheKeyCollisions:
    """The whole point is its single shard, partial shards never share a
    key with each other or with a whole point, and entries written by a
    different CACHE_VERSION must be invisible."""

    def test_point_key_equals_its_whole_shard_key(self):
        job = make_job()
        assert job.point_key(0.2) == job.point_key(0.2, (0, 1))
        assert job.point_payload(0.2) == job.point_payload(0.2, (0, 1))

    def test_all_shard_keys_distinct_from_all_point_keys(self):
        """Keys of partial shards (n > 1) are distinct from each other
        and from every point key."""
        job = make_job()
        point_keys = {job.point_key(theta) for theta in job.thetas}
        shard_keys = {
            job.point_key(theta, (i, n))
            for theta in job.thetas
            for n in (2, 4)
            for i in range(n)
        }
        assert not (point_keys & shard_keys)
        assert len(shard_keys) == len(job.thetas) * (2 + 4)

    def test_point_key_changes_with_cache_version(self, monkeypatch):
        job = make_job()
        before = job.point_key(0.2)
        shard_before = job.point_key(0.2, (0, 2))
        monkeypatch.setattr(job_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert job.point_key(0.2) != before
        assert job.point_key(0.2, (0, 2)) != shard_before

    def test_stale_cache_version_entries_ignored(self, tmp_path, monkeypatch):
        """Entries persisted under an older CACHE_VERSION are never read."""
        cache = ResultCache(tmp_path)
        job = make_job()
        first = ParallelRunner(jobs=1, cache=cache).run(job)
        # Simulate a code upgrade: keys now embed a newer version.
        monkeypatch.setattr(job_module, "CACHE_VERSION", CACHE_VERSION + 1)
        runner = ParallelRunner(jobs=1, cache=cache)
        second = runner.run(make_job())
        assert runner.last_report.hits == 0
        assert runner.last_report.misses == len(THETAS)
        for a, b in zip(first, second):
            assert results_equal(a, b)  # same semantics, fresh entries


class TestResultPayload:
    def test_roundtrip(self):
        stats = ReuseStats()
        stats.reused[("lstm", "i")] = 3
        stats.total[("lstm", "i")] = 10
        result = MemoizedResult(
            quality=0.875,
            quality_loss=1.25,
            reuse_fraction=0.3,
            stats=stats,
            metric=AccuracyAccumulator(hits=7, total=8),
            base_quality=2.125,
        )
        restored = result_from_payload(result_to_payload(result))
        assert results_equal(result, restored)

    def test_malformed_payload_raises(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            result_from_payload({"quality": 1.0})

    def test_shard_partial_roundtrip_keeps_metric_and_base(self):
        stats = ReuseStats()
        stats.total[("lstm", "i")] = 10
        metric = AccuracyAccumulator(hits=7, total=9)
        result = MemoizedResult(
            quality=77.7,
            quality_loss=0.3,
            reuse_fraction=0.0,
            stats=stats,
            metric=metric,
            base_quality=78.0,
        )
        restored = result_from_payload(
            json.loads(json.dumps(result_to_payload(result)))
        )
        assert results_equal(result, restored)
        assert restored.metric == metric
        assert restored.base_quality == 78.0


class TestResultCache:
    def test_missing_key_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ab" * 32) is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert "ab" * 32 in cache
        assert len(cache) == 1

    def test_corrupted_file_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert key not in cache  # corrupt entry deleted

    def test_membership_agrees_with_get_on_truncated_entry(self, tmp_path):
        """A corrupt entry that get() would discard must not be `in` the
        cache — a crashed writer's truncated JSON used to satisfy
        __contains__ while get() treated it as a miss."""
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"quality": 1.0, "stats": {}})
        # Truncate mid-payload, as a crash between write and rename
        # never could but a corrupted disk or manual edit can.
        cache.path_for(key).write_text('{"quality": 1.0, "sta', encoding="utf-8")
        assert key not in cache
        assert cache.get(key) is None
        assert not cache.path_for(key).is_file()  # discarded, like get()

    def test_membership_agrees_with_get_on_non_dict_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "0a" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("[1, 2, 3]", encoding="utf-8")
        assert key not in cache
        assert cache.get(key) is None

    def test_membership_still_true_for_valid_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "1b" * 32
        assert key not in cache
        cache.put(key, {"x": 1})
        assert key in cache

    def test_non_dict_json_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("[1, 2]", encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {})
        cache.put("cd" * 32, {})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_discard(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"x": 1})
        cache.discard(key)
        assert key not in cache
        cache.discard(key)  # idempotent on missing entries


class TestRunnerCacheSemantics:
    def test_cold_then_warm(self, tmp_path):
        job = make_job()
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run(job)
        assert cold.last_report.misses == len(THETAS)
        assert cold.last_report.hits == 0

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(job)
        assert warm.last_report.evaluated == 0
        assert warm.last_report.hits == len(THETAS)
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run(make_job())
        runner.run(make_job(predictor="oracle"))
        assert runner.last_report.misses == len(THETAS)
        assert runner.last_report.hits == 0

    def test_corrupted_entry_reevaluated(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        job = make_job()
        first = runner.run(job)
        cache.path_for(job.point_key(THETAS[0])).write_text(
            "garbage", encoding="utf-8"
        )
        again = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = again.run(job)
        assert again.last_report.hits == len(THETAS) - 1
        assert again.last_report.misses == 1
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_stale_schema_entry_reevaluated(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        job = make_job()
        first = runner.run(job)
        # Valid JSON dict, but not a result payload (e.g. older schema).
        cache.put(job.point_key(THETAS[0]), {"schema": "v0"})
        second = ParallelRunner(jobs=1, cache=cache).run(job)
        for a, b in zip(first, second):
            assert results_equal(a, b)

    @pytest.mark.parametrize("field", ["metric", "base_quality"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_result_without_merge_fields_is_a_miss(self, tmp_path, field, shards):
        """A cached result lacking its accumulator or base quality is
        malformed: the runner re-evaluates that shard and rewrites it."""
        job = make_job(thetas=(0.2,))
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache).run(job, shards=shards)
        stripped_key = job.point_key(0.2, (shards - 1, shards))
        if shards > 1:
            cache.discard(job.point_key(0.2))
        stripped = cache.get(stripped_key)
        del stripped[field]
        cache.put(stripped_key, stripped)
        again = ParallelRunner(jobs=1, cache=cache)
        second = again.run(job, shards=shards)
        assert again.last_report.hits == shards - 1
        assert again.last_report.misses == 1
        assert field in cache.get(stripped_key)
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_mismatched_benchmark_rejected(self):
        runner = ParallelRunner(jobs=1)
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        with pytest.raises(ValueError, match="identity"):
            runner.run(make_job(network="eesen"), benchmark=bench)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestParallelDeterminism:
    def test_parallel_matches_serial_bitwise(self):
        job = make_job()
        serial = ParallelRunner(jobs=1).run(job)
        with ParallelRunner(jobs=2) as runner:
            parallel = runner.run(job)
            assert runner.last_report.workers == 2
        for a, b in zip(serial, parallel):
            assert results_equal(a, b)

    def test_parallel_populates_cache_identically(self, tmp_path):
        job = make_job()
        with ParallelRunner(jobs=2, cache=ResultCache(tmp_path)) as par:
            first = par.run(job)
        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(job)
        assert warm.last_report.evaluated == 0
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_pool_persists_across_runs_until_close(self):
        with ParallelRunner(jobs=2) as runner:
            runner.run(make_job(predictor="oracle"))
            pool = runner.backend._pool
            assert pool is not None
            runner.run(make_job(predictor="oracle", calibration=True))
            assert runner.backend._pool is pool  # reused, not rebuilt
        assert runner.backend._pool is None
        runner.close()  # idempotent


class TestShardedRunner:
    """run(..., shards=N) must be bitwise identical to the serial path
    and interoperate with the whole-point cache population."""

    def test_sharded_matches_serial_bitwise(self):
        job = make_job()
        serial = ParallelRunner(jobs=1).run(job)
        for shards in (2, 4, 7):
            sharded = ParallelRunner(jobs=1).run(job, shards=shards)
            for a, b in zip(serial, sharded):
                assert results_equal(a, b)

    def test_parallel_sharded_matches_serial_bitwise(self):
        job = make_job()
        serial = ParallelRunner(jobs=1).run(job)
        with ParallelRunner(jobs=2) as runner:
            sharded = runner.run(job, shards=3)
            assert runner.last_report.workers == 2
            assert runner.last_report.misses == len(THETAS) * 3
        for a, b in zip(serial, sharded):
            assert results_equal(a, b)

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            ParallelRunner(jobs=1).run(make_job(), shards=0)

    def test_warm_shard_cache_runs_nothing(self, tmp_path):
        job = make_job()
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run(job, shards=3)
        assert cold.last_report.misses == len(THETAS) * 3
        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(job, shards=3)
        assert warm.last_report.misses == 0
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_sharded_run_populates_whole_point_cache(self, tmp_path):
        """An unsharded run after a sharded one evaluates nothing."""
        job = make_job()
        sharded = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = sharded.run(job, shards=4)
        unsharded = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = unsharded.run(job)
        assert unsharded.last_report.evaluated == 0
        assert unsharded.last_report.hits == len(THETAS)
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_whole_point_cache_short_circuits_sharded_run(self, tmp_path):
        """A sharded run resolves from whole-point entries when present."""
        job = make_job()
        ParallelRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        results = runner.run(job, shards=5)
        assert runner.last_report.misses == 0
        assert runner.last_report.hits == len(THETAS)
        serial = ParallelRunner(jobs=1).run(job)
        for a, b in zip(serial, results):
            assert results_equal(a, b)

    def test_partial_shard_cache_reevaluates_only_missing(self, tmp_path):
        job = make_job(thetas=(0.2,))
        cache = ResultCache(tmp_path)
        cold = ParallelRunner(jobs=1, cache=cache)
        first = cold.run(job, shards=3)
        # Drop the whole-point entry and one shard partial.
        cache.path_for(job.point_key(0.2)).unlink()
        cache.path_for(job.point_key(0.2, (1, 3))).unlink()
        again = ParallelRunner(jobs=1, cache=cache)
        second = again.run(job, shards=3)
        assert again.last_report.hits == 2
        assert again.last_report.misses == 1
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_sweep_supports_shards(self):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        job = make_job()
        baseline = ParallelRunner(jobs=1).sweep(job, benchmark=bench)
        sharded = ParallelRunner(jobs=1).sweep(job, benchmark=bench, shards=4)
        assert baseline.thetas == sharded.thetas
        assert baseline.losses == sharded.losses
        assert baseline.reuses == sharded.reuses


class TestAnalysisIntegration:
    def test_network_sweep_with_runner_matches_default(self, tmp_path):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        scheme = MemoizationScheme()
        baseline = network_sweep(bench, scheme, thetas=THETAS)
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        routed = network_sweep(bench, scheme, thetas=THETAS, runner=runner)
        assert baseline.thetas == routed.thetas
        assert baseline.losses == routed.losses
        assert baseline.reuses == routed.reuses

    def test_network_sweep_sharded_matches_default(self):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        scheme = MemoizationScheme()
        baseline = network_sweep(bench, scheme, thetas=THETAS)
        sharded = network_sweep(bench, scheme, thetas=THETAS, shards=4)
        assert baseline.thetas == sharded.thetas
        assert baseline.losses == sharded.losses
        assert baseline.reuses == sharded.reuses

    def test_end_to_end_sharded_matches_default(self, tmp_path):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        baseline = end_to_end(bench, 2.0, thetas=THETAS)
        sharded = end_to_end(bench, 2.0, thetas=THETAS, shards=3)
        assert sharded.theta == baseline.theta
        assert sharded.speedup == baseline.speedup
        assert results_equal(sharded.test_result, baseline.test_result)

    def test_end_to_end_warm_cache_runs_nothing(self, tmp_path):
        bench = load_benchmark("imdb", scale="tiny", trained=False)
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = end_to_end(bench, 2.0, thetas=THETAS, runner=cold)
        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = end_to_end(bench, 2.0, thetas=THETAS, runner=warm)
        assert warm.misses == 0
        assert warm.hits == len(THETAS) + 1  # sweep points + test point
        assert first.theta == second.theta
        assert first.speedup == second.speedup
        assert results_equal(first.test_result, second.test_result)
