"""Equivalence suite for batch-sharded evaluation.

The acceptance bar of the sharding subsystem: for random shard counts
1..8, the merged shard partials of every zoo benchmark are **exactly**
(bitwise, not approximately) the unsharded evaluation — quality,
quality loss, reuse fraction, and per-(layer, gate) reuse counts.  A
checked-in golden JSON (generated from the unsharded serial path at
seed 0) pins the absolute numbers so refactors cannot silently drift
both paths together.
"""

import json
import random
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme
from repro.models.benchmark import (
    MemoizedResult,
    merge_shard_results,
    shard_indices,
)
from repro.models.specs import BENCHMARK_NAMES
from repro.models.zoo import load_benchmark

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_seed.json"

ALL_NETWORKS = tuple(BENCHMARK_NAMES)


def assert_results_identical(merged: MemoizedResult, whole: MemoizedResult):
    assert merged.quality == whole.quality
    assert merged.quality_loss == whole.quality_loss
    assert merged.reuse_fraction == whole.reuse_fraction
    assert merged.stats.reused == whole.stats.reused
    assert merged.stats.total == whole.stats.total


class TestShardIndices:
    def test_partition_is_exact_and_ordered(self):
        rng = random.Random(0)
        for _ in range(50):
            n_rows = rng.randint(1, 100)
            indices = np.arange(1000, 1000 + n_rows)
            shard_count = rng.randint(1, 8)
            parts = [
                shard_indices(indices, i, shard_count)
                for i in range(shard_count)
            ]
            np.testing.assert_array_equal(np.concatenate(parts), indices)

    def test_is_deterministic(self):
        indices = np.arange(17)
        first = shard_indices(indices, 2, 5)
        second = shard_indices(indices, 2, 5)
        np.testing.assert_array_equal(first, second)

    def test_oversharding_yields_empty_shards(self):
        parts = [shard_indices(np.arange(3), i, 5) for i in range(5)]
        assert [len(p) for p in parts] == [1, 1, 1, 0, 0]

    def test_invalid_shard_rejected(self):
        with pytest.raises(ValueError, match="shard_count"):
            shard_indices(np.arange(3), 0, 0)
        with pytest.raises(ValueError, match="shard_index"):
            shard_indices(np.arange(3), 2, 2)
        with pytest.raises(ValueError, match="shard_index"):
            shard_indices(np.arange(3), -1, 2)


class TestShardedEquivalence:
    """Sharded merge == unsharded evaluation, bitwise, on every network."""

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_random_shard_counts_merge_exactly(self, name):
        benchmark = load_benchmark(name, scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        whole = benchmark.evaluate_memoized(scheme)
        # crc32, not hash(): PYTHONHASHSEED must not change what we cover.
        rng = random.Random(zlib.crc32(name.encode()))
        shard_counts = {1, rng.randint(2, 8), rng.randint(2, 8)}
        for shard_count in sorted(shard_counts):
            partials = [
                benchmark.evaluate_memoized(scheme, shard=(i, shard_count))
                for i in range(shard_count)
            ]
            merged = merge_shard_results(
                partials, benchmark.spec.higher_is_better
            )
            assert_results_identical(merged, whole)

    @pytest.mark.parametrize("name", ("imdb", "mnmt"))
    def test_calibration_split_shards_merge_exactly(self, name):
        benchmark = load_benchmark(name, scale="tiny")
        scheme = MemoizationScheme(theta=0.1)
        whole = benchmark.evaluate_memoized(scheme, calibration=True)
        partials = [
            benchmark.evaluate_memoized(scheme, calibration=True, shard=(i, 4))
            for i in range(4)
        ]
        merged = merge_shard_results(partials, benchmark.spec.higher_is_better)
        assert_results_identical(merged, whole)

    def test_single_shard_equals_unsharded(self):
        benchmark = load_benchmark("imdb", scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        whole = benchmark.evaluate_memoized(scheme)
        single = benchmark.evaluate_memoized(scheme, shard=(0, 1))
        assert_results_identical(single, whole)
        assert single.metric is not None  # partials carry the accumulator
        assert single.base_quality == benchmark.base_quality

    def test_oversharded_split_still_merges_exactly(self):
        """More shards than calibration rows -> empty partials merge fine."""
        benchmark = load_benchmark("imdb", scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        rows = len(benchmark.eval_indices(calibration=True))
        shard_count = rows + 3
        whole = benchmark.evaluate_memoized(scheme, calibration=True)
        partials = [
            benchmark.evaluate_memoized(
                scheme, calibration=True, shard=(i, shard_count)
            )
            for i in range(shard_count)
        ]
        merged = merge_shard_results(partials, benchmark.spec.higher_is_better)
        assert_results_identical(merged, whole)

    def test_merge_order_does_not_matter(self):
        benchmark = load_benchmark("imdb", scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        partials = [
            benchmark.evaluate_memoized(scheme, shard=(i, 3)) for i in range(3)
        ]
        forward = merge_shard_results(partials, True)
        backward = merge_shard_results(partials[::-1], True)
        assert_results_identical(forward, backward)


class TestMergeShardResults:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_shard_results([], True)

    def test_inconsistent_base_quality_rejected(self):
        benchmark = load_benchmark("imdb", scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        a = benchmark.evaluate_memoized(scheme, shard=(0, 2))
        b = benchmark.evaluate_memoized(scheme, shard=(1, 2))
        import dataclasses

        tampered = dataclasses.replace(b, base_quality=b.base_quality + 1.0)
        with pytest.raises(ValueError, match="base_quality"):
            merge_shard_results([a, tampered], True)

    def test_merge_does_not_mutate_partials(self):
        benchmark = load_benchmark("imdb", scale="tiny")
        scheme = MemoizationScheme(theta=0.2)
        partials = [
            benchmark.evaluate_memoized(scheme, shard=(i, 2)) for i in range(2)
        ]
        before = [p.metric.state_payload() for p in partials]
        merge_shard_results(partials, True)
        merge_shard_results(partials, True)  # idempotent re-merge
        assert [p.metric.state_payload() for p in partials] == before


class TestGoldenRegression:
    """The sharded pipeline must reproduce the checked-in seed-path numbers.

    The golden file was generated from the *unsharded serial* path at
    seed 0; asserting the sharded pipeline against it means a refactor
    cannot drift both paths together without tripping this test.  The
    comparison allows only platform-level float noise (different BLAS
    builds), far below any genuine behaviour change.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    def test_golden_covers_all_networks(self, golden):
        assert set(golden["networks"]) == set(BENCHMARK_NAMES)

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_sharded_pipeline_reproduces_golden(self, golden, name):
        benchmark = load_benchmark(
            name, scale=golden["scale"], seed=golden["seed"]
        )
        for theta_key, expected in golden["networks"][name].items():
            theta = float(theta_key)
            scheme = MemoizationScheme(
                theta=theta, predictor=golden["predictor"]
            )
            partials = [
                benchmark.evaluate_memoized(scheme, shard=(i, 3))
                for i in range(3)
            ]
            merged = merge_shard_results(
                partials, benchmark.spec.higher_is_better
            )
            assert merged.quality_loss == pytest.approx(
                expected["quality_loss"], rel=1e-9, abs=1e-12
            ), (name, theta)
            assert merged.reuse_fraction == pytest.approx(
                expected["reuse_fraction"], rel=1e-9, abs=1e-12
            ), (name, theta)
