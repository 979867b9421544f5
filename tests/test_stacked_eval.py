"""Stacked sweeps: a sweep's thresholds evaluated as row blocks of one pass.

Every point of a stacked evaluation must equal the same point evaluated
alone, at the result-payload level: quality, quality loss, per-(layer,
gate) reuse counts and the metric accumulator state.  The tiny zoo is
swept over every predictor, throttle setting and split, on a grid that
includes the extremes 0 and 10, so a stack that compared any block
against another block's threshold would change some point's reuse.
"""

import json

import numpy as np
import pytest

from repro.core.bnn import BinaryGate
from repro.core.engine import (
    PREDICTOR_KINDS,
    MemoizationScheme,
    iter_recurrent_layers,
    layer_threshold,
    memoized,
    scheme_stack,
)
from repro.core.predictors import (
    BNNGatePredictor,
    InputSimilarityGatePredictor,
    OracleGatePredictor,
)
from repro.core.stats import BlockReuseRecorder, ReuseStats
from repro.models.benchmark import WHOLE
from repro.models.specs import BENCHMARK_NAMES
from repro.models.zoo import load_benchmark
from repro.runner import ParallelRunner, ProcessBackend, SweepJob
from repro.runner.backends.process import contiguous_chunks
from repro.runner.evaluate import evaluate_payloads
from repro.runner.job import result_to_payload

#: Contains both extremes: 0 (only exact matches reuse) and 10 (nearly
#: everything does).
THETAS = (0.0, 0.05, 0.3, 1.0, 10.0)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def alone(bench, job, theta, shard):
    """The point evaluated on its own, through the one-scheme path."""
    result = bench.evaluate_memoized(job.scheme(theta), job.calibration, shard)
    return canonical(result_to_payload(result))


def assert_stack_matches(bench, job, shard=WHOLE):
    payloads = [job.point_payload(theta, shard) for theta in job.thetas]
    stacked = evaluate_payloads(payloads, bench)
    for theta, result in zip(job.thetas, stacked):
        assert canonical(result) == alone(bench, job, theta, shard), theta


@pytest.mark.parametrize("calibration", [False, True])
@pytest.mark.parametrize("throttle", [True, False])
@pytest.mark.parametrize("predictor", PREDICTOR_KINDS)
@pytest.mark.parametrize("network", tuple(BENCHMARK_NAMES))
def test_stacked_points_equal_points_alone(network, predictor, throttle, calibration):
    bench = load_benchmark(network)
    job = SweepJob(
        network=network,
        thetas=THETAS,
        predictor=predictor,
        throttle=throttle,
        calibration=calibration,
    )
    assert_stack_matches(bench, job)


@pytest.mark.parametrize("shard", [(0, 1), (1, 3)])
@pytest.mark.parametrize("network", tuple(BENCHMARK_NAMES))
def test_stacked_layer_thetas_and_shards(network, shard):
    """A per-layer override stacks too: the overridden layer compares a
    constant column while the others vary with the global threshold."""
    bench = load_benchmark(network)
    _, first_layer = next(iter_recurrent_layers(bench.model))
    job = SweepJob(
        network=network,
        thetas=THETAS,
        calibration=True,
        layer_thetas=((first_layer, 0.05),),
    )
    assert_stack_matches(bench, job, shard)


def test_mixed_groups_come_back_in_input_order():
    """Payloads of several groups, interleaved, each equal its point alone."""
    bench = load_benchmark("imdb")
    test_job = SweepJob(network="imdb", thetas=(0.0, 0.3, 1.0))
    cal_job = SweepJob(network="imdb", thetas=(0.3, 0.05), calibration=True)
    expected, payloads = [], []
    for k in range(3):
        payloads.append(test_job.point_payload(test_job.thetas[k]))
        expected.append(alone(bench, test_job, test_job.thetas[k], WHOLE))
        if k < 2:
            payloads.append(cal_job.point_payload(cal_job.thetas[k], (1, 2)))
            expected.append(alone(bench, cal_job, cal_job.thetas[k], (1, 2)))
    results = evaluate_payloads(payloads, bench)
    assert [canonical(result) for result in results] == expected


def test_empty_shard_stacks():
    bench = load_benchmark("imdb")
    size = len(bench.eval_indices())
    schemes = [MemoizationScheme(theta=theta) for theta in THETAS]
    for result in bench.evaluate_memoized_many(schemes, shard=(size, size + 1)):
        assert result.quality == 0.0 and result.stats.total_evaluations == 0


def test_process_backend_sweep_equals_serial():
    job = SweepJob(
        network="imdb", thetas=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 10.0)
    )
    serial = ParallelRunner(jobs=1).run(job)
    backend = ProcessBackend(jobs=3)
    try:
        parallel = ParallelRunner(backend=backend).run(job)
    finally:
        backend.close()
    assert [canonical(result_to_payload(r)) for r in parallel] == [
        canonical(result_to_payload(r)) for r in serial
    ]


@pytest.mark.parametrize("items,count", [(8, 3), (8, 8), (3, 3), (7, 2), (1, 1)])
def test_contiguous_chunks(items, count):
    chunks = contiguous_chunks(list(range(items)), count)
    assert len(chunks) == count
    assert [x for chunk in chunks for x in chunk] == list(range(items))
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


class TestBlockReuseRecorder:
    @pytest.mark.parametrize(
        "blocks,rows,gates,width",
        [(1, 5, ("h",), 3), (3, 4, ("z", "r"), 6), (8, 2, ("i", "f", "g", "o"), 5)],
    )
    def test_counts_equal_each_blocks_record(self, blocks, rows, gates, width):
        rng = np.random.default_rng(blocks * 100 + rows)
        stacked = [ReuseStats() for _ in range(blocks)]
        alone_stats = [ReuseStats() for _ in range(blocks)]
        recorder = BlockReuseRecorder(stacked, rows)
        for step, layer in enumerate(("enc", "enc", "dec")):
            mask = rng.random((blocks * rows, len(gates) * width)) < 0.1 * (step + 2)
            recorder.record(layer, gates, mask)
            for k, stats in enumerate(alone_stats):
                stats.record(layer, gates, mask[k * rows : (k + 1) * rows])
        for got, want in zip(stacked, alone_stats):
            assert got.reused == want.reused
            assert got.total == want.total
            assert all(type(count) is int for count in got.reused.values())

    def test_rejects_masks_that_do_not_split(self):
        recorder = BlockReuseRecorder([ReuseStats(), ReuseStats()], rows=3)
        with pytest.raises(ValueError):
            recorder.record("l", ("i", "f"), np.zeros((5, 4), dtype=bool))
        with pytest.raises(ValueError):
            recorder.record("l", ("i", "f"), np.zeros((6, 5), dtype=bool))
        with pytest.raises(TypeError):
            recorder.record("l", "i", np.zeros((6, 4), dtype=bool))


class TestSchemeStack:
    def test_one_scheme_keeps_the_scalar(self):
        scheme = MemoizationScheme(theta=0.3, layer_thetas={"a": 0.1})
        schemes = scheme_stack(scheme)
        assert schemes == [scheme]
        assert layer_threshold(schemes, None, "a") == 0.1
        assert layer_threshold(schemes, None, "b") == 0.3

    def test_stack_repeats_each_layers_threshold_per_row(self):
        schemes = scheme_stack(
            [MemoizationScheme(theta=t, layer_thetas={"a": 2 * t}) for t in (0.1, 0.5)],
            rows=3,
        )
        np.testing.assert_array_equal(
            layer_threshold(schemes, 3, "a"), [0.2, 0.2, 0.2, 1.0, 1.0, 1.0]
        )
        np.testing.assert_array_equal(
            layer_threshold(schemes, 3, "b"), [0.1, 0.1, 0.1, 0.5, 0.5, 0.5]
        )

    @pytest.mark.parametrize(
        "other",
        [MemoizationScheme(predictor="oracle"), MemoizationScheme(throttle=False)],
    )
    def test_stacked_schemes_share_predictor_and_throttle(self, other):
        with pytest.raises(ValueError, match="predictor and throttle"):
            scheme_stack([MemoizationScheme(), other], rows=2)

    def test_a_stack_needs_rows(self):
        with pytest.raises(ValueError):
            scheme_stack([MemoizationScheme(), MemoizationScheme(theta=0.1)])
        with pytest.raises(ValueError):
            scheme_stack([])

    def test_memoized_restores_after_a_stack(self):
        bench = load_benchmark("imdb")
        schemes = [MemoizationScheme(theta=t) for t in (0.1, 0.2)]
        blocks = [ReuseStats(), ReuseStats()]
        before = [name for _, name in iter_recurrent_layers(bench.model)]
        tokens = bench.dataset.tokens[:3]
        with memoized(bench.model, schemes, BlockReuseRecorder(blocks, 3), rows=3):
            bench.model.predict(np.tile(tokens, (2, 1)))
        assert [name for _, name in iter_recurrent_layers(bench.model)] == before
        assert blocks[0].total_evaluations == blocks[1].total_evaluations > 0


class TestPerRowThresholds:
    def test_predictors_take_a_per_row_column(self):
        rows = np.array([0.0, 0.5, 10.0])
        assert OracleGatePredictor(rows).theta.shape == (3, 1)
        assert InputSimilarityGatePredictor(rows, neurons=4).theta.shape == (3,)
        gate = BinaryGate(np.ones((4, 2)), np.ones((4, 3)))
        assert BNNGatePredictor(gate, rows).theta.shape == (3, 1)
        assert OracleGatePredictor(0.5).theta == 0.5

    @pytest.mark.parametrize("bad", [[0.1, -0.1], [[0.1]]])
    def test_bad_per_row_thresholds_are_rejected(self, bad):
        with pytest.raises(ValueError):
            OracleGatePredictor(bad)

    def test_oracle_rows_compare_their_own_threshold(self):
        predictor = OracleGatePredictor(np.array([0.0, 0.2, 10.0]))
        preacts = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        memo = np.array([[1.0, 2.5], [1.1, 2.5], [5.0, -2.0]])
        mask = predictor.predict_many(preacts=preacts, memo=memo)
        np.testing.assert_array_equal(
            mask, [[True, False], [True, False], [True, True]]
        )
