"""Tests for the three memoization predictors (Figures 6 and 10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarization import pack_signs
from repro.core.bnn import BinaryGate
from repro.core.memo import MemoTable
from repro.core.predictors import (
    BNNGatePredictor,
    InputSimilarityGatePredictor,
    OracleGatePredictor,
)

from helpers import ReferenceBNNPredictor


def make_gate(rng, neurons=6, e=4, r=5):
    return BinaryGate(
        rng.standard_normal((neurons, e)), rng.standard_normal((neurons, r))
    )


class Stepper:
    """Drives one predictor the way the engine does: one ``predict_many``
    per timestep on the packed (BNN) or raw operand, with the memo held
    in a :class:`MemoTable`.  A call returns ``(outputs, reuse_mask)``."""

    def __init__(self, predictor, neurons, batch=1):
        self.predictor = predictor
        self.table = MemoTable(neurons)
        self.begin(batch)

    def begin(self, batch):
        self.predictor.begin_sequence(batch)
        self.table.begin_sequence(batch)

    def __call__(self, preacts, x=None, h=None):
        packed = operand = None
        if x is not None:
            operand = np.concatenate([x, h], axis=-1)
            if "packed" in self.predictor.REQUIRES:
                packed, operand = pack_signs(operand), None
        mask = self.predictor.predict_many(
            packed, preacts=preacts, operand=operand, memo=self.table.memo
        )
        return self.table.substitute(mask, preacts).copy(), mask


@pytest.fixture
def rng():
    return np.random.default_rng(29)


class TestOracle:
    def test_first_step_never_reuses(self, rng):
        step = Stepper(OracleGatePredictor(theta=10.0), neurons=6, batch=2)
        _, mask = step(rng.standard_normal((2, 6)))
        assert not mask.any()

    def test_reuses_when_identical(self, rng):
        step = Stepper(OracleGatePredictor(theta=0.0), neurons=6)
        y = rng.standard_normal((1, 6))
        step(y.copy())
        outputs, mask = step(y.copy())
        assert mask.all()
        np.testing.assert_array_equal(outputs, y)

    def test_theta_zero_outputs_exact(self, rng):
        """With theta=0 the oracle only reuses exactly-equal values, so
        the output stream is bit-identical to no memoization."""
        step = Stepper(OracleGatePredictor(theta=0.0), neurons=6)
        for _ in range(10):
            y = rng.standard_normal((1, 6))
            outputs, _ = step(y.copy())
            np.testing.assert_array_equal(outputs, y)

    def test_thresholding_on_relative_error(self):
        step = Stepper(OracleGatePredictor(theta=0.5), neurons=2)
        step(np.array([[1.0, 1.0]]))
        outputs, mask = step(np.array([[1.2, 3.0]]))
        # neuron 0: |1.2-1|/1.2 = 0.167 <= 0.5 -> reuse memoized 1.0
        # neuron 1: |3-1|/3 = 0.667 > 0.5 -> fresh 3.0
        np.testing.assert_array_equal(mask, [[True, False]])
        np.testing.assert_allclose(outputs, [[1.0, 3.0]])

    def test_memo_updates_only_on_full_eval(self):
        step = Stepper(OracleGatePredictor(theta=0.5), neurons=1)
        step(np.array([[1.0]]))
        step(np.array([[1.2]]))  # reused, memo stays 1.0
        outputs, _ = step(np.array([[1.3]]))
        # delta vs memo 1.0: |1.3-1.0|/1.3 = 0.23 <= 0.5 -> still reuses 1.0
        np.testing.assert_allclose(outputs, [[1.0]])

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            OracleGatePredictor(theta=-0.1)

    def test_begin_sequence_resets(self, rng):
        step = Stepper(OracleGatePredictor(theta=100.0), neurons=3)
        step(np.ones((1, 3)))
        step.begin(1)
        _, mask = step(np.ones((1, 3)))
        assert not mask.any()


class TestBNNPredictor:
    def test_first_step_never_reuses(self, rng):
        step = Stepper(BNNGatePredictor(make_gate(rng), theta=10.0), neurons=6)
        x, h = rng.standard_normal((1, 4)), rng.standard_normal((1, 5))
        _, mask = step(rng.standard_normal((1, 6)), x, h)
        assert not mask.any()

    def test_identical_inputs_reuse_everything(self, rng):
        step = Stepper(BNNGatePredictor(make_gate(rng), theta=0.0), neurons=6)
        x, h = rng.standard_normal((1, 4)), rng.standard_normal((1, 5))
        y = rng.standard_normal((1, 6))
        step(y.copy(), x, h)
        outputs, mask = step(rng.standard_normal((1, 6)), x, h)
        # Binary outputs identical -> epsilon 0 -> reuse the memoized y.
        assert mask.all()
        np.testing.assert_array_equal(outputs, y)

    def test_reuse_monotone_in_theta(self, rng):
        """Higher theta can only increase total reuse (same input stream)."""
        inputs = [
            (rng.standard_normal((1, 4)), rng.standard_normal((1, 5)))
            for _ in range(30)
        ]
        outputs = [rng.standard_normal((1, 6)) for _ in range(30)]
        counts = []
        for theta in (0.0, 0.3, 1.0):
            gate = make_gate(np.random.default_rng(29))
            step = Stepper(BNNGatePredictor(gate, theta=theta), neurons=6)
            reused = 0
            for (x, h), y in zip(inputs, outputs):
                reused += int(step(y.copy(), x, h)[1].sum())
            counts.append(reused)
        assert counts[0] <= counts[1] <= counts[2]

    def test_throttle_limits_streaks(self):
        """Equation 13: oscillating small drifts accumulate under
        throttling and eventually force a full evaluation, while the
        unthrottled variant reuses forever (each step's epsilon alone is
        under the threshold)."""
        base = np.ones(16)
        drifted = base.copy()
        drifted[0] = -1.0  # yb drops 16 -> 14: epsilon = 2/14 ~ 0.143

        def run(throttle):
            gate = BinaryGate(np.ones((1, 8)), np.ones((1, 8)))
            step = Stepper(BNNGatePredictor(gate, theta=0.3, throttle=throttle), neurons=1)
            step(np.zeros((1, 1)), base[:8][None], base[8:][None])
            flags = []
            for i in range(6):
                operand = drifted if i % 2 == 0 else base
                _, mask = step(np.zeros((1, 1)), operand[:8][None], operand[8:][None])
                flags.append(bool(mask[0, 0]))
            return flags

        unthrottled = run(False)
        throttled = run(True)
        assert unthrottled == [True] * 6
        # Throttled: delta = 0.143, 0.143, 0.286, 0.286, 0.429 -> eval.
        assert throttled[:4] == [True, True, True, True]
        assert throttled[4] is False

    @staticmethod
    def second_step_reused(theta, widths, second_x):
        """One all-+1-weight neuron over ``widths = (E, R)`` operand bits:
        the first step's operand is all +1, the second's ``x`` part is
        ``second_x`` (``h`` stays +1).  Returns the second step's reuse
        decision."""
        e, r = widths
        gate = BinaryGate(np.ones((1, e)), np.ones((1, r)))
        step = Stepper(BNNGatePredictor(gate, theta=theta), neurons=1)
        step(np.array([[5.0]]), np.ones((1, e)), np.ones((1, r)))
        _, mask = step(np.array([[7.0]]), np.asarray(second_x, float)[None], np.ones((1, r)))
        return bool(mask[0, 0])

    def test_zero_binary_output_blocks_reuse(self):
        """A change to a zero binary output cannot be compared relatively
        and must not be reused blindly: Eq. 12's denominator floors at
        exactly 1, so the step yb 2 -> 0 has epsilon 2."""
        # Operands (+1, +1) -> yb = 2, then (-1, +1) -> yb = 0.
        decisions = {
            theta: self.second_step_reused(theta, (1, 1), [-1.0])
            for theta in (0.4, 1.5, 2.0)
        }
        assert decisions == {0.4: False, 1.5: False, 2.0: True}

    def test_unit_binary_output_divides_by_one(self):
        """|yb| = 1 (an odd operand width) is its own denominator: the
        step yb 3 -> 1 has epsilon 2, like the step to zero."""
        # Operands (+1, +1, +1) -> yb = 3, then (+1, -1, +1) -> yb = 1.
        decisions = {
            theta: self.second_step_reused(theta, (2, 1), [1.0, -1.0])
            for theta in (1.5, 2.0)
        }
        assert decisions == {1.5: False, 2.0: True}

    def test_delta_resets_after_full_eval(self, rng):
        gate = make_gate(rng, neurons=1, e=2, r=2)
        step = Stepper(BNNGatePredictor(gate, theta=0.05), neurons=1)
        x0, h0 = np.ones((1, 2)), np.ones((1, 2))
        step(np.array([[1.0]]), x0, h0)
        # Big operand change forces a full evaluation...
        step(np.array([[2.0]]), -x0, -h0)
        assert np.all(step.predictor._delta == 0.0)
        # ...and identical operands afterwards reuse again.
        outputs, mask = step(np.array([[3.0]]), -x0, -h0)
        assert mask.all()
        np.testing.assert_array_equal(outputs, [[2.0]])


class TestInputSimilarity:
    def test_identical_input_reuses_whole_gate(self, rng):
        step = Stepper(InputSimilarityGatePredictor(theta=0.0, neurons=4), neurons=4)
        x, h = rng.standard_normal((1, 3)), rng.standard_normal((1, 2))
        y = rng.standard_normal((1, 4))
        step(y.copy(), x, h)
        outputs, mask = step(rng.standard_normal((1, 4)), x, h)
        assert mask.all()
        np.testing.assert_array_equal(outputs, y)

    def test_changed_input_blocks_reuse(self, rng):
        step = Stepper(InputSimilarityGatePredictor(theta=0.01, neurons=4), neurons=4)
        x, h = np.ones((1, 3)), np.ones((1, 2))
        step(np.ones((1, 4)), x, h)
        _, mask = step(np.zeros((1, 4)), -x, -h)
        assert not mask.any()

    def test_decision_is_per_row(self, rng):
        step = Stepper(
            InputSimilarityGatePredictor(theta=0.01, neurons=3), neurons=3, batch=2
        )
        x = np.ones((2, 2))
        h = np.ones((2, 2))
        step(np.ones((2, 3)), x, h)
        x2 = x.copy()
        x2[1] = -5.0  # only row 1 changes
        _, mask = step(np.zeros((2, 3)), x2, h)
        assert mask[0].all()
        assert not mask[1].any()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            InputSimilarityGatePredictor(theta=-1.0, neurons=3)
        with pytest.raises(ValueError):
            InputSimilarityGatePredictor(theta=0.1, neurons=0)


class TestPredictMany:
    """The batched contract shared by every predictor."""

    def test_first_call_is_all_false(self, rng):
        gate = make_gate(rng)
        pred = BNNGatePredictor(gate, theta=100.0)
        pred.begin_sequence(3)
        operand = rng.standard_normal((3, 9))
        mask = pred.predict_many(pack_signs(operand))
        assert mask.shape == (3, 6)
        assert mask.dtype == bool
        assert not mask.any()

    def test_bnn_packed_and_operand_paths_agree(self, rng):
        """The predictor fed pre-packed sign words and the reference
        (:class:`helpers.ReferenceBNNPredictor`) fed the raw operand must
        walk through the identical decision stream."""
        operands = [rng.standard_normal((2, 9)) for _ in range(12)]

        def run(packed):
            weights = np.random.default_rng(29)
            w_x, w_h = weights.standard_normal((6, 4)), weights.standard_normal((6, 5))
            if packed:
                pred = BNNGatePredictor(BinaryGate(w_x, w_h), theta=0.3)
            else:
                pred = ReferenceBNNPredictor(w_x, w_h, theta=0.3)
            pred.begin_sequence(2)
            masks = []
            for operand in operands:
                if packed:
                    masks.append(pred.predict_many(pack_signs(operand)))
                else:
                    masks.append(pred.predict_many(operand=operand))
            return masks

        for a, b in zip(run(True), run(False)):
            np.testing.assert_array_equal(a, b)

    def test_bnn_requires_some_operand_form(self, rng):
        pred = BNNGatePredictor(make_gate(rng), theta=0.3)
        pred.begin_sequence(1)
        with pytest.raises(ValueError, match="packed signs"):
            pred.predict_many(preacts=np.ones((1, 6)))
        with pytest.raises(ValueError, match="packed signs"):
            pred.predict_many(operand=np.ones((1, 9)))

    def test_oracle_requires_preacts(self):
        pred = OracleGatePredictor(theta=0.3)
        pred.begin_sequence(1)
        with pytest.raises(ValueError, match="preacts"):
            pred.predict_many()

    def test_input_similarity_requires_operand(self):
        pred = InputSimilarityGatePredictor(theta=0.3, neurons=4)
        pred.begin_sequence(1)
        with pytest.raises(ValueError, match="operand"):
            pred.predict_many()

    def test_oracle_decision_is_pure_function_of_memo(self, rng):
        """The oracle's predict_many consults only (preacts, memo)."""
        pred = OracleGatePredictor(theta=0.5)
        pred.begin_sequence(1)
        memo = np.array([[1.0, 1.0]])
        mask = pred.predict_many(preacts=np.array([[1.2, 3.0]]), memo=memo)
        np.testing.assert_array_equal(mask, [[True, False]])
        # No memo -> nothing to reuse.
        assert not pred.predict_many(preacts=np.array([[1.2, 3.0]])).any()

    def test_throttle_state_carries_across_calls(self):
        """Accumulated delta (Eq. 13) must survive between predict_many
        calls and reset on begin_sequence."""
        gate = BinaryGate(np.ones((1, 4)), np.ones((1, 4)))
        pred = BNNGatePredictor(gate, theta=0.4)
        base = np.ones((1, 8))  # binary output 8
        drifted = base.copy()
        drifted[0, 0] = -1.0  # binary output 6: epsilon = 2/6 vs memo 8
        pred.begin_sequence(1)
        pred.predict_many(pack_signs(base))
        first = pred.predict_many(pack_signs(drifted))
        second = pred.predict_many(pack_signs(drifted))
        # 1/3 <= 0.4 reuses; accumulated 2/3 > 0.4 forces the evaluation.
        assert first[0, 0]
        assert not second[0, 0]
        pred.begin_sequence(1)
        assert not pred.predict_many(pack_signs(base)).any()  # state was cleared
        assert pred.predict_many(pack_signs(base)).all()


class _Replay:
    """A stand-in binary gate whose ``evaluate_packed`` replays a stream
    of integer binary outputs, so a test can choose ``y_b`` directly.
    Each call returns a new array, as the popcount kernel does: the
    predictor reuses it as its memo buffer."""

    def __init__(self, stream):
        self._stream = iter(stream)

    def evaluate_packed(self, packed_signs):
        return next(self._stream).copy()


def binary_output_stream(seed, steps=16, shape=(3, 7)):
    """Random int32 ``y_b`` streams: drifts, zeros and sign flips, at
    magnitudes from 0 to a few hundred."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1, 10, 100], size=shape)
    y_b = rng.integers(-3, 4, size=shape) * scale
    stream = []
    for _ in range(steps):
        y_b = y_b + rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.5)
        y_b = np.where(rng.random(shape) < 0.15, -y_b, y_b)
        y_b = np.where(rng.random(shape) < 0.1, 0, y_b)
        stream.append(y_b.astype(np.int32))
    return stream


class TestReferenceDecision:
    """The fused Eq. 12-17 decision equals the reference's float64
    masked-copy decision bit for bit."""

    @pytest.mark.parametrize("throttle", [True, False], ids=["throttle", "no-throttle"])
    @pytest.mark.parametrize("theta", [0.0, 0.05, 0.3, 10.0])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_masks_and_delta_bitwise_equal(self, theta, throttle, seed):
        stream = binary_output_stream(seed)
        batch, neurons = stream[0].shape
        shipped = BNNGatePredictor(_Replay(stream), theta, throttle=throttle)
        reference = ReferenceBNNPredictor(
            np.ones((neurons, 1)), np.ones((neurons, 1)), theta, throttle=throttle
        )
        shipped.begin_sequence(batch)
        reference.begin_sequence(batch)
        packed = np.zeros((batch, 1), dtype=np.uint64)
        for y_b in stream:
            mask = shipped.predict_many(packed)
            expected = reference.decide(y_b)
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, expected)
            np.testing.assert_array_equal(
                shipped._delta.view(np.uint64), reference.delta.view(np.uint64)
            )
            np.testing.assert_array_equal(shipped._y_b_m, reference.y_b_m)

    def test_streams_cover_zeros_flips_and_both_decisions(self):
        """The property above meets zero outputs, sign flips, reuse and
        full evaluations."""
        stream = np.stack(binary_output_stream(7))
        assert (stream == 0).any()
        assert (np.sign(stream[1:]) * np.sign(stream[:-1]) < 0).any()
        reference = ReferenceBNNPredictor(np.ones((7, 1)), np.ones((7, 1)), 0.3)
        reference.begin_sequence(3)
        masks = np.stack([reference.decide(y_b) for y_b in stream])
        assert masks[1:].any() and not masks[1:].all()


class TestDeprecationWarnings:
    """No deprecated shim is left on the predictor API: the batched call
    it kept is warning-free."""

    def test_predict_many_does_not_warn(self, rng):
        import warnings

        pred = OracleGatePredictor(theta=1.0)
        pred.begin_sequence(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pred.predict_many(preacts=rng.standard_normal((1, 6)))
        assert not any(
            issubclass(w.category, DeprecationWarning) for w in caught
        )
