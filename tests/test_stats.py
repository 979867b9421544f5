"""Tests for reuse accounting and the Figure 5 output-change profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    DetailedReuseStats,
    ReuseStats,
    output_change_profile,
    profile_summary,
    relative_change,
)


class TestReuseStats:
    def test_empty_is_zero(self):
        assert ReuseStats().reuse_fraction() == 0.0
        assert ReuseStats().total_evaluations == 0

    def test_record_counts(self):
        stats = ReuseStats()
        stats.record("layer0", ("i",), np.array([[True, False], [True, True]]))
        assert stats.total_evaluations == 4
        assert stats.total_reused == 3
        assert stats.reuse_fraction() == pytest.approx(0.75)

    def test_percent(self):
        stats = ReuseStats()
        stats.record("l", ("g",), np.array([True, False]))
        assert stats.reuse_percent() == pytest.approx(50.0)

    def test_by_layer_and_gate(self):
        stats = ReuseStats()
        stats.record("l0", ("i",), np.array([True, True]))
        stats.record("l0", ("f",), np.array([False, False]))
        stats.record("l1", ("i",), np.array([True, False]))
        assert stats.by_layer() == {"l0": 0.5, "l1": 0.5}
        assert stats.by_gate()["i"] == pytest.approx(0.75)
        assert stats.by_gate()["f"] == 0.0

    def test_merge(self):
        a, b = ReuseStats(), ReuseStats()
        a.record("l", ("i",), np.array([True]))
        b.record("l", ("i",), np.array([False]))
        b.record("m", ("g",), np.array([True]))
        a.merge(b)
        assert a.total_evaluations == 3
        assert a.total_reused == 2

    def test_reset(self):
        stats = ReuseStats()
        stats.record("l", ("i",), np.array([True]))
        stats.reset()
        assert stats.total_evaluations == 0

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_fraction_bounds(self, flags):
        stats = ReuseStats()
        stats.record("l", ("i",), np.array(flags))
        assert 0.0 <= stats.reuse_fraction() <= 1.0

    @given(
        st.lists(
            st.lists(st.booleans(), min_size=1, max_size=16),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_any_partition_equals_whole(self, shards):
        """merge() over any split of the records equals one big record."""
        whole = ReuseStats()
        for flags in shards:
            whole.record("l", ("i",), np.array(flags))
        merged = ReuseStats()
        for flags in shards:
            part = ReuseStats()
            part.record("l", ("i",), np.array(flags))
            merged.merge(part)
        assert merged.total == whole.total
        assert merged.reused == whole.reused
        assert merged.reuse_fraction() == whole.reuse_fraction()

    def test_record_counts_each_gate_of_a_phase(self):
        """One record call counts every gate's H-wide column block."""
        stats = ReuseStats()
        mask = np.array(
            [[True, True, False, False, True, False],
             [True, False, False, False, True, True]]
        )
        stats.record("l", ("z", "r", "g"), mask)
        assert stats.reused == {("l", "z"): 3, ("l", "r"): 0, ("l", "g"): 3}
        assert stats.total == {("l", "z"): 4, ("l", "r"): 4, ("l", "g"): 4}

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_record_equals_per_gate_records(self, gates, rows, width, seed):
        """Recording a phase once equals recording each gate's block."""
        names = tuple("abcd"[:gates])
        mask = np.random.default_rng(seed).random((rows, gates * width)) < 0.5
        phase, per_gate = ReuseStats(), ReuseStats()
        phase.record("l", names, mask)
        for k, name in enumerate(names):
            per_gate.record("l", (name,), mask[:, k * width : (k + 1) * width])
        assert phase.reused == per_gate.reused
        assert phase.total == per_gate.total

    def test_gate_names_must_be_a_tuple(self):
        with pytest.raises(TypeError, match="tuple"):
            ReuseStats().record("l", "gate", np.ones((1, 4), dtype=bool))

    def test_mask_must_split_into_gate_blocks(self):
        with pytest.raises(ValueError, match="gate blocks"):
            ReuseStats().record("l", ("i", "f"), np.ones((4, 5), dtype=bool))


class TestDetailedReuseStats:
    """The subclass must keep counts and masks in lockstep through
    record/merge/reset (the merge/reset asymmetry regression)."""

    @staticmethod
    def detailed(*masks, layer="l", gate="i"):
        stats = DetailedReuseStats()
        for mask in masks:
            stats.record(layer, (gate,), np.array(mask))
        return stats

    def test_record_stores_masks_and_counts(self):
        stats = self.detailed([[True, False]], [[False, False]])
        assert stats.timesteps("l", "i") == 2
        assert stats.total_evaluations == 4
        assert stats.total_reused == 1

    def test_merge_preserves_masks(self):
        a = self.detailed([[True, False]])
        b = self.detailed([[False, True]], [[True, True]])
        a.merge(b)
        assert a.timesteps("l", "i") == 3
        assert a.total_evaluations == 6
        assert a.total_reused == 4
        np.testing.assert_array_equal(
            a.masks[("l", "i")][1], np.array([[False, True]])
        )

    def test_merge_matches_sequential_record(self):
        """Merging two halves equals recording everything in order."""
        first = [[True, False]], [[False, False]]
        second = [[True, True]], [[False, True]]
        merged = self.detailed(*first)
        merged.merge(self.detailed(*second))
        sequential = self.detailed(*first, *second)
        assert merged.total == sequential.total
        assert merged.reused == sequential.reused
        for key in sequential.masks:
            np.testing.assert_array_equal(
                np.concatenate(merged.masks[key]),
                np.concatenate(sequential.masks[key]),
            )

    def test_merge_copies_masks(self):
        """Merged masks must not alias the source's arrays."""
        source = self.detailed([[True, False]])
        target = DetailedReuseStats()
        target.merge(source)
        source.masks[("l", "i")][0][:] = False
        assert target.masks[("l", "i")][0][0, 0]

    def test_merge_plain_stats_adds_counts_only(self):
        detailed = self.detailed([[True, False]])
        plain = ReuseStats()
        plain.record("l", ("i",), np.array([[True, True]]))
        detailed.merge(plain)
        assert detailed.total_evaluations == 4
        assert detailed.total_reused == 3
        assert detailed.timesteps("l", "i") == 1  # no masks to inherit

    def test_reset_clears_masks_and_counts(self):
        stats = self.detailed([[True, False]])
        stats.reset()
        assert stats.total_evaluations == 0
        assert stats.timesteps("l", "i") == 0
        assert stats.masks == {}

    def test_phase_record_keeps_per_gate_masks(self):
        stats = DetailedReuseStats()
        stats.record("l", ("z", "r"), np.array([[True, False, False, True]]))
        np.testing.assert_array_equal(stats.masks[("l", "z")][0], [[True, False]])
        np.testing.assert_array_equal(stats.masks[("l", "r")][0], [[False, True]])
        assert stats.total_reused == 2

    def test_merge_separate_keys(self):
        a = self.detailed([[True]], layer="l0")
        a.merge(self.detailed([[False]], layer="l1"))
        assert a.timesteps("l0", "i") == 1
        assert a.timesteps("l1", "i") == 1


class TestRelativeChange:
    def test_basic(self):
        out = relative_change(np.array([2.0]), np.array([1.0]))
        np.testing.assert_allclose(out, [0.5])

    def test_zero_denominator_floored(self):
        out = relative_change(np.array([0.0]), np.array([1.0]), floor=1e-8)
        assert np.isfinite(out).all()

    def test_identical_is_zero(self):
        x = np.array([3.0, -4.0])
        np.testing.assert_array_equal(relative_change(x, x), [0.0, 0.0])


class TestOutputChangeProfile:
    def test_constant_sequence_is_zero(self):
        seq = np.ones((2, 10, 4))
        profile = output_change_profile([seq])
        np.testing.assert_array_equal(profile, np.zeros(4))

    def test_sorted_ascending(self):
        rng = np.random.default_rng(0)
        profile = output_change_profile([rng.standard_normal((2, 12, 8))])
        assert np.all(np.diff(profile) >= 0)

    def test_concatenates_layers(self):
        rng = np.random.default_rng(0)
        profile = output_change_profile(
            [rng.standard_normal((1, 5, 3)), rng.standard_normal((1, 5, 4))]
        )
        assert profile.shape == (7,)

    def test_clipping(self):
        seq = np.zeros((1, 3, 1))
        seq[0, :, 0] = [1e-9, 1.0, 1e-9]  # enormous relative changes
        profile = output_change_profile([seq], clip_percent=100.0)
        assert profile.max() <= 100.0

    def test_needs_two_timesteps(self):
        with pytest.raises(ValueError):
            output_change_profile([np.ones((1, 1, 4))])

    def test_needs_3d(self):
        with pytest.raises(ValueError):
            output_change_profile([np.ones((4, 4))])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            output_change_profile([])

    def test_smooth_changes_less_than_jumpy(self):
        """A slowly drifting neuron must profile below a jumpy one."""
        steps = np.arange(50, dtype=np.float64)
        smooth = (10.0 + 0.01 * steps).reshape(1, 50, 1)
        rng = np.random.default_rng(1)
        jumpy = (10.0 + 5.0 * rng.standard_normal(50)).reshape(1, 50, 1)
        p_smooth = output_change_profile([smooth])
        p_jumpy = output_change_profile([jumpy])
        assert p_smooth[0] < p_jumpy[0]


class TestProfileSummary:
    def test_keys_and_values(self):
        profile = np.array([1.0, 5.0, 9.0, 50.0])
        summary = profile_summary(profile)
        assert summary["mean_percent"] == pytest.approx(16.25)
        assert summary["fraction_below_10pct"] == pytest.approx(0.75)
        assert summary["median_percent"] == pytest.approx(7.0)


class TestThreadSafeReuseStats:
    def test_concurrent_records_lose_nothing(self):
        import threading

        from repro.core.stats import ThreadSafeReuseStats

        stats = ThreadSafeReuseStats()
        mask = np.ones((2, 8), dtype=bool)
        per_thread = 200

        def pound():
            for _ in range(per_thread):
                stats.record("layer", ("gate",), mask)

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.total_evaluations == 8 * per_thread * mask.size
        assert stats.total_reused == 8 * per_thread * mask.size

    def test_snapshot_never_sees_half_a_phase(self):
        """The lock is held across a whole phase: every gate of it is
        counted in a snapshot, or none is."""
        import threading

        from repro.core.stats import ThreadSafeReuseStats

        stats = ThreadSafeReuseStats()
        gates = ("i", "f", "g", "o")
        mask = np.ones((2, 4 * 64), dtype=bool)
        done = threading.Event()

        def pound():
            for _ in range(300):
                stats.record("layer", gates, mask)
            done.set()

        writer = threading.Thread(target=pound)
        writer.start()
        try:
            while not done.is_set():
                snap = stats.snapshot()
                counts = {snap.total.get(("layer", gate), 0) for gate in gates}
                assert len(counts) == 1, snap.total
        finally:
            writer.join()
        assert stats.total_reused == 300 * mask.size

    def test_snapshot_is_detached(self):
        from repro.core.stats import ThreadSafeReuseStats

        stats = ThreadSafeReuseStats()
        stats.record("layer", ("i",), np.array([[True, False]]))
        snap = stats.snapshot()
        assert type(snap) is ReuseStats
        stats.record("layer", ("i",), np.array([[True, True]]))
        assert snap.total_evaluations == 2
        assert stats.total_evaluations == 4
        snap.record("other", ("o",), np.array([[False]]))
        assert ("other", "o") not in stats.total

    def test_plain_snapshot_matches_base(self):
        stats = ReuseStats()
        stats.record("a", ("g",), np.array([[True, False, False]]))
        snap = stats.snapshot()
        assert snap.reused == stats.reused
        assert snap.total == stats.total
        assert snap.reused is not stats.reused

    def test_merge_and_reset_locked_variants(self):
        from repro.core.stats import ThreadSafeReuseStats

        stats = ThreadSafeReuseStats()
        other = ReuseStats()
        other.record("a", ("g",), np.array([[True]]))
        stats.merge(other)
        assert stats.total_evaluations == 1
        stats.reset()
        assert stats.total_evaluations == 0
