"""Tests for sign binarization and binary dot products (Eq. 7-8): the packed
popcount kernel against the ±1 int8 matmul reference in ``helpers``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarization import binary_dot_packed, pack_signs, padded_bit_length
from repro.core.bnn import BinaryGate

from helpers import binarize, binarize_bits, binary_dot, unpack_signs


class TestBinarize:
    def test_signs(self):
        np.testing.assert_array_equal(
            binarize(np.array([-1.5, -0.0, 0.0, 2.0])), [-1, 1, 1, 1]
        )

    def test_zero_maps_to_plus_one(self):
        """Eq. 7: x >= 0 -> +1, so exactly zero binarizes to +1."""
        assert binarize(np.array([0.0]))[0] == 1

    def test_bits_convention(self):
        np.testing.assert_array_equal(
            binarize_bits(np.array([-3.0, 4.0])), [0, 1]
        )

    def test_dtype(self):
        assert binarize(np.zeros(4)).dtype == np.int8


class TestBinaryDot:
    def test_known_value(self):
        w = np.array([[1, -1, 1]], dtype=np.int8)
        x = np.array([1, 1, 1], dtype=np.int8)
        assert binary_dot(w, x)[0] == 1

    def test_batched(self):
        w = np.array([[1, -1], [1, 1]], dtype=np.int8)
        x = np.array([[1, 1], [-1, 1]], dtype=np.int8)
        out = binary_dot(w, x)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out, [[0, 2], [-2, 0]])

    def test_range_bound(self):
        """|dot| <= D and dot has the parity of D."""
        rng = np.random.default_rng(0)
        w = binarize(rng.standard_normal((5, 9)))
        x = binarize(rng.standard_normal(9))
        out = binary_dot(w, x)
        assert np.all(np.abs(out) <= 9)
        assert np.all((out - 9) % 2 == 0)


class TestPackedPath:
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_packed_equals_matmul(self, n_bits, neurons, seed):
        """The XNOR/popcount path is bit-exact vs the ±1 matmul path."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal(n_bits)
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w).T, pack_signs(x), n_bits)
        np.testing.assert_array_equal(reference, packed)

    def test_packed_batched(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 20))
        x = rng.standard_normal((6, 20))
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w).T, pack_signs(x), 20)
        assert packed.shape == (6, 4)
        np.testing.assert_array_equal(reference, packed)

    def test_padding_cancels(self):
        """Non-multiple-of-64 widths must not corrupt the dot product."""
        w = np.ones((1, 3))
        x = np.ones(3)
        assert binary_dot_packed(pack_signs(w).T, pack_signs(x), 3)[0] == 3

    def test_packed_words_are_uint64(self):
        packed = pack_signs(np.ones((2, 70)))
        assert packed.dtype == np.uint64
        assert packed.shape == (2, 2)  # 70 bits -> two 64-bit words

    @pytest.mark.parametrize(
        "n_bits,neurons,rows",
        [pytest.param(n, 7, (3,), id=str(n)) for n in (1, 63, 64, 65, 127, 128, 129, 200)]
        + [
            # Paper phase widths (EESEN, DeepSpeech2, MNMT operands) over a
            # stacked 4 x 96 phase, at batch 16, batch 1 and a 1-D operand.
            pytest.param(640, 4 * 96, (16,), id="640-4x96-b16"),
            pytest.param(640, 4 * 96, (1,), id="640-4x96-b1"),
            pytest.param(1600, 4 * 96, (16,), id="1600-4x96-b16"),
            pytest.param(1600, 4 * 96, (1,), id="1600-4x96-b1"),
            pytest.param(2048, 4 * 96, (16,), id="2048-4x96-b16"),
            pytest.param(2048, 4 * 96, (), id="2048-4x96-1d"),
        ],
    )
    def test_word_boundary_widths(self, n_bits, neurons, rows):
        """Widths straddling 64-bit word boundaries stay bit-exact."""
        rng = np.random.default_rng(n_bits)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal(rows + (n_bits,))
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w).T, pack_signs(x), n_bits)
        assert packed.shape == rows + (neurons,)
        assert packed.dtype == np.int32
        np.testing.assert_array_equal(reference, packed)

    def test_operand_word_count_must_match(self):
        w = pack_signs(np.ones((4, 130)))
        with pytest.raises(ValueError):
            binary_dot_packed(w.T, pack_signs(np.ones((2, 64))), 130)

    @pytest.mark.parametrize(
        "n_bits",
        [bits for words in range(1, 10) for bits in (64 * words - 23, 64 * words)]
        + [2000, 2048],  # MNMT's 32-word operands
    )
    def test_all_mismatch_and_all_match_are_exact(self, n_bits):
        """The extreme counts: an operand holding each weight row's
        complement mismatches every bit (-n_bits), the row itself none
        (+n_bits).  Random bits average 32 mismatches per word, so only
        these reach the most a popcount group has to hold."""
        rng = np.random.default_rng(n_bits)
        w = rng.standard_normal((5, n_bits))
        w_words = pack_signs(w).T
        flipped = np.where(w >= 0, -1.0, 1.0)
        for operand, expected in ((flipped, -n_bits), (w, n_bits)):
            dots = binary_dot_packed(w_words, pack_signs(operand), n_bits)
            np.testing.assert_array_equal(np.diag(dots), np.full(5, expected))
            np.testing.assert_array_equal(dots, binary_dot(binarize(w), binarize(operand)))

    @pytest.mark.parametrize("n_bits", [1, 64, 65, 200])
    def test_unpack_inverts_pack(self, n_bits):
        x = np.random.default_rng(n_bits).standard_normal((5, n_bits))
        np.testing.assert_array_equal(unpack_signs(pack_signs(x), n_bits), binarize(x))


class TestSignAgreement:
    """The popcount correlation signal == the float ±1 dot product.

    The engine's predictor thresholds on the packed popcount output;
    these properties pin it to the mathematical definition: the dot
    product of the float-binarized sign vectors.
    """

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_popcount_equals_float_dot(self, n_bits, neurons, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal((2, n_bits))
        float_dot = binarize(x).astype(np.float64) @ binarize(w).astype(np.float64).T
        packed = binary_dot_packed(pack_signs(w).T, pack_signs(x), n_bits)
        np.testing.assert_array_equal(float_dot, packed.astype(np.float64))

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_self_agreement_is_full(self, n_bits):
        """A sign vector dotted with itself yields exactly n_bits."""
        rng = np.random.default_rng(n_bits)
        v = rng.standard_normal((1, n_bits))
        packed = pack_signs(v)
        assert binary_dot_packed(packed.T, packed[0], n_bits)[0] == n_bits


#: ``(first, second)`` block widths in bits: single bits, word edges,
#: the zoo's operand splits, EESEN's and MNMT's paper operands and a
#: second block that runs 32 words past a one-bit first block.
BLOCK_WIDTHS = [
    (1, 1), (63, 1), (64, 64), (16, 20), (24, 20), (640, 320), (1024, 1024), (1, 2047),
]
BLOCK_IDS = [f"{first}+{second}" for first, second in BLOCK_WIDTHS]


class TestPackBlocks:
    """``pack_signs(*blocks)`` packs the words of the blocks'
    concatenation, bit for bit, without building it."""

    @staticmethod
    def blocks(widths, form):
        rng = np.random.default_rng(list(widths))
        lead = () if form == "1-D" else (3,)
        if form == "three blocks":
            widths = widths + widths[:1]
        blocks = [rng.standard_normal(lead + (width,)) for width in widths]
        for block in blocks:
            block[..., ::5] = 0.0  # Eq. 7: exact zeros pack as +1
        return blocks

    @pytest.mark.parametrize("form", ["1-D", "2-D", "three blocks"])
    @pytest.mark.parametrize("widths", BLOCK_WIDTHS, ids=BLOCK_IDS)
    def test_blocks_pack_like_their_concatenation(self, widths, form):
        blocks = self.blocks(widths, form)
        np.testing.assert_array_equal(
            pack_signs(*blocks), pack_signs(np.concatenate(blocks, -1))
        )

    @pytest.mark.parametrize("widths", BLOCK_WIDTHS, ids=BLOCK_IDS)
    def test_binary_gate_packs_its_weights_like_their_concatenation(self, widths):
        w_x, w_h = self.blocks(widths, "2-D")
        np.testing.assert_array_equal(
            BinaryGate(w_x, w_h).weight_words,
            pack_signs(np.concatenate([w_x, w_h], 1)).T,
        )

    @pytest.mark.parametrize(
        "shapes", [((2, 3), (3, 3)), ((3,), (1, 3)), ((2, 1, 4), (2, 4))]
    )
    def test_leading_shapes_must_agree(self, shapes):
        with pytest.raises(ValueError, match="leading shape"):
            pack_signs(*(np.ones(shape) for shape in shapes))

    def test_needs_a_block(self):
        with pytest.raises(ValueError):
            pack_signs()


class TestPaddedBitLength:
    @pytest.mark.parametrize(
        "n,expected", [(1, 64), (64, 64), (65, 128), (2048, 2048)]
    )
    def test_values(self, n, expected):
        assert padded_bit_length(n) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            padded_bit_length(0)
