"""Sign binarization and binary dot products (paper Equations 7 and 8).

Two functionally identical evaluation paths are provided:

- a ±1 int8 matmul (``binary_dot``), the clearest reference; and
- a bit-packed XNOR/popcount path (``pack_signs`` + ``binary_dot_packed``)
  mirroring what the hardware FMU's BDPU actually does: multiply of
  binarized operands is XNOR, the reduction is a popcount adder tree, and
  the signed dot product is recovered as ``n - 2 * popcount(xor)``.

Sign bits are packed into ``uint64`` machine words so a whole gate phase
(every gate of an LSTM/GRU cell, stacked) reduces to XOR + popcount
operations per neuron — this is the compute path behind the
memoization engine, and the reason the BNN predictor costs a popcount
rather than an integer matmul.

The popcount kernel takes its weights *word-major*: a ``(W, N)`` array
whose row ``k`` holds word ``k`` of every neuron's packed signs.  Its
cost model is one ``(B, N)`` slab per 64-bit operand word: for each of
the operand's ``W`` words it XORs that word's ``(B,)`` column against
the contiguous weight row into a ``(B, N)`` uint64 buffer, popcounts the
buffer into uint8 and adds it into an int32 ``(B, N)`` mismatch count.
The working set is about ``13 * B * N`` bytes whatever the operand
width (0.85 MB for MNMT's 4096 stacked neurons at batch 16, against
16.8 MB for a ``(B, N, W)`` XOR tensor of its 32-word operands).

The test suite asserts both paths agree bit-exactly on random inputs,
including widths that are not multiples of the word size.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

#: Width of the packing words.  The FMU's BDPU operates on 2048-bit rows,
#: i.e. 32 of these 64-bit lanes.
_WORD_BITS = 64

#: uint8 bytes per packed word (``np.packbits`` emits bytes; groups of
#: eight bytes are reinterpreted as one ``uint64`` lane).
_BYTES_PER_WORD = _WORD_BITS // 8


def binarize(x: Array) -> Array:
    """Eq. 7: ``+1 if x >= 0 else -1``, as int8."""
    x = np.asarray(x)
    return np.where(x >= 0, 1, -1).astype(np.int8)


def binarize_bits(x: Array) -> Array:
    """Eq. 7 with the hardware storage convention: ``+1 -> 1``, ``-1 -> 0``."""
    x = np.asarray(x)
    return (x >= 0).astype(np.uint8)


def binary_dot(w_bin: Array, x_bin: Array) -> Array:
    """Eq. 8 reference path: integer dot product of ±1 operands.

    Args:
        w_bin: ``(H, D)`` ±1 weights (one row per neuron).
        x_bin: ``(D,)`` or ``(B, D)`` ±1 inputs.

    Returns:
        ``(H,)`` or ``(B, H)`` int32 dot products.
    """
    w_bin = np.asarray(w_bin, dtype=np.int32)
    x_bin = np.asarray(x_bin, dtype=np.int32)
    if x_bin.ndim == 1:
        return w_bin @ x_bin
    return x_bin @ w_bin.T


def pack_signs(x: Array) -> Array:
    """Pack sign bits of ``x`` along the last axis into uint64 words.

    The last axis is padded with zero-bits up to a multiple of 64 (the
    packed dot product corrects for padding via the true bit length).
    Both operands of :func:`binary_dot_packed` must be packed by this
    function: the byte order inside each word is platform-native, which
    cancels in XOR/popcount as long as the two sides agree.
    """
    bits = binarize_bits(x)
    packed = np.packbits(bits, axis=-1)
    remainder = packed.shape[-1] % _BYTES_PER_WORD
    if remainder:
        pad_shape = packed.shape[:-1] + (_BYTES_PER_WORD - remainder,)
        packed = np.concatenate(
            [packed, np.zeros(pad_shape, dtype=np.uint8)], axis=-1
        )
    if not packed.flags["C_CONTIGUOUS"]:
        packed = np.ascontiguousarray(packed)
    return packed.view(np.uint64)


def unpack_signs(packed: Array, n_bits: int) -> Array:
    """Inverse of :func:`pack_signs`: the ±1 int8 signs of the first
    ``n_bits`` lanes along the last axis (padding bits are dropped)."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=-1, count=n_bits)
    return bits.astype(np.int8) * 2 - 1


def binary_dot_packed(w_words: Array, x_packed: Array, n_bits: int) -> Array:
    """Eq. 8 hardware path: XNOR + popcount on packed sign bits.

    ``dot = n_bits - 2 * popcount(w XOR x)`` over the true ``n_bits`` lane
    width.  Padding bits cancel because both operands pad with 0 (XOR of
    equal pads is 0, contributing nothing to the popcount).  The result is
    the exact same integer the ±1 matmul produces.

    The popcount runs one operand word at a time (see the module
    docstring's cost model), so the temporaries are three ``(B, N)``
    slabs however many words the operand spans.

    Args:
        w_words: ``(W, H)`` word-major packed weight signs, row ``k``
            holding word ``k`` of every neuron, i.e. ``pack_signs(w).T``
            (stored contiguously by :class:`~repro.core.bnn.BinaryGate`).
        x_packed: ``(W,)`` or ``(B, W)`` packed input signs.
        n_bits: the unpadded operand length D.

    Returns:
        ``(H,)`` or ``(B, H)`` int32 dot products.
    """
    w_words = np.ascontiguousarray(w_words, dtype=np.uint64)
    x_packed = np.asarray(x_packed, dtype=np.uint64)
    words, neurons = w_words.shape
    if x_packed.shape[-1] != words:
        raise ValueError(
            f"operand spans {x_packed.shape[-1]} words, weights {words}"
        )
    rows = x_packed.reshape(-1, words)
    xor = np.empty((rows.shape[0], neurons), dtype=np.uint64)
    popcounts = np.empty(xor.shape, dtype=np.uint8)
    mismatches = np.zeros(xor.shape, dtype=np.int32)
    for k in range(words):
        np.bitwise_xor(rows[:, k, None], w_words[k], out=xor)
        np.bitwise_count(xor, out=popcounts)
        mismatches += popcounts
    dots = n_bits - 2 * mismatches
    return dots.reshape(x_packed.shape[:-1] + (neurons,))


def padded_bit_length(n_bits: int) -> int:
    """Number of bits actually stored after packing ``n_bits`` lanes."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    words = (n_bits + _WORD_BITS - 1) // _WORD_BITS
    return words * _WORD_BITS
