"""Sign binarization and binary dot products (paper Equations 7 and 8).

Eq. 7 binarizes ``x`` to ``+1 if x >= 0 else -1``, and Eq. 8 is the
integer dot product of two such ±1 vectors.  This module computes both
the way the hardware FMU's BDPU does: ``pack_signs`` stores each sign as
one bit, a multiply of binarized operands is XNOR, the reduction is a
popcount adder tree, and ``binary_dot_packed`` recovers the signed dot
product as ``n - 2 * popcount(xor)``.

Sign bits are packed into ``uint64`` machine words so a whole gate phase
(every gate of an LSTM/GRU cell, stacked) reduces to XOR + popcount
operations per neuron — this is the compute path behind the
memoization engine, and the reason the BNN predictor costs a popcount
rather than an integer matmul.

The popcount kernel takes its weights *word-major*: a ``(W, N)`` array
whose row ``k`` holds word ``k`` of every neuron's packed signs.  Its
cost model is one ``(B, N)`` slab per 64-bit operand word: for each of
the operand's ``W`` words it XORs that word's ``(B,)`` column against
the contiguous weight row into a ``(B, N)`` uint64 buffer and popcounts
the buffer into uint8.  The uint8 popcounts of up to three consecutive
words add into one uint8 group count (at most 3 * 64 = 192 mismatches,
so it cannot wrap), and each group widens once into the int32 mismatch
count, which becomes the dot product in place.  The working set is
about ``14 * B * N`` bytes whatever the operand width (0.92 MB for
MNMT's 4096 stacked neurons at batch 16, against 16.8 MB for a
``(B, N, W)`` XOR tensor of its 32-word operands), and only one
mixed-width add runs per three words.

The test suite checks the kernel bit-exactly against a ±1 int8 matmul
reference on random inputs, including widths that are not multiples of
the word size.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

#: Width of the packing words.  The FMU's BDPU operates on 2048-bit rows,
#: i.e. 32 of these 64-bit lanes.
_WORD_BITS = 64

#: Operand words whose popcounts share one uint8 group count: a group
#: holds at most ``3 * 64 = 192`` mismatches, and a fourth word could
#: take it past 255.
_GROUP_WORDS = 3


def pack_signs(*blocks: Array) -> Array:
    """Pack the sign bits of ``blocks``, joined along the last axis, into
    uint64 words.

    ``pack_signs(a, b)`` returns the words that packing the concatenation
    ``np.concatenate([a, b], -1)`` would, without building that float
    copy: each block's ``>= 0`` booleans are written side by side into
    one bool buffer whose last axis is padded with zero-bits up to a
    multiple of 64 (the packed dot product corrects for padding via the
    true bit length), and the buffer packs once.  The engine packs a
    phase operand ``(x, h)`` and a gate mirror its weights ``(w_x, w_h)``
    this way; one block packs alone.  Both operands of
    :func:`binary_dot_packed` must be packed by this function: the byte
    order inside each word is platform-native, which cancels in
    XOR/popcount as long as the two sides agree.

    Raises:
        ValueError: if no block is given or the blocks' leading shapes
            differ.
    """
    if not blocks:
        raise ValueError("pack_signs needs at least one block")
    blocks = [np.asarray(block) for block in blocks]
    lead = blocks[0].shape[:-1]
    n_bits = 0
    for block in blocks:
        if block.shape[:-1] != lead:
            raise ValueError(
                "blocks must share their leading shape, got "
                f"{[block.shape for block in blocks]}"
            )
        n_bits += block.shape[-1]
    signs = np.zeros(lead + (-(-n_bits // _WORD_BITS) * _WORD_BITS,), dtype=bool)
    start = 0
    for block in blocks:
        stop = start + block.shape[-1]
        np.greater_equal(block, 0, out=signs[..., start:stop])
        start = stop
    return np.packbits(signs, axis=-1).view(np.uint64)


def binary_dot_packed(w_words: Array, x_packed: Array, n_bits: int) -> Array:
    """Eq. 8 hardware path: XNOR + popcount on packed sign bits.

    ``dot = n_bits - 2 * popcount(w XOR x)`` over the true ``n_bits`` lane
    width.  Padding bits cancel because both operands pad with 0 (XOR of
    equal pads is 0, contributing nothing to the popcount).  The result is
    the exact integer dot product of the ±1 signs.

    The popcount runs one operand word at a time and sums up to three
    words' counts in uint8 before widening them (see the module
    docstring's cost model), so the temporaries are four ``(B, N)``
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
    shape = (rows.shape[0], neurons)
    xor = np.empty(shape, dtype=np.uint64)
    popcounts = np.empty(shape, dtype=np.uint8)
    group = np.empty(shape, dtype=np.uint8)
    mismatches = None
    for start in range(0, words, _GROUP_WORDS):
        np.bitwise_xor(rows[:, start, None], w_words[start], out=xor)
        np.bitwise_count(xor, out=group)
        for k in range(start + 1, min(start + _GROUP_WORDS, words)):
            np.bitwise_xor(rows[:, k, None], w_words[k], out=xor)
            np.bitwise_count(xor, out=popcounts)
            np.add(group, popcounts, out=group)
        if mismatches is None:
            mismatches = group.astype(np.int32)
        else:
            np.add(mismatches, group, out=mismatches)
    # dot = n_bits - 2 * mismatches, in place.
    np.multiply(mismatches, -2, out=mismatches)
    np.add(mismatches, n_bits, out=mismatches)
    return mismatches.reshape(x_packed.shape[:-1] + (neurons,))


def padded_bit_length(n_bits: int) -> int:
    """Number of bits actually stored after packing ``n_bits`` lanes."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    words = (n_bits + _WORD_BITS - 1) // _WORD_BITS
    return words * _WORD_BITS
