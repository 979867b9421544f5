"""Weight initializers: the generator's draw, built once.

Each initializer must return exactly what its reference expression
(the generator draw cast to float64, and for ``orthogonal`` the
sign-fixed, scaled QR factor) returns on the same generator state, in
the same memory layout, so every model's weights stay bitwise
identical.  They must also build the weight without a second
result-sized copy: ``tracemalloc`` bounds their peak allocation.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.nn.initializers import orthogonal, uniform, xavier_uniform

SIDE = 1024


def reference_orthogonal(shape, rng, gain=1.0):
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).astype(np.float64)


def traced_peak(build):
    """``build()``'s result and its peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def assert_same_array(actual, expected):
    assert actual.dtype == np.float64
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("shape", [(7, 5), (5,), (2, 3, 4)])
def test_uniform_is_the_generator_draw(shape):
    expected = np.random.default_rng(3).uniform(-0.2, 0.3, size=shape).astype(np.float64)
    assert_same_array(uniform(shape, np.random.default_rng(3), -0.2, 0.3), expected)


@pytest.mark.parametrize("shape", [(7, 5), (5,), (2, 3, 4)])
def test_xavier_uniform_is_the_generator_draw(shape):
    fan_out, fan_in = (shape[0], shape[0]) if len(shape) < 2 else shape[-2:]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    expected = np.random.default_rng(3).uniform(-limit, limit, size=shape).astype(np.float64)
    assert_same_array(xavier_uniform(shape, np.random.default_rng(3)), expected)


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
@pytest.mark.parametrize("gain", [1.0, 0.5])
def test_orthogonal_is_the_reference_qr_factor(shape, gain):
    expected = reference_orthogonal(shape, np.random.default_rng(3), gain)
    assert_same_array(orthogonal(shape, np.random.default_rng(3), gain), expected)


@pytest.mark.parametrize("init", [uniform, xavier_uniform])
def test_uniform_draws_allocate_only_the_result(init):
    rng = np.random.default_rng(0)
    result, peak = traced_peak(lambda: init((SIDE, SIDE), rng))
    assert peak <= 1.05 * result.nbytes, peak / result.nbytes


def test_orthogonal_keeps_no_extra_result_sized_copy():
    result, peak = traced_peak(
        lambda: orthogonal((SIDE, SIDE), np.random.default_rng(0))
    )
    _, reference_peak = traced_peak(
        lambda: reference_orthogonal((SIDE, SIDE), np.random.default_rng(0))
    )
    assert peak <= reference_peak - 0.5 * result.nbytes, (
        peak / result.nbytes,
        reference_peak / result.nbytes,
    )
