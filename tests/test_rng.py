"""Counter-based random number generation."""

import numpy as np
import pytest

from ttebench._rng import (
    hash_key,
    hash_key_array,
    mix64,
    uniform,
    uniform_array,
)

MASK = (1 << 64) - 1


def reference_mix64(z: int) -> int:
    """Independent restatement of the 64-bit finalizer."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_mix64_matches_reference():
    for z in [0, 1, 2, 0x9E3779B97F4A7C15, 123456789, MASK, MASK - 7]:
        assert mix64(z) == reference_mix64(z)


def test_hash_key_is_an_iterated_keyed_mix():
    parts = (3, 1, 4, 1, 5)
    h = 0
    for p in parts:
        h = reference_mix64((h + 0x9E3779B97F4A7C15 + (p & MASK)) & MASK)
    assert hash_key(*parts) == h


def test_hash_key_is_order_and_value_sensitive():
    assert hash_key(1, 2) != hash_key(2, 1)
    assert hash_key(1, 2) != hash_key(1, 3)
    assert hash_key(7) == hash_key(7)


def test_negative_parts_wrap_to_unsigned():
    assert hash_key(-1) == hash_key(MASK)


def test_scalar_and_array_paths_agree():
    counters = np.arange(50, dtype=np.uint64)
    keys = hash_key_array([9, 0x5A, counters, 2, 1])
    values = uniform_array([9, 0x5A, counters, 2, 1])
    for i in range(50):
        assert int(keys[i]) == hash_key(9, 0x5A, i, 2, 1)
        assert float(values[i]) == uniform(9, 0x5A, i, 2, 1)


def test_array_fold_continues_from_a_prefix_hash():
    counters = np.arange(50, dtype=np.uint64).reshape(5, 10)
    seeds = np.array([[0], [7], [MASK]], dtype=np.uint64)
    whole = uniform_array([seeds[:, :, None], 0x5A, counters, 3, 1])
    prefix = hash_key_array([seeds[:, :, None], 0x5A, counters])
    assert whole.shape == (3, 5, 10)
    assert np.array_equal(hash_key_array([3], prefix), hash_key_array(
        [seeds[:, :, None], 0x5A, counters, 3]
    ))
    assert np.array_equal(
        uniform_array([1], hash_key_array([3], prefix)), whole
    )


def test_uniform_range_and_mean():
    counters = np.arange(20_000, dtype=np.uint64)
    values = uniform_array([123, counters])
    assert values.min() >= 0.0
    assert values.max() < 1.0
    # Mean of Uniform(0,1) has sd 1/sqrt(12 n); allow 5 sigma.
    assert abs(values.mean() - 0.5) < 5 / np.sqrt(12 * values.size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_array_fold_emits_no_overflow_warnings():
    counters = np.arange(1000, dtype=np.uint64)
    uniform_array([2**63, counters, MASK])
    hash_key_array([MASK, MASK, counters])
