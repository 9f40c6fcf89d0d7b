"""Counter-based deterministic random numbers.

All randomness in this package is derived by hashing integer keys
(seed, stream tag, counter indices, ...) through the splitmix64
finalizer. There is no sequential generator state, so any draw can be
computed independently of every other draw: sampling is reproducible
bit for bit regardless of evaluation order, chunking, or process count.

Scalar helpers operate on Python integers; the ``*_array`` variants are
numpy implementations of the same arithmetic and return identical
values (verified by tests).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags keep unrelated uses of the same seed independent.
STREAM_SAMPLE = 0x5A
STREAM_REPLICATE = 0x52
STREAM_BOOTSTRAP = 0xB0

# Per-period draw slots within a patient's substream.
SLOT_OUTCOME = 0
SLOT_TREATMENT = 1

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def hash_key(*parts: int) -> int:
    """Fold integer key parts into one 64-bit hash.

    The fold is order-dependent: ``hash_key(a, b) != hash_key(b, a)``
    in general. Negative parts are reduced modulo 2**64.
    """
    h = 0
    for p in parts:
        h = mix64((h + _GOLDEN + (p & _MASK)) & _MASK)
    return h


def uniform(*parts: int) -> float:
    """One uniform draw in [0, 1) keyed by the given integers."""
    return (hash_key(*parts) >> 11) * _INV53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)


def hash_key_array(
    parts: Iterable[int | np.ndarray], prefix: int | np.ndarray = 0
) -> np.ndarray:
    """Vectorized :func:`hash_key`; parts may mix ints and uint64 arrays.

    ``prefix`` is the hash of key parts folded before ``parts``, so
    ``hash_key_array(b, hash_key_array(a))`` equals
    ``hash_key_array(a + b)``: a shared key prefix is hashed once.
    """
    # Unsigned 64-bit wraparound is the intended arithmetic here, so
    # overflow reporting is suppressed for the fold.
    h = np.asarray(prefix, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in parts:
            if isinstance(p, np.ndarray):
                p = p.astype(np.uint64, copy=False)
            else:
                p = np.uint64(p & _MASK)
            h = _mix64_array(h + _U_GOLDEN + p)
    return np.asarray(h, dtype=np.uint64)


def uniform_array(
    parts: Iterable[int | np.ndarray], prefix: int | np.ndarray = 0
) -> np.ndarray:
    """Vectorized :func:`uniform`, with :func:`hash_key_array`'s ``prefix``."""
    return (hash_key_array(parts, prefix) >> _U11).astype(np.float64) * _INV53
