"""Keyed Philox streams: one row of entropy words, one independent stream.

A row's stream is ``Generator(Philox(SeedSequence(row)))``.  Its Philox key is
``SeedSequence(row).generate_state(2, np.uint64)``: a fixed hash of the row
(O'Neill's ``seed_seq_fe``, as NumPy implements it).  ``stream_keys`` runs that
hash over many rows at once in uint32 array arithmetic, and ``open_stream``
turns one key into a fresh Generator without building a ``SeedSequence``, so
the draws are those of the seeded generator at a fraction of its cost.

NumPy imports ``numpy.random`` lazily; this module touches it only when a
stream is opened.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from seriesbench.core import ContractViolation

_MASK32 = 0xFFFF_FFFF
# NumPy's SeedSequence constants: a 4-word pool, two hash multiplier chains
# (A mixes entropy into the pool, B reads the state out) and the pool mixer
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> _XSHIFT)


def _hashed_keys(words: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 keys of an (n, w) uint32 array: SeedSequence's hash, one row per key."""
    n, width = words.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))

    # generate_state(2, uint64): four hashed pool words, read as two little-endian uint64
    state = np.empty((n, 4), dtype="<u4")
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


def stream_keys(seed: int, *columns) -> np.ndarray:
    """Philox keys of the entropy rows ``(seed, c1, c2, ...)``, one per element of the broadcast ``columns`` in C order.

    Key ``r`` is ``SeedSequence((seed, *row_r)).generate_state(2, np.uint64)``.
    SeedSequence reads a seed as its little-endian uint32 words (one word for
    0) and each column value as one word, so the seed is split once and every
    seed size takes the same vectorised pass.  Column values must be integers
    in [0, 2**32); returns an (n, 2) uint64 array.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ContractViolation(f"a stream seed must be one integer, got {type(seed).__name__}") from None
    if seed < 0:
        raise ContractViolation(f"seeds must be non-negative, got {seed}")
    seed_words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    arrays = [np.asarray(c) for c in columns]
    for col in arrays:
        if col.dtype.kind not in "iu":
            raise ContractViolation(f"stream indices must be integers, got {col.dtype}")
        if col.size and not 0 <= col.min() <= col.max() <= _MASK32:
            raise ContractViolation(
                f"stream indices must be non-negative and below 2**32, got values in [{col.min()}, {col.max()}]"
            )
    cols = np.broadcast_arrays(*arrays)
    words = np.empty((cols[0].size if cols else 1, len(seed_words) + len(cols)), dtype=np.uint32)
    words[:, : len(seed_words)] = seed_words
    for k, col in enumerate(cols, start=len(seed_words)):
        words[:, k] = col.ravel()
    return _hashed_keys(words)


@functools.cache
def _key_seed_type() -> type:
    # defined on first use: a module-level subclass of a numpy.random class
    # would import numpy.random in every process that imports this module
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        """A seed sequence whose only state is a ready Philox key."""

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("a Philox key seeds exactly two uint64 words")
            return self.key

    return KeySeed


def open_stream(key: np.ndarray) -> np.random.Generator:
    """A fresh Generator on the Philox stream of one ``stream_keys`` row."""
    return np.random.Generator(np.random.Philox(_key_seed_type()(key)))
