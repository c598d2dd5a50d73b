"""Keyed Philox streams: one row of entropy words, one independent stream.

A row's stream is ``Generator(Philox(SeedSequence(row)))``.  Its Philox key is
``SeedSequence(row).generate_state(2, np.uint64)``: a fixed hash of the row
(O'Neill's ``seed_seq_fe``, as NumPy implements it).  ``stream_keys`` runs that
hash over many rows at once in uint32 array arithmetic, and ``open_stream``
turns one key into a fresh Generator without building a ``SeedSequence``, so
the draws are those of the seeded generator at a fraction of its cost.

NumPy imports ``numpy.random`` lazily; this module touches it only when a
stream is opened or a row is too wide for the vectorised hash.
"""

from __future__ import annotations

import functools

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


def stream_keys(rows) -> np.ndarray:
    """Philox keys of entropy rows: key ``r`` is ``SeedSequence(tuple(rows[r])).generate_state(2, np.uint64)``.

    ``rows`` is an (n, w) array (or nested sequence) of non-negative integers;
    returns an (n, 2) uint64 array.  A row holding a word of 2**32 or more,
    which SeedSequence splits into several uint32 words, is hashed by
    SeedSequence itself.
    """
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if rows.ndim != 2 or rows.dtype.kind not in "iuO":
        raise ContractViolation(f"stream entropy must be an (n, words) integer array, got {rows.dtype} {rows.shape}")
    if rows.dtype == object and not all(isinstance(v, (int, np.integer)) for v in rows.flat):
        raise ContractViolation("stream entropy words must be integers")
    negative = np.asarray(rows < 0, dtype=bool).any(axis=1)
    if negative.any():
        row = tuple(int(v) for v in rows[np.argmax(negative)])
        raise ContractViolation(f"seeds and stream indices must be non-negative, got entropy row {row}")
    wide = np.asarray(rows > _MASK32, dtype=bool).any(axis=1)
    if not wide.any():
        return _hashed_keys(rows.astype(np.uint32))
    keys = np.empty((rows.shape[0], 2), dtype=np.uint64)
    keys[~wide] = _hashed_keys(rows[~wide].astype(np.uint32))
    for r in np.flatnonzero(wide):
        keys[r] = np.random.SeedSequence([int(v) for v in rows[r]]).generate_state(2, np.uint64)
    return keys


def seeded_rows(seed: int, *columns) -> np.ndarray:
    """Entropy rows ``(seed, c1, c2, ...)``, one per element of the broadcast ``columns`` in C order.

    The rows are int64 unless the seed does not fit, in which case they hold
    Python ints; ``stream_keys`` takes either.
    """
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=np.int64) for c in columns))
    fits = -(2**63) <= seed < 2**63
    rows = np.empty((cols[0].size if cols else 1, 1 + len(cols)), dtype=np.int64 if fits else object)
    rows[:, 0] = seed
    for k, col in enumerate(cols, start=1):
        rows[:, k] = col.ravel()
    return rows


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
