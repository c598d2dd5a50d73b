"""Keyed Philox streams: one row of entropy words, one independent stream.

A row's stream is ``Generator(Philox(SeedSequence(row)))``.  Its Philox key is
``SeedSequence(row).generate_state(2, np.uint64)``: a fixed hash of the row
(O'Neill's ``seed_seq_fe``, as NumPy implements it).  ``stream_keys`` runs that
hash over many rows at once in uint32 array arithmetic, and ``open_stream``
hands one key to Philox's own ``key`` argument, which builds no
``SeedSequence`` and draws no OS entropy, so the draws are those of the
seeded generator without hashing the row again.  A fresh stream is only its
key and counter 0, so ``reseat_stream`` moves an existing Generator to it for
less: a caller that draws from many streams one after another keeps one
Generator.

Philox is counter-based (Salmon et al., SC 2011): output block c of a key is a
pure function of (key, c).  ``philox_blocks`` computes the first blocks of
many keys at once in uint64 array arithmetic, and ``sample_sets`` turns them
into the samples ``Generator.choice(pop, size, replace=False)`` draws, running
NumPy's Floyd loop and final shuffle with Lemire's bounded integers over every
key at once.  A row that cannot be reproduced so is drawn by ``choice`` on its
opened stream.
The ``Generator`` API promises no stream across NumPy versions, so the tests
pin both functions to NumPy's own generator.

NumPy imports ``numpy.random`` lazily; this module touches it only when a
stream is opened.
"""

from __future__ import annotations

import operator

import numpy as np

from seriesbench.core import ContractViolation, is_integer

_MASK32 = 0xFFFF_FFFF
# NumPy's SeedSequence constants: a 4-word pool, two hash multiplier chains
# (A mixes entropy into the pool, B reads the state out) and the pool mixer
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16
# Philox4x64-10: the round multipliers and the Weyl increments of the key
_PHILOX_MULT = (0xD2E7_470E_E14C_6C93, 0xCA5A_8263_9512_1157)
_PHILOX_BUMP = (0x9E37_79B9_7F4A_7C15, 0xBB67_AE85_84CA_A73B)
_PHILOX_ROUNDS = 10
# Generator.choice(pop, size, replace=False) shuffles the tail of arange(pop)
# instead of running Floyd's algorithm when pop > 10000 and size > pop // 50
_TAIL_SHUFFLE_POP, _TAIL_SHUFFLE_DIVISOR = 10_000, 50
# the state setter reads the words of a counter or buffer one by one, fastest from Python ints
_ZERO_WORDS = (0, 0, 0, 0)
_PHILOX_BUFFER_WORDS = 4  # a buffer_pos of 4 leaves no buffered output block


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
    if not is_integer(seed):  # a bool is none, though operator.index takes it
        raise ContractViolation(f"a stream seed must be one integer, got {type(seed).__name__}")
    seed = operator.index(seed)  # a Python int, as NumPy integers have no bit_length
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


def open_stream(key: np.ndarray) -> np.random.Generator:
    """A fresh Generator on the Philox stream of one ``stream_keys`` row."""
    return np.random.Generator(np.random.Philox(key=key, counter=0))


def reseat_stream(rng: np.random.Generator, key) -> np.random.Generator:
    """Move ``rng``, a Generator on a Philox, to the start of ``key``'s stream and return it.

    ``key`` is one ``stream_keys`` row, fastest as two Python ints (a row of
    ``keys.tolist()``).  The new state is that of ``open_stream(key)``:
    counter 0, no buffered output block and no buffered uint32 half, so the
    draws that follow are the fresh stream's whatever ``rng`` drew before.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": _PHILOX_BUFFER_WORDS,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _mulhilo(multiplier: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of ``multiplier * b``, from products of 32-bit halves."""
    m_lo, m_hi = np.uint64(multiplier & _MASK32), np.uint64(multiplier >> 32)
    shift, low = np.uint64(32), np.uint64(_MASK32)
    b_lo, b_hi = b & low, b >> shift
    cross_lo, cross_hi = m_lo * b_hi, m_hi * b_lo
    carry = ((m_lo * b_lo) >> shift) + (cross_lo & low) + (cross_hi & low)
    hi = m_hi * b_hi + (cross_lo >> shift) + (cross_hi >> shift) + (carry >> shift)
    return hi, np.uint64(multiplier) * b


def philox_blocks(keys: np.ndarray, n: int) -> np.ndarray:
    """Philox4x64-10 output blocks 1..n of every ``stream_keys`` row; shape (rows, n, 4) uint64.

    Row r read in C order is ``Philox(key_r).random_raw(4 * n)``: a fresh
    Philox starts from counter 0 and increments it before each block.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    key0, key1 = keys[:, :1], keys[:, 1:]
    zero = np.zeros((keys.shape[0], n), dtype=np.uint64)
    ctr = (zero + np.arange(1, n + 1, dtype=np.uint64), zero, zero, zero)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + np.uint64(_PHILOX_BUMP[0]), key1 + np.uint64(_PHILOX_BUMP[1])
        hi0, lo0 = _mulhilo(_PHILOX_MULT[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_MULT[1], ctr[2])
        ctr = (hi1 ^ ctr[1] ^ key0, lo1, hi0 ^ ctr[3] ^ key1, lo0)
    return np.stack(ctr, axis=2)


def _bounded(words: np.ndarray, cursor: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Per row, NumPy's bounded draw on [0, high] from the uint32 ``words[r, cursor[r]:]``; advances ``cursor``.

    Lemire's method (TOMACS 2019): a draw takes the next word w and forms
    w * (high + 1), rejecting w and reading on while the low 32 bits of that
    product fall below 2**32 mod (high + 1); it returns the high 32 bits.
    high = 0 takes no word.  A row that needs a word past its last reads the
    last again, and its cursor passes the width of ``words``.
    """
    last = words.shape[1] - 1
    low = np.uint64(_MASK32)
    span = (high + 1).astype(np.uint64)
    threshold = (np.uint64(1 << 32) - span) % span
    product = words[np.arange(words.shape[0]), np.minimum(cursor, last)] * span
    redo = np.flatnonzero((product & low) < threshold)
    while redo.size:
        cursor[redo] += 1
        redo = redo[cursor[redo] <= last]
        product[redo] = words[redo, cursor[redo]] * span[redo]
        redo = redo[(product[redo] & low) < threshold[redo]]
    cursor += high > 0
    return (product >> np.uint64(32)).astype(np.int64)


def _floyd_choice(keys: np.ndarray, pops: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``choice(pop, size, replace=False)`` of every row by Floyd's algorithm, and the rows that outran their words.

    For j = pop - size .. pop - 1 a step draws v on [0, j] and keeps v, or j
    when v is already kept.  The test compares v with the row's kept prefix
    ``sample[r, :step]``: NumPy asks a hash set instead, but whether v is a
    member does not depend on how a set lays out its values, so the kept
    values are the same.  ``choice`` then shuffles the kept values in place
    (Fisher-Yates, swapping position i with a draw on [0, i] for i = size - 1
    .. 1).  The draws read the stream's uint32 words in order, the low half
    of each uint64 first.
    """
    n_rows, n_blocks = keys.shape[0], size // 4 + 2  # at least 2 * size + 10 words
    raw = philox_blocks(keys, n_blocks).reshape(n_rows, 4 * n_blocks)
    words = np.empty((n_rows, 8 * n_blocks), dtype=np.uint64)
    words[:, 0::2], words[:, 1::2] = raw & np.uint64(_MASK32), raw >> np.uint64(32)
    rows, cursor = np.arange(n_rows), np.zeros(n_rows, dtype=np.int64)
    sample = np.empty((n_rows, size), dtype=np.int64)
    for step in range(size):
        j = pops - size + step
        value = _bounded(words, cursor, j)
        kept = (sample[:, :step] == value[:, None]).any(axis=1)
        value[kept] = j[kept]  # j exceeds every kept value, so it is free
        sample[:, step] = value
    for i in range(size - 1, 0, -1):
        swap = _bounded(words, cursor, np.full(n_rows, i))
        sample[rows, i], sample[rows, swap] = sample[rows, swap], sample[:, i].copy()
    return sample, cursor > words.shape[1]


def sample_sets(keys: np.ndarray, pops, size: int) -> np.ndarray:
    """``open_stream(keys[r]).choice(pops[r], size, replace=False)`` of every row; shape (rows, size).

    Rows run Floyd's algorithm and the final shuffle at once on
    ``philox_blocks`` words, so each row holds its ``size`` distinct integers
    of [0, pop) in the order ``choice`` returns them.  A row that cannot be
    reproduced so is drawn by ``choice`` itself: one whose Lemire rejections
    outrun the precomputed words, one with pop > 2**32 (whose draws take
    uint64 words), and one on choice's tail-shuffle branch (pop > 10000 and
    size > pop // 50).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    pops = np.broadcast_to(np.asarray(pops, dtype=np.int64), keys.shape[:1])
    if size < 0 or (pops < size).any():
        raise ContractViolation(f"cannot draw {size} distinct values from a population smaller than that")
    bulk = (pops <= 1 << 32) & ((pops <= _TAIL_SHUFFLE_POP) | (size <= pops // _TAIL_SHUFFLE_DIVISOR))
    sample = np.empty((keys.shape[0], size), dtype=np.int64)
    sample[bulk], spent = _floyd_choice(keys[bulk], pops[bulk], size)
    bulk[np.flatnonzero(bulk)[spent]] = False
    for row in np.flatnonzero(~bulk).tolist():
        sample[row] = open_stream(keys[row]).choice(int(pops[row]), size, replace=False)
    return sample
