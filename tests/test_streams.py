import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seriesbench
from seriesbench import streams
from seriesbench.core import ContractViolation
from seriesbench.streams import open_stream, philox_blocks, reseat_stream, sample_sets, stream_keys


def _seed_sequence_keys(rows) -> np.ndarray:
    return np.array(
        [np.random.SeedSequence(tuple(int(v) for v in row)).generate_state(2, np.uint64) for row in rows],
        dtype=np.uint64,
    ).reshape(len(rows), 2)


def _seeded_generator(row) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(row))))


def _rows(seed, *columns) -> list[tuple[int, ...]]:
    """The entropy rows ``(seed, c1, c2, ...)`` of the broadcast columns, in C order."""
    cols = [c.ravel().tolist() for c in np.broadcast_arrays(*(np.asarray(c) for c in columns))]
    return [(seed, *row) for row in zip(*cols)] if cols else [(seed,)]


def test_keys_match_seed_sequence_on_random_rows():
    rng = np.random.default_rng(0)
    cols = rng.integers(0, 2**32, size=(2, 5000))
    cols[:, :40] = 0  # all-zero rows
    cols[0, 40:80] = 2**32 - 1
    cols[:, 80:120] = rng.integers(0, 300, size=(2, 40))  # the small words real keys use
    for seed in (0, 7, 2**32 - 1, 2**40 + 3):
        keys = stream_keys(seed, *cols)
        assert keys.dtype == np.uint64 and keys.shape == (5000, 2)
        assert np.array_equal(keys, _seed_sequence_keys(_rows(seed, *cols)))


@pytest.mark.parametrize("width", [0, 1, 2, 4, 5, 9])
def test_keys_match_seed_sequence_for_every_row_width(width):
    # width index columns after the seed: rows of 1 + width words, or 4 + width beside a 3-word seed
    cols = np.random.default_rng(width).integers(0, 2**32, size=(width, 257), dtype=np.uint64)
    for seed in (11, 2**64 + 11):
        assert np.array_equal(stream_keys(seed, *cols), _seed_sequence_keys(_rows(seed, *cols)))


_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1]  # 1, 1, 2, 3 and 5 uint32 words
_COLUMNS = [
    (),
    (np.arange(4),),
    (np.arange(3)[:, None], np.arange(2)),  # broadcast (3, 1) x (2,), read in C order
    (np.arange(2)[:, None], np.array([0, 2**32 - 1, 9]), 5),
]


@pytest.mark.parametrize("columns", _COLUMNS, ids=["0cols", "1col", "2cols", "3cols"])
@pytest.mark.parametrize("seed", _SEEDS)
def test_keys_match_seed_sequence_for_every_seed_size(seed, columns):
    rows = _rows(seed, *columns)
    keys = stream_keys(seed, *columns)
    assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
    assert np.array_equal(keys, _seed_sequence_keys(rows))


def test_columns_broadcast_in_c_order():
    keys = stream_keys(9, np.arange(3)[:, None], np.arange(2))
    for r, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]):
        assert np.array_equal(keys[r], stream_keys(9, i, j)[0])
    assert stream_keys(4, 0).shape == (1, 2)


def test_no_rows_no_keys():
    keys = stream_keys(3, np.zeros(0, dtype=np.int64), 1)
    assert keys.shape == (0, 2) and keys.dtype == np.uint64


@pytest.mark.parametrize("rows", [(-1, 0, 4), (3, np.array([0, -5])), (-(2**70), 1)])
def test_negative_words_are_contract_violations(rows):
    with pytest.raises(ContractViolation, match="must be non-negative"):
        stream_keys(*rows)


@pytest.mark.parametrize(
    "rows", [(2, np.array([3, 2**32])), (0, 2**40, 7), (2**64, np.arange(2, dtype=np.uint64) + 2**63)]
)
def test_indices_of_2_to_the_32_or_more_are_contract_violations(rows):
    with pytest.raises(ContractViolation, match="below 2\\*\\*32"):
        stream_keys(*rows)


# a float seed, a float index column, and a flat entropy array passed where one seed belongs
@pytest.mark.parametrize("rows", [(1.5, 0), (3, np.zeros(3)), (np.zeros(3, dtype=np.int64),)])
def test_non_integer_or_flat_entropy_is_rejected(rows):
    with pytest.raises(ContractViolation):
        stream_keys(*rows)


@pytest.mark.parametrize("row", [(0, 0, 0), (3, 5, 7), (2**32 - 1, 1, 2), (2**32, 0, 0), (2**64, 2, 3), (9, 0)])
def test_opened_stream_draws_like_the_seeded_generator(row):
    got, want = open_stream(stream_keys(*row)[0]), _seeded_generator(row)
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert got.standard_normal(300).tobytes() == want.standard_normal(300).tobytes()
    assert np.array_equal(got.integers(0, 1000, size=50), want.integers(0, 1000, size=50))
    assert np.array_equal(got.choice(4000, size=9, replace=False), want.choice(4000, size=9, replace=False))
    assert np.array_equal(got.permutation(250), want.permutation(250))


@pytest.mark.parametrize("row", [(7,), (3, 5), (2**40, 1)])  # entropy rows of one, two and three words
def test_opened_stream_state_is_the_seeded_generators(row):
    got, want = open_stream(stream_keys(*row)[0]).bit_generator.state, _seeded_generator(row).bit_generator.state
    assert repr(got) == repr(want)  # the arrays (counter, key, buffer) print in full, with their dtype


def test_opened_streams_are_independent():
    key = stream_keys(1, 2, 3)[0]
    a, b = open_stream(key), open_stream(key)
    first = a.random(10)
    assert np.array_equal(b.random(10), first)  # b starts fresh though a has moved on
    assert not np.array_equal(a.random(10), first)
    assert a.bit_generator is not b.bit_generator


# random(3) leaves the Philox inside an output block; integers(0, 10) leaves it holding a uint32 half
@pytest.mark.parametrize("leave", [lambda g: g.random(3), lambda g: g.integers(0, 10)], ids=["mid_block", "half"])
def test_a_reseated_stream_has_the_opened_streams_state(leave):
    rng = open_stream(stream_keys(5, 0)[0])
    # keys at the ends of the word range, where a conversion to uint64 would show
    for key in [*stream_keys(5, np.arange(1, 4)).tolist(), [0, 0], [2**64 - 1, 2**64 - 1], [2**64 - 1, 0]]:
        leave(rng)
        left = rng.bit_generator.state
        assert left["buffer_pos"] < 4 or left["has_uint32"]
        assert reseat_stream(rng, key) is rng
        assert repr(rng.bit_generator.state) == repr(open_stream(np.array(key, dtype=np.uint64)).bit_generator.state)


# ---------------------------------------------------------------------------
# bulk draws: philox_blocks and sample_sets against NumPy's own generator
# ---------------------------------------------------------------------------


def test_philox_blocks_match_random_raw():
    keys = stream_keys(11, np.arange(5000))
    # keys at the ends of the word range, where the key schedule's adds wrap
    keys[:3] = [[0, 0], [2**64 - 1, 2**64 - 1], [2**64 - 1, 0]]
    blocks = philox_blocks(keys, 3)
    assert blocks.dtype == np.uint64 and blocks.shape == (5000, 3, 4)
    for key, row in zip(keys, blocks):
        assert np.array_equal(row.ravel(), open_stream(key).bit_generator.random_raw(12))


@pytest.fixture
def fallback_rows(monkeypatch):
    """The keys that sample_sets hands to Generator.choice, in call order."""
    opened = []

    def counting(key):
        opened.append(tuple(key.tolist()))
        return open_stream(key)

    monkeypatch.setattr(streams, "open_stream", counting)
    return opened


def _choices(keys, pop, size):
    return np.array([open_stream(k).choice(pop, size, replace=False) for k in keys]).reshape(len(keys), size)


# (pop, size) across choice's branch boundary: it shuffles a tail of
# arange(pop) when pop > 10000 and size > pop // 50, else runs Floyd's algorithm
_BRANCH_GRID = [(10000, 200), (10000, 201), (10001, 200), (10001, 201)]


@pytest.mark.parametrize("pop, size", _BRANCH_GRID)
def test_sample_sets_match_choice_across_the_tail_shuffle_boundary(pop, size, fallback_rows):
    keys = stream_keys(5, np.arange(300), 1)
    got = sample_sets(keys, pop, size)
    want = _choices(keys, pop, size)
    assert np.array_equal(got, want)  # in choice's order, so also as sets
    assert {frozenset(row) for row in got.tolist()} == {frozenset(row) for row in want.tolist()}
    tail_shuffled = pop > 10000 and size > pop // 50
    assert len(fallback_rows) == (len(keys) if tail_shuffled else 0)


@pytest.mark.parametrize(
    "pop, size",
    [
        (1, 1), (5, 5), (7, 1), (100, 0), (50, 40), (1000, 1000), (3999, 9), (12000, 49), (12000, 240),
        (2**32, 3), (2**32 + 1, 3),
    ],
)
def test_sample_sets_match_choice(pop, size, fallback_rows):
    keys = stream_keys(2**40 + 1, np.arange(400), 3)
    assert np.array_equal(sample_sets(keys, pop, size), _choices(keys, pop, size))
    # draws on [0, j] for j >= 2**32 take uint64 words, which only choice reproduces
    assert len(fallback_rows) == (len(keys) if pop > 2**32 else 0)


def test_sample_sets_match_choice_drawing_the_largest_floyd_population_whole(fallback_rows):
    # pop 10000 is the largest on choice's Floyd branch at size 10000: almost every late step collides
    keys = stream_keys(11, np.arange(8))
    assert np.array_equal(sample_sets(keys, 10000, 10000), _choices(keys, 10000, 10000))
    assert fallback_rows == []


def test_sample_sets_take_a_population_per_row():
    keys = stream_keys(8, np.arange(3000))
    pops = np.random.default_rng(0).integers(9, 20000, size=3000)
    got = sample_sets(keys, pops, 9)
    for key, pop, row in zip(keys, pops.tolist(), got):
        assert np.array_equal(row, open_stream(key).choice(pop, 9, replace=False))


def _scalar_choice(key, pop, size):
    """Floyd's branch of choice(pop, size, replace=False), one bounded uint32 draw at a time; also the words read."""
    raw = open_stream(key).bit_generator.random_raw(256).tolist()
    words = [half for w in raw for half in (w & 0xFFFF_FFFF, w >> 32)]
    read = 0

    def bounded(high):
        nonlocal read
        if high == 0:
            return 0
        span = high + 1
        while True:
            product = words[read] * span
            read += 1
            if product & 0xFFFF_FFFF >= (2**32 - span) % span:
                return product >> 32

    sample = []
    for j in range(pop - size, pop):
        value = bounded(j)
        sample.append(j if value in sample else value)
    for i in range(size - 1, 0, -1):
        swap = bounded(i)
        sample[i], sample[swap] = sample[swap], sample[i]
    return sample, read


@pytest.mark.parametrize("pop", [3_000_000_000, 2**31 + 9])
def test_sample_sets_reproduce_rows_with_lemire_rejections(pop, fallback_rows):
    # near 2**31 about half of all words are rejected, near 3e9 about 30 %
    size = 9
    keys = stream_keys(13, np.arange(2000))
    got = sample_sets(keys, pop, size)
    rejecting = set()
    for key, row in zip(keys, got.tolist()):
        sample, read = _scalar_choice(key, pop, size)
        assert sample == open_stream(key).choice(pop, size, replace=False).tolist()
        assert row == sample
        if read > 2 * size - 1:
            rejecting.add(tuple(key.tolist()))
    spilled = set(fallback_rows)
    assert len(rejecting) > len(keys) // 2
    # choice redraws only rows whose rejections outran the precomputed words;
    # the others were reproduced with their rejections in bulk
    assert spilled <= rejecting and len(spilled) < len(rejecting) // 4
    if pop == 2**31 + 9:
        assert spilled  # the word budget runs out for some rows


def test_sample_sets_reject_a_population_smaller_than_the_sample():
    keys = stream_keys(1, np.arange(3))
    with pytest.raises(ContractViolation, match="cannot draw 5 distinct values"):
        sample_sets(keys, np.array([9, 4, 9]), 5)
    assert sample_sets(keys[:0], 3, 2).shape == (0, 2)


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, seriesbench.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seriesbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
