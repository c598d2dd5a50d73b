import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seriesbench
from seriesbench.core import ContractViolation
from seriesbench.streams import open_stream, stream_keys


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


def test_opened_streams_are_independent():
    key = stream_keys(1, 2, 3)[0]
    a, b = open_stream(key), open_stream(key)
    first = a.random(10)
    assert np.array_equal(b.random(10), first)  # b starts fresh though a has moved on
    assert not np.array_equal(a.random(10), first)
    assert a.bit_generator is not b.bit_generator


def test_key_seed_serves_only_a_philox_key():
    seq = open_stream(stream_keys(1, 2)[0]).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint32)


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, seriesbench.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seriesbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
