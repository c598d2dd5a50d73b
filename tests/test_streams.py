import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seriesbench
from seriesbench.core import ContractViolation
from seriesbench.streams import open_stream, seeded_rows, stream_keys


def _seed_sequence_keys(rows) -> np.ndarray:
    return np.array(
        [np.random.SeedSequence(tuple(int(v) for v in row)).generate_state(2, np.uint64) for row in rows],
        dtype=np.uint64,
    ).reshape(len(rows), 2)


def _seeded_generator(row) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(row))))


def test_keys_match_seed_sequence_on_random_rows():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2**32, size=(5000, 3))
    rows[:40] = 0  # all-zero rows
    rows[40:80, 0] = 2**32 - 1
    rows[80:120] = rng.integers(0, 300, size=(40, 3))  # the small words real keys use
    keys = stream_keys(rows)
    assert keys.dtype == np.uint64 and keys.shape == (5000, 2)
    assert np.array_equal(keys, _seed_sequence_keys(rows))


@pytest.mark.parametrize("width", [0, 1, 2, 4, 5, 9])
def test_keys_match_seed_sequence_for_every_row_width(width):
    rows = np.random.default_rng(width).integers(0, 2**32, size=(257, width), dtype=np.uint64)
    assert np.array_equal(stream_keys(rows), _seed_sequence_keys(rows))


def test_wide_words_go_through_seed_sequence():
    rows = [
        (2**32 - 1, 0, 1),
        (2**32, 0, 1),
        (2**64, 3, 4),
        (2**63, 1, 2),
        (0, 2**40, 7),
        (5, 6, 7),
        (2**32,),
        (0, 0),
    ]
    for row in rows:
        want = np.random.SeedSequence(row).generate_state(2, np.uint64)
        assert np.array_equal(stream_keys([row])[0], want), row
    same_width = [row for row in rows if len(row) == 3]
    assert np.array_equal(stream_keys(same_width), _seed_sequence_keys(same_width))


def test_no_rows_no_keys():
    keys = stream_keys(np.zeros((0, 3), dtype=np.int64))
    assert keys.shape == (0, 2) and keys.dtype == np.uint64


@pytest.mark.parametrize("rows", [[(-1, 0, 4)], np.array([[3, 0, 1], [2, -5, 0]]), [(-(2**70), 1)]])
def test_negative_words_are_contract_violations(rows):
    with pytest.raises(ContractViolation, match="must be non-negative"):
        stream_keys(rows)


@pytest.mark.parametrize("rows", [[(1.5, 0)], np.zeros((2, 3)), np.zeros(3, dtype=np.int64)])
def test_non_integer_or_flat_entropy_is_rejected(rows):
    with pytest.raises(ContractViolation):
        stream_keys(rows)


def test_seeded_rows_broadcast_in_c_order():
    rows = seeded_rows(9, np.arange(3)[:, None], np.arange(2))
    assert rows.dtype == np.int64
    assert rows.tolist() == [[9, 0, 0], [9, 0, 1], [9, 1, 0], [9, 1, 1], [9, 2, 0], [9, 2, 1]]
    assert seeded_rows(4, 0).tolist() == [[4, 0]]
    big = seeded_rows(2**64, np.arange(2), 5)
    assert big.dtype == object and big.tolist() == [[2**64, 0, 5], [2**64, 1, 5]]
    assert np.array_equal(stream_keys(big), _seed_sequence_keys(big.tolist()))


@pytest.mark.parametrize("row", [(0, 0, 0), (3, 5, 7), (2**32 - 1, 1, 2), (2**32, 0, 0), (2**64, 2, 3), (9, 0)])
def test_opened_stream_draws_like_the_seeded_generator(row):
    got, want = open_stream(stream_keys([row])[0]), _seeded_generator(row)
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert got.standard_normal(300).tobytes() == want.standard_normal(300).tobytes()
    assert np.array_equal(got.integers(0, 1000, size=50), want.integers(0, 1000, size=50))
    assert np.array_equal(got.choice(4000, size=9, replace=False), want.choice(4000, size=9, replace=False))
    assert np.array_equal(got.permutation(250), want.permutation(250))


def test_opened_streams_are_independent():
    key = stream_keys([(1, 2, 3)])[0]
    a, b = open_stream(key), open_stream(key)
    first = a.random(10)
    assert np.array_equal(b.random(10), first)  # b starts fresh though a has moved on
    assert not np.array_equal(a.random(10), first)
    assert a.bit_generator is not b.bit_generator


def test_key_seed_serves_only_a_philox_key():
    seq = open_stream(stream_keys([(1, 2)])[0]).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint32)


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, seriesbench.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seriesbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
