"""Property test: a malformed TSB1 input never crashes the CLI.

Each example gives one input of a command a defect (a zero-length dimension,
the wrong rank, a truncated or over-long payload, a garbled header byte or a
non-finite value) and keeps the other inputs valid.  The command must exit
with a documented error code and print exactly one stderr line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seriesbench import tensorfile
from seriesbench.cli import main

# command -> (argv template, {slot: shape of a valid input})
COMMANDS = {
    "metrics-stat": (
        "metrics stat --train {train} --real {real} --gen {gen} --bins 4 --out {o}/r.json",
        {"train": (8, 6, 2), "real": (8, 6, 2), "gen": (8, 6, 2)},
    ),
    "metrics-embed": (
        "metrics embed --real-emb {real} --gen-emb {gen} --cond-emb {cond} --k 2 --out {o}/r.json",
        {"real": (8, 4), "gen": (8, 4), "cond": (8, 4)},
    ),
    "metrics-align": (
        "metrics align --refs {refs} --gen-bundle {bundle} --k-per-sample 2 --out {o}/r.json",
        {"refs": (4, 6, 2), "bundle": (8, 6, 2)},
    ),
    "protocol-retrieval": (
        "protocol retrieval --gen-emb {gen} --text-emb {text} --pool-size 2 --out {o}/r.json",
        {"gen": (8, 4), "text": (8, 4)},
    ),
    "protocol-temporal": (
        "protocol temporal --segment-emb {seg} --text-emb {text} --out {o}/r.json",
        {"seg": (8, 3, 4), "text": (8, 3, 4)},
    ),
}


def _valid_file(shape, seed: int = 0) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.tsb"
        tensorfile.write_tensor(np.random.default_rng(seed).normal(size=shape), path)
        return path.read_bytes()


def _zero_dim(draw, shape):
    dims = draw(st.lists(st.integers(0, 5), min_size=len(shape), max_size=len(shape)))
    dims[draw(st.integers(0, len(shape) - 1))] = 0
    return _valid_file(tuple(dims))


def _wrong_rank(draw, shape):
    rank = draw(st.sampled_from([r for r in range(5) if r != len(shape)]))
    dims = draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank))
    return _valid_file(tuple(dims))


def _truncated(draw, shape):
    raw = _valid_file(shape)
    return raw[: len(raw) - draw(st.integers(1, len(raw)))]


def _over_long(draw, shape):
    return _valid_file(shape) + draw(st.binary(min_size=1, max_size=16))


def _garbled_header(draw, shape):
    raw = bytearray(_valid_file(shape))
    pos = draw(st.integers(0, raw.index(b"\n") - 1))
    raw[pos] = draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    return bytes(raw)


def _non_finite(draw, shape):
    arr = np.random.default_rng(1).normal(size=shape).astype("<f4")
    arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": list(shape)}
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + arr.tobytes()


DEFECTS = [_zero_dim, _wrong_rank, _truncated, _over_long, _garbled_header, _non_finite]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(command: str, files: dict[str, bytes], tmp: Path) -> list[str]:
    template = COMMANDS[command][0]
    paths = {}
    for slot, raw in files.items():
        paths[slot] = tmp / f"{slot}.tsb"
        paths[slot].write_bytes(raw)
    return [token.format(o=tmp, **paths) for token in template.split()]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_inputs_succeed(command, tmp_path):
    # the fuzz below relies on its valid inputs passing on their own
    shapes = COMMANDS[command][1]
    files = {slot: _valid_file(shape, seed) for seed, (slot, shape) in enumerate(shapes.items())}
    code, _, err = _run(_argv(command, files, tmp_path))
    assert code == 0, err


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_one_defective_input_exits_with_one_line(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    shapes = COMMANDS[command][1]
    target = data.draw(st.sampled_from(sorted(shapes)))
    defect = data.draw(st.sampled_from(DEFECTS))
    files = {slot: _valid_file(shape, seed) for seed, (slot, shape) in enumerate(shapes.items())}
    files[target] = defect(data.draw, shapes[target])
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run(_argv(command, files, Path(tmp)))
    assert code in (2, 3, 4), (code, err)
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
