"""Property tests: a malformed TSB1, JSON or JSONL input never crashes the CLI.

Each example gives one input of a command a defect and keeps the other inputs
valid.  TSB1 defects: a zero-length dimension, the wrong rank, a truncated or
over-long payload, a garbled header byte or a non-finite value.  JSON defects:
a value of the wrong type, a missing key, a non-finite number, a bool where a
number belongs, a byte order mark, an empty file or trailing garbage.  The
command must exit with a documented error code and print exactly one stderr
line.  An extra key is no defect: every command must accept it.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

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


def _tsb1_bytes(arr) -> bytes:
    """A TSB1 file built by hand, so a rank the writer refuses (0-d) can still reach the reader."""
    header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": list(arr.shape)}
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + arr.astype("<f4").tobytes()


def _valid_file(shape, seed: int = 0) -> bytes:
    return _tsb1_bytes(np.random.default_rng(seed).normal(size=shape))


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
    return _tsb1_bytes(arr)


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


# ---------------------------------------------------------------------------
# JSON and JSONL inputs
# ---------------------------------------------------------------------------


class Doc(NamedTuple):
    """A valid input document and what its shape declares."""

    value: object  # for JSONL, the list of rows
    jsonl: bool
    required: frozenset = frozenset()  # keys an object of this document must hold
    open_under: tuple = ()  # a path below which the shape accepts anything


SCHEMA_KEYS = frozenset({"attributes", "name", "values"})
CONDITION_KEYS = frozenset({"sample_id", "text", "attrs", "label"})
REPORT_KEYS = frozenset({"context", "entries", "dataset_id", "model_id", "seed", "metric", "value", "direction"})

SCHEMA = Doc(
    {"attributes": [
        {"name": "a", "definition": "first", "values": ["x", "y", "other"]},
        {"name": "b", "definition": "second", "values": ["p", "q"]},
    ]},
    False, SCHEMA_KEYS,
)
# the label is a function of the attribute vector (i % 3, i % 2), so validate passes
TRAIN = Doc(
    [{"sample_id": f"s-{i}", "text": f"caption {i % 6}", "attrs": {"a": i % 3, "b": i % 2}, "label": i % 6}
     for i in range(8)],
    True, CONDITION_KEYS,
)
TEST = Doc(TRAIN.value[:6], True, CONDITION_KEYS)
RULES_SCHEMA = {"attributes": [{"name": "trend", "definition": "", "values": ["up", "down", "other"]}]}
RULES = Doc(
    {"schema": RULES_SCHEMA, "keywords": {"trend": {"up": ["upward"], "down": ["downward", "falling"]}}},
    False, frozenset({"schema"}), ("schema",),
)


def _report(model: str, dataset: str, value: float) -> Doc:
    doc = {
        "context": {"dataset_id": dataset, "model_id": model, "seed": 0},
        "entries": [{"direction": "higher_better", "metric": "score", "value": value}],
    }
    return Doc(doc, False, REPORT_KEYS)


# command -> (argv template, {slot: valid JSON or JSONL document}); {o} is the
# output directory, {captions} and {series} are fixed non-JSON inputs
JSON_COMMANDS = {
    "protocol-rank": (
        "protocol rank --report {r0} --report {r1} --report {r2} --report {r3} --grouping {grouping} --out {o}/r.json",
        {"r0": _report("alpha", "d1", 0.75), "r1": _report("alpha", "d2", 0.5),
         "r2": _report("beta", "d1", 0.25), "r3": _report("beta", "d2", 0.125),
         "grouping": Doc({"score": "fidelity"}, False)},
    ),
    "protocol-compgen": (
        "protocol compgen --schema {schema} --train-conditions {train} --test-conditions {test} --k 2 --out {o}/c.json",
        {"schema": SCHEMA, "train": TRAIN, "test": TEST},
    ),
    "schema-label": (
        "schema label --attrs {attrs} --schema {schema} --combo-table {combos} --out {o}/l.jsonl",
        {"attrs": Doc([{"attrs": {"trend": i % 3}} for i in range(6)], True, frozenset({"attrs"})),
         "schema": Doc(RULES_SCHEMA, False, SCHEMA_KEYS),
         "combos": Doc({"combos": [[0], [1], [2]]}, False, frozenset({"combos"}))},
    ),
    "schema-discover": (
        "schema discover --captions {captions} --proposer mock:{rules} --batch 3 --stable 1 --max-iter 3 --out {o}/d",
        {"rules": RULES},
    ),
    "schema-assign": (
        "schema assign --captions {captions} --schema {schema} --proposer mock:{rules} --out {o}/a.jsonl",
        {"rules": RULES, "schema": Doc(RULES_SCHEMA, False, SCHEMA_KEYS)},
    ),
    "validate": (
        "validate --series {series} --conditions {conditions} --schema {schema}",
        {"conditions": TRAIN, "schema": SCHEMA},
    ),
}
CAPTIONS = "".join(f"caption {i} with a {('upward', 'falling', 'flat')[i % 3]} move\n" for i in range(6))

# values of another JSON kind than the one a valid document holds at a position
WRONG_KIND = {
    int: ["x", "7", 2.5, None, [], {}],
    float: ["0.5", None, [1.5], {}],
    str: [0, 1.5, True, None, [], {}],
    list: [0, "x", None, {}],
    dict: [0, "x", None, []],
}
# non-finite numbers and bools, for where a number belongs, as raw JSON tokens
NUMBER_DEFECTS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "false"]


def _positions(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _positions(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _raw(token: str) -> str:
    return f"@raw:{token}@"


def _render(doc: Doc, value) -> str:
    text = "".join(json.dumps(row) + "\n" for row in value) if doc.jsonl else json.dumps(value)
    for token in NUMBER_DEFECTS:
        text = text.replace(json.dumps(_raw(token)), token)
    return text


def _mutations(doc: Doc) -> list[tuple[str, tuple]]:
    """Every (mutation, path) this document admits; a path of () is the whole document."""
    found = [("bom", ()), ("empty", ()), ("garbage", ())]
    for path, value in _positions(doc.value):
        if doc.jsonl and not path:
            continue  # the list of rows is no JSON value
        if doc.open_under and path[: len(doc.open_under)] == doc.open_under and path != doc.open_under:
            continue
        found.append(("wrong_type", path))
        if type(value) in (int, float):
            found.append(("number", path))
        if path and isinstance(path[-1], str) and path[-1] in doc.required:
            found.append(("missing_key", path))
        if isinstance(value, dict) and doc.required & set(value):
            found.append(("extra_key", path))
    return found


def _mutate(draw, doc: Doc, mutation: str, path: tuple) -> str:
    if mutation == "bom":
        return "\ufeff" + _render(doc, doc.value)
    if mutation == "empty":
        return ""
    if mutation == "garbage":
        return _render(doc, doc.value) + draw(st.sampled_from(["x", "}", "[", "{}", "null", "1 2"]))
    value = copy.deepcopy(doc.value)
    if mutation == "extra_key":
        _at(value, path)["zz_extra"] = [1, {"nested": None}]
    elif mutation == "missing_key":
        del _at(value, path[:-1])[path[-1]]
    else:
        if mutation == "number":
            new = _raw(draw(st.sampled_from(NUMBER_DEFECTS)))
        else:
            new = draw(st.sampled_from(WRONG_KIND[type(_at(doc.value, path))]))
        if path:
            _at(value, path[:-1])[path[-1]] = new
        else:
            value = new
    return _render(doc, value)


def _json_argv(command: str, texts: dict[str, str], tmp: Path) -> list[str]:
    template, docs = JSON_COMMANDS[command]
    paths = {"o": tmp, "captions": tmp / "captions.txt", "series": tmp / "series.tsb"}
    paths["captions"].write_text(CAPTIONS)
    paths["series"].write_bytes(_valid_file((len(TRAIN.value), 6, 1)))
    for slot, doc in docs.items():
        paths[slot] = tmp / (f"{slot}.jsonl" if doc.jsonl else f"{slot}.json")
        paths[slot].write_text(texts.get(slot, _render(doc, doc.value)), encoding="utf-8")
    return [token.format(**paths) for token in template.split()]


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_valid_json_inputs_succeed(command, tmp_path):
    # the fuzz below relies on its valid inputs passing on their own
    code, out, err = _run(_json_argv(command, {}, tmp_path))
    assert code == 0, err
    if command == "validate":
        assert out.strip() == "validation: pass"


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_one_malformed_json_input_exits_with_one_line(data):
    command = data.draw(st.sampled_from(sorted(JSON_COMMANDS)))
    docs = JSON_COMMANDS[command][1]
    slot = data.draw(st.sampled_from(sorted(docs)))
    found = _mutations(docs[slot])
    mutation = data.draw(st.sampled_from(sorted({m for m, _ in found})))
    path = data.draw(st.sampled_from([p for m, p in found if m == mutation]))
    text = _mutate(data.draw, docs[slot], mutation, path)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run(_json_argv(command, {slot: text}, Path(tmp)))
    assert "Traceback" not in err
    if mutation == "extra_key":  # unknown keys pass
        assert code == 0, err
    elif mutation == "empty" and docs[slot].jsonl and code == 0:
        # zero rows is a well-formed JSONL file: label applies a table to no rows,
        # and validate reports the count mismatch as data
        assert command in ("schema-label", "validate"), command
        assert command != "validate" or out.startswith("validation: 1 violation(s)"), out
    else:
        assert code in (2, 3, 4), (code, err)
        assert out == ""
        assert len(err.splitlines()) == 1, err


# ---------------------------------------------------------------------------
# What validate passes, later stages accept
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_validated_triple_does_not_crash_compgen_or_stat(data):
    sizes = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    schema = {"attributes": [
        {"name": f"a{j}", "definition": "", "values": [f"v{v}" for v in range(size)]}
        for j, size in enumerate(sizes)
    ]}
    n = data.draw(st.integers(1, 8))
    vectors = [tuple(data.draw(st.integers(0, size - 1)) for size in sizes) for _ in range(n)]
    labels = {v: i for i, v in enumerate(sorted(set(vectors)))}
    rows = [
        {"sample_id": f"s-{i}", "text": f"caption {v}", "attrs": {f"a{j}": x for j, x in enumerate(v)},
         "label": labels[v]}
        for i, v in enumerate(vectors)
    ]
    # at most one defect that validate must report
    defect = data.draw(st.sampled_from([None, None, "out-of-range", "missing", "unknown", "label", "count"]))
    row = rows[data.draw(st.integers(0, n - 1))]
    if defect == "out-of-range":
        row["attrs"]["a0"] = data.draw(st.sampled_from([-1, sizes[0]]))
    elif defect == "missing":
        del row["attrs"]["a0"]
    elif defect == "unknown":
        row["attrs"]["zz"] = 0
    elif defect == "label":
        rows.append({**row, "sample_id": "dup", "label": row["label"] + 1})
    n_series = len(rows) + (1 if defect == "count" else 0)
    length = data.draw(st.integers(1, 8))
    features = data.draw(st.integers(1, 2))
    style = data.draw(st.sampled_from(["normal", "constant", "steps"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    series = {
        "normal": lambda shape: rng.normal(size=shape),
        "constant": lambda shape: np.full(shape, 1.5),
        "steps": lambda shape: rng.integers(-2, 3, size=shape).astype(float),
    }[style]((n_series, length, features))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        tensorfile.write_tensor(series, d / "series.tsb")
        tensorfile.dump_jsonl(rows, d / "conditions.jsonl")
        tensorfile.dump_json(schema, d / "schema.json")
        code, out, err = _run(
            f"validate --series {d}/series.tsb --conditions {d}/conditions.jsonl --schema {d}/schema.json".split()
        )
        assert code == 0, err
        assert (out.strip() == "validation: pass") == (defect is None), out
        if defect is not None:
            return
        k = data.draw(st.integers(1, len(rows)))
        for argv in (
            f"protocol compgen --schema {d}/schema.json --train-conditions {d}/conditions.jsonl "
            f"--test-conditions {d}/conditions.jsonl --k {k} --out {d}/c.json",
            f"metrics stat --train {d}/series.tsb --real {d}/series.tsb --gen {d}/series.tsb "
            f"--bins 4 --out {d}/s.json",
        ):
            code, out, err = _run(argv.split())
            assert "Traceback" not in err
            # validate passed, so an input error (exit 2) here would be a gap in validate
            assert code in (0, 3), (argv, code, err)
            if code:
                assert out == "" and len(err.splitlines()) == 1, err
