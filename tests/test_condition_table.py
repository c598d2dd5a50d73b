"""The columnar conditions table against the per-record code it replaced.

Each oracle below is the per-record code of the library before conditions
became one ``ConditionTable``: the writer encoded one dict per record, the
reader parsed and checked each line with ``json.loads`` and the shape
explainer, and ``validate_dataset`` walked every record's attrs.  The table
must give the same bytes, the same records or error text, and the same
violations.

A table holds int64 values and a mask of the attributes each record holds,
so ``ConditionRecord`` refuses what it cannot hold (an id, text or name that
is no string, a value or label that is no integer in int64's range), and the
reader refuses a line holding an integer beyond int64.  The oracles take
those rules, and walk a record's attrs in the table's column order: the
order in which the records first name them.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seriesbench import core, synthgen, tensorfile
from seriesbench.core import (
    Attribute,
    AttributeSchema,
    ConditionRecord,
    ConditionTable,
    ContractViolation,
    InputFormatError,
    TimeSeriesTensor,
    as_condition_table,
    validate_dataset,
)

# ---------------------------------------------------------------------------
# Oracles: the per-record code, as it was
# ---------------------------------------------------------------------------


def old_write_conditions(records, path):
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(encode({"sample_id": rec.sample_id, "text": rec.text, "attrs": dict(rec.attrs), "label": rec.label}))
            fh.write("\n")


def old_read_conditions(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                d = tensorfile._load(line, tensorfile._CONDITION_SHAPE, path, lineno)
                try:
                    records.append(ConditionRecord(d["sample_id"], d["text"], d["attrs"], d["label"]))
                except ContractViolation as exc:  # an integer beyond int64
                    raise InputFormatError(f"{path}:{lineno}: {exc}") from None
    return records


def old_check(value, shape):
    """None if ``value`` has ``shape``, else (shape, value, *JSON path keys, innermost first)."""
    if shape is float:  # NaN and +-inf fail the comparison
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:  # a bool is no int; a subclass, such as a library caller's np.str_, passes as its base
        kind = shape if isinstance(shape, type) else type(shape)
        ok = type(value) is kind or (isinstance(value, kind) and type(value) is not bool)
    if not ok:
        return shape, value
    if type(shape) is list:  # checked as an object keyed by index
        value, shape = dict(enumerate(value)), {str: shape[0]}
    if type(shape) is dict:
        if str in shape:
            fields = dict.fromkeys(value, shape[str])
        else:  # an absent optional key is not checked
            fields = {k.rstrip("?"): s for k, s in shape.items() if k[-1] != "?" or k[:-1] in value}
        for key, sub in fields.items():
            item = value.get(key, _ABSENT)
            # a leaf of its exact type needs no call
            if (type(item) is not sub or sub is float) and (bad := old_check(item, sub)):
                return (*bad, key)
    return None


_ABSENT = tensorfile._ABSENT  # the value of a missing key, which a failure holds


def _old_is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _old_index_problem(name, idx, n_values):
    if not _old_is_integer(idx):
        return f"value index {idx!r} of attribute {name!r} is not an integer"
    if not 0 <= idx < n_values:
        return f"value index {idx} out of range for attribute {name!r}"
    return None


def old_validate(n_series, conditions, schema):
    violations = []
    if n_series != len(conditions):
        violations.append(f"count mismatch: {n_series} series vs {len(conditions)} condition records")
    options = {a.name: len(a.values) for a in schema.attributes}
    columns = list(dict.fromkeys(name for rec in conditions for name in rec.attrs))  # the table's column order
    label_by_vector = {}
    for i, rec in enumerate(conditions):
        n_before = len(violations)
        for name, idx in ((name, rec.attrs[name]) for name in columns if name in rec.attrs):
            if name not in options:
                violations.append(f"record {i}: unknown attribute {name!r}")
            elif problem := _old_index_problem(name, idx, options[name]):
                violations.append(f"record {i}: {problem}")
        for name in options:
            if name not in rec.attrs:
                violations.append(f"record {i}: missing attribute {name!r}")
        has_vector = len(violations) == n_before
        if not _old_is_integer(rec.label):
            violations.append(f"record {i}: label {rec.label!r} is not an integer")
            continue
        if rec.label < 0:
            violations.append(f"record {i}: label {rec.label} is negative")
        if not has_vector:
            continue
        key = tuple(rec.attrs[name] for name in options)
        if key in label_by_vector:
            if label_by_vector[key] != rec.label:
                violations.append(
                    f"record {i}: label {rec.label} inconsistent with earlier label "
                    f"{label_by_vector[key]} for the same attribute vector"
                )
        else:
            label_by_vector[key] = rec.label
    return tuple(violations)


# ---------------------------------------------------------------------------
# (a) The writer: the bytes of one dict per record
# ---------------------------------------------------------------------------

# escapes, quotes, template percent signs, non-ASCII and astral characters
_TEXT = st.text(st.sampled_from('ab %s%d"\\\n\t\x00\x7fé 中\U0001f600'), max_size=12)
_BIG = st.sampled_from([2**63 - 1, 2**62, -(2**63), -(2**63) + 1, 10**18, -(10**18)])
_INT = st.one_of(st.integers(-3, 9), _BIG, st.integers(-(2**63), 2**63 - 1))


@st.composite
def _records(draw, max_size=8):
    names = draw(st.lists(_TEXT, max_size=4, unique=True))
    records = []
    for i in range(draw(st.integers(0, max_size))):
        keys = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]  # mixed key sets and orders
        attrs = {key: draw(_INT) for key in keys}
        records.append(ConditionRecord(draw(_TEXT), draw(_TEXT), attrs, draw(_INT)))
    return records


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(records=_records())
def test_writer_bytes_match_one_dict_per_record(records, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("w")
    old_write_conditions(records, tmp / "old.jsonl")
    table = as_condition_table(records)
    tensorfile.write_conditions(table, tmp / "table.jsonl")
    tensorfile.write_conditions(records, tmp / "records.jsonl")
    want = (tmp / "old.jsonl").read_bytes()
    assert (tmp / "table.jsonl").read_bytes() == want
    assert (tmp / "records.jsonl").read_bytes() == want
    assert list(tensorfile.read_conditions(tmp / "table.jsonl")) == records


def test_writer_bytes_match_across_pieces(tmp_path, monkeypatch):
    monkeypatch.setattr(tensorfile, "_CONDITION_ROWS", 7)
    records = [ConditionRecord(f"s{i}", f"t{i}", {"b": i, "a": 2**62 + i} if i % 3 else {"a": -i}, -(2**63) * (i % 2))
               for i in range(30)]
    old_write_conditions(records, tmp_path / "old.jsonl")
    tensorfile.write_conditions(records, tmp_path / "new.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


def test_writer_bytes_match_on_a_synth_build(tmp_path):
    ds = synthgen.build_synth_dataset("m", 4, 9)
    old_write_conditions(list(ds.conditions), tmp_path / "old.jsonl")
    tensorfile.write_conditions(ds.conditions, tmp_path / "new.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


@pytest.mark.parametrize(
    "record, message",
    [
        ((7, "t", {"a": 0}, 0), "record 1: sample_id 7 is not a string"),
        (("s", None, {"a": 0}, 0), "record 1: text None is not a string"),
        (("s", "t", {"a": True}, 0), "record 1: value index True of attribute 'a' is not an integer"),
        (("s", "t", {"a": 1.0}, 0), "record 1: value index 1.0 of attribute 'a' is not an integer"),
        (("s", "t", {0: 1}, 0), "record 1: attribute name 0 is not a string"),
        (("s", "t", {"a": 0}, False), "record 1: label False is not an integer"),
        (("s", "t", {"a": 0}, "2"), "record 1: label '2' is not an integer"),
    ],
)
def test_writer_refuses_what_the_reader_refuses(tmp_path, record, message):
    # the record refuses what the reader would refuse, so no writer sees it and no file is written; its
    # message is the one below, after the record number
    good = ConditionRecord("s0", "t", {"a": 0}, 0)
    path = tmp_path / "c.jsonl"
    with pytest.raises(ContractViolation) as info:
        tensorfile.write_conditions([good, ConditionRecord(*record)], path)
    assert f"record 1: {info.value}" == message
    assert not path.exists()


def test_writer_takes_numpy_integers_as_ints(tmp_path):
    tensorfile.write_conditions([ConditionRecord("s", "t", {"a": np.uint8(3)}, np.int64(2))], tmp_path / "c.jsonl")
    assert (tmp_path / "c.jsonl").read_text() == '{"attrs":{"a":3},"label":2,"sample_id":"s","text":"t"}\n'


# ---------------------------------------------------------------------------
# (b) The reader: the same records, or the same error text
# ---------------------------------------------------------------------------

_GOOD = '{"attrs":{"a":1,"b":0},"label":2,"sample_id":"s","text":"t"}'
_LINES = [
    "", " ", "\t", "\xa0", "\u2003", "\u2028", "\x1c", "\x0c",  # blank or not, by str.strip and JSON whitespace
    "\ufeff" + _GOOD, " " + _GOOD, "\t" + _GOOD + " \r", "\x0c" + _GOOD, _GOOD + "\x0c", _GOOD + " x", _GOOD + "\xa0",
    _GOOD[:-1], _GOOD + "}", "{", "x", '{"a" 1}', "{'a': 1}",
    "[]", "1", '"s"', "null", "true", "1.5", "NaN",
    _GOOD.replace('"label":2', '"label":2,"extra":[1,{"n":null}]'),
    _GOOD.replace('"label":2', '"label":2,"label":3'),
    _GOOD.replace('"label":2', '"label":2,"label":true'),
    _GOOD.replace('"a":1', '"a":1,"a":2'),
    _GOOD.replace('"sample_id":"s"', '"sample_id":"s","sample_id":5'),
]
_SLOTS = ['"a":{}', '"label":{}', '"sample_id":{}', '"text":{}']
_VALUES = ["true", "false", "null", "1.0", "1e3", "-0.0", "NaN", "Infinity", "-Infinity", "10" * 20, "-" + "9" * 30,
           "1" * 5000, '"1"', "[]", "{}", '"\\ud800"', "-0", "01"]


def _mutated(slot, value):
    key = slot.split(":")[0]
    current = {'"a"': '"a":1', '"label"': '"label":2', '"sample_id"': '"sample_id":"s"', '"text"': '"text":"t"'}[key]
    return _GOOD.replace(current, slot.format(value))


def _outcome(read, path):
    try:
        return list(read(path))
    except InputFormatError as exc:
        return f"InputFormatError: {exc}"


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_reader_matches_the_per_line_reader(data, tmp_path_factory):
    line = data.draw(st.one_of(
        st.sampled_from(_LINES),
        st.builds(_mutated, st.sampled_from(_SLOTS), st.sampled_from(_VALUES)),
        st.builds(lambda n: _GOOD.replace('"b":0', ",".join(f'"k{i}":{i}' for i in range(n))), st.integers(0, 3)),
        st.text(st.sampled_from(_GOOD + "\\\xa0\ufeff"), max_size=40),
    ))
    ending = data.draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
    before = data.draw(st.integers(0, 2))
    text = _GOOD + "\n" + "\n" * before + line + ending + _GOOD.replace('"s"', '"z"') + "\n"
    path = tmp_path_factory.mktemp("r") / "c.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(tensorfile.read_conditions, path) == _outcome(old_read_conditions, path)


def test_reader_keeps_every_line_error_text(tmp_path):
    # each defect once, against the per-line reader and its text
    for line in _LINES + [_mutated(s, v) for s in _SLOTS for v in _VALUES]:
        path = tmp_path / "c.jsonl"
        path.write_text(_GOOD + "\n" + line + "\n", encoding="utf-8")
        assert _outcome(tensorfile.read_conditions, path) == _outcome(old_read_conditions, path), line[:60]


_SHAPES = [tensorfile._CONDITION_SHAPE, tensorfile.SCHEMA_SHAPE, tensorfile._REPORT_SHAPE, {str: [int]}, {str: str},
           {"combos": [[int]]}, {"attrs": {str: int}}, {}, [float], {"a?": {str: float}, "b": [{"c": int}]}]
_KEYS = st.sampled_from(["sample_id", "text", "attrs", "label", "attributes", "name", "definition", "values", "context",
                         "entries", "dataset_id", "model_id", "seed", "metric", "value", "direction", "combos", "a", "b",
                         "c", "x"])


class _Object(dict):
    """A library caller's mapping: a dict subclass."""


# documents as the JSON parser gives them, and as a library caller may pass them: np.str_ and NumPy numbers
# for its values, a dict subclass for its objects
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([1e308, -1e308, 10**400]), st.text(max_size=3),
              st.text(max_size=3).map(np.str_), st.sampled_from([np.int64(1), np.float64(0.5)])),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=5),
                            st.dictionaries(_KEYS, inner, max_size=5).map(_Object)),
    max_leaves=12,
)


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(shape=st.sampled_from(_SHAPES), doc=_JSON)
def test_the_compiled_shape_test_agrees_with_the_explainer(shape, doc):
    # the same failure: the shape and value that depart, and the path to them
    assert tensorfile._checker(shape)(doc) == old_check(doc, shape)


def _recast(doc, leaf):
    """``doc`` with each object a ``_Object`` and each leaf through ``leaf``."""
    if type(doc) is dict:
        return _Object({key: _recast(value, leaf) for key, value in doc.items()})
    return [_recast(item, leaf) for item in doc] if type(doc) is list else leaf(doc)


@pytest.mark.parametrize("shape", _SHAPES, ids=range(len(_SHAPES)))
def test_the_compiled_shape_test_accepts_valid_documents(shape):
    valid = {
        0: {"sample_id": "s", "text": "t", "attrs": {"a": 1}, "label": 2},
        1: {"attributes": [{"name": "a", "values": ["x", "y"]}, {"name": "b", "definition": "", "values": []}]},
        2: {"context": {"dataset_id": "d", "model_id": "m", "seed": 0}, "entries": [{"metric": "f", "value": 0.5, "direction": "x"}]},
        3: {"train": [0, 1], "test": []}, 4: {"f": "g"}, 5: {"combos": [[0, 1], []]}, 6: {"attrs": {}}, 7: {"k": [None]},
        8: [1, 2.5, -1e308], 9: {"a": {"x": 1}, "b": [{"c": 3, "d": None}]},
    }[_SHAPES.index(shape)]
    check = tensorfile._checker(shape)
    assert tensorfile.shape_problem(valid, shape) is None
    assert check(valid) is None
    # a library caller's np.str_ values and dict subclass pass as their bases
    library = _recast(valid, lambda v: np.str_(v) if type(v) is str else v)
    assert check(library) is None and old_check(library, shape) is None
    # a bool is no int, nor a number
    bools = _recast(valid, lambda v: True if type(v) is int else v)
    refused = old_check(bools, shape)
    assert check(bools) == refused
    assert (refused is None) == (json.dumps(bools) == json.dumps(valid))


@pytest.mark.parametrize("line", [
    _GOOD.replace('"a":1', '"a":true'),
    _GOOD.replace('"label":2', '"label":"2"'),
    _GOOD.replace('"text":"t"', '"txt":"t"'),
    _GOOD.replace('{"a":1,"b":0}', '[1,0]'),
    _GOOD.replace('"b":0', '"b":1e400'),
    "[" + _GOOD + "]",
])
def test_a_parsed_line_the_shape_refuses_is_not_parsed_again(line, tmp_path, monkeypatch):
    # the check that refused the parsed line explains it; json.loads, the second parse, is never called
    path = tmp_path / "c.jsonl"
    path.write_text(_GOOD + "\n" + line + "\n", encoding="utf-8")
    want = _outcome(old_read_conditions, path)
    assert want.startswith(f"InputFormatError: {path}:2")

    def second_parse(*args, **kwargs):
        raise AssertionError("the line was parsed a second time")

    monkeypatch.setattr(json, "loads", second_parse)
    assert _outcome(tensorfile.read_conditions, path) == want


def test_reader_yields_python_ints_beyond_int64(tmp_path):
    # a table holds int64 values: a line beyond them is refused, named by its line; int64's limits are read
    path = tmp_path / "c.jsonl"
    path.write_text(_GOOD + "\n\n" + _GOOD.replace('"a":1', f'"a":{2**64}').replace('"label":2', f'"label":{-(2**70)}') + "\n")
    message = f"{path}:3: value index {2**64} of attribute 'a' lies outside int64"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        tensorfile.read_conditions(path)
    path.write_text(_GOOD.replace('"a":1', f'"a":{2**63 - 1}').replace('"label":2', f'"label":{-(2**63)}') + "\n")
    rec = tensorfile.read_conditions(path)[0]
    assert rec.attrs == {"a": 2**63 - 1, "b": 0} and rec.label == -(2**63)
    assert type(rec.attrs["b"]) is int and type(rec.label) is int


def test_reader_names_the_line_beyond_int64_in_a_later_piece(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_ROWS_PER_PIECE", 7)
    lines = [_GOOD.replace('"s"', f'"s{i}"') for i in range(30)]
    lines[23] = lines[23].replace('"label":2', f'"label":{2**63}')
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines[:4] + ["", " "] + lines[4:]) + "\n")
    want = _outcome(old_read_conditions, path)
    assert want == f"InputFormatError: {path}:26: label {2**63} lies outside int64"
    assert _outcome(tensorfile.read_conditions, path) == want


# ---------------------------------------------------------------------------
# (c) validate_dataset: the same violations as the per-record walk
# ---------------------------------------------------------------------------

SCHEMA = AttributeSchema((
    Attribute("color", "", ("red", "blue")),
    Attribute("size", "", ("s", "m", "l")),
    Attribute("shape", "", ("o", "x", "+", "-")),
))
# every value a record holds besides a schema value index: out of range, at int64's limits, NumPy integers
_ODD = st.sampled_from([-1, 3, 4, 2**63 - 1, -(2**63), np.int64(1), np.uint8(2), np.int8(-1)])
_LABEL = st.one_of(st.integers(0, 2), st.integers(0, 2), _ODD)
_UNKNOWN = st.sampled_from(["zz", "Color", np.str_("zz")])
# what a record refuses, because a table cannot hold it
_REFUSED_VALUES = [2**63, -(2**63) - 1, 10**30, True, False, 1.0, 1.5, float("nan"), "1", None, [1], {"a": 1},
                   np.uint64(2**64 - 1), np.float64(1.0)]
_REFUSED_NAMES = [0, 1, True, 1.0, None, (1, "a")]


@st.composite
def _validation_case(draw):
    n = draw(st.integers(0, 10))
    pool = [tuple(draw(st.integers(0, len(a.values) - 1)) for a in SCHEMA.attributes) for _ in range(3)]
    records = []
    for i in range(n):
        attrs = dict(zip(SCHEMA.names, draw(st.sampled_from(pool))))
        for _ in range(draw(st.integers(0, 3))):  # up to 3 faults: missing, unknown, out of range or odd
            fault = draw(st.sampled_from(["missing", "unknown", "value", "respell"]))
            name = draw(st.sampled_from(SCHEMA.names))
            if fault == "missing":
                attrs.pop(name, None)
            elif fault == "unknown":
                attrs[draw(_UNKNOWN)] = draw(st.one_of(st.integers(0, 3), _ODD))
            elif fault == "value":
                attrs[name] = draw(_ODD)
            elif name in attrs:  # the schema name spelled as a str subclass
                attrs[np.str_(name)] = attrs.pop(name)
        order = draw(st.permutations(list(attrs)))
        label = draw(st.one_of(st.integers(0, 2), _LABEL))
        records.append(ConditionRecord(f"s{i}", "t", {k: attrs[k] for k in order}, label))
    return max(1, n + draw(st.sampled_from([0, 0, 0, 1]))), records


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(case=_validation_case())
def test_validate_matches_the_per_record_walk(case):
    n_series, records = case
    series = TimeSeriesTensor(data=np.zeros((n_series, 2, 1)))
    want = old_validate(n_series, records, SCHEMA)
    assert validate_dataset(series, records, SCHEMA).violations == want
    assert validate_dataset(series, as_condition_table(records), SCHEMA).violations == want


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=_validation_case(), data=st.data())
def test_validate_of_a_file_with_shuffled_key_orders_matches_the_per_record_walk(case, data, tmp_path_factory):
    # each line lists its attrs in an order of its own, written raw, as dump_jsonl would sort them
    n_series, records = case
    path = tmp_path_factory.mktemp("v") / "c.jsonl"
    lines = []
    for rec in records:
        order = data.draw(st.permutations(list(rec.attrs)))
        doc = {"label": rec.label, "attrs": {k: rec.attrs[k] for k in order}, "sample_id": rec.sample_id, "text": rec.text}
        lines.append(json.dumps(dict(data.draw(st.permutations(list(doc.items()))))))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    series = TimeSeriesTensor(data=np.zeros((n_series, 2, 1)))
    want = old_validate(n_series, old_read_conditions(path), SCHEMA)
    assert validate_dataset(series, tensorfile.read_conditions(path), SCHEMA).violations == want


@pytest.mark.parametrize("value", _REFUSED_VALUES, ids=repr)
def test_a_record_refuses_a_value_or_label_a_table_cannot_hold(value):
    problem = "lies outside int64" if isinstance(value, (int, np.integer)) and type(value) is not bool else "is not an integer"
    with pytest.raises(ContractViolation) as info:
        ConditionRecord("s", "t", {"color": 0, "size": value}, 0)
    assert str(info.value) == f"value index {value!r} of attribute 'size' {problem}"
    with pytest.raises(ContractViolation) as info:
        ConditionRecord("s", "t", {"color": 0}, value)
    assert str(info.value) == f"label {value!r} {problem}"


@pytest.mark.parametrize("name", _REFUSED_NAMES, ids=repr)
def test_a_record_refuses_an_attribute_name_that_is_no_string(name):
    with pytest.raises(ContractViolation) as info:
        ConditionRecord("s", "t", {"color": 0, name: 1}, 0)
    assert str(info.value) == f"attribute name {name!r} is not a string"


@pytest.mark.parametrize("field", ["sample_id", "text"])
@pytest.mark.parametrize("value", [7, None, b"s", ["s"]], ids=repr)
def test_a_record_refuses_an_id_or_text_that_is_no_string(field, value):
    fields = {"sample_id": "s", "text": "t", "attrs": {"color": 0}, "label": 0, field: value}
    with pytest.raises(ContractViolation) as info:
        ConditionRecord(**fields)
    assert str(info.value) == f"{field} {value!r} is not a string"


def test_a_record_keeps_numpy_integers_as_ints_and_str_subclass_names_as_strs():
    rec = ConditionRecord("s", "t", {np.str_("zz"): np.uint8(2), "a": np.int8(-1)}, np.int64(1))
    assert rec == ConditionRecord("s", "t", {"zz": 2, "a": -1}, 1)
    assert [type(k) for k in rec.attrs] == [str, str] and [type(v) for v in rec.attrs.values()] == [int, int]
    assert type(rec.label) is int


def test_the_table_constructor_refuses_what_its_columns_cannot_hold():
    # a cast would truncate a float or bool column to [[1], [1]] and [0, 2], and keep an int text
    with pytest.raises(ContractViolation, match=r"^condition values must be integers that int64 holds, got dtype float64$"):
        ConditionTable(["a", "b"], ["t", "t"], ("x",), [[1.7], [True]], [0.9, 2])
    with pytest.raises(ContractViolation, match=r"^condition labels must be integers that int64 holds, got dtype float64$"):
        ConditionTable(["a", "b"], ["t", "t"], ("x",), [[1], [0]], [0.9, 2])
    with pytest.raises(ContractViolation, match=r"^condition texts must be strings, got 5$"):
        ConditionTable(["a"], [5], ("x",), [[1]], [0])
    with pytest.raises(ContractViolation, match=r"^condition sample_ids must be strings, got None$"):
        ConditionTable(["a", None], ["t", "t"], ("x",), [[1], [0]], [0, 0])
    with pytest.raises(ContractViolation, match=r"^condition attr_names must be strings, got 0$"):
        ConditionTable(["a"], ["t"], (0,), [[1]], [0])
    for values, labels in (([[True]], [0]), ([[1]], np.array([True])), (np.array([[1]], dtype=np.uint64), [0]),
                           ([[2**64]], [0]), ([[1]], ["1"])):
        with pytest.raises(ContractViolation, match=r"must be integers that int64 holds"):
            ConditionTable(["a"], ["t"], ("x",), values, labels)
    table = ConditionTable(["a", "b"], ["t", "u"], ("x", "y"), np.array([[1, 2], [3, 4]], dtype=np.int8), [0, -1],
                           [[True, False], [False, True]])
    assert list(table) == [ConditionRecord("a", "t", {"x": 1}, 0), ConditionRecord("b", "u", {"y": 4}, -1)]
    assert table.values.dtype == np.int64 and table.labels.dtype == np.int64 and table.held.dtype == bool
    assert ConditionTable([], [], ("x",), [], []).values.shape == (0, 1)


def test_the_table_shares_no_memory_a_caller_can_write():
    v, labels, held = np.array([[1, 2]]), np.array([0]), np.array([[True, True]])
    t = ConditionTable(["a"], ["t"], ("x", "y"), v, labels, held)
    v[0, 0], labels[0], held[0, 1] = 7, 5, False
    assert list(t) == [ConditionRecord("a", "t", {"x": 1, "y": 2}, 0)]
    for column, caller in (t.values, v), (t.labels, labels), (t.held, held):
        assert not np.shares_memory(column, caller) and not column.flags.writeable
    # a frozen array that owns its memory is shared, as is; a frozen view is copied, its base being writeable
    v.setflags(write=False)
    view = np.array([[3, 4, 5]])[:, :2]
    view.setflags(write=False)
    assert np.shares_memory(ConditionTable(["a"], ["t"], ("x", "y"), v, [0]).values, v)
    assert not np.shares_memory(ConditionTable(["a"], ["t"], ("x", "y"), view, [0]).values, view)


def test_a_built_table_holds_its_own_arrays_uncopied(monkeypatch):
    # build_synth_dataset and from_rows freeze the arrays they build, so the constructor copies none of them
    built = []
    post_init = ConditionTable.__post_init__

    def kept(table):
        given = [table.values, table.labels, table.held]
        post_init(table)
        built.append([np.shares_memory(a, b) for a, b in zip(given, [table.values, table.labels, table.held]) if a is not None])

    monkeypatch.setattr(ConditionTable, "__post_init__", kept)
    synthgen.build_synth_dataset("m", 0, 8)
    as_condition_table([ConditionRecord("s", "t", {"a": 1}, 0), ConditionRecord("z", "u", {"b": 2}, 3)])
    assert built == [[True, True], [True, True, True]]


def test_validate_matches_with_labels_beyond_int64():
    # a record refuses a label beyond int64, so the labels here lie at its limits
    with pytest.raises(ContractViolation, match=rf"^label {2**70} lies outside int64$"):
        ConditionRecord("s", "t", {"color": 0}, 2**70)
    records = [ConditionRecord(f"s{i}", "t", {"color": 0, "size": 1, "shape": 2}, label)
               for i, label in enumerate([2**63 - 1, 2**63 - 1, 5, -(2**63), 2**62, 5])]
    records.append(ConditionRecord("s9", "t", {"color": 1, "size": 1, "shape": 2}, 2**62))
    series = TimeSeriesTensor(data=np.zeros((len(records), 2, 1)))
    assert validate_dataset(series, records, SCHEMA).violations == old_validate(len(records), records, SCHEMA)


def test_validate_keys_vectors_beyond_int64():
    # 70 two-valued attributes: a mixed-radix key needs 70 bits, and wrapped at 64 it would
    # lose the first 6, so vectors that differ only there would share a key and a label
    schema = AttributeSchema(tuple(Attribute(f"a{j}", "", ("n", "y")) for j in range(70)))
    rest = np.random.default_rng(0).integers(0, 2, size=(2, 64))
    records = []
    for i in range(130):
        head = [(i % 64) >> b & 1 for b in range(6)]
        vector = head + rest[i // 64 % 2].tolist()
        label = i % 64 + (i == 129)  # record 129 repeats record 1's vector with another label
        records.append(ConditionRecord(f"s{i}", "t", dict(zip(schema.names, vector)), label))
    series = TimeSeriesTensor(data=np.zeros((130, 2, 1)))
    want = old_validate(130, records, schema)
    assert want == ("record 129: label 2 inconsistent with earlier label 1 for the same attribute vector",)
    assert validate_dataset(series, records, schema).violations == want


def test_validate_matches_on_a_32k_synth_m_build():
    ds = synthgen.build_synth_dataset("m", 1, 1000)
    assert validate_dataset(ds.series, ds.conditions, ds.schema).ok
    records = list(ds.conditions)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(records), 40, replace=False).tolist():
        rec = records[i]
        attrs = dict(rec.attrs)
        fault = i % 4
        if fault == 0:
            attrs["mv_transform"] = 4
        elif fault == 1:
            del attrs["hf_cycles"]
        elif fault == 2:
            attrs["trend_type"] = -1
        records[i] = ConditionRecord(rec.sample_id, rec.text, attrs, rec.label + (fault == 3))
    want = old_validate(ds.series.n_samples, records, ds.schema)
    assert len(want) >= 40
    assert validate_dataset(ds.series, records, ds.schema).violations == want


# ---------------------------------------------------------------------------
# The table as a sequence of records
# ---------------------------------------------------------------------------


def test_rows_are_records_of_python_ints():
    ds = synthgen.build_synth_dataset("u", 2, 8)
    rec = ds.conditions[-1]
    assert isinstance(rec, ConditionRecord) and rec.sample_id == "u-000255"
    assert type(rec.label) is int and all(type(v) is int for v in rec.attrs.values())
    assert list(rec.attrs) == list(ds.schema.names)
    assert str(rec.attrs["hf_cycles"]) == repr(rec.attrs["hf_cycles"])


def test_a_slice_is_a_table_of_those_rows():
    # a table is indexed by record only; its records are its rows, in column order
    records = [ConditionRecord(f"s{i}", "t", {"b": i, "a": 1} if i % 2 else {"a": 0}, i) for i in range(7)]
    table = as_condition_table(records)
    assert table.attr_names == ("a", "b") and list(table[1].attrs) == ["a", "b"]
    assert table[-1] == records[-1] and list(table) == records
    assert list(as_condition_table(records[1:])) == records[1:]
    with pytest.raises(IndexError):
        table[7]


def test_vectors_name_the_first_faulty_record_in_record_order():
    records = [ConditionRecord("s0", "t", {"color": 0, "size": 0, "shape": 0}, 0),
               ConditionRecord("s1", "t", {"shape": 9, "size": 0, "color": 0}, 0),
               ConditionRecord("s2", "t", {"color": 0, "size": 0}, 0)]
    with pytest.raises(ContractViolation, match=r"^record 's1': value index 9 out of range for attribute 'shape'$"):
        as_condition_table(records).vectors(SCHEMA)
    assert as_condition_table(records[:1]).vectors(SCHEMA).tolist() == [[0, 0, 0]]
    assert as_condition_table([]).vectors(SCHEMA).shape == (0, 3)


def test_read_conditions_of_a_written_table_round_trips(tmp_path: Path):
    ds = synthgen.build_synth_dataset("m", 0, 8)
    tensorfile.write_conditions(ds.conditions, tmp_path / "c.jsonl")
    back = tensorfile.read_conditions(tmp_path / "c.jsonl")
    assert list(back) == list(ds.conditions)
    assert back.texts == ds.conditions.texts
    # the file's keys are sorted, so its columns are too; vectors select them in schema order
    assert back.attr_names == tuple(sorted(ds.schema.names))
    assert np.array_equal(back.vectors(ds.schema), ds.conditions.vectors(ds.schema))


@pytest.mark.parametrize("variant", ["u", "m"])
def test_built_and_read_tables_hold_each_distinct_text_once(variant, tmp_path: Path):
    ds = synthgen.build_synth_dataset(variant, 0, 40)  # 1,280 records: the reader takes them in two pieces
    tensorfile.write_conditions(ds.conditions, tmp_path / "c.jsonl")
    for table in ds.conditions, tensorfile.read_conditions(tmp_path / "c.jsonl"):
        assert len(set(table.texts)) < len(table)  # captions repeat
        assert len({id(text) for text in table.texts}) == len(set(table.texts))
