import json
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from seriesbench.core import (
    EmbeddingMatrix,
    InputFormatError,
    MetricEntry,
    MetricReport,
    ReportContext,
    TimeSeriesTensor,
)
from seriesbench import tensorfile


def test_tensor_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 96, 2)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.tsb"
    tensorfile.write_tensor(TimeSeriesTensor(data=arr), path)
    back = tensorfile.read_tensor(path)
    assert np.array_equal(back.data, arr)

    tensorfile.write_tensor(back, tmp_path / "y.tsb")
    assert path.read_bytes() == (tmp_path / "y.tsb").read_bytes()


def test_embedding_round_trip(tmp_path):
    emb = EmbeddingMatrix(data=np.float32(np.eye(3)).astype(np.float64))
    tensorfile.write_tensor(emb, tmp_path / "e.tsb")
    back = tensorfile.read_embedding(tmp_path / "e.tsb")
    assert np.array_equal(back.data, emb.data)


def test_truncated_payload_names_byte_counts(tmp_path):
    path = tmp_path / "x.tsb"
    tensorfile.write_tensor(np.zeros((2, 3, 1)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(InputFormatError, match="truncated payload.*24.*20"):
        tensorfile.read_tensor(path)


def test_oversized_payload_rejected(tmp_path):
    path = tmp_path / "x.tsb"
    tensorfile.write_tensor(np.zeros((2, 3, 1)), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(InputFormatError, match="truncated payload"):
        tensorfile.read_tensor(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "x.tsb"
    header = {"magic": "TSB1", "dtype": "f64", "shape": [1], "order": "row_major", "byte_order": "little"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
    with pytest.raises(InputFormatError, match="unsupported dtype"):
        tensorfile.read_array(path)


def test_magic_mismatch_rejected(tmp_path):
    path = tmp_path / "x.tsb"
    header = {"magic": "NOPE", "dtype": "f32", "shape": [1], "order": "row_major", "byte_order": "little"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 4)
    with pytest.raises(InputFormatError, match="magic mismatch"):
        tensorfile.read_array(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "x.tsb"
    header = {"magic": "TSB1", "dtype": "f32", "shape": [1], "order": "row_major", "byte_order": "little"}
    payload = np.array([np.inf], dtype="<f4").tobytes()
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(InputFormatError, match="non-finite"):
        tensorfile.read_array(path)


def _header_line(shape) -> bytes:
    header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": shape}
    return json.dumps(header).encode() + b"\n"


@pytest.mark.parametrize("shape", [[True, 4, 1], [2, False, 1], [True]])
def test_a_bool_dimension_is_a_bad_shape(tmp_path, shape):
    path = tmp_path / "x.tsb"
    path.write_bytes(_header_line(shape) + bytes(4 * math.prod(shape)))
    with pytest.raises(InputFormatError, match=re.escape(f"bad shape {shape!r}")):
        tensorfile.read_array(path)


def _fifo(tmp_path, data: bytes):
    """A FIFO that a writer thread fills with ``data`` once a reader opens it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    path = tmp_path / "x.fifo"
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader refused the input before its end
            pass

    threading.Thread(target=feed, daemon=True).start()
    return path


def test_a_fifo_payload_reads_like_a_file(tmp_path):
    arr = np.random.default_rng(4).normal(size=(3000, 96, 1))  # 1.1 MiB: more than one chunk
    tensorfile.write_tensor(arr, tmp_path / "x.tsb")
    back = tensorfile.read_tensor(_fifo(tmp_path, (tmp_path / "x.tsb").read_bytes()))
    assert np.array_equal(back.data, tensorfile.read_tensor(tmp_path / "x.tsb").data)


@pytest.mark.parametrize(
    "shape, payload, found",
    [
        ([10**12, 1, 1], bytes(8), "found 8$"),  # the header would ask for 4 TB
        ([2, 3], bytes(20), "found 20$"),
        ([2, 2], bytes(20), "found >16$"),
    ],
    ids=["huge-shape", "short", "over-long"],
)
def test_a_lying_fifo_header_allocates_only_what_arrives(tmp_path, shape, payload, found):
    with pytest.raises(InputFormatError, match="truncated payload.*" + found):
        tensorfile.read_array(_fifo(tmp_path, _header_line(shape) + payload))


def test_an_empty_fifo_is_refused_for_its_missing_header(tmp_path):
    with pytest.raises(InputFormatError, match="missing or oversized TSB1 header line"):
        tensorfile.read_array(_fifo(tmp_path, b""))


def test_conditions_round_trip(tmp_path):
    from seriesbench.core import ConditionRecord

    records = [
        ConditionRecord(sample_id="a", text="up trend", attrs={"trend": 1}, label=3),
        ConditionRecord(sample_id="b", text="flat", attrs={"trend": 0}, label=0),
    ]
    path = tmp_path / "c.jsonl"
    tensorfile.write_conditions(records, path)
    back = tensorfile.read_conditions(path)
    assert list(back) == records


def test_report_byte_identical_and_round_trip(tmp_path):
    report = MetricReport(
        entries=(
            MetricEntry("fid", 1.2345678901234567, "lower_better"),
            MetricEntry("precision", 0.5, "higher_better"),
        ),
        context=ReportContext("synth-u", "modelA", 7),
    )
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    tensorfile.emit_report(report, p1)
    tensorfile.emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert tensorfile.read_report(p1) == report


def test_canonical_json_rejects_nan():
    with pytest.raises(InputFormatError):
        tensorfile.canonical_json({"x": float("nan")})


def test_canonical_json_sorts_keys_and_formats_floats():
    doc = {"b": 0.1, "a": 2}
    assert tensorfile.canonical_json(doc) == '{"a":2,"b":0.10000000000000001}'


def test_read_tensor_makes_one_float64_copy(tmp_path):
    import tracemalloc

    path = tmp_path / "x.tsb"
    tensorfile.write_tensor(np.random.default_rng(0).normal(size=(2000, 96, 2)), path)
    tracemalloc.start()
    try:
        tensor = tensorfile.read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 payload plus one float64 result; a second float64 copy reads 2x
    assert peak <= 1.75 * tensor.data.nbytes, peak / tensor.data.nbytes
    assert tensor.data.dtype == np.float64 and not tensor.data.flags.writeable
    arr = tensorfile.read_array(path)
    assert arr.dtype == np.float64 and np.array_equal(arr, tensor.data)


def _tsb1_bytes_by_copy(arr) -> bytes:
    """The file a writer that copies the payload with ``tobytes`` produced."""
    arr = np.asarray(arr)
    header = {"byte_order": "little", "dtype": "f32", "magic": "TSB1", "order": "row_major", "shape": list(arr.shape)}
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload


@pytest.mark.parametrize(
    "arr",
    [
        np.random.default_rng(1).normal(size=(40, 96, 2)),
        np.random.default_rng(2).normal(size=(9, 7, 3))[:, ::2],  # not contiguous
        np.random.default_rng(3).normal(size=(5, 4)).astype(np.float32),
        np.zeros((0, 54, 1)),
        np.zeros((10, 0)),
        np.array([2.5]),
    ],
)
def test_write_tensor_bytes_match_the_copying_writer(tmp_path, arr):
    tensorfile.write_tensor(arr, tmp_path / "x.tsb")
    assert (tmp_path / "x.tsb").read_bytes() == _tsb1_bytes_by_copy(arr)


# 3.4028235677973366e38 is the least float64 that rounds past float32's maximum
@pytest.mark.parametrize("bad", [1e39, -1e39, np.inf, np.nan, 3.4028235677973366e38, -3.4028235677973366e38])
def test_write_tensor_refuses_a_value_beyond_float32_range_without_a_warning(tmp_path, bad):
    path = tmp_path / "x.tsb"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match="non-finite in float32"):
            tensorfile.write_tensor(np.array([[1.0, bad]]), path)
    assert not path.exists()


def test_write_tensor_round_trips_float32_extremes(tmp_path):
    # float32's maximum itself, and the greatest float64 that still rounds to it
    top = np.array([3.4028234663852886e38, 3.4028235677973362e38])
    tensorfile.write_tensor(np.array([top, -top]), tmp_path / "x.tsb")
    maximum = float(np.finfo(np.float32).max)
    assert np.array_equal(tensorfile.read_array(tmp_path / "x.tsb"), [[maximum] * 2, [-maximum] * 2])


@pytest.mark.parametrize("arr", [np.float64(2.5), np.array(np.nan)])
def test_write_tensor_refuses_a_0d_array(tmp_path, arr):
    path = tmp_path / "x.tsb"
    with pytest.raises(InputFormatError, match="0-d array"):
        tensorfile.write_tensor(arr, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "arr", [np.array([1 + 2j]), np.array(["a"]), np.array([b"a"]), np.array([1.0], dtype=object)], ids=str
)
def test_write_tensor_refuses_an_array_of_other_than_real_numbers(tmp_path, arr):
    path = tmp_path / "x.tsb"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match=re.escape(str(arr.dtype))):
            tensorfile.write_tensor(arr, path)
    assert not path.exists()


# arrays of more than one 256 KiB piece; 3000 rows of 768 float32 bytes make eight pieces of 341 rows and one of 272
_PIECE_ROWS = tensorfile._PIPE_CHUNK // 768
LARGE_ARRAYS = {
    "exactly_three_pieces": lambda rng: rng.normal(size=(3 * _PIECE_ROWS, 96, 2)),
    "three_pieces_and_a_row": lambda rng: rng.normal(size=(3 * _PIECE_ROWS + 1, 96, 2)),
    "c_order": lambda rng: rng.normal(size=(3000, 96, 2)),
    "strided_view": lambda rng: rng.normal(size=(3000, 200, 2))[:, ::2, ::-1],
    "f_order": lambda rng: np.asfortranarray(rng.normal(size=(1500, 300))),
    "bool": lambda rng: rng.random((700, 600)) > 0.5,
    "int": lambda rng: rng.integers(-(2**40), 2**40, size=(2000, 300)),  # float32 rounds most of them
    "row_longer_than_a_piece": lambda rng: rng.normal(size=(3, 300_000)),
    "one_dim": lambda rng: rng.normal(size=400_000),
}


@pytest.mark.parametrize("name", sorted(LARGE_ARRAYS))
def test_write_tensor_in_pieces_bytes_match_the_copying_writer(tmp_path, name):
    arr = LARGE_ARRAYS[name](np.random.default_rng(len(name)))
    assert arr.size * 4 > tensorfile._PIPE_CHUNK
    tensorfile.write_tensor(arr, tmp_path / "x.tsb")
    assert (tmp_path / "x.tsb").read_bytes() == _tsb1_bytes_by_copy(arr)


@pytest.mark.parametrize("bad", [np.nan, 1e39])
def test_write_tensor_refuses_a_non_finite_value_in_the_last_piece(tmp_path, bad):
    arr = np.zeros((3000, 96, 2))
    arr[-1, -1, -1] = bad
    path = tmp_path / "x.tsb"
    with pytest.raises(InputFormatError, match="non-finite in float32"):
        tensorfile.write_tensor(arr, path)
    assert not path.exists()


def test_write_tensor_narrows_in_pieces_at_synth_m_size(tmp_path):
    import tracemalloc

    arr = np.random.default_rng(0).normal(size=(8000, 96, 2))  # a 5.9 MiB float32 payload
    tracemalloc.start()
    try:
        tensorfile.write_tensor(arr, tmp_path / "x.tsb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one piece's float32 buffer; a larger piece gives back what the bench's peak RSS gained from 256 KiB pieces
    assert tensorfile._PIPE_CHUNK <= 2**18
    assert peak <= tensorfile._PIPE_CHUNK + 2**16, peak / 2**20


def test_write_tensor_makes_no_copy_of_the_payload(tmp_path):
    import tracemalloc

    arr = np.random.default_rng(0).normal(size=(8000, 96, 2))
    payload_bytes = arr.size * 4
    tracemalloc.start()
    try:
        tensorfile.write_tensor(arr, tmp_path / "x.tsb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 payload itself; a bytes copy of it reads 2x
    assert peak <= 1.1 * payload_bytes, peak / payload_bytes


# ---------------------------------------------------------------------------
# The JSON shape check
# ---------------------------------------------------------------------------

SHAPE_ACCEPTS = [
    ("3", int),
    ("-7", int),
    ("2.5", float),
    ("2", float),
    ("-1.7e308", float),
    ('"x"', str),
    ("[]", [int]),
    ("[1, 2]", [int]),
    ('{"a": 1, "b": 2}', {str: int}),
    ("{}", {str: int}),
    ('{"z": [1, "x"], "q": null}', {}),
    ('{"a": 1}', {"a": int, "b?": str}),
    ('{"a": 1, "b": "x"}', {"a": int, "b?": str}),
    ('{"a": 1, "extra": [null, true]}', {"a": int}),
    ('[[1, 2], []]', [[int]]),
]


@pytest.mark.parametrize("text, shape", SHAPE_ACCEPTS)
def test_shape_accepts(text, shape, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert tensorfile.load_json(path, shape) == json.loads(text)


SHAPE_REJECTS = [
    ("true", int, ": expected an integer, got true"),
    ("false", float, ": expected a finite number, got false"),
    ("2.5", int, ": expected an integer, got 2.5"),
    ("2.0", int, ": expected an integer, got 2.0"),
    ('"7"', int, ': expected an integer, got "7"'),
    ('"0.5"', float, ': expected a finite number, got "0.5"'),
    ("NaN", float, ": expected a finite number, got NaN"),
    ("Infinity", float, ": expected a finite number, got Infinity"),
    ("-Infinity", float, ": expected a finite number, got -Infinity"),
    ("1e400", float, ": expected a finite number, got Infinity"),
    ("1e400", int, ": expected an integer, got Infinity"),
    ("1" + "0" * 400, float, ": expected a finite number, got 1" + "0" * 39),
    ('{"v": NaN}', {"v": float}, ".v: expected a finite number, got NaN"),
    ("[1.5, 1e400]", [float], "[1]: expected a finite number, got Infinity"),
    ("null", str, ": expected a string, got null"),
    ("3", str, ": expected a string, got 3"),
    ('{"a": 1}', [int], ': expected a list, got {"a": 1}'),
    ("[1]", {}, ": expected an object, got [1]"),
    ("[1, true]", [int], "[1]: expected an integer, got true"),
    ('{"a": 1, "b": "x"}', {str: int}, '.b: expected an integer, got "x"'),
    ('{"b": "x"}', {"a": int, "b?": str}, ".a: expected an integer, got nothing"),
    ('{"a": 1, "b": 2}', {"a": int, "b?": str}, ".b: expected a string, got 2"),
    (
        '{"a": [{"b": [1, 2]}, {"b": [3, "x"]}]}',
        {"a": [{"b": [int]}]},
        '.a[1].b[1]: expected an integer, got "x"',
    ),
]


@pytest.mark.parametrize(
    "text, shape, message", SHAPE_REJECTS, ids=lambda v: v[:24] if isinstance(v, str) else None
)
def test_shape_rejects_with_json_path(text, shape, message, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputFormatError) as info:
        tensorfile.load_json(path, shape)
    assert str(info.value) == f"{path}{message}"


def test_shape_mismatch_value_is_truncated(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a": "x" * 500}))
    with pytest.raises(InputFormatError) as info:
        tensorfile.load_json(path, {"a": int})
    assert str(info.value) == f'{path}.a: expected an integer, got "{"x" * 39}'


def test_dump_jsonl_bytes_equal_per_record_dumps(tmp_path):
    docs = [
        {"text": "Zürich — 東京 ☃", "b": 1, "a": [1.5, None, True]},
        {"z": {"y": {"x": "é", "w": -0.0}, "v": []}, "a": "\u0000"},
        {},
    ]
    path = tmp_path / "rows.jsonl"
    tensorfile.dump_jsonl(docs, path)
    expected = "".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in docs)
    assert path.read_bytes() == expected.encode("utf-8")


def test_jsonl_shape_mismatch_names_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": 2.5}\n')
    with pytest.raises(InputFormatError) as info:
        list(tensorfile.load_jsonl(path, {"a": int}))
    assert str(info.value) == f"{path}:4.a: expected an integer, got 2.5"


@pytest.mark.parametrize(
    "text", ["1" * 5000, "[" * 100_000, '{"a": ' * 100_000], ids=["long-int", "deep-list", "deep-object"]
)
def test_unparseable_json_is_an_input_error(text, tmp_path):
    # an integer literal over the interpreter's digit limit, and nesting past its recursion limit
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="bad JSON"):
        tensorfile.load_json(path, {})
    with pytest.raises(InputFormatError, match=":1: bad JSON"):
        list(tensorfile.load_jsonl(path, {}))


def test_report_reader_rejects_non_integer_seed(tmp_path):
    report = MetricReport(entries=(MetricEntry("fid", 0.5, "lower_better"),), context=ReportContext("d", "m", 7))
    path = tmp_path / "r.json"
    tensorfile.emit_report(report, path)
    doc = json.loads(path.read_text())
    doc["context"]["seed"] = 7.0
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match=r"\.context\.seed: expected an integer, got 7\.0$"):
        tensorfile.read_report(path)


def test_read_tensor_widens_the_payload_in_chunks(tmp_path):
    import tracemalloc

    path = tmp_path / "x.tsb"
    tensorfile.write_tensor(np.random.default_rng(0).normal(size=(8000, 96, 2)), path)
    tracemalloc.start()
    try:
        tensor = tensorfile.read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 result and one chunk's float32 buffer; the whole float32 payload would add half the result
    assert tensorfile._PIPE_CHUNK <= 2**18
    assert peak - tensor.data.nbytes <= tensorfile._PIPE_CHUNK + 2**16, (peak - tensor.data.nbytes) / 2**20
    assert tensor.data.base is None and not tensor.data.flags.writeable
