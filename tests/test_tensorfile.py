import json

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


def test_conditions_round_trip(tmp_path):
    from seriesbench.core import ConditionRecord

    records = [
        ConditionRecord(sample_id="a", text="up trend", attrs={"trend": 1}, label=3),
        ConditionRecord(sample_id="b", text="flat", attrs={"trend": 0}, label=0),
    ]
    path = tmp_path / "c.jsonl"
    tensorfile.write_conditions(records, path)
    back = tensorfile.read_conditions(path)
    assert back == records


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
