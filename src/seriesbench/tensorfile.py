"""Self-describing file formats: TSB1 tensors, JSONL conditions, schema and report JSON.

TSB1 container: one UTF-8 header line holding a JSON object
``{"magic": "TSB1", "dtype": "f32", "shape": [...], "order": "row_major",
"byte_order": "little"}`` terminated by ``\\n``, followed by the raw packed
little-endian float32 values in row-major order.  Values are widened to
float64 on read.

Report and schema JSON are emitted canonically (sorted keys, floats at 17
significant digits) so that equal documents are byte-equal and golden-file
tests are diffs, not tolerance checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from seriesbench.core import (
    AttributeSchema,
    ConditionRecord,
    EmbeddingMatrix,
    InputFormatError,
    MetricEntry,
    MetricReport,
    ReportContext,
    TimeSeriesTensor,
)

_MAGIC = "TSB1"
_HEADER_LIMIT = 4096  # sane upper bound for one header line


def write_tensor(t: TimeSeriesTensor | EmbeddingMatrix | np.ndarray, path: str | Path) -> None:
    """Write an array as a TSB1 file (float32 payload)."""
    arr = t.data if isinstance(t, (TimeSeriesTensor, EmbeddingMatrix)) else np.asarray(t)
    if not np.all(np.isfinite(arr)):
        raise InputFormatError("refusing to write non-finite values")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    header = {
        "magic": _MAGIC,
        "dtype": "f32",
        "shape": list(arr.shape),
        "order": "row_major",
        "byte_order": "little",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def _read_tsb1(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.readline(_HEADER_LIMIT)
        if not head.endswith(b"\n"):
            raise InputFormatError(f"{path}: missing or oversized TSB1 header line")
        try:
            header = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputFormatError(f"{path}: unparseable TSB1 header: {exc}") from exc
        if header.get("magic") != _MAGIC:
            raise InputFormatError(f"{path}: magic mismatch, got {header.get('magic')!r}")
        if header.get("dtype") != "f32":
            raise InputFormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        if header.get("order") != "row_major":
            raise InputFormatError(f"{path}: unsupported order {header.get('order')!r}")
        if header.get("byte_order") != "little":
            raise InputFormatError(f"{path}: unsupported byte order {header.get('byte_order')!r}")
        shape = header.get("shape")
        if (
            not isinstance(shape, list)
            or not shape
            or not all(isinstance(d, int) and d >= 0 for d in shape)
        ):
            raise InputFormatError(f"{path}: bad shape {shape!r}")
        count = int(np.prod(shape, dtype=np.int64))
        expected = count * 4
        raw = fh.read(expected + 1)
        if len(raw) != expected:
            found = len(raw) if len(raw) < expected else f">{expected}"
            raise InputFormatError(
                f"{path}: truncated payload, expected {expected} bytes, found {found}"
            )
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InputFormatError(f"{path}: payload contains non-finite values")
        return arr


def read_tensor(path: str | Path) -> TimeSeriesTensor:
    """Read a TSB1 file holding a 3-D (N, L, F) series tensor."""
    arr = _read_tsb1(path)
    if arr.ndim != 3:
        raise InputFormatError(f"{path}: expected 3-D series tensor, got shape {arr.shape}")
    return TimeSeriesTensor(data=arr)


def read_embedding(path: str | Path, role: str = "time_series") -> EmbeddingMatrix:
    """Read a TSB1 file holding a 2-D (N, d) embedding matrix."""
    arr = _read_tsb1(path)
    if arr.ndim != 2:
        raise InputFormatError(f"{path}: expected 2-D embedding matrix, got shape {arr.shape}")
    return EmbeddingMatrix(data=arr, role=role)


def read_array(path: str | Path) -> np.ndarray:
    """Read a TSB1 file of any rank as a float64 array."""
    return _read_tsb1(path)


# ---------------------------------------------------------------------------
# Conditions (JSONL), schema and splits (JSON)
# ---------------------------------------------------------------------------


def load_json(path: str | Path):
    """Parse a JSON file; malformed JSON raises InputFormatError naming the file and line."""
    return _parse_json(Path(path).read_text(encoding="utf-8"), path)


def load_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, document)`` for each non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, _parse_json(line, path, lineno)


def _parse_json(text: str, path: str | Path, lineno: int = 0):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{lineno or exc.lineno}: bad JSON: {exc.msg}") from exc


def dump_jsonl(docs: Iterable[Mapping], path: str | Path) -> None:
    """Write one compact, key-sorted JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def dump_json(obj, path: str | Path) -> None:
    """Write ``obj`` as canonical JSON plus a trailing newline."""
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def write_conditions(records: Sequence[ConditionRecord], path: str | Path) -> None:
    dump_jsonl(
        (
            {"sample_id": rec.sample_id, "text": rec.text, "attrs": dict(rec.attrs), "label": rec.label}
            for rec in records
        ),
        path,
    )


def read_conditions(path: str | Path) -> list[ConditionRecord]:
    records = []
    for lineno, doc in load_jsonl(path):
        try:
            records.append(
                ConditionRecord(
                    sample_id=str(doc["sample_id"]),
                    text=str(doc["text"]),
                    attrs={str(k): int(v) for k, v in doc["attrs"].items()},
                    label=int(doc["label"]),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}:{lineno}: bad condition record: {exc}") from exc
    return records


def write_schema(schema: AttributeSchema, path: str | Path) -> None:
    dump_json(schema.to_dict(), path)


def read_schema(path: str | Path) -> AttributeSchema:
    return AttributeSchema.from_dict(load_json(path))


def write_splits(splits: Mapping[str, Sequence[int]], path: str | Path) -> None:
    dump_json({name: [int(i) for i in idx] for name, idx in splits.items()}, path)


def read_splits(path: str | Path) -> dict[str, list[int]]:
    return {str(k): [int(i) for i in v] for k, v in load_json(path).items()}


# ---------------------------------------------------------------------------
# Canonical JSON and metric reports
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats.

    Deterministic across runs and platforms; NaN/Inf are rejected.
    """
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise InputFormatError("non-finite value in canonical JSON output")
        out.append(format(v, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputFormatError("canonical JSON keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise InputFormatError(f"cannot canonicalize value of type {type(obj).__name__}")


def report_to_dict(report: MetricReport) -> dict:
    return {
        "context": {
            "dataset_id": report.context.dataset_id,
            "model_id": report.context.model_id,
            "seed": report.context.seed,
        },
        "entries": [
            {"metric": e.metric_name, "value": e.value, "direction": e.direction}
            for e in sorted(report.entries, key=lambda e: e.metric_name)
        ],
    }


def emit_report(report: MetricReport, path: str | Path) -> None:
    """Write a metric report as canonical JSON; equal reports are byte-equal."""
    dump_json(report_to_dict(report), path)


def read_report(path: str | Path) -> MetricReport:
    doc = load_json(path)
    try:
        ctx = ReportContext(
            dataset_id=str(doc["context"]["dataset_id"]),
            model_id=str(doc["context"]["model_id"]),
            seed=int(doc["context"]["seed"]),
        )
        entries = tuple(
            MetricEntry(
                metric_name=str(e["metric"]),
                value=float(e["value"]),
                direction=str(e["direction"]),
            )
            for e in doc["entries"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: bad report JSON: {exc}") from exc
    return MetricReport(entries=entries, context=ctx)
