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
import os
import stat
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from seriesbench.core import (
    AttributeSchema,
    ConditionRecord,
    ConditionTable,
    EmbeddingMatrix,
    InputFormatError,
    MetricEntry,
    MetricReport,
    ReportContext,
    TimeSeriesTensor,
    as_condition_table,
    vector_keys,
)

_MAGIC = "TSB1"
_HEADER_LIMIT = 4096  # sane upper bound for one header line
_PIPE_CHUNK = 1 << 18  # a payload is read, widened or narrowed at most this many bytes at a time


def write_tensor(t: TimeSeriesTensor | EmbeddingMatrix | np.ndarray, path: str | Path) -> None:
    """Write an array as a TSB1 file (float32 payload).

    Narrowing to float32 is monotone, so the array's min and max alone tell
    whether a value leaves float32's range; they are checked before the file
    is opened, so a refused array leaves no file.  The payload is then
    narrowed once, in C-contiguous pieces of leading-axis rows of at most
    ``_PIPE_CHUNK`` bytes (one row when a row is longer), and written.
    """
    arr = t.data if isinstance(t, (TimeSeriesTensor, EmbeddingMatrix)) else np.asarray(t)
    if arr.ndim == 0:
        raise InputFormatError("refusing to write a 0-d array: a TSB1 shape needs a dimension")
    if arr.dtype.kind not in "biuf":  # a cast would drop imaginary parts or fail on text
        raise InputFormatError(f"refusing to write a {arr.dtype} array: TSB1 holds real numbers")
    with np.errstate(over="ignore"):  # a finite value beyond float32's range casts to inf
        # min and max are NaN when any value is, and allocate no mask
        if arr.size and not np.isfinite(np.float32([arr.min(), arr.max()])).all():
            raise InputFormatError("refusing to write values that are non-finite in float32")
    header = {
        "magic": _MAGIC,
        "dtype": "f32",
        "shape": list(arr.shape),
        "order": "row_major",
        "byte_order": "little",
    }
    rows = max(1, _PIPE_CHUNK // max(4 * math.prod(arr.shape[1:]), 1))
    buffer = np.empty((min(rows, len(arr)),) + arr.shape[1:], dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for start in range(0, len(arr), rows):
            piece = buffer[: len(arr) - start]
            np.copyto(piece, arr[start : start + rows])
            fh.write(piece)  # the piece's own buffer: no bytes copy


def _truncated(path: str | Path, expected: int, found: int) -> InputFormatError:
    shown = found if found < expected else f">{expected}"
    return InputFormatError(f"{path}: truncated payload, expected {expected} bytes, found {shown}")


def _read_tsb1(path: str | Path) -> np.ndarray:
    """The payload of a TSB1 file as a frozen float64 array that owns its memory."""
    with open(path, "rb") as fh:
        head = fh.readline(_HEADER_LIMIT)
        if not head.endswith(b"\n"):
            raise InputFormatError(f"{path}: missing or oversized TSB1 header line")
        try:
            header = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InputFormatError(f"{path}: unparseable TSB1 header: {exc}") from exc
        if not isinstance(header, dict):
            raise InputFormatError(f"{path}: TSB1 header is not a JSON object")
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
            or not all(type(d) is int and d >= 0 for d in shape)  # a bool is no dimension
        ):
            raise InputFormatError(f"{path}: bad shape {shape!r}")
        expected = math.prod(shape) * 4  # Python ints: a huge shape cannot wrap
        # the size of a regular file bounds the payload before anything is
        # allocated, and a pipe's payload is read in chunks until it ends, so
        # a lying header cannot ask for more memory than the input holds
        info = os.fstat(fh.fileno())
        pipe = not stat.S_ISREG(info.st_mode)
        if pipe:
            raw = bytearray()
            while len(raw) <= expected and (chunk := fh.read(min(_PIPE_CHUNK, expected + 1 - len(raw)))):
                raw += chunk
        found = len(raw) if pipe else info.st_size - len(head)
        if found != expected:
            raise _truncated(path, expected, found)
        try:
            arr = np.empty(shape)
        except ValueError as exc:  # an empty payload with an unrepresentable shape
            raise InputFormatError(f"{path}: bad shape {shape!r}: {exc}") from exc
        values = arr.reshape(-1)
        if pipe:
            values[:] = np.frombuffer(raw, dtype="<f4")
        else:  # widened a chunk at a time, so the float32 payload is never whole in memory
            chunk = np.empty(min(values.size, _PIPE_CHUNK // 4), dtype="<f4")
            found = 0
            while found < expected and (got := fh.readinto(memoryview(chunk).cast("B")[: expected - found])):
                if got % 4:  # the file shrank after its size was read
                    raise _truncated(path, expected, found + got)
                values[found // 4 : (found + got) // 4] = chunk[: got // 4]
                found += got
            if found != expected:
                raise _truncated(path, expected, found)
        # min and max are NaN or infinite when any value is, and allocate no mask
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise InputFormatError(f"{path}: payload contains non-finite values")
        arr.setflags(write=False)  # frozen and owning its memory: the wrappers share it
        return arr


def read_tensor(path: str | Path) -> TimeSeriesTensor:
    """Read a TSB1 file holding a 3-D (N, L, F) series tensor."""
    arr = _read_tsb1(path)
    if arr.ndim != 3:
        raise InputFormatError(f"{path}: expected 3-D series tensor, got shape {arr.shape}")
    return TimeSeriesTensor(data=arr)


def read_embedding(path: str | Path) -> EmbeddingMatrix:
    """Read a TSB1 file holding a 2-D (N, d) embedding matrix."""
    arr = _read_tsb1(path)
    if arr.ndim != 2:
        raise InputFormatError(f"{path}: expected 2-D embedding matrix, got shape {arr.shape}")
    return EmbeddingMatrix(data=arr)


def read_array(path: str | Path) -> np.ndarray:
    """Read a TSB1 file of any rank as a read-only float64 array."""
    return _read_tsb1(path)


# ---------------------------------------------------------------------------
# Conditions (JSONL), schema and splits (JSON)
# ---------------------------------------------------------------------------


_CONDITION_SHAPE = {"sample_id": str, "text": str, "attrs": {str: int}, "label": int}
SCHEMA_SHAPE = {"attributes": [{"name": str, "definition?": str, "values": [str]}]}
_REPORT_SHAPE = {
    "context": {"dataset_id": str, "model_id": str, "seed": int},
    "entries": [{"metric": str, "value": float, "direction": str}],
}
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}
_ABSENT = object()  # the value of a missing key


def _checker(shape) -> Callable[[object], tuple | None]:
    """The check of a document against ``shape`` (see ``load_json``), built once per shape.

    The check returns None if the document has ``shape``, else (shape,
    value, *JSON path keys, innermost first) for the first value that departs
    from it.  A bool is no int; a subclass, such as a library caller's
    ``np.str_``, passes as its base.  A field of its exact type needs no
    call, and the items of a list or map of plain leaves are tested as one
    set of types.
    """
    if shape is float:  # NaN and +-inf fail the comparison
        return lambda v: None if type(v) in (int, float) and abs(v) <= sys.float_info.max else (shape, v)
    kind = shape if isinstance(shape, type) else type(shape)
    if kind is not list and kind is not dict:
        return lambda v: None if isinstance(v, kind) and type(v) is not bool else (shape, v)
    plain = lambda sub: sub if isinstance(sub, type) and sub is not float else None  # no value's type is None
    if kind is dict and str not in shape:
        fields = [(key.rstrip("?"), key[-1] == "?", plain(sub), _checker(sub)) for key, sub in shape.items()]

        def check(v):
            if not isinstance(v, dict):
                return shape, v
            for key, optional, exact, sub in fields:
                item = v.get(key, _ABSENT)
                # an absent optional key is not checked
                if type(item) is not exact and not (optional and item is _ABSENT) and (bad := sub(item)):
                    return (*bad, key)
            return None
        return check
    item_shape = shape[0] if kind is list else shape[str]
    exact, sub = plain(item_shape), _checker(item_shape)

    def check(v):  # a list is checked as an object keyed by index
        if not isinstance(v, kind):
            return shape, v
        if exact and {exact}.issuperset(map(type, v if kind is list else v.values())):
            return None
        for key, item in enumerate(v) if kind is list else v.items():
            if type(item) is not exact and (bad := sub(item)):
                return (*bad, key)
        return None
    return check


def _explain(bad: tuple) -> str:
    """The text of a failure of ``_checker``: ``.key[i]: expected <kind>, got <value>``."""
    want, value, *keys = bad  # the location is built here only, not for every value
    where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(keys))
    # a library caller's document may hold values that are no JSON: shown by their repr
    got = "nothing" if value is _ABSENT else json.dumps(value, ensure_ascii=False, default=repr)[:40]
    return f"{where}: expected {_KINDS[want if isinstance(want, type) else type(want)]}, got {got}"


def shape_problem(doc, shape) -> str | None:
    """Where and how a parsed document departs from ``shape`` (see ``load_json``), or None if it has it.

    The text is ``_checker``'s failure as ``.key[i]: expected <kind>, got
    <value>``, with no location for the document itself; a caller prefixes
    what the document is.
    """
    return _explain(bad) if (bad := _checker(shape)(doc)) else None


def _load(text: str, shape, path: str | Path, lineno: int = 0):
    """Parse one JSON document and check it against ``shape``; see ``load_json``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{lineno or exc.lineno}: bad JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer literal, too deep nesting
        raise InputFormatError(f"{path}{f':{lineno}' if lineno else ''}: bad JSON: {exc}") from exc
    if problem := shape_problem(doc, shape):
        raise InputFormatError(f"{path}{f':{lineno}' if lineno else ''}{problem}")
    return doc


def load_json(path: str | Path, shape):
    """Parse a JSON file and check it against ``shape``; a fault raises InputFormatError.

    Shapes: ``int`` a JSON integer, not a bool; ``float`` a finite number (ints
    pass, the caller applies ``float()``); ``str``; ``[item]`` a list;
    ``{str: value}`` an object with any keys; ``{"key": value, "key?": value}``
    an object with each key not marked optional by ``?``, unlisted keys passing;
    ``{}`` any object.
    """
    return _load(Path(path).read_text(encoding="utf-8"), shape, path)


_scan = json.JSONDecoder().scan_once  # the parser of json.loads, without its whitespace and BOM steps


def load_jsonl(path: str | Path, shape) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, document)`` per non-blank line, each checked against ``shape``.

    One check, built once from ``shape`` by ``_checker``, serves every line.
    A line that is one JSON value and a newline is parsed once: its document
    is accepted, or the check's failure names the line's fault.  Any other
    line goes through ``_load``, which accepts it or raises the error that
    explains it; a blank line (one that ``str.strip`` empties) is skipped.
    """
    check = _checker(shape)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                doc, end = _scan(line, 0)
                parsed = line[end:] in ("\n", "")
            except (StopIteration, ValueError, RecursionError):  # no value at 0, bad JSON, a deep or long literal
                parsed = False
            if not parsed:
                if line.strip():
                    yield lineno, _load(line, shape, path, lineno)
            elif bad := check(doc):
                raise InputFormatError(f"{path}:{lineno}{_explain(bad)}")
            else:
                yield lineno, doc


def dump_jsonl(docs: Iterable[Mapping], path: str | Path) -> None:
    """Write one compact, key-sorted JSON object per line."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(encode(doc))
            fh.write("\n")


def dump_json(obj, path: str | Path) -> None:
    """Write ``obj`` as canonical JSON plus a trailing newline."""
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


# records per piece: ~115 KiB of Synth lines, below glibc's first 128 KiB mmap threshold, so freeing a
# piece does not raise the threshold and leave later allocations on the heap
_CONDITION_ROWS = 256


def write_conditions(conditions: ConditionTable | Sequence[ConditionRecord], path: str | Path) -> None:
    """Write conditions as JSONL: the bytes ``dump_jsonl`` writes for each record as one object.

    Each line is formatted from the template of its record's ``held`` row,
    which lists the names it holds sorted, ``_CONDITION_ROWS`` records at a
    time.
    """
    table = as_condition_table(conditions)
    encode = json.encoder.encode_basestring_ascii  # the string form of dump_jsonl's ensure_ascii encoder
    held_keys = vector_keys(table.held, [2] * len(table.attr_names))
    _, first, kind = np.unique(held_keys, return_index=True, return_inverse=True)
    order = sorted(range(len(table.attr_names)), key=table.attr_names.__getitem__)
    columns = [[c for c in order if table.held[i, c]] for i in first.tolist()]  # the names each template holds
    keys = [encode(name).replace("%", "%%") + ":%d" for name in table.attr_names]
    templates = ['{"attrs":{' + ",".join(map(keys.__getitem__, cols)) + '},"label":%d,"sample_id":%s,"text":%s}\n'
                 for cols in columns]
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(table), _CONDITION_ROWS):
            piece = slice(start, start + _CONDITION_ROWS)
            rows = zip(kind[piece].tolist(), table.values[piece].tolist(), table.labels[piece].tolist(),
                       table.sample_ids[piece], table.texts[piece])
            fh.write("".join([
                templates[k] % (*map(row.__getitem__, columns[k]), label, encode(sample_id), encode(text))
                for k, row, label, sample_id, text in rows
            ]))


def read_conditions(path: str | Path) -> ConditionTable:
    """The conditions of a JSONL file as a table, each line checked against the conditions shape.

    A line holding an integer beyond int64, which the table cannot hold,
    raises ``InputFormatError``; it is found a piece of rows at a time, so a
    malformed line later in the same piece is reported before it.
    """
    docs = load_jsonl(path, _CONDITION_SHAPE)
    try:
        return ConditionTable.from_rows((d["sample_id"], d["text"], d["attrs"], d["label"], lineno) for lineno, d in docs)
    except OverflowError as exc:  # its row ends with the line number
        row, problem = exc.args
        raise InputFormatError(f"{path}:{row[-1]}: {problem}") from None


def write_schema(schema: AttributeSchema, path: str | Path) -> None:
    dump_json(schema.to_dict(), path)


def read_schema(path: str | Path) -> AttributeSchema:
    return AttributeSchema.from_dict(load_json(path, SCHEMA_SHAPE))


def write_splits(splits: Mapping[str, Sequence[int]], path: str | Path) -> None:
    dump_json({name: [int(i) for i in idx] for name, idx in splits.items()}, path)


def read_splits(path: str | Path) -> dict[str, list[int]]:
    return load_json(path, {str: [int]})


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
    doc = load_json(path, _REPORT_SHAPE)
    c = doc["context"]
    entries = (MetricEntry(e["metric"], float(e["value"]), e["direction"]) for e in doc["entries"])
    return MetricReport(tuple(entries), ReportContext(c["dataset_id"], c["model_id"], c["seed"]))
