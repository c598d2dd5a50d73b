"""Shared data model: series tensors, conditions, embeddings, metric reports.

Alignment across files is positional: record ``i`` of a conditions file, row
``i`` of an embedding matrix and sample ``i`` of a series tensor all describe
the same sample.  ``sample_id`` is an opaque string carried along for
provenance only.

All payloads are float32 on disk and widened to float64 for arithmetic; the
types below always hold float64.  Instances are immutable after construction
(arrays are marked read-only) and safe to share across threads.

Every array input meets one contract, checked by ``checked_array``: the
expected number of dimensions, no zero-length dimension and finite values.
The wrappers check it once; ``as_series_array`` and ``as_embedding_array``
return a wrapper's array as it is and check a plain ndarray like a wrapper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


class InputFormatError(ValueError):
    """Malformed input file or payload (CLI exit code 2)."""


class ContractViolation(ValueError):
    """Operation precondition violated by otherwise well-formed data (CLI exit code 3)."""


class ProposerError(RuntimeError):
    """Schema proposer unreachable or persistently unparseable (CLI exit code 4)."""


def checked_array(data: np.ndarray | Sequence, ndim: int, what: str) -> np.ndarray:
    """``data`` as a float64 array (as it is if it is one) that meets the array contract."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim:
        raise ContractViolation(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractViolation(f"{what} must have no zero-length dimension, got shape {arr.shape}")
    # min and max are NaN or infinite when any value is, and allocate no mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ContractViolation(f"{what} contains non-finite values")
    return arr


def _frozen_float64(data: np.ndarray | Sequence, ndim: int, what: str) -> np.ndarray:
    keep = isinstance(data, np.ndarray) and data.dtype == np.float64 and data.base is None and not data.flags.writeable
    # a frozen array owning its memory is shared as is; a copy keeps a writeable one from being aliased
    arr = checked_array(data if keep else np.array(data, dtype=np.float64), ndim, what)
    arr.setflags(write=False)
    return arr


def row_norms(x: np.ndarray, what: str) -> np.ndarray:
    """Norms of ``x`` over its last axis, kept as an axis; a zero or overflowing norm raises, unwarned."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ContractViolation(f"zero-norm or overflowing row in {what}")
    return norms


@dataclass(frozen=True)
class TimeSeriesTensor:
    """A batch of series with shape (n_samples, length, n_features)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen_float64(self.data, 3, "series tensor"))

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    @property
    def n_features(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """(n_samples, dim) vectors from an external encoder."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen_float64(self.data, 2, "embedding matrix"))


@dataclass(frozen=True)
class Attribute:
    """One named attribute with an ordered set of discrete value options."""

    name: str
    definition: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ContractViolation("attribute name must be non-empty")
        if len(self.values) < 2:
            raise ContractViolation(f"attribute {self.name!r} needs at least 2 values")
        if len(set(self.values)) != len(self.values):
            raise ContractViolation(f"attribute {self.name!r} has duplicate values")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is none."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _index_problem(name: str, idx, n_values: int) -> str | None:
    """Why ``idx`` is no value index, a non-bool integer in [0, n_values); None if it is one."""
    if not is_integer(idx):
        return f"value index {idx!r} of attribute {name!r} is not an integer"
    if not 0 <= idx < n_values:
        return f"value index {idx} out of range for attribute {name!r}"
    return None


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered list of attributes; the governing vocabulary for conditions."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ContractViolation("attribute names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def to_dict(self) -> dict:
        return {
            "attributes": [
                {"name": a.name, "definition": a.definition, "values": list(a.values)}
                for a in self.attributes
            ]
        }

    def misfit(self, attrs: Mapping[str, int]) -> str | None:
        """Describe the first attribute ``attrs`` lacks or indexes badly; None if it fits."""
        for a in self.attributes:
            if a.name not in attrs:
                return f"missing attribute {a.name!r}"
            if problem := _index_problem(a.name, attrs[a.name], len(a.values)):
                return problem
        return None

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AttributeSchema":
        """Build a schema from a document shaped like the one ``to_dict`` returns."""
        attrs = doc["attributes"]
        return cls(tuple(Attribute(a["name"], a.get("definition", ""), a["values"]) for a in attrs))


_INT64 = np.iinfo(np.int64)


def _int64_problem(value) -> str | None:
    """Why ``value`` is no integer that int64 holds (a bool is none); None if it is one."""
    if not is_integer(value):
        return "is not an integer"
    return None if _INT64.min <= int(value) <= _INT64.max else "lies outside int64"


@dataclass(frozen=True, slots=True)  # no per-record __dict__: a table hands out one per row it is asked for
class ConditionRecord:
    """Aligned (text, attribute-vector, class-label) triple for one sample.

    The constructor refuses what a ``ConditionTable`` cannot hold, with a
    ``ContractViolation`` that names the field: an id, text or attribute name
    that is no string, and a value index or label that is no integer in
    int64's range (a bool is none).  A NumPy integer is kept as an int, and
    an attribute name of a str subclass as a str.
    """

    sample_id: str
    text: str
    attrs: Mapping[str, int]
    label: int

    def __post_init__(self) -> None:
        attrs = dict(self.attrs)
        for what, value in ("sample_id", self.sample_id), ("text", self.text), *(("attribute name", n) for n in attrs):
            if not isinstance(value, str):
                raise ContractViolation(f"{what} {value!r} is not a string")
        for name, idx in attrs.items():
            if problem := _int64_problem(idx):
                raise ContractViolation(f"value index {idx!r} of attribute {name!r} {problem}")
        if problem := _int64_problem(self.label):
            raise ContractViolation(f"label {self.label!r} {problem}")
        object.__setattr__(self, "attrs", {str(name): int(idx) for name, idx in attrs.items()})
        object.__setattr__(self, "label", int(self.label))


_ROWS_PER_PIECE = 1024


@dataclass(frozen=True, eq=False)
class ConditionTable:
    """A conditions set as columns; row ``i`` is the record of sample ``i``.

    ``values`` is an (N, A) int64 matrix of value indices, one column per
    attribute name in ``attr_names``, ``labels`` an (N,) int64 column, and
    ``held`` an (N, A) bool mask of the attributes each record holds; a value
    a record does not hold is ignored.  By default every record holds every
    name.  The constructor refuses, with ``ContractViolation``, ids, texts or
    names that are no strings, and values or labels whose dtype is no integer
    one that int64 holds (a bool is none).

    Indexing, and so iteration, yields ``ConditionRecord`` row views with
    Python ints, whose attributes are in column order.
    """

    sample_ids: Sequence[str]
    texts: Sequence[str]
    attr_names: Sequence[str]
    values: np.ndarray
    labels: np.ndarray
    held: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("sample_ids", "texts", "attr_names"):
            column = tuple(getattr(self, name))
            if odd := [v for v in column if not isinstance(v, str)]:
                raise ContractViolation(f"condition {name} must be strings, got {odd[0]!r}")
            object.__setattr__(self, name, column)
        n, a = len(self.sample_ids), len(self.attr_names)
        if len(self.texts) != n:
            raise ContractViolation(f"condition columns differ in length: {n} sample ids, {len(self.texts)} texts")
        held = np.ones((n, a), dtype=bool) if self.held is None else self.held
        for name, data, shape in ("values", self.values, (n, a)), ("labels", self.labels, (n,)), ("held", held, (n, a)):
            column = np.asarray(data)
            # an empty list reads as float64, and holds nothing to refuse
            if name != "held" and column.size and (column.dtype == bool or not np.can_cast(column.dtype, np.int64)):
                raise ContractViolation(f"condition {name} must be integers that int64 holds, got dtype {column.dtype}")
            column = column.astype(bool if name == "held" else np.int64, copy=False).reshape(shape)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ConditionTable":
        """The table of ``(sample_id, text, attrs, label, *where)`` rows, ``attrs`` a dict of names to integers.

        The rows are taken as ``ConditionRecord`` or the conditions grammar
        hold them: only an integer beyond int64 is found, and it raises
        ``OverflowError(row, problem)``; a row's fields past its fourth, such
        as the line a reader took it from, serve that error only.  The columns
        are the names in the order the rows first hold them.  Rows are taken
        ``_ROWS_PER_PIECE`` at a time, so a reader's parsed documents are
        freed a piece at a time, not held whole.
        """
        sample_ids, texts, layout = [], [], []
        labels, flat = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]  # int64 pieces
        layout_of: dict[tuple, int] = {}  # each order of names a row holds, numbered
        rows = iter(rows)
        while piece := list(itertools.islice(rows, _ROWS_PER_PIECE)):
            piece_ids, piece_texts, piece_attrs, piece_labels, *_ = zip(*piece)
            try:
                labels.append(np.array(piece_labels, dtype=np.int64))
                flat.append(np.array([*itertools.chain.from_iterable(map(dict.values, piece_attrs))], dtype=np.int64))
            except OverflowError:  # the record of the first row beyond int64 names it
                for row in piece:
                    try:
                        ConditionRecord(*row[:4])
                    except ContractViolation as exc:
                        raise OverflowError(row, str(exc)) from None
            sample_ids += piece_ids
            texts += piece_texts
            layout += [layout_of.setdefault(tuple(keys), len(layout_of)) for keys in piece_attrs]
        names = tuple(dict.fromkeys(itertools.chain.from_iterable(layout_of)))
        layout = np.array(layout, dtype=np.intp)
        flat, labels = np.concatenate(flat), np.concatenate(labels)
        sizes = np.array([len(keys) for keys in layout_of], dtype=np.intp)[layout]
        starts = np.cumsum(sizes) - sizes  # where each row's values begin in ``flat``
        values = np.zeros((len(layout), len(names)), dtype=np.int64)
        held = np.zeros(values.shape, dtype=bool)
        for i, keys in enumerate(layout_of):
            rows_i, cols = np.flatnonzero(layout == i)[:, None], list(map(names.index, keys))
            values[rows_i, cols] = flat[starts[rows_i] + np.arange(len(cols))]
            held[rows_i, cols] = True
        return cls(sample_ids, texts, names, values, labels, held)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, i: int) -> ConditionRecord:
        i = range(len(self))[i]  # a negative index counts from the end; one out of range raises IndexError
        attrs = {name: v for name, h, v in zip(self.attr_names, self.held[i].tolist(), self.values[i].tolist()) if h}
        return ConditionRecord(self.sample_ids[i], self.texts[i], attrs, int(self.labels[i]))

    def _fit(self, schema: AttributeSchema) -> tuple[list[int], np.ndarray, np.ndarray]:
        """How the records fit ``schema``: (columns, bad, missing).

        ``columns[s]`` is the column of schema attribute ``s``, -1 when no
        record holds it; ``bad`` (N, A) marks the values a record holds that
        are no value index of their schema attribute, and every value of a
        column outside the schema; ``missing`` (N, S) the schema attributes a
        record lacks.
        """
        options = {a.name: len(a.values) for a in schema.attributes}
        limits = np.array([options.get(name, 0) for name in self.attr_names], dtype=np.int64)
        bad = ((self.values < 0) | (self.values >= limits)) & self.held
        columns = [self.attr_names.index(name) if name in self.attr_names else -1 for name in schema.names]
        missing = ~np.pad(self.held, ((0, 0), (0, 1)))[:, columns]  # column -1 is the pad, which no record holds
        return columns, bad, missing

    def vectors(self, schema: AttributeSchema) -> np.ndarray:
        """The (N, S) attribute vectors in schema order; extra attributes are ignored.

        The first record that lacks a schema attribute or indexes one badly
        raises ``ContractViolation``, named by its sample id.
        """
        columns, bad, missing = self._fit(schema)
        faulty = missing.any(axis=1) | bad[:, [c for c in columns if c >= 0]].any(axis=1)
        if faulty.any():
            i = int(faulty.argmax())
            raise ContractViolation(f"record {self.sample_ids[i]!r}: {schema.misfit(self[i].attrs)}")
        # with no fault, a schema attribute no record holds means there is no record
        return self.values[:, columns] if len(self) else np.zeros((0, len(columns)), dtype=np.int64)


def as_condition_table(conditions: ConditionTable | Iterable[ConditionRecord]) -> ConditionTable:
    """Conditions as a table: a table as it is, records through ``ConditionTable.from_rows``."""
    if isinstance(conditions, ConditionTable):
        return conditions
    return ConditionTable.from_rows((r.sample_id, r.text, r.attrs, r.label) for r in conditions)


@dataclass(frozen=True)
class MetricEntry:
    metric_name: str
    value: float
    direction: str  # "higher_better" | "lower_better"

    def __post_init__(self) -> None:
        if self.direction not in ("higher_better", "lower_better"):
            raise ContractViolation(f"unknown direction {self.direction!r}")
        if not np.isfinite(self.value):
            raise ContractViolation(f"metric {self.metric_name!r} has non-finite value")


@dataclass(frozen=True)
class ReportContext:
    dataset_id: str
    model_id: str
    seed: int


@dataclass(frozen=True)
class MetricReport:
    """Named scalar scores with direction flags; the unit of the rank protocol."""

    entries: tuple[MetricEntry, ...]
    context: ReportContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        names = [e.metric_name for e in self.entries]
        if len(set(names)) != len(names):
            raise ContractViolation("metric names must be unique within a report")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_dataset; violations are data, not failures."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def vector_keys(vectors: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """One int64 per row of ``vectors`` (N, S), equal for equal rows; column ``s`` lies in [0, sizes[s])."""
    keys = np.zeros(len(vectors), dtype=np.int64)
    span = 1  # keys lie in [0, span)
    for column, size in zip(vectors.T, sizes):
        if span * size > _INT64.max:  # a mixed-radix key would overflow: number the distinct keys so far
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
            span = len(vectors)
        keys = keys * size + column
        span *= size
    return keys


def validate_dataset(
    series: TimeSeriesTensor,
    conditions: ConditionTable | Sequence[ConditionRecord],
    schema: AttributeSchema,
) -> ValidationReport:
    """Cross-check a (series, conditions, schema) triple.

    Reported violations: sample-count mismatch, attribute names outside the
    schema, schema attributes a record lacks, value indices out of range,
    negative labels, and label inconsistency (two records with identical
    attribute vectors must carry the same label; only records with no
    attribute violation take part in it).  A value or label that is no
    integer cannot reach here: ``ConditionRecord`` and ``ConditionTable``
    refuse it.  Series values are finite by construction: the
    ``TimeSeriesTensor`` constructor refuses anything else.  A passing report
    is the precondition every metric operation assumes.

    The checks are array operations over the table's columns; messages are
    formatted for the flagged records only, in record order, and within a
    record: its attributes in column order, the missing ones in schema
    order, then its label.
    """
    table = as_condition_table(conditions)
    violations: list[str] = []
    if series.n_samples != len(table):
        violations.append(
            f"count mismatch: {series.n_samples} series vs {len(table)} condition records"
        )

    options = {a.name: len(a.values) for a in schema.attributes}
    columns, bad, missing = table._fit(schema)
    attr_fault = bad.any(axis=1) | missing.any(axis=1)
    labels = table.labels
    # label consistency: each record with a vector against the first with its vector
    rows = np.flatnonzero(~attr_fault)
    earlier = np.arange(len(table))  # a record without a vector is its own earlier record
    if rows.size:
        keys = vector_keys(table.values[rows][:, columns], [len(a.values) for a in schema.attributes])
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        earlier[rows] = rows[first[group.reshape(-1)]]
    inconsistent = labels != labels[earlier]

    for i in np.flatnonzero(attr_fault | (labels < 0) | inconsistent).tolist():
        for c in np.flatnonzero(bad[i]).tolist():
            name, idx = table.attr_names[c], int(table.values[i, c])
            problem = _index_problem(name, idx, options[name]) if name in options else f"unknown attribute {name!r}"
            violations.append(f"record {i}: {problem}")
        violations.extend(f"record {i}: missing attribute {name!r}" for name, gone in zip(schema.names, missing[i]) if gone)
        if labels[i] < 0:
            violations.append(f"record {i}: label {labels[i]} is negative")
        if inconsistent[i]:
            violations.append(
                f"record {i}: label {labels[i]} inconsistent with earlier label "
                f"{labels[earlier[i]]} for the same attribute vector"
            )
    return ValidationReport(violations=tuple(violations))


def as_series_array(x: TimeSeriesTensor | np.ndarray) -> np.ndarray:
    """A tensor argument as a float64 (N, L, F) array; a plain array is checked like a tensor."""
    return x.data if isinstance(x, TimeSeriesTensor) else checked_array(x, 3, "series tensor")


def as_embedding_array(x: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """An embedding argument as a float64 (N, d) array; a plain array is checked like a matrix."""
    return x.data if isinstance(x, EmbeddingMatrix) else checked_array(x, 2, "embedding matrix")
