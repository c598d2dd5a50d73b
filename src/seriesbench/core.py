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

import functools
import itertools
import operator
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


@dataclass(frozen=True, slots=True)  # no per-record __dict__: a table hands out one per row it is asked for
class ConditionRecord:
    """Aligned (text, attribute-vector, class-label) triple for one sample."""

    sample_id: str
    text: str
    attrs: Mapping[str, int]
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", dict(self.attrs))


_INT64 = np.iinfo(np.int64)


def _int64_column(items: list) -> tuple[np.ndarray, dict[int, object]]:
    """``items`` as an int64 array, and {position: item} of the items that are no integer in int64's range.

    Such an item (a bool, a non-integer, an integer beyond int64) is kept as
    given, a NumPy integer as an int, and its position in the array holds 0.
    """
    if set(map(type, items)) <= {int}:
        try:
            return np.array(items, dtype=np.int64), {}
        except OverflowError:  # an int beyond int64, found below
            pass
    odd = {
        i: int(v) if is_integer(v) else v
        for i, v in enumerate(items)
        if not (is_integer(v) and _INT64.min <= int(v) <= _INT64.max)
    }
    items = list(items)
    for i in odd:
        items[i] = 0
    return np.array(items, dtype=np.int64), odd


_ROWS_PER_PIECE = 1024


def _columns(names: tuple, layouts: tuple) -> list[list[int]]:
    """The columns of each layout's keys, in the layout's order; equal names share a column."""
    column_of = {name: c for c, name in enumerate(names)}
    return [[column_of[key] for key in keys] for keys in layouts]


@dataclass(frozen=True, eq=False)
class ConditionTable:
    """A conditions set as columns; row ``i`` is the record of sample ``i``.

    ``values`` is an (N, A) int64 matrix of value indices, one column per
    attribute name in ``attr_names``, and ``labels`` an (N,) int64 column.  Record
    ``i`` holds the attributes ``layouts[layout[i]]``, its own keys in its own
    order and spelling; a column it does not hold reads 0.  A value or label
    that is no integer in int64's range (a bool, a non-integer, an integer
    beyond int64) reads 0 and is kept as given in ``odd_values[(i, column)]``
    or ``odd_labels[i]``.  So the table keeps everything a check of a record
    reports.  By default every record holds every name, in column order.

    Indexing and iteration yield ``ConditionRecord`` row views with Python
    ints; a slice is a table.  Two tables are equal when their rows are.
    """

    sample_ids: Sequence[str]
    texts: Sequence[str]
    attr_names: tuple
    values: np.ndarray
    labels: np.ndarray
    layouts: tuple[tuple, ...] | None = None
    layout: np.ndarray | None = None
    odd_values: Mapping[tuple[int, int], object] = field(default_factory=dict)
    odd_labels: Mapping[int, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.sample_ids)
        for name in ("sample_ids", "texts", "attr_names"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.layouts is None:
            object.__setattr__(self, "layouts", (self.attr_names,))
            object.__setattr__(self, "layout", np.zeros(n, dtype=np.intp))
        if not len(self.texts) == len(self.layout) == n:
            raise ContractViolation(
                f"condition columns differ in length: {n} sample ids, {len(self.texts)} texts, "
                f"{len(self.layout)} layouts"
            )
        columns = {
            "values": np.asarray(self.values, dtype=np.int64).reshape(n, len(self.attr_names)),
            "labels": np.asarray(self.labels, dtype=np.int64).reshape(n),
            "layout": np.asarray(self.layout, dtype=np.intp).reshape(n),
        }
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "ConditionTable":
        """The table of ``(sample_id, text, attrs, label)`` rows, ``attrs`` a dict, taken as they are: nothing is checked.

        Rows are taken ``_ROWS_PER_PIECE`` at a time, so a reader's parsed
        documents are freed a piece at a time, not held whole.
        """
        sample_ids, texts, labels, flat, layout = [], [], [], [], []
        layout_of: dict[tuple, int] = {}  # keys, then their types: 1 and True are spelled apart
        rows = iter(rows)
        while piece := list(itertools.islice(rows, _ROWS_PER_PIECE)):
            piece_ids, piece_texts, piece_attrs, piece_labels = zip(*piece)
            sample_ids += piece_ids
            texts += piece_texts
            labels += piece_labels
            layout += [layout_of.setdefault((*keys, *map(type, keys)), len(layout_of)) for keys in piece_attrs]
            flat += itertools.chain.from_iterable(map(dict.values, piece_attrs))
        layouts = tuple(key[: len(key) // 2] for key in layout_of)
        names = tuple(dict.fromkeys(name for keys in layouts for name in keys))  # equal names share a column
        table_columns = _columns(names, layouts)
        layout = np.array(layout, dtype=np.intp)
        flat, odd_flat = _int64_column(flat)
        sizes = np.array([len(keys) for keys in layouts], dtype=np.intp)[layout]
        starts = np.cumsum(sizes) - sizes  # where each row's values begin in ``flat``
        values = np.zeros((len(layout), len(names)), dtype=np.int64)
        for i, cols in enumerate(table_columns):
            rows_i = np.flatnonzero(layout == i)
            values[rows_i[:, None], cols] = flat[starts[rows_i, None] + np.arange(len(cols))]
        odd_values = {}
        for pos, value in odd_flat.items():
            row = int(np.searchsorted(starts, pos, side="right")) - 1
            odd_values[row, table_columns[layout[row]][pos - starts[row]]] = value
        labels, odd_labels = _int64_column(labels)
        return cls(sample_ids, texts, names, values, labels, layouts, layout, odd_values, odd_labels)

    @functools.cached_property
    def layout_columns(self) -> list[list[int]]:
        """The columns of each layout's keys, in the layout's order."""
        return _columns(self.attr_names, self.layouts)

    def _label(self, i: int):
        return self.odd_labels.get(i, int(self.labels[i]))

    def __len__(self) -> int:
        return len(self.sample_ids)

    def _row(self, i: int) -> tuple:
        keys, cols = self.layouts[self.layout[i]], self.layout_columns[self.layout[i]]
        attrs = {key: self.odd_values.get((i, c), v) for key, c, v in zip(keys, cols, self.values[i, cols].tolist())}
        return self.sample_ids[i], self.texts[i], attrs, self._label(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ConditionTable.from_rows(map(self._row, range(len(self))[index]))
        return ConditionRecord(*self._row(range(len(self))[index]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConditionTable):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _fit(self, schema: AttributeSchema) -> tuple[list[int], np.ndarray, np.ndarray]:
        """How the records fit ``schema``: (columns, bad, missing).

        ``columns[s]`` is the column of schema attribute ``s``, -1 when no
        record holds it; ``bad`` (N, A) marks the values a record holds that
        are no value index of their schema attribute, and every value of a
        column outside the schema; ``missing`` (N, S) the schema attributes a
        record lacks.
        """
        options = {a.name: len(a.values) for a in schema.attributes}
        held = np.zeros((len(self.layouts), len(self.attr_names)), dtype=bool)
        for i, cols in enumerate(self.layout_columns):
            held[i, cols] = True
        held = held[self.layout]
        limits = np.array([options.get(name, 0) for name in self.attr_names], dtype=np.int64)
        bad = (self.values < 0) | (self.values >= limits)
        for cell in self.odd_values:
            bad[cell] = True
        bad &= held
        column_of = {name: c for c, name in enumerate(self.attr_names)}
        columns = [column_of.get(name, -1) for name in schema.names]
        missing = np.ones((len(self), len(columns)), dtype=bool)
        for s, c in enumerate(columns):
            if c >= 0:
                missing[:, s] = ~held[:, c]
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
            raise ContractViolation(f"record {self.sample_ids[i]!r}: {schema.misfit(self._row(i)[2])}")
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


def _vector_keys(vectors: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
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
    schema, schema attributes a record lacks, value indices that are not
    integers or out of range, labels that are not integers (a bool is not
    one) or negative, and label inconsistency (two records with identical
    attribute vectors must carry the same label; only records with no
    attribute violation and an integer label take part in it).
    Series values are finite by construction: the ``TimeSeriesTensor``
    constructor refuses anything else.  A passing report is the precondition
    every metric operation assumes.

    The checks are array operations over the table's columns; messages are
    formatted for the flagged records only, in record order, and within a
    record: its attributes in its own key order, the missing ones in schema
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
    label_of = table._label  # exact, an odd label included
    odd_label = np.zeros(len(table), dtype=bool)
    odd_label[list(table.odd_labels)] = True
    not_integer = np.zeros(len(table), dtype=bool)
    not_integer[[i for i, label in table.odd_labels.items() if not is_integer(label)]] = True
    negative = (table.labels < 0) & ~odd_label
    negative[[i for i, label in table.odd_labels.items() if is_integer(label) and label < 0]] = True
    # label consistency: each record with a vector and an integer label against the first with its vector
    rows = np.flatnonzero(~(attr_fault | not_integer))
    earlier = np.zeros(len(table), dtype=np.intp)
    if rows.size:
        keys = _vector_keys(table.values[rows][:, columns], [len(a.values) for a in schema.attributes])
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        earlier[rows] = rows[first[group.reshape(-1)]]
    inconsistent = np.zeros(len(table), dtype=bool)
    inconsistent[rows] = table.labels[rows] != table.labels[earlier[rows]]
    for i in rows[odd_label[rows] | odd_label[earlier[rows]]].tolist():  # an odd label compares exactly
        inconsistent[i] = label_of(i) != label_of(earlier[i])

    for i in np.flatnonzero(attr_fault | not_integer | negative | inconsistent).tolist():
        _, _, attrs, label = table._row(i)
        for (name, idx), c in zip(attrs.items(), table.layout_columns[table.layout[i]]):
            if bad[i, c]:
                problem = _index_problem(name, idx, options[name]) if name in options else f"unknown attribute {name!r}"
                violations.append(f"record {i}: {problem}")
        violations.extend(f"record {i}: missing attribute {name!r}" for name, gone in zip(schema.names, missing[i]) if gone)
        if not_integer[i]:
            violations.append(f"record {i}: label {label!r} is not an integer")
            continue
        if negative[i]:
            violations.append(f"record {i}: label {label} is negative")
        if inconsistent[i]:
            violations.append(
                f"record {i}: label {label} inconsistent with earlier label "
                f"{label_of(earlier[i])} for the same attribute vector"
            )
    return ValidationReport(violations=tuple(violations))


def as_series_array(x: TimeSeriesTensor | np.ndarray) -> np.ndarray:
    """A tensor argument as a float64 (N, L, F) array; a plain array is checked like a tensor."""
    return x.data if isinstance(x, TimeSeriesTensor) else checked_array(x, 3, "series tensor")


def as_embedding_array(x: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """An embedding argument as a float64 (N, d) array; a plain array is checked like a matrix."""
    return x.data if isinstance(x, EmbeddingMatrix) else checked_array(x, 2, "embedding matrix")
