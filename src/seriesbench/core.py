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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


@dataclass(frozen=True, slots=True)  # no per-record __dict__: a dataset holds one record per sample
class ConditionRecord:
    """Aligned (text, attribute-vector, class-label) triple for one sample."""

    sample_id: str
    text: str
    attrs: Mapping[str, int]
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", dict(self.attrs))

    def vector(self, schema: AttributeSchema) -> tuple[int, ...]:
        """Attribute vector in schema order; a missing attribute or a bad value index is an error."""
        if problem := schema.misfit(self.attrs):
            raise ContractViolation(f"record {self.sample_id!r}: {problem}")
        return tuple(self.attrs[name] for name in schema.names)


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


def validate_dataset(
    series: TimeSeriesTensor,
    conditions: Sequence[ConditionRecord],
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
    """
    violations: list[str] = []
    if series.n_samples != len(conditions):
        violations.append(
            f"count mismatch: {series.n_samples} series vs {len(conditions)} condition records"
        )

    options = {a.name: len(a.values) for a in schema.attributes}
    label_by_vector: dict[tuple, int] = {}
    for i, rec in enumerate(conditions):
        n_before = len(violations)
        for name, idx in rec.attrs.items():
            if name not in options:
                violations.append(f"record {i}: unknown attribute {name!r}")
            elif problem := _index_problem(name, idx, options[name]):
                violations.append(f"record {i}: {problem}")
        for name in options:
            if name not in rec.attrs:
                violations.append(f"record {i}: missing attribute {name!r}")
        has_vector = len(violations) == n_before
        if not is_integer(rec.label):
            violations.append(f"record {i}: label {rec.label!r} is not an integer")
            continue
        if rec.label < 0:
            violations.append(f"record {i}: label {rec.label} is negative")
        if not has_vector:  # a record with a faulty attribute has no vector to compare
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
    return ValidationReport(violations=tuple(violations))


def as_series_array(x: TimeSeriesTensor | np.ndarray) -> np.ndarray:
    """A tensor argument as a float64 (N, L, F) array; a plain array is checked like a tensor."""
    return x.data if isinstance(x, TimeSeriesTensor) else checked_array(x, 3, "series tensor")


def as_embedding_array(x: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """An embedding argument as a float64 (N, d) array; a plain array is checked like a matrix."""
    return x.data if isinstance(x, EmbeddingMatrix) else checked_array(x, 2, "embedding matrix")
