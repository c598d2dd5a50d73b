"""Evaluation engine and synthetic-benchmark generator for conditional time-series generation.

The package has three layers:

* a shared data model (:mod:`seriesbench.core`) plus self-describing file
  formats (:mod:`seriesbench.tensorfile`),
* a deterministic synthetic-dataset generator with aligned text / attribute /
  label conditions (:mod:`seriesbench.synthgen`),
* fidelity and adherence metrics (:mod:`seriesbench.stat_metrics`,
  :mod:`seriesbench.embed_metrics`, :mod:`seriesbench.align_metrics`) and the
  evaluation protocols built on top of them (:mod:`seriesbench.protocols`,
  :mod:`seriesbench.schema_discovery`).

Everything is pure NumPy and deterministic given explicit seeds; the
``seriesbench`` command line exposes the same operations over files.
"""

__version__ = "0.1.0"

from seriesbench.core import (
    AttributeSchema,
    Attribute,
    ConditionRecord,
    ContractViolation,
    EmbeddingMatrix,
    InputFormatError,
    MetricEntry,
    MetricReport,
    ProposerError,
    ReportContext,
    TimeSeriesTensor,
    validate_dataset,
)

__all__ = [
    "Attribute",
    "AttributeSchema",
    "ConditionRecord",
    "ContractViolation",
    "EmbeddingMatrix",
    "InputFormatError",
    "MetricEntry",
    "MetricReport",
    "ProposerError",
    "ReportContext",
    "TimeSeriesTensor",
    "validate_dataset",
    "__version__",
]
