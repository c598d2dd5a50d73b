import re

import numpy as np
import pytest

from seriesbench.align_metrics import GenerationBundle, crps_score, dtw, dtw_score
from seriesbench.core import (
    Attribute,
    AttributeSchema,
    ConditionRecord,
    ContractViolation,
    EmbeddingMatrix,
    MetricEntry,
    MetricReport,
    ReportContext,
    TimeSeriesTensor,
    as_condition_table,
    as_embedding_array,
    as_series_array,
    validate_dataset,
)
from seriesbench.embed_metrics import (
    ManifoldIndex,
    cttp_score,
    fid,
    j_ftsd,
    joint_precision_recall,
    precision,
    recall,
)
from seriesbench.protocols import RetrievalConfig, retrieval_acc1, temporal_order_eval
from seriesbench.stat_metrics import HistogramSpec, acd, autocorrelation_profile, kd, mdd, sd
from seriesbench.synthgen import build_synth_dataset


@pytest.fixture
def schema():
    return AttributeSchema(
        attributes=(
            Attribute("color", "surface color", ("red", "blue")),
            Attribute("size", "object size", ("small", "large", "other")),
        )
    )


def _record(i, attrs, label=0):
    return ConditionRecord(sample_id=f"s{i}", text=f"caption {i}", attrs=attrs, label=label)


def _table(*records):
    return as_condition_table(records)


def test_tensor_rejects_non_finite():
    with pytest.raises(ContractViolation):
        TimeSeriesTensor(data=np.array([[[1.0], [np.nan]]]))


@pytest.mark.parametrize(
    "make, shape",
    [(TimeSeriesTensor, (0, 6, 1)), (TimeSeriesTensor, (4, 0, 1)), (TimeSeriesTensor, (4, 6, 0)),
     (EmbeddingMatrix, (0, 3)), (EmbeddingMatrix, (10, 0))],
)
def test_zero_length_dimension_rejected(make, shape):
    with pytest.raises(ContractViolation, match="zero-length dimension"):
        make(data=np.zeros(shape))


def test_tensor_shape_metadata():
    t = TimeSeriesTensor(data=np.zeros((4, 6, 2)))
    assert (t.n_samples, t.length, t.n_features) == (4, 6, 2)


def test_tensor_is_immutable():
    t = TimeSeriesTensor(data=np.zeros((1, 3, 1)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_tensor_never_aliases_the_callers_array():
    for source in (np.zeros((2, 3, 1)), np.zeros((2, 3, 1), dtype=np.float32)):
        t = TimeSeriesTensor(data=source)
        source[0, 0, 0] = 5.0
        assert t.data.dtype == np.float64 and t.data[0, 0, 0] == 0.0
        assert source.flags.writeable


def test_tensor_shares_a_frozen_array_that_owns_its_data():
    owned = np.zeros((2, 3, 1))
    owned.setflags(write=False)
    assert TimeSeriesTensor(data=owned).data is owned
    view = owned[:1]  # frozen, but a view: its base may still be writeable elsewhere
    assert TimeSeriesTensor(data=view).data is not view
    frozen32 = np.zeros((2, 3, 1), dtype=np.float32)
    frozen32.setflags(write=False)
    assert TimeSeriesTensor(data=frozen32).data.dtype == np.float64


def test_embedding_rejects_wrong_rank():
    with pytest.raises(ContractViolation):
        EmbeddingMatrix(data=np.zeros((2, 3, 4)))


def test_schema_rejects_duplicate_names():
    with pytest.raises(ContractViolation):
        AttributeSchema(
            attributes=(
                Attribute("a", "", ("x", "y")),
                Attribute("a", "", ("u", "v")),
            )
        )


def test_attribute_needs_two_values():
    with pytest.raises(ContractViolation):
        Attribute("a", "", ("only",))


def test_report_rejects_duplicate_metric_names():
    ctx = ReportContext("d", "m", 0)
    with pytest.raises(ContractViolation):
        MetricReport(
            entries=(
                MetricEntry("fid", 1.0, "lower_better"),
                MetricEntry("fid", 2.0, "lower_better"),
            ),
            context=ctx,
        )


def test_validate_passes_generator_output():
    ds = build_synth_dataset("u", seed=3, n_per_combo=8, length=96)
    report = validate_dataset(ds.series, ds.conditions, ds.schema)
    assert report.ok, report.violations


def test_validate_count_mismatch(schema):
    series = TimeSeriesTensor(data=np.zeros((3, 4, 1)))
    conditions = [_record(0, {"color": 0, "size": 0})]
    report = validate_dataset(series, conditions, schema)
    assert any("count mismatch" in v for v in report.violations)


def test_validate_checks_a_plain_array_like_a_tensor(schema):
    conditions = [_record(0, {"color": 0, "size": 0})]
    assert validate_dataset(np.zeros((1, 4, 1)), conditions, schema).ok
    report = validate_dataset(np.zeros((2, 4, 1)), conditions, schema)
    assert report.violations == ("count mismatch: 2 series vs 1 condition records",)
    with pytest.raises(ContractViolation, match="series tensor"):
        validate_dataset(np.zeros((1, 4)), conditions, schema)


def test_validate_value_index_out_of_range(schema):
    series = TimeSeriesTensor(data=np.zeros((1, 4, 1)))
    conditions = [_record(0, {"color": 2, "size": 0})]  # |values| == 2
    report = validate_dataset(series, conditions, schema)
    assert any("out of range" in v for v in report.violations)


def test_validate_unknown_attribute(schema):
    series = TimeSeriesTensor(data=np.zeros((1, 4, 1)))
    report = validate_dataset(series, [_record(0, {"shape": 0})], schema)
    assert any("unknown attribute" in v for v in report.violations)


def test_validate_missing_attribute(schema):
    series = TimeSeriesTensor(data=np.zeros((2, 4, 1)))
    conditions = [_record(0, {"color": 0, "size": 1}), _record(1, {"size": 0})]
    report = validate_dataset(series, conditions, schema)
    assert report.violations == ("record 1: missing attribute 'color'",)


def test_validate_reports_a_negative_label_in_record_order(schema):
    series = TimeSeriesTensor(data=np.zeros((3, 4, 1)))
    conditions = [
        _record(0, {"color": 0, "size": 1}),
        _record(1, {"color": 2, "size": 0}, label=-1),
        _record(2, {"size": 0}, label=-2),
    ]
    report = validate_dataset(series, conditions, schema)
    assert report.violations == (
        "record 1: value index 2 out of range for attribute 'color'",
        "record 1: label -1 is negative",
        "record 2: missing attribute 'color'",
        "record 2: label -2 is negative",
    )


@pytest.mark.parametrize("label", ["3", None, 1.5, True, False, np.float64(2.0)])
def test_validate_reports_a_non_integer_label(schema, label):
    # such a record cannot be made, so no conditions set reaches validate with it
    with pytest.raises(ContractViolation, match=rf"^label {re.escape(repr(label))} is not an integer$"):
        _record(1, {"color": 0, "size": 1}, label=label)


def test_validate_reports_a_non_integer_label_in_record_order(schema):
    # the record refuses its non-integer label; the rest of its faults are validate's
    with pytest.raises(ContractViolation, match=r"^label '3' is not an integer$"):
        _record(0, {"color": 2, "size": 1}, label="3")
    series = TimeSeriesTensor(data=np.zeros((3, 4, 1)))
    conditions = [
        _record(0, {"color": 2, "size": 1}, label=3),
        _record(1, {"color": 0, "size": 0}, label=-1),
        _record(2, {"size": 0}, label=-2),
    ]
    report = validate_dataset(series, conditions, schema)
    assert report.violations == (
        "record 0: value index 2 out of range for attribute 'color'",
        "record 1: label -1 is negative",
        "record 2: missing attribute 'color'",
        "record 2: label -2 is negative",
    )


def test_validate_accepts_numpy_integer_labels(schema):
    series = TimeSeriesTensor(data=np.zeros((2, 4, 1)))
    conditions = [_record(0, {"color": 0, "size": 1}, label=np.int64(2)), _record(1, {"color": 0, "size": 1}, label=2)]
    assert validate_dataset(series, conditions, schema).ok


def test_validate_label_inconsistency(schema):
    series = TimeSeriesTensor(data=np.zeros((2, 4, 1)))
    conditions = [
        _record(0, {"color": 0, "size": 1}, label=0),
        _record(1, {"color": 0, "size": 1}, label=1),
    ]
    report = validate_dataset(series, conditions, schema)
    assert any("inconsistent" in v for v in report.violations)


@pytest.mark.parametrize(
    "attrs, message",
    [
        ({"color": [1]}, "value index [1] of attribute 'color' is not an integer"),
        ({0: 1, "color": 0}, "attribute name 0 is not a string"),
    ],
    ids=["unhashable-index", "unsortable-name"],
)
def test_validate_reports_attrs_a_library_caller_may_pass(schema, attrs, message):
    # the record refuses such attrs, so no conditions set reaches validate with them
    with pytest.raises(ContractViolation) as info:
        _record(1, attrs)
    assert str(info.value) == message


def test_validate_leaves_a_record_with_a_faulty_attribute_out_of_the_label_check(schema):
    # record 1 names record 0's vector in schema order, but its extra attribute is a fault
    series = TimeSeriesTensor(data=np.zeros((2, 4, 1)))
    conditions = [_record(0, {"color": 0, "size": 1}, label=0),
                  _record(1, {"color": 0, "size": 1, "shape": 0}, label=1)]
    assert validate_dataset(series, conditions, schema).violations == ("record 1: unknown attribute 'shape'",)


@pytest.mark.parametrize(
    "attrs, message",
    [
        ({"color": 0}, "record 's0': missing attribute 'size'"),
        ({"color": 0, "size": 3}, "record 's0': value index 3 out of range for attribute 'size'"),
        ({"color": -1, "size": 0}, "record 's0': value index -1 out of range for attribute 'color'"),
    ],
)
def test_vector_rejects_missing_or_out_of_range_index(schema, attrs, message):
    with pytest.raises(ContractViolation) as info:
        _table(_record(0, attrs)).vectors(schema)
    assert str(info.value) == message


def test_vector_in_schema_order_ignores_extra_attributes(schema):
    assert _table(_record(0, {"size": 2, "extra": 9, "color": 1})).vectors(schema).tolist() == [[1, 2]]


# ---------------------------------------------------------------------------
# One array contract: plain ndarray arguments are checked like the wrappers
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(7)
SERIES = _RNG.normal(size=(12, 8, 2))
EMB = _RNG.normal(size=(12, 4))
SEGMENTS = _RNG.normal(size=(6, 3, 4))
BUNDLE = np.repeat(SERIES[:, None], 2, axis=1) + 0.1

# name -> (a valid array, a call that passes a corrupted copy of it among valid arguments)
RAW_ARRAY_CALLS = {
    "mdd": (SERIES, lambda bad: mdd(SERIES, bad, HistogramSpec.from_training(SERIES))),
    "acd": (SERIES, lambda bad: acd(SERIES, bad)),
    "autocorrelation_profile": (SERIES, lambda bad: autocorrelation_profile(bad, 2)),
    "sd": (SERIES, lambda bad: sd(bad, SERIES)),
    "kd": (SERIES, lambda bad: kd(SERIES, bad)),
    "HistogramSpec.from_training": (SERIES, lambda bad: HistogramSpec.from_training(bad)),
    "fid": (EMB, lambda bad: fid(EMB, bad)),
    "precision": (EMB, lambda bad: precision(EMB, bad, k=2)),
    "recall": (EMB, lambda bad: recall(bad, EMB, k=2)),
    "ManifoldIndex.contains": (EMB, lambda bad: ManifoldIndex.build(EMB, 2).contains(bad)),
    "cttp_score": (EMB, lambda bad: cttp_score(EMB, bad)),
    "j_ftsd": (EMB, lambda bad: j_ftsd(EMB, EMB, bad)),
    "joint_precision_recall": (EMB, lambda bad: joint_precision_recall(EMB, bad, EMB, k=2)),
    "GenerationBundle": (BUNDLE, lambda bad: GenerationBundle(bad)),
    "dtw_score": (SERIES, lambda bad: dtw_score(bad, GenerationBundle(BUNDLE))),
    "crps_score": (SERIES, lambda bad: crps_score(bad, GenerationBundle(BUNDLE))),
    "dtw": (SERIES[0], lambda bad: dtw(SERIES[1], bad)),
    "dtw-1d": (SERIES[0, :, 0], lambda bad: dtw(bad, SERIES[1, :, 0])),
    "retrieval_acc1": (EMB, lambda bad: retrieval_acc1(bad, EMB, RetrievalConfig(pool_size=3, repeats=1))),
    "temporal_order_eval": (SEGMENTS, lambda bad: temporal_order_eval(SEGMENTS, bad)),
}


def _corrupt(good, defect):
    if defect == "zero-length":
        return good[:0]
    bad = good.copy()
    bad.flat[len(bad.flat) // 2] = np.nan if defect == "nan" else np.inf
    return bad


@pytest.mark.parametrize("defect", ["nan", "inf", "zero-length"])
@pytest.mark.parametrize("name", sorted(RAW_ARRAY_CALLS))
def test_raw_array_arguments_meet_the_wrapper_contract(name, defect):
    # the suite turns warnings into errors, so a RuntimeWarning on the way fails here too
    good, call = RAW_ARRAY_CALLS[name]
    call(good)  # the valid arguments pass
    with pytest.raises(ContractViolation, match="non-finite values|zero-length dimension"):
        call(_corrupt(good, defect))


def test_wrapper_arguments_are_used_without_a_copy():
    tensor = TimeSeriesTensor(data=SERIES)
    matrix = EmbeddingMatrix(data=EMB)
    assert as_series_array(tensor) is tensor.data
    assert as_embedding_array(matrix) is matrix.data
    assert np.shares_memory(GenerationBundle.from_flat(tensor, k=3).data, tensor.data)


# ---------------------------------------------------------------------------
# Attribute value indices are integers
# ---------------------------------------------------------------------------

NON_INTEGER_INDICES = [1.5, True, "1", None]


@pytest.mark.parametrize("idx", NON_INTEGER_INDICES)
def test_validate_reports_a_non_integer_index(schema, idx):
    # such a record cannot be made, so no conditions set reaches validate with it
    with pytest.raises(ContractViolation) as info:
        _record(0, {"color": 0, "size": idx})
    assert str(info.value) == f"value index {idx!r} of attribute 'size' is not an integer"


@pytest.mark.parametrize("idx", NON_INTEGER_INDICES)
def test_vector_rejects_a_non_integer_index(schema, idx):
    with pytest.raises(ContractViolation, match="is not an integer"):
        _table(_record(0, {"color": idx, "size": 0})).vectors(schema)


def test_numpy_integer_indices_are_accepted(schema):
    record = _record(0, {"color": np.int64(1), "size": np.uint8(2)})
    assert _table(record).vectors(schema).tolist() == [[1, 2]]
    assert validate_dataset(TimeSeriesTensor(data=np.zeros((1, 4, 1))), [record], schema).ok
