import numpy as np
import pytest

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
    validate_dataset,
)
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
        ({"color": 0}, "record 's0': missing attribute 'size'"),
        ({"color": 0, "size": 3}, "record 's0': value index 3 out of range for attribute 'size'"),
        ({"color": -1, "size": 0}, "record 's0': value index -1 out of range for attribute 'color'"),
    ],
)
def test_vector_rejects_missing_or_out_of_range_index(schema, attrs, message):
    with pytest.raises(ContractViolation) as info:
        _record(0, attrs).vector(schema)
    assert str(info.value) == message


def test_vector_in_schema_order_ignores_extra_attributes(schema):
    assert _record(0, {"size": 2, "extra": 9, "color": 1}).vector(schema) == (1, 2)
