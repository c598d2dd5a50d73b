import numpy as np
import pytest

from seriesbench.core import (
    ContractViolation,
    MetricEntry,
    MetricReport,
    ReportContext,
)
from seriesbench.protocols import (
    RetrievalConfig,
    aggregate_ranks,
    dknn,
    dknn_values,
    drop_rate,
    hamming,
    head_tail_split,
    joint_segment_accuracy,
    normalized_accuracy,
    retrieval_acc1,
    temporal_order_eval,
)


def _report(model, dataset, seed, values, direction="higher_better"):
    entries = tuple(
        MetricEntry(name, value, direction) for name, value in values.items()
    )
    return MetricReport(entries=entries, context=ReportContext(dataset, model, seed))


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# rank aggregation
# ---------------------------------------------------------------------------


def test_two_model_ranks():
    reports = [
        _report("a", "d1", 0, {"m": 0.9}),
        _report("b", "d1", 0, {"m": 0.1}),
    ]
    rows, table = aggregate_ranks(reports, {"m": "fidelity"})
    by_model = {r.model: r for r in rows}
    assert by_model["a"].mean_rank == 1.0
    assert by_model["b"].mean_rank == 2.0
    assert table.ranks.shape == (2, 1, 1)


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    models = [f"m{i}" for i in range(6)]
    raw = {m: {"alpha": float(rng.normal()), "beta": float(rng.normal())} for m in models}
    grouping = {"alpha": "fidelity", "beta": "fidelity"}
    base = [_report(m, "d", 0, raw[m]) for m in models]
    rows_base, _ = aggregate_ranks(base, grouping)

    transformed = [
        _report(m, "d", 0, {"alpha": float(np.exp(raw[m]["alpha"])), "beta": raw[m]["beta"]})
        for m in models
    ]
    rows_t, _ = aggregate_ranks(transformed, grouping)
    assert rows_base == rows_t


def test_lower_better_direction_flips_order():
    reports = [
        _report("a", "d", 0, {"err": 0.1}, direction="lower_better"),
        _report("b", "d", 0, {"err": 0.9}, direction="lower_better"),
    ]
    rows, _ = aggregate_ranks(reports, {"err": "fidelity"})
    by_model = {r.model: r.mean_rank for r in rows}
    assert by_model["a"] == 1.0 and by_model["b"] == 2.0


def test_tie_gets_average_rank():
    reports = [
        _report("a", "d", 0, {"m": 0.5}),
        _report("b", "d", 0, {"m": 0.5}),
        _report("c", "d", 0, {"m": 0.1}),
    ]
    rows, table = aggregate_ranks(reports, {"m": "g"})
    by_model = {r.model: r.mean_rank for r in rows}
    assert by_model["a"] == by_model["b"] == 1.5
    assert by_model["c"] == 3.0
    assert table.ranks[:, 0, 0].sum() == 6.0  # M(M+1)/2


def test_seeds_averaged_before_ranking():
    reports = [
        _report("a", "d", 0, {"m": 0.0}),
        _report("a", "d", 1, {"m": 1.0}),   # a averages to 0.5
        _report("b", "d", 0, {"m": 0.4}),
        _report("b", "d", 1, {"m": 0.4}),
    ]
    rows, _ = aggregate_ranks(reports, {"m": "g"})
    by_model = {r.model: r.mean_rank for r in rows}
    assert by_model["a"] == 1.0


def test_cross_dataset_mean_and_std():
    reports = [
        _report("a", "d1", 0, {"m": 1.0}),
        _report("b", "d1", 0, {"m": 0.0}),
        _report("a", "d2", 0, {"m": 0.0}),
        _report("b", "d2", 0, {"m": 1.0}),
    ]
    rows, _ = aggregate_ranks(reports, {"m": "g"})
    for row in rows:
        assert row.mean_rank == 1.5
        assert row.std_rank == pytest.approx(0.5)


def test_missing_cell_is_an_error():
    reports = [
        _report("a", "d1", 0, {"m": 1.0}),
        _report("b", "d1", 0, {"m": 0.5}),
        _report("a", "d2", 0, {"m": 1.0}),
    ]
    with pytest.raises(ContractViolation, match="missing cell"):
        aggregate_ranks(reports, {"m": "g"})


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def test_pool_of_one_is_always_a_hit():
    rng = np.random.default_rng(1)
    gen = rng.normal(size=(20, 8))
    text = rng.normal(size=(20, 8))
    cfg = RetrievalConfig(pool_size=1, repeats=3, seed=0)
    assert retrieval_acc1(gen, text, cfg) == 1.0


def test_equal_embeddings_always_win():
    rng = np.random.default_rng(2)
    text = _unit_rows(rng.normal(size=(30, 8)))
    cfg = RetrievalConfig(pool_size=10, repeats=4, seed=0)
    assert retrieval_acc1(text, text, cfg) == 1.0


def test_random_unit_vectors_near_chance():
    rng = np.random.default_rng(3)
    gen = _unit_rows(rng.normal(size=(300, 16)))
    text = _unit_rows(rng.normal(size=(300, 16)))
    cfg = RetrievalConfig(pool_size=10, repeats=20, seed=0)
    assert retrieval_acc1(gen, text, cfg) == pytest.approx(0.10, abs=0.03)


def test_retrieval_deterministic():
    rng = np.random.default_rng(4)
    gen = rng.normal(size=(40, 6))
    text = rng.normal(size=(40, 6))
    cfg = RetrievalConfig(pool_size=5, repeats=7, seed=9)
    assert retrieval_acc1(gen, text, cfg) == retrieval_acc1(gen, text, cfg)


def test_exact_tie_counts_as_miss():
    text = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # duplicate of the truth
    gen = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 1.0]])
    cfg = RetrievalConfig(pool_size=3, repeats=1, seed=0)
    assert retrieval_acc1(gen, text, cfg, query_indices=[0]) == 0.0


def test_caption_dedup_removes_tied_distractor():
    text = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    gen = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 1.0]])
    cfg = RetrievalConfig(pool_size=2, repeats=1, seed=0)
    texts = ["up trend", "up trend", "down trend"]
    assert retrieval_acc1(gen, text, cfg, texts=texts, query_indices=[0]) == 1.0


def test_retrieval_invariant_under_orthogonal_rotation():
    rng = np.random.default_rng(19)
    gen = rng.normal(size=(60, 8))
    text = rng.normal(size=(60, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    cfg = RetrievalConfig(pool_size=6, repeats=5, seed=2)
    assert retrieval_acc1(gen @ q, text @ q, cfg) == retrieval_acc1(gen, text, cfg)


def test_pool_larger_than_candidates_rejected():
    rng = np.random.default_rng(5)
    gen = rng.normal(size=(4, 3))
    cfg = RetrievalConfig(pool_size=5, repeats=1, seed=0)
    with pytest.raises(ContractViolation):
        retrieval_acc1(gen, gen, cfg)


# ---------------------------------------------------------------------------
# temporal order
# ---------------------------------------------------------------------------


def test_temporal_identity_embeddings():
    rng = np.random.default_rng(6)
    text = rng.normal(size=(50, 4, 8))
    confusion, accuracy = temporal_order_eval(text, text)
    assert np.allclose(confusion, np.eye(4))
    assert accuracy == 1.0


def test_temporal_constant_segments_concentrate_rows():
    rng = np.random.default_rng(7)
    n, p, d = 40, 4, 6
    text = rng.normal(size=(n, p, d))
    seg = np.repeat(rng.normal(size=(n, 1, d)), p, axis=1)  # same vector per position
    confusion, accuracy = temporal_order_eval(seg, text)
    assert np.allclose(confusion[0], confusion[1])
    assert accuracy <= 1.0 / p + 0.15


def test_temporal_random_near_chance():
    rng = np.random.default_rng(8)
    seg = rng.normal(size=(1500, 4, 8))
    text = rng.normal(size=(1500, 4, 8))
    confusion, accuracy = temporal_order_eval(seg, text)
    assert np.allclose(confusion, 0.25, atol=0.05)
    assert accuracy == pytest.approx(0.25, abs=0.05)


def test_temporal_shape_mismatch():
    with pytest.raises(ContractViolation):
        temporal_order_eval(np.zeros((3, 4, 2)), np.zeros((3, 5, 2)))


# ---------------------------------------------------------------------------
# joint segment accuracy
# ---------------------------------------------------------------------------


def test_joint_accuracy_extremes():
    true = np.array([[0, 1, 2], [1, 1, 0]])
    assert joint_segment_accuracy(true, true) == 1.0
    wrong = true.copy()
    wrong[:, 0] += 1
    assert joint_segment_accuracy(wrong, true) == 0.0


def test_joint_accuracy_independence_model():
    rng = np.random.default_rng(9)
    p, segments, n = 0.8, 3, 20_000
    true = rng.integers(0, 4, size=(n, segments))
    flip = rng.random(size=(n, segments)) > p
    pred = np.where(flip, true + 1, true)
    assert joint_segment_accuracy(pred, true) == pytest.approx(p**segments, abs=0.02)


# ---------------------------------------------------------------------------
# hamming / dknn / head-tail
# ---------------------------------------------------------------------------


def test_hamming_basics():
    assert hamming([1, 2, 3], [1, 2, 3]) == 0
    assert hamming([0, 1, 2], [1, 1, 0]) == 2
    with pytest.raises(ContractViolation):
        hamming([1, 2], [1, 2, 3])


def test_hamming_metric_axioms():
    rng = np.random.default_rng(10)
    vectors = rng.integers(0, 4, size=(300, 5))
    for _ in range(500):
        a, b, c = vectors[rng.integers(0, 300, size=3)]
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, a) == 0
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


def test_dknn_examples():
    train = np.array([[0, 0, 0], [1, 1, 1]])
    assert dknn([0, 0, 0], train, k=1) == 0.0
    assert dknn([0, 0, 1], train, k=2) == pytest.approx(1.5)


def test_dknn_monotone_in_k():
    rng = np.random.default_rng(11)
    train = rng.integers(0, 3, size=(50, 6))
    test = rng.integers(0, 3, size=6)
    values = [dknn(test, train, k) for k in range(1, 51)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_dknn_values_matches_scalar_version():
    rng = np.random.default_rng(12)
    train = rng.integers(0, 3, size=(40, 5))
    tests = rng.integers(0, 3, size=(25, 5))
    batch = dknn_values(tests, train, k=7)
    scalar = [dknn(t, train, k=7) for t in tests]
    assert np.allclose(batch, scalar)


def test_head_tail_distinct_values():
    values = np.arange(10.0)
    head, tail = head_tail_split(values)
    assert list(head) == [0, 1]
    assert list(tail) == [8, 9]


def test_head_tail_all_equal_uses_index_order():
    head, tail = head_tail_split(np.zeros(10))
    assert list(head) == [0, 1]
    assert list(tail) == [8, 9]


def test_head_tail_disjoint():
    rng = np.random.default_rng(13)
    values = rng.normal(size=37)
    head, tail = head_tail_split(values)
    assert set(head).isdisjoint(tail)


# ---------------------------------------------------------------------------
# scalar protocol arithmetic
# ---------------------------------------------------------------------------


def test_normalized_accuracy():
    assert normalized_accuracy(0.6, 0.6) == 1.0
    assert normalized_accuracy(0.3, 0.6) == 0.5
    assert normalized_accuracy(0.3, 0.0) is None


def test_drop_rate_examples():
    assert drop_rate(0.9, 0.9, 0.5) == 0.0
    assert drop_rate(0.9, 0.5, 0.5) == 1.0
    assert drop_rate(0.9, 0.7, 0.5) == 0.5
    assert drop_rate(0.5, 0.7, 0.5) is None
    assert drop_rate(0.4, 0.7, 0.5) is None


def test_drop_rate_affine_invariant():
    rng = np.random.default_rng(14)
    for _ in range(50):
        rand, gen, real = np.sort(rng.uniform(0.0, 1.0, size=3))
        if real <= rand:
            continue
        base = drop_rate(real, gen, rand)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        shifted = drop_rate(a * real + b, a * gen + b, a * rand + b)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_temporal_zero_norm_row_raises_without_warning():
    # the suite turns warnings into errors, so a divide warning would fail here first
    seg = np.ones((3, 4, 2))
    seg[1, 2] = 0.0
    with pytest.raises(ContractViolation, match="zero-norm"):
        temporal_order_eval(seg, np.ones((3, 4, 2)))
