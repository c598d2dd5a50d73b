import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seriesbench
from seriesbench.core import (
    ContractViolation,
    MetricEntry,
    MetricReport,
    ReportContext,
)
from seriesbench import protocols
from seriesbench.protocols import (
    RetrievalConfig,
    aggregate_ranks,
    dknn,
    dknn_values,
    drop_rate,
    hamming,
    head_tail_split,
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


def test_entries_outside_the_grouping_are_skipped():
    # "spare" is in no group, so neither its values nor its clashing directions count
    reports = [
        MetricReport((MetricEntry("m", 0.9, "higher_better"), MetricEntry("spare", 0.0, "higher_better")),
                     ReportContext("d", "a", 0)),
        MetricReport((MetricEntry("m", 0.1, "higher_better"), MetricEntry("spare", 5.0, "lower_better")),
                     ReportContext("d", "b", 0)),
    ]
    rows, table = aggregate_ranks(reports, {"m": "fidelity"})
    assert table.metrics == ("m",)
    assert {r.model: r.mean_rank for r in rows} == {"a": 1.0, "b": 2.0}


def test_conflicting_directions_are_refused():
    reports = [
        _report("a", "d", 0, {"m": 0.9}),
        _report("b", "d", 0, {"m": 0.1}, direction="lower_better"),
    ]
    with pytest.raises(ContractViolation, match="'m' has conflicting directions"):
        aggregate_ranks(reports, {"m": "fidelity"})


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


def _rankdata_reference(reports, grouping):
    """Reference: the per-(dataset, metric) SciPy rankdata loop over one-seed reports."""
    from scipy.stats import rankdata

    metrics = sorted(grouping)
    models = sorted({r.context.model_id for r in reports})
    datasets = sorted({r.context.dataset_id for r in reports})
    cell = {
        (r.context.model_id, r.context.dataset_id, e.metric_name): e
        for r in reports
        for e in r.entries
    }
    ranks = np.empty((len(models), len(datasets), len(metrics)))
    for di, dataset in enumerate(datasets):
        for ki, metric in enumerate(metrics):
            entries = [cell[(model, dataset, metric)] for model in models]
            column = np.array([e.value for e in entries])
            if entries[0].direction == "lower_better":
                column = -column
            ranks[:, di, ki] = rankdata(-column, method="average")
    return ranks


@pytest.mark.parametrize("seed", range(6))
def test_ranks_match_scipy_rankdata_bitwise(seed):
    rng = np.random.default_rng(seed)
    # few distinct values so ties are common; one column is all-equal
    pool = np.array([0.0, -0.0, 1e300, -1e300, 0.5, -0.5, 0.1 + 0.2, 0.3])
    metrics = {"m0": "higher_better", "m1": "lower_better", "m2": "higher_better", "m3": "lower_better"}
    grouping = {"m0": "g1", "m1": "g1", "m2": "g2", "m3": "g2"}
    reports = []
    for mi in range(7):
        for di in range(3):
            values = {name: float(rng.choice(pool)) for name in metrics}
            values["m3"] = -0.0 if mi % 2 else 0.0  # all-equal column, mixed zero signs
            entries = tuple(MetricEntry(name, values[name], metrics[name]) for name in metrics)
            reports.append(MetricReport(entries=entries, context=ReportContext(f"d{di}", f"model{mi}", 0)))
    _, table = aggregate_ranks(reports, grouping)
    expected = _rankdata_reference(reports, grouping)
    assert table.ranks.shape == expected.shape == (7, 3, 4)
    assert table.ranks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("values", [[1.7e308, -1.7e308] * 8, [1.7e308, 1.7e308]], ids=["nan", "inf"])
def test_ranks_non_finite_seed_mean_raises(values):
    # finite seeds whose float64 mean overflows: NaN (inf + -inf) or inf; the
    # suite turns warnings into errors, so an overflow warning would fail here
    reports = [_report("a", "d", s, {"m": v, "n": 1.0}) for s, v in enumerate(values)]
    reports += [_report("b", "d", 0, {"m": 0.0, "n": 2.0})]
    with pytest.raises(ContractViolation) as err:
        aggregate_ranks(reports, {"m": "g", "n": "g"})
    assert str(err.value) == "seed mean is not finite: model='a' dataset='d' metric='m'"


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


def test_caption_dedup_keeps_trailing_nul_captions_apart():
    # 'a' and 'a\x00' are different captions, so the tied distractor stays
    text = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    gen = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 1.0]])
    cfg = RetrievalConfig(pool_size=3, repeats=1, seed=0)
    texts = ["a", "a\x00", "b"]
    assert retrieval_acc1(gen, text, cfg, texts=texts, query_indices=[0]) == 0.0


def _retrieval_string_masks(gen, text, cfg, texts, query_indices=None):
    """Reference: retrieval_acc1 with per-query caption string comparison."""
    gen = gen / np.linalg.norm(gen, axis=1, keepdims=True)
    text = text / np.linalg.norm(text, axis=1, keepdims=True)
    n = gen.shape[0]
    queries = range(n) if query_indices is None else query_indices
    per_repeat = []
    for repeat in range(cfg.repeats):
        hits = 0
        for q in queries:
            same = np.array([texts[j] == texts[q] for j in range(n)])
            cand = np.flatnonzero(~same)
            seed = np.random.SeedSequence((cfg.seed, repeat, q))
            rng = np.random.Generator(np.random.Philox(seed=seed))
            distractors = rng.choice(cand, size=cfg.pool_size - 1, replace=False)
            if distractors.size:
                hits += float(gen[q] @ text[q]) > float((text[distractors] @ gen[q]).max())
            else:
                hits += 1  # a pool of one holds only the truth
        per_repeat.append(hits / len(queries))
    return float(np.mean(per_repeat))


@pytest.mark.parametrize("query_indices", [None, list(range(1, 40, 3))])
def test_retrieval_caption_ids_match_string_masks(query_indices):
    rng = np.random.default_rng(21)
    vocab = ["a", "a\x00", "b", "a b", "", "\x00"]
    texts = [vocab[i] for i in rng.integers(0, len(vocab), size=40)]
    text = rng.normal(size=(40, 4))
    gen = text + 0.9 * rng.normal(size=(40, 4))
    cfg = RetrievalConfig(pool_size=4, repeats=6, seed=3)
    got = retrieval_acc1(gen, text, cfg, texts=texts, query_indices=query_indices)
    assert got == _retrieval_string_masks(gen, text, cfg, texts, query_indices)


@pytest.mark.parametrize("d", [3, 32, 128])
@pytest.mark.parametrize("seed", [0, 7, 2**33 + 5])
def test_retrieval_matches_string_masks_for_every_pool_size(seed, d):
    rng = np.random.default_rng([seed % 1000, d])
    n = 16
    text = rng.normal(size=(n, d))
    gen = text + 0.5 * np.sqrt(d) * rng.normal(size=(n, d))  # hits and misses at every d
    distinct = [f"caption {i}" for i in range(n)]
    for pool_size in range(1, n):
        cfg = RetrievalConfig(pool_size=pool_size, repeats=3, seed=seed)
        assert retrieval_acc1(gen, text, cfg, texts=distinct) == _retrieval_string_masks(gen, text, cfg, distinct)

    # duplicate captions: 7 rows share "up", so those queries have 9 distractors
    texts = ["up"] * 7 + [("down", "flat", "up\x00")[i % 3] for i in range(n - 7)]
    order = rng.permutation(n)
    texts = [texts[i] for i in order]
    for query_indices in (None, [int(order[0]), int(order[0]), 3, n - 1, 3]):
        for pool_size in range(1, 11):
            cfg = RetrievalConfig(pool_size=pool_size, repeats=4, seed=seed)
            got = retrieval_acc1(gen, text, cfg, texts=texts, query_indices=query_indices)
            assert got == _retrieval_string_masks(gen, text, cfg, texts, query_indices)


def test_retrieval_matches_string_masks_at_a_larger_size():
    # 250 captions over 2000 rows, pools of 10: hits and misses both common
    rng = np.random.default_rng(31)
    caption = rng.integers(0, 250, size=2000)
    texts = [f"c{i}" for i in caption]
    text = rng.normal(size=(250, 32))[caption] + 0.3 * rng.normal(size=(2000, 32))
    gen = text + 4.0 * rng.normal(size=text.shape)
    cfg = RetrievalConfig(pool_size=10, repeats=2, seed=3)
    got = retrieval_acc1(gen, text, cfg, texts=texts)
    assert 0.2 < got < 0.9
    assert got == _retrieval_two_pass(gen, text, cfg, texts)


@pytest.mark.parametrize("query_indices, first_short", [(None, 0), ([12, 7, 2], 7), ([15, 14, 9], 9)])
def test_retrieval_pool_error_names_the_first_short_query(query_indices, first_short):
    # "up" rows (0-9) have 6 distractors; a pool of 8 needs 7
    texts = ["up"] * 10 + ["down"] * 3 + ["flat"] * 3
    emb = np.random.default_rng(2).normal(size=(16, 4))
    cfg = RetrievalConfig(pool_size=8, repeats=2, seed=0)
    with pytest.raises(ContractViolation) as err:
        retrieval_acc1(emb, emb, cfg, texts=texts, query_indices=query_indices)
    assert str(err.value) == f"pool_size 8 needs 7 distractors, only 6 available for query {first_short}"


def test_retrieval_leaves_numpy_random_unloaded():
    # every pool here is drawn in bulk, so no Generator is ever opened
    code = (
        "import sys, numpy as np\n"
        "from seriesbench.protocols import RetrievalConfig, retrieval_acc1\n"
        "emb = np.arange(1.0, 241.0).reshape(60, 4) ** 0.5\n"
        "retrieval_acc1(emb, emb[::-1], RetrievalConfig(pool_size=10, repeats=3, seed=1))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(seriesbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("bad", [12, -1])
def test_retrieval_rejects_query_index_outside_rows(bad):
    rng = np.random.default_rng(7)
    gen = rng.normal(size=(10, 3))
    cfg = RetrievalConfig(pool_size=3, repeats=1, seed=0)
    with pytest.raises(ContractViolation, match=rf"query index {bad} is outside \[0, 10\)"):
        retrieval_acc1(gen, gen, cfg, query_indices=[0, bad, 11])


@pytest.mark.parametrize("n_texts", [19, 21])
def test_retrieval_rejects_caption_count_mismatch(n_texts):
    rng = np.random.default_rng(6)
    gen = rng.normal(size=(20, 3))
    cfg = RetrievalConfig(pool_size=3, repeats=1, seed=0)
    with pytest.raises(ContractViolation, match=f"{n_texts} captions for 20 embedding rows"):
        retrieval_acc1(gen, gen, cfg, texts=["t"] * n_texts)


def _retrieval_two_pass(gen, text, cfg, texts=None, query_indices=None):
    """Reference: candidate arrays for every query first, then repeats outer, queries inner."""
    gen = gen / np.linalg.norm(gen, axis=1, keepdims=True)
    text = text / np.linalg.norm(text, axis=1, keepdims=True)
    n = gen.shape[0]
    queries = list(range(n)) if query_indices is None else list(query_indices)
    gid = list(range(n)) if texts is None else [texts.index(t) for t in texts]
    candidates = {}
    for q in queries:
        cand = np.array([j for j in range(n) if gid[j] != gid[q]], dtype=np.int64)
        if cfg.pool_size - 1 > cand.size:
            raise ContractViolation(
                f"pool_size {cfg.pool_size} needs {cfg.pool_size - 1} distractors, "
                f"only {cand.size} available for query {q}"
            )
        candidates[q] = cand
    per_repeat = np.empty(cfg.repeats)
    for repeat in range(cfg.repeats):
        hits = 0
        for q in queries:
            rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((cfg.seed, repeat, q))))
            distractors = rng.choice(candidates[q], size=cfg.pool_size - 1, replace=False)
            if distractors.size:
                hits += float(gen[q] @ text[q]) > float((text[distractors] @ gen[q]).max())
            else:
                hits += 1
        per_repeat[repeat] = hits / len(queries)
    return float(per_repeat.mean())


@pytest.mark.parametrize(
    "pool_size, with_texts, query_indices",
    [
        (1, False, None),
        (5, False, None),
        (4, True, None),
        (4, True, [3, 3, 0, 17, 3, 29]),  # a repeated query counts each time it appears
        (8, True, [29, 1, 1]),
        (9, True, [29, 0, 1]),  # query 0 has 7 distractors, pool 9 needs 8
    ],
)
def test_retrieval_matches_two_pass_reference(pool_size, with_texts, query_indices):
    rng = np.random.default_rng(pool_size)
    # one caption covers 23 of the 30 rows, so their queries have only 7 distractors
    texts = ["up"] * 23 + [("down", "flat", "up\x00")[i % 3] for i in range(7)] if with_texts else None
    text = rng.normal(size=(30, 5))
    gen = text + 0.8 * rng.normal(size=(30, 5))
    cfg = RetrievalConfig(pool_size=pool_size, repeats=4, seed=pool_size + 1)
    if pool_size == 9:
        with pytest.raises(ContractViolation) as expected:
            _retrieval_two_pass(gen, text, cfg, texts, query_indices)
        with pytest.raises(ContractViolation) as got:
            retrieval_acc1(gen, text, cfg, texts=texts, query_indices=query_indices)
        assert str(got.value) == str(expected.value) == (
            "pool_size 9 needs 8 distractors, only 7 available for query 0"
        )
    else:
        expected = _retrieval_two_pass(gen, text, cfg, texts, query_indices)
        assert retrieval_acc1(gen, text, cfg, texts=texts, query_indices=query_indices) == expected


@pytest.mark.parametrize("seed", [2**32 - 1, 2**32, 2**64])
@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_retrieval_keys_match_reference_across_blocks_and_wide_seeds(seed, block_rows, monkeypatch):
    # key blocks that split one query's repeats, and seeds SeedSequence stores in several words
    monkeypatch.setattr(protocols, "_KEY_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(5)
    texts = ["up"] * 10 + [("down", "flat")[i % 2] for i in range(14)]
    text = rng.normal(size=(24, 5))
    gen = text + 0.9 * rng.normal(size=(24, 5))
    cfg = RetrievalConfig(pool_size=4, repeats=3, seed=seed)
    for query_indices in (None, [5, 5, 0, 23]):
        expected = _retrieval_two_pass(gen, text, cfg, texts, query_indices)
        assert retrieval_acc1(gen, text, cfg, texts=texts, query_indices=query_indices) == expected


def test_retrieval_rejects_negative_seed():
    gen = np.random.default_rng(1).normal(size=(6, 3))
    with pytest.raises(ContractViolation, match="non-negative"):
        retrieval_acc1(gen, gen, RetrievalConfig(pool_size=2, repeats=1, seed=-3))


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


def _dknn_argsort_reference(test_attr, train_attrs, k):
    # the per-vector body dknn had before it became the one-row dknn_values case
    train = np.asarray(train_attrs)
    dists = (train != np.asarray(test_attr)).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    return float(dists[order[:k]].mean())


def test_dknn_matches_argsort_reference_bitwise():
    rng = np.random.default_rng(21)
    cases = 0
    for _ in range(400):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        # two values per attribute, so distance ties are common
        train = rng.integers(0, 2, size=(n, m))
        test = rng.integers(0, 2, size=m)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            got = dknn(test, train, k)
            expected = _dknn_argsort_reference(test, train, k)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            cases += 1
    assert cases > 800


def test_dknn_values_in_blocks_match_one_block_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    train = rng.integers(0, 3, size=(300, 8))
    tests = rng.integers(0, 3, size=(61, 8))
    whole = dknn_values(tests, train, k=9)  # the default budget holds all 61 rows
    for rows in (20, 1):  # three blocks of 20 and a lone last row; one row per block
        monkeypatch.setattr(protocols, "_DKNN_BYTES", rows * 300 * (8 + 16))
        blocked = dknn_values(tests, train, k=9)
        assert blocked.dtype == np.float64 and blocked.tobytes() == whole.tobytes()


def test_dknn_values_scratch_stays_within_its_budget():
    import tracemalloc

    rng = np.random.default_rng(6)
    train = rng.integers(0, 4, size=(6000, 8))
    tests = rng.integers(0, 4, size=(2000, 8))
    tracemalloc.start()
    try:
        dknn_values(tests, train, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all test rows at once hold 16 B per (test, train) pair: 183 MiB here
    assert peak <= protocols._DKNN_BYTES + (1 << 20), peak / 2**20


def test_dknn_rejects_bad_shapes_and_k():
    train = np.zeros((4, 3), dtype=int)
    for test, k in (([0, 0], 1), ([[0, 0, 0]], 1), ([0, 0, 0], 0), ([0, 0, 0], 5)):
        with pytest.raises(ContractViolation):
            dknn(test, train, k)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: RetrievalConfig(pool_size=v, repeats=1),
        lambda v: RetrievalConfig(pool_size=2, repeats=v),
        lambda v: dknn_values(np.zeros((2, 3), dtype=int), np.zeros((4, 3), dtype=int), k=v),
    ],
    ids=["pool_size", "repeats", "dknn_k"],
)
def test_integer_parameters_refuse_bools_and_fractions(call, value):
    # 2.5 ended in a bare TypeError when used; True ran as 1
    with pytest.raises(ContractViolation, match="must be (an )?integers?, got"):
        call(value)


def test_a_bool_seed_is_refused():
    # seed=True ran as seed 1: operator.index takes a bool
    emb = np.random.default_rng(0).normal(size=(6, 3))
    cfg = RetrievalConfig(pool_size=3, repeats=1, seed=True)
    with pytest.raises(ContractViolation, match="a stream seed must be one integer, got bool"):
        retrieval_acc1(emb, emb, cfg)


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


@pytest.mark.parametrize("fraction", [0.0, -0.2, 0.51, 0.8, 1.0, float("nan")])
def test_head_tail_rejects_fraction_outside_half(fraction):
    # above 0.5 the head and tail would overlap (0.8 of 10 values: [0..7] and [2..9])
    with pytest.raises(ContractViolation, match=r"fraction must be in \(0, 0.5\]"):
        head_tail_split(np.arange(10.0), fraction=fraction)


@pytest.mark.parametrize("fraction", ["0.2", None, True, np.bool_(True)], ids=repr)
def test_head_tail_rejects_a_fraction_that_is_no_number(fraction):
    with pytest.raises(ContractViolation, match=f"^fraction must be a number, got {re.escape(repr(fraction))}$"):
        head_tail_split(np.arange(10.0), fraction=fraction)


def test_head_tail_half_splits_odd_count_disjointly():
    head, tail = head_tail_split(np.arange(11.0), fraction=0.5)
    assert list(head) == [0, 1, 2, 3, 4]
    assert list(tail) == [6, 7, 8, 9, 10]


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_drop_rate_rejects_non_finite_accuracies(bad):
    for accs in ((bad, 0.7, 0.5), (0.9, bad, 0.5), (0.9, 0.7, bad)):
        with pytest.raises(ContractViolation, match="accuracies must be finite"):
            drop_rate(*accs)


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


@pytest.mark.parametrize("shape", [(0, 4, 2), (3, 0, 2)])
def test_temporal_rejects_empty_series_or_segments(shape):
    with pytest.raises(ContractViolation, match="zero-length dimension"):
        temporal_order_eval(np.ones(shape), np.ones(shape))


def test_temporal_overflowing_norm_raises_without_warning():
    seg = np.ones((3, 4, 2))
    seg[0, 1] = 1e300  # its squared norm overflows to inf
    with pytest.raises(ContractViolation, match="zero-norm"):
        temporal_order_eval(seg, np.ones((3, 4, 2)))
