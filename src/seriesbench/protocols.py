"""Evaluation protocol harnesses: rank aggregation, retrieval, temporal order,
compositional distance, and downstream-utility drop rate.

Every protocol is a pure function of its inputs.  Randomized protocols key
their draws by (seed, repeat, query) so repeats and queries are
order-independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

from seriesbench.core import (
    ContractViolation,
    EmbeddingMatrix,
    MetricReport,
    as_embedding_array,
)


# ---------------------------------------------------------------------------
# Rank aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    """Per-(model, dataset, metric) average-tie ranks, 1 = best."""

    models: tuple[str, ...]
    datasets: tuple[str, ...]
    metrics: tuple[str, ...]
    ranks: np.ndarray  # (n_models, n_datasets, n_metrics)


@dataclass(frozen=True)
class GroupRank:
    model: str
    group: str
    mean_rank: float
    std_rank: float


def aggregate_ranks(
    reports: Sequence[MetricReport],
    grouping: Mapping[str, str],
) -> tuple[list[GroupRank], RankTable]:
    """Direction-normalized rank aggregation.

    Scores are averaged over seeds, converted to average-tie ranks per
    (dataset, metric) column after negating lower-better metrics, averaged
    over the metrics of each group, and finally summarized per model as the
    mean and population std across datasets.  Every model must be present
    for every (dataset, metric) cell.
    """
    if not reports:
        raise ContractViolation("no reports given")
    metrics = tuple(sorted(grouping))
    models = tuple(sorted({r.context.model_id for r in reports}))
    datasets = tuple(sorted({r.context.dataset_id for r in reports}))

    directions: dict[str, str] = {}
    cells: dict[tuple[str, str, str], list[float]] = {}
    for report in reports:
        for entry in report.entries:
            if entry.metric_name not in grouping:
                continue
            prev = directions.setdefault(entry.metric_name, entry.direction)
            if prev != entry.direction:
                raise ContractViolation(
                    f"metric {entry.metric_name!r} has conflicting directions across reports"
                )
            key = (report.context.model_id, report.context.dataset_id, entry.metric_name)
            cells.setdefault(key, []).append(entry.value)

    scores = np.empty((len(models), len(datasets), len(metrics)))
    for mi, model in enumerate(models):
        for di, dataset in enumerate(datasets):
            for ki, metric in enumerate(metrics):
                values = cells.get((model, dataset, metric))
                if not values:
                    raise ContractViolation(
                        f"missing cell: model={model!r} dataset={dataset!r} metric={metric!r}"
                    )
                scores[mi, di, ki] = float(np.mean(values))  # average over seeds first

    ranks = np.empty_like(scores)
    for di in range(len(datasets)):
        for ki, metric in enumerate(metrics):
            column = scores[:, di, ki]
            if directions[metric] == "lower_better":
                column = -column
            ranks[:, di, ki] = rankdata(-column, method="average")

    groups = sorted(set(grouping.values()))
    rows: list[GroupRank] = []
    for model_idx, model in enumerate(models):
        for group in groups:
            member = [ki for ki, metric in enumerate(metrics) if grouping[metric] == group]
            per_dataset = ranks[model_idx][:, member].mean(axis=1)
            rows.append(
                GroupRank(
                    model=model,
                    group=group,
                    mean_rank=float(per_dataset.mean()),
                    std_rank=float(per_dataset.std()),
                )
            )
    return rows, RankTable(models=models, datasets=datasets, metrics=metrics, ranks=ranks)


# ---------------------------------------------------------------------------
# Retrieval protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalConfig:
    pool_size: int
    repeats: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1 or self.repeats < 1:
            raise ContractViolation("pool_size and repeats must be >= 1")


def _pool_rng(seed: int, repeat: int, query: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((seed, repeat, query))))


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ContractViolation(f"zero-norm row in {what}")
    return x / norms


def retrieval_acc1(
    gen_emb: EmbeddingMatrix | np.ndarray,
    text_emb: EmbeddingMatrix | np.ndarray,
    cfg: RetrievalConfig,
    texts: Sequence[str] | None = None,
    query_indices: Sequence[int] | None = None,
) -> float:
    """Top-1 retrieval accuracy against distractor pools.

    Per repeat and query, the pool holds the query's true text embedding plus
    ``pool_size - 1`` distinct distractors sampled without replacement from
    the other test texts (rows with an identical caption string are excluded
    when ``texts`` is given).  Candidates are scored by cosine similarity to
    the generated-series embedding; the query counts as a hit only when the
    true text is the unique argmax.  Accuracy is averaged over queries, then
    over repeats.  ``query_indices`` restricts the queries while distractors
    still come from the full set.
    """
    gen = _unit_rows(as_embedding_array(gen_emb), "generated embeddings")
    text = _unit_rows(as_embedding_array(text_emb), "text embeddings")
    if gen.shape != text.shape:
        raise ContractViolation(f"shape mismatch: {gen.shape} vs {text.shape}")
    n = gen.shape[0]
    queries = np.arange(n) if query_indices is None else np.asarray(query_indices, dtype=np.int64)
    if queries.size == 0:
        raise ContractViolation("no queries")

    candidates_by_query: dict[int, np.ndarray] = {}
    for q in queries:
        mask = np.ones(n, dtype=bool)
        mask[q] = False
        if texts is not None:
            same = np.fromiter((texts[j] == texts[q] for j in range(n)), dtype=bool, count=n)
            mask &= ~same
        cand = np.flatnonzero(mask)
        if cfg.pool_size - 1 > cand.size:
            raise ContractViolation(
                f"pool_size {cfg.pool_size} needs {cfg.pool_size - 1} distractors, "
                f"only {cand.size} available for query {int(q)}"
            )
        candidates_by_query[int(q)] = cand

    per_repeat = np.empty(cfg.repeats)
    for repeat in range(cfg.repeats):
        hits = 0
        for q in queries:
            q = int(q)
            cand = candidates_by_query[q]
            rng = _pool_rng(cfg.seed, repeat, q)
            distractors = rng.choice(cand, size=cfg.pool_size - 1, replace=False)
            truth_score = float(gen[q] @ text[q])
            if distractors.size:
                best_distractor = float((text[distractors] @ gen[q]).max())
                hits += truth_score > best_distractor  # ties count as misses
            else:
                hits += 1
        per_repeat[repeat] = hits / queries.size
    return float(per_repeat.mean())


def temporal_order_eval(
    segment_emb: np.ndarray, text_emb: np.ndarray
) -> tuple[np.ndarray, float]:
    """Within-series positional retrieval.

    ``segment_emb`` and ``text_emb`` are (n_series, P, d): per series, each
    segment embedding retrieves one of that series' P positional texts by
    cosine argmax.  Returns the row-normalized P x P confusion matrix and the
    mean of its diagonal.
    """
    seg = np.asarray(segment_emb, dtype=np.float64)
    txt = np.asarray(text_emb, dtype=np.float64)
    if seg.ndim != 3 or seg.shape != txt.shape:
        raise ContractViolation(
            f"segment and text embeddings must share (n, P, d), got {seg.shape} vs {txt.shape}"
        )
    n, p, _ = seg.shape
    seg_norm = np.linalg.norm(seg, axis=2, keepdims=True)
    txt_norm = np.linalg.norm(txt, axis=2, keepdims=True)
    # checked before dividing, so a zero row raises without a NumPy warning
    for norm in (seg_norm, txt_norm):
        if not np.all(np.isfinite(norm) & (norm > 0)):
            raise ContractViolation("zero-norm embedding row")
    seg_n = seg / seg_norm
    txt_n = txt / txt_norm
    sims = np.einsum("npd,nqd->npq", seg_n, txt_n)
    retrieved = sims.argmax(axis=2)  # (n, P)
    confusion = np.zeros((p, p))
    for row in range(p):
        confusion[row] = np.bincount(retrieved[:, row], minlength=p)
    confusion /= confusion.sum(axis=1, keepdims=True)
    return confusion, float(np.diag(confusion).mean())


def joint_segment_accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Fraction of samples whose P segment labels all match."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 2:
        raise ContractViolation(f"label arrays must share (n, P), got {pred.shape} vs {true.shape}")
    return float((pred == true).all(axis=1).mean())


# ---------------------------------------------------------------------------
# Compositional distance
# ---------------------------------------------------------------------------


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of differing positions between two attribute vectors."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.shape != bv.shape or av.ndim != 1:
        raise ContractViolation(f"attribute vectors must share one schema, got {av.shape} vs {bv.shape}")
    return int((av != bv).sum())


def dknn(test_attr: Sequence[int], train_attrs: np.ndarray, k: int) -> float:
    """Mean Hamming distance from a test vector to its k nearest training vectors.

    Ties at the k-th distance are broken by stable training order; the mean
    itself is tie-invariant since tied neighbours share the distance value.
    """
    train = np.asarray(train_attrs)
    test = np.asarray(test_attr)
    if train.ndim != 2 or test.shape != (train.shape[1],):
        raise ContractViolation("train_attrs must be (n, M) and test_attr (M,)")
    if not 1 <= k <= train.shape[0]:
        raise ContractViolation(f"k must be in [1, {train.shape[0]}], got {k}")
    dists = (train != test).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    return float(dists[order[:k]].mean())


def dknn_values(test_attrs: np.ndarray, train_attrs: np.ndarray, k: int) -> np.ndarray:
    """Vectorized dknn over many test vectors; same values as per-vector calls."""
    tests = np.asarray(test_attrs)
    train = np.asarray(train_attrs)
    if tests.ndim != 2 or train.ndim != 2 or tests.shape[1] != train.shape[1]:
        raise ContractViolation("test and train attribute matrices must share M columns")
    if not 1 <= k <= train.shape[0]:
        raise ContractViolation(f"k must be in [1, {train.shape[0]}], got {k}")
    dists = (tests[:, None, :] != train[None, :, :]).sum(axis=2)
    smallest = np.partition(dists, k - 1, axis=1)[:, :k]
    return smallest.mean(axis=1).astype(np.float64)


def head_tail_split(
    dknn_vals: np.ndarray, fraction: float = 0.20
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the closest and farthest ``fraction`` of samples by dknn.

    Boundary ties resolve by sample index: low indices go to the head, high
    indices to the tail.
    """
    values = np.asarray(dknn_vals, dtype=np.float64)
    if values.ndim != 1 or values.size < 5:
        raise ContractViolation("need at least 5 dknn values")
    m = int(np.floor(fraction * values.size))
    if m < 1:
        raise ContractViolation(f"fraction {fraction} selects no samples out of {values.size}")
    order = np.argsort(values, kind="stable")
    return np.sort(order[:m]), np.sort(order[-m:])


# ---------------------------------------------------------------------------
# Scalar protocol arithmetic
# ---------------------------------------------------------------------------


def normalized_accuracy(acc_gen: float, acc_ref: float) -> float | None:
    """acc_gen / acc_ref; None (missing) when the reference accuracy is zero."""
    if acc_ref == 0.0:
        return None
    return acc_gen / acc_ref


def drop_rate(acc_real: float, acc_gen: float, acc_rand: float) -> float | None:
    """1 - (acc_gen - acc_rand) / (acc_real - acc_rand); None when acc_real <= acc_rand.

    Accuracies are decimal-reported quantities, so the formula is evaluated
    in exact rational arithmetic on the shortest-decimal reading of each
    input and rounded once: drop_rate(0.9, 0.7, 0.5) is exactly 0.5.
    """
    if acc_real <= acc_rand:
        return None
    real, gen, rand = (Fraction(repr(float(v))) for v in (acc_real, acc_gen, acc_rand))
    return float(1 - (gen - rand) / (real - rand))
