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

from seriesbench.core import (
    ContractViolation,
    EmbeddingMatrix,
    MetricReport,
    as_embedding_array,
    checked_array,
    is_integer,
    row_norms,
)
from seriesbench.streams import sample_sets, stream_keys


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
                cell = f"model={model!r} dataset={dataset!r} metric={metric!r}"
                values = cells.get((model, dataset, metric))
                if not values:
                    raise ContractViolation(f"missing cell: {cell}")
                # average over seeds first; finite seeds can still sum past float64
                with np.errstate(over="ignore", invalid="ignore"):
                    mean = float(np.mean(values))
                if not np.isfinite(mean):
                    raise ContractViolation(f"seed mean is not finite: {cell}")
                scores[mi, di, ki] = mean

    # average-tie ranks over models, 1 = best: the models strictly better,
    # plus the mean position within the tie group (which counts the model itself)
    lower = np.array([directions[metric] == "lower_better" for metric in metrics], dtype=bool)
    signed = np.where(lower, -scores, scores)
    better = (signed[None] > signed[:, None]).sum(axis=1)
    tied = (signed[None] == signed[:, None]).sum(axis=1)
    ranks = better + (tied + 1) / 2

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


# retrieval draws and scores the pools of at most this many (query, repeat) pairs at once
_KEY_BLOCK_ROWS = 4096
_GATHER_BYTES = 2 << 20  # budget of a block's gathered distractor embeddings


@dataclass(frozen=True)
class RetrievalConfig:
    pool_size: int
    repeats: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not (is_integer(self.pool_size) and is_integer(self.repeats)):
            raise ContractViolation(f"pool_size and repeats must be integers, got {self.pool_size!r}, {self.repeats!r}")
        if self.pool_size < 1 or self.repeats < 1:
            raise ContractViolation("pool_size and repeats must be >= 1")


def _unit_rows(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` scaled to unit norm over its last axis."""
    return x / row_norms(x, what)


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

    The distractors of (query q, repeat r) are
    ``open_stream(stream_keys(seed, r, q)[0]).choice(candidates, pool_size - 1, replace=False)``.
    Blocks of pairs draw their pools at once through ``sample_sets``, in the
    order ``choice`` returns them, and score them in one stacked product that
    rounds each pool's scores as its own matrix-vector product does.  The
    order matters although a pool's score is a max: the BLAS may round a
    row's score differently at another position in the pool.
    """
    gen = _unit_rows(as_embedding_array(gen_emb), "generated embeddings")
    text = _unit_rows(as_embedding_array(text_emb), "text embeddings")
    if gen.shape != text.shape:
        raise ContractViolation(f"shape mismatch: {gen.shape} vs {text.shape}")
    n, dim = gen.shape
    queries = np.arange(n) if query_indices is None else np.asarray(query_indices, dtype=np.int64)
    if queries.size == 0:
        raise ContractViolation("no queries")
    outside = np.flatnonzero((queries < 0) | (queries >= n))
    if outside.size:
        raise ContractViolation(f"query index {queries[outside[0]]} is outside [0, {n})")

    if texts is None:
        gid = np.arange(n)
    else:
        if len(texts) != n:
            raise ContractViolation(f"{len(texts)} captions for {n} embedding rows")
        # a dict, not np.unique: fixed-width NumPy strings drop trailing NULs
        ids: dict[str, int] = {}
        gid = np.fromiter((ids.setdefault(t, len(ids)) for t in texts), dtype=np.int64, count=n)
    group_size = np.bincount(gid)
    n_cand = n - group_size[gid]  # a row's candidates: the rows outside its caption group
    size = cfg.pool_size - 1
    short = np.flatnonzero(n_cand[queries] < size)
    if short.size:
        q = queries[short[0]]
        raise ContractViolation(
            f"pool_size {cfg.pool_size} needs {size} distractors, only {n_cand[q]} available for query {q}"
        )

    # Candidate p of a query in group g is row p + k, k the number of g's rows
    # m_0 < m_1 < ... with m_i - i <= p (m_i - i rows outside g precede m_i).
    # One sorted array answers every group: group g's values offset by g * (n + 1).
    by_group = np.argsort(gid, kind="stable")
    group_start = np.cumsum(group_size) - group_size
    rank_in_group = np.arange(n) - group_start[gid[by_group]]
    offset = gid * (n + 1)
    outside_before = offset[by_group] + by_group - rank_in_group

    truth = np.zeros(n)
    for q in np.unique(queries).tolist():
        truth[q] = gen[q] @ text[q]
    hits = np.zeros(cfg.repeats, dtype=np.int64)
    pairs = queries.size * cfg.repeats
    block = max(1, min(_KEY_BLOCK_ROWS, _GATHER_BYTES // (8 * dim * max(size, 1))))
    gathered = np.empty((block, size, dim))
    scores = np.empty((block, size, 1))
    # (query, repeat) pairs in query-major order
    for first in range(0, pairs, block):
        pair = np.arange(first, min(first + block, pairs))
        block_queries, block_repeats = queries[pair // cfg.repeats], pair % cfg.repeats
        positions = sample_sets(stream_keys(cfg.seed, block_repeats, block_queries), n_cand[block_queries], size)
        ahead = np.searchsorted(outside_before, offset[block_queries, None] + positions, side="right")
        picks = positions + ahead - group_start[gid[block_queries], None]  # p + k
        # indices are in range, so "clip" only spares take its buffered bounds check
        np.take(text, picks, axis=0, out=gathered[: pair.size], mode="clip")
        np.matmul(gathered[: pair.size], gen[block_queries, :, None], out=scores[: pair.size])
        best = scores[: pair.size, :, 0].max(axis=1, initial=-np.inf)  # -inf for an empty pool
        hit = truth[block_queries] > best  # ties count as misses
        hits += np.bincount(block_repeats[hit], minlength=cfg.repeats)
    per_repeat = hits / queries.size
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
    seg = checked_array(segment_emb, 3, "segment embeddings")
    txt = checked_array(text_emb, 3, "text embeddings")
    if seg.shape != txt.shape:
        raise ContractViolation(f"segment and text embeddings must share (n, P, d), got {seg.shape} vs {txt.shape}")
    p = seg.shape[1]
    seg_n, txt_n = _unit_rows(seg, "segment embeddings"), _unit_rows(txt, "text embeddings")
    sims = np.einsum("npd,nqd->npq", seg_n, txt_n)
    retrieved = sims.argmax(axis=2)  # (n, P)
    confusion = np.zeros((p, p))
    for row in range(p):
        confusion[row] = np.bincount(retrieved[:, row], minlength=p)
    confusion /= confusion.sum(axis=1, keepdims=True)
    return confusion, float(np.diag(confusion).mean())


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


_DKNN_BYTES = 8 << 20  # budget of one block of test rows' comparisons and distances


def dknn(test_attr: Sequence[int], train_attrs: np.ndarray, k: int) -> float:
    """Mean Hamming distance from a test vector to its k nearest training vectors.

    The one-row case of :func:`dknn_values`.
    """
    return float(dknn_values(np.asarray(test_attr)[None], train_attrs, k)[0])


def dknn_values(test_attrs: np.ndarray, train_attrs: np.ndarray, k: int) -> np.ndarray:
    """dknn of each row of ``test_attrs`` (n_test, M) against ``train_attrs`` (n, M).

    The k smallest distances are integers, so their float64 mean does not
    depend on the order in which they are selected or summed, nor on the
    blocks of test rows, within ``_DKNN_BYTES`` each, that compute them.
    """
    tests = np.asarray(test_attrs)
    train = np.asarray(train_attrs)
    if tests.ndim != 2 or train.ndim != 2 or tests.shape[1] != train.shape[1]:
        raise ContractViolation("test and train attribute matrices must share M columns")
    if not is_integer(k):
        raise ContractViolation(f"k must be an integer, got {k!r}")
    if not 1 <= k <= train.shape[0]:
        raise ContractViolation(f"k must be in [1, {train.shape[0]}], got {k}")
    # a pair holds M comparison bytes, then its int64 distance and that distance's partitioned copy
    rows = max(1, _DKNN_BYTES // (train.shape[0] * (train.shape[1] + 16)))
    values = np.empty(len(tests))
    for start in range(0, len(tests), rows):
        dists = (tests[start : start + rows, None, :] != train[None, :, :]).sum(axis=2)
        values[start : start + rows] = np.partition(dists, k - 1, axis=1)[:, :k].mean(axis=1)
    return values


def head_tail_split(
    dknn_vals: np.ndarray, fraction: float = 0.20
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the closest and farthest ``fraction`` of samples by dknn.

    Boundary ties resolve by sample index: low indices go to the head, high
    indices to the tail.  ``fraction`` must lie in (0, 0.5] so the two sets
    never overlap.
    """
    if not 0.0 < fraction <= 0.5:
        raise ContractViolation(f"fraction must be in (0, 0.5], got {fraction}")
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
    accs = (acc_real, acc_gen, acc_rand)
    if not np.all(np.isfinite(accs)):
        raise ContractViolation(f"accuracies must be finite, got {accs}")
    if acc_real <= acc_rand:
        return None
    real, gen, rand = (Fraction(repr(float(v))) for v in accs)
    return float(1 - (gen - rand) / (real - rand))
