"""Embedding-space fidelity and adherence metrics over externally produced embeddings.

Fréchet distances use the Wasserstein-2 closed form between Gaussian
approximations; the covariance cross term is evaluated on the symmetrized
product S_a @ Sigma_b @ S_a (S_a the PSD square root of Sigma_a), which has
the same trace square root as Sigma_a @ Sigma_b but keeps the
eigendecomposition on a PSD argument.

Precision/recall follow the kNN-hypersphere manifold construction: a query
lies in the manifold when it falls inside the closed ball around any
reference point whose radius is the distance to that point's k-th nearest
neighbour (self excluded).  kNN is exact.  The kernel works on squared
distances: ``x ↦ sqrt(max(x, 0))`` is monotone, so a radius is the root of
the k-th smallest squared distance, taken once per point, and a query is
inside a ball when its squared distance is at most the largest square whose
root does not exceed the radius.  The products are formed in row blocks of a
(rows, n) float64 gram buffer of ``_BLOCK_BYTES`` (8 MiB) up to n = 8192 and
of 128 rows above, since shorter gemm calls run far below the BLAS's peak
(29.3 MiB at n = 30k, 97.7 MiB at 100k); each block is then finished and
consumed in row tiles of a buffer of at most ``_TILE_BYTES`` (256 KiB), small
enough to stay in cache, so a pass needs one gram block plus one tile of
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, EmbeddingMatrix, as_embedding_array, is_integer, row_norms

_EIG_CLAMP_REL = 1e-10
_SYMMETRY_TOL = 1e-8
_BLOCK_BYTES = 8 << 20  # bytes per gram block; its height sets the BLAS call shapes
_TILE_BYTES = 256 << 10  # bytes per squared-distance tile, finished and consumed in cache
_THRESHOLD_STEPS = 8  # nextafter steps allowed from r*r to a radius's threshold


@dataclass(frozen=True)
class GaussianSummary:
    """Empirical mean and (n-1)-divisor covariance of embedding rows."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ContractViolation("mean must be (d,) and covariance (d, d)")
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(cov).max(initial=0.0)):
            raise ContractViolation("covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def gaussian_summary(emb: EmbeddingMatrix | np.ndarray, what: str = "embeddings") -> GaussianSummary:
    x = as_embedding_array(emb)
    if x.shape[0] < 2:
        raise ContractViolation("need at least 2 rows for a covariance estimate")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / (x.shape[0] - 1)
        cov = (cov + cov.T) / 2.0
    if not np.isfinite(cov).all():
        raise ContractViolation(f"the covariance of the {what} overflows float64")
    return GaussianSummary(mean=mean, covariance=cov)


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Spectral square root of a symmetric PSD matrix.

    Eigenvalues below 1e-10 of the largest are clamped to zero, so slightly
    indefinite inputs from floating-point noise are accepted.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, np.abs(m).max(initial=0.0))
    if np.abs(m - m.T).max(initial=0.0) > _SYMMETRY_TOL * scale:
        raise ContractViolation("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh((m + m.T) / 2.0)
    cutoff = _EIG_CLAMP_REL * max(eigvals[-1], 0.0)
    eigvals = np.where(eigvals < cutoff, 0.0, eigvals)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def frechet_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """||mu_a - mu_b||^2 + Tr(Sig_a + Sig_b - 2 (Sig_a Sig_b)^{1/2}), clamped to >= 0."""
    if a.dim != b.dim:
        raise ContractViolation(f"dimension mismatch: {a.dim} vs {b.dim}")
    mean_gap = float(((a.mean - b.mean) ** 2).sum())
    root_a = matrix_sqrt_psd(a.covariance)
    inner = root_a @ b.covariance @ root_a
    cross = float(np.trace(matrix_sqrt_psd((inner + inner.T) / 2.0)))
    value = mean_gap + float(np.trace(a.covariance) + np.trace(b.covariance)) - 2.0 * cross
    scale = max(1.0, abs(float(np.trace(a.covariance))), abs(float(np.trace(b.covariance))))
    if value < -1e-6 * scale:
        raise ContractViolation(f"Fréchet distance came out significantly negative: {value}")
    return max(value, 0.0)


def fid(real_emb: EmbeddingMatrix | np.ndarray, gen_emb: EmbeddingMatrix | np.ndarray) -> float:
    """Fréchet distance between the Gaussian summaries of two embedding sets."""
    return frechet_distance(
        gaussian_summary(real_emb, "real embeddings"), gaussian_summary(gen_emb, "generated embeddings")
    )


# ---------------------------------------------------------------------------
# kNN-manifold precision / recall
# ---------------------------------------------------------------------------


def _distance_blocks(queries: np.ndarray, points: np.ndarray):
    """Yield ``(start, stop, d)``: squared Euclidean distances of queries[start:stop] to all points.

    ``d`` is a view of a tile buffer that the next tile overwrites, so a
    caller reads or reduces it before asking for the next one and may modify
    it in place.  Values are raw: ``q_sq + p_sq - (2.0 * q) @ points.T`` in
    that order, neither clamped at 0 nor rooted.  Points whose distances may
    overflow float64 raise ``ContractViolation`` before the first tile, so
    every value is finite.  The product is one matmul per block of as many
    rows as ``_BLOCK_BYTES`` holds, a row counted as at most 8192 points, so a
    block is never lower than at n = 8192 (128 rows at 8 MiB); the sum and
    the difference run per tile, a run of that block's rows of up to
    ``_TILE_BYTES``.  The BLAS may round a product differently with its
    height (a one-row product goes through gemv), so a distance is bitwise
    stable across block budgets only where the products' shapes round alike;
    the tile height changes no value.
    """
    n_queries, n = queries.shape[0], points.shape[0]
    rows = max(1, min(n_queries, _BLOCK_BYTES // (8 * min(n, 8192))))
    tile_rows = max(1, min(rows, _TILE_BYTES // (8 * n)))
    with np.errstate(over="ignore"):
        q_sq = (queries**2).sum(axis=1)
        p_sq = (points**2).sum(axis=1)
        # |q - p|^2 <= 2 (|q|^2 + |p|^2): with a margin of 4, every distance and partial sum is finite
        bound = 4.0 * (q_sq.max() + p_sq.max())
    if not np.isfinite(bound):
        raise ContractViolation("squared distances between the embeddings overflow float64")
    gram = np.empty((rows, n))
    tile = np.empty((tile_rows, n))
    for block in range(0, n_queries, rows):
        block_stop = min(block + rows, n_queries)
        g = gram[: block_stop - block]
        np.matmul(2.0 * queries[block:block_stop], points.T, out=g)
        for start in range(block, block_stop, tile_rows):
            stop = min(start + tile_rows, block_stop)
            d = tile[: stop - start]
            np.add(q_sq[start:stop, None], p_sq, out=d)
            np.subtract(d, g[start - block : stop - block], out=d)
            yield start, stop, d


def _root(sq: np.ndarray) -> np.ndarray:
    """Distances from squared distances: ``sqrt(max(sq, 0))``, monotone in ``sq``."""
    return np.sqrt(np.maximum(sq, 0.0))


def _radius_thresholds(radii: np.ndarray) -> np.ndarray:
    """Largest ``t`` with ``_root(t) <= r`` per radius ``r``, so ``_root(x) <= r`` iff ``x <= t``.

    Starts from ``r * r`` and steps by ``nextafter`` until ``t`` is maximal:
    ``_root(t) <= r`` and ``t == inf`` or ``_root(nextafter(t, inf)) > r``.  A
    NaN radius gives NaN, and a negative one, which no square reaches, NaN
    too, so no ``x`` passes either.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.where(radii < 0.0, np.nan, radii * radii)
        for _ in range(_THRESHOLD_STEPS):
            above = _root(t) > radii
            up = np.nextafter(t, np.inf)
            below = (t < np.inf) & (_root(up) <= radii)
            if not (above.any() or below.any()):
                return t
            t = np.where(above, np.nextafter(t, -np.inf), np.where(below, up, t))
    raise ArithmeticError(f"radius thresholds not maximal after {_THRESHOLD_STEPS} steps")


@dataclass(frozen=True)
class ManifoldIndex:
    """Reference points plus the radius of each point's k-NN hypersphere."""

    points: np.ndarray
    radii: np.ndarray

    @classmethod
    def build(cls, emb: EmbeddingMatrix | np.ndarray, k: int) -> "ManifoldIndex":
        points = as_embedding_array(emb)
        n = points.shape[0]
        if not is_integer(k):
            raise ContractViolation(f"k must be an integer, got {k!r}")
        if not 1 <= k < n:
            raise ContractViolation(f"k must satisfy 1 <= k < n_points, got k={k}, n={n}")
        kth = np.empty(n)
        for start, stop, d in _distance_blocks(points, points):
            # exclude self: in the C-contiguous tile, row r's own distance sits at flat index start + r(n + 1)
            d.reshape(-1)[start :: n + 1] = np.inf
            d.partition(k - 1, axis=1)
            kth[start:stop] = d[:, k - 1]
        # the k-th smallest root is the root of the k-th smallest square
        return cls(points=points, radii=_root(kth))

    def contains(self, queries: EmbeddingMatrix | np.ndarray) -> np.ndarray:
        """Boolean per query row: inside the closed ball of at least one point."""
        queries = as_embedding_array(queries)
        if queries.shape[1] != self.points.shape[1]:
            raise ContractViolation(
                f"queries must be (m, {self.points.shape[1]}), got shape {queries.shape}"
            )
        thresholds = _radius_thresholds(self.radii)
        out = np.zeros(queries.shape[0], dtype=bool)
        inside = None
        for start, stop, d in _distance_blocks(queries, self.points):
            if inside is None:
                inside = np.empty(d.shape, dtype=bool)  # the first tile is the tallest
            np.less_equal(d, thresholds, out=inside[: stop - start]).any(axis=1, out=out[start:stop])
        return out


def precision(
    real_emb: EmbeddingMatrix | np.ndarray,
    gen_emb: EmbeddingMatrix | np.ndarray,
    k: int = 5,
) -> float:
    """Fraction of generated points inside the real-data manifold."""
    real = as_embedding_array(real_emb)
    gen = as_embedding_array(gen_emb)
    if not is_integer(k):  # before k is compared
        raise ContractViolation(f"k must be an integer, got {k!r}")
    if real.shape[0] <= k or gen.shape[0] <= k:
        raise ContractViolation(f"both sets need more than k={k} points")
    # the arguments, so a wrapper's array is not checked again
    return float(ManifoldIndex.build(real_emb, k).contains(gen_emb).mean())


def recall(
    real_emb: EmbeddingMatrix | np.ndarray,
    gen_emb: EmbeddingMatrix | np.ndarray,
    k: int = 5,
) -> float:
    """Fraction of real points inside the generated-data manifold."""
    return precision(gen_emb, real_emb, k)


# ---------------------------------------------------------------------------
# Condition adherence
# ---------------------------------------------------------------------------


def cttp_score(ts_emb: EmbeddingMatrix | np.ndarray, text_emb: EmbeddingMatrix | np.ndarray) -> float:
    """Mean row-wise cosine similarity between aligned series and text embeddings."""
    ts = as_embedding_array(ts_emb)
    text = as_embedding_array(text_emb)
    if ts.shape != text.shape:
        raise ContractViolation(f"shape mismatch: {ts.shape} vs {text.shape}")
    ts_norm = row_norms(ts, "series embeddings")[:, 0]
    text_norm = row_norms(text, "text embeddings")[:, 0]
    return float(((ts * text).sum(axis=1) / (ts_norm * text_norm)).mean())


def joint_embed(
    ts_emb: EmbeddingMatrix | np.ndarray, cond_emb: EmbeddingMatrix | np.ndarray
) -> EmbeddingMatrix:
    """Row-wise concatenation of series and condition embeddings."""
    ts = as_embedding_array(ts_emb)
    cond = as_embedding_array(cond_emb)
    if ts.shape[0] != cond.shape[0]:
        raise ContractViolation(f"sample count mismatch: {ts.shape[0]} vs {cond.shape[0]}")
    joint = np.concatenate([ts, cond], axis=1)
    joint.setflags(write=False)  # frozen and owning its memory, so EmbeddingMatrix shares it
    return EmbeddingMatrix(data=joint)


def j_ftsd(
    ts_real: EmbeddingMatrix | np.ndarray,
    ts_gen: EmbeddingMatrix | np.ndarray,
    cond_emb: EmbeddingMatrix | np.ndarray,
) -> float:
    """Fréchet distance in the concatenated (series ⊕ condition) space."""
    return fid(joint_embed(ts_real, cond_emb), joint_embed(ts_gen, cond_emb))


def joint_precision_recall(
    ts_real: EmbeddingMatrix | np.ndarray,
    ts_gen: EmbeddingMatrix | np.ndarray,
    cond_emb: EmbeddingMatrix | np.ndarray,
    k: int = 5,
) -> tuple[float, float]:
    """Precision and recall evaluated on the joint feature space."""
    joint_real = joint_embed(ts_real, cond_emb)
    joint_gen = joint_embed(ts_gen, cond_emb)
    return precision(joint_real, joint_gen, k=k), recall(joint_real, joint_gen, k=k)
