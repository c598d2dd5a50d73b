"""Embedding-space fidelity and adherence metrics over externally produced embeddings.

Fréchet distances use the Wasserstein-2 closed form between Gaussian
approximations; the covariance cross term is evaluated on the symmetrized
product S_a @ Sigma_b @ S_a (S_a the PSD square root of Sigma_a), which has
the same trace square root as Sigma_a @ Sigma_b but keeps the
eigendecomposition on a PSD argument.

Precision/recall follow the kNN-hypersphere manifold construction: a query
lies in the manifold when it falls inside the closed ball around any
reference point whose radius is the distance to that point's k-th nearest
neighbour (self excluded).  kNN is exact; distance matrices are computed in
row blocks so benchmark-scale inputs (n up to ~30k) stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, EmbeddingMatrix, as_embedding_array

_EIG_CLAMP_REL = 1e-10
_SYMMETRY_TOL = 1e-8
_BLOCK_ROWS = 2048


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


def gaussian_summary(emb: EmbeddingMatrix | np.ndarray) -> GaussianSummary:
    x = as_embedding_array(emb)
    if x.shape[0] < 2:
        raise ContractViolation("need at least 2 rows for a covariance estimate")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    cov = (cov + cov.T) / 2.0
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
    return frechet_distance(gaussian_summary(real_emb), gaussian_summary(gen_emb))


# ---------------------------------------------------------------------------
# kNN-manifold precision / recall
# ---------------------------------------------------------------------------


def _block_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances (n_queries, n_points) computed stably."""
    q_sq = (queries**2).sum(axis=1)[:, None]
    p_sq = (points**2).sum(axis=1)[None, :]
    sq = q_sq + p_sq - 2.0 * queries @ points.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


@dataclass(frozen=True)
class ManifoldIndex:
    """Reference points plus the radius of each point's k-NN hypersphere."""

    points: np.ndarray
    k: int
    radii: np.ndarray

    @classmethod
    def build(cls, emb: EmbeddingMatrix | np.ndarray, k: int) -> "ManifoldIndex":
        points = as_embedding_array(emb)
        n = points.shape[0]
        if not 1 <= k < n:
            raise ContractViolation(f"k must satisfy 1 <= k < n_points, got k={k}, n={n}")
        radii = np.empty(n)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            d = _block_distances(points[start:stop], points)
            rows = np.arange(stop - start)
            d[rows, np.arange(start, stop)] = np.inf  # exclude self
            radii[start:stop] = np.partition(d, k - 1, axis=1)[:, k - 1]
        return cls(points=points, k=k, radii=radii)

    def contains(self, queries: np.ndarray) -> np.ndarray:
        """Boolean per query: inside the closed ball of at least one point."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        out = np.zeros(queries.shape[0], dtype=bool)
        for start in range(0, queries.shape[0], _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, queries.shape[0])
            d = _block_distances(queries[start:stop], self.points)
            out[start:stop] = (d <= self.radii[None, :]).any(axis=1)
        return out


def precision(
    real_emb: EmbeddingMatrix | np.ndarray,
    gen_emb: EmbeddingMatrix | np.ndarray,
    k: int = 5,
) -> float:
    """Fraction of generated points inside the real-data manifold."""
    real = as_embedding_array(real_emb)
    gen = as_embedding_array(gen_emb)
    if real.shape[0] <= k or gen.shape[0] <= k:
        raise ContractViolation(f"both sets need more than k={k} points")
    index = ManifoldIndex.build(real, k)
    return float(index.contains(gen).mean())


def recall(
    real_emb: EmbeddingMatrix | np.ndarray,
    gen_emb: EmbeddingMatrix | np.ndarray,
    k: int = 5,
) -> float:
    """Fraction of real points inside the generated-data manifold."""
    real = as_embedding_array(real_emb)
    gen = as_embedding_array(gen_emb)
    if real.shape[0] <= k or gen.shape[0] <= k:
        raise ContractViolation(f"both sets need more than k={k} points")
    index = ManifoldIndex.build(gen, k)
    return float(index.contains(real).mean())


# ---------------------------------------------------------------------------
# Condition adherence
# ---------------------------------------------------------------------------


def cttp_score(ts_emb: EmbeddingMatrix | np.ndarray, text_emb: EmbeddingMatrix | np.ndarray) -> float:
    """Mean row-wise cosine similarity between aligned series and text embeddings."""
    ts = as_embedding_array(ts_emb)
    text = as_embedding_array(text_emb)
    if ts.shape != text.shape:
        raise ContractViolation(f"shape mismatch: {ts.shape} vs {text.shape}")
    ts_norm = np.linalg.norm(ts, axis=1)
    text_norm = np.linalg.norm(text, axis=1)
    if np.any(ts_norm == 0.0) or np.any(text_norm == 0.0):
        raise ContractViolation("zero-norm embedding row")
    return float(((ts * text).sum(axis=1) / (ts_norm * text_norm)).mean())


def joint_embed(
    ts_emb: EmbeddingMatrix | np.ndarray, cond_emb: EmbeddingMatrix | np.ndarray
) -> EmbeddingMatrix:
    """Row-wise concatenation of series and condition embeddings."""
    ts = as_embedding_array(ts_emb)
    cond = as_embedding_array(cond_emb)
    if ts.shape[0] != cond.shape[0]:
        raise ContractViolation(f"sample count mismatch: {ts.shape[0]} vs {cond.shape[0]}")
    return EmbeddingMatrix(data=np.concatenate([ts, cond], axis=1), role="joint")


def j_ftsd(
    ts_real: EmbeddingMatrix | np.ndarray,
    ts_gen: EmbeddingMatrix | np.ndarray,
    cond_emb: EmbeddingMatrix | np.ndarray,
) -> float:
    """Fréchet distance in the concatenated (series ⊕ condition) space."""
    joint_real = joint_embed(ts_real, cond_emb)
    joint_gen = joint_embed(ts_gen, cond_emb)
    return frechet_distance(gaussian_summary(joint_real), gaussian_summary(joint_gen))


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
