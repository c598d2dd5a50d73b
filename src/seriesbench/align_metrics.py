"""Reference-anchored adherence metrics: best-of-K DTW and mean CRPS.

DTW uses the classic O(N*M) dynamic program with Euclidean point cost over
full feature vectors and no warping window; boundary cells carry +inf so they
never win a min.  One kernel evaluates it for a whole batch of pairs: it
sweeps the anti-diagonals i + j = s of every pair at once, forming each
diagonal's point costs as it reaches it and keeping only the last two
diagonals, so no cost matrix is ever built.  The pairs go in chunks whose
copies of the series stay within a fixed byte budget.  ``dtw`` is the
one-pair case and ``dtw_score`` sends all n*K pairs of a bundle through it,
each chunk gathering its pairs' references and generated series by index,
so no input is copied whole, whatever its memory layout.

CRPS is the empirical two-sample form ``mean|x - y| - mean|x - x'| / 2``
evaluated per (sample, timestep, feature) via the sorted-prefix identity,
which is exact and O(K log K) per cell; ``crps_instance`` is the
one-ensemble case of ``crps_score``.  Its two terms are formed one after the
other, so its scratch stays near one bundle.  Both scores take a
``GenerationBundle`` or a plain (n, K, L, F) array, checked like one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, TimeSeriesTensor, as_series_array, checked_array, is_integer

_CHUNK_BYTES = 256 << 10  # budget of a DTW chunk's x and reversed-y copies; 256 KiB-1 MiB time alike


@dataclass(frozen=True)
class GenerationBundle:
    """K generated series per reference sample; shape (n, K, L, F)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", checked_array(self.data, 4, "generation bundle"))

    @classmethod
    def from_flat(cls, flat: TimeSeriesTensor | np.ndarray, k: int) -> "GenerationBundle":
        """Regroup a (n*K, L, F) tensor stored grouped by sample."""
        arr = as_series_array(flat)
        if not is_integer(k):
            raise ContractViolation(f"K must be an integer, got {k!r}")
        if k < 1 or arr.shape[0] % k != 0:
            raise ContractViolation(f"flat bundle of {arr.shape[0]} rows not divisible by K={k}")
        return cls(data=arr.reshape(arr.shape[0] // k, k, arr.shape[1], arr.shape[2]))


def _as_points(x: np.ndarray) -> np.ndarray:
    """A (N,) or (N, F) series as checked (N, F) points."""
    x = np.asarray(x, dtype=np.float64)
    return checked_array(x[:, None] if x.ndim == 1 else x, 2, "series")


def dtw(x: np.ndarray, y: np.ndarray) -> float:
    """Dynamic time warping distance between two point sequences.

    Local cost is the Euclidean distance between feature vectors; the
    recurrence D(i, j) = c(i, j) + min(D(i-1, j), D(i, j-1), D(i-1, j-1))
    starts from D(0, 0) = 0 with +inf borders and returns D(N, M).
    """
    xp = _as_points(x)
    yp = _as_points(y)
    if xp.shape[1] != yp.shape[1]:
        raise ContractViolation(f"feature mismatch: {xp.shape[1]} vs {yp.shape[1]}")
    return float(_dtw_batch(xp[None], yp[None, None])[0])


def _dtw_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """DTW distances of the R*K pairs (x[r], y[r, j]), pair p = r*K + j; x is (R, N, F), y is (R, K, M, F).

    Pairs are swept in chunks whose (row, pair, F) copies of x and reversed y
    fit ``_CHUNK_BYTES``; a chunk gathers its rows of both by pair index.
    With y reversed, row M-1-j of its copy holds y[j], so the cells
    (i, s - i) of anti-diagonal s pair the contiguous row slices
    ``xs[lo-1:hi]`` and ``ys[M-s+lo:M-s+hi+1]`` and each diagonal forms its
    own costs.
    """
    n, f = x.shape[1:]
    k, m = y.shape[1:3]
    p = len(x) * k
    chunk = max(1, _CHUNK_BYTES // (8 * (n + m) * f))
    out = np.empty(p)
    for start in range(0, p, chunk):
        ref, j = np.divmod(np.arange(start, min(start + chunk, p)), k)
        xs = x[ref].transpose(1, 0, 2).copy()
        ys = y[ref, j, ::-1].transpose(1, 0, 2).copy()
        # Rolling diagonals indexed by i: row i of the buffer for diagonal s
        # holds D(i, s - i).  Rows never written stay +inf, which are exactly
        # the borders D(0, j) and D(i, 0) that later diagonals read.  Diagonal
        # 2 is D(1, 1) = c(1, 1) + D(0, 0); adding 0.0 changes no bit, so it
        # is seeded directly and the sweep starts at s = 3.
        older = np.full((n + 1, xs.shape[1]), np.inf)
        last = older.copy()
        last[1] = np.sqrt(np.square(xs[0] - ys[m - 1]).sum(axis=-1))
        best = np.empty_like(last)
        for s in range(3, n + m + 1):
            lo, hi = max(1, s - m), min(n, s - 1)
            cost = xs[lo - 1:hi] - ys[m - s + lo:m - s + hi + 1]
            np.square(cost, out=cost)
            cost = cost.sum(axis=-1)
            np.sqrt(cost, out=cost)
            b = best[lo:hi + 1]
            np.minimum(last[lo - 1:hi], last[lo:hi + 1], out=b)
            np.minimum(b, older[lo - 1:hi], out=b)
            np.add(cost, b, out=older[lo:hi + 1])
            last, older = older, last
        out[start:start + chunk] = last[n]
    return out


def _aligned(refs: TimeSeriesTensor | np.ndarray, bundle: GenerationBundle | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``refs`` and ``bundle`` as (n, L, F) and (n, K, L, F) arrays with the same n, L and F."""
    r = as_series_array(refs)
    b = bundle.data if isinstance(bundle, GenerationBundle) else checked_array(bundle, 4, "generation bundle")
    if r.shape[0] != b.shape[0] or r.shape[1:] != b.shape[2:]:
        raise ContractViolation(f"refs {r.shape} do not align with bundle {b.shape}")
    return r, b


def dtw_score(refs: TimeSeriesTensor | np.ndarray, bundle: GenerationBundle | np.ndarray) -> float:
    """Mean over references of the best-of-K DTW distance."""
    r, b = _aligned(refs, bundle)
    n, k = b.shape[:2]
    total = 0.0
    for best in _dtw_batch(r, b).reshape(n, k).min(axis=1).tolist():
        total += best  # sequential sum: np.mean differs in the last ulp
    return total / n


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def crps_instance(samples: np.ndarray, y: float) -> float:
    """Empirical CRPS of one forecast ensemble against a scalar observation.

    ``mean_i |x_i - y| - (1 / 2K^2) sum_{i,j} |x_i - x_j|``; collapses to the
    absolute error when every sample is identical.  The one-ensemble case of
    :func:`crps_score`.
    """
    ensemble = np.asarray(samples, dtype=np.float64).reshape(1, -1, 1, 1)
    return crps_score(np.full((1, 1, 1), y, dtype=np.float64), GenerationBundle(ensemble))


def crps_score(refs: TimeSeriesTensor | np.ndarray, bundle: GenerationBundle | np.ndarray) -> float:
    """CRPS per (sample, timestep, feature), averaged over timesteps, then features, then samples."""
    r, b = _aligned(refs, bundle)
    # sum_{i,j} |x_i - x_j| = 2 sum_i (2i - K + 1) x_(i) over the forecasts sorted along K
    k = b.shape[1]
    weights = 2.0 * np.arange(k) - k + 1.0
    sorted_k = np.moveaxis(np.sort(b, axis=1), 1, -1)  # (n, L, F, K)
    term2 = 0.5 * (2.0 * np.multiply(sorted_k, weights, out=sorted_k).sum(axis=-1) / (k * k))  # (n, L, F)
    del sorted_k  # freed before the gaps take a bundle-sized buffer of their own
    gap = b - r[:, None]
    term1 = np.abs(gap, out=gap).mean(axis=1)  # (n, L, F)
    cell = term1 - term2
    return float(cell.mean(axis=1).mean(axis=1).mean())
