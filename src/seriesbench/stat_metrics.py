"""Statistical fidelity metrics comparing real vs. generated tensors directly.

All four metrics are symmetric-zero (metric(D, D) == 0) and operate on
float64 regardless of file precision.  Reductions run in a fixed index order
for bit-reproducibility.

The ACD lag sums keep the two orders NumPy gives ``sum(axis=1)`` of an
(N, L-k, F) product.  For F > 1 that axis is strided and NumPy adds it
sequentially in t, so ``autocorrelation_profile`` accumulates a time-major
copy row by row, which adds the same floats in the same order.  For F = 1 the
axis is contiguous and NumPy sums it pairwise, so that case keeps the per-lag
sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, TimeSeriesTensor, as_series_array

_BLOCK_BYTES = 256 << 10  # lag-block buffer budget of the time-major ACD accumulation
_MAX_BIN_CELLS = 1 << 24  # (L, F, n_bins) histogram cells a spec may ask for


@dataclass(frozen=True)
class HistogramSpec:
    """Equal-width bin boundaries per (timestep, feature), derived from training data.

    ``lower``/``upper`` have shape (L, F).  Out-of-range values are assigned
    to the first or last bin.  Channels that are constant in the training
    data get a unit-width window centred on the constant.  L * F * n_bins may
    not exceed 2**24, which bounds the memory of the histograms.
    """

    lower: np.ndarray
    upper: np.ndarray
    n_bins: int = 32

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 2:
            raise ContractViolation("histogram bounds must both have shape (L, F)")
        if self.n_bins < 2:
            raise ContractViolation("need at least 2 bins")
        if lower.size * self.n_bins > _MAX_BIN_CELLS:
            raise ContractViolation(
                f"{lower.shape[0]} x {lower.shape[1]} x {self.n_bins} histogram bins exceed {_MAX_BIN_CELLS} cells"
            )
        if not np.all(upper > lower):
            raise ContractViolation("bin boundaries must be strictly increasing")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_training(cls, train: TimeSeriesTensor | np.ndarray, n_bins: int = 32) -> "HistogramSpec":
        data = as_series_array(train)
        lower = data.min(axis=0)
        upper = data.max(axis=0)
        flat = upper <= lower
        lower = np.where(flat, lower - 0.5, lower)
        upper = np.where(flat, upper + 0.5, upper)
        return cls(lower=lower, upper=upper, n_bins=n_bins)


def _bin_masses(data: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """Histogram each (timestep, feature) channel; returns (L, F, B) probability masses."""
    n, length, n_feat = data.shape
    width = (spec.upper - spec.lower) / spec.n_bins
    idx = np.floor((data - spec.lower) / width).astype(np.int64)
    np.clip(idx, 0, spec.n_bins - 1, out=idx)
    channel = np.arange(length * n_feat).reshape(length, n_feat)
    flat = (channel * spec.n_bins + idx).ravel()
    counts = np.bincount(flat, minlength=length * n_feat * spec.n_bins)
    return counts.reshape(length, n_feat, spec.n_bins) / n


def mdd(
    real: TimeSeriesTensor | np.ndarray,
    gen: TimeSeriesTensor | np.ndarray,
    spec: HistogramSpec,
) -> float:
    """Marginal distribution difference.

    Per (timestep, feature): histogram both tensors on the training-derived
    bins and take (1/B) * sum_b |p_r(b) - p_g(b)|; the score is the
    unweighted mean over all channels.  Range [0, 2/B * ... ] collapses to
    [0, 2], zero iff every channel histogram matches.
    """
    r = as_series_array(real)
    g = as_series_array(gen)
    if r.shape[1:] != g.shape[1:]:
        raise ContractViolation(f"shape mismatch: {r.shape[1:]} vs {g.shape[1:]}")
    if r.shape[1:] != spec.lower.shape:
        raise ContractViolation("histogram spec does not cover every (timestep, feature)")
    p_r = _bin_masses(r, spec)
    p_g = _bin_masses(g, spec)
    per_channel = np.abs(p_r - p_g).sum(axis=2) / spec.n_bins
    return float(per_channel.mean())


def autocorrelation_profile(data: np.ndarray, max_lag: int) -> np.ndarray:
    """Mean autocorrelation profile over samples and features; shape (max_lag,).

    rho_k = sum_{t<=L-k} (x_t - mu)(x_{t+k} - mu) / sum_t (x_t - mu)^2 per
    series per feature; zero-variance series contribute a zero profile.
    """
    n, length, n_feat = data.shape
    if length < 2:
        raise ContractViolation("autocorrelation needs length >= 2")
    if not 1 <= max_lag <= length - 1:
        raise ContractViolation(f"max_lag must be in [1, {length - 1}]")
    if data.size == 0:
        raise ContractViolation("empty tensor")
    centered = data - data.mean(axis=1, keepdims=True)
    denom = (centered**2).sum(axis=1)  # (N, F)
    if n_feat == 1:
        num = np.empty((max_lag, n, n_feat))
        for k in range(1, max_lag + 1):
            num[k - 1] = (centered[:, : length - k, :] * centered[:, k:, :]).sum(axis=1)
    else:
        rows = np.ascontiguousarray(centered.transpose(1, 0, 2))  # (L, N, F)
        del centered  # keeps the scratch peak at two (N, L, F) arrays
        num = np.empty((max_lag, n, n_feat))
        lags = max(1, min(max_lag, _BLOCK_BYTES // (8 * n * n_feat)))
        buf = np.empty((lags, n, n_feat))
        for lo in range(1, max_lag + 1, lags):
            hi = min(lo + lags, max_lag + 1)
            np.multiply(rows[0], rows[lo:hi], out=num[lo - 1 : hi - 1])
            for t in range(1, length - lo):
                width = min(hi, length - t) - lo  # lags k with t + k <= L - 1
                np.multiply(rows[t], rows[t + lo : t + lo + width], out=buf[:width])
                block = num[lo - 1 : lo - 1 + width]
                np.add(block, buf[:width], out=block)
    positive = denom > 0.0
    num /= np.where(positive, denom, 1.0)
    num[:, ~positive] = 0.0
    return num.mean(axis=(1, 2))


def acd(
    real: TimeSeriesTensor | np.ndarray,
    gen: TimeSeriesTensor | np.ndarray,
    max_lag: int | None = None,
) -> float:
    """Euclidean distance between mean autocorrelation profiles (lags 1..max_lag)."""
    r = as_series_array(real)
    g = as_series_array(gen)
    if r.shape[1:] != g.shape[1:]:
        raise ContractViolation(f"shape mismatch: {r.shape[1:]} vs {g.shape[1:]}")
    if max_lag is None:
        max_lag = r.shape[1] - 1
    return float(np.linalg.norm(autocorrelation_profile(r, max_lag) - autocorrelation_profile(g, max_lag)))


def _pooled_standardized_moment(data: np.ndarray, order: int) -> float:
    flat = data.ravel()
    mu = flat.mean()
    var = ((flat - mu) ** 2).mean()
    if var <= 0.0:
        raise ContractViolation("pooled variance is zero")
    return float((((flat - mu) / np.sqrt(var)) ** order).mean())


def _moment_difference(
    real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray, order: int
) -> float:
    r = as_series_array(real)
    g = as_series_array(gen)
    if r.size == 0 or g.size == 0:
        raise ContractViolation("empty tensor")
    return abs(_pooled_standardized_moment(r, order) - _pooled_standardized_moment(g, order))


def sd(real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray) -> float:
    """Absolute difference of pooled population skewness."""
    return _moment_difference(real, gen, 3)


def kd(real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray) -> float:
    """Absolute difference of pooled population kurtosis."""
    return _moment_difference(real, gen, 4)
