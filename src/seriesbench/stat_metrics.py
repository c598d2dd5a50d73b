"""Statistical fidelity metrics comparing real vs. generated tensors directly.

All four metrics are symmetric-zero (metric(D, D) == 0) and operate on
float64 regardless of file precision.  Reductions run in a fixed index order
for bit-reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, TimeSeriesTensor, as_series_array


@dataclass(frozen=True)
class HistogramSpec:
    """Equal-width bin boundaries per (timestep, feature), derived from training data.

    ``lower``/``upper`` have shape (L, F).  Out-of-range values are assigned
    to the first or last bin.  Channels that are constant in the training
    data get a unit-width window centred on the constant.
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
    centered = data - data.mean(axis=1, keepdims=True)
    denom = (centered**2).sum(axis=1)  # (N, F)
    safe = np.where(denom > 0.0, denom, 1.0)
    profile = np.empty((max_lag, n, n_feat))
    for k in range(1, max_lag + 1):
        num = (centered[:, : length - k, :] * centered[:, k:, :]).sum(axis=1)
        profile[k - 1] = np.where(denom > 0.0, num / safe, 0.0)
    return profile.mean(axis=(1, 2))


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
    length = r.shape[1]
    if length < 2:
        raise ContractViolation("autocorrelation needs length >= 2")
    if max_lag is None:
        max_lag = length - 1
    if not 1 <= max_lag <= length - 1:
        raise ContractViolation(f"max_lag must be in [1, {length - 1}]")
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
