"""Statistical fidelity metrics comparing real vs. generated tensors directly.

All four metrics are symmetric-zero (metric(D, D) == 0) and operate on
float64 regardless of file precision.  Reductions run in a fixed index order
for bit-reproducibility.

The ACD lag sums keep the two orders NumPy gives ``sum(axis=1)`` of an
(N, L-k, F) product.  For F > 1 that axis is strided and NumPy adds it
sequentially in t, so ``autocorrelation_profile`` accumulates a time-major
array of the centred values row by row, which adds the same floats in the
same order.  For F = 1 the
axis is contiguous and NumPy sums it pairwise, so that case keeps the per-lag
sum.

``acd``, ``sd`` and ``kd`` run their two sides on two threads through
``_on_both_cores``: the real side on the caller, the generated side on a
worker.  Each side is the serial computation, and NumPy releases the GIL
inside each ufunc call, so no float changes.  When both sides raise, the real
side's exception propagates, as in serial order.  A moment holds one
tensor-sized scratch per side, 2.0x one tensor with both live, below the
2.1x of ``acd``'s two live profiles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, TimeSeriesTensor, as_series_array

_BLOCK_BYTES = 256 << 10  # lag-block buffer budget of the time-major ACD accumulation
_MAX_BIN_CELLS = 1 << 24  # (L, F, n_bins) histogram cells a spec may ask for
_MASS_BLOCK_BYTES = 4 << 20  # budget of one (channels, n_bins) block of MDD masses


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


def _bin_masses(data: np.ndarray, spec: HistogramSpec, lo: int, hi: int) -> np.ndarray:
    """Histogram channels lo..hi-1 of (N, L*F) data, channel c = t*F + f; returns (hi - lo, B) probability masses."""
    lower = spec.lower.reshape(-1)[lo:hi]
    width = ((spec.upper - spec.lower) / spec.n_bins).reshape(-1)[lo:hi]
    idx = np.floor((data[:, lo:hi] - lower) / width).astype(np.int64)
    np.clip(idx, 0, spec.n_bins - 1, out=idx)
    flat = (np.arange(hi - lo) * spec.n_bins + idx).ravel()
    counts = np.bincount(flat, minlength=(hi - lo) * spec.n_bins)
    return counts.reshape(hi - lo, spec.n_bins) / data.shape[0]


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

    Channels are histogrammed in blocks of at most ``_MASS_BLOCK_BYTES`` of
    masses (one channel when a single one is larger).  A channel's sum over
    its bins is the same whatever the block, and only the (L, F) sums are kept.
    """
    r = as_series_array(real)
    g = as_series_array(gen)
    if r.shape[1:] != g.shape[1:]:
        raise ContractViolation(f"shape mismatch: {r.shape[1:]} vs {g.shape[1:]}")
    if r.shape[1:] != spec.lower.shape:
        raise ContractViolation("histogram spec does not cover every (timestep, feature)")
    channels = spec.lower.size
    r, g = r.reshape(r.shape[0], channels), g.reshape(g.shape[0], channels)
    bin_sums = np.empty(spec.lower.shape)
    block = max(1, _MASS_BLOCK_BYTES // (8 * spec.n_bins))
    for lo in range(0, channels, block):
        hi = min(lo + block, channels)
        gap = _bin_masses(r, spec, lo, hi) - _bin_masses(g, spec, lo, hi)
        np.abs(gap, out=gap)
        bin_sums.reshape(-1)[lo:hi] = gap.sum(axis=1)
    per_channel = bin_sums / spec.n_bins
    return float(per_channel.mean())


def _on_both_cores(first, second):
    """``(first(), second())``, with ``second`` run on a worker thread while the caller runs ``first``.

    The worker is joined before anything returns or raises; when both sides
    raise, ``first``'s exception wins.
    """
    outcome = {}

    def work():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # handed to the caller, which re-raises it
            outcome["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome.pop("error")
    return result, outcome["value"]


def _lag_means(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Profile entries of a (lags, N, F) block of lag sums, normalized in place; zero where denom is."""
    positive = denom > 0.0
    num /= np.where(positive, denom, 1.0)
    num[:, ~positive] = 0.0
    return num.mean(axis=(1, 2))


def autocorrelation_profile(data: TimeSeriesTensor | np.ndarray, max_lag: int) -> np.ndarray:
    """Mean autocorrelation profile over samples and features; shape (max_lag,).

    rho_k = sum_{t<=L-k} (x_t - mu)(x_{t+k} - mu) / sum_t (x_t - mu)^2 per
    series per feature; zero-variance series contribute a zero profile.
    Each lag block is reduced to its entries once summed, so the scratch is
    one (N, L, F) array of centred values plus lag blocks of ``_BLOCK_BYTES``.
    """
    data = as_series_array(data)
    n, length, n_feat = data.shape
    if length < 2:
        raise ContractViolation("autocorrelation needs length >= 2")
    if not 1 <= max_lag <= length - 1:
        raise ContractViolation(f"max_lag must be in [1, {length - 1}]")
    with np.errstate(over="ignore", invalid="ignore"):
        if n_feat == 1:
            centered = data - data.mean(axis=1, keepdims=True)
            denom = (centered**2).sum(axis=1)  # (N, F)
        else:
            rows = np.empty((length, n, n_feat))  # centred values, time-major
            np.subtract(data.transpose(1, 0, 2), data.mean(axis=1), out=rows)
            denom = np.square(rows[0])
            for t in range(1, length):
                denom += np.square(rows[t])
    # a finite sum of squares bounds every lag product and sum below it
    if not np.isfinite(denom).all():
        raise ContractViolation("a series' sum of squared deviations overflows float64")
    profile = np.empty(max_lag)
    if n_feat == 1:
        for k in range(1, max_lag + 1):
            num = (centered[:, : length - k, :] * centered[:, k:, :]).sum(axis=1)
            profile[k - 1] = _lag_means(num[None], denom)[0]
        return profile
    lags = max(1, min(max_lag, _BLOCK_BYTES // (8 * n * n_feat)))
    num, buf = np.empty((lags, n, n_feat)), np.empty((lags, n, n_feat))
    for lo in range(1, max_lag + 1, lags):
        hi = min(lo + lags, max_lag + 1)
        block = num[: hi - lo]
        np.multiply(rows[0], rows[lo:hi], out=block)
        for t in range(1, length - lo):
            width = min(hi, length - t) - lo  # lags k with t + k <= L - 1
            np.multiply(rows[t], rows[t + lo : t + lo + width], out=buf[:width])
            np.add(block[:width], buf[:width], out=block[:width])
        profile[lo - 1 : hi - 1] = _lag_means(block, denom)
    return profile


def acd(real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray) -> float:
    """Euclidean distance between mean autocorrelation profiles over lags 1..L-1."""
    r = as_series_array(real)
    g = as_series_array(gen)
    if r.shape[1:] != g.shape[1:]:
        raise ContractViolation(f"shape mismatch: {r.shape[1:]} vs {g.shape[1:]}")
    max_lag = r.shape[1] - 1
    # the arguments, so a wrapper's array is not checked again
    real_profile, gen_profile = _on_both_cores(
        lambda: autocorrelation_profile(real, max_lag), lambda: autocorrelation_profile(gen, max_lag)
    )
    return float(np.linalg.norm(real_profile - gen_profile))


def _pooled_standardized_moment(data: np.ndarray, order: int) -> float:
    """Mean of ((x - mu) / sigma) ** order over all values, in one scratch array."""
    flat = data.ravel()
    z = np.empty_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = flat.mean()
        var = np.square(np.subtract(flat, mu, out=z), out=z).mean()
    if var <= 0.0:
        raise ContractViolation("pooled variance is zero")
    if not np.isfinite(var):
        raise ContractViolation("pooled variance overflows float64")
    np.subtract(flat, mu, out=z)
    z /= np.sqrt(var)
    np.power(z, order, out=z)
    return float(z.mean())


def _moment_difference(
    real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray, order: int
) -> float:
    r = as_series_array(real)
    g = as_series_array(gen)
    real_moment, gen_moment = _on_both_cores(
        lambda: _pooled_standardized_moment(r, order), lambda: _pooled_standardized_moment(g, order)
    )
    return abs(real_moment - gen_moment)


def sd(real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray) -> float:
    """Absolute difference of pooled population skewness."""
    return _moment_difference(real, gen, 3)


def kd(real: TimeSeriesTensor | np.ndarray, gen: TimeSeriesTensor | np.ndarray) -> float:
    """Absolute difference of pooled population kurtosis."""
    return _moment_difference(real, gen, 4)
