"""Statistical fidelity metrics comparing real vs. generated tensors directly.

All four metrics are symmetric-zero (metric(D, D) == 0) and operate on
float64 regardless of file precision.  Reductions run in a fixed index order
for bit-reproducibility.

The ACD lag sums keep the two orders NumPy gives ``sum(axis=1)`` of an
(N, L-k, F) product.  For F > 1 that axis is strided and NumPy adds it
sequentially in t; for F = 1 it is contiguous and NumPy sums it pairwise.
NumPy picks the order from the memory layout, so ``autocorrelation_profile``
sums over t of a time-major product for F > 1, whose sequential sums run over
wide (samples, features) rows, and of a sample-major one for F = 1.

Every phase works in pieces of a fixed byte budget, so its scratch does not
grow with N: MDD bins rows in chunks of ``_BLOCK_BYTES`` and adds integer
counts; a moment sums pieces of ``_BLOCK_BYTES`` of values; ACD centres the
series of one piece of ``_PIECE_BYTES`` at a time.  The moments and the ACD
means over (N, F) are sums of one contiguous float64 run, which NumPy adds
pairwise: it halves a run longer than 128 values at a multiple of 8 and adds
the halves' sums.  ``_pairwise_sum`` cuts the pieces at exactly those points
and adds their sums as NumPy adds the halves, so the same floats are added in
the same order and every result is bitwise the one-array computation.

``acd``, ``sd`` and ``kd`` run their two sides on two threads through
``_on_both_cores``: the real side on the caller, the generated side on a
worker.  Each side is the serial computation, and NumPy releases the GIL
inside each ufunc call, so no float changes.  When both sides raise, the real
side's exception propagates, as in serial order.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass

import numpy as np

from seriesbench.core import ContractViolation, TimeSeriesTensor, as_series_array, is_integer

_BLOCK_BYTES = 256 << 10  # a moment piece, an MDD row chunk
_PIECE_BYTES = 1 << 20  # the centred values of one ACD piece of series
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
        if not is_integer(self.n_bins):
            raise ContractViolation(f"n_bins must be an integer, got {self.n_bins!r}")
        if self.n_bins < 2:
            raise ContractViolation("need at least 2 bins")
        if lower.size * self.n_bins > _MAX_BIN_CELLS:
            raise ContractViolation(
                f"{lower.shape[0]} x {lower.shape[1]} x {self.n_bins} histogram bins exceed {_MAX_BIN_CELLS} cells"
            )
        if not np.all(upper > lower):
            raise ContractViolation("bin boundaries must be strictly increasing")
        with np.errstate(over="ignore"):
            width = (upper - lower) / self.n_bins
        if not np.all(np.isfinite(width) & (width > 0.0)):
            raise ContractViolation("bin widths (upper - lower) / n_bins must be positive and finite")
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
    """Histogram channels lo..hi-1 of (N, L*F) data, channel c = t*F + f; returns (hi - lo, B) probability masses.

    Rows are binned in chunks of ``_BLOCK_BYTES``, or of n_bins rows when
    that is more, and the chunks' integer counts are added.  Bin indices are
    clipped as floats before the cast, so a quotient beyond int64's range
    still lands in an edge bin.
    """
    lower = spec.lower.reshape(-1)[lo:hi]
    width = ((spec.upper - spec.lower) / spec.n_bins).reshape(-1)[lo:hi]
    offsets = np.arange(hi - lo) * spec.n_bins
    # at least n_bins rows, so zeroing a chunk's counts never costs more than binning it
    rows = max(_BLOCK_BYTES // (8 * (hi - lo)), spec.n_bins)

    def chunk_counts(start: int) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflowing quotient is clipped to the last bin
            bins = np.floor((data[start : start + rows, lo:hi] - lower) / width)
        np.clip(bins, 0, spec.n_bins - 1, out=bins)
        return np.bincount((offsets + bins.astype(np.int64)).ravel(), minlength=(hi - lo) * spec.n_bins)

    counts = functools.reduce(operator.iadd, map(chunk_counts, range(0, data.shape[0], rows)))
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


def _pairwise_sum(n: int, leaf, cap: int):
    """NumPy's ``np.add.reduce`` over n values of a last axis, built from the sums of pieces.

    ``leaf(start, stop)`` is ``np.add.reduce`` of values start..stop-1 along
    the last axis.  A run of at most ``max(cap, 128)`` values is one leaf;
    a longer one is split as NumPy's pairwise summation splits it, after the
    first ``n // 2`` values rounded down to a multiple of 8, and the two sums
    are added.  So each piece's sum is one NumPy computes inside its own sum,
    and the result is bitwise NumPy's.
    """

    def total(start: int, stop: int):
        if stop - start <= max(cap, 128):
            return leaf(start, stop)
        half = (stop - start) // 2
        half -= half % 8
        return total(start, start + half) + total(start + half, stop)

    return total(0, n)


def autocorrelation_profile(data: TimeSeriesTensor | np.ndarray, max_lag: int) -> np.ndarray:
    """Mean autocorrelation profile over samples and features; shape (max_lag,).

    rho_k = sum_{t<=L-k} (x_t - mu)(x_{t+k} - mu) / sum_t (x_t - mu)^2 per
    series per feature; zero-variance series contribute a zero profile.
    The N * F series (channel c = sample * F + feature) are taken in pieces
    of about ``_PIECE_BYTES`` of centred values, cut where ``_pairwise_sum``
    cuts the mean over (N, F), so a piece may split a sample.  A piece
    centres the samples it touches, sums their lag products and reduces the
    normalized lags to per-lag sums over its own series; the scratch is a
    few pieces whatever N is.
    """
    data = as_series_array(data)
    n, length, n_feat = data.shape
    if length < 2:
        raise ContractViolation("autocorrelation needs length >= 2")
    if not is_integer(max_lag):
        raise ContractViolation(f"max_lag must be an integer, got {max_lag!r}")
    if not 1 <= max_lag <= length - 1:
        raise ContractViolation(f"max_lag must be in [1, {length - 1}]")

    def piece(start: int, stop: int) -> np.ndarray:
        first, last = start // n_feat, -(-stop // n_feat)  # the samples holding channels start..stop-1
        with np.errstate(over="ignore", invalid="ignore"):
            if n_feat == 1:  # t stays contiguous in memory, where NumPy sums it pairwise
                rows = data[first:last] - data[first:last].mean(axis=1, keepdims=True)
                rows = rows.transpose(1, 0, 2)
            else:  # t outermost in memory, where NumPy sums it sequentially over wide (S, F) rows
                rows = data[first:last].transpose(1, 0, 2).copy()  # a copy even when the view is contiguous
                rows -= rows.mean(axis=0)
            products = np.empty_like(rows)
            denom = np.add.reduce(np.square(rows, out=products), axis=0)
        # a finite sum of squares bounds every lag product and sum below it
        if not np.isfinite(denom).all():
            raise ContractViolation("a series' sum of squared deviations overflows float64")
        num = np.empty((max_lag,) + denom.shape)
        for k in range(1, max_lag + 1):
            lagged = np.multiply(rows[: length - k], rows[k:], out=products[: length - k])
            np.add.reduce(lagged, axis=0, out=num[k - 1])
        positive = denom > 0.0
        num /= np.where(positive, denom, 1.0)
        num[:, ~positive] = 0.0
        own = num.reshape(max_lag, -1)[:, start - first * n_feat : stop - first * n_feat]
        return np.add.reduce(own, axis=-1)

    return _pairwise_sum(n * n_feat, piece, max(1, _PIECE_BYTES // (8 * length))) / (n * n_feat)


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
    """Mean of ((x - mu) / sigma) ** order over all values, summed in pieces of ``_BLOCK_BYTES``."""
    flat = data.ravel()
    n, cap = flat.size, _BLOCK_BYTES // 8
    with np.errstate(over="ignore", invalid="ignore"):
        mu = flat.mean()
        var = _pairwise_sum(n, lambda a, b: np.add.reduce(np.square(flat[a:b] - mu)), cap) / n
    if var <= 0.0:
        raise ContractViolation("pooled variance is zero")
    if not np.isfinite(var):
        raise ContractViolation("pooled variance overflows float64")
    sigma = np.sqrt(var)

    def powers(a: int, b: int):
        z = flat[a:b] - mu
        z /= sigma
        return np.add.reduce(np.power(z, order, out=z))

    return float(_pairwise_sum(n, powers, cap) / n)


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
