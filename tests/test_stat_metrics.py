import re
import tracemalloc

import numpy as np
import pytest

from seriesbench import stat_metrics
from seriesbench.core import ContractViolation
from seriesbench.stat_metrics import HistogramSpec, acd, autocorrelation_profile, kd, mdd, sd


def _tensor(values):
    """Wrap a nested list as (N, L, F) with F=1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return arr


@pytest.fixture
def random_pair():
    rng = np.random.default_rng(42)
    real = rng.normal(size=(40, 24, 2))
    gen = rng.normal(loc=0.3, size=(40, 24, 2))
    return real, gen


# ---------------------------------------------------------------------------
# MDD
# ---------------------------------------------------------------------------


def test_mdd_identical_is_zero(random_pair):
    real, _ = random_pair
    spec = HistogramSpec.from_training(real)
    assert mdd(real, real, spec) == 0.0


def test_mdd_two_bin_disjoint_masses():
    spec = HistogramSpec(lower=np.zeros((1, 1)), upper=np.ones((1, 1)), n_bins=2)
    real = _tensor([[0.1], [0.2], [0.3]])   # all in bin 0
    gen = _tensor([[0.8], [0.9], [0.7]])    # all in bin 1
    assert mdd(real, gen, spec) == pytest.approx(1.0)


def test_mdd_single_displacement_accounting():
    n = 10
    spec = HistogramSpec(lower=np.zeros((1, 1)), upper=np.ones((1, 1)), n_bins=2)
    real = _tensor([[0.25]] * n)
    gen_values = [[0.25]] * (n - 1) + [[0.75]]  # one value crosses the bin edge
    assert mdd(real, _tensor(gen_values), spec) == pytest.approx((2 / n) / 2)


def test_mdd_out_of_range_values_clamp_to_edge_bins():
    spec = HistogramSpec(lower=np.zeros((1, 1)), upper=np.ones((1, 1)), n_bins=4)
    real = _tensor([[-5.0], [0.1]])   # -5 lands in the first bin
    gen = _tensor([[0.01], [0.1]])
    assert mdd(real, gen, spec) == 0.0


def test_mdd_bounded_and_permutation_invariant(random_pair):
    real, gen = random_pair
    spec = HistogramSpec.from_training(real)
    value = mdd(real, gen, spec)
    assert 0.0 <= value <= 2.0
    perm = np.random.default_rng(1).permutation(real.shape[0])
    assert mdd(real[perm], gen[perm], spec) == pytest.approx(value)


def test_mdd_shape_mismatch():
    spec = HistogramSpec(lower=np.zeros((2, 1)), upper=np.ones((2, 1)), n_bins=2)
    with pytest.raises(ContractViolation):
        mdd(np.zeros((3, 2, 1)), np.zeros((3, 4, 1)), spec)


# ---------------------------------------------------------------------------
# ACD
# ---------------------------------------------------------------------------


def test_acd_identical_is_zero(random_pair):
    real, _ = random_pair
    assert acd(real, real) == 0.0


def test_acd_alternating_series_lag_one():
    profile = autocorrelation_profile(_tensor([[1.0, -1.0, 1.0, -1.0]]), max_lag=1)
    assert profile[0] == pytest.approx(-0.75)


def test_acd_constant_series_contributes_zero_profile():
    profile = autocorrelation_profile(_tensor([[3.0, 3.0, 3.0, 3.0]]), max_lag=3)
    assert np.array_equal(profile, np.zeros(3))


def test_acd_mean_shift_invariant(random_pair):
    real, gen = random_pair
    assert acd(real + 11.0, gen + 11.0) == pytest.approx(acd(real, gen), abs=1e-12)


def test_acd_brute_force_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6, 1))

    def rho(series, k):
        mu = series.mean()
        c = series - mu
        return float((c[: len(c) - k] * c[k:]).sum() / (c**2).sum())

    expected = np.array(
        [np.mean([rho(x[i, :, 0], k) for i in range(3)]) for k in range(1, 6)]
    )
    assert np.allclose(autocorrelation_profile(x, 5), expected, atol=1e-12)


def _reference_profile(data, max_lag):
    """The per-lag profile the time-major kernel replaced, kept as its bitwise reference."""
    n, length, n_feat = data.shape
    centered = data - data.mean(axis=1, keepdims=True)
    denom = (centered**2).sum(axis=1)
    safe = np.where(denom > 0.0, denom, 1.0)
    profile = np.empty((max_lag, n, n_feat))
    for k in range(1, max_lag + 1):
        num = (centered[:, : length - k, :] * centered[:, k:, :]).sum(axis=1)
        profile[k - 1] = np.where(denom > 0.0, num / safe, 0.0)
    return profile.mean(axis=(1, 2))


def _profile_input(n, length, n_feat, seed=0):
    """Normal draws with one zero-variance lane and, for N > 1, one constant sample."""
    data = np.random.default_rng(seed).normal(size=(n, length, n_feat))
    data[0, :, 0] = 2.5
    if n > 1:
        data[-1] = -1.0
    return data


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


# (N, L, F, max_lag): F = 1 keeps the per-lag sum, F > 1 takes the time-major path
PROFILE_CASES = [
    (64, 96, 1, 95),
    (64, 96, 1, 1),
    (20, 33, 1, 16),
    (50, 2, 3, 1),
    (30, 17, 2, 5),
    (30, 17, 2, 16),
    (9, 12, 3, 1),
    (9, 12, 3, 6),
    (7, 40, 4, 39),
    (5, 10, 2, 9),
    (1, 8, 2, 7),
    (3000, 96, 2, 40),
    (8000, 96, 2, 95),
]


@pytest.mark.parametrize("n,length,n_feat,max_lag", PROFILE_CASES)
def test_profile_is_bitwise_the_per_lag_sum(n, length, n_feat, max_lag):
    data = _profile_input(n, length, n_feat)
    _assert_bitwise(autocorrelation_profile(data, max_lag), _reference_profile(data, max_lag))


@pytest.mark.parametrize("n_feat", [1, 2, 3])
def test_profile_is_bitwise_with_negative_zero_products(n_feat):
    # centred, every lag-3 product is 0 * -1 = -0.0; the middle value pairs with nothing
    series = np.array([0.0, -1.0, 2.0, -1.0, 0.0])
    data = np.repeat(np.stack([series, -series[::-1], np.zeros(5)])[:, :, None], n_feat, axis=2)
    for max_lag in (3, 4):
        _assert_bitwise(autocorrelation_profile(data, max_lag), _reference_profile(data, max_lag))


@pytest.mark.parametrize("lags_per_block", [1, 3])
@pytest.mark.parametrize("n,length,n_feat,max_lag", [(7, 11, 2, 10), (7, 40, 4, 38), (5, 10, 3, 4), (4, 2, 2, 1)])
def test_profile_is_bitwise_at_forced_lag_blocks(monkeypatch, lags_per_block, n, length, n_feat, max_lag):
    # 3-lag blocks leave a short last block for every max_lag here but 1
    monkeypatch.setattr(stat_metrics, "_BLOCK_BYTES", lags_per_block * 8 * n * n_feat)
    data = _profile_input(n, length, n_feat, seed=lags_per_block)
    _assert_bitwise(autocorrelation_profile(data, max_lag), _reference_profile(data, max_lag))


def test_profile_scratch_peak_at_synth_m_shape():
    data = _profile_input(8000, 96, 2)
    tracemalloc.start()
    try:
        autocorrelation_profile(data, 95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most two (N, L, F)-sized float64 arrays are live at once
    assert peak <= 2.25 * data.nbytes


@pytest.mark.parametrize(
    "length,max_lag,message",
    [
        (1, 1, "autocorrelation needs length >= 2"),
        (1, 0, "autocorrelation needs length >= 2"),
        (5, 0, "max_lag must be in [1, 4]"),
        (5, -1, "max_lag must be in [1, 4]"),
        (5, 5, "max_lag must be in [1, 4]"),
        (5, 9, "max_lag must be in [1, 4]"),
    ],
)
@pytest.mark.parametrize("n_feat", [1, 2])
def test_profile_and_acd_reject_lag_outside_range(length, max_lag, message, n_feat):
    data = _profile_input(3, length, n_feat)
    with pytest.raises(ContractViolation, match=re.escape(message)):
        autocorrelation_profile(data, max_lag)
    with pytest.raises(ContractViolation, match=re.escape(message)):
        acd(data, data, max_lag)


def test_acd_default_lag_rejects_length_one():
    with pytest.raises(ContractViolation, match="autocorrelation needs length >= 2"):
        acd(np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))


@pytest.mark.parametrize("shape", [(0, 5, 2), (0, 5, 1), (3, 5, 0)])
def test_profile_rejects_empty_tensor(shape):
    with pytest.raises(ContractViolation, match="empty tensor"):
        autocorrelation_profile(np.zeros(shape), 2)


# ---------------------------------------------------------------------------
# SD / KD
# ---------------------------------------------------------------------------


def test_sd_kd_identical_zero(random_pair):
    real, _ = random_pair
    assert sd(real, real) == 0.0
    assert kd(real, real) == 0.0


def test_sd_two_symmetric_sets():
    assert sd(_tensor([[-1.0, 0.0, 1.0]]), _tensor([[-2.0, 0.0, 2.0]])) == pytest.approx(0.0)


def test_kd_hand_computation():
    # {-1,1} and {-1,-1,1,1} both have kurtosis 1; {-2,-1,1,2} has 1.36
    two = _tensor([[-1.0, 1.0]])
    four = _tensor([[-1.0, -1.0, 1.0, 1.0]])
    spread = _tensor([[-2.0, -1.0, 1.0, 2.0]])
    assert kd(two, four) == pytest.approx(0.0, abs=1e-12)
    assert kd(two, spread) == pytest.approx(0.36, abs=1e-12)


def test_sd_kd_affine_invariant(random_pair):
    real, gen = random_pair
    assert sd(3.0 * real + 2.0, 3.0 * gen + 2.0) == pytest.approx(sd(real, gen), abs=1e-9)
    assert kd(3.0 * real + 2.0, 3.0 * gen + 2.0) == pytest.approx(kd(real, gen), abs=1e-9)


def test_sd_rejects_zero_variance():
    with pytest.raises(ContractViolation):
        sd(_tensor([[1.0, 1.0]]), _tensor([[0.0, 1.0]]))


def test_histogram_spec_rejects_bad_bounds():
    with pytest.raises(ContractViolation):
        HistogramSpec(lower=np.ones((1, 1)), upper=np.zeros((1, 1)), n_bins=2)
    with pytest.raises(ContractViolation):
        HistogramSpec(lower=np.zeros((1, 1)), upper=np.ones((1, 1)), n_bins=1)


def test_histogram_spec_from_constant_training_channel():
    train = _tensor([[2.0, 2.0], [2.0, 2.0]])
    spec = HistogramSpec.from_training(train, n_bins=4)
    assert np.all(spec.upper > spec.lower)
    assert mdd(train, train, spec) == 0.0


@pytest.mark.parametrize("shape,n_bins", [((1, 1), 2**24), ((4, 2), 2**21)])
def test_histogram_spec_caps_bin_cells_without_allocating(shape, n_bins):
    bounds = {"lower": np.zeros(shape), "upper": np.ones(shape)}
    tracemalloc.start()
    try:
        assert HistogramSpec(**bounds, n_bins=n_bins).n_bins == n_bins  # exactly 2**24 cells
        with pytest.raises(ContractViolation, match="exceed 16777216 cells"):
            HistogramSpec(**bounds, n_bins=n_bins + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
