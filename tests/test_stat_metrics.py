import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from seriesbench import stat_metrics
from seriesbench.core import ContractViolation, TimeSeriesTensor
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


def _mdd_one_pass(real, gen, spec):
    """Reference: MDD from whole (L, F, B) mass arrays."""

    def masses(data):
        n, length, n_feat = data.shape
        idx = np.floor((data - spec.lower) / ((spec.upper - spec.lower) / spec.n_bins)).astype(np.int64)
        idx = np.clip(idx, 0, spec.n_bins - 1)
        flat = (np.arange(length * n_feat).reshape(length, n_feat) * spec.n_bins + idx).ravel()
        return np.bincount(flat, minlength=length * n_feat * spec.n_bins).reshape(length, n_feat, spec.n_bins) / n

    return float((np.abs(masses(real) - masses(gen)).sum(axis=2) / spec.n_bins).mean())


@pytest.mark.parametrize("block_bytes", [8, 1000, 64 << 10, 4 << 20])
def test_mdd_blocks_match_one_pass_bitwise(block_bytes, monkeypatch):
    monkeypatch.setattr(stat_metrics, "_MASS_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(block_bytes)
    for n_real, n_gen, length, n_feat, n_bins in [
        (40, 40, 24, 2, 32), (7, 50, 13, 3, 2), (1, 1, 1, 1, 5), (30, 9, 5, 4, 1000), (12, 20, 3, 2, 70_000),
    ]:
        real = rng.normal(size=(n_real, length, n_feat))
        gen = rng.standard_t(3, size=(n_gen, length, n_feat))
        spec = HistogramSpec.from_training(real, n_bins)
        assert mdd(real, gen, spec) == _mdd_one_pass(real, gen, spec)


def test_mdd_memory_is_bounded_at_the_cell_cap():
    # 20 x 16 channels x 2**15 bins: whole mass arrays would hold ~250 MiB
    rng = np.random.default_rng(9)
    real, gen = rng.normal(size=(20, 20, 16)), rng.normal(size=(20, 20, 16))
    spec = HistogramSpec.from_training(real, 2**15)
    tracemalloc.start()
    try:
        value = mdd(real, gen, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 2.0
    assert peak < 6 * stat_metrics._MASS_BLOCK_BYTES


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


@pytest.mark.parametrize("series_per_piece", [1, 200])
@pytest.mark.parametrize("n,length,n_feat,max_lag", [(150, 11, 2, 10), (70, 40, 4, 38), (87, 10, 3, 4), (130, 2, 2, 1)])
def test_profile_is_bitwise_at_forced_lag_blocks(monkeypatch, series_per_piece, n, length, n_feat, max_lag):
    # more than 200 series in every case, so both budgets cut pieces of unequal sizes (a budget
    # under 128 series cuts at 128, NumPy's block); of 87 * 3 = 261 series the cut at 128 splits
    # a sample, and the length-2 case keeps the shortest series a profile takes
    monkeypatch.setattr(stat_metrics, "_PIECE_BYTES", series_per_piece * 8 * length)
    assert len(_leaves(n * n_feat, series_per_piece)) >= 2
    data = _profile_input(n, length, n_feat, seed=series_per_piece)
    _assert_bitwise(autocorrelation_profile(data, max_lag), _reference_profile(data, max_lag))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SCRATCH_LIMIT = 6 << 20  # bytes of scratch a phase may hold, both sides together, whatever N is


@pytest.mark.parametrize("n", [8000, 32000])  # the Synth-M size and 4x it
def test_profile_scratch_peak_at_synth_m_shape(n):
    data = TimeSeriesTensor(_profile_input(n, 96, 2))
    assert _traced_peak(lambda: autocorrelation_profile(data, 95)) <= SCRATCH_LIMIT


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
    # acd takes no lag: it always uses 1..L-1 (see the length-one test below)
    data = _profile_input(3, length, n_feat)
    with pytest.raises(ContractViolation, match=re.escape(message)):
        autocorrelation_profile(data, max_lag)


def test_acd_default_lag_rejects_length_one():
    with pytest.raises(ContractViolation, match="autocorrelation needs length >= 2"):
        acd(np.zeros((3, 1, 2)), np.zeros((3, 1, 2)))


@pytest.mark.parametrize("shape", [(0, 5, 2), (0, 5, 1), (3, 5, 0)])
def test_profile_rejects_empty_tensor(shape):
    with pytest.raises(ContractViolation, match="zero-length dimension"):
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


@pytest.mark.parametrize("metric", [sd, kd, acd])
def test_overflowing_deviations_are_contract_violations(metric):
    # finite values whose squared deviations overflow float64, with the suite's warnings as errors
    real = np.random.default_rng(3).normal(size=(20, 12, 1))
    gen = real.copy()
    gen[4, 7, 0] = 1e200
    with pytest.raises(ContractViolation, match="overflows float64"):
        metric(real, gen)
    with pytest.raises(ContractViolation, match="overflows float64"):
        metric(gen, real)


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


# ---------------------------------------------------------------------------
# Both sides at once: the same bits, the serial order's errors, no leftover thread
# ---------------------------------------------------------------------------


def _serial_moment(data, order):
    """The pooled moment as one expression, the bitwise reference of the per-side scratch kernel."""
    flat = data.ravel()
    mu = flat.mean()
    var = ((flat - mu) ** 2).mean()
    if var <= 0.0:
        raise ContractViolation("pooled variance is zero")
    return float((((flat - mu) / np.sqrt(var)) ** order).mean())


@pytest.mark.parametrize("size", [1, 2, 3, 1_536_001])
@pytest.mark.parametrize("metric,order", [(sd, 3), (kd, 4)])
def test_moments_are_bitwise_the_serial_formula(metric, order, size):
    rng = np.random.default_rng(size)
    real = rng.standard_t(5, size=(size, 1, 1))
    gen = rng.gamma(2.0, size=(size, 1, 1))
    if size == 1:
        for data in (real, gen):
            with pytest.raises(ContractViolation, match="pooled variance is zero"):
                _serial_moment(data, order)
            with pytest.raises(ContractViolation, match="pooled variance is zero"):
                stat_metrics._pooled_standardized_moment(data, order)
        return
    for data in (real, gen):
        assert stat_metrics._pooled_standardized_moment(data, order) == _serial_moment(data, order)
    expected = abs(_serial_moment(real, order) - _serial_moment(gen, order))
    assert np.float64(metric(real, gen)).view(np.uint64) == np.float64(expected).view(np.uint64)


def _bad(kind):
    data = np.random.default_rng(11).normal(size=(20, 12, 1))
    if kind == "constant":
        data[:] = 4.0
    else:  # finite values whose squared deviations overflow float64
        data[4, 7, 0] = 1e200
    return data


@pytest.mark.parametrize(
    "metric,real_kind,gen_kind,message",
    [
        (sd, "constant", "constant", "pooled variance is zero"),
        (kd, "constant", "constant", "pooled variance is zero"),
        (sd, "constant", "overflow", "pooled variance is zero"),
        (kd, "overflow", "constant", "pooled variance overflows float64"),
        (sd, "overflow", "overflow", "pooled variance overflows float64"),
        (kd, "overflow", "overflow", "pooled variance overflows float64"),
        (acd, "overflow", "overflow", "sum of squared deviations overflows float64"),
    ],
)
def test_both_sides_bad_raise_the_real_sides_message(metric, real_kind, gen_kind, message):
    with pytest.raises(ContractViolation, match=re.escape(message)):
        metric(_bad(real_kind), _bad(gen_kind))


def test_acd_raises_the_real_sides_error_when_the_generated_side_fails_first(monkeypatch):
    original = stat_metrics.autocorrelation_profile

    def failing(data, max_lag):
        if data is real:
            time.sleep(0.05)  # the generated side's worker fails while the real side still runs
            raise ContractViolation("real side")
        original(data, max_lag)
        raise ContractViolation("generated side")

    monkeypatch.setattr(stat_metrics, "autocorrelation_profile", failing)
    real, gen = np.random.default_rng(1).normal(size=(2, 10, 8, 2))
    with pytest.raises(ContractViolation, match="real side"):
        acd(real, gen)


@pytest.mark.parametrize("metric", [acd, sd, kd])
@pytest.mark.parametrize("bad_side", ["real", "gen"])
def test_a_failing_side_leaves_no_thread_behind(metric, bad_side):
    good = np.random.default_rng(2).normal(size=(20, 12, 1))
    pair = (_bad("overflow"), good) if bad_side == "real" else (good, _bad("overflow"))
    before = threading.active_count()
    with pytest.raises(ContractViolation, match="overflows float64"):
        metric(*pair)
    assert threading.active_count() == before


def test_on_both_cores_returns_both_results_and_prefers_the_first_error():
    assert stat_metrics._on_both_cores(lambda: 1, lambda: 2) == (1, 2)

    def fail(message):
        raise ValueError(message)

    with pytest.raises(ValueError, match="second"):
        stat_metrics._on_both_cores(lambda: 1, lambda: fail("second"))
    with pytest.raises(ValueError, match="first"):
        stat_metrics._on_both_cores(lambda: fail("first"), lambda: 2)
    with pytest.raises(ValueError, match="first"):
        stat_metrics._on_both_cores(lambda: fail("first"), lambda: fail("second"))


@pytest.mark.parametrize("n", [8000, 32000])
def test_acd_scratch_peak_at_synth_m_shape(n):
    real, gen = TimeSeriesTensor(_profile_input(n, 96, 2, seed=1)), TimeSeriesTensor(_profile_input(n, 96, 2, seed=2))
    assert _traced_peak(lambda: acd(real, gen)) <= SCRATCH_LIMIT


@pytest.mark.parametrize("n", [8000, 32000])
def test_mdd_scratch_peak_at_synth_m_shape(n):
    real, gen = TimeSeriesTensor(_profile_input(n, 96, 2, seed=1)), TimeSeriesTensor(_profile_input(n, 96, 2, seed=2))
    spec = HistogramSpec.from_training(real)
    assert _traced_peak(lambda: mdd(real, gen, spec)) <= SCRATCH_LIMIT


@pytest.mark.parametrize("metric", [sd, kd])
def test_moments_run_the_generated_side_on_a_worker_thread(metric, monkeypatch):
    original = stat_metrics._pooled_standardized_moment
    threads = {}

    def recording(data, order):
        threads[id(data)] = threading.get_ident()
        return original(data, order)

    monkeypatch.setattr(stat_metrics, "_pooled_standardized_moment", recording)
    real, gen = np.random.default_rng(3).normal(size=(2, 20, 12, 1))
    metric(real, gen)
    assert threads[id(real)] == threading.get_ident()
    assert threads[id(gen)] != threading.get_ident()


@pytest.mark.parametrize("n", [8000, 32000])
@pytest.mark.parametrize("metric", [sd, kd])
def test_moment_scratch_peak_at_synth_m_shape(metric, n):
    real, gen = TimeSeriesTensor(_profile_input(n, 96, 2, seed=1)), TimeSeriesTensor(_profile_input(n, 96, 2, seed=2))
    assert _traced_peak(lambda: metric(real, gen)) <= SCRATCH_LIMIT


# ---------------------------------------------------------------------------
# Pieces: sums in NumPy's pairwise order, the same bits at any budget
# ---------------------------------------------------------------------------


def _pairwise_sizes(cap):
    return sorted({*range(1, 10), 127, 128, 129, 130, 255, 256, 257, cap - 1, cap + 1, 2 * cap + 13, 100_003} - {0})


@pytest.mark.parametrize("cap", [1, 8, 200, stat_metrics._BLOCK_BYTES // 8])
def test_pairwise_sum_is_numpys_sum(cap):
    rng = np.random.default_rng(cap)
    for n in _pairwise_sizes(cap):
        spread = rng.standard_t(2, size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        rows = rng.normal(size=(3, n + 7))[:, 3 : n + 3]  # last-axis runs of a 2-D view
        for values in (spread, np.full(n, -0.0), rows):
            total = stat_metrics._pairwise_sum(n, lambda a, b: np.add.reduce(values[..., a:b], axis=-1), cap)
            _assert_bitwise(np.asarray(total), np.asarray(np.add.reduce(values, axis=-1)))


def _leaves(n, cap):
    """The (start, stop) pieces ``_pairwise_sum`` asks for, in order."""
    return stat_metrics._pairwise_sum(n, lambda a, b: [(a, b)], cap)


@pytest.mark.parametrize("piece_bytes", [8, 8 * 12 * 150, 8 * 40 * 300])
@pytest.mark.parametrize(
    "n,length,n_feat,max_lag", [(401, 12, 3, 11), (700, 5, 1, 4), (333, 40, 2, 20), (91, 11, 4, 10), (50, 2, 3, 1)]
)
def test_profile_is_bitwise_in_small_pieces(monkeypatch, piece_bytes, n, length, n_feat, max_lag):
    monkeypatch.setattr(stat_metrics, "_PIECE_BYTES", piece_bytes)
    data = _profile_input(n, length, n_feat, seed=n)
    _assert_bitwise(autocorrelation_profile(data, max_lag), _reference_profile(data, max_lag))


def test_small_pieces_tile_the_series_and_split_samples():
    # the F = 3 case above at the smallest budget: uneven pieces of at most 128 series
    leaves = _leaves(401 * 3, 1)
    assert leaves[0][0] == 0 and leaves[-1][1] == 401 * 3
    assert [b for _, b in leaves[:-1]] == [a for a, _ in leaves[1:]]
    assert len({b - a for a, b in leaves}) > 1 and max(b - a for a, b in leaves) <= 128
    assert any(a % 3 for a, _ in leaves)


@pytest.mark.parametrize("block_bytes", [8, 1000, 8 * 1025])
@pytest.mark.parametrize("order", [3, 4])
def test_moments_are_bitwise_in_small_pieces(monkeypatch, block_bytes, order):
    monkeypatch.setattr(stat_metrics, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(block_bytes)
    for size in (2, 129, 1000, 4099, 100_003):
        data = rng.standard_t(5, size=(size, 1, 1))
        assert stat_metrics._pooled_standardized_moment(data, order) == _serial_moment(data, order)


@pytest.mark.parametrize("block_bytes", [8, 200, 4096])
def test_mdd_row_chunks_match_one_pass_bitwise(block_bytes, monkeypatch):
    monkeypatch.setattr(stat_metrics, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(block_bytes)
    for n_real, n_gen, length, n_feat, n_bins in [(40, 40, 24, 2, 32), (7, 50, 13, 3, 2), (1, 1, 1, 1, 5), (301, 9, 5, 4, 1000)]:
        real = rng.normal(size=(n_real, length, n_feat))
        gen = rng.standard_t(3, size=(n_gen, length, n_feat))
        spec = HistogramSpec.from_training(real, n_bins)
        assert mdd(real, gen, spec) == _mdd_one_pass(real, gen, spec)


def test_mdd_puts_a_value_far_above_the_training_range_in_the_last_bin():
    # bin width ~3e-22: the generated values are >= 2**63 bin widths above the range
    train = np.zeros((4, 2, 1))
    train[1] = np.float32(1e-20)
    spec = HistogramSpec.from_training(train)
    above = np.arange(1.0, 9.0).reshape(4, 2, 1)
    # real: 3/4 in the first bin, 1/4 in the last; generated all in one edge bin
    assert mdd(train, above, spec) == 0.046875
    assert mdd(train, -above, spec) == 0.015625


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda x: HistogramSpec.from_training(x, 2.0), "n_bins must be an integer, got 2.0"),
        (lambda x: HistogramSpec.from_training(x, True), "n_bins must be an integer, got True"),
        (lambda x: autocorrelation_profile(x, 2.0), "max_lag must be an integer, got 2.0"),
        (lambda x: autocorrelation_profile(x, True), "max_lag must be an integer, got True"),
        (lambda x: HistogramSpec(lower=np.zeros((1, 1)), upper=np.full((1, 1), 5e-324), n_bins=4), "bin widths"),
        (lambda x: HistogramSpec(lower=np.full((1, 1), -1e308), upper=np.full((1, 1), 1e308), n_bins=2), "bin widths"),
    ],
    ids=["float-bins", "bool-bins", "float-lag", "bool-lag", "zero-width", "infinite-width"],
)
def test_bad_bins_lags_and_widths_are_contract_violations(call, message):
    x = np.random.default_rng(4).normal(size=(6, 5, 2))
    with pytest.raises(ContractViolation, match=re.escape(message)):
        call(x)


@pytest.mark.parametrize("shape", [(1, 8, 2), (1, 8, 1), (5, 8, 3)])
def test_profile_leaves_a_writeable_input_unchanged(shape):
    data = _profile_input(*shape)
    before = data.copy()
    autocorrelation_profile(data, shape[1] - 1)
    _assert_bitwise(data, before)
