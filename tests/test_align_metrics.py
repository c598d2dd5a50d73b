import itertools
import math

import numpy as np
import pytest

from seriesbench import align_metrics
from seriesbench.core import ContractViolation
from seriesbench.align_metrics import (
    GenerationBundle,
    _dtw_batch,
    crps_instance,
    crps_score,
    dtw,
    dtw_score,
)

from oracles import crps_gaussian, crps_naive, dtw_by_enumeration


# ---------------------------------------------------------------------------
# DTW
# ---------------------------------------------------------------------------


def test_dtw_self_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 2))
    assert dtw(x, x) == 0.0


def test_dtw_absorbs_repeated_points():
    assert dtw([0.0, 0.0, 1.0], [0.0, 1.0]) == 0.0


def test_dtw_single_cell():
    assert dtw([0.0], [3.0]) == 3.0


def test_dtw_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=rng.integers(1, 8))
        y = rng.normal(size=rng.integers(1, 8))
        assert dtw(x, y) == pytest.approx(dtw(y, x), abs=1e-12)


def test_dtw_matches_path_enumeration_small():
    values = [0.0, 1.0, 2.0]
    for n, m in itertools.product(range(1, 4), repeat=2):
        for x in itertools.product(values, repeat=n):
            for y in itertools.product(values, repeat=m):
                assert dtw(list(x), list(y)) == dtw_by_enumeration(x, y)


def test_dtw_multivariate_uses_joint_point_cost():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    assert dtw(x, y) == pytest.approx(5.0)  # Euclidean over the feature vector


def _dtw_rows(x, y):
    """Row-by-row Python DP over the Euclidean cost matrix, the reference for the batch kernel."""
    diff = np.asarray(x)[:, None, :] - np.asarray(y)[None, :, :]
    cost = np.sqrt((diff**2).sum(axis=2))
    n, m = cost.shape
    prev = [0.0] + [math.inf] * m
    for i in range(n):
        cur = [math.inf] * (m + 1)
        for j in range(m):
            cur[j + 1] = cost[i, j] + min(prev[j + 1], cur[j], prev[j])
        prev = cur
    return prev[m]


def _chunk_bytes(n, m, f):
    """The chunk budget's charge per DTW pair: float64 copies of its N + M rows of F features."""
    return 8 * (n + m) * f


@pytest.mark.parametrize("pairs_per_chunk", [1, 7, None])
# F >= 8 is where NumPy's sum over the last axis turns pairwise
@pytest.mark.parametrize(
    "n,m,f",
    [(8, 8, 1), (7, 13, 1), (13, 7, 2), (1, 9, 1), (9, 1, 2), (1, 1, 2), (30, 5, 2),
     (12, 9, 8), (9, 12, 9), (20, 25, 16), (7, 5, 33)],
)
def test_dtw_batch_matches_single(n, m, f, pairs_per_chunk, monkeypatch):
    # budgets of one pair per chunk, seven pairs with a short last chunk
    # (25 = 3 * 7 + 4), and the default (all pairs in one chunk)
    if pairs_per_chunk is None:
        assert align_metrics._CHUNK_BYTES >= 25 * _chunk_bytes(n, m, f)
    else:
        monkeypatch.setattr(align_metrics, "_CHUNK_BYTES", pairs_per_chunk * _chunk_bytes(n, m, f))
        assert align_metrics._CHUNK_BYTES < 25 * _chunk_bytes(n, m, f)  # at least 2 chunks
    rng = np.random.default_rng(n * 100 + m * 10 + f)
    x = rng.normal(size=(25, n, f))
    y = rng.normal(size=(25, m, f)) * 3.0
    batch = _dtw_batch(x, y[:, None])
    for p in range(25):
        assert batch[p] == _dtw_rows(x[p], y[p]) == dtw(x[p], y[p])  # bitwise


def test_dtw_score_matches_sequential_reference(monkeypatch):
    monkeypatch.setattr(align_metrics, "_CHUNK_BYTES", 3_500)  # chunks of 5 pairs, the last of 1
    assert align_metrics._CHUNK_BYTES < 9 * 4 * _chunk_bytes(20, 20, 2)  # at least 2 chunks
    rng = np.random.default_rng(2)
    refs = rng.normal(size=(9, 20, 2))
    bundle = _bundle_from(refs, 0.5, 4, seed=8)
    total = 0.0
    for i in range(9):
        total += min(_dtw_rows(refs[i], bundle.data[i, k]) for k in range(4))
    assert dtw_score(refs, bundle) == total / 9


def test_dtw_batch_scratch_stays_small():
    import tracemalloc

    rng = np.random.default_rng(5)
    x = rng.normal(size=(20_000, 96, 1))
    y = rng.normal(size=(20_000, 96, 1))
    tracemalloc.start()
    try:
        _dtw_batch(x, y[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's series copies, its rolling diagonals and one diagonal's costs,
    # then the (P,) result: ~1 MiB; a chunk's (N*M, pairs) cost matrix would not fit
    assert peak <= 4 * 2**20, peak / 2**20


@pytest.mark.parametrize("pairs_per_chunk", [1, 3, 4, 7, None])
def test_dtw_batch_reads_each_reference_by_index(pairs_per_chunk, monkeypatch):
    # K = 4 pairs per reference; chunks of 3 and 7 pairs cut inside one
    # reference's pairs, chunks of 4 fall on its edges
    if pairs_per_chunk is not None:
        monkeypatch.setattr(align_metrics, "_CHUNK_BYTES", pairs_per_chunk * _chunk_bytes(9, 11, 2))
    rng = np.random.default_rng(14)
    refs = rng.normal(size=(6, 9, 2))
    y = rng.normal(size=(24, 11, 2))
    got = _dtw_batch(refs, y.reshape(6, 4, 11, 2))
    assert got.tobytes() == _dtw_batch(np.repeat(refs, 4, axis=0), y[:, None]).tobytes()


def test_dtw_rejects_empty():
    with pytest.raises(ContractViolation):
        dtw(np.zeros((0, 1)), [1.0])


def test_dtw_rejects_feature_mismatch():
    with pytest.raises(ContractViolation):
        dtw(np.zeros((3, 2)), np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# DTW score over bundles
# ---------------------------------------------------------------------------


def _bundle_from(refs, noise_scale, k, seed):
    rng = np.random.default_rng(seed)
    reps = refs[:, None, :, :] + noise_scale * rng.normal(size=(refs.shape[0], k) + refs.shape[1:])
    return GenerationBundle(data=reps)


def test_dtw_score_exact_hit_contributes_zero():
    rng = np.random.default_rng(3)
    refs = rng.normal(size=(4, 10, 1))
    bundle_data = rng.normal(size=(4, 3, 10, 1))
    bundle_data[:, 1] = refs  # one exact hit per sample
    assert dtw_score(refs, GenerationBundle(data=bundle_data)) == 0.0


def test_dtw_score_k_one_is_mean_dtw():
    rng = np.random.default_rng(4)
    refs = rng.normal(size=(5, 8, 1))
    gen = rng.normal(size=(5, 1, 8, 1))
    expected = np.mean([dtw(refs[i], gen[i, 0]) for i in range(5)])
    assert dtw_score(refs, GenerationBundle(data=gen)) == pytest.approx(expected)


def test_dtw_score_monotone_in_k():
    rng = np.random.default_rng(5)
    refs = rng.normal(size=(6, 12, 1))
    full = _bundle_from(refs, 0.8, 6, seed=6)
    scores = [
        dtw_score(refs, GenerationBundle(data=full.data[:, :k])) for k in range(1, 7)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def _layouts(rng, n, k, length, f):
    """The same kind of bundle C-ordered, sliced out of a larger one, Fortran-ordered and time-reversed."""
    base = rng.normal(size=(n, k, length, f))
    base[np.abs(base) < 0.05] = -0.0
    return {
        "C": base,
        "sliced": rng.normal(size=(n, k + 3, 2 * length, f))[:, 1:k + 1, ::2],
        "F": np.asfortranarray(base),
        "reversed": base[:, :, ::-1],
    }


@pytest.mark.parametrize("score", [dtw_score, crps_score])
def test_scores_take_a_plain_bundle_as_the_wrapper(score):
    rng = np.random.default_rng(15)
    for k, f in [(1, 1), (5, 3), (12, 2)]:
        refs = rng.normal(size=(4, 8, f))
        for plain in _layouts(rng, 4, k, 8, f).values():
            got = score(refs, plain)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(score(refs, GenerationBundle(plain))).tobytes()


@pytest.mark.parametrize("score", [dtw_score, crps_score])
def test_scores_check_a_plain_bundle_like_the_wrapper(score):
    refs = np.zeros((2, 3, 1))
    nan_bundle = np.zeros((2, 2, 3, 1))
    nan_bundle[1, 0, 2, 0] = np.nan
    for bad in [np.zeros((2, 3, 1)), np.zeros((2, 0, 3, 1)), nan_bundle]:
        with pytest.raises(ContractViolation, match="generation bundle"):
            score(refs, bad)


def _peak_bytes(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_align_scores_scratch_stays_near_one_bundle():
    rng = np.random.default_rng(16)
    refs = rng.normal(size=(2000, 96, 1))
    bundle = GenerationBundle(refs[:, None] + 0.5 * rng.normal(size=(2000, 10, 96, 1)))  # 14.6 MiB
    # the DTW chunks read the references by index: ~1 MiB, where repeating
    # the references K times took a second 14.6 MiB
    assert _peak_bytes(dtw_score, refs, bundle) <= 4 * 2**20
    # the sorted copy, then the absolute gaps: ~1.3 bundles, where holding
    # both with a weighted copy took ~2.2
    assert _peak_bytes(crps_score, refs, bundle) <= 1.5 * bundle.data.nbytes


def test_dtw_score_reads_a_fortran_ordered_bundle_in_place():
    rng = np.random.default_rng(17)
    refs = rng.normal(size=(2000, 96, 1))
    bundle = refs[:, None] + 0.5 * rng.normal(size=(2000, 10, 96, 1))
    fortran = np.asfortranarray(bundle)
    assert dtw_score(refs, fortran).hex() == dtw_score(refs, bundle).hex()
    # each chunk gathers its pairs from the bundle as it lies: ~1 MiB, where
    # a (n*K, L, F) reshape first copied the 14.6 MiB bundle whole
    assert _peak_bytes(dtw_score, refs, fortran) <= 4 * 2**20


@pytest.mark.parametrize("k", [2.5, True])
def test_bundle_from_flat_refuses_a_k_that_is_no_integer(k):
    with pytest.raises(ContractViolation, match="K must be an integer"):
        GenerationBundle.from_flat(np.zeros((4, 3, 1)), k)


def test_bundle_from_flat_grouping():
    flat = np.arange(24.0).reshape(6, 2, 2)
    bundle = GenerationBundle.from_flat(flat, k=3)
    assert bundle.data.shape == (2, 3, 2, 2)
    assert np.array_equal(bundle.data[0, 0], flat[0])
    assert np.array_equal(bundle.data[1, 2], flat[5])
    with pytest.raises(ContractViolation):
        GenerationBundle.from_flat(flat, k=4)


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def test_crps_degenerate_equals_absolute_error():
    assert crps_instance(np.full(7, 2.5), 1.0) == 1.5
    assert crps_instance(np.full(7, 2.5), 2.5) == 0.0


def test_crps_hand_example():
    assert crps_instance(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5)


def test_crps_matches_naive_double_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        samples = rng.normal(size=int(rng.integers(1, 40)))
        y = float(rng.normal())
        assert crps_instance(samples, y) == pytest.approx(crps_naive(samples, y), abs=1e-12)


def test_crps_nonnegative_and_shift_equivariant():
    rng = np.random.default_rng(8)
    for _ in range(50):
        samples = rng.normal(size=20)
        y = float(rng.normal())
        value = crps_instance(samples, y)
        assert value >= -1e-12
        assert crps_instance(samples + 3.7, y + 3.7) == pytest.approx(value, abs=1e-12)


def test_crps_gaussian_analytic():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(100_000)
    expected = crps_gaussian(0.0, 1.0, 0.0)  # 2*phi(0) - 1/sqrt(pi)
    assert expected == pytest.approx(2.0 / math.sqrt(2.0 * math.pi) - 1.0 / math.sqrt(math.pi))
    assert crps_instance(samples, 0.0) == pytest.approx(expected, rel=0.01)


def test_crps_proper_against_point_forecast():
    # ensembles drawn from the true distribution score better (lower) on
    # average than a fixed deterministic forecast at the mean
    rng = np.random.default_rng(10)
    ys = rng.standard_normal(400)
    ensemble_scores = [crps_instance(rng.standard_normal(64), y) for y in ys]
    point_scores = [crps_instance(np.zeros(1), y) for y in ys]
    assert np.mean(ensemble_scores) < np.mean(point_scores)


def _crps_sorted_reference(samples, y):
    # the per-ensemble body crps_instance had before it became the
    # one-ensemble crps_score case
    s = np.asarray(samples, dtype=np.float64).ravel()
    k = s.size
    weights = 2.0 * np.arange(k) - k + 1.0
    return float(np.abs(s - y).mean() - 0.5 * (2.0 * (np.sort(s) * weights).sum() / (k * k)))


def test_crps_instance_matches_sorted_reference_bitwise():
    rng = np.random.default_rng(13)
    sizes = [1, 2, 3, 299, 100_000] + [int(k) for k in rng.integers(1, 300, size=300)]
    for k in sizes:
        samples = rng.normal(size=k) * rng.choice([1e-3, 1.0, 1e6])
        if k % 3 == 0:
            samples = np.round(samples)  # repeated values: ties in the sort
        y = float(rng.choice([samples[0], rng.normal()]))
        got = crps_instance(samples, y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_crps_sorted_reference(samples, y)).tobytes()


def test_crps_instance_rejects_empty_ensemble():
    with pytest.raises(ContractViolation):
        crps_instance(np.zeros(0), 1.0)


def test_crps_score_identical_bundle_is_zero():
    rng = np.random.default_rng(11)
    refs = rng.normal(size=(3, 6, 2))
    bundle = GenerationBundle(data=np.repeat(refs[:, None], 4, axis=1))
    assert crps_score(refs, bundle) == 0.0


def test_crps_score_constant_offset_is_mae():
    rng = np.random.default_rng(12)
    refs = rng.normal(size=(3, 6, 2))
    bundle = GenerationBundle(data=np.repeat(refs[:, None], 4, axis=1) + 0.75)
    assert crps_score(refs, bundle) == pytest.approx(0.75, abs=1e-12)


def test_crps_score_equals_mean_of_instances():
    refs = np.array([[[0.5], [1.5]], [[-1.0], [2.0]]])  # (2, 2, 1)
    bundle = GenerationBundle(
        data=np.array(
            [[[[0.0], [1.0]], [[1.0], [2.0]]], [[[-1.5], [1.5]], [[0.0], [2.5]]]]
        )  # (2, 2, 2, 1)
    )
    expected = np.mean(
        [
            np.mean(
                [
                    crps_instance(bundle.data[i, :, t, 0], refs[i, t, 0])
                    for t in range(2)
                ]
            )
            for i in range(2)
        ]
    )
    assert crps_score(refs, bundle) == pytest.approx(expected, abs=1e-12)


def test_crps_score_shape_mismatch():
    with pytest.raises(ContractViolation):
        crps_score(np.zeros((2, 4, 1)), GenerationBundle(data=np.zeros((2, 3, 5, 1))))


def _crps_score_reference(refs, data):
    # the direct formula, each term in temporaries of its own; crps_score must give its bits
    term1 = np.abs(data - refs[:, None, :, :]).mean(axis=1)
    k = data.shape[1]
    weights = 2.0 * np.arange(k) - k + 1.0
    sorted_k = np.moveaxis(np.sort(data, axis=1), 1, -1)
    term2 = 0.5 * (2.0 * (sorted_k * weights).sum(axis=-1) / (k * k))
    cell = term1 - term2
    return float(cell.mean(axis=1).mean(axis=1).mean())


def test_crps_score_matches_the_reference_formula_bitwise_over_layouts():
    rng = np.random.default_rng(17)
    for k, f in [(1, 1), (2, 3), (10, 1), (64, 2), (7, 9)]:
        refs = rng.normal(size=(3, 6, f)) * rng.choice([1e-3, 1.0, 1e5])
        for name, data in _layouts(rng, 3, k, 6, f).items():
            for r in (refs, np.asfortranarray(refs)):
                expected = np.float64(_crps_score_reference(r, data)).tobytes()
                assert np.float64(crps_score(r, data)).tobytes() == expected, (k, f, name)
                assert np.float64(crps_score(r, GenerationBundle(data))).tobytes() == expected, (k, f, name)
