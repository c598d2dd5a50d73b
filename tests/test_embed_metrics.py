import math

import numpy as np
import pytest

from seriesbench.core import ContractViolation
from seriesbench.embed_metrics import (
    GaussianSummary,
    ManifoldIndex,
    cttp_score,
    fid,
    frechet_distance,
    gaussian_summary,
    j_ftsd,
    joint_embed,
    joint_precision_recall,
    matrix_sqrt_psd,
    precision,
    recall,
)


def brute_precision_recall(real, gen, k):
    """O(n^2) reference: explicit radii and containment via sorted distances."""

    def radii(points):
        out = []
        for i, p in enumerate(points):
            dists = sorted(
                math.dist(p, q) for j, q in enumerate(points) if j != i
            )
            out.append(dists[k - 1])
        return out

    def contained(queries, points, rad):
        hits = 0
        for q in queries:
            if any(math.dist(q, p) <= r for p, r in zip(points, rad)):
                hits += 1
        return hits / len(queries)

    return (
        contained(gen, real, radii(real)),
        contained(real, gen, radii(gen)),
    )


# ---------------------------------------------------------------------------
# Gaussian summaries and matrix square roots
# ---------------------------------------------------------------------------


def test_summary_two_scalars():
    s = gaussian_summary(np.array([[0.0], [2.0]]))
    assert s.mean[0] == pytest.approx(1.0)
    assert s.covariance[0, 0] == pytest.approx(2.0)  # (1 + 1) / (n - 1)


def test_summary_repeated_row_zero_covariance():
    s = gaussian_summary(np.tile([1.5, -2.0], (6, 1)))
    assert np.allclose(s.covariance, 0.0)


def test_summary_standard_normal_monte_carlo():
    rng = np.random.default_rng(0)
    s = gaussian_summary(rng.standard_normal((1_000_000, 2)))
    assert np.allclose(s.mean, 0.0, atol=0.005)
    assert np.allclose(s.covariance, np.eye(2), atol=0.01)


def test_summary_needs_two_rows():
    with pytest.raises(ContractViolation):
        gaussian_summary(np.ones((1, 3)))


def test_sqrt_identity():
    assert np.allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)


def test_sqrt_diagonal():
    assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_two_by_two_eigenpairs():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = matrix_sqrt_psd(m)
    r3 = math.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1.0, r3 - 1.0], [r3 - 1.0, r3 + 1.0]])
    assert np.allclose(s, expected, atol=1e-12)
    assert np.allclose(s @ s, m, atol=1e-10)


def test_sqrt_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        matrix_sqrt_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_sqrt_clamps_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-14])
    s = matrix_sqrt_psd(m)
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


# ---------------------------------------------------------------------------
# Fréchet distance
# ---------------------------------------------------------------------------


def test_frechet_self_zero():
    rng = np.random.default_rng(3)
    s = gaussian_summary(rng.normal(size=(50, 4)))
    assert frechet_distance(s, s) == pytest.approx(0.0, abs=1e-10)


def test_frechet_one_dimensional_closed_form():
    a = GaussianSummary(mean=np.array([1.0]), covariance=np.array([[2.0]]))
    b = GaussianSummary(mean=np.array([2.0]), covariance=np.array([[2.0]]))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_frechet_commuting_diagonals():
    a = GaussianSummary(mean=np.zeros(2), covariance=np.diag([1.0, 4.0]))
    b = GaussianSummary(mean=np.zeros(2), covariance=np.diag([4.0, 1.0]))
    assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_frechet_symmetric_and_rotation_invariant():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 3))
    y = rng.normal(size=(200, 3)) * 1.4 + 0.3
    a, b = gaussian_summary(x), gaussian_summary(y)
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-10)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    ar, br = gaussian_summary(x @ q), gaussian_summary(y @ q)
    assert frechet_distance(ar, br) == pytest.approx(frechet_distance(a, b), abs=1e-8)


def test_frechet_dimension_mismatch():
    a = GaussianSummary(mean=np.zeros(2), covariance=np.eye(2))
    b = GaussianSummary(mean=np.zeros(3), covariance=np.eye(3))
    with pytest.raises(ContractViolation):
        frechet_distance(a, b)


def manifold_build(real, gen):
    return ManifoldIndex.build(np.concatenate([real, gen]), 5)


def manifold_contains(real, gen):
    return ManifoldIndex(real, np.ones(real.shape[0])).contains(gen)


@pytest.mark.parametrize("metric", [precision, recall, joint_precision_recall, manifold_build, manifold_contains])
@pytest.mark.parametrize("scale_real, scale_gen", [(1.0, 1e160), (1e160, 1.0), (1.0, 3e153)])
def test_manifold_metrics_refuse_overflowing_distances_without_warning(metric, scale_real, scale_gen):
    # the suite turns warnings into errors; at 3e153 the squared norms (6.9e307) are finite,
    # but a distance between two generated rows overflows.  The kNN kernel itself refuses:
    # a build on both sets, and a containment test of one set against the other's points
    emb = np.random.default_rng(4).normal(size=(30, 4))
    args = (emb * scale_real, emb * scale_gen) + ((emb,) if metric is joint_precision_recall else ())
    with pytest.raises(ContractViolation, match="squared distances between the embeddings overflow float64"):
        metric(*args)


@pytest.mark.parametrize("scale_real, scale_gen, failing", [(1.0, 1e160, "generated"), (1e160, 1.0, "real")])
def test_fid_names_the_summary_whose_covariance_overflows(scale_real, scale_gen, failing):
    emb = np.random.default_rng(4).normal(size=(30, 4))
    with pytest.raises(ContractViolation, match=f"covariance of the {failing} embeddings overflows float64"):
        fid(emb * scale_real, emb * scale_gen)


# ---------------------------------------------------------------------------
# Manifold precision / recall
# ---------------------------------------------------------------------------


def test_contains_index_point():
    index = ManifoldIndex.build(np.array([[0.0], [1.0], [3.0]]), k=1)
    assert index.contains(np.array([[1.0]]))[0]


def test_contains_one_dimensional_example():
    index = ManifoldIndex.build(np.array([[0.0], [1.0], [3.0]]), k=1)
    assert np.allclose(index.radii, [1.0, 1.0, 2.0])
    assert index.contains(np.array([[2.0]]))[0]
    assert not index.contains(np.array([[6.0]]))[0]


def test_contains_closed_ball_boundary():
    index = ManifoldIndex.build(np.array([[0.0], [2.0], [10.0], [12.0]]), k=1)
    # radius of point 0 is exactly 2; a query at distance exactly 2 is inside
    assert index.contains(np.array([[-2.0]]))[0]


def test_identical_sets_perfect_scores():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    assert precision(x, x, k=3) == 1.0
    assert recall(x, x, k=3) == 1.0


def test_far_translation_zeroes_precision():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 2))
    assert precision(x, x + 1e6, k=3) == 0.0
    assert recall(x, x + 1e6, k=3) == 0.0


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(8, 20))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        real = rng.normal(size=(n, d))
        gen = rng.normal(size=(n, d))
        expected = brute_precision_recall(real.tolist(), gen.tolist(), k)
        assert precision(real, gen, k=k) == expected[0]
        assert recall(real, gen, k=k) == expected[1]


def test_precision_recall_definition_symmetry():
    rng = np.random.default_rng(21)
    real = rng.normal(size=(18, 3))
    gen = rng.normal(size=(18, 3))
    for k in (1, 3, 5):
        assert precision(real, gen, k=k) == recall(gen, real, k=k)


def test_containment_monotone_in_k():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(40, 2))
    queries = rng.normal(size=(60, 2)) * 2.0
    previous = None
    for k in range(1, 10):
        contained = ManifoldIndex.build(points, k).contains(queries)
        if previous is not None:
            assert np.all(contained >= previous)
        previous = contained


def test_k_bounds_enforced():
    with pytest.raises(ContractViolation):
        precision(np.zeros((4, 2)), np.zeros((9, 2)), k=5)


@pytest.mark.parametrize("k", [2.5, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda points, k: ManifoldIndex.build(points, k),
        lambda points, k: precision(points, points[::-1], k=k),
        lambda points, k: recall(points, points[::-1], k=k),
        lambda points, k: joint_precision_recall(points, points[::-1], points, k=k),
    ],
    ids=["build", "precision", "recall", "joint"],
)
def test_k_refuses_bools_and_fractions(call, k):
    # 2.5 ended in a bare TypeError from the partition; True ran as k = 1
    points = np.random.default_rng(3).normal(size=(8, 2))
    with pytest.raises(ContractViolation, match="k must be an integer"):
        call(points, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda points, k: precision(points, points[::-1], k=k),
        lambda points, k: recall(points, points[::-1], k=k),
        lambda points, k: joint_precision_recall(points, points[::-1], points, k=k),
    ],
    ids=["precision", "recall", "joint"],
)
def test_k_is_checked_before_it_is_compared(call):
    # k="3" ended in a bare TypeError from the size comparison
    points = np.random.default_rng(3).normal(size=(8, 2))
    with pytest.raises(ContractViolation, match="k must be an integer, got '3'"):
        call(points, "3")


def test_contains_rejects_queries_of_another_width():
    index = ManifoldIndex.build(np.zeros((4, 3)), 1)
    with pytest.raises(ContractViolation, match=r"queries must be \(m, 3\)"):
        index.contains(np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# The buffered kNN kernel against the allocating block code it replaced
# ---------------------------------------------------------------------------

_REF_BLOCK_ROWS = 2048


def _ref_block_distances(queries, points):
    q_sq = (queries**2).sum(axis=1)[:, None]
    p_sq = (points**2).sum(axis=1)[None, :]
    sq = q_sq + p_sq - 2.0 * queries @ points.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def _ref_radii(points, k, block_rows=_REF_BLOCK_ROWS):
    n = points.shape[0]
    radii = np.empty(n)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        d = _ref_block_distances(points[start:stop], points)
        rows = np.arange(stop - start)
        d[rows, np.arange(start, stop)] = np.inf
        radii[start:stop] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return radii


def _ref_contains(points, radii, queries, block_rows=_REF_BLOCK_ROWS):
    out = np.zeros(queries.shape[0], dtype=bool)
    for start in range(0, queries.shape[0], block_rows):
        stop = min(start + block_rows, queries.shape[0])
        d = _ref_block_distances(queries[start:stop], points)
        out[start:stop] = (d <= radii[None, :]).any(axis=1)
    return out


def _assert_kernel_parity(points, queries, k, block_rows=_REF_BLOCK_ROWS):
    index = ManifoldIndex.build(points, k)
    radii = _ref_radii(points, k, block_rows)
    assert np.array_equal(index.radii.view(np.uint64), radii.view(np.uint64))
    assert np.array_equal(index.contains(queries), _ref_contains(points, radii, queries, block_rows))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 5])
def test_kernel_bitwise_parity_across_k(seed, d):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(37, d))
    queries = rng.normal(size=(53, d)) * 1.5  # n != m, some queries outside
    for k in (1, 4, 36):  # k = n - 1 makes every radius the farthest neighbour
        _assert_kernel_parity(points, queries, k)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_bitwise_parity_with_ties(seed):
    # a small integer grid: duplicate points, zero radii, and queries sitting
    # exactly on a radius, where any rounding difference flips a boolean
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 4, size=(60, 2)).astype(np.float64)
    queries = rng.integers(-1, 5, size=(45, 2)).astype(np.float64)
    assert np.any(ManifoldIndex.build(points, 1).radii == 0.0)
    for k in (1, 2, 7):
        _assert_kernel_parity(points, queries, k)


@pytest.mark.parametrize("rows", [1, 7])
def test_kernel_bitwise_parity_at_forced_block_height(rows, monkeypatch):
    # 1-row blocks, and 7-row blocks that leave short last blocks (37 = 5*7 + 2,
    # 53 = 7*7 + 4).  The reference runs at the same height: OpenBLAS rounds a
    # product according to its shape (a one-row product goes through gemv), so
    # what a height must not change is the buffer reuse, not the BLAS call.
    from seriesbench import embed_metrics

    monkeypatch.setattr(embed_metrics, "_BLOCK_BYTES", 8 * 37 * rows)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(37, 3))
    queries = rng.normal(size=(53, 3))
    for k in (1, 5):
        _assert_kernel_parity(points, queries, k, block_rows=rows)


def _bench_size_inputs():
    rng = np.random.default_rng(5)
    return rng.normal(size=(6000, 64)), rng.normal(size=(6000, 64)) + 0.1


def test_kernel_bitwise_parity_at_bench_size():
    """The kernel's 174-row gram blocks at n = 6000 against the 2048-row reference.

    Pinned on OpenBLAS's SkylakeX kernel, the baseline box's default, where
    both heights round every product alike; another kernel may round them
    differently (see the README on portable outputs).
    """
    points, queries = _bench_size_inputs()
    _assert_kernel_parity(points, queries, 5)


def test_kernel_bitwise_parity_at_bench_size_and_the_kernels_own_height():
    """The same inputs against a reference at the kernel's own 174-row height.

    Equal gemm shapes round alike, so this pin holds on every BLAS kernel.
    """
    from seriesbench import embed_metrics

    points, queries = _bench_size_inputs()
    _assert_kernel_parity(points, queries, 5, block_rows=embed_metrics._BLOCK_BYTES // (8 * 6000))


@pytest.mark.parametrize("n", [8193, 12000])
@pytest.mark.parametrize("d", [3, 128])
def test_kernel_bitwise_parity_with_the_byte_budget_blocking_past_8192_points(n, d):
    """Past n = 8192 a gram block keeps 128 rows, where the 8 MiB budget alone gives fewer (127, 87).

    Pinned on OpenBLAS's SkylakeX kernel, the baseline box's default, where
    both heights round every product alike; another kernel may round them
    differently (see the README on portable outputs).
    """
    from seriesbench import embed_metrics

    rng = np.random.default_rng(n + d)
    points = rng.normal(size=(n, d))
    queries = points[:600] + rng.normal(size=(600, d)) * np.linspace(0.0, 1.5, 600)[:, None]
    block_rows = embed_metrics._BLOCK_BYTES // (8 * n)
    index = ManifoldIndex.build(points, 5)
    radii = _ref_radii(points, 5, block_rows)
    assert np.array_equal(index.radii.view(np.uint64), radii.view(np.uint64))
    inside = index.contains(queries)
    assert np.array_equal(inside, _ref_contains(points, radii, queries, block_rows))
    assert 0.0 < inside.mean() < 1.0  # queries run from copies of points to well off them


@pytest.mark.parametrize("n", [8193, 12000])
@pytest.mark.parametrize("d", [3, 128])
def test_kernel_bitwise_parity_past_8192_points_at_the_kernels_own_height(n, d):
    """The same inputs against a reference at the kernel's own 128-row height.

    Equal gemm shapes round alike, so this pin holds on every BLAS kernel.
    """
    from seriesbench import embed_metrics

    rng = np.random.default_rng(n + d)
    points = rng.normal(size=(n, d))
    queries = points[:600] + rng.normal(size=(600, d)) * np.linspace(0.0, 1.5, 600)[:, None]
    _assert_kernel_parity(points, queries, 5, block_rows=embed_metrics._BLOCK_BYTES // (8 * 8192))


def _assert_contains_parity(points, radii, queries):
    index = ManifoldIndex(points=points, radii=radii)
    assert np.array_equal(index.contains(queries), _ref_contains(points, radii, queries))


def test_kernel_bitwise_parity_with_duplicate_points_and_zero_radii():
    points = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]]), [3, 2, 4], axis=0)
    queries = np.array([[0.0, 0.0], [1.0, 0.0], [1e-300, 0.0], [5e-324, 0.0], [0.5, 0.0], [3.0, 4.0]])
    assert np.all(ManifoldIndex.build(points, 1).radii == 0.0)
    for k in (1, 2, 3, 5):
        _assert_kernel_parity(points, queries, k)


def test_contains_bitwise_parity_at_subnormal_radii():
    # no squared distance has a subnormal root, so only a radius set by hand is
    # subnormal; a query whose square underflows is at distance 0 and inside,
    # one with a subnormal square (1e-160) is outside
    points = np.zeros((3, 1))
    radii = np.array([5e-324, 1e-310, 2.2250738585072014e-308])
    queries = np.array([[0.0], [5e-324], [-5e-324], [1e-310], [1e-160], [1.5e-154]])
    _assert_contains_parity(points, radii, queries)
    assert np.array_equal(ManifoldIndex(points, radii).contains(queries), [1, 1, 1, 1, 0, 0])


def test_kernel_bitwise_parity_near_sqrt_dbl_max():
    # points near sqrt(DBL_MAX) have squared norms near DBL_MAX, so the kernel refuses them;
    # radii at and just around sqrt(DBL_MAX), where r * r overflows, still meet small points
    big = math.sqrt(np.finfo(np.float64).max)
    with pytest.raises(ContractViolation, match="squared distances between the embeddings overflow float64"):
        ManifoldIndex.build(np.array([[0.0], [big * 0.5], [big * 0.999999], [big]]), 1)
    points = np.array([[0.0], [1.0], [-3.0], [2.5]])
    queries = np.array([[-0.5], [0.75], [-1e150], [1e153], [-big * 0.25]])
    radii = np.array([np.nextafter(big, 0.0), big, np.nextafter(big, np.inf), 1.5 * big])
    _assert_contains_parity(points, radii, queries)
    assert ManifoldIndex(points, radii).contains(queries).all()


def test_kernel_bitwise_parity_when_squares_overflow():
    # squares of 1e155 overflow float64: the build and the containment test refuse such points,
    # and an inf or NaN radius set by hand still meets finite distances as the reference does
    rng = np.random.default_rng(4)
    points = np.concatenate([rng.normal(size=(6, 2)), [[1e155, 0.0], [2e155, 0.0], [0.0, -3e155]]])
    queries = np.concatenate([rng.normal(size=(5, 2)), [[1e155, 0.0], [0.0, 1e160], [-4e155, 1.0]]])
    small = points[:6]
    for refused in (
        lambda: ManifoldIndex.build(points, 1),
        lambda: ManifoldIndex(points, np.ones(points.shape[0])).contains(small),
        lambda: ManifoldIndex(small, np.ones(small.shape[0])).contains(queries),
    ):
        with pytest.raises(ContractViolation, match="squared distances between the embeddings overflow float64"):
            refused()
    for radius in (np.inf, np.nan):
        _assert_contains_parity(small, np.full(small.shape[0], radius), queries[:5])


@pytest.mark.parametrize("block_rows, tile_rows", [(37, 1), (7, 3), (7, 7), (8, 3), (4, 9)])
def test_kernel_bitwise_parity_at_forced_tile_height(block_rows, tile_rows, monkeypatch):
    # tiles of one row, tiles that do not divide the block (7 = 3 + 3 + 1 leaves
    # a lone last tile), tiles as high as the block, and a tile budget above
    # the block's, which is cut to the block
    from seriesbench import embed_metrics

    monkeypatch.setattr(embed_metrics, "_BLOCK_BYTES", 8 * 37 * block_rows)
    monkeypatch.setattr(embed_metrics, "_TILE_BYTES", 8 * 37 * tile_rows)
    rng = np.random.default_rng(12)
    points = rng.normal(size=(37, 3))
    queries = rng.normal(size=(53, 3))
    for k in (1, 5):
        _assert_kernel_parity(points, queries, k, block_rows=block_rows)


_EDGE_RADII = [
    0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.4916681462400413e-154, 1e-10, 0.5, 1.0, 2.0, 3.0,
    1e150, 1.3407807929942596e154, 1.3407807929942597e154, 1e200, np.finfo(np.float64).max, np.inf,
]


def test_radius_threshold_is_the_largest_square_inside():
    from seriesbench.embed_metrics import _radius_thresholds

    rng = np.random.default_rng(13)
    radii = np.concatenate([_EDGE_RADII, rng.integers(1, 0x7FF0000000000000, size=20_000).view(np.float64)])
    t = _radius_thresholds(radii)
    with np.errstate(over="ignore"):
        root = np.sqrt(np.maximum(t, 0.0))
        root_up = np.sqrt(np.maximum(np.nextafter(t, np.inf), 0.0))
    assert np.all(root <= radii)
    assert np.all((t == np.inf) | (root_up > radii))
    # no square passes a NaN or a negative radius
    assert np.isnan(_radius_thresholds(np.array([np.nan, -1.0]))).all()


def test_precision_scratch_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(6)
    real = rng.normal(size=(6000, 64))
    gen = rng.normal(size=(6000, 64))
    tracemalloc.start()
    try:
        precision(real, gen, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# CTTP score and joint-space metrics
# ---------------------------------------------------------------------------


def test_cttp_identical_rows():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12, 6))
    assert cttp_score(x, x) == pytest.approx(1.0)


def test_cttp_negated_rows():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(12, 6))
    assert cttp_score(x, -x) == pytest.approx(-1.0)


def test_cttp_hand_cosine():
    ts = np.array([[1.0, 0.0]])
    text = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    assert cttp_score(ts, text) == pytest.approx(1.0 / math.sqrt(2.0))


def test_cttp_invariant_under_positive_row_rescale():
    rng = np.random.default_rng(12)
    ts = rng.normal(size=(20, 4))
    text = rng.normal(size=(20, 4))
    scales = rng.uniform(0.1, 9.0, size=(20, 1))
    assert cttp_score(ts * scales, text) == pytest.approx(cttp_score(ts, text), abs=1e-12)


def test_cttp_rejects_zero_norm():
    with pytest.raises(ContractViolation):
        cttp_score(np.zeros((2, 3)), np.ones((2, 3)))


def test_joint_embed_concatenates():
    ts = np.arange(6.0).reshape(3, 2)
    cond = np.arange(9.0).reshape(3, 3)
    joint = joint_embed(ts, cond)
    assert joint.data.shape == (3, 5)
    assert np.array_equal(joint.data[:, :2], ts)
    assert np.array_equal(joint.data[:, 2:], cond)


def test_joint_embed_owns_one_frozen_copy():
    rng = np.random.default_rng(19)
    ts = rng.normal(size=(9, 4))
    cond = rng.normal(size=(9, 3))
    data = joint_embed(ts, cond).data
    assert data.base is None and data.flags.owndata and not data.flags.writeable
    assert np.array_equal(data.view(np.uint64), np.concatenate([ts, cond], axis=1).view(np.uint64))


def test_j_ftsd_identical_is_zero():
    rng = np.random.default_rng(13)
    ts = rng.normal(size=(60, 4))
    cond = rng.normal(size=(60, 3))
    assert j_ftsd(ts, ts, cond) == pytest.approx(0.0, abs=1e-8)


def test_j_ftsd_constant_condition_reduces_to_fid():
    rng = np.random.default_rng(14)
    real = rng.normal(size=(80, 4))
    gen = rng.normal(size=(80, 4)) + 0.5
    cond = np.tile([1.0, -2.0, 0.25], (80, 1))
    assert j_ftsd(real, gen, cond) == pytest.approx(fid(real, gen), abs=1e-8)


def test_j_ftsd_sensitive_to_condition_alignment():
    # correlated (ts, cond) pairs: shuffling conditions changes J-FTSD but not FID
    rng = np.random.default_rng(15)
    base = rng.normal(size=(120, 3))
    real = base + 0.1 * rng.normal(size=(120, 3))
    gen = base + 0.1 * rng.normal(size=(120, 3))
    cond = base  # strongly aligned with both sets
    aligned = j_ftsd(real, gen, cond)
    perm = rng.permutation(120)
    shuffled = j_ftsd(real, gen[perm], cond)
    assert abs(shuffled - aligned) > 1e-3
    assert fid(real, gen[perm]) == pytest.approx(fid(real, gen), abs=1e-10)


def test_joint_precision_recall_identical():
    rng = np.random.default_rng(16)
    ts = rng.normal(size=(30, 3))
    cond = rng.normal(size=(30, 2))
    assert joint_precision_recall(ts, ts, cond, k=3) == (1.0, 1.0)


def test_joint_precision_recall_brute_force():
    rng = np.random.default_rng(17)
    ts_real = rng.normal(size=(15, 2))
    ts_gen = rng.normal(size=(15, 2))
    cond = rng.normal(size=(15, 2))
    joint_real = np.concatenate([ts_real, cond], axis=1)
    joint_gen = np.concatenate([ts_gen, cond], axis=1)
    expected = brute_precision_recall(joint_real.tolist(), joint_gen.tolist(), k=3)
    assert joint_precision_recall(ts_real, ts_gen, cond, k=3) == expected


def test_joint_constant_condition_matches_plain_pr():
    rng = np.random.default_rng(18)
    ts_real = rng.normal(size=(25, 3))
    ts_gen = rng.normal(size=(25, 3))
    cond = np.full((25, 2), 3.3)
    assert joint_precision_recall(ts_real, ts_gen, cond, k=4) == (
        precision(ts_real, ts_gen, k=4),
        recall(ts_real, ts_gen, k=4),
    )


def test_cttp_rejects_an_overflowing_row_without_warning():
    # the suite turns warnings into errors, so an overflow warning would fail here first
    ts = np.ones((4, 3))
    ts[2] = 1e200  # its squared norm overflows to inf
    with pytest.raises(ContractViolation, match="overflowing row in series embeddings"):
        cttp_score(ts, np.ones((4, 3)))


@pytest.mark.parametrize("shape", [(6000, 64), (300, 8), (1001, 128)])
def test_cttp_bitwise_equal_to_unkept_norms(shape):
    # the checked norms keep their reduced axis; the score must not move by a bit
    rng = np.random.default_rng(shape[0])
    ts, text = rng.normal(size=shape), rng.normal(size=shape)
    expected = ((ts * text).sum(axis=1) / (np.linalg.norm(ts, axis=1) * np.linalg.norm(text, axis=1))).mean()
    assert cttp_score(ts, text) == float(expected)
