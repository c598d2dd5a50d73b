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
