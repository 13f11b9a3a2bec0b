"""k-means++ seeding, Lloyd refinement, and the brute-force cost oracle."""

import itertools

import numpy as np
import pytest

from slrkit.kmeans import _lloyd, _seed_centers, kmeans_pp, unit_normalize


def wcss(X, labels, k):
    total = 0.0
    for j in range(k):
        members = X[labels == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def brute_force_best(X, k):
    """Optimal within-cluster sum of squares over all assignments."""
    n = len(X)
    best_cost = np.inf
    best_labels = None
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.array(assignment)
        cost = wcss(X, labels, k)
        if cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_cost, best_labels


def as_partition(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def test_unit_normalize_examples():
    np.testing.assert_array_equal(unit_normalize([[3.0, 4.0]]), [[0.6, 0.8]])
    v = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(unit_normalize(v), v, atol=1e-12)
    np.testing.assert_array_equal(unit_normalize([[-2.0, 0.0]]), [[-1.0, 0.0]])


def test_unit_normalize_norms_are_one():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 7)) * rng.uniform(0.01, 100.0, size=(30, 1))
    norms = np.linalg.norm(unit_normalize(X), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_unit_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero-norm"):
        unit_normalize([[0.0, 0.0]])


def test_each_point_its_own_cluster():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 3))
    labels = kmeans_pp(X, 6, seed=0)
    assert len(set(labels.tolist())) == 6
    assert wcss(X, labels, 6) == pytest.approx(0.0, abs=1e-20)


def test_two_separated_clouds_match_brute_force():
    rng = np.random.default_rng(2)
    cloud_a = np.array([10.0, 0.0]) + 0.1 * rng.standard_normal((5, 2))
    cloud_b = np.array([-10.0, 0.0]) + 0.1 * rng.standard_normal((5, 2))
    X = np.vstack([cloud_a, cloud_b])
    labels = kmeans_pp(X, 2, seed=3)
    _, optimal = brute_force_best(X, 2)
    assert as_partition(labels) == as_partition(optimal)


def test_identical_points_deterministic_zero_cost():
    X = np.ones((5, 2))
    first = kmeans_pp(X, 2, seed=9)
    second = kmeans_pp(X, 2, seed=9)
    assert np.array_equal(first, second)
    assert wcss(X, first, 2) == 0.0


def test_deterministic_per_seed():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 5))
    assert np.array_equal(kmeans_pp(X, 4, seed=17), kmeans_pp(X, 4, seed=17))


def test_partition_invariant_to_scaling_after_normalize():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4))
    scaled = X * rng.uniform(0.5, 20.0, size=(20, 1))
    a = kmeans_pp(unit_normalize(X), 3, seed=2)
    b = kmeans_pp(unit_normalize(scaled), 3, seed=2)
    assert np.array_equal(a, b)


def test_lloyd_cost_monotone_nonincreasing():
    rng = np.random.default_rng(6)
    for trial in range(20):
        X = rng.standard_normal((30, 3))
        k = int(rng.integers(2, 6))
        centers = _seed_centers(X, k, np.random.default_rng(trial))
        _, costs = _lloyd(X, centers)
        for earlier, later in zip(costs, costs[1:]):
            assert later <= earlier + 1e-9


def test_cost_never_beats_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(15):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        X = rng.standard_normal((n, 2))
        labels = kmeans_pp(X, k, seed=trial)
        optimal_cost, _ = brute_force_best(X, k)
        assert wcss(X, labels, k) >= optimal_cost - 1e-9


def test_well_separated_fixtures_reach_optimum():
    rng = np.random.default_rng(8)
    for trial in range(10):
        k = int(rng.integers(2, 4))
        # separation ratio > 5: centers 10 apart, noise sigma 0.2
        centers = rng.standard_normal((k, 3)) * 0.1 + np.arange(k)[:, None] * 10.0
        X = np.vstack(
            [centers[j] + 0.2 * rng.standard_normal((3, 3)) for j in range(k)]
        )
        labels = kmeans_pp(X, k, seed=trial)
        optimal_cost, optimal = brute_force_best(X, k)
        assert as_partition(labels) == as_partition(optimal)
        assert wcss(X, labels, k) == pytest.approx(optimal_cost, rel=1e-9)


def test_too_many_clusters_rejected():
    with pytest.raises(ValueError):
        kmeans_pp(np.eye(3), 4, seed=0)
