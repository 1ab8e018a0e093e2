"""Unit and property tests for the K-Means implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attack.kmeans import KMeans
from repro.exceptions import AttackError
from repro.utils.seed import new_rng


def well_separated_blobs(rng, per_cluster=20, dims=2):
    centers = np.array([[0.0] * dims, [10.0] * dims, [-10.0] + [10.0] * (dims - 1)])
    points = np.vstack([
        center + rng.normal(scale=0.3, size=(per_cluster, dims)) for center in centers
    ])
    truth = np.repeat(np.arange(3), per_cluster)
    return points, truth


class TestKMeans:
    def test_recovers_well_separated_clusters(self, rng):
        points, truth = well_separated_blobs(rng)
        model = KMeans(num_clusters=3).fit(points, rng)
        # Cluster labels are permutation-invariant: check purity instead.
        purity = 0
        for k in range(3):
            members = truth[model.assignments == k]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / points.shape[0] > 0.95

    def test_inertia_is_low_for_tight_clusters(self, rng):
        points, _ = well_separated_blobs(rng)
        model = KMeans(num_clusters=3).fit(points, rng)
        assert model.inertia < points.shape[0] * 1.0

    def test_more_clusters_never_increase_inertia(self, rng):
        points, _ = well_separated_blobs(rng)
        inertia_2 = KMeans(num_clusters=2).fit(points, new_rng(0)).inertia
        inertia_5 = KMeans(num_clusters=5).fit(points, new_rng(0)).inertia
        assert inertia_5 <= inertia_2 + 1e-9

    def test_predict_matches_fit_assignments(self, rng):
        points, _ = well_separated_blobs(rng)
        model = KMeans(num_clusters=3).fit(points, rng)
        np.testing.assert_array_equal(model.predict(points), model.assignments)

    def test_distances_to_own_centroid_nonnegative(self, rng):
        points, _ = well_separated_blobs(rng)
        model = KMeans(num_clusters=3).fit(points, rng)
        distances = model.distances_to_own_centroid(points)
        assert np.all(distances >= 0.0)

    def test_fewer_points_than_clusters(self, rng):
        points = rng.normal(size=(2, 3))
        model = KMeans(num_clusters=5).fit(points, rng)
        assert model.centroids.shape[0] == 2

    def test_single_cluster(self, rng):
        points = rng.normal(size=(10, 2))
        model = KMeans(num_clusters=1).fit(points, rng)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0), atol=1e-9)

    def test_empty_points_raise(self, rng):
        with pytest.raises(AttackError):
            KMeans(num_clusters=2).fit(np.zeros((0, 3)), rng)

    def test_1d_points_rejected(self, rng):
        with pytest.raises(AttackError):
            KMeans(num_clusters=2).fit(np.zeros(5), rng)

    def test_invalid_configuration(self):
        with pytest.raises(AttackError):
            KMeans(num_clusters=0)
        with pytest.raises(AttackError):
            KMeans(num_clusters=2, max_iterations=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(AttackError):
            KMeans(num_clusters=2).predict(np.ones((2, 2)))

    def test_deterministic_given_same_rng_seed(self):
        points, _ = well_separated_blobs(new_rng(3))
        a = KMeans(num_clusters=3).fit(points, new_rng(7))
        b = KMeans(num_clusters=3).fit(points, new_rng(7))
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_duplicate_points(self, rng):
        points = np.ones((10, 3))
        model = KMeans(num_clusters=2).fit(points, rng)
        assert np.isfinite(model.inertia)

    def test_nan_points_do_not_crash_seeding(self, rng):
        """NaN coordinates poison the k-means++ weights; seeding must not crash.

        Regression: ``rng.choice(p=...)`` raised on NaN probabilities because
        the degenerate-mass guard only caught ``total <= 0`` (every comparison
        against NaN is False).  The seeder now falls back to a uniform draw.
        """
        points = np.full((8, 2), np.nan)
        model = KMeans(num_clusters=3).fit(points, rng)
        assert model.centroids.shape == (3, 2)
        assert model.assignments.shape == (8,)

    @pytest.mark.filterwarnings("error")
    def test_huge_points_overflow_to_uniform_fallback(self, rng):
        """Squared distances overflowing to inf must also hit the fallback."""
        points = np.array([[1e200, 0.0], [-1e200, 0.0]] * 5)
        model = KMeans(num_clusters=2).fit(points, rng)
        assert model.centroids.shape == (2, 2)
        assert model.assignments.shape == (10,)

    def test_overflowed_distances_are_inf_and_deterministic(self):
        points = np.array([[1e200, 0.0], [-1e200, 0.0], [1.0, 0.0]])
        centroids = np.array([[1e200, 0.0], [0.0, 0.0]])
        distances = KMeans._pairwise_sq_distances(points, centroids)
        assert not np.isnan(distances).any()
        assert np.isinf(distances[0]).all() and np.isinf(distances[1]).all()
        assert distances[2, 1] == 1.0
        runs = [KMeans(num_clusters=2).fit(points, new_rng(3)).assignments for _ in range(2)]
        np.testing.assert_array_equal(*runs)

    def test_finite_distances_match_the_plain_expansion(self, rng):
        points = rng.normal(size=(40, 5)) * 1e3
        centroids = rng.normal(size=(4, 5))
        expected = (
            (points ** 2).sum(axis=1, keepdims=True)
            - 2.0 * points @ centroids.T
            + (centroids ** 2).sum(axis=1)
        )
        np.testing.assert_array_equal(KMeans._pairwise_sq_distances(points, centroids), expected)

    def test_plus_plus_uniform_fallback_is_deterministic(self):
        points = np.ones((6, 2))
        a = KMeans._plus_plus_init(points, 3, new_rng(5))
        b = KMeans._plus_plus_init(points, 3, new_rng(5))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, np.ones((3, 2)))


class TestKMeansProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        d=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, n, d, k, seed):
        generator = new_rng(seed)
        points = generator.normal(size=(n, d))
        model = KMeans(num_clusters=k).fit(points, generator)
        effective_k = min(k, n)
        # Assignments reference existing centroids and every point is assigned.
        assert model.assignments.shape == (n,)
        assert model.assignments.min() >= 0
        assert model.assignments.max() < effective_k
        assert model.centroids.shape == (effective_k, d)
        assert np.isfinite(model.inertia)
