"""A small, dependency-free K-Means implementation.

Used by the poisoned-node selector to cluster per-class node representations.
Lloyd's algorithm with k-means++ initialisation; deterministic given the
caller's random generator.
"""

from __future__ import annotations


import numpy as np

from repro.exceptions import AttackError


class KMeans:
    """Lloyd's K-Means with k-means++ seeding.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``K``.
    max_iterations:
        Upper bound on Lloyd iterations.
    tolerance:
        Stop when the total centroid movement drops below this value.
    """

    def __init__(
        self,
        num_clusters: int,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
    ) -> None:
        if num_clusters < 1:
            raise AttackError(f"num_clusters must be >= 1, got {num_clusters}")
        if max_iterations < 1:
            raise AttackError(f"max_iterations must be >= 1, got {max_iterations}")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.centroids: np.ndarray | None = None
        self.assignments: np.ndarray | None = None
        self.inertia: float = float("inf")

    def fit(self, points: np.ndarray, rng: np.random.Generator) -> "KMeans":
        """Cluster ``points`` (``(n, d)``) into ``num_clusters`` groups."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise AttackError(f"points must be a 2-D array, got shape {points.shape}")
        n = points.shape[0]
        if n == 0:
            raise AttackError("cannot cluster an empty point set")
        effective_k = min(self.num_clusters, n)
        centroids = self._plus_plus_init(points, effective_k, rng)
        assignments = np.zeros(n, dtype=np.int64)
        for _ in range(self.max_iterations):
            distances = self._pairwise_sq_distances(points, centroids)
            assignments = np.argmin(distances, axis=1)
            new_centroids = centroids.copy()
            for k in range(effective_k):
                members = points[assignments == k]
                if members.shape[0] > 0:
                    new_centroids[k] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its centroid.
                    farthest = int(np.argmax(distances.min(axis=1)))
                    new_centroids[k] = points[farthest]
            movement = float(np.abs(new_centroids - centroids).sum())
            centroids = new_centroids
            if movement < self.tolerance:
                break
        distances = self._pairwise_sq_distances(points, centroids)
        assignments = np.argmin(distances, axis=1)
        self.centroids = centroids
        self.assignments = assignments
        self.inertia = float(distances[np.arange(n), assignments].sum())
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign each point to its nearest fitted centroid."""
        if self.centroids is None:
            raise AttackError("predict called before fit")
        distances = self._pairwise_sq_distances(np.asarray(points, dtype=np.float64), self.centroids)
        return np.argmin(distances, axis=1)

    def distances_to_own_centroid(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance of each point to the centroid of its cluster."""
        if self.centroids is None or self.assignments is None:
            raise AttackError("distances_to_own_centroid called before fit")
        points = np.asarray(points, dtype=np.float64)
        diffs = points - self.centroids[self.assignments]
        return np.sqrt((diffs ** 2).sum(axis=1))

    @staticmethod
    def _pairwise_sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Squared distances ``(n, k)``; an overflowed entry is ``inf``.

        Coordinates beyond ~1e154 overflow the squared norms, and the
        expansion then yields ``inf - inf = nan``.  Those entries become
        ``inf``, so ``argmin`` prefers any finite distance and otherwise
        picks the first centroid; finite inputs are untouched.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            point_norms = (points ** 2).sum(axis=1, keepdims=True)
            centroid_norms = (centroids ** 2).sum(axis=1)
            distances = point_norms - 2.0 * points @ centroids.T + centroid_norms
        distances[np.isnan(distances)] = np.inf
        return distances

    @staticmethod
    def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        n = points.shape[0]
        centroids = np.empty((k, points.shape[1]), dtype=np.float64)
        first = int(rng.integers(n))
        centroids[0] = points[first]
        with np.errstate(over="ignore"):
            closest = ((points - centroids[0]) ** 2).sum(axis=1)
        for index in range(1, k):
            total = closest.sum()
            # Degenerate distance mass falls back to a uniform draw.  Three
            # cases would otherwise crash or corrupt `rng.choice(p=...)`:
            # an all-duplicate point set (total == 0 → 0/0 NaN weights), a
            # NaN coordinate (total is NaN, every comparison False, NaN
            # weights propagate), and huge coordinates whose squared
            # distances overflow to inf (weights collapse to 0/NaN and no
            # longer sum to 1).
            if not np.isfinite(total) or total <= 0:
                chosen = int(rng.integers(n))
            else:
                probabilities = closest / total
                chosen = int(rng.choice(n, p=probabilities))
            centroids[index] = points[chosen]
            with np.errstate(over="ignore"):
                distances = ((points - centroids[index]) ** 2).sum(axis=1)
            closest = np.minimum(closest, distances)
        return centroids
