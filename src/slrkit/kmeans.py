"""k-means++ baseline clustering on unit-normalized embeddings."""

from __future__ import annotations

import numpy as np

LLOYD_MAX_ITER = 300


def unit_normalize(vectors) -> np.ndarray:
    """Scale each row to Euclidean norm 1."""
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("vectors must be 2-D")
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm vector")
    return X / norms[:, None]


def _seed_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then D^2 sampling."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining distances zero (duplicate points): uniform pick
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]

def _lloyd(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations to an assignment fixpoint; returns labels and cost history."""
    k = centers.shape[0]
    labels, dist2 = _assign(X, centers)
    costs = [float(dist2.sum())]
    for _ in range(LLOYD_MAX_ITER):
        centers = centers.copy()
        empty = []
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = X[members].mean(axis=0)
            else:
                empty.append(j)
        if empty:
            # re-seed empty clusters with the points farthest from their centers
            far_order = np.argsort(-dist2, kind="stable")
            for j, idx in zip(empty, far_order):
                centers[j] = X[idx]
        new_labels, dist2 = _assign(X, centers)
        costs.append(float(dist2.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, costs


def kmeans_pp(vectors, k: int, seed) -> np.ndarray:
    """Cluster rows into ``k`` groups with k-means++ seeding and Lloyd refinement.

    One seeding per call, then Lloyd iterations to an assignment fixpoint
    (at most ``LLOYD_MAX_ITER``).  Deterministic per seed.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("vectors must be 2-D")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"cluster count {k} invalid for {n} points")
    centers = _seed_centers(X, k, np.random.default_rng(seed))
    labels, _ = _lloyd(X, centers)
    return labels.astype(np.int64)
