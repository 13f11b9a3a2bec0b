"""Spectral clustering on the symmetric normalized graph Laplacian.

Pipeline: adjacency -> degree -> normalized Laplacian -> eigenvectors of the
smallest eigenvalues -> per-segment feature vectors -> hard labels via the
alternating rotation/argmax procedure ("discretize").

Clustering computes only the k eigenvectors it uses, with one LAPACK subset
solver call (``scipy.linalg.eigh(..., subset_by_index=[0, k - 1])``);
:func:`symmetric_eig` is the full decomposition (``numpy.linalg.eigh``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .affinity import AttenuationConfig, attenuate, cosine_affinity
from .corpus import LabelAssignment, SessionHypothesis

DISCRETIZE_MAX_ITER = 100
DISCRETIZE_TOL = 1e-10


def degree(A: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix (the degree-matrix diagonal)."""
    return np.asarray(A, dtype=np.float64).sum(axis=1)


def normalized_laplacian(A: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian: 1 on the diagonal, -A_ij/sqrt(D_ii D_jj) off it.

    Rows with zero degree (possible when attenuation zeroes all similarities
    of a segment) become identity rows, isolating the node instead of
    dividing by zero.
    """
    A = np.asarray(A, dtype=np.float64)
    d = degree(A)
    inv_sqrt = np.zeros_like(d)
    positive = d > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    # multiply.outer keeps exact symmetry: entry (i,j) and (j,i) are the
    # same commutative product
    L = -(A * np.multiply.outer(inv_sqrt, inv_sqrt))
    np.fill_diagonal(L, 1.0)
    return L


def symmetric_eig(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix, from LAPACK.

    Returns (eigenvalues ascending, eigenvectors as columns), computed by
    ``numpy.linalg.eigh``, which reads only the lower triangle.
    """
    A = np.asarray(L, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    return np.linalg.eigh(A)


def spectral_features(eigenvectors: np.ndarray, num_features: int) -> np.ndarray:
    """Per-node features from the first ``num_features`` eigenvector columns.

    Row i stacks entry i of each selected eigenvector.  Each selected
    column's sign is fixed so its largest-magnitude entry is positive, which
    stabilizes the downstream clustering across runs and platforms.
    """
    V = np.asarray(eigenvectors, dtype=np.float64)
    if num_features > V.shape[1]:
        raise ValueError(
            f"requested {num_features} features from {V.shape[1]} eigenvectors"
        )
    F = V[:, :num_features].copy()
    for j in range(F.shape[1]):
        pivot = np.argmax(np.abs(F[:, j]))
        if F[pivot, j] < 0:
            F[:, j] = -F[:, j]
    return F


def discretize(features: np.ndarray, num_clusters: int, seed) -> np.ndarray:
    """Turn eigenvector features into hard labels via alternating rotation fits.

    Rows are normalized to unit length (all-zero rows are left alone), a
    rotation is initialized from ``num_clusters`` farthest-first rows (seeded
    start), then discretization by per-row argmax alternates with an
    orthogonal Procrustes update of the rotation until the objective moves
    less than ``DISCRETIZE_TOL`` or ``DISCRETIZE_MAX_ITER`` iterations.

    Argmax ties (including all-zero rows) resolve to the lowest label index.
    """
    X = np.array(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be 2-D")
    n, h = X.shape
    if not 1 <= num_clusters <= n:
        raise ValueError(f"{num_clusters} clusters for {n} rows")
    if h != num_clusters:
        raise ValueError(
            f"feature dimension {h} must equal cluster count {num_clusters}"
        )
    if num_clusters == 1:
        return np.zeros(n, dtype=np.int64)

    norms = np.linalg.norm(X, axis=1)
    nonzero = norms > 0
    X[nonzero] = X[nonzero] / norms[nonzero, None]

    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    dist = np.linalg.norm(X - X[chosen[0]], axis=1)
    for _ in range(1, num_clusters):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(X - X[nxt], axis=1))
    rotation = X[chosen].T

    labels = np.zeros(n, dtype=np.int64)
    last_objective = None
    for _ in range(DISCRETIZE_MAX_ITER):
        rotated = X @ rotation
        labels = np.argmax(rotated, axis=1)
        onehot = np.zeros((n, num_clusters))
        onehot[np.arange(n), labels] = 1.0
        U, singular, Vt = np.linalg.svd(onehot.T @ X)
        objective = float(singular.sum())
        if last_objective is not None and abs(objective - last_objective) < DISCRETIZE_TOL:
            break
        last_objective = objective
        rotation = Vt.T @ U.T
    return labels.astype(np.int64)


def spectral_cluster(
    session: SessionHypothesis,
    cfg: AttenuationConfig,
    seed,
    *,
    num_speakers: int | None = None,
    affinity: np.ndarray | None = None,
) -> LabelAssignment:
    """Cluster a session's segments: affinity, attenuation, Laplacian, discretize.

    ``affinity`` is the session's :func:`cosine_affinity`, for callers that
    cluster one session several times; it is computed here when not given.
    """
    k = session.num_speakers if num_speakers is None else int(num_speakers)
    if affinity is None:
        affinity = cosine_affinity(session.embeddings())
    A = attenuate(affinity, session.durations(), cfg)
    L = normalized_laplacian(A)
    _, eigenvectors = scipy.linalg.eigh(L, subset_by_index=[0, k - 1])
    features = spectral_features(eigenvectors, k)
    labels = discretize(features, k, seed)
    return LabelAssignment(session_id=session.session_id, labels=tuple(labels))
