"""Cosine adjacency matrices and duration-based attenuation.

The adjacency entry for two segments is the absolute cosine similarity of
their embeddings, with a zero diagonal.  Attenuation shrinks entries whose
longer segment is short, because embeddings computed from little audio are
unreliable: short segments then cannot form high-similarity cliques among
themselves but may still attach to long segments of the same speaker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATTENUATION_MODES = ("none", "stepwise", "polynomial")

# Step-wise attenuation breakpoints in seconds, fixed by construction:
# factor 1 at >= 8 s, then alpha^1, alpha^2, alpha^3, alpha^4 below 8/4/2/1 s.
STEP_BREAKPOINTS = (8.0, 4.0, 2.0, 1.0)

# Polynomial attenuation knee in seconds: factor 1 at longer durations.
POLY_KNEE_SECONDS = 8.0


@dataclass(frozen=True)
class AttenuationConfig:
    """Attenuation mode and its single hyperparameter.

    ``alpha`` applies in step-wise mode (0 <= alpha <= 1), ``beta`` in
    polynomial mode (finite beta >= 0).  The step-wise breakpoints and the
    polynomial knee are fixed constants.
    """

    mode: str = "none"
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.mode not in ATTENUATION_MODES:
            raise ValueError(
                f"mode must be one of {ATTENUATION_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


def cosine_affinity(embeddings) -> np.ndarray:
    """Absolute-cosine adjacency matrix with zero diagonal.

    Entry (i, j) is |e_i . e_j| / (|e_i| |e_j|); the diagonal is zero, not
    the self-similarity.  The result is exactly symmetric with entries in
    [0, 1].
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("embeddings must be a non-empty (segments x dim) array")
    norms = np.linalg.norm(X, axis=1)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ValueError(f"embedding row {zero[0]} has zero norm")
    unit = X / norms[:, None]
    A = np.abs(unit @ unit.T)
    A = 0.5 * (A + A.T)
    np.clip(A, 0.0, 1.0, out=A)
    np.fill_diagonal(A, 0.0)
    return A


def duration_factors(durations: np.ndarray, cfg: AttenuationConfig) -> np.ndarray:
    """Attenuation factor of each duration, elementwise.

    Every mode is nondecreasing in the duration, so the factor of a pair's
    longer duration is the larger of the two segments' factors.
    """
    if cfg.mode == "none":
        return np.ones_like(durations)
    if cfg.mode == "stepwise":
        a = cfg.alpha
        b8, b4, b2, b1 = STEP_BREAKPOINTS
        return np.select(
            [durations >= b8, durations >= b4, durations >= b2, durations >= b1],
            [1.0, a, a**2, a**3],
            default=a**4,
        )
    # polynomial: (duration / knee) ** beta below the knee, 1 above
    return np.where(
        durations > POLY_KNEE_SECONDS, 1.0, (durations / POLY_KNEE_SECONDS) ** cfg.beta
    )


def attenuation_factor(t_i: float, t_j: float, cfg: AttenuationConfig) -> float:
    """Factor in [0, 1] for a segment pair, driven by the longer duration."""
    longer = np.array([max(t_i, t_j)], dtype=np.float64)
    return float(duration_factors(longer, cfg)[0])


def attenuate(A: np.ndarray, durations, cfg: AttenuationConfig) -> np.ndarray:
    """Apply per-pair attenuation factors to an adjacency matrix.

    Returns a new matrix with entry (i, j) scaled by the factor for
    (durations[i], durations[j]), the larger of the two segments' factors.
    Symmetry and the zero diagonal are preserved; identity settings (mode
    none, alpha=1, beta=0) return a bitwise-equal copy.
    """
    A = np.asarray(A, dtype=np.float64)
    t = np.asarray(durations, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] != A.shape[0]:
        raise ValueError(
            f"durations length {t.shape} does not match matrix size {A.shape}"
        )
    if cfg.mode == "none":
        return A.copy()
    f = duration_factors(t, cfg)
    out = A * np.maximum.outer(f, f)
    np.fill_diagonal(out, 0.0)
    return out

