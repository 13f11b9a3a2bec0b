"""Cosine adjacency construction and attenuation formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrkit.affinity import (
    STEP_BREAKPOINTS,
    AttenuationConfig,
    attenuate,
    attenuation_factor,
    cosine_affinity,
    duration_factors,
)

STEP = lambda a: AttenuationConfig(mode="stepwise", alpha=a)  # noqa: E731
POLY = lambda b: AttenuationConfig(mode="polynomial", beta=b)  # noqa: E731


def test_identical_embeddings_fully_similar():
    A = cosine_affinity([[3.0, 4.0], [3.0, 4.0]])
    assert A[0, 1] == pytest.approx(1.0)
    assert A[1, 0] == pytest.approx(1.0)
    assert A[0, 0] == 0.0 and A[1, 1] == 0.0


def test_zero_norm_embedding_rejected():
    # an assert used to guard this; under python -O it gave a NaN matrix
    with pytest.raises(ValueError, match="embedding row 1 has zero norm"):
        cosine_affinity([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_orthogonal_embeddings_zero_similarity():
    A = cosine_affinity([[1.0, 0.0], [0.0, 1.0]])
    assert A[0, 1] == 0.0


def test_antipodal_embeddings_forced_to_one():
    A = cosine_affinity([[1.0, 0.0], [-1.0, 0.0]])
    assert A[0, 1] == pytest.approx(1.0)


def test_affinity_matrix_invariants():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 12))
        X = rng.standard_normal((n, d))
        A = cosine_affinity(X)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)
        assert np.all(A >= 0.0) and np.all(A <= 1.0)


def test_scale_and_sign_invariance():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 5))
    A = cosine_affinity(X)
    scales = rng.uniform(0.1, 10.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    np.testing.assert_allclose(cosine_affinity(X * scales[:, None]), A, atol=1e-12)


# (t_i, t_j, cfg, expected factor); exact breakpoint and power behavior,
# inclusive lower bounds at 8/4/2/1 seconds
FACTOR_TABLE = [
    (10.0, 0.3, STEP(0.25), 1.0),
    (8.0, 0.1, STEP(0.25), 1.0),
    (0.2, 9.5, STEP(0.25), 1.0),
    (5.0, 3.0, STEP(0.25), 0.25),
    (4.0, 4.0, STEP(0.25), 0.25),
    (7.999, 0.1, STEP(0.25), 0.25),
    (2.0, 1.0, STEP(0.25), 0.0625),
    (3.999, 3.0, STEP(0.25), 0.0625),
    (1.0, 0.2, STEP(0.25), 0.015625),
    (1.999, 0.4, STEP(0.25), 0.015625),
    (0.5, 0.9, STEP(0.25), 0.00390625),
    (0.999, 0.999, STEP(0.25), 0.00390625),
    (4.0, 1.0, STEP(0.5), 0.5),
    (2.5, 2.5, STEP(0.5), 0.25),
    (1.5, 0.1, STEP(0.5), 0.125),
    (0.5, 0.25, STEP(0.5), 0.0625),
    (0.5, 0.25, STEP(1.0), 1.0),
    (20.0, 20.0, STEP(0.0), 1.0),
    (7.0, 7.0, STEP(0.0), 0.0),
    (0.5, 0.5, STEP(0.0), 0.0),
    (4.0, 1.0, POLY(1.0), 0.5),
    (4.0, 1.0, POLY(2.0), 0.25),
    (9.0, 1.0, POLY(2.0), 1.0),
    (8.0, 8.0, POLY(3.0), 1.0),
    (1.0, 0.5, POLY(1.0), 0.125),
    (2.0, 2.0, POLY(16.0), 2.0**-32),
    (4.0, 0.1, POLY(16.0), 2.0**-16),
    (2.0, 1.0, POLY(0.5), 0.5),
    (6.0, 3.0, POLY(0.0), 1.0),
    (0.25, 0.25, POLY(0.0), 1.0),
]


@pytest.mark.parametrize("t_i,t_j,cfg,expected", FACTOR_TABLE)
def test_attenuation_factor_table(t_i, t_j, cfg, expected):
    assert attenuation_factor(t_i, t_j, cfg) == expected
    # the factor depends on the longer duration only
    assert attenuation_factor(t_j, t_i, cfg) == expected


def test_mode_none_returns_identical_matrix():
    rng = np.random.default_rng(2)
    A = cosine_affinity(rng.standard_normal((6, 4)))
    out = attenuate(A, rng.uniform(0.2, 12.0, 6), AttenuationConfig(mode="none"))
    assert out is not A
    assert out.tobytes() == A.tobytes()


@pytest.mark.parametrize(
    "cfg", [STEP(1.0), POLY(0.0)], ids=["alpha=1", "beta=0"]
)
def test_identity_settings_bitwise_equal(cfg):
    rng = np.random.default_rng(3)
    A = cosine_affinity(rng.standard_normal((10, 6)))
    durations = rng.uniform(0.2, 12.0, 10)
    assert attenuate(A, durations, cfg).tobytes() == A.tobytes()


def test_alpha_zero_zeroes_short_pairs():
    rng = np.random.default_rng(4)
    A = cosine_affinity(rng.standard_normal((7, 4)))
    durations = rng.uniform(0.2, 7.9, 7)
    out = attenuate(A, durations, STEP(0.0))
    assert np.all(out == 0.0)


def test_attenuated_entries_bounded_by_original():
    rng = np.random.default_rng(5)
    A = cosine_affinity(rng.standard_normal((12, 5)))
    durations = rng.uniform(0.1, 15.0, 12)
    for cfg in (STEP(0.3), POLY(2.0)):
        out = attenuate(A, durations, cfg)
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 0.0)
        assert np.all(out <= A + 1e-15)
        assert np.all(out >= 0.0)


def test_factor_monotone_in_longer_duration():
    durations = np.linspace(0.05, 12.0, 200)
    for cfg in (STEP(0.3), POLY(2.5), AttenuationConfig(mode="none")):
        factors = [attenuation_factor(t, 0.01, cfg) for t in durations]
        assert all(b >= a for a, b in zip(factors, factors[1:]))


def test_matrix_matches_scalar_factors():
    rng = np.random.default_rng(6)
    A = cosine_affinity(rng.standard_normal((9, 3)))
    durations = rng.uniform(0.1, 12.0, 9)
    for cfg in (STEP(0.25), POLY(3.0)):
        out = attenuate(A, durations, cfg)
        for i in range(9):
            for j in range(9):
                if i == j:
                    continue
                factor = attenuation_factor(durations[i], durations[j], cfg)
                assert out[i, j] == A[i, j] * factor


def test_config_validation():
    with pytest.raises(ValueError):
        AttenuationConfig(mode="stepwise", alpha=1.5)
    with pytest.raises(ValueError):
        AttenuationConfig(mode="polynomial", beta=-1.0)
    with pytest.raises(ValueError, match="beta must be finite and >= 0, got inf"):
        AttenuationConfig(mode="polynomial", beta=math.inf)
    with pytest.raises(ValueError):
        AttenuationConfig(mode="gaussian")


def test_duration_length_mismatch():
    A = cosine_affinity(np.eye(3))
    with pytest.raises(ValueError, match="durations"):
        attenuate(A, [1.0, 2.0], STEP(0.5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    durations=st.lists(
        st.one_of(
            st.floats(0.01, 20.0), st.sampled_from(STEP_BREAKPOINTS + (0.01, 20.0))
        ),
        min_size=1,
        max_size=24,
    ),
    cfg=st.one_of(
        st.just(AttenuationConfig(mode="none")),
        st.builds(STEP, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))),
        st.builds(POLY, st.one_of(st.floats(0.0, 16.0), st.sampled_from([0.0, 1.0]))),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_attenuate_bitwise_equals_pairwise_max_duration_formula(durations, cfg, seed):
    # the factor of the longer duration is the larger per-segment factor,
    # so the S x S duration matrix is not needed
    t = np.array(durations)
    A = cosine_affinity(np.random.default_rng(seed).standard_normal((len(t), 4)))
    expected = A * duration_factors(np.maximum.outer(t, t), cfg)
    np.fill_diagonal(expected, 0.0)
    assert attenuate(A, t, cfg).tobytes() == expected.tobytes()
