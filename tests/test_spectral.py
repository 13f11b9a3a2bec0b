"""Laplacian construction, LAPACK eigendecomposition, and discretize clustering."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrkit.affinity import AttenuationConfig, attenuate, cosine_affinity
from slrkit.corpus import Segment, SessionHypothesis
from slrkit.pipeline import DurationBucket, SynthSpec, generate_session
from slrkit.spectral import (
    degree,
    discretize,
    normalized_laplacian,
    spectral_cluster,
    symmetric_eig,
)


def random_affinity(rng, n):
    """Random valid adjacency: symmetric, zero diagonal, entries in [0, 1]."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def block_affinity(rng, block_sizes):
    """Block-diagonal adjacency; every block is complete with weights in [0.5, 1]."""
    n = sum(block_sizes)
    A = np.zeros((n, n))
    offset = 0
    for size in block_sizes:
        block = rng.uniform(0.5, 1.0, size=(size, size))
        block = 0.5 * (block + block.T)
        A[offset : offset + size, offset : offset + size] = block
        offset += size
    np.fill_diagonal(A, 0.0)
    return A


def as_partition(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def make_session(embeddings, durations=None, k=2):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    durations = durations if durations is not None else [5.0] * n
    segments = tuple(
        Segment(
            session_id="s",
            segment_id=f"seg{i:03d}",
            start=10.0 * i,
            end=10.0 * i + durations[i],
            initial_speaker="spk0",
            words=(f"w{i}",),
            embedding=embeddings[i],
        )
        for i in range(n)
    )
    return SessionHypothesis(session_id="s", segments=segments, num_speakers=k)


def test_degree_row_sums():
    assert np.array_equal(degree(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0])
    assert np.array_equal(degree(np.zeros((3, 3))), np.zeros(3))
    A = np.full((3, 3), 0.4)
    np.fill_diagonal(A, 0.0)
    np.testing.assert_allclose(degree(A), [0.8, 0.8, 0.8])


def test_laplacian_two_nodes_any_weight():
    for a in (0.3, 0.725, 1.0):
        L = normalized_laplacian(np.array([[0.0, a], [a, 0.0]]))
        np.testing.assert_allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
        w, _ = symmetric_eig(L)
        np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-9)


def test_laplacian_three_node_complete_graph():
    # equal weights: L = 1.5 I - 0.5 * ones, eigenvalues {0, 1.5, 1.5}
    A = np.full((3, 3), 0.6)
    np.fill_diagonal(A, 0.0)
    L = normalized_laplacian(A)
    np.testing.assert_allclose(L, 1.5 * np.eye(3) - 0.5 * np.ones((3, 3)), atol=1e-12)
    w, _ = symmetric_eig(L)
    np.testing.assert_allclose(w, [0.0, 1.5, 1.5], atol=1e-9)


def test_laplacian_isolated_node_identity_row():
    A = np.array(
        [
            [0.0, 0.8, 0.0],
            [0.8, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    L = normalized_laplacian(A)
    assert L[2, 2] == 1.0
    assert np.all(L[2, :2] == 0.0) and np.all(L[:2, 2] == 0.0)


def test_eig_identity_matrix():
    w, V = symmetric_eig(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(V @ V.T, np.eye(3), atol=1e-12)


def test_eig_two_by_two_analytic():
    w, V = symmetric_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(V[:, 0] @ plus) == pytest.approx(1.0, abs=1e-12)
    assert abs(V[:, 1] @ minus) == pytest.approx(1.0, abs=1e-12)


def test_eig_reconstruction_random_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(5):
        M = rng.standard_normal((20, 20))
        L = 0.5 * (M + M.T)
        w, V = symmetric_eig(L)
        recon = V @ np.diag(w) @ V.T
        rel = np.linalg.norm(recon - L) / np.linalg.norm(L)
        assert rel < 1e-8
        np.testing.assert_allclose(V.T @ V, np.eye(20), atol=1e-9)
        # cross-check against an independent solver
        np.testing.assert_allclose(w, np.linalg.eigvalsh(L), atol=1e-8)


def test_eig_sorted_ascending():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((12, 12))
    w, _ = symmetric_eig(0.5 * (M + M.T))
    assert np.all(np.diff(w) >= 0)


def test_eig_hard_cases_match_reference_solver():
    rng = np.random.default_rng(13)
    cases = []
    # nearly degenerate spectrum
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    cases.append(Q @ np.diag(1.0 + 1e-13 * np.arange(10)) @ Q.T)
    # huge and tiny scales
    M = rng.standard_normal((8, 8))
    cases.append(1e12 * 0.5 * (M + M.T))
    cases.append(1e-12 * 0.5 * (M + M.T))
    # wide dynamic range on the diagonal
    D = np.diag(10.0 ** np.arange(-6, 6))
    P = rng.standard_normal((12, 12)) * 1e-8
    cases.append(D + 0.5 * (P + P.T))
    for L in cases:
        L = 0.5 * (L + L.T)
        w, V = symmetric_eig(L)
        scale = np.linalg.norm(L)
        np.testing.assert_allclose(
            V @ np.diag(w) @ V.T, L, atol=1e-8 * scale, rtol=0
        )
        np.testing.assert_allclose(w, np.linalg.eigvalsh(L), atol=1e-9 * scale)


def test_laplacian_spectrum_in_zero_two_range():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        A = random_affinity(rng, n)
        if rng.random() < 0.2:
            A[0, :] = 0.0
            A[:, 0] = 0.0
        w, _ = symmetric_eig(normalized_laplacian(A))
        assert w[0] >= -1e-9
        assert w[-1] <= 2.0 + 1e-9


def test_zero_eigenvalue_multiplicity_matches_components():
    rng = np.random.default_rng(3)
    for _ in range(10):
        num_blocks = int(rng.integers(1, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(num_blocks)]
        A = block_affinity(rng, sizes)
        w, _ = symmetric_eig(normalized_laplacian(A))
        assert int(np.sum(np.abs(w) < 1e-8)) == num_blocks


def test_two_block_features_identical_within_block():
    # equal weights inside each block so degrees are constant per block
    A = np.zeros((7, 7))
    A[:3, :3] = 0.7
    A[3:, 3:] = 0.4
    np.fill_diagonal(A, 0.0)
    _, V = symmetric_eig(normalized_laplacian(A))
    F = V[:, :2]
    for block in (range(0, 3), range(3, 7)):
        rows = F[list(block)]
        assert np.all(np.abs(rows - rows[0]) < 1e-9)
    assert np.linalg.norm(F[0] - F[4]) > 1e-3


def test_discretize_one_hot_fixed_point():
    onehot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    # already-discrete input is a fixed point: the grouping equals the
    # per-row argmax (cluster indices themselves are arbitrary)
    for seed in range(5):
        labels = discretize(onehot, 3, seed=seed)
        assert as_partition(labels) == as_partition(np.argmax(onehot, axis=1))


def test_discretize_rotation_invariant_partition():
    rng = np.random.default_rng(7)
    onehot = np.zeros((12, 3))
    onehot[np.arange(12), rng.integers(0, 3, 12)] = 1.0
    # random orthogonal matrix from QR
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = onehot @ Q
    base = discretize(onehot, 3, seed=11)
    alt = discretize(rotated, 3, seed=11)
    assert as_partition(base) == as_partition(alt)


@st.composite
def clustered_features(draw):
    """(features, k, seed): noisy rows around k orthonormal centers, so no
    argmax or farthest-first choice is close enough to a tie for float
    rounding to decide it."""
    k = draw(st.integers(2, 6))
    rows = draw(st.integers(k, 8 * k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers, _ = np.linalg.qr(rng.standard_normal((k, k)))
    truth = rng.permutation(np.arange(rows) % k)
    X = centers[truth] * rng.uniform(0.5, 2.0, (rows, 1))
    return X + 0.05 * rng.standard_normal((rows, k)), k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(clustered_features(), st.data())
def test_discretize_labels_independent_of_feature_basis(inputs, data):
    # the rounding sees only the span: a random orthogonal Q, a column sign
    # flip and a column permutation leave every label as it is
    X, k, seed = inputs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    signs = np.diag(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)))
    permutation = np.eye(k)[:, data.draw(st.permutations(range(k)))]
    labels = discretize(X, k, seed)
    for basis in (Q, signs, permutation):
        assert np.array_equal(discretize(X @ basis, k, seed), labels)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_spectral_cluster_equal_disconnected_blocks(k, size, seed, data):
    # k identical complete blocks: eigenvalue 0 has multiplicity k, so the
    # solver may return any basis of its eigenspace, and the labels must
    # still be exactly the blocks
    truth = data.draw(st.permutations([i % k for i in range(k * size)]))
    session = make_session(np.eye(k)[truth], k=k)
    assignment = spectral_cluster(session, AttenuationConfig(), seed=seed)
    assert as_partition(assignment.labels) == as_partition(truth)


def test_discretize_single_cluster():
    rng = np.random.default_rng(8)
    labels = discretize(rng.standard_normal((6, 1)), 1, seed=0)
    assert np.array_equal(labels, np.zeros(6, dtype=int))


def test_discretize_zero_rows_get_lowest_label():
    features = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 0.0],
        ]
    )
    labels = discretize(features, 2, seed=0)
    # zero row scores 0 for every cluster; argmax tie resolves to label 0 of
    # the rotated space, i.e. a valid label
    assert labels[2] in (0, 1)
    assert labels[0] != labels[1]


def test_discretize_requires_square_feature_count():
    with pytest.raises(ValueError):
        discretize(np.eye(3), 2, seed=0)
    with pytest.raises(ValueError):
        discretize(np.eye(3), 4, seed=0)


def test_cluster_count_out_of_range_is_value_error():
    with pytest.raises(ValueError):
        discretize(np.zeros((3, 0)), 0, seed=0)
    session = make_session(np.eye(3), k=2)
    cfg = AttenuationConfig(mode="none")
    for k in (0, 4):
        with pytest.raises(ValueError):
            spectral_cluster(session, cfg, seed=0, num_speakers=k)


def test_spectral_cluster_separates_orthogonal_groups():
    rng = np.random.default_rng(9)
    group_a = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    group_b = np.tile([0.0, 1.0, 0.0, 0.0], (4, 1))
    X = np.vstack([group_a, group_b]) * rng.uniform(0.5, 2.0, size=(9, 1))
    session = make_session(X, k=2)
    assignment = spectral_cluster(session, AttenuationConfig(mode="none"), seed=0)
    partition = as_partition(assignment.labels)
    assert partition == as_partition([0] * 5 + [1] * 4)


def test_spectral_cluster_all_isolated_identity_partition():
    # orthogonal embeddings and K = S: every segment its own cluster
    session = make_session(np.eye(4), k=4)
    assignment = spectral_cluster(session, AttenuationConfig(mode="none"), seed=0)
    assert len(set(assignment.labels)) == 4


def test_spectral_cluster_alpha_one_equals_none():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 6))
    durations = rng.uniform(0.3, 12.0, 10)
    session = make_session(X, durations=durations, k=3)
    a = spectral_cluster(session, AttenuationConfig(mode="none"), seed=5)
    b = spectral_cluster(
        session, AttenuationConfig(mode="stepwise", alpha=1.0), seed=5
    )
    assert a.labels == b.labels


def test_spectral_cluster_deterministic():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((15, 8))
    session = make_session(X, k=4)
    cfg = AttenuationConfig(mode="polynomial", beta=2.0)
    first = spectral_cluster(session, cfg, seed=123)
    second = spectral_cluster(session, cfg, seed=123)
    assert first.labels == second.labels


def test_spectral_cluster_permutation_invariant_partition():
    rng = np.random.default_rng(12)
    centers = np.eye(3)
    X = np.vstack(
        [centers[i] + 0.05 * rng.standard_normal((4, 3)) for i in range(3)]
    )
    session = make_session(X, k=3)
    base = spectral_cluster(session, AttenuationConfig(), seed=7)

    perm = rng.permutation(12)
    permuted_session = make_session(X[perm], k=3)
    permuted = spectral_cluster(permuted_session, AttenuationConfig(), seed=7)
    unpermuted = np.empty(12, dtype=int)
    unpermuted[perm] = permuted.labels
    assert as_partition(base.labels) == as_partition(unpermuted)


def test_spectral_cluster_recovers_meeting_scale_session():
    spec = SynthSpec(
        num_speakers=8,
        dim=32,
        buckets=(DurationBucket(1000, 2.0, 10.0, 0.1),),
    )
    session, _, truth = generate_session(spec, 3)
    assignment = spectral_cluster(session, AttenuationConfig(), seed=0)
    assert as_partition(assignment.labels) == as_partition(truth.labels)


def test_spectral_cluster_with_precomputed_affinity_matches():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, 6))
    durations = rng.uniform(0.3, 12.0, 30)
    session = make_session(X, durations=durations, k=3)
    A = cosine_affinity(session.embeddings())
    saved = A.copy()
    for cfg in (
        AttenuationConfig(),
        AttenuationConfig(mode="stepwise", alpha=0.25),
        AttenuationConfig(mode="polynomial", beta=4.0),
    ):
        own = spectral_cluster(session, cfg, seed=3)
        shared = spectral_cluster(session, cfg, seed=3, affinity=A)
        assert shared == own
    assert A.tobytes() == saved.tobytes()


@pytest.mark.parametrize("k", [2, 3, 5])
def test_spectral_cluster_recovers_disconnected_blocks_exactly(k):
    # each speaker's embeddings live in their own coordinates, so the graph
    # has k components and eigenvalues 0 = l_0 = ... = l_(k-1): any basis of
    # that eigenspace must still give the blocks
    rng = np.random.default_rng(k)
    truth = rng.permutation(np.arange(6 * k) % k)
    X = np.zeros((6 * k, 2 * k))
    for i, c in enumerate(truth):
        X[i, 2 * c : 2 * c + 2] = rng.uniform(0.2, 1.0, 2)
    session = make_session(X, k=k)
    for seed in range(5):
        assignment = spectral_cluster(session, AttenuationConfig(), seed=seed)
        assert as_partition(assignment.labels) == as_partition(truth)


def test_spectral_cluster_zero_degree_nodes_give_valid_labels():
    # step:0 zeroes every pair whose longer segment is under 8 s; the short
    # segments share no direction with the long ones, so they lose every
    # edge, and an all-short session is an empty graph
    rng = np.random.default_rng(14)
    X = np.zeros((12, 4))
    X[:4, :2] = rng.uniform(0.2, 1.0, (4, 2))
    X[4:, 2:] = rng.uniform(0.2, 1.0, (8, 2))
    cfg = AttenuationConfig(mode="stepwise", alpha=0.0)
    for durations, isolated in (([9.0] * 4 + [1.0] * 8, 8), ([1.0] * 12, 12)):
        session = make_session(X, durations=durations, k=3)
        A = attenuate(cosine_affinity(X), durations, cfg)
        assert np.count_nonzero(degree(A) == 0) == isolated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = spectral_cluster(session, cfg, seed=0).labels
        assert len(labels) == 12
        assert set(labels) <= {0, 1, 2}
