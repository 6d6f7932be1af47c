import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pitest.errors import InsufficientSamplesError, InvalidInputError
from pitest.protocol import factor_W

from oracles import oracle_double_center_triple, oracle_pairwise_sq_dist
from reference import (
    adjacency_W,
    centering_matrix,
    double_center,
    factor_S,
    laplacian_S,
    laplacian_W,
    pairwise_sq_dist,
)


def random_matrix(seed, n, d):
    return np.random.default_rng(seed).standard_normal((n, d))


sample_shapes = st.tuples(st.integers(2, 12), st.integers(1, 4), st.integers(0, 10_000))


# ---------------------------------------------------------------- distances


def test_pairwise_sq_dist_hand_example():
    X = [[0.0], [1.0], [3.0]]
    expected = [[0, 1, 9], [1, 0, 4], [9, 4, 0]]
    assert np.array_equal(pairwise_sq_dist(X), expected)


def test_pairwise_sq_dist_identical_rows():
    X = np.ones((4, 3)) * 2.5
    assert np.array_equal(pairwise_sq_dist(X), np.zeros((4, 4)))


def test_pairwise_sq_dist_matches_loop_oracle():
    X = random_matrix(42, 5, 3)
    got = pairwise_sq_dist(X)
    want = np.array(oracle_pairwise_sq_dist(X))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_pairwise_sq_dist_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        pairwise_sq_dist([[0.0], [np.nan]])


@given(sample_shapes)
def test_pairwise_sq_dist_properties(shape):
    n, d, seed = shape
    D = pairwise_sq_dist(random_matrix(seed, n, d))
    assert np.array_equal(D, D.T)
    assert np.array_equal(np.diag(D), np.zeros(n))
    assert np.all(D >= 0)


# ---------------------------------------------------------------- centering


def test_double_center_kills_all_ones():
    M = np.ones((5, 5))
    assert np.allclose(double_center(M), 0.0, atol=1e-15)


def test_double_center_identity_n2():
    assert np.allclose(double_center(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_double_center_matches_triple_product():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    M = M + M.T
    got = double_center(M)
    want = np.array(oracle_double_center_triple(M))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_double_center_rejects_non_square():
    with pytest.raises(InvalidInputError):
        double_center(np.zeros((3, 4)))


@given(st.integers(1, 20))
def test_centering_matrix_invariants(n):
    J = centering_matrix(n)
    assert np.max(np.abs(J @ np.ones(n))) <= 1e-12
    assert np.max(np.abs(J @ J - J)) <= 1e-12


# ---------------------------------------------------------------- adjacency / Laplacians


def test_adjacency_identical_rows_is_zero():
    X = np.tile([1.0, 2.0], (5, 1))
    assert np.allclose(adjacency_W(X), 0.0, atol=1e-12)


def test_adjacency_two_point_hand_value():
    W = adjacency_W([[0.0], [1.0]])
    assert np.allclose(W, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)


def test_adjacency_requires_two_samples():
    with pytest.raises(InsufficientSamplesError):
        adjacency_W([[1.0]])


@given(sample_shapes)
def test_adjacency_rows_sum_to_zero(shape):
    n, d, seed = shape
    W = adjacency_W(random_matrix(seed, n, d))
    assert np.max(np.abs(W.sum(axis=1))) <= 1e-10 * max(1.0, np.max(np.abs(W)))


def test_laplacian_W_two_point_hand_value():
    L = laplacian_W([[0.0], [1.0]])
    assert np.allclose(L, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_laplacian_W_identical_rows_is_zero():
    assert np.allclose(laplacian_W(np.zeros((4, 2))), 0.0, atol=1e-12)


def test_laplacian_W_equals_centered_gram():
    X = random_matrix(11, 8, 3)
    J = centering_matrix(8)
    L = laplacian_W(X)
    assert np.linalg.norm(L - 2.0 * J @ X @ X.T @ J) <= 1e-9


@given(sample_shapes)
def test_laplacian_W_graph_laplacian_invariants(shape):
    n, d, seed = shape
    L = laplacian_W(random_matrix(seed, n, d))
    scale = max(1.0, float(np.max(np.abs(L))))
    assert np.max(np.abs(L - L.T)) <= 1e-12 * scale
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-9 * n * scale
    eigs = np.linalg.eigvalsh(L)
    assert eigs[0] >= -1e-9 * max(eigs[-1], 1e-30)


def test_laplacian_S_three_matches_displayed_matrix():
    assert np.array_equal(laplacian_S(3), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_S_two():
    assert np.array_equal(laplacian_S(2), [[1, -1], [-1, 1]])


def test_laplacian_S_rejects_small_n():
    with pytest.raises(InvalidInputError):
        laplacian_S(1)


@given(st.integers(2, 25))
def test_laplacian_S_eigenvalues(n):
    eigs = np.sort(np.linalg.eigvalsh(laplacian_S(n)))
    assert abs(eigs[0]) <= 1e-9 * n
    assert np.allclose(eigs[1:], n, atol=1e-9 * n)


# ---------------------------------------------------------------- factors


def test_factor_W_hand_example():
    B = factor_W([[0.0], [2.0]])
    assert np.allclose(B, [[-np.sqrt(2)], [np.sqrt(2)]], atol=1e-15)
    assert np.allclose(B @ B.T, laplacian_W([[0.0], [2.0]]), atol=1e-12)


def test_factor_W_identical_rows_zero_factor():
    assert np.allclose(factor_W(np.full((3, 2), 7.0)), 0.0, atol=1e-12)


@given(sample_shapes)
def test_factor_W_reconstructs_laplacian(shape):
    n, d, seed = shape
    X = random_matrix(seed, n, d)
    B = factor_W(X)
    L = laplacian_W(X)
    assert np.linalg.norm(B @ B.T - L) <= 1e-8 * (1.0 + np.linalg.norm(L))


def test_factor_S_two_point():
    G = factor_S(2)
    assert np.allclose(G, np.sqrt(2) * np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)
    assert np.allclose(G @ G.T, [[1, -1], [-1, 1]], atol=1e-12)


def test_factor_S_three_reconstructs_displayed_matrix():
    G = factor_S(3)
    assert np.allclose(G @ G.T, laplacian_S(3), atol=1e-12)


@given(st.integers(2, 25))
def test_factor_S_rank_and_singular_values(n):
    sv = np.linalg.svd(factor_S(n), compute_uv=False)
    assert np.allclose(sv[:-1], np.sqrt(n), atol=1e-9)
    assert abs(sv[-1]) <= 1e-9 * n


# ---------------------------------------------------------------- cross-identities


@given(sample_shapes)
def test_centered_gram_is_minus_half_centered_distances(shape):
    n, d, seed = shape
    X = random_matrix(seed, n, d)
    J = centering_matrix(n)
    lhs = J @ X @ X.T @ J
    rhs = -0.5 * double_center(pairwise_sq_dist(X))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))


@given(sample_shapes)
def test_centered_distance_matrix_sums_to_zero(shape):
    n, d, seed = shape
    E = pairwise_sq_dist(random_matrix(seed, n, d))
    total = float(np.sum(double_center(E)))
    assert abs(total) <= 1e-8 * max(1e-30, float(np.sum(E)))
