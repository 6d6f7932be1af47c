import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitest.errors import (
    InsufficientSamplesError,
    InvalidInputError,
    ShapeError,
)
from pitest.estimators import (
    dcov_sq_closed_form,
    decide,
    rejection_threshold,
    s_hat,
)
from pitest.privacy import PrivacyParams
from pitest.protocol import factor_W

from oracles import (
    oracle_dcov_double_sum,
    oracle_dcov_rst,
    oracle_normal_quantile,
    oracle_unbiased_dcov,
)
from reference import (
    dcov_components,
    dcov_sq_direct,
    dcov_sq_directional,
    dcov_sq_laplacian,
    dcov_sq_unbiased,
    distance_correlation_sq,
    factor_S,
    laplacian_S,
    laplacian_W,
    released,
    s_hat_directional,
    unpack_factor,
)


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def random_pair(seed, n, d, m):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((n, m))


pair_shapes = st.tuples(
    st.integers(2, 20), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000)
)


# ---------------------------------------------------------------- dcov forms


def test_dcov_direct_constant_x_is_zero():
    X = np.full((6, 2), 3.0)
    Y = np.random.default_rng(0).standard_normal((6, 3))
    assert dcov_sq_direct(X, Y) == 0.0


def test_dcov_direct_two_point_matches_oracle():
    X = [[0.0], [1.0]]
    assert rel_close(dcov_sq_direct(X, X), oracle_dcov_double_sum(X, X), 1e-12)


def test_dcov_direct_matches_centered_product_oracle():
    X, Y = random_pair(5, 10, 2, 3)
    assert rel_close(dcov_sq_direct(X, Y), oracle_dcov_double_sum(X, Y))


def test_dcov_oracle_transcriptions_agree():
    # the two independent oracle transcriptions guard each other
    X, Y = random_pair(17, 9, 3, 2)
    assert rel_close(oracle_dcov_double_sum(X, Y), oracle_dcov_rst(X, Y))


def test_dcov_rejects_sample_count_mismatch():
    with pytest.raises(ShapeError):
        dcov_sq_direct(np.zeros((3, 1)), np.zeros((4, 1)))


def test_dcov_components_nonnegative():
    X, Y = random_pair(8, 12, 2, 2)
    comp = dcov_components(X, Y)
    assert comp.r_hat >= 0 and comp.s_hat >= 0 and comp.t_hat >= 0


def test_dcov_laplacian_constant_is_zero():
    X = np.ones((5, 1))
    Y = np.random.default_rng(1).standard_normal((5, 2))
    assert abs(dcov_sq_laplacian(X, Y)) <= 1e-12


def test_dcov_laplacian_agrees_with_direct():
    X, Y = random_pair(9, 12, 3, 2)
    assert rel_close(dcov_sq_laplacian(X, Y), dcov_sq_direct(X, Y))


def test_dcov_laplacian_symmetric_in_arguments():
    X, Y = random_pair(10, 12, 2, 4)
    assert rel_close(dcov_sq_laplacian(X, Y), dcov_sq_laplacian(Y, X))


def test_dcov_directional_zero_y():
    X = np.random.default_rng(2).standard_normal((7, 2))
    assert dcov_sq_directional(factor_W(X), np.zeros((7, 2))) == 0.0


def test_dcov_directional_agrees_with_laplacian():
    X, Y = random_pair(12, 14, 3, 3)
    assert rel_close(dcov_sq_directional(factor_W(X), Y), dcov_sq_laplacian(X, Y), 1e-10)


def test_dcov_directional_single_column():
    X, Y = random_pair(13, 9, 2, 1)
    expected = 2.0 / 81.0 * float(Y[:, 0] @ laplacian_W(X) @ Y[:, 0])
    assert rel_close(dcov_sq_directional(factor_W(X), Y), expected, 1e-10)


@settings(max_examples=60)
@given(pair_shapes)
def test_three_way_equivalence(shape):
    n, d, m, seed = shape
    X, Y = random_pair(seed, n, d, m)
    v1 = dcov_sq_direct(X, Y)
    v2 = dcov_sq_laplacian(X, Y)
    v3 = dcov_sq_directional(factor_W(X), Y)
    assert rel_close(v1, v2)
    assert rel_close(v1, v3)
    assert rel_close(v1, dcov_sq_closed_form(X, Y))


def test_closed_form_and_s_hat_keep_precision_under_large_means():
    X, Y = random_pair(14, 30, 2, 3)
    shift = 1e8
    assert rel_close(dcov_sq_closed_form(X + shift, Y - shift), dcov_sq_closed_form(X, Y), 1e-6)
    assert rel_close(s_hat(X + shift, Y - shift), s_hat(X, Y), 1e-6)


# ---------------------------------------------------------------- unbiased estimator


def test_unbiased_constant_x_is_zero():
    X = np.full((5, 1), 2.0)
    Y = np.random.default_rng(3).standard_normal((5, 2))
    assert dcov_sq_unbiased(X, Y) == 0.0


def test_unbiased_hand_instance_matches_loop_oracle():
    X = [[0.0], [1.0], [2.0], [4.0]]
    Y = [[1.0], [0.0], [2.0], [3.0]]
    assert rel_close(dcov_sq_unbiased(X, Y), oracle_unbiased_dcov(X, Y), 1e-12)


def test_unbiased_random_is_finite_and_may_be_negative():
    rng = np.random.default_rng(4)
    values = [
        dcov_sq_unbiased(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
        for _ in range(20)
    ]
    assert all(math.isfinite(v) for v in values)
    assert any(v < 0 for v in values)  # independent draws do go negative


def test_unbiased_requires_four_samples():
    with pytest.raises(InsufficientSamplesError):
        dcov_sq_unbiased(np.zeros((3, 1)), np.zeros((3, 1)))


# ---------------------------------------------------------------- s_hat


def test_s_hat_hand_value():
    assert s_hat([[0.0], [1.0]], [[0.0], [2.0]]) == pytest.approx(1.0, abs=1e-15)


def test_s_hat_constant_x_is_zero():
    assert s_hat(np.ones((4, 1)), np.arange(4.0)[:, None]) == 0.0


def test_s_hat_matches_trace_form():
    X, Y = random_pair(21, 11, 3, 2)
    n = 11
    G = factor_S(n)
    trace_form = (
        4.0 / n**4 * np.trace(G.T @ X @ X.T @ G) * np.trace(Y.T @ laplacian_S(n) @ Y)
    )
    assert rel_close(s_hat(X, Y), float(trace_form))


def test_s_hat_directional_matches_s_hat():
    X, Y = random_pair(22, 13, 2, 3)
    assert rel_close(s_hat_directional(X.T, Y), s_hat(X, Y))
    # a released projection in place of X^T, against the n^2 form with G = factor_S(n)
    n = 13
    P = unpack_factor(*released(X, PrivacyParams(2.0, 0.01, 0.3, 0.1), seed=5))
    via_factor = (
        4.0 / n**4
        * np.linalg.norm(P @ factor_S(n), "fro") ** 2
        * float(np.trace(Y.T @ laplacian_S(n) @ Y))
    )
    assert rel_close(s_hat_directional(P, Y), via_factor, tol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 130])
def test_s_hat_directional_rejects_non_finite_q(bad, row):
    # n = 500: blocks of 65 rows, so row 130 is the first row of the third block
    Q = np.random.default_rng(20).standard_normal((200, 500))
    Q[row, 7] = bad
    with pytest.raises(InvalidInputError):
        s_hat_directional(Q, np.random.default_rng(21).standard_normal((500, 2)))


def test_s_hat_directional_constant_y_is_zero():
    X = np.random.default_rng(6).standard_normal((8, 2))
    assert abs(s_hat_directional(X.T, np.ones((8, 2)))) <= 1e-12


def test_s_hat_directional_zero_factor_is_zero():
    _, Y = random_pair(23, 6, 2, 2)
    assert s_hat_directional(np.zeros((6, 6)), Y) == 0.0


# ---------------------------------------------------------------- statistic and decision


def test_statistic_arithmetic():
    assert decide(2.0, 4.0, 10, 0.05).statistic == 5.0


def test_statistic_zero_numerator():
    assert decide(0.0, 1.5, 7, 0.05).statistic == 0.0


def test_statistic_composition():
    X, Y = random_pair(30, 15, 2, 2)
    gamma = decide(dcov_sq_direct(X, Y), s_hat(X, Y), 15, 0.05).statistic
    assert rel_close(gamma, 15 * dcov_sq_direct(X, Y) / s_hat(X, Y), 1e-12)


def test_statistic_degenerate_denominator():
    assert decide(1.0, 0.0, 5, 0.05) == (None, rejection_threshold(0.05), 0.05, None)


@given(st.floats(), st.floats(), st.integers(2, 10**6), st.floats(1e-6, 0.999))
def test_decide_is_the_rule(omega_sq, s, n, alpha):
    """No verdict iff not s > 0, else reject iff n omega_sq / s exceeds the threshold; non-finite raises."""
    finite_inputs = math.isfinite(omega_sq) and math.isfinite(s)
    if not finite_inputs or (s > 0.0 and not math.isfinite(n * omega_sq / s)):
        with pytest.raises(InvalidInputError, match="scale"):
            decide(omega_sq, s, n, alpha)
        return
    verdict = decide(omega_sq, s, n, alpha)
    assert verdict.threshold == rejection_threshold(alpha) and verdict.alpha == alpha
    assert (verdict.statistic is None) == (not s > 0.0)
    assert (verdict.reject is None) == (not s > 0.0)
    if s > 0.0:
        assert verdict.statistic == n * omega_sq / s
        assert verdict.reject == (n * omega_sq / s > rejection_threshold(alpha))


def test_threshold_alpha_05():
    assert rejection_threshold(0.05) == pytest.approx(3.841459, abs=1e-5)


def test_threshold_near_unit_quantile():
    assert rejection_threshold(0.3173) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3173, 0.5, 0.9])
def test_threshold_matches_bisection_oracle(alpha):
    want = oracle_normal_quantile(1.0 - alpha / 2.0) ** 2
    assert rejection_threshold(alpha) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("alpha", [1e-17, 5e-324])
def test_threshold_is_infinite_when_one_minus_half_alpha_rounds_to_one(alpha):
    assert rejection_threshold(alpha) == math.inf
    assert decide(1e300, 1.0, 1, alpha).reject is False


def test_threshold_monotone():
    assert rejection_threshold(0.01) > rejection_threshold(0.05) > rejection_threshold(0.10)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_threshold_rejects_bad_alpha(alpha):
    with pytest.raises(InvalidInputError):
        rejection_threshold(alpha)


def test_decide_reject():
    assert decide(10.0, 1.0, 1, 0.05).reject is True


def test_decide_zero_statistic():
    assert decide(0.0, 1.0, 1, 0.05).reject is False


def test_decide_boundary_is_not_rejection():
    threshold = rejection_threshold(0.05)
    assert decide(threshold, 1.0, 1, 0.05).reject is False


@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_decide_monotone_in_statistic(a, b):
    lo, hi = min(a, b), max(a, b)
    if decide(lo, 1.0, 1, 0.05).reject:
        assert decide(hi, 1.0, 1, 0.05).reject


# ---------------------------------------------------------------- normalized dependence


def test_distance_correlation_self_is_one():
    X = np.random.default_rng(8).standard_normal((10, 2))
    assert distance_correlation_sq(X, X) == pytest.approx(1.0, abs=1e-9)


def test_distance_correlation_constant_branch():
    assert distance_correlation_sq(np.ones((5, 1)), np.arange(5.0)[:, None]) == 0.0


def test_distance_correlation_in_unit_interval():
    X, Y = random_pair(9, 25, 2, 2)
    value = distance_correlation_sq(X, Y)
    assert 0.0 <= value <= 1.0
    via_n2 = dcov_sq_direct(X, Y) / math.sqrt(dcov_sq_direct(X, X) * dcov_sq_direct(Y, Y))
    assert rel_close(value, via_n2, tol=1e-9)


# ---------------------------------------------------------------- structural properties


@settings(max_examples=40)
@given(pair_shapes, st.floats(0.1, 10.0))
def test_dcov_scales_quartically_in_x_scale(shape, c):
    n, d, m, seed = shape
    X, Y = random_pair(seed, n, d, m)
    base = dcov_sq_direct(X, Y)
    scaled = dcov_sq_direct(c * X, Y)
    assert abs(scaled - c**2 * base) <= 1e-9 * max(1.0, abs(scaled), abs(c**2 * base))


@settings(max_examples=40)
@given(pair_shapes, st.floats(0.1, 10.0))
def test_statistic_invariant_to_rescaling_x(shape, c):
    n, d, m, seed = shape
    X, Y = random_pair(seed, n, d, m)
    s = s_hat(X, Y)
    if s <= 0:
        return
    g1 = decide(dcov_sq_direct(X, Y), s, n, 0.05).statistic
    g2 = decide(dcov_sq_direct(c * X, Y), s_hat(c * X, Y), n, 0.05).statistic
    assert rel_close(g1, g2, 1e-9) or abs(g1 - g2) <= 1e-9


@settings(max_examples=40)
@given(pair_shapes)
def test_permutation_invariance(shape):
    n, d, m, seed = shape
    X, Y = random_pair(seed, n, d, m)
    perm = np.random.default_rng(seed + 1).permutation(n)
    scale = max(1.0, s_hat(X, Y))
    assert abs(dcov_sq_direct(X, Y) - dcov_sq_direct(X[perm], Y[perm])) <= 1e-12 * scale
    assert abs(s_hat(X, Y) - s_hat(X[perm], Y[perm])) <= 1e-12 * scale


@settings(max_examples=30)
@given(pair_shapes)
def test_degenerate_datasets_zero_everything(shape):
    n, d, m, seed = shape
    _, Y = random_pair(seed, n, d, m)
    X = np.full((n, d), 1.25)
    assert dcov_sq_direct(X, Y) == 0.0
    assert abs(dcov_sq_laplacian(X, Y)) <= 1e-12
    assert dcov_sq_directional(factor_W(X), Y) == 0.0
    assert s_hat(X, Y) == 0.0
    X = np.full((n, d), 0.1)  # the column mean 0.1 is not exactly representable
    assert dcov_sq_direct(X, Y) == 0.0
    assert dcov_sq_closed_form(X, Y) == 0.0
    assert dcov_sq_closed_form(Y, X) == 0.0
    assert s_hat(X, Y) == 0.0
    assert s_hat(Y, X) == 0.0
