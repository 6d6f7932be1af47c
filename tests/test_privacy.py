import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitest.errors import InvalidInputError, ShapeError
from pitest.privacy import (
    PrivacyParams,
    jl_params,
    private_sum_directional_variances,
    privatize_covariance,
    tau,
    tau_mechanism,
)

from oracles import oracle_projection_mean


PARAMS = PrivacyParams(epsilon=100.0, delta=0.5, eta=0.5, nu=0.5)  # small r, small w: fast MC


# ---------------------------------------------------------------- parameters


def test_jl_params_worked_example():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.1, nu=0.01)
    r, w = jl_params(p)
    assert r == 4239  # ceil(800 * ln 200)
    expected_w = 16.0 * math.sqrt(r * math.log(2.0 / 1e-4)) / 1.0 * math.log(16.0 * r / 1e-4)
    assert w == pytest.approx(expected_w, rel=1e-12)


def test_jl_params_r_doubles_with_log_term():
    # nu chosen so 8 ln(2/nu) / eta^2 is exactly 800, then exactly 1600
    r1 = jl_params(PrivacyParams(1.0, 1e-4, 0.1, 2.0 / math.e)).r
    r2 = jl_params(PrivacyParams(1.0, 1e-4, 0.1, 2.0 / math.e**2)).r
    assert (r1, r2) == (800, 1600)


@pytest.mark.parametrize("eta", [1e-155, 1e-200, 5e-324])
def test_jl_params_rejects_eta_too_small_for_a_row_count(eta):
    # 8 ln(2/nu)/eta^2 overflows to inf at 1e-155; eta^2 underflows to 0 below
    with pytest.raises(InvalidInputError, match="eta"):
        jl_params(PrivacyParams(epsilon=1.0, delta=1e-4, eta=eta, nu=0.05))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, delta=1e-4, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=0.0, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=1.0, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=1e-4, eta=1.0, nu=0.01),
        dict(epsilon=1.0, delta=1e-4, eta=0.1, nu=0.0),
        dict(epsilon=1.0, delta=1e-4, eta=float("nan"), nu=0.01),
    ],
)
def test_privacy_params_validation(kwargs):
    with pytest.raises(InvalidInputError):
        PrivacyParams(**kwargs)


def test_half_budget_splits_epsilon_delta_only():
    p = PrivacyParams(2.0, 4e-4, 0.1, 0.01)
    h = p.half_budget()
    assert (h.epsilon, h.delta, h.eta, h.nu) == (1.0, 2e-4, 0.1, 0.01)


def test_tau_quarter_under_epsilon_doubling():
    p1 = PrivacyParams(1.0, 2e-4, 0.05, 1e-4)
    p2 = PrivacyParams(2.0, 2e-4, 0.05, 1e-4)
    assert tau(p2, 3, 500) == pytest.approx(tau(p1, 3, 500) / 4.0, rel=1e-12)


def test_tau_worked_example_matches_transcription():
    p = PrivacyParams(1.0, 2e-4, 0.05, 1e-4)
    total = (3 + 500) * 1e-4
    expected = (
        2048.0
        * math.log(2.0 / total)
        * math.log(2.0 / 2e-4)
        / (0.05 * 1.0**2)
        * math.log(128.0 * math.log(1.0 / total) / (0.05**2 * 2e-4)) ** 2
    )
    assert tau(p, 3, 500) == pytest.approx(expected, rel=1e-12)


def test_tau_rejects_large_query_volume():
    p = PrivacyParams(1.0, 2e-4, 0.05, 1e-2)
    with pytest.raises(InvalidInputError):
        tau(p, 3, 500)  # (m+n)*nu = 5.03 >= 1


def test_tau_rejects_underflowing_eta_squared_delta():
    # eta^2 * delta = 1e-326 underflows to 0 in float64
    with pytest.raises(InvalidInputError, match="tau"):
        tau(PrivacyParams(1, 1e-300, 1e-13, 0.05), 1, 10)


def test_tau_mechanism_is_eta_inflated_floor():
    p = PrivacyParams(1.0, 1e-4, 0.1, 0.01)
    assert tau_mechanism(p) == pytest.approx(1.1 * jl_params(p).w ** 2, rel=1e-12)


# ---------------------------------------------------------------- the release


def test_privatize_deterministic():
    F = np.random.default_rng(0).standard_normal((6, 2))
    a = privatize_covariance(F, PARAMS, seed=1234)
    b = privatize_covariance(F, PARAMS, seed=1234)
    assert a.values.tobytes() == b.values.tobytes()
    c = privatize_covariance(F, PARAMS, seed=1235)
    assert a.values.tobytes() != c.values.tobytes()


def test_privatize_is_projection_of_augmented_factor():
    p = PrivacyParams(2.0, 0.01, 0.3, 0.1)
    r, w = jl_params(p)
    F = np.random.default_rng(1).standard_normal((5, 2))
    P = privatize_covariance(F, p, seed=99).values
    R = np.random.default_rng(99).standard_normal((r, 2 + 5))
    # the release's bytes: the two-term form of R [F^T; w I] / sqrt(r)
    assert np.array_equal(P, (R[:, :2] @ F.T + w * R[:, 2:]) / math.sqrt(r))
    # the stacked product it equals in exact arithmetic
    stacked = (R @ np.vstack([F.T, w * np.eye(5)])) / math.sqrt(r)
    assert np.max(np.abs(P - stacked)) <= 1e-12 * np.max(np.abs(stacked))


def test_privatize_draws_and_projects_row_blocks():
    # r = 267 rows of R span five blocks of 2**15 // (2 + 500) = 65 rows; the last has 7
    p = PrivacyParams(2.0, 0.01, 0.3, 0.1)
    r, w = jl_params(p)
    n, k, h = 500, 2, 65
    assert (r, r % h) == (267, 7)
    F = np.random.default_rng(1).standard_normal((n, k))
    P = privatize_covariance(F, p, seed=99).values
    R = np.random.default_rng(99).standard_normal((r, k + n))
    # the blocks are consecutive rows of the one-shot draw, projected one at a time
    blocks = [R[i : i + h, :k] @ F.T + w * R[i : i + h, k:] for i in range(0, r, h)]
    assert np.array_equal(P, np.vstack(blocks) / math.sqrt(r))
    # BLAS may round an h-row and an r-row GEMM differently in the last bit
    one_shot = (R[:, :k] @ F.T + w * R[:, k:]) / math.sqrt(r)
    assert np.max(np.abs(P - one_shot)) <= 1e-15 * np.max(np.abs(one_shot))


def test_privatize_shape_and_finiteness():
    p = PARAMS
    r, _ = jl_params(p)
    P = privatize_covariance(np.zeros((7, 3)), p, seed=5)
    assert P.values.shape == (r, 7)
    assert np.all(np.isfinite(P.values))


def test_privatize_reports_an_impossible_release_size():
    # eta = 1e-100 gives r ~ 3e201 rows: 8 r n bytes exceed any address space
    p = PrivacyParams(1.0, 1e-3, 1e-100, 0.05)
    with pytest.raises(InvalidInputError, match=r"r = .* rows by n = 5 samples needs .* bytes"):
        privatize_covariance(np.arange(5.0)[:, None], p, seed=0)


def test_privatize_rejects_non_finite_factor():
    with pytest.raises(InvalidInputError):
        privatize_covariance(np.array([[1.0], [np.inf]]), PARAMS, seed=0)


def test_zero_factor_mean_is_floor():
    _, w = jl_params(PARAMS)
    F = np.zeros((5, 1))
    y = np.zeros(5)
    y[2] = 1.0
    mean = oracle_projection_mean(F, y, PARAMS, trials=10_000, seed=77)
    assert mean == pytest.approx(w**2, rel=0.05)


def test_general_factor_mean_is_variance_plus_floor():
    rng = np.random.default_rng(10)
    F = 3.0 * rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    y /= np.linalg.norm(y)
    _, w = jl_params(PARAMS)
    target = float(y @ F @ F.T @ y) + w**2
    mean = oracle_projection_mean(F, y, PARAMS, trials=10_000, seed=78)
    assert mean == pytest.approx(target, rel=0.05)


def test_projection_core_unbiased_within_three_se():
    # with a zero factor, ||P y||^2 = w^2 * ||(1/sqrt r) R y||^2: its mean over
    # seeds estimates w^2 ||y||^2, the projection core's unbiasedness.
    _, w = jl_params(PARAMS)
    y = np.array([0.0, 2.0, 0.0, 0.0, 1.0])
    target = w**2 * float(y @ y)
    trials = 10_000
    values = []
    seeds = np.random.SeedSequence(555).generate_state(trials, np.uint64)
    F = np.zeros((5, 1))
    for s in seeds:
        P = privatize_covariance(F, PARAMS, int(s))
        values.append(private_sum_directional_variances(P, y))
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------- queries


def test_directional_variance_zero_query():
    P = privatize_covariance(np.zeros((4, 1)), PARAMS, seed=3)
    assert private_sum_directional_variances(P, np.zeros(4)) == 0.0


def test_directional_variance_scales_quadratically():
    P = privatize_covariance(np.random.default_rng(11).standard_normal((6, 2)), PARAMS, seed=4)
    y = np.random.default_rng(12).standard_normal(6)
    assert private_sum_directional_variances(P, 2.0 * y) == pytest.approx(
        4.0 * private_sum_directional_variances(P, y), rel=1e-12
    )


def test_directional_variance_shape_check():
    P = privatize_covariance(np.zeros((4, 1)), PARAMS, seed=3)
    with pytest.raises(ShapeError):
        private_sum_directional_variances(P, np.zeros(5))


def test_sum_single_column_equals_single_query():
    P = privatize_covariance(np.random.default_rng(13).standard_normal((5, 2)), PARAMS, seed=6)
    y = np.random.default_rng(14).standard_normal(5)
    assert private_sum_directional_variances(P, y[:, None]) == pytest.approx(
        private_sum_directional_variances(P, y), rel=1e-12
    )


def test_sum_zero_matrix():
    P = privatize_covariance(np.zeros((5, 1)), PARAMS, seed=7)
    assert private_sum_directional_variances(P, np.zeros((5, 3))) == 0.0


def test_sum_matches_columnwise_loop():
    P = privatize_covariance(np.random.default_rng(15).standard_normal((7, 3)), PARAMS, seed=8)
    V = np.random.default_rng(16).standard_normal((7, 4))
    total = sum(float(np.sum((P.values @ V[:, i]) ** 2)) for i in range(4))
    assert private_sum_directional_variances(P, V) == pytest.approx(total, rel=1e-10)


# ---------------------------------------------------------------- coverage


def test_single_query_coverage():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.2, nu=0.05)
    rng = np.random.default_rng(20)
    F = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    y /= np.linalg.norm(y)
    t = float(y @ F @ F.T @ y)
    t_mech = tau_mechanism(p)
    seeds = np.random.SeedSequence(99).generate_state(400, np.uint64)
    hits = 0
    for s in seeds:
        P = privatize_covariance(F, p, int(s))
        value = private_sum_directional_variances(P, y)
        if (1 - p.eta) * t - t_mech <= value <= (1 + p.eta) * t + t_mech:
            hits += 1
    assert hits / len(seeds) >= 1.0 - p.nu - 0.02


def test_multi_query_union_coverage():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.2, nu=0.05)
    rng = np.random.default_rng(21)
    F = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 4))
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    t_mech = tau_mechanism(p)
    targets = [float(V[:, i] @ F @ F.T @ V[:, i]) for i in range(4)]
    seeds = np.random.SeedSequence(199).generate_state(300, np.uint64)
    all_hit = 0
    for s in seeds:
        P = privatize_covariance(F, p, int(s))
        ok = all(
            (1 - p.eta) * t - t_mech
            <= private_sum_directional_variances(P, V[:, i])
            <= (1 + p.eta) * t + t_mech
            for i, t in enumerate(targets)
        )
        all_hit += ok
    assert all_hit / len(seeds) >= 1.0 - 4 * p.nu - 0.05


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_release_always_finite(seed):
    P = privatize_covariance(np.random.default_rng(2).standard_normal((5, 2)), PARAMS, seed)
    assert np.all(np.isfinite(P.values))
