import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitest import laws
from pitest.bounds import (
    aggregate_coverage_probability,
    lower_bound_ratio,
    upper_bound_ratio,
)
from pitest.data import synthetic_pair
from pitest.errors import InvalidInputError
from pitest.estimators import dcov_sq_closed_form, s_hat
from pitest.privacy import PrivacyParams, jl_params, tau_mechanism

from reference import dcov_sq_direct, naive_ratio_interval, omega_le_s_condition


def test_lower_bound_worked_example():
    # (0.9/1.1)*1 - 0.81/2.2
    assert lower_bound_ratio(1.0, 0.1) == pytest.approx(0.45, abs=1e-15)


def test_lower_bound_transcription():
    ratio, eta = 0.3, 0.25
    expected = (1 - eta) / (1 + eta) * ratio - (1 - eta) ** 2 / (2 * (1 + eta))
    assert lower_bound_ratio(ratio, eta) == expected


def test_lower_bound_can_go_negative():
    # at ratio 0 the bound is the negative additive constant: vacuous but honest
    assert lower_bound_ratio(0.0, 0.1) == pytest.approx(-0.81 / 2.2, abs=1e-15)


def test_lower_bound_small_eta_limit():
    assert lower_bound_ratio(2.0, 1e-9) == pytest.approx(1.5, rel=1e-6)


def test_upper_bound_worked_example():
    # 1.1/0.9 + 1/(0.9*20 - 1)
    expected = 1.1 / 0.9 + 1.0 / 17.0
    assert upper_bound_ratio(1.0, 0.1, tau=1.0, s_param=20.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_upper_bound_small_eta_limit():
    assert upper_bound_ratio(2.0, 1e-9, tau=1.0, s_param=5.0) == pytest.approx(
        2.25, rel=1e-6
    )


def test_upper_bound_zero_tau_is_multiplicative_only():
    assert upper_bound_ratio(0.7, 0.2, tau=0.0, s_param=3.0) == pytest.approx(
        1.2 / 0.8 * 0.7, rel=1e-12
    )


def test_upper_bound_scale_requirement():
    # s_param must exceed tau/(1-eta) = 2.0
    with pytest.raises(InvalidInputError):
        upper_bound_ratio(1.0, 0.5, tau=1.0, s_param=2.0)
    assert math.isfinite(upper_bound_ratio(1.0, 0.5, tau=1.0, s_param=2.0 + 1e-9))


@pytest.mark.parametrize("bad_ratio", [-0.1, math.nan, math.inf])
def test_bounds_reject_bad_ratio(bad_ratio):
    with pytest.raises(InvalidInputError):
        lower_bound_ratio(bad_ratio, 0.1)
    with pytest.raises(InvalidInputError):
        upper_bound_ratio(bad_ratio, 0.1, 0.0, 1.0)


@pytest.mark.parametrize("bad_eta", [0.0, 1.0, -0.5, math.nan])
def test_bounds_reject_bad_eta(bad_eta):
    with pytest.raises(InvalidInputError):
        lower_bound_ratio(1.0, bad_eta)


def test_upper_bound_rejects_negative_tau():
    with pytest.raises(InvalidInputError):
        upper_bound_ratio(1.0, 0.1, tau=-1.0, s_param=100.0)


@given(
    ratio=st.floats(0.0, 5.0),
    eta=st.floats(0.01, 0.9),
    tau=st.floats(0.0, 10.0),
)
def test_lower_below_upper(ratio, eta, tau):
    s_param = tau / (1.0 - eta) + 1.0
    lo = lower_bound_ratio(ratio, eta)
    hi = upper_bound_ratio(ratio, eta, tau, s_param)
    assert lo < hi


@given(
    eta=st.floats(0.01, 0.9),
    r1=st.floats(0.0, 3.0),
    r2=st.floats(0.0, 3.0),
)
def test_lower_bound_monotone_in_ratio(eta, r1, r2):
    a, b = sorted((r1, r2))
    assert lower_bound_ratio(a, eta) <= lower_bound_ratio(b, eta)


@given(
    eta=st.floats(0.01, 0.9),
    t1=st.floats(0.0, 5.0),
    t2=st.floats(0.0, 5.0),
)
def test_upper_bound_monotone_in_tau(eta, t1, t2):
    a, b = sorted((t1, t2))
    s_param = max(t1, t2) / (1.0 - eta) + 2.0
    assert upper_bound_ratio(1.0, eta, a, s_param) <= upper_bound_ratio(1.0, eta, b, s_param)


# ------------------------------------------------------- naive interval


def test_naive_interval_plain_division():
    iv = naive_ratio_interval(1.0, 2.0, 4.0, 5.0)
    assert iv == (0.2, 0.5)


def test_naive_interval_nonpositive_denominator_floor_flags_inf():
    assert naive_ratio_interval(1.0, 2.0, 0.0, 5.0).upper == math.inf
    assert naive_ratio_interval(1.0, 2.0, -3.0, 5.0).upper == math.inf
    # the lower end is still informative
    assert naive_ratio_interval(1.0, 2.0, -3.0, 5.0).lower == 0.2


def test_naive_interval_requires_positive_denominator_ceiling():
    with pytest.raises(InvalidInputError):
        naive_ratio_interval(1.0, 2.0, 0.0, 0.0)


def test_naive_interval_negative_numerator_floor_passes_through():
    iv = naive_ratio_interval(-1.0, 2.0, 4.0, 5.0)
    assert iv.lower == -0.2
    assert iv.upper == 0.5


# -------------------------------------- closed forms contain the naive interval


@given(
    eta=st.floats(0.02, 0.4),
    ratio_frac=st.floats(0.0, 0.9),
    tau_frac=st.floats(0.0, 0.9),
)
@settings(max_examples=200)
def test_closed_forms_contain_naive_interval(eta, ratio_frac, tau_frac):
    """On valid instances the closed forms are the looser (outer) bounds.

    Valid means: the denominator statistic stays above n*tau/(1-eta) and the
    ratio is small enough that the numerator workload (m queries) cannot
    dominate the denominator workload (n queries).  The naive interval divides
    per-component bounds and is tighter on both ends.
    """
    m, n = 3, 200
    S = 1000.0
    ratio = ratio_frac * (1.0 - eta) / (1.0 + eta) * (1.0 - m / n)
    W = ratio * S
    tau = tau_frac * (1.0 - eta) * S / n
    naive = naive_ratio_interval(
        (1.0 - eta) * W - m * tau,
        (1.0 + eta) * W + m * tau,
        (1.0 - eta) * S - n * tau,
        (1.0 + eta) * S + n * tau,
    )
    closed_lo = lower_bound_ratio(ratio, eta)
    closed_hi = upper_bound_ratio(ratio, eta, tau, s_param=S / n)
    assert closed_lo <= naive.lower + 1e-12
    assert closed_hi >= naive.upper - 1e-12


def test_closed_lower_gap_at_zero_tau():
    # with no additive error the gap is exactly the additive constant
    eta, ratio, S = 0.1, 0.2, 50.0
    naive = naive_ratio_interval(
        (1 - eta) * ratio * S, (1 + eta) * ratio * S, (1 - eta) * S, (1 + eta) * S
    )
    gap = naive.lower - lower_bound_ratio(ratio, eta)
    assert gap == pytest.approx((1 - eta) ** 2 / (2 * (1 + eta)), rel=1e-12)


# ------------------------------------------------------- probability floor


def test_aggregate_probability_worked_example():
    assert aggregate_coverage_probability(3, 100, 1e-4) == pytest.approx(0.9897, rel=1e-12)


def test_aggregate_probability_zero_nu():
    assert aggregate_coverage_probability(3, 100, 0.0) == 1.0


def test_aggregate_probability_rejects_saturated_budget():
    with pytest.raises(InvalidInputError):
        aggregate_coverage_probability(3, 100, 0.01)  # 103 * 0.01 >= 1


def test_aggregate_probability_rejects_bad_counts():
    with pytest.raises(InvalidInputError):
        aggregate_coverage_probability(0, 100, 1e-4)


# ------------------------------------------------- distance-spread condition


def test_spread_condition_holds_on_coarse_grid():
    X = 10.0 * np.arange(20.0)
    check = omega_le_s_condition(X)
    assert check.holds
    assert check.d_min == pytest.approx(100.0)
    assert check.d_max == pytest.approx(190.0**2)


def test_spread_condition_equidistant_boundary():
    # rows t*e_i: every squared distance is 2t^2, so the condition reads
    # 2t^2 <= ((n-1)/2)(2t^2)^2, i.e. t^2 >= 1/(n-1).  n=5, t=1/2 is the edge.
    n = 5
    assert omega_le_s_condition(0.5 * np.eye(n)).holds
    assert not omega_le_s_condition(0.49 * np.eye(n)).holds


def test_spread_condition_fails_on_fine_scale():
    # unit grid: d_min^2 = 1 but d_max = (n-1)^2 blows past ((n-1)/2)
    assert not omega_le_s_condition(np.arange(20.0)).holds
    # three unit-spaced points: d_max = 4 > ((3-1)/2) * 1
    check = omega_le_s_condition(np.array([[0.0], [1.0], [2.0]]))
    assert (check.holds, check.d_max, check.d_min) == (False, 4.0, 1.0)
    # a single pair at unit distance: 1 > (1/2) * 1
    assert not omega_le_s_condition(np.array([[0.0], [1.0]])).holds


def test_spread_condition_duplicate_rows_fail_quietly():
    check = omega_le_s_condition(np.array([[0.0], [0.0], [5.0]]))
    assert not check.holds
    assert check.d_min == 0.0
    assert check.d_max == 25.0


def test_spread_condition_identical_rows_degenerate():
    check = omega_le_s_condition(np.zeros((4, 2)))
    assert check == (False, 0.0, 0.0)


def test_spread_condition_implies_numerator_at_most_denominator():
    # the point of the condition: with a one-hot second dataset the
    # distance-covariance numerator cannot exceed the variance denominator
    X = 10.0 * np.arange(20.0)
    assert omega_le_s_condition(X).holds
    rng = np.random.default_rng(42)
    for _ in range(5):
        labels = rng.integers(0, 3, size=20)
        Y = np.eye(3)[labels]
        assert dcov_sq_direct(X, Y) <= s_hat(X, Y) * (1 + 1e-12)


def test_private_ratio_lies_within_the_bounds_where_their_precondition_holds():
    """The paper's utility theorem, through the exact law of Bob's ``(omega_bar_sq, s_bar)``.

    n = 200, d = m = 2, delta = 2e-4, eta = 0.1, nu = 1e-4, on a grid of
    epsilon, x scale and dependence.  Wherever s_hat / n > tau_mech / (1 - eta),
    the private ratio lies in [L(rho_hat), U(rho_hat)] for the non-private
    ratio rho_hat in at least 1 - (m + n) nu - 0.02 of 2000 draws.  At
    epsilon = 1 and x scale 1e4 the precondition fails: the floor then
    dominates s_bar, and the private ratio falls below L as well.
    """
    n, m, draws = 200, 2, 2000
    totals = [PrivacyParams(epsilon, 2e-4, 0.1, 1e-4) for epsilon in (1.0, 1e3)]
    budgets = [p.half_budget() for p in totals]
    invalid = []
    for x_scale in (1e4, 1e6):
        for dependence in (0.5, 0.9):
            X, Y = synthetic_pair(n=n, d=2, m=m, dependence=dependence, x_scale=x_scale, seed=3)
            s = s_hat(X, Y)
            rho = dcov_sq_closed_form(X, Y) / s
            statistics = laws.statistics_laws(X, Y, [jl_params(b) for b in budgets])
            for p, b, law in zip(totals, budgets, statistics):
                tau_mech = tau_mechanism(b)
                point = (p.epsilon, x_scale, dependence)
                if not s / n > tau_mech / (1.0 - b.eta):
                    invalid.append(point)
                    continue
                omega_bar_sq, s_bar = law.draws(np.random.default_rng(0), draws)
                ratio = omega_bar_sq / s_bar
                lower = lower_bound_ratio(rho, b.eta)
                upper = upper_bound_ratio(rho, b.eta, tau_mech, s / n)
                inside = np.count_nonzero((lower <= ratio) & (ratio <= upper)) / draws
                assert inside >= aggregate_coverage_probability(m, n, b.nu) - 0.02, (point, inside)
    assert invalid == [(1.0, 1e4, 0.5), (1.0, 1e4, 0.9)]
