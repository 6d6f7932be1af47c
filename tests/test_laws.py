"""The exact laws of ``pitest.laws`` against real packages, and the level of the paper's rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pitest import laws
from pitest.data import synthetic_pair
from pitest.errors import InvalidInputError
from pitest.estimators import dcov_sq_closed_form, s_hat
from pitest.privacy import PrivacyParams, jl_params
from pitest.protocol import alice_stream, bob_evaluate

from reference import held


@pytest.mark.parametrize("m", [1, 2])
def test_statistics_law_matches_real_packages(m):
    """The sampler's (omega_bar_sq, s_bar) has the laws of what Bob reports from Alice's packages.

    n = 30 and r = 60 at epsilon = 1, where the floor is about a third of
    omega_bar_sq, so a sampler that drops the floor or the signal is told
    apart.  1000 package seeds against 4000 draws, each statistic by a
    two-sample KS test.
    """
    p = PrivacyParams(epsilon=1.0, delta=2e-4, eta=0.43, nu=0.5)
    r, w = jl_params(p.half_budget())
    assert r == 60
    X, Y = synthetic_pair(n=30, d=2, m=m, dependence=0.5, x_scale=1e3, seed=11)
    reports = [bob_evaluate(alice_stream(X, p, seed), Y) for seed in range(1000)]
    law = laws.statistics_laws(X, Y, (r, w))
    omega_bar_sq, s_bar = law.draws(np.random.default_rng(1000), 4000)
    assert stats.ks_2samp(omega_bar_sq, [x.omega_bar_sq for x in reports]).pvalue > 1e-3
    assert stats.ks_2samp(s_bar, [x.s_bar for x in reports]).pvalue > 1e-3


def test_a_batch_of_laws_has_one_sampler():
    """A law and the same law as a batch of 1 draw identical values from identically seeded
    generators, for both laws of a release.  In a 2-cell batch whose (r, w) differ by orders of
    magnitude, each cell's mean and variance lie within 6 standard errors of its own analytic
    values: a draw sum_j c_j chi^2_{k_j} / r has mean sum_j c_j k_j / r, variance
    2 sum_j c_j^2 k_j / r^2 and fourth cumulant 48 sum_j c_j^4 k_j / r^4."""
    X, Y = synthetic_pair(n=40, d=3, m=2, dependence=0.5, x_scale=10.0, seed=4)
    n = X.shape[0]
    lam, Q = laws.centered_spectrum(X), laws.query_matrix(Y)
    FtV, VtV = laws.factor_W(X).T @ Q, Q.T @ Q
    r, w = 37, 2.5
    for one, batch in [(laws.centered_sq_norm_law(lam, n, r, w),
                        laws.centered_sq_norm_law(lam, n, [r], [w])),
                       (laws.projected_sq_norm_laws(FtV, VtV, (r, w)),
                        laws.projected_sq_norm_laws(FtV, VtV, [(r, w)]))]:
        assert one.weights.shape == batch.weights.shape[1:]
        drawn = one.draws(np.random.default_rng(5), 300)
        assert drawn.shape == (300,)
        assert np.array_equal(batch.draws(np.random.default_rng(5), 300), drawn[None])

    size = 4000
    law = laws.centered_sq_norm_law(lam, n, np.array([5, 5000]), np.array([0.1, 100.0]))
    assert law.dof == n - 1 - lam.size > 0
    drawn = law.draws(np.random.default_rng(6), size)
    assert drawn.shape == (2, size)
    for cell in range(2):
        weights, floor, r = law.weights[cell], float(law.floor[cell]), float(law.r[cell])
        mean = float(np.sum(weights)) + floor * law.dof
        var = 2.0 / r * (float(np.sum(weights**2)) + floor**2 * law.dof)
        kappa4 = 48.0 / r**3 * (float(np.sum(weights**4)) + floor**4 * law.dof)
        se_var = math.sqrt(kappa4 / size + 2.0 * var**2 / (size - 1))
        assert abs(float(drawn[cell].mean()) - mean) < 6.0 * math.sqrt(var / size), cell
        assert abs(float(drawn[cell].var(ddof=1)) - var) < 6.0 * se_var, cell


def test_an_overflow_is_inf_unwarned_and_refused_by_the_caller():
    """Data that overflow float64 give inf, with no numpy warning, and the law's draws refuse it.

    At X's scale 1e160 the squares of the centred spectrum and of the
    non-private statistics overflow; rows of +-1e308 overflow the centring
    itself, where the spectrum is inf without an SVD; a Y shifted by 1e300
    sd overflows the answer's ``Q^T Q``.  Warnings are errors in this suite.
    """
    X, Y = synthetic_pair(30, 2, 1, x_scale=1e160, seed=1)
    assert dcov_sq_closed_form(X, Y) == s_hat(X, Y) == math.inf
    assert np.isinf(laws.centered_spectrum(X)).all()
    signs = np.where(np.arange(30) % 2, 1e308, -1e308)[:, None]
    wide = np.hstack([signs, signs])
    assert not np.isfinite(laws.factor_W(wide)).any()
    assert np.isinf(laws.centered_spectrum(wide)).all()
    params = jl_params(PrivacyParams(1.0, 2e-4, 0.1, 0.05).half_budget())
    rng = np.random.default_rng(0)
    for X, Y, message in [(X, Y, "X's scale is too large"), (wide, Y, "X's scale is too large"),
                          (X / 1e160, Y + 1e300 * Y.std(axis=0), "the data's scale is too large")]:
        with pytest.raises(InvalidInputError, match=message):
            laws.statistics_laws(X, Y, params).draws(rng, 1)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: Bob queries the release with the uncentred Y "
           "(laws.query_matrix), so a Y with a mean of 3 sd rejects independence; the fix "
           "lands with perfbench/workloads.py::expected_statistics, which takes the floor "
           "of omega_bar_sq as w^2 ||Y||_F^2")
def test_private_rule_keeps_its_level_when_y_has_a_mean():
    """Independent X and Y, Y shifted by 3 sd: 30 real packages at n = 200 and epsilon = 1.

    The number of rejections lies in the central 99.9% of Binomial(30, alpha).
    """
    p = PrivacyParams(epsilon=1.0, delta=2e-4, eta=0.1, nu=0.05)
    alpha, trials = 0.05, 30
    rejected = 0
    for seed in range(trials):
        X, Y = synthetic_pair(n=200, d=2, m=1, dependence=0.0, seed=seed)
        Y = Y + 3.0 * Y.std(axis=0)
        rejected += bob_evaluate(alice_stream(X, p, seed), Y, alpha=alpha).reject
    low, high = stats.binom.interval(0.999, trials, alpha)
    assert low <= rejected <= high, rejected


def _law_parameters(X, Y, params):
    """What fixes the law of the private Gamma: the sorted answer weights over ``yc``, and sx's
    weights, floor and dof."""
    law = laws.statistics_laws(X, Y, params)
    return (np.sort(law.answer.weights) / law.yc, law.sx.weights, np.atleast_1d(law.sx.floor),
            np.array([law.sx.dof]))


def _largest_change(before, after) -> float:
    """The largest change of any parameter, relative to the largest entry of its array (a dof of 0: absolute)."""
    return max(float(np.max(np.abs(a - b))) / (float(np.max(np.abs(a))) or 1.0)
               for a, b in zip(before, after))


def _orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 60), st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 1e4]), st.floats(1e-3, 1e3))
def test_private_rule_keeps_dcovs_invariances_in_law(n, d, m, seed, epsilon, c):
    """The laws' exact parameters agree to 1e-12 under X + c, X O, c Y, Y O and a row permutation.

    dCov's test is invariant to these (Szekely, Rizzo & Bakirov, 2007), so
    the law of the private statistic must be too; this compares the
    parameters that fix it, with no sampling.  X's scale is no invariance
    here: w is fixed, with no sensitivity bound to scale it (ROADMAP item
    3), so X * 1e3 moves them by 0.018 on the data of the shifted-Y test
    below (n = 200, d = m = 2, epsilon = 1).  A shift of Y is item 1's
    broken invariance, tested on its own there; it moves them by 16.7.
    """
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((n, d)), rng.standard_normal((n, m))
    params = jl_params(PrivacyParams(epsilon, 2e-4, 0.1, 0.05).half_budget())
    before = _law_parameters(X, Y, params)
    perm = rng.permutation(n)
    for X2, Y2 in [(X + rng.uniform(-100.0, 100.0, d), Y), (X @ _orthogonal(rng, d), Y),
                   (X, c * Y), (X, Y @ _orthogonal(rng, m)), (X[perm], Y[perm])]:
        assert _largest_change(before, _law_parameters(X2, Y2, params)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 60), st.integers(2, 4), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e4]))
def test_a_package_of_shifted_data_is_the_package_of_the_data(n, d, seed, epsilon):
    """``alice_stream(X + c, p, s)`` and ``alice_stream(X, p, s)`` agree in every panel and in sx
    to 1e-12 of the largest entry: the release reads X only through its centred factor."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    p = PrivacyParams(epsilon, 2e-4, 0.1, 0.05)
    shifted, package = (alice_stream(A, p, seed) for A in (X + rng.uniform(-100.0, 100.0, d), X))
    assert abs(shifted.sx - package.sx) <= 1e-12 * package.sx
    values, values_shifted = held(package.proj_B).values, held(shifted.proj_B).values
    assert np.max(np.abs(values_shifted - values)) <= 1e-12 * np.max(np.abs(values))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: Bob queries the release with the uncentred Y (laws.query_matrix), "
           "so the floor's share of the answer grows with Y's mean")
def test_private_rule_keeps_its_law_when_y_is_shifted():
    """The laws' exact parameters agree to 1e-12 when Y is shifted by 3 sd (n = 200, d = m = 2)."""
    rng = np.random.default_rng(22)
    X, Y = rng.standard_normal((200, 2)), rng.standard_normal((200, 2))
    params = jl_params(PrivacyParams(1.0, 2e-4, 0.1, 0.05).half_budget())
    shifted = _law_parameters(X, Y + 3.0 * Y.std(axis=0), params)
    assert _largest_change(_law_parameters(X, Y, params), shifted) <= 1e-12
