"""The exact laws of ``pitest.laws`` against real packages, and the level of the paper's rule."""

import numpy as np
import pytest
from scipy import stats

from pitest import laws
from pitest.data import synthetic_pair
from pitest.privacy import PrivacyParams, jl_params
from pitest.protocol import alice_prepare, bob_evaluate


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
    reports = [bob_evaluate(alice_prepare(X, p, seed), Y) for seed in range(1000)]
    (law,) = laws.statistics_laws(X, Y, [(r, w)])
    omega_bar_sq, s_bar = law.draws(np.random.default_rng(1000), 4000)
    assert stats.ks_2samp(omega_bar_sq, [x.omega_bar_sq for x in reports]).pvalue > 1e-3
    assert stats.ks_2samp(s_bar, [x.s_bar for x in reports]).pvalue > 1e-3


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
        rejected += bob_evaluate(alice_prepare(X, p, seed), Y, alpha=alpha).reject
    low, high = stats.binom.interval(0.999, trials, alpha)
    assert low <= rejected <= high, rejected
