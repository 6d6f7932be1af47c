"""A black-box audit of the B release: a lower bound on epsilon from real packages.

The release factor ``R`` of ``B B^T`` in a package satisfies
``R^T R = P^T P`` for a release ``P`` whose r rows are iid
``N(0, Sigma / r)``, ``Sigma = B B^T + w^2 I``.  For neighbouring data X
and X', with ``Sigma'`` built from X', the exact log-likelihood ratio of
one package is

    (r/2) (log det Sigma' - log det Sigma) - (r/2) tr((Sigma^-1 - Sigma'^-1) R^T R),

large when the package came from X.  ``epsilon_lower_bound`` reads that
ratio off packages made by ``alice_stream`` from each side, chooses a
threshold on the first half of each side's packages, counts the packages
above it in the second half, and bounds epsilon below by
``log((p1 - delta) / p0)`` at the ends of the 95% Clopper-Pearson
intervals of the two hit rates: a release that is (epsilon, delta)
private keeps this bound at most epsilon, except with probability about
5%.  Only the B release is audited; the ``sx`` release is not read.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from pitest.laws import factor_W
from pitest.privacy import PrivacyParams, jl_params
from pitest.protocol import alice_stream

from reference import held, unpack_factor


def log_likelihood_ratios(X, X_prime, p: PrivacyParams, seeds, seeds_prime):
    """The log-likelihood ratios, X against X', of the B releases of X's and of X''s packages.

    The packages are ``alice_stream(X, p, s)`` for each of ``seeds`` and
    ``alice_stream(X_prime, p, s)`` for each of ``seeds_prime``.
    ``Sigma^-1 - Sigma'^-1`` is formed as ``Sigma^-1 (Sigma' - Sigma) Sigma'^-1``
    from the exact difference ``B' B'^T - B B^T``, where the floor cancels.
    """
    r, w = jl_params(p.half_budget())
    B, B_prime = factor_W(X), factor_W(X_prime)
    floor = w * w * np.eye(B.shape[0])
    sigma, sigma_prime = B @ B.T + floor, B_prime @ B_prime.T + floor
    D = np.linalg.solve(sigma, B_prime @ B_prime.T - B @ B.T) @ np.linalg.inv(sigma_prime)
    log_det = np.linalg.slogdet(sigma_prime)[1] - np.linalg.slogdet(sigma)[1]

    def ratio(data, seed):
        R = unpack_factor(*held(alice_stream(data, p, seed).proj_B))
        return r / 2.0 * (log_det - float(np.sum(D * (R.T @ R))))

    return (np.array([ratio(X, s) for s in seeds]),
            np.array([ratio(X_prime, s) for s in seeds_prime]))


def _bounds(hits, hits_prime, trials: int, delta: float, confidence: float = 0.95) -> np.ndarray:
    """``log((p1 - delta) / p0)`` at the Clopper-Pearson ends: p1's lower, p0's upper; -inf where p1 <= delta."""
    tail = (1.0 - confidence) / 2.0
    hits, hits_prime = np.asarray(hits), np.asarray(hits_prime)
    p1 = np.where(hits > 0, stats.beta.ppf(tail, np.maximum(hits, 1), trials - hits + 1), 0.0)
    p0 = np.where(hits_prime < trials,
                  stats.beta.ppf(1.0 - tail, hits_prime + 1, np.maximum(trials - hits_prime, 1)), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p1 > delta, np.log((p1 - delta) / p0), -math.inf)


def epsilon_lower_bound(ratios, ratios_prime, delta: float) -> float:
    """A lower bound on epsilon from the ratios of as many packages of X as of X'.

    The threshold is the ratio, among the first halves of both sides,
    whose bound is largest on those halves; the bound returned is that
    threshold's on the second halves, whose packages chose nothing.
    """
    half = len(ratios) // 2
    train, test = np.split(np.asarray(ratios), [half])
    train_prime, test_prime = np.split(np.asarray(ratios_prime), [half])
    candidates = np.concatenate([train, train_prime])[:, None]
    hits, hits_prime = (train > candidates).sum(axis=1), (train_prime > candidates).sum(axis=1)
    threshold = candidates[np.argmax(_bounds(hits, hits_prime, half, delta)), 0]
    return float(_bounds((test > threshold).sum(), (test_prime > threshold).sum(), len(test), delta))
