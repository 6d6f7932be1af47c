"""Sample dependence statistics and the independence test rule.

The central quantity is a distance-covariance style statistic built from
*squared* Euclidean distances.  With ``a_kl = ||x_k - x_l||^2`` and
``b_kl = ||y_k - y_l||^2`` it is

.. math::

    \\hat{\\Omega}^2 = \\hat{R} + \\hat{S} - 2\\hat{T},

    \\hat{R} = \\frac{1}{n^2}\\sum_{k,l} a_{kl} b_{kl}, \\quad
    \\hat{S} = \\frac{1}{n^2}\\sum_{k,l} a_{kl} \\cdot
               \\frac{1}{n^2}\\sum_{k,l} b_{kl}, \\quad
    \\hat{T} = \\frac{1}{n^3}\\sum_{k}\\Big(\\sum_l a_{kl}\\Big)
               \\Big(\\sum_l b_{kl}\\Big).

Three algebraically equivalent routes to the same value are provided — the
double-sum form above, a Laplacian trace form, and a factor (directional
variance) form — because the private protocol can only evaluate the last
one, and the test suite pins their agreement.

The test statistic is :math:`\\Gamma = n \\hat{\\Omega}^2 / \\hat{S}`,
rejected against the squared normal quantile
:math:`(\\Phi^{-1}(1-\\alpha/2))^2`.  With squared distances it is a
centered cross-covariance norm: with column-centered ``Xc``, ``Yc``,

.. math::

    \\hat{\\Omega}^2 = \\frac{4}{n^2}\\lVert X_c^T Y_c \\rVert_F^2, \\quad
    \\hat{S} = \\frac{4}{n^2}\\lVert X_c \\rVert_F^2 \\lVert Y_c \\rVert_F^2, \\quad
    \\Gamma = \\frac{n \\lVert X_c^T Y_c \\rVert_F^2}
                   {\\lVert X_c \\rVert_F^2 \\lVert Y_c \\rVert_F^2}.

The protocol, the CLI and the sweep evaluate only O(n d m) forms: these two
(:func:`dcov_sq_closed_form`, :func:`s_hat`) and their private counterparts,
built on :func:`pitest.matrices.factor_W` and on the released scalar
``||P_X - row means||_F^2`` times :func:`complete_graph_quadratic`, which is
what :func:`s_hat_directional` computes from a whole projection.
The forms that build n x n matrices (:func:`dcov_components`, :func:`dcov_sq_direct`, :func:`dcov_sq_laplacian`,
:func:`dcov_sq_unbiased`) are references for the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import (
    DegenerateStatisticError,
    InsufficientSamplesError,
    InvalidInputError,
    ShapeError,
)
from .matrices import _as_2d, _as_sample_matrix, laplacian_W, pairwise_sq_dist

__all__ = [
    "DcovComponents",
    "TestDecision",
    "dcov_components",
    "dcov_sq_direct",
    "dcov_sq_laplacian",
    "dcov_sq_directional",
    "dcov_sq_closed_form",
    "dcov_sq_unbiased",
    "s_hat",
    "s_hat_directional",
    "complete_graph_quadratic",
    "test_statistic",
    "rejection_threshold",
    "decide",
    "distance_correlation_sq",
]


class DcovComponents(NamedTuple):
    """The three double-sum components R-hat, S-hat, T-hat."""

    r_hat: float
    s_hat: float
    t_hat: float


class TestDecision(NamedTuple):
    """Outcome of comparing the test statistic against its threshold."""

    statistic: float
    threshold: float
    alpha: float
    reject: bool


def _paired_matrices(X, Y) -> tuple[np.ndarray, np.ndarray]:
    A = _as_sample_matrix(X, "X", min_rows=2)
    B = _as_sample_matrix(Y, "Y", min_rows=2)
    if A.shape[0] != B.shape[0]:
        raise ShapeError(
            f"X and Y must have the same sample count, got {A.shape[0]} and {B.shape[0]}"
        )
    return A, B


def dcov_components(X, Y) -> DcovComponents:
    """R-hat, S-hat, T-hat of the double-sum decomposition (see module docs)."""
    A, B = _paired_matrices(X, Y)
    n = A.shape[0]
    a = pairwise_sq_dist(A)
    b = pairwise_sq_dist(B)
    r_hat = float(np.sum(a * b)) / n**2
    s_hat_ = float(np.sum(a)) / n**2 * (float(np.sum(b)) / n**2)
    t_hat = float(a.sum(axis=1) @ b.sum(axis=1)) / n**3
    return DcovComponents(r_hat, s_hat_, t_hat)


def dcov_sq_direct(X, Y) -> float:
    """Squared dependence statistic via the double-sum form R + S - 2T."""
    r_hat, s_hat_, t_hat = dcov_components(X, Y)
    return r_hat + s_hat_ - 2.0 * t_hat


def dcov_sq_laplacian(X, Y) -> float:
    """Squared dependence statistic as ``(2/n^2) Tr(Y^T L Y)``.

    ``L`` is the centered-distance Laplacian of ``X``.  The value is
    symmetric in the arguments: swapping the roles of ``X`` and ``Y``
    yields the same number up to round-off.
    """
    A, B = _paired_matrices(X, Y)
    n = A.shape[0]
    L = laplacian_W(A)
    return 2.0 / n**2 * float(np.sum(B * (L @ B)))


def dcov_sq_directional(B_factor, Y) -> float:
    """Squared dependence statistic from a factor of the Laplacian.

    Given ``B`` with ``B B^T = L`` (from :func:`pitest.matrices.factor_W`),
    returns ``(2/n^2) * sum_i ||B^T y_i||^2`` over the columns ``y_i`` of
    ``Y`` — a sum of directional variance queries against ``B B^T``, which
    is exactly the form a released projection can answer.
    """
    Bf = _as_sample_matrix(B_factor, "B_factor")
    Ym = _as_sample_matrix(Y, "Y")
    if Bf.shape[0] != Ym.shape[0]:
        raise ShapeError(
            f"factor and Y must have the same row count, got {Bf.shape[0]} and {Ym.shape[0]}"
        )
    n = Bf.shape[0]
    M = Bf.T @ Ym  # (k, m)
    return 2.0 / n**2 * float(np.sum(M * M))


def dcov_sq_unbiased(X, Y) -> float:
    """Unbiased (U-statistic) estimator of the squared dependence.

    .. math::

        \\frac{1}{n(n-3)}\\sum_{i \\ne j} a_{ij} b_{ij}
        - \\frac{2}{n(n-2)(n-3)}\\sum_{i} a_{i\\cdot} b_{i\\cdot}
        + \\frac{a_{\\cdot\\cdot} b_{\\cdot\\cdot}}{n(n-1)(n-2)(n-3)}

    where ``a_i.`` are row sums and ``a..`` the grand sum.  May be negative.
    Provided for cross-checks; the protocol itself uses the biased
    V-statistic forms.
    """
    A, B = _paired_matrices(X, Y)
    n = A.shape[0]
    if n < 4:
        raise InsufficientSamplesError(f"unbiased estimator requires n >= 4, got n = {n}")
    a = pairwise_sq_dist(A)
    b = pairwise_sq_dist(B)
    a_row = a.sum(axis=1)
    b_row = b.sum(axis=1)
    a_tot = float(a.sum())
    b_tot = float(b.sum())
    term1 = float(np.sum(a * b)) / (n * (n - 3))  # diagonals are zero, so i != j is free
    term2 = 2.0 * float(a_row @ b_row) / (n * (n - 2) * (n - 3))
    term3 = a_tot * b_tot / (n * (n - 1) * (n - 2) * (n - 3))
    return term1 - term2 + term3


def _centered(A: np.ndarray) -> np.ndarray:
    """Column-centered ``A``, with exact zeros in every constant column.

    The first row is subtracted before the mean: a constant column then
    becomes exact zeros even when its mean is not representable, and a large
    mean costs no precision.
    """
    D = A - A[0]
    return D - D.mean(axis=0, keepdims=True)


def dcov_sq_closed_form(X, Y) -> float:
    """Squared dependence statistic as ``(4/n^2) ||Xc^T Yc||_F^2``.

    The non-private reference that the CLI, the sweep and the scripts
    compare the private value against: O(n d m), and exactly zero when
    either dataset is constant.
    """
    A, B = _paired_matrices(X, Y)
    n = A.shape[0]
    M = _centered(A).T @ _centered(B)  # (d, m)
    return 4.0 * float(np.sum(M * M)) / n**2


def s_hat(X, Y) -> float:
    """Product of the two mean squared pairwise distances.

    ``(1/n^2) sum_kl ||x_k - x_l||^2 * (1/n^2) sum_kl ||y_k - y_l||^2``,
    evaluated as ``4 ||Xc||_F^2 ||Yc||_F^2 / n^2`` from the column-centered
    data.  Nonnegative, and zero exactly when either dataset is constant.
    """
    A, B = _paired_matrices(X, Y)
    n = A.shape[0]
    Ac = _centered(A)
    Bc = _centered(B)
    return 4.0 * float(np.sum(Ac * Ac)) * float(np.sum(Bc * Bc)) / n**2


def complete_graph_quadratic(Y) -> float:
    """``Tr(Y^T L Y)`` for the complete-graph Laplacian ``L = n I - e e^T``.

    Evaluated in closed form as ``n ||Y||_F^2 - ||column sums of Y||^2``.
    """
    return _complete_graph_quadratic(_as_sample_matrix(Y, "Y"))


def _complete_graph_quadratic(Ym: np.ndarray) -> float:
    """:func:`complete_graph_quadratic` of an already validated sample matrix."""
    n = Ym.shape[0]
    col_sums = Ym.sum(axis=0)
    return n * float(np.sum(Ym * Ym)) - float(col_sums @ col_sums)


def s_hat_directional(Q, Y) -> float:
    """Denominator statistic from directional variance queries.

    ``Q`` is a (q, n) array whose Gram ``Q^T Q`` stands for ``X X^T``:
    ``X.T`` for the non-private value, a released projection's ``values``
    for the private one.  The statistic is
    ``(4/n^4) * ||Q G||_F^2 * Tr(Y^T L_S Y)`` with ``G = sqrt(n) J`` the
    complete-graph factor; since ``||Q G||_F^2 = n ||Q - row means||_F^2``,
    it is evaluated as ``(4/n^3) * ||Q - row means||_F^2 * Tr(Y^T L_S Y)``
    without forming ``G``.  The protocol does not call this: the data holder
    sends ``||P_X - row means||_F^2`` itself, reduced as ``P_X`` is drawn.
    """
    Qm = _as_2d(Q, "Q")
    Ym = _as_sample_matrix(Y, "Y")
    n = Ym.shape[0]
    if Qm.shape[1] != n:
        raise ShapeError(f"Q answers queries of length {Qm.shape[1]}, but Y has {n} rows")
    if not np.all(np.isfinite(Qm)):
        raise InvalidInputError("Q contains non-finite entries")
    Qc = Qm - Qm.mean(axis=1, keepdims=True)
    return 4.0 / n**3 * float(np.sum(Qc * Qc)) * _complete_graph_quadratic(Ym)


def test_statistic(omega_sq: float, s: float, n: int) -> float:
    """The test statistic ``Gamma = n * omega_sq / s``."""
    if not (s > 0.0):
        raise DegenerateStatisticError(
            f"denominator statistic must be positive, got {s} (constant dataset?)"
        )
    return n * omega_sq / s


def rejection_threshold(alpha: float) -> float:
    """Rejection threshold ``(Phi^{-1}(1 - alpha/2))^2``.

    ``Phi^{-1}`` is the standard normal quantile; for instance
    ``alpha = 0.05`` gives ``1.959964^2 = 3.841459``.
    """
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    return float(ndtri(1.0 - alpha / 2.0)) ** 2


def decide(statistic: float, alpha: float) -> TestDecision:
    """Compare a statistic against the level-``alpha`` threshold.

    Rejection is strict: a statistic exactly at the threshold does not
    reject.
    """
    if not math.isfinite(statistic):
        raise InvalidInputError(f"test statistic must be finite, got {statistic}")
    threshold = rejection_threshold(alpha)
    return TestDecision(float(statistic), threshold, float(alpha), bool(statistic > threshold))


def distance_correlation_sq(X, Y) -> float:
    """Normalized dependence: ``dcov^2(X,Y) / sqrt(dcov^2(X,X) dcov^2(Y,Y))``.

    Returns 0 when the product of the two self-dependence terms is zero
    (either dataset constant).  Values are clamped into [0, 1] only when
    within 1e-9 of a boundary; anything further out is returned as computed.
    """
    v_xy = dcov_sq_direct(X, Y)
    v_xx = dcov_sq_direct(X, X)
    v_yy = dcov_sq_direct(Y, Y)
    prod = v_xx * v_yy
    if prod <= 0.0:
        return 0.0
    value = v_xy / math.sqrt(prod)
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    return value
