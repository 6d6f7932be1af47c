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

The test statistic is :math:`\\Gamma = n \\hat{\\Omega}^2 / \\hat{S}`,
rejected against the squared normal quantile
:math:`(\\Phi^{-1}(1-\\alpha/2))^2`.  With squared distances it is a
centered cross-covariance norm: with column-centered ``Xc``, ``Yc``,

.. math::

    \\hat{\\Omega}^2 = \\frac{4}{n^2}\\lVert X_c^T Y_c \\rVert_F^2, \\quad
    \\hat{S} = \\frac{4}{n^2}\\lVert X_c \\rVert_F^2 \\lVert Y_c \\rVert_F^2, \\quad
    \\Gamma = \\frac{n \\lVert X_c^T Y_c \\rVert_F^2}
                   {\\lVert X_c \\rVert_F^2 \\lVert Y_c \\rVert_F^2}.

This module evaluates only these O(n d m) forms (:func:`dcov_sq_closed_form`,
:func:`s_hat`); the protocol evaluates their private counterparts from the
released projection and scalar.  The n x n formulations (the double sums
above, the Laplacian trace, the factor and unbiased forms) are references in
the test suite's ``tests/reference.py``, which pins their agreement with the
closed forms.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .data import _as_float, _as_int, _as_sample_matrix
from .errors import InvalidInputError, ShapeError

__all__ = [
    "TestDecision",
    "dcov_sq_closed_form",
    "s_hat",
    "rejection_threshold",
    "decide",
]


class TestDecision(NamedTuple):
    """Outcome of comparing the test statistic against its threshold.

    ``statistic`` and ``reject`` are None when the denominator is not > 0:
    a constant dataset gives no verdict.
    """

    statistic: float | None
    threshold: float
    alpha: float
    reject: bool | None


def _paired_matrices(X, Y) -> tuple[np.ndarray, np.ndarray]:
    A = _as_sample_matrix(X, "X", min_rows=2)
    B = _as_sample_matrix(Y, "Y", min_rows=2)
    if A.shape[0] != B.shape[0]:
        raise ShapeError(
            f"X and Y must have the same sample count, got {A.shape[0]} and {B.shape[0]}"
        )
    return A, B


def _centered(A: np.ndarray) -> np.ndarray:
    """Column-centered ``A``, with exact zeros in every constant column.

    The first row is subtracted before the mean: a constant column then
    becomes exact zeros even when its mean is not representable, and a large
    mean costs no precision.  An overflow is inf, or NaN where infs meet,
    which the caller refuses: every caller runs it with numpy's overflow
    and invalid warnings off.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, which the caller refuses
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, which the caller refuses
        Ac = _centered(A)
        Bc = _centered(B)
        return 4.0 * float(np.sum(Ac * Ac)) * float(np.sum(Bc * Bc)) / n**2


def rejection_threshold(alpha: float) -> float:
    """Rejection threshold ``(Phi^{-1}(1 - alpha/2))^2``.

    ``Phi^{-1}`` is the standard normal quantile, from the standard
    library's ``NormalDist``, which keeps ``scipy.special`` out of the
    import and agrees with ``scipy.special.ndtri`` to about 1e-15 relative
    for alpha in [1e-6, 0.999]; for instance ``alpha = 0.05`` gives
    ``1.959964^2 = 3.841459``.  An alpha so small that ``1 - alpha/2``
    rounds to 1 gives ``inf``, as ``ndtri(1)`` does: nothing rejects.
    ``alpha`` is a number by the package's rule (README, "Library").
    """
    alpha = _as_float(alpha, "alpha")
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    p = 1.0 - alpha / 2.0
    return NormalDist().inv_cdf(p) ** 2 if p < 1.0 else math.inf


def _check_finite(omega_sq: float, s: float, statistic: float = 0.0) -> None:
    """Raise InvalidInputError naming the data's scale unless the statistics are all finite."""
    if not all(map(math.isfinite, (omega_sq, s, statistic))):
        raise InvalidInputError(f"the data's scale is too large for a finite test statistic: "
                                f"omega_sq = {omega_sq!r}, s = {s!r}")


def decide(omega_sq: float, s: float, n: int, alpha: float) -> TestDecision:
    """The test at level ``alpha``: ``Gamma = n * omega_sq / s`` against its threshold.

    The one statement of the rule, for Bob's private statistics and for the
    non-private ones alike.  Rejection is strict: a statistic exactly at the
    threshold does not reject.  When ``s`` is not > 0 (a constant dataset)
    there is no verdict, and ``statistic`` and ``reject`` are None.  Raises
    InvalidInputError naming the data's scale when ``omega_sq``, ``s`` or
    Gamma is not finite, as when the data overflow float64, and when ``n``
    is not an integer >= 1.
    """
    threshold, n = rejection_threshold(alpha), _as_int(n, "n")
    if n < 1:
        raise InvalidInputError(f"n must be an integer >= 1, got {n}")
    omega_sq, s = float(omega_sq), float(s)  # Python floats: an overflow is inf, unwarned
    statistic = n * omega_sq / s if s > 0.0 else None
    _check_finite(omega_sq, s, statistic or 0.0)
    reject = None if statistic is None else bool(statistic > threshold)
    return TestDecision(statistic, threshold, float(alpha), reject)
