"""Utility guarantees relating the private ratio statistic to the true one.

When each released answer is within multiplicative ``1 +/- eta`` and
additive ``tau`` of the truth, the private ratio
:math:`\\bar{\\Omega}^2 / \\bar{S}` is sandwiched around the non-private
:math:`\\hat{\\Omega}^2 / \\hat{S}`.  Two flavors are provided:

- a *naive* interval obtained by separately bounding the numerator and
  denominator and dividing,
- closed-form lower/upper transforms of the non-private ratio, valid when
  the denominator stays above ``n tau / (1 - eta)`` and (for the lower
  side) the numerator statistic does not exceed the denominator one.

The closed forms trade tightness for interpretability: on typical valid
instances they are *looser* than the naive interval (they contain it),
which is what the containment test in the suite checks.

The second precondition of the lower side has a sufficient condition on the
spread of squared pairwise distances, ``d_max <= ((n-1)/2) d_min^2`` (with
one-hot second datasets).  Checking it visits all n^2 pairs, so it lives
with the test suite's n^2 references in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError

__all__ = [
    "NaiveInterval",
    "lower_bound_ratio",
    "upper_bound_ratio",
    "aggregate_coverage_probability",
    "naive_ratio_interval",
]


def _check_eta(eta: float) -> None:
    if not (0.0 < eta < 1.0) or not math.isfinite(eta):
        raise InvalidInputError(f"eta must lie in (0, 1), got {eta}")


def lower_bound_ratio(ratio: float, eta: float) -> float:
    """Closed-form lower bound on the private ratio.

    ((1 - eta) / (1 + eta)) * ratio - (1 - eta)^2 / (2 (1 + eta))

    where ``ratio`` is the non-private value.  Valid when the non-private
    denominator exceeds ``n tau / (1 - eta)`` and the numerator statistic is
    at most the denominator one.
    """
    _check_eta(eta)
    if not (ratio >= 0.0) or not math.isfinite(ratio):
        raise InvalidInputError(f"ratio must be a finite nonnegative number, got {ratio}")
    return (1.0 - eta) / (1.0 + eta) * ratio - (1.0 - eta) ** 2 / (2.0 * (1.0 + eta))


def upper_bound_ratio(ratio: float, eta: float, tau: float, s_param: float) -> float:
    """Closed-form upper bound on the private ratio.

    ((1 + eta) / (1 - eta)) * ratio + tau / ((1 - eta) s_param - tau)

    requires the scale parameter ``s_param > tau / (1 - eta)`` so the
    additive term is positive and finite.
    """
    _check_eta(eta)
    if not (ratio >= 0.0) or not math.isfinite(ratio):
        raise InvalidInputError(f"ratio must be a finite nonnegative number, got {ratio}")
    if tau < 0.0 or not math.isfinite(tau):
        raise InvalidInputError(f"tau must be finite and >= 0, got {tau}")
    if not (s_param > tau / (1.0 - eta)):
        raise InvalidInputError(
            f"s_param must exceed tau/(1-eta) = {tau / (1.0 - eta):.6g}, got {s_param}"
        )
    return (1.0 + eta) / (1.0 - eta) * ratio + tau / ((1.0 - eta) * s_param - tau)


def aggregate_coverage_probability(m: int, n: int, nu: float) -> float:
    """Probability floor ``1 - (m + n) nu`` for all m + n queries holding at once."""
    if m < 1 or n < 1:
        raise InvalidInputError(f"query counts must be positive, got m={m}, n={n}")
    if not (0.0 <= nu < 1.0) or not math.isfinite(nu):
        raise InvalidInputError(f"nu must lie in [0, 1), got {nu}")
    total = (m + n) * nu
    if total >= 1.0:
        raise InvalidInputError(
            f"(m+n)*nu = {total:.6g} must be < 1 for a nontrivial probability floor"
        )
    return 1.0 - total


class NaiveInterval(NamedTuple):
    """Naive two-sided ratio interval; ``upper`` is ``inf`` when the
    denominator's lower bound is not positive."""

    lower: float
    upper: float


def naive_ratio_interval(
    omega_lo: float, omega_hi: float, s_lo: float, s_hi: float
) -> NaiveInterval:
    """Divide component bounds: numerator in [omega_lo, omega_hi],
    denominator in [s_lo, s_hi].

    Returns ``(omega_lo / s_hi, omega_hi / s_lo)``.  With the standard
    components this is

    (((1-eta) W - m tau) / ((1+eta) S + n tau),
     ((1+eta) W + m tau) / ((1-eta) S - n tau))

    for numerator statistic ``W`` and denominator statistic ``S``.  When
    ``s_lo <= 0`` the upper end is ``+inf`` (the sentinel doubles as the
    flag); ``s_hi`` must be positive.
    """
    if not (s_hi > 0.0):
        raise InvalidInputError(f"denominator upper bound must be positive, got {s_hi}")
    lower = omega_lo / s_hi
    upper = math.inf if s_lo <= 0.0 else omega_hi / s_lo
    return NaiveInterval(lower, upper)
