"""Utility guarantees relating the private ratio statistic to the true one.

When each released answer is within multiplicative ``1 +/- eta`` and
additive ``tau`` of the truth, the private ratio
:math:`\\bar{\\Omega}^2 / \\bar{S}` is sandwiched around the non-private
:math:`\\hat{\\Omega}^2 / \\hat{S}` by closed-form lower/upper transforms of
the non-private ratio, valid when the denominator stays above
``n tau / (1 - eta)`` and (for the lower side) the numerator statistic does
not exceed the denominator one.

The closed forms trade tightness for interpretability: on typical valid
instances they are *looser* than the naive interval that bounds the
numerator and denominator separately and divides (they contain it).  That
interval is the containment test's reference and lives in
``tests/reference.py``.

The second precondition of the lower side has a sufficient condition on the
spread of squared pairwise distances, ``d_max <= ((n-1)/2) d_min^2`` (with
one-hot second datasets).  Checking it visits all n^2 pairs, so it lives
with the test suite's n^2 references in ``tests/reference.py``.

:func:`evaluate_bounds` evaluates all of a report's bounds, as a
:class:`BoundsReport`.  It clamps the upper bound exactly where
:func:`upper_bound_ratio` refuses its inputs: where the transform's divisor
``(1 - eta) s_param - tau`` is not > 0.  :func:`s_param_min` is the
``s_param`` at which that divisor vanishes, up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import _as_float, _as_int
from .errors import InvalidInputError
from .privacy import PrivacyParams, tau, tau_mechanism

__all__ = [
    "BoundsReport",
    "check_s_param",
    "evaluate_bounds",
    "s_param_min",
    "lower_bound_ratio",
    "upper_bound_ratio",
    "aggregate_coverage_probability",
]


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided bound on the private ratio, evaluated at the observed value.

    ``tau_used`` is the mechanism-level additive constant the transforms
    were evaluated with; ``tau_closed_form`` is the analytical constant for
    the same workload (None when its precondition fails), reported alongside
    for comparison.  ``upper`` is ``inf`` when ``s_param`` fell outside the
    validity region (recorded by ``s_param_clamped``).
    """

    lower: float
    upper: float
    s_param: float
    tau_used: float
    tau_closed_form: float | None
    prob_floor: float | None
    s_param_clamped: bool


def _check_eta(eta: float) -> float:
    eta = _as_float(eta, "eta")
    if not (0.0 < eta < 1.0):
        raise InvalidInputError(f"eta must lie in (0, 1), got {eta}")
    return eta


def _check_ratio(ratio: float) -> float:
    ratio = _as_float(ratio, "ratio")
    if not (0.0 <= ratio < math.inf):
        raise InvalidInputError(f"ratio must be a finite nonnegative number, got {ratio}")
    return ratio


def lower_bound_ratio(ratio: float, eta: float) -> float:
    """Closed-form lower bound on the private ratio.

    ((1 - eta) / (1 + eta)) * ratio - (1 - eta)^2 / (2 (1 + eta))

    where ``ratio`` is the non-private value.  Valid when the non-private
    denominator exceeds ``n tau / (1 - eta)`` and the numerator statistic is
    at most the denominator one.
    """
    eta, ratio = _check_eta(eta), _check_ratio(ratio)
    return (1.0 - eta) / (1.0 + eta) * ratio - (1.0 - eta) ** 2 / (2.0 * (1.0 + eta))


def _divisor(eta: float, tau: float, s_param: float) -> float:
    """``(1 - eta) s_param - tau``, the upper bound's divisor: the bound holds where it is > 0."""
    return (1.0 - eta) * s_param - tau


def upper_bound_ratio(ratio: float, eta: float, tau: float, s_param: float) -> float:
    """Closed-form upper bound on the private ratio.

    ((1 + eta) / (1 - eta)) * ratio + tau / ((1 - eta) s_param - tau)

    requires the divisor ``(1 - eta) s_param - tau`` to be > 0, so that the
    additive term is positive and finite: ``s_param > tau / (1 - eta)``, up
    to rounding.  ``s_param`` must pass :func:`check_s_param`.
    """
    eta, ratio = _check_eta(eta), _check_ratio(ratio)
    tau, s_param = _as_float(tau, "tau"), check_s_param(s_param)
    if not (0.0 <= tau < math.inf):
        raise InvalidInputError(f"tau must be finite and >= 0, got {tau}")
    divisor = _divisor(eta, tau, s_param)
    if not divisor > 0.0:
        raise InvalidInputError(
            f"s_param must exceed tau/(1-eta) = {tau / (1.0 - eta):.6g}, so that "
            f"(1-eta)*s_param - tau > 0, got {s_param}"
        )
    return (1.0 + eta) / (1.0 - eta) * ratio + tau / divisor


def aggregate_coverage_probability(m: int, n: int, nu: float) -> float:
    """Probability floor ``1 - (m + n) nu`` for all m + n queries holding at once."""
    m, n, nu = _as_int(m, "m"), _as_int(n, "n"), _as_float(nu, "nu")
    if m < 1 or n < 1:
        raise InvalidInputError(f"query counts must be positive, got m={m}, n={n}")
    if not (0.0 <= nu < 1.0):
        raise InvalidInputError(f"nu must lie in [0, 1), got {nu}")
    total = (m + n) * nu
    if total >= 1.0:
        raise InvalidInputError(
            f"(m+n)*nu = {total:.6g} must be < 1 for a nontrivial probability floor"
        )
    return 1.0 - total


def check_s_param(s_param: float) -> float:
    """``s_param`` as a float, refused unless it is a positive finite number: the one rule for a given scale.

    A number by the package's rule (README, "Library"): a bool or a string
    is refused, and an int too large for a float is not finite.
    """
    value = _as_float(s_param, "s_param")
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"s_param must be a positive finite number, got {s_param}")
    return value


def s_param_min(p: PrivacyParams) -> float:
    """``tau_mech / (1 - eta)`` at one release's ``p``: up to rounding, an ``s_param`` not above it clamps ``upper``."""
    return tau_mechanism(p) / (1.0 - p.eta)


def evaluate_bounds(ratio: float, s_param: float, per_release: PrivacyParams, m: int, n: int) -> BoundsReport:
    """The report's bounds at the private ``ratio``, for releases at ``per_release`` and m + n queries.

    The transforms are evaluated with ``tau_mechanism(per_release)``.  An
    ``s_param`` that :func:`upper_bound_ratio` refuses, one whose divisor
    ``(1 - eta) s_param - tau_used`` is not > 0 (one not above
    :func:`s_param_min`, up to rounding), clamps the upper bound to ``inf``
    rather than raising; ``tau_closed_form`` and ``prob_floor`` are None
    when their union bound over the m + n queries is vacuous.  ``s_param``
    must pass :func:`check_s_param`, and ``m`` and ``n`` must be integers.
    """
    s_param, m, n = check_s_param(s_param), _as_int(m, "m"), _as_int(n, "n")
    tau_used = tau_mechanism(per_release)
    clamped = not _divisor(per_release.eta, tau_used, s_param) > 0.0
    upper = math.inf if clamped else upper_bound_ratio(ratio, per_release.eta, tau_used, s_param)
    try:
        tau_closed: float | None = tau(per_release, m, n)
    except InvalidInputError:
        tau_closed = None
    try:
        prob_floor: float | None = aggregate_coverage_probability(m, n, per_release.nu)
    except InvalidInputError:
        prob_floor = None
    return BoundsReport(lower_bound_ratio(ratio, per_release.eta), upper, s_param, tau_used,
                        tau_closed, prob_floor, clamped)
