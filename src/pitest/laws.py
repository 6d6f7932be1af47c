"""The exact laws of the protocol's private values, and the analyst's arithmetic on them.

Alice releases ``P = (1/sqrt(r)) G [F^T; w I]`` twice (see
:mod:`pitest.privacy`): for the factor ``B = sqrt(2) Xc`` of her Laplacian
(:func:`factor_W`) and for ``X`` itself.  Both releases, and so everything
computed from them, are sums of squares of Gaussian rows, whose laws are
weighted sums of independent chi-square variables.  This module holds
those laws, drawn without drawing any release, and the analyst's
arithmetic that turns the two values into his statistics, so that the
release, the protocol, the CLI and the sweep read one definition of each.
It takes each release's row count ``r`` and floor ``w`` from its caller
(:func:`pitest.privacy.jl_params`) and imports no module that imports it.

The centred sum of squares ``sx = ||P J||_F^2`` of a release of ``F F^T``
(``J`` the centering matrix): each row of ``P J`` is
``(Fc rho + w J xi) / sqrt(r)`` with ``Fc = J F`` the column-centred
factor, ``rho ~ N(0, I_k)`` and ``xi ~ N(0, I_n)``, so it is
``N(0, (Fc Fc^T + w^2 J) / r)``.  That covariance has the eigenvalues
``(lambda_j + w^2) / r`` for the top ``q = min(k, n-1)`` eigenvalues
``lambda_j`` of ``Fc^T Fc``, ``w^2 / r`` with multiplicity ``n - 1 - q``,
and one 0.  Summing the squared norms of ``r`` independent rows gives

    sx = sum_{j<=q} (lambda_j + w^2) g_j / r + w^2 h / r,
    g_j ~ chi^2_r,  h ~ chi^2_{r (n-1-q)},  all independent,

which costs O(n k min(n, k)) for the eigenvalues (the squared singular
values of ``Fc``, :func:`centered_spectrum`) and q + 1 chi-square draws
(:func:`centered_sq_norm_law`).

The analyst's answer to m queries, ``||P V||_F^2`` for an n x m ``V``:
each row of ``P V`` is ``N(0, C / r)`` with
``C = (F^T V)^T (F^T V) + w^2 V^T V``, so with ``mu_j`` the m eigenvalues
of ``C``

    ||P V||_F^2 = sum_{j<=m} mu_j g_j / r,     g_j ~ chi^2_r, independent,

which :func:`projected_sq_norm_laws` builds from ``F^T V`` and ``V^T V``
alone, in O(n k m).  Each law is built for a batch of parameters at once,
one ``(r, w)`` per entry of the batch (a batch of shape ``()`` is one law),
and both have one sampler, :meth:`ChiSquareMix.draws`, which draws any
number of values of every law of a batch from one generator with one
chi-square call per term, so a grid of parameters costs no Python loop.
Each draw is divided by r before it is weighted, so a value stays finite
when r is too large for ``w^2 r``.

The analyst queries the release of ``B B^T`` with the columns of
:func:`query_matrix` of ``Y`` and reports

    omega_bar_sq = (2/n^2) ||R Q||_F^2,     s_bar = (4/n^3) sx n ||Yc||_F^2

(:func:`private_statistics`, with ``||Yc||_F^2`` from :func:`yc_sq`).  The
two releases are independent, so :func:`statistics_laws` draws
``(omega_bar_sq, s_bar)`` with the joint law of what
``bob_evaluate(alice_stream(X, p, seed), Y)`` reports, at every parameter
of a batch, with no package released or reduced.  The draws are values of
the laws, not the values of any release drawn from a seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import _as_float, _as_sample_matrix
from .errors import InvalidInputError
from .estimators import _centered, _check_finite, _paired_matrices

__all__ = ["ChiSquareMix", "StatisticsLaw", "centered_spectrum", "centered_sq_norm_law", "check_sx",
           "factor_W", "private_statistics", "projected_sq_norm_laws", "query_matrix",
           "statistics_laws", "yc_sq"]


class ChiSquareMix(NamedTuple):
    """A batch of laws ``sum_j weights_j g_j / r + floor h / r``, drawn from a generator.

    ``g_j ~ chi^2_r`` and ``h ~ chi^2_{r dof}``, all independent (no ``h``
    when ``dof`` is 0): the law of a sum of squares of a release, see the
    module docstring.  ``weights`` has the shape ``(..., q)``, and ``r`` and
    ``floor`` give one value per entry of the batch shape ``...``, which is
    ``()`` for one law.  Each draw is divided by r before it is weighted,
    so a value stays finite when r is too large for ``w^2 r``.
    """

    weights: np.ndarray
    r: np.ndarray
    floor: np.ndarray | float = 0.0
    dof: int = 0

    def draws(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent values of each law of the batch, from ``rng``: shape ``(..., size)``.

        One chi-square array per term, filled in the batch's order, so a
        batch of one law draws what that law draws alone.
        """
        batch, q = self.weights.shape[:-1], self.weights.shape[-1]
        # r may exceed int64, and w^2 r may exceed float64
        rf = np.asarray(self.r, dtype=float)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses a value not finite
            g = rng.chisquare(rf[..., None], size=(*batch, size, q)) / rf[..., None]
            total = (g @ self.weights[..., None])[..., 0]
            if self.dof:
                h = rng.chisquare(rf * self.dof, size=(*batch, size)) / rf
                total += np.asarray(self.floor)[..., None] * h
        return total


def factor_W(X) -> np.ndarray:
    """Analytic factor ``B`` of the centered-distance Laplacian ``L = B B^T``.

    ``B = sqrt(2) * (X - column means)``: an n x d matrix, exact in O(nd)
    with no eigendecomposition, since ``L = -J E J = 2 J X X^T J`` for the
    squared-distance matrix ``E`` of ``X``.  It is centred as the
    estimators centre, so a constant column gives exact zeros.  An
    overflow is inf, unwarned, which the caller refuses.
    """
    A = _as_sample_matrix(X, min_rows=2)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(2.0) * _centered(A)


def centered_spectrum(A: np.ndarray) -> np.ndarray:
    """The top ``min(k, n-1)`` eigenvalues of ``Ac^T Ac``, ascending, for the checked n x k ``A``.

    The squared singular values of the column-centred ``Ac``, centred as
    the non-private estimators centre, so a constant column adds exact
    zeros: all that the law of ``sx`` needs of the data, so a caller
    drawing many values of ``sx`` computes it once.  When the centring or
    a square overflows, the eigenvalues are inf, unwarned, as is then every
    draw of ``sx``, which the caller refuses.
    """
    n, k = A.shape
    q = min(k, n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        Ac = _centered(A)
        if not np.isfinite(Ac).all():
            return np.full(q, math.inf)
        return np.linalg.svd(Ac, compute_uv=False)[q - 1 :: -1] ** 2


def _squared(w) -> np.ndarray:
    """``w * w`` elementwise, for a floor or an array of floors: an overflow is inf, unwarned."""
    with np.errstate(over="ignore"):
        return np.square(np.asarray(w, dtype=float))


def centered_sq_norm_law(lam: np.ndarray, n: int, r, w) -> ChiSquareMix:
    """The law of ``||P J||_F^2`` at ``(r, w)``, for n samples whose centred spectrum is ``lam``.

    ``r`` and ``w`` are numbers, for one law, or arrays of one batch shape,
    for a batch of laws.
    """
    w2 = _squared(w)
    return ChiSquareMix(lam + w2[..., None], np.asarray(r, dtype=float), w2, n - 1 - lam.size)


def projected_sq_norm_laws(FtV: np.ndarray, VtV: np.ndarray, params) -> ChiSquareMix:
    """The laws of ``||P V||_F^2`` for a release of ``F F^T`` at each ``(r, w)`` of ``params``.

    ``params`` is one ``(r, w)``, for one law, or an array-like of them of
    shape ``(..., 2)``, for a batch of laws of the shape ``...``.  The
    weights of the law at ``(r, w)`` are the eigenvalues of
    ``C = (F^T V)^T (F^T V) + w^2 V^T V`` (see the module docstring),
    clipped at 0 against rounding; the matrices of the whole batch go
    through one stacked ``eigvalsh``.  When ``w^2`` overflows, ``C`` is not
    finite and neither is any draw; the weights are then infinite, as a
    draw of ``sx`` is, and the caller refuses the value.
    """
    r, w = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # a C that is not finite is refused below
        C = FtV.T @ FtV + _squared(w)[..., None, None] * VtV
    finite = np.isfinite(C).all(axis=(-2, -1))
    weights = np.full(C.shape[:-1], math.inf)
    weights[finite] = np.maximum(np.linalg.eigvalsh(C[finite]), 0.0)
    return ChiSquareMix(weights, r)


def check_sx(sx: float) -> float:
    """``sx`` as a float, refused unless it is a value of its law: a finite number >= 0.

    A number by the package's rule (README, "Library"); anything else
    raises InvalidInputError.
    """
    value = _as_float(sx, "sx")
    if not 0.0 <= value < math.inf:
        raise InvalidInputError(f"sx must be a finite number >= 0, got {value!r}")
    return value


def _finite_sx(sx: float, n: int, w2: float, budget: str) -> float:
    """A draw of ``sx`` for n samples at the floor ``w2 = w^2``, refused with its cause unless finite.

    ``sx`` is a sum of squares, so it is >= 0 unless it overflowed.  The
    floor adds about ``w^2 (n - 1)`` to it: when that alone overflows,
    ``budget`` (``"epsilon = ..."``, say) is too small, and else X's scale
    is too large.  The one wording of this refusal, for a package and for
    the law's draws alike.
    """
    if not math.isfinite(sx):
        cause = f"{budget} is too small" if math.isinf(w2 * (n - 1)) else "X's scale is too large"
        raise InvalidInputError(f"{cause} for a finite release: sx, the centred sum of squares "
                                "of X's release, overflows")
    return sx


def query_matrix(Y: np.ndarray) -> np.ndarray:
    """The matrix whose columns the analyst queries the release of ``B B^T`` with: ``Y`` as given.

    The one place this choice is made, for ``bob_evaluate``, the law of
    the same answer and the report's floor share.
    """
    return Y


def yc_sq(Y: np.ndarray) -> float:
    """``||Yc||_F^2`` for the column-centred ``Y``: the analyst's factor of ``s_bar``.

    An overflow is inf, unwarned, which the caller refuses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Yc = _centered(Y)
        return float(np.sum(Yc * Yc))


def private_statistics(n: int, answers, sx, yc: float):
    """``(omega_bar_sq, s_bar)`` from the release's answer ``||R Q||_F^2``, ``sx`` and ``||Yc||_F^2``.

    Elementwise, so arrays of answers and of ``sx`` give arrays of statistics.
    """
    return 2.0 / n**2 * answers, 4.0 / n**3 * sx * (n * yc)


class StatisticsLaw(NamedTuple):
    """The joint law of the analyst's ``(omega_bar_sq, s_bar)`` at a batch of parameters.

    ``answer`` is the law of ``||R Q||_F^2`` and ``sx`` that of the X
    release's centred sum of squares, batches of one shape, for data of n
    samples whose ``Y`` has the centred sum of squares ``yc``; built by
    :func:`statistics_laws`.
    """

    answer: ChiSquareMix
    sx: ChiSquareMix
    n: int
    yc: float

    def draws(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` independent draws of ``(omega_bar_sq, s_bar)`` at each parameter of the batch.

        Both have the shape ``(..., size)``, from ``rng``: the whole
        batch's answers first, then its values of sx.  The statistics are
        computed as on Python floats: an overflow is inf, unwarned.  Raises
        InvalidInputError for the first draw, in the batch's order, whose
        ``sx`` is not finite, worded as a package's refusal (the data's
        scale, or a budget whose floor alone overflows), or else whose
        ``omega_bar_sq`` is not finite, worded as
        :func:`pitest.estimators.decide` words it.
        """
        answers = self.answer.draws(rng, size)
        sx = self.sx.draws(rng, size)
        with np.errstate(all="ignore"):
            omega_bar_sq, s_bar = private_statistics(self.n, answers, sx, self.yc)
        finite = np.isfinite(sx) & np.isfinite(omega_bar_sq)
        if not finite.all():
            first = np.argmin(finite)
            _finite_sx(float(sx.flat[first]), self.n, float(np.ravel(self.sx.floor)[first // size]),
                       "the budget")
            _check_finite(float(omega_bar_sq.flat[first]), float(s_bar.flat[first]))
        return omega_bar_sq, s_bar


def statistics_laws(X, Y, params) -> StatisticsLaw:
    """The law of what the analyst reports on ``X`` and ``Y``, at each ``(r, w)`` of ``params``.

    ``(r, w)`` is the row count and floor of one release, as
    :func:`pitest.privacy.jl_params` gives them for half the budget;
    ``params`` is one of them, or an array-like of them of shape
    ``(..., 2)`` for a batch of the shape ``...``.  A draw of the law at
    the parameters of ``p`` has the joint law of
    ``bob_evaluate(alice_stream(X, p, seed), Y)``'s ``omega_bar_sq`` and
    ``s_bar``.  What the laws need of the data (``B^T Q``, ``Q^T Q``, the
    spectrum of ``Xc`` and ``||Yc||_F^2``) is computed once, and the answer
    weights of the whole batch go through one stacked ``eigvalsh``.
    """
    A, Ym = _paired_matrices(X, Y)
    n = A.shape[0]
    Q = query_matrix(Ym)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves C not finite: refused
        answer = projected_sq_norm_laws(factor_W(A).T @ Q, Q.T @ Q, params)
    w = np.asarray(params, dtype=float)[..., 1]
    return StatisticsLaw(answer, centered_sq_norm_law(centered_spectrum(A), n, answer.r, w), n,
                         yc_sq(Ym))
