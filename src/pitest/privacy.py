"""Differentially private covariance release by Gaussian random projection.

A data holder wants to publish enough about a covariance ``F F^T`` for an
analyst to evaluate directional variance queries ``y^T F F^T y``, without
publishing ``F``.  The release is

    P = (1/sqrt(r)) * R * A_hat,      A_hat = [ F^T ]   ((k+n) x n)
                                              [ w I ]

where ``R`` is an r x (k+n) matrix of independent standard normals and
``w > 0`` is a spectral floor stacked under the factor so that
``A_hat^T A_hat = F F^T + w^2 I`` has least singular value at least ``w``.
``A_hat`` is never formed: splitting ``R = [R_1 R_2]`` after column ``k``
gives the same release as ``P = (R_1 F^T + w R_2) / sqrt(r)``, which costs
O(r k n) rather than O(r (k+n) n) and holds no n x n array.  ``R`` is not
held whole either: it is drawn and projected one row block of about 256 KiB
at a time, each block continuing the stream of the release's one generator,
so the draw is that of ``standard_normal((r, k+n))``.  A block GEMM does
about 2**15 k multiply-adds, so it stays in cache, and OpenBLAS runs it on
one thread for k < 8 (its threading threshold is 2**18): the sweep's thread
pool is not oversubscribed.  ``P`` lives in its own anonymous memory
mapping, so its pages go back to the operating system as soon as the
release is dropped; from the heap, the allocator may keep a freed release
of a few MiB in a thread arena for the next one.  The analyst's sums of
squares over ``P`` are accumulated over row blocks of the same size.
For any query direction ``y``,

    E ||P y||^2 = y^T F F^T y + w^2 ||y||^2,

and ``private_sum_directional_variances`` answers the sum of these queries
over the columns of a matrix; a single query is its one-column case.
With ``r`` rows each answer concentrates within a multiplicative
``1 +/- eta`` of its mean with failure probability ``nu`` per query.  The
parameters are

    r = ceil(8 ln(2/nu) / eta^2),
    w = (16 sqrt(r ln(2/delta)) / epsilon) * ln(16 r / delta),

which make the release (epsilon, delta)-differentially private; the floor
inflates every answer by ``w^2 ||y||^2``, giving the mechanism-level
additive constant ``tau_mech = (1 + eta) w^2`` for unit queries.  A
closed-form additive constant ``tau`` for the end-to-end ratio guarantee is
also provided; both are reported side by side because the closed form is a
loose analytical bound while ``tau_mech`` reflects the mechanism actually
run.

A release that is only ever reduced to its centred sum of squares
``sx = ||P J||_F^2`` (``J`` the centering matrix) is not drawn at all: sx is
drawn from its exact law.  Each row of ``P J`` is ``(Fc rho + w J xi) /
sqrt(r)`` with ``Fc = J F`` the column-centred factor, ``rho ~ N(0, I_k)``
and ``xi ~ N(0, I_n)``, so it is ``N(0, (Fc Fc^T + w^2 J) / r)``.  That
covariance has the eigenvalues ``(lambda_j + w^2) / r`` for the top
``q = min(k, n-1)`` eigenvalues ``lambda_j`` of ``Fc^T Fc``, ``w^2 / r``
with multiplicity ``n - 1 - q``, and one 0.  Summing the squared norms of
``r`` independent rows gives

    sx = (1/r) [ sum_{j<=q} (lambda_j + w^2) g_j + w^2 h ],
    g_j ~ chi^2_r,  h ~ chi^2_{r (n-1-q)},  all independent,

which costs O(n k min(n, k)) for the eigenvalues and q + 1 chi-square
draws, against r (k+n) normals and 2 r k n flops for the release it stands
for, and holds nothing of size r.  Privacy is unchanged: (epsilon, delta)
differential privacy is a property of the law of a mechanism's output, and
for every ``F`` this draw has exactly the law of ``||P J||_F^2`` computed
from the release ``P``, which is post-processing of an (epsilon, delta)-DP
release.  So the two mechanisms satisfy the same guarantee, though for a
given seed they give different numbers.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _as_sample_matrix
from .errors import InvalidInputError, ShapeError

__all__ = [
    "PrivacyParams",
    "JlParams",
    "PrivateProjection",
    "jl_params",
    "tau",
    "tau_mechanism",
    "privatize_covariance",
    "private_centered_sq_norm",
    "private_sum_directional_variances",
]


# Entries of float64 per row block (256 KiB): every pass over a block stays in
# cache, and a GEMM against a thin factor stays below OpenBLAS's threading
# threshold.  Measured on run_sweep: 2**13 pays per-block Python overhead,
# 2**19 crosses the threshold again.
_BLOCK_FLOATS = 2**15


def _block_height(width: int) -> int:
    """Rows per block of a ``width``-column float64 array."""
    return max(1, _BLOCK_FLOATS // width)


def _row_blocks(rows: int, width: int):
    """Slices covering ``range(rows)`` in blocks of ``_block_height(width)`` rows."""
    h = _block_height(width)
    for i in range(0, rows, h):
        yield slice(i, min(i + h, rows))


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy and accuracy parameters of one release.

    epsilon, delta: the differential-privacy budget; eta: multiplicative
    query accuracy in (0, 1); nu: per-query failure probability in (0, 1).
    """

    epsilon: float
    delta: float
    eta: float
    nu: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "delta", "eta", "nu"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
        if self.epsilon <= 0.0:
            raise InvalidInputError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidInputError(f"delta must lie in (0, 1), got {self.delta}")
        if not (0.0 < self.eta < 1.0):
            raise InvalidInputError(f"eta must lie in (0, 1), got {self.eta}")
        if not (0.0 < self.nu < 1.0):
            raise InvalidInputError(f"nu must lie in (0, 1), got {self.nu}")

    def half_budget(self) -> "PrivacyParams":
        """Per-release parameters when the budget is split over two releases."""
        return PrivacyParams(self.epsilon / 2.0, self.delta / 2.0, self.eta, self.nu)


class JlParams(NamedTuple):
    """Projection row count ``r`` and spectral floor ``w``."""

    r: int
    w: float


def jl_params(p: PrivacyParams) -> JlParams:
    """Compute (r, w) from the privacy/accuracy parameters.

    ``r`` is rounded up to an integer row count.  Raises InvalidInputError
    when either is not a finite positive number, e.g. for an ``eta`` so
    small that ``eta^2`` underflows.
    """
    try:
        r = math.ceil(8.0 * math.log(2.0 / p.nu) / p.eta**2)
    except (ZeroDivisionError, OverflowError):  # eta^2 underflows, or the quotient overflows
        raise InvalidInputError(f"eta = {p.eta!r} is too small for a row count") from None
    w = 16.0 * math.sqrt(r * math.log(2.0 / p.delta)) / p.epsilon * math.log(16.0 * r / p.delta)
    if not (r >= 1 and math.isfinite(w) and w > 0.0):
        raise InvalidInputError(f"degenerate projection parameters r={r}, w={w}")
    return JlParams(r, w)


def tau(p: PrivacyParams, m: int, n: int) -> float:
    """Closed-form additive error constant for an m + n query workload.

    tau = (2048 ln(2/((m+n)nu)) ln(2/delta) / (eta epsilon^2))
          * ln^2(128 ln(1/((m+n)nu)) / (eta^2 delta))

    Requires ``(m + n) nu < 1`` (and every logarithm above to have argument
    > 1) so the constant is positive and meaningful.  Raises
    InvalidInputError when it is not a finite number, e.g. for an
    ``eta^2 delta`` that underflows.
    """
    if m < 1 or n < 1:
        raise InvalidInputError(f"query counts must be positive, got m={m}, n={n}")
    total = (m + n) * p.nu
    if not (total < 1.0):
        raise InvalidInputError(
            f"(m+n)*nu = {total:.6g} must be < 1 for the additive constant to be defined"
        )
    try:
        inner = 128.0 * math.log(1.0 / total) / (p.eta**2 * p.delta)
        if inner <= 1.0:
            raise InvalidInputError(
                f"log argument 128*ln(1/((m+n)nu))/(eta^2*delta) = {inner:.6g} must exceed 1"
            )
        lead = 2048.0 * math.log(2.0 / total) * math.log(2.0 / p.delta) / (p.eta * p.epsilon**2)
        value = lead * math.log(inner) ** 2
    except (ZeroDivisionError, OverflowError):  # a product underflows, or a power overflows
        value = math.inf
    if not math.isfinite(value):
        raise InvalidInputError(
            f"tau cannot be evaluated in float64 for eta = {p.eta!r}, "
            f"delta = {p.delta!r}, epsilon = {p.epsilon!r}"
        )
    return value


def tau_mechanism(p: PrivacyParams) -> float:
    """Mechanism-level additive constant ``(1 + eta) w^2`` for unit queries."""
    return (1.0 + p.eta) * jl_params(p).w ** 2


@dataclass(frozen=True, eq=False)
class PrivateProjection:
    """A released projection ``P``: a finite array of shape (r, n).

    Answers directional variance queries ``||P y||^2`` approximating
    ``y^T F F^T y + w^2 ||y||^2``.  It does not keep the parameters it was
    released under; its holder does (a package keeps its total budget).
    The generator seed is not kept either: with it, anyone could regenerate
    ``R`` and recover the factor.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ShapeError(f"projection values must be 2-D, got shape {self.values.shape}")
        # One row block at a time, so the check holds no r x n temporary.
        if not all(np.isfinite(self.values[rows]).all() for rows in _row_blocks(*self.values.shape)):
            raise InvalidInputError("projection contains non-finite entries")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def privatize_covariance(F, p: PrivacyParams, seed: int) -> PrivateProjection:
    """Release a private projection for the covariance ``F F^T``.

    Args:
        F: n x k factor of the target covariance (rows are samples).
        p: privacy/accuracy parameters of this release.
        seed: 64-bit generator seed; identical (F, p, seed) gives a
            bit-identical release.

    Returns:
        PrivateProjection with values ``(1/sqrt(r)) R [F^T; w I]``,
        computed as ``(R_1 F^T + w R_2) / sqrt(r)`` with ``R_1 = R[:, :k]``,
        one row block of ``R`` at a time: only ``P`` and one block are held.
        ``P`` is backed by its own anonymous memory mapping.

    Raises InvalidInputError when ``P`` cannot be allocated, e.g. for an
    ``eta`` so small that r x n float64 exceeds the address space.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, k = A.shape
    r, w = jl_params(p)
    try:
        P = np.frombuffer(mmap.mmap(-1, 8 * r * n), np.float64).reshape(r, n)
    except (OverflowError, OSError, ValueError) as exc:
        raise InvalidInputError(
            f"a release of r = {r:.6g} rows by n = {n} samples needs "
            f"{8.0 * r * n:.6g} bytes and cannot be allocated: {exc}"
        ) from None
    rng = np.random.default_rng(int(seed))
    scale = math.sqrt(r)
    # Consecutive fills of one buffer continue the stream, so the blocks are
    # the rows of the one-shot draw standard_normal((r, k+n)).
    buf = np.empty((min(r, _block_height(k + n)), k + n))
    for rows in _row_blocks(r, k + n):
        R = buf[: rows.stop - rows.start]
        rng.standard_normal(out=R)
        floor = R[:, k:]
        floor *= w
        block = P[rows]
        np.matmul(R[:, :k], A.T, out=block)
        block += floor
        block /= scale
    return PrivateProjection(values=P)


def private_centered_sq_norm(F, p: PrivacyParams, seed: int) -> float:
    """``||P - row means||_F^2`` for a release ``P`` of ``F F^T``, drawn from its exact law.

    The value has the law of the centred sum of squares of
    ``privatize_covariance(F, p, seed)`` (see the module docstring), so it
    carries that release's privacy guarantee; it is not that release's
    value for this seed.  It is the one number the analyst's denominator
    needs from the release of ``X X^T``: ``||P J||_F^2`` for the centering
    matrix ``J``.  Nothing of size r is drawn or held.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, k = A.shape
    r, w = jl_params(p)
    Ac = A - A.mean(axis=0, keepdims=True)
    gram = Ac.T @ Ac if k <= n else Ac @ Ac.T
    q = min(k, n - 1)
    lam = np.clip(np.linalg.eigvalsh(gram)[-q:], 0.0, None)  # the top q, ascending
    rng = np.random.default_rng(int(seed))
    w2 = w * w
    total = float((lam + w2) @ rng.chisquare(r, size=q))
    if n - 1 > q:
        total += w2 * float(rng.chisquare(r * (n - 1 - q)))
    return total / r


def private_sum_directional_variances(P: PrivateProjection, V) -> float:
    """Sum of query answers over the columns of ``V``: ``||P V||_F^2``.

    A vector ``V`` is one query ``y``, answered as ``||P y||^2``.  Non-unit
    directions are answered as asked; the value scales as ``||y||^2``, so
    callers normalize when the unit-direction convention matters.
    """
    M = np.asarray(V, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != P.n:
        raise ShapeError(f"query matrix must have {P.n} rows, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("query matrix contains non-finite entries")
    total = 0.0
    for rows in _row_blocks(P.rows, P.n):
        Z = P.values[rows] @ M
        total += float(np.sum(Z * Z))
    return total
