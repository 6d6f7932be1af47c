"""Differentially private covariance release by Gaussian random projection.

A data holder wants to publish enough about a covariance ``F F^T`` for an
analyst to evaluate directional variance queries ``y^T F F^T y``, without
publishing ``F``.  The mechanism is the Gaussian release of Blocki, Blum,
Datta & Sheffet (FOCS 2012),

    P = (1/sqrt(r)) * G * A_hat,      A_hat = [ F^T ]   ((k+n) x n)
                                              [ w I ]

where ``G`` is an r x (k+n) matrix of independent standard normals and
``w > 0`` is a spectral floor stacked under the factor so that
``A_hat^T A_hat = F F^T + w^2 I`` has least singular value at least ``w``.
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

The analyst reads ``P`` only through its Gram ``P^T P``, so what is shipped
is not ``P`` but ``R``, the min(r, n) x n upper-trapezoidal factor with a
positive diagonal of a QR of ``P``: ``R^T R = P^T P``, so every query has
the same answer.  ``R`` is drawn from its exact law without drawing ``P``,
and kept packed: column ``j`` holds only its first min(j+1, rows) entries,
the columns one after another, so the zeros below the diagonal are neither
stored nor shipped.
Write ``G = Q T`` for a QR of ``G`` with ``T`` upper trapezoidal and
positive on its diagonal; then ``P^T P = (T A_hat)^T (T A_hat) / r``, so ``R``
is the R factor of ``T A_hat / sqrt(r)``.  By Bartlett's decomposition the
entries of ``T`` are independent, with ``T_ii ~ chi_{r-i}`` (counting from
0) and ``T_ij ~ N(0, 1)`` for ``j > i``.  Splitting ``T`` after row
``min(r, k)`` and column ``k``, ``T A_hat`` is the min(r, k) dense rows
``T_11 F^T + w T_12`` stacked over the upper-trapezoidal ``w T_22``, and a
QR of that stack is one triangular-pentagonal QR (LAPACK ``dtpqrt``) of
its leading min(r, n) columns, whose reflectors ``dtpmqrt`` applies to the
rest.  ``T_22`` is drawn straight into the packed buffer that becomes
``R``, the only array of the factor's size, with the min(r, k) dense rows
``D`` scaled by ``1/w`` so that the floor is applied once, to the finished
factor.  That costs about min(r, n) n - min(r, n)^2 / 2 normals and
O(k min(r, n) n) flops, against r (k+n) normals and 2 r k n flops for
``P``, and holds nothing of size r.

The QR runs left-looking, one panel of columns at a time, in the packed
buffer.  A panel [a, b) left of column min(r, n) is expanded into its
a x (b - a) top block and its triangle; the reflectors of columns [0, a)
are applied to the top block and to ``D``'s columns [a, b) (one
``dtpmqrt``), the triangle over them is factored (``dtpqrt``), and the
panel is scaled and packed back.  Right of column min(r, n) the packed
columns are whole, and ``dtpmqrt`` applies all the reflectors to them in
place.  So Alice holds the packed factor and O(panel) scratch.  Panels left
of column min(r, n) start at multiples of the reflector block, so every
column meets the same reflector blocks, in the same order, as in one
``dtpqrt`` of all the leading columns; and the normals are drawn in column
order, a block of columns per call, which is the stream of one call per
column.  So a seed gives the same bits as that draw and that one-shot QR
on a dense min(r, n) x n buffer.

A release that is only ever reduced to its centred sum of squares
``sx = ||P J||_F^2`` (``J`` the centering matrix) is not drawn at all: sx is
drawn from its exact law.  Each row of ``P J`` is ``(Fc rho + w J xi) /
sqrt(r)`` with ``Fc = J F`` the column-centred factor, ``rho ~ N(0, I_k)``
and ``xi ~ N(0, I_n)``, so it is ``N(0, (Fc Fc^T + w^2 J) / r)``.  That
covariance has the eigenvalues ``(lambda_j + w^2) / r`` for the top
``q = min(k, n-1)`` eigenvalues ``lambda_j`` of ``Fc^T Fc``, ``w^2 / r``
with multiplicity ``n - 1 - q``, and one 0.  Summing the squared norms of
``r`` independent rows gives

    sx = sum_{j<=q} (lambda_j + w^2) g_j / r + w^2 h / r,
    g_j ~ chi^2_r,  h ~ chi^2_{r (n-1-q)},  all independent,

which costs O(n k min(n, k)) for the eigenvalues and q + 1 chi-square
draws, and holds nothing of size r.  Each draw is divided by r before it is
weighted, so sx stays finite when r is too large for ``w^2 r``.

Privacy is unchanged by either draw: (epsilon, delta) differential privacy
is a property of the law of a mechanism's output.  ``R`` and ``sx`` are
data-independent functions (a QR factor, a centred sum of squares) of an
(epsilon, delta)-DP release, so they are post-processing of it, and for
every ``F`` the exact-law draws have exactly their laws.  So the shipped
values satisfy the release's guarantee, though for a given seed they are
not the functions of any one ``P`` drawn from that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

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

# Reflectors per block of the triangular-pentagonal QR, and float64 entries
# per panel of columns that the QR works on at a time (1 MiB, so a panel
# stays in cache while it is updated and scaled, and a panel's scratch stays
# small beside the factor).  Measured on the 2952 x 20000 factor of n = 2e4,
# r = 2952: 16 and 2**17 took 0.41 s; 32 and 2**17 took 0.47 s, and 32 with
# one panel of all the columns 0.60 s.
_REFLECTOR_BLOCK = 16
_PANEL_FLOATS = 2**17


def _row_blocks(rows: int, width: int):
    """Slices covering ``range(rows)`` in blocks of about ``_BLOCK_FLOATS`` entries."""
    h = max(1, _BLOCK_FLOATS // width)
    for i in range(0, rows, h):
        yield slice(i, min(i + h, rows))


def _packed_offset(j: int, rows: int) -> int:
    """Entries before column ``j`` of a packed factor with ``rows`` rows.

    Column ``i`` keeps its first min(i+1, rows) entries, so this is
    j (j+1) / 2 up to column ``rows`` and grows by ``rows`` a column after
    it; for ``j = n`` it is the length of the whole packed factor.
    """
    t = min(j, rows)
    return t * (t + 1) // 2 + (j - t) * rows


def _column_blocks(rows: int, n: int):
    """Slices of about ``_BLOCK_FLOATS`` entries covering the columns of a rows x n factor.

    No slice crosses column ``rows``: the columns before it grow by one
    entry each, the columns after it are whole.
    """
    yield from _row_blocks(rows, rows)
    for cols in _row_blocks(n - rows, rows):
        yield slice(rows + cols.start, rows + cols.stop)


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
    """A released factor ``R``: rows x n, upper trapezoidal, stored packed.

    ``values`` holds column ``j`` of ``R`` as its first min(j+1, rows)
    entries, the columns one after another; the entries below the diagonal
    are zero and not stored.  ``R`` answers directional variance queries
    ``||R y||^2`` approximating ``y^T F F^T y + w^2 ||y||^2``; only its Gram
    ``R^T R`` matters.  A release from :func:`privatize_covariance` is the
    min(r, n) x n QR factor of the projection ``P``.  It does not keep the
    parameters it was released under; its holder does (a package keeps its
    total budget).  The generator seed is not kept either: with it, anyone
    could regenerate ``T`` and recover the factor.
    """

    values: np.ndarray
    rows: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.rows <= self.n):
            raise ShapeError(f"a factor needs 1 <= rows <= n, got rows={self.rows}, n={self.n}")
        size = _packed_offset(self.n, self.rows)
        if self.values.shape != (size,):
            raise ShapeError(f"a packed {self.rows} x {self.n} factor has {size} entries, "
                             f"got shape {self.values.shape}")
        # One block at a time, so the check holds no whole-size temporary.
        if not all(np.isfinite(self.values[i : i + _BLOCK_FLOATS]).all()
                   for i in range(0, size, _BLOCK_FLOATS)):
            raise InvalidInputError("projection contains non-finite entries")

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``R``: entry j of column j, at packed offset j (j+3) / 2."""
        j = np.arange(self.rows)
        return self.values[j * (j + 3) // 2]


def _panels(rows: int, n: int):
    """Panels ``(a, b)`` of about ``_PANEL_FLOATS`` entries covering the columns of a rows x n factor.

    No panel crosses column ``rows``.  Left of it a panel's width is a
    multiple of ``_REFLECTOR_BLOCK`` (the last may be narrower), so the
    reflector blocks of a QR run panel by panel are those of one QR of all
    the leading columns.
    """
    width = max(1, _PANEL_FLOATS // rows)
    left = max(_REFLECTOR_BLOCK, width - width % _REFLECTOR_BLOCK)
    for a in range(0, rows, left):
        yield a, min(a + left, rows)
    for a in range(rows, n, width):
        yield a, min(a + width, n)


def _column_heads(heads, lengths) -> np.ndarray:
    """A mask over columns of ``lengths`` entries, one after another: True at the first ``heads`` of each."""
    lengths = np.asarray(lengths)
    runs = np.empty((lengths.size, 2), dtype=np.intp)
    runs[:, 0] = heads
    runs[:, 1] = lengths - runs[:, 0]
    return np.repeat(np.tile([True, False], lengths.size), runs.reshape(-1))


def _draw_t22(rng: np.random.Generator, values: np.ndarray, rows: int, n: int, q: int, dof: float) -> None:
    """Draw ``T22`` (see the module docstring) into the zeroed packed factor ``values``.

    Its q x n upper-trapezoidal entries come from the Bartlett law: the
    normals above the diagonal in column order, one draw per block of
    columns, then the diagonal, ``chi_{dof - i}`` in row ``i``.  Rows q to
    ``rows`` stay zero.
    """
    for cols in _column_blocks(rows, n):
        a, b = cols.start, cols.stop
        segment = values[_packed_offset(a, rows) : _packed_offset(b, rows)]
        if a >= rows:  # whole columns, normals in their first q rows
            segment.reshape(b - a, rows)[:, :q] = rng.standard_normal((b - a, q))
            continue
        # Column j keeps j + 1 entries, and its normals are the first min(j, q).
        columns = np.arange(a, b)
        drawn = _column_heads(np.minimum(columns, q), columns + 1)
        segment[drawn] = rng.standard_normal(np.count_nonzero(drawn))
    j = np.arange(q)
    values[j * (j + 3) // 2] = np.sqrt(rng.chisquare(dof - np.arange(q, dtype=np.float64)))


def _factor_panel(segment: np.ndarray, a: int, b: int, D: np.ndarray, Tv: np.ndarray,
                  scale: np.ndarray, floor: float) -> None:
    """Factor the packed columns [a, b), left of column ``rows``, in place.

    ``segment`` holds them; column j keeps ``a`` entries of the top block,
    then j - a + 1 of the triangle.  ``D[:, :a]`` and ``Tv[:, :a]`` hold
    the earlier panels' reflectors and ``scale[:a]`` their rows' scales;
    this panel's are written to ``D[:, a:b]``, ``Tv[:, a:b]`` and
    ``scale[a:b]``.
    """
    width = b - a
    heads = _column_heads(a, np.arange(a + 1, b + 1))
    if a:  # the earlier reflectors act on the top block and on D[:, a:b]
        top_t = segment[heads].reshape(width, a)
        lapack.dtpmqrt(0, D[:, :a], Tv[:, :a], top_t.T, D[:, a:b], trans="T",
                       overwrite_a=1, overwrite_b=1)
        top_t *= scale[:a]
        segment[heads] = top_t.reshape(-1)
        del top_t  # before the triangle's scratch, so that only one is held
    in_triangle = np.logical_not(heads, out=heads)
    lower = np.tri(width, dtype=bool)
    triangle_t = np.zeros((width, width))  # transposed, so the triangle is Fortran-ordered
    triangle_t[lower] = segment[in_triangle]
    t = lapack.dtpqrt(0, min(width, Tv.shape[0]), triangle_t.T, D[:, a:b],
                      overwrite_a=1, overwrite_b=1)[2]
    Tv[: t.shape[0], a:b] = t
    scale[a:b] = np.copysign(floor, np.diagonal(triangle_t))
    triangle_t *= scale[a:b]
    segment[in_triangle] = triangle_t[lower]


def _factor_packed(A: np.ndarray, w: float, r: int, T1: np.ndarray, values: np.ndarray, rows: int) -> None:
    """Overwrite the packed ``T22`` in ``values`` with the release factor ``R``.

    ``R`` is the positive-diagonal R factor of a QR of ``T A_hat / sqrt(r)``
    for the n x k factor ``A``, ``A_hat = [A^T; w I]`` and ``T`` from
    ``T1`` and ``T22``.  The triangular-pentagonal QR of ``[T22; D]`` is
    left-looking: each panel left of column ``rows`` takes the earlier
    panels' reflectors, is factored and is scaled (:func:`_factor_panel`).
    Right of column ``rows`` the packed columns are whole, and the
    reflectors are applied to them in place.
    """
    n, k = A.shape
    # The dense rows of T A_hat, over w: T11 A^T / w + T12.
    D = np.asfortranarray(T1[:, k:])
    D += T1[:, :k] @ (A.T / w)
    # The reflector blocks' triangular factors, and the rows' scales, which
    # make the diagonal positive and restore the floor and the 1/sqrt(r).
    Tv = np.empty((min(rows, _REFLECTOR_BLOCK), rows), order="F")
    scale = np.empty(rows)
    for a, b in _panels(rows, n):
        segment = values[_packed_offset(a, rows) : _packed_offset(b, rows)]
        if a < rows:
            _factor_panel(segment, a, b, D, Tv, scale, w / math.sqrt(r))
            continue
        block = segment.reshape(b - a, rows).T
        lapack.dtpmqrt(0, D[:, :rows], Tv, block, D[:, a:b], trans="T",
                       overwrite_a=1, overwrite_b=1)
        block *= scale[:, None]


def privatize_covariance(F, p: PrivacyParams, seed: int) -> PrivateProjection:
    """Release the Gram of a private projection for the covariance ``F F^T``.

    Args:
        F: n x k factor of the target covariance (rows are samples).
        p: privacy/accuracy parameters of this release.
        seed: 64-bit generator seed; identical (F, p, seed) gives a
            bit-identical release.

    Returns:
        PrivateProjection of ``R``, the min(r, n) x n upper-trapezoidal R
        factor with positive diagonal of a QR of the release
        ``P = (1/sqrt(r)) G [F^T; w I]``, drawn from its exact law (see the
        module docstring) without drawing ``P``, and packed.

    Raises InvalidInputError when the packed ``R`` cannot be allocated.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, k = A.shape
    r, w = jl_params(p)
    k1, rows = min(r, k), min(r, n)
    size = _packed_offset(n, rows)
    try:
        values = np.zeros(size)  # the only array of the factor's size
    except (MemoryError, ValueError) as exc:
        raise InvalidInputError(
            f"a release factor of {rows} x {n} float64, packed, needs {8.0 * size:.6g} bytes "
            f"and cannot be allocated: {exc}"
        ) from None
    rng = np.random.default_rng(int(seed))
    # Degrees of freedom as floats: r may exceed int64.
    T1 = np.triu(rng.standard_normal((k1, k + n)), 1)
    T1[range(k1), range(k1)] = np.sqrt(rng.chisquare(float(r) - np.arange(k1, dtype=np.float64)))
    _draw_t22(rng, values, rows, n, min(r - k1, n), float(r) - k1)
    _factor_packed(A, w, r, T1, values, rows)
    return PrivateProjection(values, rows, n)


def private_centered_sq_norm(F, p: PrivacyParams, seed: int) -> float:
    """``||P - row means||_F^2`` for a release ``P`` of ``F F^T``, drawn from its exact law.

    The value has the law of the centred sum of squares of the release
    ``P = (1/sqrt(r)) G [F^T; w I]`` (see the module docstring), so it
    carries that release's privacy guarantee; it is not the value of any
    release drawn from this seed.  It is the one number the analyst's denominator
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
    rf = float(r)  # r may exceed int64, and w^2 r may exceed float64
    total = float((lam + w2) @ (rng.chisquare(rf, size=q) / rf))
    if n - 1 > q:
        total += w2 * float(rng.chisquare(rf * (n - 1 - q)) / rf)
    return total


def private_sum_directional_variances(P: PrivateProjection, V) -> float:
    """Sum of query answers over the columns of ``V``: ``||R V||_F^2`` for the factor ``R``.

    A vector ``V`` is one query ``y``, answered as ``||R y||^2``.  Non-unit
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
    # R V summed over blocks of R's columns.  A block left of column ``rows``
    # is expanded into a zeroed scratch, whose entries below the block's
    # diagonal no earlier block has written; a block right of it is whole
    # columns, a contiguous run of the packed entries, and an unaligned wire
    # payload is copied one block at a time.
    rows = P.rows
    RV = np.zeros((rows, M.shape[1]))
    scratch = np.zeros((min(rows, max(1, _BLOCK_FLOATS // rows)), rows))
    for cols in _column_blocks(rows, P.n):
        a, b = cols.start, cols.stop
        packed = P.values[_packed_offset(a, rows) : _packed_offset(b, rows)]
        if a < rows:
            block = scratch[: b - a, :b]
            block[np.tri(b - a, b, a, dtype=bool)] = packed
            RV[:b] += block.T @ M[cols]
        else:
            RV += packed.reshape(b - a, rows).T @ M[cols]
    return float(np.sum(RV * RV))
