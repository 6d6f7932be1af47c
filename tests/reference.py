"""Vectorised n x n reference formulations used only by the test suite.

With squared distances the package evaluates one closed form,
``Gamma = n ||Xc^T Yc||_F^2 / (||Xc||_F^2 ||Yc||_F^2)``.  The routes it was
derived from (Szekely, Rizzo & Bakirov, 2007) build n x n distance matrices,
Laplacians and the centering matrix; they are kept here as references that
the tests compare the closed forms against, next to the pure-Python loops
of ``oracles.py``, with the normalised dependence
(``distance_correlation_sq``) that no production path reads.  They validate their inputs with the package's own
private helpers, so they accept and reject exactly what the package does.
The naive ratio interval, which the closed-form bounds of ``pitest.bounds``
are checked to contain, is kept here too, and so are the Gaussian release
itself and its reduction to its centred sum of squares, whose laws the
package's exact-law draws of the release factor and of ``sx`` are checked
against, the dense view of a packed release factor, and the dense release
(``dense_release``): the same draw, factored by LAPACK's one-shot QR on a
whole rows x n buffer, then packed, which the panel-by-panel release is
checked to agree with to ``LAPACK_AGREEMENT``.  A
packed factor is its 1-D array of packed values with its ``(rows, n)``.
So that a test can hold a release or a package whole, ``released``,
``held``, ``encoded`` and ``package_bytes`` collect copies of the panels
and parts that the program streams; ``encoded`` writes the parts of the
program's one encoder, ``pitest.protocol.package_parts``.  The cell by
cell CSV loader that ``pitest.data.load_csv`` replaced
(``load_csv_cellwise``) is kept as the oracle that the numpy reader is
checked to accept, refuse and read alike.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from pitest.data import _as_2d, _as_sample_matrix
from pitest.errors import CsvParseError, InsufficientSamplesError, InvalidInputError, ShapeError
from pitest.estimators import _centered, _paired_matrices
from pitest import privacy
from pitest.privacy import _REFLECTOR_BLOCK, PrivacyParams, jl_params
from pitest.protocol import alice_stream, package_parts


def pairwise_sq_dist(X) -> np.ndarray:
    """Matrix of squared Euclidean distances between rows of ``X``.

    Returns the n x n matrix with entries

    .. math:: a_{ij} = \\lVert x_i - x_j \\rVert^2,

    computed from explicit coordinate differences (not the Gram-matrix
    shortcut), so the result is exactly symmetric with an exactly zero
    diagonal and no negative round-off.
    """
    A = _as_sample_matrix(X)
    diff = A[:, None, :] - A[None, :, :]  # (n, n, d)
    return np.einsum("ijk,ijk->ij", diff, diff)


def double_center(M) -> np.ndarray:
    """Apply the double-centering map ``M -> J M J``.

    ``J = I - (1/n) e e^T`` removes row means, column means and restores the
    grand mean:

    .. math:: (JMJ)_{ij} = M_{ij} - \\bar{M}_{i\\cdot} - \\bar{M}_{\\cdot j} + \\bar{M}_{\\cdot\\cdot}

    The product is evaluated in this mean-subtraction form; ``e e^T`` is never
    materialized.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"double_center expects a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("double_center: input contains non-finite entries")
    row = A.mean(axis=1, keepdims=True)
    col = A.mean(axis=0, keepdims=True)
    grand = A.mean()
    return A - row - col + grand


def centering_matrix(n: int) -> np.ndarray:
    """The n x n centering matrix ``J = I - (1/n) e e^T``."""
    if n < 1:
        raise InvalidInputError(f"centering_matrix requires n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def adjacency_W(X) -> np.ndarray:
    """Centered squared-distance adjacency ``W = J E J``.

    ``E`` is the squared-distance matrix of ``X``.  Because ``J e = 0``,
    every row and column of ``W`` sums to zero.
    """
    A = _as_sample_matrix(X, min_rows=2)
    return double_center(pairwise_sq_dist(A))


def laplacian_W(X) -> np.ndarray:
    """Graph Laplacian ``L = D(W) - W`` of the centered-distance adjacency.

    The degree matrix ``D(W)`` (diagonal of row sums) vanishes identically
    because ``W``'s rows sum to zero, so ``L = -W``; the degrees are still
    computed and checked against a scale-aware zero tolerance so that a
    regression in the centering is caught here rather than downstream.  The
    result is positive semi-definite and equals ``2 J X X^T J``.
    """
    W = adjacency_W(X)
    n = W.shape[0]
    degrees = W.sum(axis=1)
    tol = 1e-9 * max(1.0, n * float(np.max(np.abs(W), initial=0.0)))
    if np.max(np.abs(degrees), initial=0.0) > tol:
        raise AssertionError(
            "degrees of the centered adjacency must vanish; centering is broken "
            f"(max |degree| = {np.max(np.abs(degrees)):.3e}, tolerance {tol:.3e})"
        )
    return np.diag(degrees) - W


def laplacian_S(n: int) -> np.ndarray:
    """Complete-graph Laplacian ``n I - e e^T`` on ``n`` vertices.

    Its eigenvalues are 0 (once) and ``n`` (with multiplicity ``n - 1``).
    """
    if n < 2:
        raise InvalidInputError(f"laplacian_S requires n >= 2, got {n}")
    return n * np.eye(n) - np.ones((n, n))


def factor_S(n: int) -> np.ndarray:
    """Factor ``G = sqrt(n) * J`` with ``G G^T = laplacian_S(n)``.

    ``G`` is n x n of rank ``n - 1`` (n - 1 singular values equal
    ``sqrt(n)``, one equals 0).
    """
    if n < 2:
        raise InvalidInputError(f"factor_S requires n >= 2, got {n}")
    return np.sqrt(n) * centering_matrix(n)


class DcovComponents(NamedTuple):
    """The three double-sum components R-hat, S-hat, T-hat."""

    r_hat: float
    s_hat: float
    t_hat: float


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

    Given ``B`` with ``B B^T = L`` (from :func:`pitest.protocol.factor_W`),
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


def distance_correlation_sq(X, Y) -> float:
    """Normalized dependence: ``dcov^2(X,Y) / sqrt(dcov^2(X,X) dcov^2(Y,Y))``.

    Evaluated in closed form as
    ``||Xc^T Yc||_F^2 / sqrt(||Xc^T Xc||_F^2 ||Yc^T Yc||_F^2)``.  No
    production path reads it; the tests pin it against the n x n route.
    Returns 0 when the product of the two self-dependence terms is zero
    (either dataset constant).  Values are clamped into [0, 1] only when
    within 1e-9 of a boundary; anything further out is returned as computed.
    """
    A, B = _paired_matrices(X, Y)
    Ac = _centered(A)
    Bc = _centered(B)
    M_xy = Ac.T @ Bc
    M_xx = Ac.T @ Ac
    M_yy = Bc.T @ Bc
    prod = float(np.sum(M_xx * M_xx)) * float(np.sum(M_yy * M_yy))
    if prod <= 0.0:
        return 0.0
    value = float(np.sum(M_xy * M_xy)) / math.sqrt(prod)
    if -1e-9 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-9:
        return 1.0
    return value


def s_hat_directional(Q, Y) -> float:
    """Denominator statistic from directional variance queries.

    ``Q`` is a (q, n) array whose Gram ``Q^T Q`` stands for ``X X^T``:
    ``X.T`` for the non-private value, a released projection's ``values``
    for the private one.  The statistic is
    ``(4/n^4) * ||Q G||_F^2 * Tr(Y^T L_S Y)`` with ``G = sqrt(n) J`` the
    complete-graph factor; since ``||Q G||_F^2 = n ||Q - row means||_F^2``,
    it is evaluated as ``(4/n^3) * ||Q - row means||_F^2 * Tr(Y^T L_S Y)``
    without forming ``G``, and ``Tr(Y^T L_S Y)`` as ``n ||Yc||_F^2`` from the
    column-centered ``Yc``.  The protocol does not call this: the data holder
    sends ``||P_X - row means||_F^2`` itself, drawn from its exact law.
    """
    Qm = _as_2d(Q, "Q")
    Ym = _as_sample_matrix(Y, "Y")
    n = Ym.shape[0]
    if Qm.shape[1] != n:
        raise ShapeError(f"Q answers queries of length {Qm.shape[1]}, but Y has {n} rows")
    if not np.all(np.isfinite(Qm)):
        raise InvalidInputError("Q contains non-finite entries")
    Qc = Qm - Qm.mean(axis=1, keepdims=True)
    Yc = _centered(Ym)
    return 4.0 / n**3 * float(np.sum(Qc * Qc)) * (n * float(np.sum(Yc * Yc)))


def gaussian_release(F, p: PrivacyParams, seed: int) -> np.ndarray:
    """The r x n Gaussian release ``P = (G_1 F^T + w G_2) / sqrt(r)`` itself.

    ``G = [G_1 G_2] = standard_normal((r, k+n))`` from the generator seeded
    with ``seed``.  ``pitest.privacy.privatize_covariance_panels`` releases
    the QR factor of such a release, drawn from its exact law without drawing
    ``G``; ``private_centered_sq_norm`` draws the centred sum of squares.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, k = A.shape
    r, w = jl_params(p)
    G = np.random.default_rng(int(seed)).standard_normal((r, k + n))
    return (G[:, :k] @ A.T + w * G[:, k:]) / math.sqrt(r)


def release_centered_sq_norm(F, p: PrivacyParams, seed: int) -> float:
    """``||P - row means||_F^2`` of the drawn release ``P = gaussian_release(F, p, seed)``.

    ``||P J||_F^2`` for the centering matrix ``J``, reduced from the whole
    r x n release; ``pitest.privacy.private_centered_sq_norm`` draws a number
    with the same law without drawing ``P``.
    """
    P = gaussian_release(F, p, seed)
    Pc = P - P.mean(axis=1, keepdims=True)
    return float(np.sum(Pc * Pc))


def _draw_bartlett(rng: np.random.Generator, r: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``T``, the R factor of a QR of an r x (k+n) standard normal matrix.

    ``T`` comes from its Bartlett law (see the ``pitest.privacy`` docstring)
    in two parts.  Returns ``T1``, its first min(r, k) rows, and a
    zero-filled min(r, n) x n Fortran-order array whose leading
    q = min(r - min(r, k), n) rows hold ``T22 = T[min(r, k):, k:]``; that
    array becomes the release factor.  ``T22`` is drawn in the order of the
    packed layout, one row panel [a, b) at a time, straight into place: the
    normals of the panel's triangle column by column, then those of its
    rectangle column by column, then its diagonal.
    """
    k1, rows = min(r, k), min(r, n)
    q = min(r - k1, n)
    Rt = np.zeros((n, rows))  # the factor's transpose, so the factor is Fortran-ordered
    # Degrees of freedom as floats: r may exceed int64.
    T1 = np.triu(rng.standard_normal((k1, k + n)), 1)
    T1[range(k1), range(k1)] = np.sqrt(rng.chisquare(float(r) - np.arange(k1, dtype=np.float64)))
    for a, b in privacy._panels(rows, n):
        c = min(b, q)  # rows a to c of the panel hold Bartlett entries
        for j in range(a, n):  # the normals above the diagonal, in rows a to c
            rng.standard_normal(out=Rt[j, a : max(a, min(j, c))])
        i = np.arange(a, max(a, c))
        Rt[i, i] = np.sqrt(rng.chisquare(float(r) - k1 - i.astype(np.float64)))
    return T1, Rt.T


def _factor_from_bartlett(A: np.ndarray, w: float, r: int, T1: np.ndarray, R: np.ndarray) -> None:
    """Overwrite ``R`` with the positive-diagonal R factor of a QR of ``T A_hat / sqrt(r)``.

    ``A`` is the n x k factor, ``T1`` and ``R`` (holding ``T22``) are as
    :func:`_draw_bartlett` returns them, and ``A_hat = [A^T; w I]``.  ``R``
    is updated in place: one ``dtpqrt`` of all its leading columns, whose
    reflectors ``dtpmqrt`` applies to the rest.
    """
    k = A.shape[1]
    rows, n = R.shape
    # The dense rows of T A_hat, over w: T11 A^T / w + T12.
    D = np.asfortranarray(T1[:, k:])
    D += T1[:, :k] @ (A.T / w)
    # A QR of [T22; D] over the leading columns, where T22 is square once
    # padded with zero rows (rows - q of them, at most k).
    _, V, Tv, _ = lapack.dtpqrt(0, min(rows, _REFLECTOR_BLOCK), R[:, :rows], D[:, :rows],
                                overwrite_a=1, overwrite_b=1)
    # Make the diagonal positive and restore the floor and the 1/sqrt(r).
    scale = np.copysign(w / math.sqrt(r), np.diagonal(R))
    columns = R.T
    for j in range(rows):
        columns[j, : j + 1] *= scale[: j + 1]  # zero below row j
    # When rows < n the same reflectors finish the trailing columns.  What
    # they leave of D is zero in exact arithmetic, since [T22; D] has only
    # ``rows`` nonzero rows.
    if rows < n:
        lapack.dtpmqrt(0, V, Tv, R[:, rows:], D[:, rows:], trans="T", overwrite_a=1, overwrite_b=1)
        R[:, rows:] *= scale[:, None]


# How far the release may stray from LAPACK's factor of the same draw:
# max |difference| / max |entry|.  The release factors in blocks of 32
# columns through numpy's QR, so it rounds differently from one ``dtpqrt``.
LAPACK_AGREEMENT = 1e-14


def relative_gap(actual, expected) -> float:
    """``max |actual - expected| / max |expected|``, for arrays of one shape."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def dense_release(F, p: PrivacyParams, seed: int) -> np.ndarray:
    """The packed values of the release factor, drawn and factored on a whole dense rows x n buffer.

    ``T`` is drawn panel by panel into a zeroed Fortran-order min(r, n) x n
    array, one ``dtpqrt`` factors all its leading columns, ``dtpmqrt``
    finishes the rest, and the result is packed.
    ``pitest.privacy.privatize_covariance_panels`` draws the same stream and
    factors it panel by panel with numpy's QR, so its panels agree with
    these values to ``LAPACK_AGREEMENT``.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, k = A.shape
    r, w = jl_params(p)
    T1, R = _draw_bartlett(np.random.default_rng(int(seed)), r, k, n)
    _factor_from_bartlett(A, w, r, T1, R)
    return pack_factor(R)


def _panel_entries(rows: int, n: int):
    """The packed order of a rows x n factor's entries, as ``(column, first row, last row + 1)``.

    Row panel after row panel: the columns of the panel's triangle, then
    those of its rectangle.
    """
    for a, b in privacy._panels(rows, n):
        for j in range(a, b):
            yield j, a, j + 1
        for j in range(b, n):
            yield j, a, b


def unpack_factor(values: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The dense rows x n factor ``R`` of the packed ``values``, zeros below the diagonal.

    The packed values are read in order, one column of a panel's triangle
    or rectangle at a time.
    """
    R = np.zeros((rows, n))
    at = 0
    for j, top, bottom in _panel_entries(rows, n):
        R[top:bottom, j] = values[at : at + bottom - top]
        at += bottom - top
    assert at == values.size
    return R


def pack_factor(R) -> np.ndarray:
    """The packed values of the upper trapezoid of a dense rows x n ``R`` (rows <= n)."""
    rows, n = R.shape
    return np.concatenate([R[top:bottom, j] for j, top, bottom in _panel_entries(rows, n)])


class PackedFactor(NamedTuple):
    """A packed factor in memory, offered as the analyst's sum reads a package's factor.

    ``panels()`` yields ``(a, b, segment)`` for each row panel [a, b), top
    down, ``segment`` a view of ``values``.  ``unpack_factor(*factor)``
    gives the dense factor.
    """

    values: np.ndarray
    rows: int
    n: int

    def panels(self):
        for a, b in privacy._panels(self.rows, self.n):
            yield a, b, self.values[privacy._row_offset(a, self.n) : privacy._row_offset(b, self.n)]


def released(F, p: PrivacyParams, seed: int) -> PackedFactor:
    """The release factor of ``privatize_covariance_panels(F, p, seed)``, its panels copied."""
    return held(privacy.privatize_covariance_panels(F, p, seed))


def held(factor) -> PackedFactor:
    """A factor read one panel at a time (a package's ``proj_B``, say), copied into memory.

    Each panel is copied as it comes: a release, or a package's reader,
    yields every panel in one reused buffer.
    """
    values = np.concatenate([segment.copy() for _, _, segment in factor.panels()])
    return PackedFactor(values, factor.rows, factor.n)


def encoded(package) -> bytes:
    """The bytes of ``package``: the parts of ``package_parts``, each written before the next is asked for."""
    buffer = io.BytesIO()
    for part in package_parts(package):
        buffer.write(part)
    return buffer.getvalue()


def package_bytes(X, p: PrivacyParams, master_seed: int) -> bytes:
    """The package of ``alice_stream(X, p, master_seed)``, encoded."""
    return encoded(alice_stream(X, p, master_seed))


class DistanceSpreadCheck(NamedTuple):
    """Result of the distance-spread precondition check."""

    holds: bool
    d_max: float
    d_min: float


def omega_le_s_condition(X) -> DistanceSpreadCheck:
    """Check the distance-spread precondition ``d_max <= ((n-1)/2) d_min^2``.

    ``d_max``/``d_min`` are the largest and smallest squared pairwise
    distances over distinct sample pairs.  Duplicate rows give
    ``d_min = 0`` and the condition trivially fails; a dataset with all rows
    identical is reported as a failing degenerate case, not an error.  Under
    this condition (with one-hot second datasets) the numerator statistic
    cannot exceed the denominator one.
    """
    D = pairwise_sq_dist(X)
    n = D.shape[0]
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    off_diag = D[~np.eye(n, dtype=bool)]
    d_max = float(off_diag.max())
    d_min = float(off_diag.min())
    if d_max == 0.0:  # all rows identical
        return DistanceSpreadCheck(holds=False, d_max=0.0, d_min=0.0)
    holds = d_max <= (n - 1) / 2.0 * d_min**2
    return DistanceSpreadCheck(holds=bool(holds), d_max=d_max, d_min=d_min)


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


def load_csv_cellwise(path, has_header: bool = False) -> np.ndarray:
    """A numeric CSV file as an n x d float64 matrix, read cell by cell.

    The csv module splits the records and Python's ``float`` reads each
    cell; blank records are skipped and the first record is the header
    when ``has_header``.  A ragged row, a cell that is not a number or not
    finite, and a file without rows raise CsvParseError naming the line and
    column (1-based, counting the header line if present).
    """
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, newline="") as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if (line_no == 1 and has_header) or not record:
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise CsvParseError(f"{path}: line {line_no}: expected {width} columns, got {len(record)}")
            parsed = []
            for col_no, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {line_no}, column {col_no}: not a number: {cell!r}") from None
                if not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: line {line_no}, column {col_no}: non-finite value {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)
