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
and kept packed in row panels: rows [a, b) of ``R`` are stored as their
(b - a) x (b - a) diagonal block, an upper triangle packed column by
column, then the (b - a) x (n - b) rectangle right of it in column-major
order, panel after panel, so the zeros below the diagonal are neither
stored nor shipped.  Every panel but the last has the height of
:func:`_panel_height`, a multiple of 16 rows.
Write ``G = Q T`` for a QR of ``G`` with ``T`` upper trapezoidal and
positive on its diagonal; then ``P^T P = (T A_hat)^T (T A_hat) / r``, so ``R``
is the R factor of ``T A_hat / sqrt(r)``.  By Bartlett's decomposition the
entries of ``T`` are independent, with ``T_ii ~ chi_{r-i}`` (counting from
0) and ``T_ij ~ N(0, 1)`` for ``j > i``.  Splitting ``T`` after row
``min(r, k)`` and column ``k``, ``T A_hat`` is the min(r, k) dense rows
``T_11 F^T + w T_12`` stacked over the upper-trapezoidal ``w T_22``, and
``R`` is the R factor of a QR of that stack's leading min(r, n) columns,
whose Q is applied to the rest.  Each row panel of ``T_22`` is drawn
straight into the packed scratch panel where it becomes that panel of
``R`` (no array is of the
factor's size), with the min(r, k) dense rows ``D`` scaled by ``1/w`` so
that the floor is applied once, to the finished factor.  That costs about
min(r, n) n - min(r, n)^2 / 2 normals and O((k + 32)^2 min(r, n) n / 32)
flops, against r (k+n) normals and 2 r k n flops for ``P``, and holds
nothing of size r.

The QR runs right-looking, one row panel at a time, in a packed scratch
panel, in 32-column blocks through numpy (``np.linalg.qr``; ``_QR_BLOCK``).
A block of columns [c, e) mixes only rows [c, e) of ``T_22`` with ``D``, so
when panel [a, b) comes up its rows are still the drawn ``T_22`` and only
``D`` carries the earlier panels' updates.  The panel's normals are drawn
into place (the triangle's, column by column, then the rectangle's, then
its diagonal).  Then each block of the panel's columns has one QR of the
(k1 + s) x s stack ``[D[:, c:e]; T_22[c:e, c:e]]`` of the k1 = min(r, k)
dense rows over the block's s rows of the triangle.  The dense rows go
first, so each column's reflector ends at the column's diagonal entry, and
LAPACK's QR inside numpy skips the zeros below it.  The stack's whole Q
updates the block's rows and ``D`` right of the block (the rest of the
panel's triangle, its rectangle and ``D[:, b:]``) through ``np.matmul``,
in chunks of at most ``_APPLY_FLOATS`` entries; a block with nothing right
of it takes the R factor alone.  The block's rows are then final, and are
written scaled.  So each entry is drawn, updated by its own panel's blocks
and scaled once, and a panel is final when its turn ends: later panels
touch only their own rows and ``D``.  So the release,
:func:`privatize_covariance_panels`, is a generator of panels, each
released into the same scratch panel: a writer ships each panel as it
finishes and holds O(panel + n k), nothing of the factor's size.  Its
values agree with LAPACK's one-shot QR of the same draw (``dtpqrt`` and
``dtpmqrt`` on a dense min(r, n) x n buffer) to 1e-14 of the factor's
largest entry; they round differently, and a seed gives one fixed set of
bytes on a given numpy and BLAS.

The analyst's product ``R V`` runs one panel at a time too: the panel's
packed triangle is copied, 16 columns at a time through a boolean mask,
into a new zero-filled square, and the rectangle is multiplied where it
lies.  The square is Fortran-ordered, as LAPACK's ``dtpttr`` (which reads
the same column-packed storage) would return it, so its product with ``V``
makes the same BLAS call and rounds the same.  It reads the factor only
through its panels, one reused buffer at a time from a package, so the
analyst holds one panel and nothing of the factor's size.  The release,
the analyst and the exact-law samplers below run on numpy alone.

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

which costs O(n k min(n, k)) for the eigenvalues (the squared singular
values of ``Fc``) and q + 1 chi-square draws, and holds nothing of size r.
Each draw is divided by r before it is weighted, so sx stays finite when r
is too large for ``w^2 r``.

The same holds for the analyst's answer to m queries, ``||P V||_F^2`` for
an n x m ``V``, when only its law is wanted (the privacy-utility sweep):
each row of ``P V`` is ``N(0, C / r)`` with
``C = (F^T V)^T (F^T V) + w^2 V^T V``, so with ``mu_j`` the m eigenvalues
of ``C``

    ||P V||_F^2 = sum_{j<=m} mu_j g_j / r,     g_j ~ chi^2_r, independent,

which ``_projected_sq_norm_law`` draws from ``F^T V`` and ``V^T V``
alone, in O(n k m) and m chi-square draws.  Both samplers share
one weighted chi-square draw, ``_ChiSquareMix``.

Privacy is unchanged by any of these draws: (epsilon, delta) differential
privacy is a property of the law of a mechanism's output.  ``R``, ``sx``
and ``||P V||_F^2`` are data-independent functions (a QR factor, a centred
sum of squares, a sum of query answers) of an (epsilon, delta)-DP release,
so they are post-processing of it, and for every ``F`` the exact-law draws
have exactly their laws.  So the shipped values satisfy the release's
guarantee, though for a given seed they are not the functions of any one
``P`` drawn from that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .data import _as_sample_matrix
from .errors import InvalidInputError, ShapeError

__all__ = [
    "PrivacyParams",
    "JlParams",
    "jl_params",
    "tau",
    "tau_mechanism",
    "privatize_covariance_panels",
    "private_centered_sq_norm",
    "private_sum_directional_variances",
]


# Rows to which panel heights are rounded, and the width of the analyst's
# fill of a packed triangle; float64 entries per row panel of the release
# factor (1 MiB, so a panel stays small beside the factor).  Both fix the
# wire layout through :func:`_panel_height`, so changing either is a format
# change.  Measured on a release at n = 2000, r = 2952 (2-core box, medians
# of 15 interleaved repetitions): 2**16, 2**17, 2**18 and 2**19 entries
# (panels of 32, 64, 128 and 256 rows) took 67, 66, 67 and 70 ms, the
# normals alone about 40 ms.
_REFLECTOR_BLOCK = 16
_PANEL_FLOATS = 2**17

# Columns per QR of the release, and float64 entries per work buffer of the
# update that applies a block's Q to the entries right of it.  Neither is
# part of the layout.
_QR_BLOCK = 32
_APPLY_FLOATS = 2**14


def _panel_height(rows: int, n: int) -> int:
    """Rows per panel of a packed rows x n factor, the last panel excepted.

    About ``_PANEL_FLOATS`` entries of n-wide rows, rounded down to a
    multiple of ``_REFLECTOR_BLOCK`` but at least one block, and at most
    ``rows``.  This decides the packed layout, for the release, the
    analyst and the parser alike.
    """
    h = _PANEL_FLOATS // n
    return min(rows, max(_REFLECTOR_BLOCK, h - h % _REFLECTOR_BLOCK))


def _row_offset(a: int, n: int) -> int:
    """Entries of a packed factor n wide before its row ``a``: row i keeps its n - i entries.

    For ``a = rows`` it is the length of the whole packed factor.
    """
    return a * n - a * (a - 1) // 2


def _panels(rows: int, n: int):
    """The row panels ``(a, b)`` of a packed rows x n factor, top down."""
    h = _panel_height(rows, n)
    for a in range(0, rows, h):
        yield a, min(a + h, rows)


def _split_panel(segment: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """A panel's packed ``segment`` of h rows: its packed triangle, and its rectangle.

    The triangle holds column j of the panel's h x h diagonal block as its
    first j + 1 entries, the columns one after another; the rectangle is
    the h-row block right of it, a Fortran-ordered view.
    """
    t = h * (h + 1) // 2
    return segment[:t], segment[t:].reshape(-1, h).T


# Cached because every panel is checked where it is read: on a tall-n
# package (n = 2000, r = 2952, 32 panels of 64 rows) bob_evaluate took
# 3.26-3.34 ms with the cache and 3.49-3.56 ms without it (medians of 100
# interleaved calls, three repetitions, 2-core Xeon).
@lru_cache(maxsize=16)
def _diagonal_at(h: int) -> np.ndarray:
    """Where the diagonal of a panel of h rows lies in its segment: row j's entry is j (j+3) / 2 in."""
    j = np.arange(h)
    at = j * (j + 3) // 2
    at.flags.writeable = False
    return at


@lru_cache(maxsize=16)
def _packed_normals(h: int, drawn: int) -> np.ndarray:
    """A mask of the packed triangle of h rows: its entries above the diagonal in rows < ``drawn``.

    Those are the entries a panel's normals are drawn into.  ``square[j, i]``
    stands for entry (i, j) of the triangle, so its lower triangle, read row
    by row, walks the packed entries column by column.
    """
    square = np.tri(h, h, -1, dtype=bool)
    square[:, drawn:] = False
    normals = square[np.tri(h, dtype=bool)]
    normals.flags.writeable = False
    return normals


def _unpack_triangle(triangle: np.ndarray, h: int) -> np.ndarray:
    """A panel's packed triangle, expanded into a new zero-filled h x h square.

    Column j of the square takes the triangle's next j + 1 entries.  The
    square is Fortran-ordered, as LAPACK's ``dtpttr`` returns it, so a
    product with it makes the same BLAS call and rounds the same.  It is
    filled ``_REFLECTOR_BLOCK`` columns at a time: columns [c, d) take their
    rows [0, d) through a d-wide slice of one ``np.tri`` mask, built once
    per call, whose row k keeps rows [0, c + k] of column c + k.
    """
    square = np.zeros((h, h), order="F")
    width = _REFLECTOR_BLOCK
    mask = np.tri(width, h + width, h, dtype=bool)  # mask[k, h - c + i] is i <= c + k
    start = 0
    for c in range(0, h, width):
        d = min(c + width, h)
        stop = start + (d * (d + 1) - c * (c + 1)) // 2
        square[:d, c:d].T[mask[: d - c, h - c : h - c + d]] = triangle[start:stop]
        start = stop
    return square


def _check_panel(segment: np.ndarray, h: int) -> None:
    """Raise InvalidInputError unless a panel of h rows is finite with a positive diagonal.

    The one check of a released panel, made on each panel Alice writes and
    on each panel the package parser and Bob read.
    """
    if not np.isfinite(segment).all():
        raise InvalidInputError("projection contains non-finite entries (NaN or infinite)")
    if not (segment[_diagonal_at(h)] > 0.0).all():
        raise InvalidInputError("projection: a diagonal entry is not > 0")


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
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
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


def _apply_block(Q: np.ndarray, Dt: np.ndarray, Ut: np.ndarray, stack: np.ndarray) -> None:
    """Overwrite ``Ut`` (m x s) and ``Dt`` (m x k1) with ``[Dt | Ut] @ Q``, a block's update.

    ``Q`` is the (k1 + s) x (k1 + s) Q factor of the block's stack, dense
    rows first, its first s columns scaled; row j of ``Dt`` and of ``Ut`` is
    column j of ``D`` and of the block's s rows, right of the block.  The
    product's first s columns are the block's rows, final and scaled; the
    rest are the updated ``D``.  Each is written where it lies, in chunks
    of rows whose stack ``[Dt | Ut]`` fits in ``stack``.
    """
    m, s = Ut.shape
    k1 = Dt.shape[1]
    width = k1 + s
    step = stack.size // width
    to_u, to_d = Q[:, :s], Q[:, s:]
    for u in range(0, m, step):
        v = min(u + step, m)
        x = stack[: (v - u) * width].reshape(v - u, width)
        x[:, :k1] = Dt[u:v]
        x[:, k1:] = Ut[u:v]
        np.matmul(x, to_u, out=Ut[u:v])
        np.matmul(x, to_d, out=Dt[u:v])


def _factor_panel(triangle: np.ndarray, rect: np.ndarray, Dt: np.ndarray, floor: float) -> None:
    """Factor one drawn row panel in place, ``_QR_BLOCK`` columns at a time, and scale it.

    ``triangle`` and ``rect`` are the panel's packed triangle and its
    rectangle, as drawn, and ``Dt`` is the transposed dense rows ``D`` from
    the panel's first column on, carrying the earlier panels' updates.  For
    the block of columns [c, e), the stack ``[D[:, c:e]; U[c:e, c:e]]`` of
    the dense rows over the block's triangle has one QR, and its Q updates
    the block's rows and ``D`` right of the block: the rest of the triangle,
    the rectangle and the rest of ``D``.  Rows [c, e) are then final, so
    they come out scaled by ``floor`` with the sign of their diagonal.  The
    work buffer is this call's, so it does not outlive the panel.
    """
    h, k1 = rect.shape[0], Dt.shape[1]
    j = np.arange(h)
    # Entry (i, j) of the triangle lies at j (j + 1) / 2 + i, so entry
    # (c + i, j) lies at place[j, i] in triangle[c:], for i < _QR_BLOCK.
    place = (j * (j + 1) // 2)[:, None] + j[:_QR_BLOCK]
    lower = np.tri(_QR_BLOCK, dtype=bool)
    # The update's stack: as many rows as the longest update needs, up to
    # _APPLY_FLOATS entries, and one row at least.
    width = k1 + min(h, _QR_BLOCK)
    stack = np.empty(max(width, min(_APPLY_FLOATS, width * max(h - _QR_BLOCK, rect.shape[1]))))
    for c in range(0, h, _QR_BLOCK):
        e = min(c + _QR_BLOCK, h)
        s = e - c
        below = triangle[c:]
        kept = lower[:s, :s]  # kept[j', i'] is i' <= j'
        at = place[c:e, :s][kept]  # the block's entries (c + i', c + j'), column by column
        X = np.zeros((k1 + s, s))
        X[:k1] = Dt[c:e].T
        X[k1:].T[kept] = below[at]
        if e == h and rect.shape[1] == 0:  # nothing right of the block
            R = np.linalg.qr(X, mode="r")
            below[at] = (R.T * np.copysign(floor, np.diagonal(R)))[kept]
            break
        Q, R = np.linalg.qr(X, mode="complete")
        scale = np.copysign(floor, np.diagonal(R))
        below[at] = (R[:s].T * scale)[kept]
        Q[:, :s] *= scale
        if e < h:
            right = place[e:, :s]  # rows [c, e) of the triangle's columns right of the block
            Ut = below[right]
            _apply_block(Q, Dt[e:h], Ut, stack)
            below[right] = Ut
        if rect.shape[1]:
            _apply_block(Q, Dt[h:], rect.T[:, c:e], stack)


def _release_panels(A: np.ndarray, p: PrivacyParams, seed: int):
    """Yield the release factor ``R`` of the n x k factor ``A``, one row panel at a time.

    ``R`` is the positive-diagonal R factor of a QR of ``T A_hat / sqrt(r)``
    for ``A_hat = [A^T; w I]`` and ``T`` drawn from its Bartlett law (see
    the module docstring).  Every panel [a, b), top down, is released into
    the leading entries of one scratch array of the first (largest) panel's
    packed length, so no two panels' arrays are held at once.  Every entry
    is written: the panel's Bartlett entries are drawn (the triangle's
    normals in column order, then the rectangle's, then the diagonal,
    ``chi_{r - k1 - i}`` in row ``i``; rows from q = min(r - k1, n) on are
    zero), and :func:`_factor_panel` factors and scales the panel.  Then
    ``(a, b, values)`` is yielded, ``values`` a view of the scratch: the
    panel is final, and valid until the next panel is asked for.
    """
    n, k = A.shape
    r, w = jl_params(p)
    k1, rows = min(r, k), min(r, n)
    q = min(r - k1, n)
    dof = float(r) - k1  # r may exceed int64
    rng = np.random.default_rng(int(seed))
    T1 = np.triu(rng.standard_normal((k1, k + n)), 1)
    T1[range(k1), range(k1)] = np.sqrt(rng.chisquare(float(r) - np.arange(k1, dtype=np.float64)))
    # The dense rows of T A_hat, over w: T11 A^T / w + T12, held transposed
    # so that a range of columns is a range of rows.
    D = np.asfortranarray(T1[:, k:])
    D += T1[:, :k] @ (A.T / w)
    Dt = D.T
    floor = w / math.sqrt(r)
    scratch = np.empty(_row_offset(_panel_height(rows, n), n))
    for a, b in _panels(rows, n):
        hb = b - a
        drawn = min(max(q - a, 0), hb)  # the panel's rows with Bartlett entries
        values = scratch[: _row_offset(b, n) - _row_offset(a, n)]
        triangle, rect = _split_panel(values, hb)
        normals = _packed_normals(hb, drawn)
        triangle.fill(0.0)
        triangle[normals] = rng.standard_normal(np.count_nonzero(normals))
        if drawn == hb:
            rng.standard_normal(out=rect.T)
        else:
            rect[drawn:] = 0.0  # the rows from q on, which the draw leaves
            if drawn:
                rect.T[:, :drawn] = rng.standard_normal((n - b, drawn))
        triangle[_diagonal_at(hb)[:drawn]] = np.sqrt(
            rng.chisquare(dof - np.arange(a, a + drawn, dtype=np.float64)))
        _factor_panel(triangle, rect, Dt[a:], floor)
        yield a, b, values


def privatize_covariance_panels(F, p: PrivacyParams, seed: int) -> tuple[int, Iterator[np.ndarray]]:
    """Release the Gram of a private projection for the covariance ``F F^T``, one row panel at a time.

    Args:
        F: n x k factor of the target covariance (rows are samples).
        p: privacy/accuracy parameters of this release.
        seed: 64-bit generator seed; identical (F, p, seed) gives a
            bit-identical release.

    Returns the row count of ``R``, the min(r, n) x n upper-trapezoidal R
    factor with positive diagonal of a QR of the release
    ``P = (1/sqrt(r)) G [F^T; w I]``, drawn from its exact law (see the
    module docstring) without drawing ``P``, and an iterator over its
    packed row panels, top down, each finite with a positive diagonal.
    Every panel is released into one reused scratch array, so a yielded
    panel is valid until the next is asked for, and the release holds
    O(panel + n k), nothing of the factor's size.  ``F`` and ``p`` are
    checked before this returns.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    rows = min(jl_params(p).r, A.shape[0])

    def checked():
        for a, b, values in _release_panels(A, p, seed):
            _check_panel(values, b - a)
            yield values

    return rows, checked()


class _ChiSquareMix(NamedTuple):
    """The law of ``sum_j weights_j g_j / r + floor h / r``, drawn from a seed.

    ``g_j ~ chi^2_r`` and ``h ~ chi^2_{r dof}``, all independent (no ``h``
    when ``dof`` is 0): the law of a sum of squares of a release, see the
    module docstring.  Each draw is divided by r before it is weighted, so
    a value stays finite when r is too large for ``w^2 r``.
    """

    weights: np.ndarray
    r: int
    floor: float = 0.0
    dof: int = 0

    def draw(self, seed: int) -> float:
        rng = np.random.default_rng(int(seed))
        rf = float(self.r)  # r may exceed int64, and w^2 r may exceed float64
        total = float(self.weights @ (rng.chisquare(rf, size=self.weights.size) / rf))
        if self.dof:
            total += self.floor * float(rng.chisquare(rf * self.dof) / rf)
        return total


def _centered_spectrum(A: np.ndarray) -> np.ndarray:
    """The top ``min(k, n-1)`` eigenvalues of ``Ac^T Ac``, ascending, for the checked n x k ``A``.

    The squared singular values of the column-centred ``Ac``: all that the
    law of ``sx`` needs of the data, so a caller drawing many values of
    ``sx`` computes it once.
    """
    n, k = A.shape
    Ac = A - A.mean(axis=0, keepdims=True)
    q = min(k, n - 1)
    return np.linalg.svd(Ac, compute_uv=False)[q - 1 :: -1] ** 2


def _centered_sq_norm_law(lam: np.ndarray, n: int, p: PrivacyParams) -> _ChiSquareMix:
    """The law of ``||P J||_F^2`` for a release of n samples whose centred spectrum is ``lam``."""
    r, w = jl_params(p)
    w2 = w * w
    return _ChiSquareMix(lam + w2, r, w2, n - 1 - lam.size)


def _projected_sq_norm_law(FtV: np.ndarray, VtV: np.ndarray, p: PrivacyParams) -> _ChiSquareMix:
    """The law of ``||P V||_F^2`` for a release of ``F F^T``, from ``F^T V`` and ``V^T V``.

    Its weights are the eigenvalues of ``C = (F^T V)^T (F^T V) + w^2 V^T V``
    (see the module docstring), clipped at 0 against rounding.  When
    ``w^2`` overflows, ``C`` is not finite and neither is any draw; the
    weights are then infinite, as a draw of ``sx`` is, and the caller
    refuses the value.
    """
    r, w = jl_params(p)
    C = FtV.T @ FtV + (w * w) * VtV
    if not np.isfinite(C).all():
        return _ChiSquareMix(np.full(len(C), math.inf), r)
    return _ChiSquareMix(np.maximum(np.linalg.eigvalsh(C), 0.0), r)


def _as_queries(V, n: int) -> np.ndarray:
    """The query matrix ``V`` as n x m float64 (a vector is one query), checked finite."""
    M = np.asarray(V, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != n:
        raise ShapeError(f"query matrix must have {n} rows, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("query matrix contains non-finite entries")
    return M


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
    return _centered_sq_norm_law(_centered_spectrum(A), A.shape[0], p).draw(seed)


def private_sum_directional_variances(P, V) -> float:
    """Sum of query answers over the columns of ``V``: ``||R V||_F^2`` for the factor ``R``.

    ``P`` is read only through ``rows``, ``n`` and ``panels()``, which
    yields ``(a, b, segment)`` for each packed row panel [a, b), top down:
    a package's factor (:func:`pitest.protocol.read_package`), read from
    its handle one panel at a time.  A vector ``V`` is one query ``y``,
    answered as ``||R y||^2``.  Non-unit directions are answered as asked;
    the value scales as ``||y||^2``, so callers normalize when the
    unit-direction convention matters.
    """
    M = _as_queries(V, P.n)
    # R V one row panel at a time: the packed triangle expanded into a new
    # square (a temporary of the statement, so no square outlives its panel)
    # and the rectangle multiplied as it lies.
    RV = np.empty((P.rows, M.shape[1]))
    for a, b, segment in P.panels():
        triangle, rect = _split_panel(segment, b - a)
        RV[a:b] = _unpack_triangle(triangle, b - a) @ M[a:b] + rect @ M[b:]
    return float(np.sum(RV * RV))
