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
additive constant ``tau_mech = (1 + eta) w^2`` for unit queries.  The
paper's closed-form additive constant ``tau`` for the end-to-end ratio
guarantee is kept as its transcription, but no report carries it: it is a
loose analytical bound, while the report's bounds use ``tau_mech``, which
reflects the mechanism actually run.

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
straight into the scratch block where it becomes that panel of ``R`` (no
array is of the factor's size), with the min(r, k) dense rows ``D``
scaled by ``1/w`` so that the floor is applied once, to the finished
factor.  That costs about min(r, n) n - min(r, n)^2 / 2 normals and
O((k + 32)^2 min(r, n) n / 32) flops, against r (k+n) normals and
2 r k n flops for ``P``, and holds nothing of size r.

The QR runs right-looking, one row panel at a time, in 32-column blocks
through numpy (``np.linalg.qr``; ``_QR_BLOCK``).  A block of columns
[c, e) mixes only rows [c, e) of ``T_22`` with ``D``, so when panel [a, b)
comes up its rows are still the drawn ``T_22`` and only ``D`` carries the
earlier panels' updates.  The panel of h rows is drawn as a dense,
Fortran-ordered h x (n - a) block ``U``, its square (zero below the
diagonal) then its rectangle: the square's normals, column by column, then
the rectangle's, then the diagonal.  Each block of columns has one QR of
the (k1 + s) x s stack ``[D[:, c:e]; U[c:e, c:e]]`` of the k1 = min(r, k)
dense rows over the block's s rows of the square.  The dense rows go
first, so each column's reflector ends at the column's diagonal entry, and
LAPACK's QR inside numpy skips the zeros below it.  The scaled R factor
replaces ``U[c:e, c:e]``, and the stack's whole Q updates, through
``np.matmul`` in chunks of at most ``_APPLY_FLOATS`` entries, ``D`` and
``U[c:e, e:]`` right of the block, the rest of the square and the
rectangle together.  So each entry is drawn, updated by its own panel's
blocks and scaled once, and a panel is final when its turn ends: later
panels touch only their own rows and ``D``.  The square is then packed in place, in one
gather through the cached mask that the analyst unpacks with, onto the
entries just before the rectangle, which is already in packed order.
Every block lies in one scratch array so that its packed values start at
the same address, so the release, :func:`privatize_covariance_panels`, is
a :class:`_Factor` read once, whose panels are each a view of that
scratch: a writer ships each panel as it finishes, or the analyst sums
it, and holds O(panel + n k), nothing of the factor's size.  Its values
agree with LAPACK's one-shot QR of the same draw
(``dtpqrt`` and ``dtpmqrt`` on a dense min(r, n) x n buffer) to 1e-14 of
the factor's largest entry; they round differently.  Every draw comes from
SFC64 (:func:`_release_rng`), and a seed gives one fixed set of bytes on a
given numpy and BLAS at a given BLAS thread count.
Between 1 and 2 OpenBLAS threads, at d = 40 and n = 1500, 5,280 of the
factor's 1,125,750 entries differed, by at most 4.2e-17 of its largest
entry (sx was equal); at d = 2 the bytes were equal.

The analyst's product ``R V`` runs one panel at a time too: the panel's
packed triangle is scattered, through one cached boolean mask, into a new
zero-filled square, and the rectangle is multiplied where it lies.  The
square is Fortran-ordered, as LAPACK's ``dtpttr`` (which reads the same
column-packed storage) would return it, so its product with ``V`` makes
the same BLAS call and rounds the same.  It reads the factor through the
one factor type, :class:`_Factor`, whose panels come one reused buffer at
a time, from a stored package or as they are released, so the analyst
holds one panel and nothing of the factor's size.  The release,
the analyst and the exact-law draws run on numpy alone.

A release that is only ever reduced to its centred sum of squares
``sx = ||P J||_F^2`` (``J`` the centering matrix) is not drawn at all:
:func:`private_centered_sq_norm` draws sx from its exact law, a weighted
sum of chi-square draws whose weights are the centred spectrum of ``F``
and the floor, which :mod:`pitest.laws` holds beside the law of the
analyst's answers ``||P V||_F^2``.  That costs O(n k min(n, k)) and
min(k, n-1) + 1 chi-square draws, and holds nothing of size r.

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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .data import _as_float, _as_int, _as_sample_matrix
from .errors import InvalidInputError, ShapeError
from .laws import centered_spectrum, centered_sq_norm_law

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


# Rows to which panel heights are rounded; float64 entries per row panel
# of the release factor (1 MiB, so a panel stays small beside the factor).
# Both fix the wire layout through :func:`_panel_height`, so changing
# either is a format change.  Measured on a release at n = 2000, r = 2952
# drawn from SFC64 (2-core Xeon, medians of 15 interleaved repetitions):
# 2**16, 2**17, 2**18 and 2**19 entries (panels of 32, 64, 128 and 256
# rows) took 31.5, 30.3, 31.2 and 31.7 ms, and its 2.0 M normals alone
# about 20.5 ms.
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
    """A read-only mask of an h x h square's transpose: its entries above the diagonal in rows < ``drawn``.

    Those are the entries a panel's normals are drawn into.  ``mask[j, i]``
    stands for entry (i, j) of the square, so ``square.T[mask]`` walks them
    column by column, the order of a packed triangle.
    """
    mask = np.tri(h, h, -1, dtype=bool)
    mask[:, drawn:] = False
    mask.flags.writeable = False
    return mask


# Cached beside _diagonal_at: a panel height's mask (at most h^2 <= 2^17
# bytes) is built once, where Alice packs and Bob reads every panel of a
# factor through it.
@lru_cache(maxsize=16)
def _upper(h: int) -> np.ndarray:
    """A read-only mask of the lower triangle of h x h, diagonal included.

    On the transpose of a square it selects the square's upper triangle,
    column by column: the order of a packed triangle.
    """
    mask = np.tri(h, dtype=bool)
    mask.flags.writeable = False
    return mask


def _unpack_triangle(triangle: np.ndarray, h: int) -> np.ndarray:
    """A panel's packed triangle, expanded into a new zero-filled h x h square.

    Column j of the square takes the triangle's next j + 1 entries, in one
    scatter into the square's transpose.  The square is Fortran-ordered, as
    LAPACK's ``dtpttr`` returns it, so a product with it makes the same BLAS
    call and rounds the same.
    """
    square = np.zeros((h, h), order="F")
    square.T[_upper(h)] = triangle
    return square


def _check_panel(segment: np.ndarray, h: int) -> None:
    """Raise InvalidInputError unless a panel of h rows is finite with a positive diagonal.

    The one check of a released panel, made on each panel where Alice
    packs it and on each panel the package parser and Bob read.
    """
    if not np.isfinite(segment).all():
        raise InvalidInputError("projection contains non-finite entries (NaN or infinite)")
    if not (segment[_diagonal_at(h)] > 0.0).all():
        raise InvalidInputError("projection: a diagonal entry is not > 0")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy and accuracy parameters: of one release, or of a package's total budget.

    epsilon, delta: the differential-privacy budget; eta: multiplicative
    query accuracy in (0, 1); nu: per-query failure probability in (0, 1).
    Each is a number by the package's rule (README, "Library"), kept as
    a float.  A release (:func:`privatize_covariance_panels`,
    :func:`private_centered_sq_norm`, :func:`jl_params`) reads them as its
    own parameters.  ``AlicePackage.params``, :func:`pitest.protocol.alice_stream`
    and the CLI keep the package's total budget in them, spent over two
    releases; :meth:`half_budget` gives each release's parameters.
    """

    epsilon: float
    delta: float
    eta: float
    nu: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "delta", "eta", "nu"):
            value = getattr(self, name)
            number = _as_float(value, name)
            if not math.isfinite(number):
                raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, number)
        if self.epsilon <= 0.0:
            raise InvalidInputError(f"epsilon must be > 0, got {self.epsilon}")
        for name in ("delta", "eta", "nu"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise InvalidInputError(f"{name} must lie in (0, 1), got {getattr(self, name)}")

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
    ``eta^2 delta`` that underflows, and when ``m`` or ``n`` is not an integer.
    """
    m, n = _as_int(m, "m"), _as_int(n, "n")
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


def _factor_panel(U: np.ndarray, Dt: np.ndarray, floor: float, stack: np.ndarray) -> None:
    """Factor one drawn row panel in place, ``_QR_BLOCK`` columns at a time, and scale it.

    ``U`` is the panel's h x (n - a) block, as drawn: its square, zero below
    the diagonal, then its rectangle.  ``Dt`` is the transposed dense rows
    ``D`` from the panel's first column on, carrying the earlier panels'
    updates.  For the block of columns [c, e), the stack
    ``[D[:, c:e]; U[c:e, c:e]]`` of the dense rows over the block's square
    has one QR, and its Q updates, in one :func:`_apply_block`, the block's
    rows and ``D`` right of the block, which are no rows for the factor's
    last block.  Rows [c, e) are then final, so they come out scaled by
    ``floor`` with the sign of their diagonal.
    """
    h = U.shape[0]
    for c in range(0, h, _QR_BLOCK):
        e = min(c + _QR_BLOCK, h)
        s = e - c
        Q, R = np.linalg.qr(np.concatenate([Dt[c:e].T, U[c:e, c:e]]), mode="complete")
        scale = np.copysign(floor, np.diagonal(R))
        U[c:e, c:e] = R[:s] * scale[:, None]
        Q[:, :s] *= scale
        _apply_block(Q, Dt[e:], U[c:e, e:].T, stack)


def _release_rng(seed: int) -> np.random.Generator:
    """The generator of one release's noise: SFC64, seeded through ``SeedSequence(seed)``.

    ``seed`` must be an integer >= 0, else InvalidInputError.

    The one source of every draw of Alice's releases, the factor's
    (:func:`_release_panels`) and sx's (:func:`private_centered_sq_norm`).
    Neither SFC64 nor numpy's default PCG64 is a cryptographic generator,
    and numpy offers none: the noise stays secret only as long as the
    generator's state cannot be recovered from the release, which ships
    no seed and no raw output (README, "Threat model of the release
    noise").  SFC64 was taken for speed: 2.0 M normals, the draw of a
    release at n = 2000, took 20.5 ms against 24.8 ms from PCG64, and the
    whole release 31.3 ms against 36.5 ms (2-core Xeon, interleaved
    medians).
    """
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.SFC64(seed))


def _release_panels(A: np.ndarray, p: PrivacyParams, rng: np.random.Generator):
    """Yield the release factor ``R`` of the n x k factor ``A``, one row panel at a time.

    ``R`` is the positive-diagonal R factor of a QR of ``T A_hat / sqrt(r)``
    for ``A_hat = [A^T; w I]`` and ``T`` drawn from its Bartlett law (see
    the module docstring).  Every panel [a, b) of h rows, top down, is
    drawn into a dense, Fortran-ordered h x (n - a) block ``U`` of one
    scratch array of h0 n floats, h0 the first (largest) panel's height:
    the square's normals above its diagonal, column by column, then the
    rectangle's, then the diagonal, ``chi_{r - k1 - i}`` in row ``i``; rows
    from q = min(r - k1, n) on, and the square below its diagonal, are
    zero.  :func:`_factor_panel` factors and scales ``U``, and its square is
    packed in place, through the mask :func:`_upper` that the analyst
    unpacks with, onto the entries just before the rectangle.  The block
    lies at h0 (h0 - 1) / 2 - h (h - 1) / 2, so every panel's packed values
    start at h0 (h0 - 1) / 2.  Each panel is checked where it is packed
    (:func:`_check_panel`: finite, positive diagonal), and then
    ``(a, b, values)`` is yielded, ``values`` a view of the scratch: the
    panel is final, and valid until the next panel is asked for.  Every
    draw comes from ``rng``.
    """
    n, k = A.shape
    r, w = jl_params(p)
    k1, rows = min(r, k), min(r, n)
    q = min(r - k1, n)
    dof = float(r) - k1  # r may exceed int64
    T1 = np.triu(rng.standard_normal((k1, k + n)), 1)
    T1[range(k1), range(k1)] = np.sqrt(rng.chisquare(float(r) - np.arange(k1, dtype=np.float64)))
    # The dense rows of T A_hat, over w: T11 A^T / w + T12, held transposed
    # so that a range of columns is a range of rows.
    D = np.asfortranarray(T1[:, k:])
    D += T1[:, :k] @ (A.T / w)
    Dt = D.T
    floor = w / math.sqrt(r)
    h0 = _panel_height(rows, n)
    scratch = np.empty(h0 * n)
    packed = h0 * (h0 - 1) // 2  # where every panel's packed values start
    # The update's stack, for every block of the release: up to
    # _APPLY_FLOATS entries, and one row of the widest block at least.
    stack = np.empty(max(_APPLY_FLOATS, k1 + _QR_BLOCK))
    for a, b in _panels(rows, n):
        h = b - a
        drawn = min(max(q - a, 0), h)  # the panel's rows with Bartlett entries
        start = packed - h * (h - 1) // 2
        end = start + h * (n - a)
        U = scratch[start:end].reshape(n - a, h).T
        square, rect = U[:, :h], U[:, h:]
        square.fill(0.0)
        normals = _packed_normals(h, drawn)
        square.T[normals] = rng.standard_normal(np.count_nonzero(normals))
        if drawn == h:
            rng.standard_normal(out=rect.T)
        else:
            rect[drawn:] = 0.0  # the rows from q on, which the draw leaves
            if drawn:
                rect.T[:, :drawn] = rng.standard_normal((n - b, drawn))
        j = np.arange(drawn)
        square[j, j] = np.sqrt(rng.chisquare(dof - (a + j)))
        _factor_panel(U, Dt[a:], floor, stack)
        values = scratch[packed:end]
        values[: h * (h + 1) // 2] = square.T[_upper(h)]
        _check_panel(values, h)
        yield a, b, values


class _Factor(NamedTuple):
    """A packed rows x n release factor, read one checked row panel at a time: the one factor type.

    Each call of ``panels()`` is one pass over the factor, which yields
    ``(a, b, values)`` for each row panel [a, b), top down, ``values`` its
    packed segment, checked finite with a positive diagonal before it is
    yielded, and valid until the next panel is asked for.  A release
    (:func:`privatize_covariance_panels`) passes its one generator, so it
    is read once: a second pass yields nothing, which the analyst's sum
    refuses.  A stored package (:func:`pitest.protocol.read_package`)
    starts a new pass over its handle at each call.
    """

    rows: int
    n: int
    panels: Callable[[], Iterator]


def privatize_covariance_panels(F, p: PrivacyParams, seed: int) -> _Factor:
    """Release the Gram of a private projection for the covariance ``F F^T``, one row panel at a time.

    Args:
        F: n x k factor of the target covariance (rows are samples).
        p: privacy/accuracy parameters of this release.
        seed: generator seed, an integer >= 0; identical (F, p, seed)
            gives a bit-identical release.

    Returns ``R``, the min(r, n) x n upper-trapezoidal R factor with
    positive diagonal of a QR of the release ``P = (1/sqrt(r)) G [F^T; w I]``,
    drawn from its exact law (see the module docstring) without drawing
    ``P``, as a :class:`_Factor` read once: its ``panels()`` returns the
    release's one generator of the packed row panels, top down, each
    checked finite with a positive diagonal where it is packed, before it
    is yielded.  Every panel is released into one reused scratch array, so
    a yielded panel is valid until the next is asked for, and the release
    holds O(panel + n k), nothing of the factor's size.  ``F``, ``p`` and
    ``seed`` are checked before this returns.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    n, rng = A.shape[0], _release_rng(seed)
    released = _release_panels(A, p, rng)
    return _Factor(min(jl_params(p).r, n), n, lambda: released)


def private_centered_sq_norm(F, p: PrivacyParams, seed: int) -> float:
    """``||P - row means||_F^2`` for a release ``P`` of ``F F^T``, drawn from its exact law.

    The value has the law of the centred sum of squares of the release
    ``P = (1/sqrt(r)) G [F^T; w I]`` (see the module docstring), so it
    carries that release's privacy guarantee; it is not the value of any
    release drawn from this seed.  It is the one number the analyst's denominator
    needs from the release of ``X X^T``: ``||P J||_F^2`` for the centering
    matrix ``J``.  Its chi-square draws come from the release's generator,
    SFC64 seeded with ``seed`` (:func:`_release_rng`), an integer >= 0,
    which is checked before anything is drawn.  Nothing of size r is drawn
    or held.
    """
    A = _as_sample_matrix(F, "factor", min_rows=2)
    r, w = jl_params(p)
    law = centered_sq_norm_law(centered_spectrum(A), A.shape[0], r, w)
    return float(law.draws(_release_rng(seed), 1)[0])


def private_sum_directional_variances(P, V) -> float:
    """Sum of query answers over the columns of ``V``: ``||R V||_F^2`` for the factor ``R``.

    ``P`` is a :class:`_Factor`, whose ``panels()`` yields
    ``(a, b, segment)`` for each packed row panel [a, b), top down: a
    package's factor (:func:`pitest.protocol.read_package`), read from its
    handle one panel at a time on every pass, or a release
    (:func:`privatize_covariance_panels`), read once as it is released.
    The panels must tile rows [0, rows) in order, else InvalidInputError
    names the rows they covered: so a release read a second time, which
    yields no panel, raises.  A vector ``V`` is one query ``y``, answered
    as ``||R y||^2``.  Non-unit directions are answered as asked; the value
    scales as ``||y||^2``, so callers normalize when the unit-direction
    convention matters.
    """
    M = _as_sample_matrix(V, "query matrix")
    if M.shape[0] != P.n:
        raise ShapeError(f"query matrix must have {P.n} rows, got shape {M.shape}")
    # R V one row panel at a time: the packed triangle expanded into a new
    # square (a temporary of the statement, so no square outlives its panel)
    # and the rectangle multiplied as it lies.
    RV = np.empty((P.rows, M.shape[1]))
    covered = 0
    for a, b, segment in P.panels():
        if a != covered:
            raise InvalidInputError(f"the factor's panels covered rows [0, {covered}) of "
                                    f"{P.rows}, then gave rows [{a}, {b})")
        triangle, rect = _split_panel(segment, b - a)
        RV[a:b] = _unpack_triangle(triangle, b - a) @ M[a:b] + rect @ M[b:]
        covered = b
    if covered != P.rows:
        raise InvalidInputError(f"the factor's panels covered rows [0, {covered}) of {P.rows}: "
                                "a factor read once was read again, or its panels ended early")
    with np.errstate(over="ignore"):  # an overflow is inf, which the caller refuses
        return float(np.sum(RV * RV))
