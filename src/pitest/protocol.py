"""The one-way two-party test protocol and its wire format.

Roles:

- The *data holder* (Alice) owns ``X``.  Alice takes the exact factor
  ``B = sqrt(2) (X - column means)`` of the centered-distance Laplacian
  ``L = B B^T`` of ``X`` and makes two private releases — a projection
  ``P_B`` for ``B B^T`` and ``P_X`` for ``X X^T`` — each spending half of
  the (epsilon, delta) budget.  The analyst reads ``P_B`` only through its
  Gram, so Alice ships ``R_B``, the min(r, n) x n triangular factor of a QR
  of ``P_B``, drawn from its exact law (see :mod:`pitest.privacy`) without
  drawing ``P_B``.  Of ``P_X`` the analyst needs one number,
  ``sx = ||P_X - row means||_F^2``, so Alice draws ``sx`` from its exact law
  (a weighted sum of chi-square draws, see :mod:`pitest.laws`) and never
  draws ``P_X``.  For every
  ``X`` both have the law of a data-independent function of their release,
  so they carry its guarantee.  The package of the total budget, ``R_B``
  (under the name ``proj_B``) and ``sx`` is all that ever leaves her side
  (the sample count is the width of ``R_B``); the release seeds do not.
- The *analyst* (Bob) owns ``Y``.  From the package alone he evaluates the
  private statistics

      omega_bar_sq = (2/n^2) * sum_i ||R_B y_i||^2           (columns of Y)
      s_bar        = (4/n^3) * sx * n ||Yc||_F^2

  (``||R_B y||^2 = ||P_B y||^2`` for every ``y``; the second is
  ``(4/n^4) ||P_X G||_F^2 Tr(Y^T L_S Y)`` with ``G = sqrt(n) J`` the
  complete-graph factor, never formed, and ``Tr(Y^T L_S Y) = n ||Yc||_F^2``
  for the column-centered ``Yc``, which keeps its precision when ``Y`` has a
  large mean; :func:`pitest.laws.private_statistics`), and judges them with
  the test's one rule, :func:`pitest.estimators.decide`, which rejects when
  ``Gamma = n * omega_bar_sq / s_bar`` exceeds its threshold.
  Nothing flows back, so the release's privacy guarantee is preserved
  under this post-processing.

Wire format (version 7): one line of canonical UTF-8 JSON (sorted keys,
compact separators) holding ``version``, ``n``, ``privacy`` and ``sx`` (a
finite number >= 0), padded with ASCII blanks before its newline byte so
that the line is a multiple of 8 bytes long, then the ``proj_B`` payload:
the factor ``R_B``, packed in row panels as :mod:`pitest.privacy` lays it
out and releases it, as raw little-endian IEEE-754 binary64 values.  The
factor has ``rows = min(r, n)`` rows for the ``r`` that the ``privacy``
fields imply for one release, and ``n`` columns, and the panel height is
a function of the two, so the header fixes the layout.  A package is
exactly the header line and ``8 * (rows (rows+1) / 2 + (n - rows) rows)``
payload bytes long (``8 n (n+1) / 2`` when r >= n).  Every payload value
must be finite, and every diagonal entry must be > 0.  ``sx`` is written
as the shortest decimal that reads back to the same float, and the
padding is fixed by the line's length, so round-trips are bit-exact and
equal packages are equal bytes.

One object, :class:`AlicePackage`, is the message on both sides, and its
factor has one type, :class:`pitest.privacy._Factor`, read one panel at
a time whether it is released or stored.  :func:`alice_stream` is the
one constructor: it gives the package with its factor read once, as it
is released; ``sx`` does not depend on ``R_B``, so it is drawn first.
:func:`package_parts` is the one encoder: the header line, then each
panel as it is released and checked.  :func:`read_package` is the one
reader: it checks the header line and the package's length, then reads
and checks one panel at a time when the analyst sums over them, so no
statistic is computed from a package before its last panel has passed.
Each side holds O(panel + n (d + m)), never the whole factor, and
``pi-test run`` hands the released package straight to
:func:`bob_evaluate`, with no encoding between, as
``bob_evaluate(alice_stream(X, p), Y)`` does in one process.  A package
that is evaluated more than once is written and read back with
:func:`read_package`.  The parser accepts only the header line that
:func:`package_parts` writes for the fields it reads, so one package has
one encoding, and the payload starts at a multiple of 8 bytes.
"""

from __future__ import annotations

import functools
import io
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import BinaryIO, Iterator

import numpy as np

from .errors import (
    InvalidInputError,
    PackageFormatError,
    ShapeError,
    UnsupportedVersionError,
)
from .data import _as_int, _as_sample_matrix
from .estimators import decide, rejection_threshold
from .laws import _finite_sx, check_sx, factor_W, private_statistics, query_matrix, yc_sq
from .privacy import (
    PrivacyParams,
    _Factor,
    _check_panel,
    _panel_height,
    _panels,
    _row_offset,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance_panels,
)
from .bounds import BoundsReport, check_s_param, evaluate_bounds, s_param_min

__all__ = [
    "FORMAT_VERSION",
    "AlicePackage",
    "TestReport",
    "alice_stream",
    "bob_evaluate",
    "package_parts",
    "read_package",
]

FORMAT_VERSION = 7
_SPLIT = "half-half"  # the budget split over the two releases
_HEADER_LIMIT = 1 << 16  # bytes of a package read in search of its header's newline


@dataclass(frozen=True, eq=False)
class AlicePackage:
    """Everything the data holder sends: the budget, a release factor and a scalar.

    ``params`` is the total budget; each release spent ``params.half_budget()``.
    ``proj_B`` has the Gram of a release ``P_B`` of ``B B^T``, and ``sx`` has
    the law of ``||P_X - row means||_F^2`` for a release ``P_X`` of
    ``X X^T``.  The sample count is the factor's width, so it is not stored
    again.  The factor is a :class:`pitest.privacy._Factor`, read one
    panel at a time: from the package's handle on every pass (see
    :func:`read_package`), or once, as it is released (see
    :func:`alice_stream`).
    """

    params: PrivacyParams
    proj_B: _Factor
    sx: float

    @property
    def n(self) -> int:
        return self.proj_B.n

    @property
    def entries(self) -> int:
        """Float64 entries of the packed factor."""
        return _row_offset(self.proj_B.rows, self.n)

    def __post_init__(self) -> None:
        check_sx(self.sx)


@dataclass(frozen=True)
class TestReport:
    """The analyst's verdict plus everything needed to audit it.

    After the verdict and its bounds come three sections of plain values.
    ``privacy`` is the package's header section: the total budget and its
    split.  ``release`` is the row count ``r`` and floor ``w`` of one
    release, the factor's ``rows`` and ``package_bytes``, the length of the
    package's encoding (for a package read from a file, its checked
    length).  ``floor`` has the spectral floor's share of each private
    statistic: ``omega_share`` is w^2 ||Q||_F^2 over
    ``||R Q||_F^2 = (n^2 / 2) omega_bar_sq``, for the matrix ``Q`` that Bob
    queries (``laws.query_matrix``: ``Y``, uncentred), and ``s_share`` is
    w^2 (n - 1) / sx.  A share near 1 means that statistic is mostly floor;
    either is None when its denominator is 0.  ``s_param_min`` is
    :func:`pitest.bounds.s_param_min`: up to rounding, an ``s_param`` not
    above it clamps the upper bound.
    """

    omega_bar_sq: float
    s_bar: float
    statistic: float | None
    threshold: float
    alpha: float
    reject: bool | None
    bounds: BoundsReport | None
    degenerate: bool
    n: int
    m: int
    privacy: dict
    release: dict
    floor: dict


def _release_seeds(master_seed: int | None) -> tuple[int, int]:
    """The 64-bit seeds of the ``B`` release and of the ``X`` release, from a master seed."""
    try:  # an integer by the package's rule, then one that SeedSequence takes
        entropy = None if master_seed is None else _as_int(master_seed, "master seed")
        seeds = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"invalid master seed {master_seed!r}: {exc}") from exc
    return int(seeds[0]), int(seeds[1])


def alice_stream(X, p: PrivacyParams, master_seed: int | None = None) -> AlicePackage:
    """The data holder's package of ``X``, its factor read once, as it is released.

    The one constructor of a package.  The master seed is expanded into
    one 64-bit seed per release (incidence factor first, data matrix
    second).  By default it is drawn from OS entropy; an explicit seed
    makes the package a deterministic function of (X, p, master_seed),
    which is for reproducible tests only, since anyone who knows it can
    regenerate the releases and recover ``X``.  Raw ``X``, its Laplacian
    factor ``B`` and the seeds stay on this side.

    ``sx`` does not depend on ``R_B``, so it is drawn here; each panel of
    ``R_B`` is released only when the factor's ``panels()`` asks for it,
    into one reused scratch panel, and checked (finite, positive
    diagonal), so Alice holds O(panel + n d), nothing of the factor's
    size.  Hand the package to :func:`bob_evaluate`, which reads the
    release as it is made (as ``pi-test run`` does), or to
    :func:`package_parts`, once: a second reading of the factor raises.
    To evaluate one package more than once, write its parts and read them
    back with :func:`read_package`.  ``X``, ``p`` and the seed are checked
    before this returns, and so is ``sx``: when it overflows,
    InvalidInputError names X's scale, or an epsilon whose floor alone
    overflows.  A panel that fails its check raises InvalidInputError
    when it is reached, so a writer of the parts must discard what it
    wrote.
    """
    A = _as_sample_matrix(X, "X", min_rows=2)
    seed_B, seed_X = _release_seeds(master_seed)
    per_release = p.half_budget()
    factor = privatize_covariance_panels(factor_W(A), per_release, seed_B)
    w = jl_params(per_release).w
    sx = _finite_sx(private_centered_sq_norm(A, per_release, seed_X), A.shape[0], w * w,
                    f"epsilon = {p.epsilon!r}")
    return AlicePackage(p, factor, sx)


def package_parts(pkg: AlicePackage) -> Iterator:
    """The encoding of ``pkg``, one part at a time: the header line, then each panel of its factor.

    The one writer of a package's bytes.  Each panel is its packed values
    as raw little-endian float64 bytes, read from the factor when it is
    asked for and valid until the next is: a released factor, or a read
    package's, hands out every panel in one reused buffer.  So write each
    part before asking for the next; ``b"".join(parts)``, which collects
    the parts before it copies them, reads every panel as the last one
    left it.  :func:`_package_bytes` gives the parts' total length before
    the first is asked for.
    """
    yield _header_line(pkg.n, pkg.params, pkg.sx)
    for _, _, values in pkg.proj_B.panels():
        yield _wire_bytes(values)


def bob_evaluate(pkg: AlicePackage, Y, alpha: float = 0.05, s_param: float | None = None) -> TestReport:
    """Evaluate the analyst's side of the protocol from a package and ``Y``: the whole report.

    Checks ``Y``, ``alpha`` and ``s_param``, sums the answers over the
    package's factor, forms the private statistics, judges them with
    :func:`pitest.estimators.decide`, evaluates the bounds with
    :func:`pitest.bounds.evaluate_bounds` and reports the release and its
    floor's share of each statistic.

    Args:
        pkg: the data holder's package.
        Y: analyst's n x m data matrix (must match the package's n).
        alpha: significance level in (0, 1).
        s_param: scale parameter for the closed-form upper bound, a positive
            finite number (:func:`pitest.bounds.check_s_param`); defaults
            to ``s_bar / n``, or to the least positive float where that
            quotient underflows to 0.  Values outside the validity region
            make the upper bound infinite (recorded in the report, not an
            error).

    Returns:
        TestReport.  ``degenerate`` is set (and statistic/reject/bounds are
        None) when the private denominator is not positive — e.g. constant
        ``Y``.  Deterministic given (pkg, Y, alpha, s_param): the analyst
        draws no randomness.  Raises InvalidInputError naming the data's
        scale when a statistic overflows.
    """
    Ym = _as_sample_matrix(Y, "Y", min_rows=2)
    if Ym.shape[0] != pkg.n:
        raise ShapeError(
            f"package was built for n = {pkg.n} samples but Y has {Ym.shape[0]} rows"
        )
    rejection_threshold(alpha)  # alpha and s_param are checked before the factor is read
    if s_param is not None:
        check_s_param(s_param)
    n, m = pkg.n, Ym.shape[1]
    per_release = pkg.params.half_budget()
    r, w = jl_params(per_release)

    Q = query_matrix(Ym)
    answers = private_sum_directional_variances(pkg.proj_B, Q)
    omega_bar_sq, s_bar = private_statistics(n, answers, pkg.sx, yc_sq(Ym))
    verdict = decide(omega_bar_sq, s_bar, n, alpha)
    degenerate = verdict.statistic is None
    if s_param is None:  # s_bar / n, or the least positive float where that underflows to 0
        s_param = max(s_bar / n, math.ulp(0.0))
    bounds = None if degenerate else evaluate_bounds(omega_bar_sq / s_bar, s_param, per_release)

    w2, answered = w * w, n * n / 2.0 * omega_bar_sq
    release = {"r": r, "w": w, "rows": pkg.proj_B.rows, "package_bytes": _package_bytes(pkg)}
    floor = {"omega_share": w2 * float((Q * Q).sum()) / answered if answered > 0.0 else None,
             "s_share": w2 * (n - 1) / pkg.sx if pkg.sx > 0.0 else None,
             "s_param_min": s_param_min(per_release)}
    return TestReport(omega_bar_sq, s_bar, *verdict, bounds, degenerate, n, m,
                      _privacy_section(pkg.params), release, floor)


def _privacy_section(params: PrivacyParams) -> dict:
    """The ``privacy`` section of a package header or a report: the four floats, then the split."""
    return {**asdict(params), "split": _SPLIT}


def _header_line(n: int, params: PrivacyParams, sx: float) -> bytes:
    """The canonical header line of a package: its JSON, padding blanks and newline."""
    header = {
        "version": FORMAT_VERSION,
        "n": n,
        "privacy": _privacy_section(params),
        "sx": float(sx),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Blanks before the newline start the payload at a multiple of 8 bytes.
    return head + b" " * (-(len(head) + 1) % 8) + b"\n"


def _wire_bytes(values: np.ndarray) -> memoryview:
    """Packed float64 ``values`` as little-endian bytes: a view, copied only on a big-endian host."""
    return memoryview(np.ascontiguousarray(values, dtype="<f8").view(np.uint8))


def _package_length(head_bytes: int, rows: int, n: int) -> int:
    """The length of a package's encoding: a header line of ``head_bytes``, then 8 bytes per packed entry.

    The one owner of the length: the file writer's preallocation, the report's
    ``package_bytes`` and the reader's length check all come from here.
    """
    return head_bytes + 8 * _row_offset(rows, n)


def _package_bytes(pkg: AlicePackage) -> int:
    """The length of the package's encoding, the parts of :func:`package_parts` together.

    For a package read from a handle it is the handle's length, which
    :func:`read_package` checked against it before reading any panel.
    """
    return _package_length(len(_header_line(pkg.n, pkg.params, pkg.sx)), pkg.proj_B.rows, pkg.n)


@contextmanager
def _malformed(prefix: str = ""):
    """Raise an InvalidInputError of the block as PackageFormatError, after ``prefix``.

    A package field that the owner of its rule refuses makes the package
    malformed.
    """
    try:
        yield
    except InvalidInputError as exc:
        raise PackageFormatError(f"{prefix}{exc}") from exc


def _require(doc: dict, field: str, where: str = "package"):
    if field not in doc:
        raise PackageFormatError(f"{where} is missing required section '{field}'")
    return doc[field]


def _parse_header(head: bytes) -> dict:
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackageFormatError(f"package header is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise PackageFormatError(f"package header is not valid JSON (truncated?): {exc}") from exc
    if not isinstance(doc, dict):
        raise PackageFormatError(f"package header must be a JSON object, got {type(doc).__name__}")
    return doc


def _read_header(data: bytes) -> tuple[int, PrivacyParams, float, int, int]:
    """Parse and check the header line at the start of ``data``: the one header check.

    ``data`` is the first line of a package, newline included.  Without a
    newline all of ``data`` is read as the header, so a document of
    another format version is still reported by its version.  Only the
    line that :func:`_header_line` writes for the parsed fields is
    accepted, which also starts the payload at a multiple of 8 bytes.
    Returns the fields ``(n, params, sx)``, then the factor's row count and
    the offset where the payload starts.
    """
    end = data.find(b"\n")
    doc = _parse_header(data if end < 0 else data[:end])
    with _malformed():
        version = _as_int(_require(doc, "version"), "version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported package version {version}; this build reads version {FORMAT_VERSION}"
        )
    if end < 0:
        raise PackageFormatError("package header is not followed by a newline (truncated?)")

    with _malformed():
        n = _as_int(_require(doc, "n"), "n")
    if n < 2:
        raise PackageFormatError(f"n must be an integer >= 2, got {n!r}")

    privacy = _require(doc, "privacy")
    if not isinstance(privacy, dict):
        raise PackageFormatError("section 'privacy' must be an object")
    fields = [_require(privacy, f, "section 'privacy'") for f in ("epsilon", "delta", "eta", "nu")]
    split = _require(privacy, "split", "section 'privacy'")
    if split != _SPLIT:
        raise PackageFormatError(f"unsupported budget split {split!r}; expected {_SPLIT!r}")
    with _malformed("invalid privacy parameters: "):
        params = PrivacyParams(*fields)
        # The header fixes the factor's row count: min(r, n) for r of one release.
        rows = min(jl_params(params.half_budget()).r, n)

    with _malformed("invalid package: "):  # json.loads reads NaN and Infinity, and 1e400 as inf
        sx = check_sx(_require(doc, "sx"))

    offset = end + 1
    if data[:offset] != _header_line(n, params, sx):
        raise PackageFormatError(
            "package header is not the canonical line for its fields (sorted keys, no blanks, "
            "shortest numbers, padding to a multiple of 8 bytes)"
        )
    return n, params, sx, rows, offset


def _stored_panels(handle: BinaryIO, offset: int, rows: int, n: int) -> Iterator:
    """One pass over the packed rows x n factor stored in ``handle`` from ``offset``: each row panel, checked.

    The payload is read into one reused, aligned panel buffer, and each
    panel is checked (finite, positive diagonal) before it is yielded; a
    failure raises PackageFormatError, so nothing computed from the factor
    outlives a bad panel.
    """
    buffer = np.empty(_row_offset(_panel_height(rows, n), n), dtype="<f8")
    handle.seek(offset)
    for a, b in _panels(rows, n):
        segment = buffer[: _row_offset(b, n) - _row_offset(a, n)]
        if handle.readinto(segment) != segment.nbytes:
            raise PackageFormatError(f"package ends inside the panel of rows {a} to {b - 1}")
        with _malformed("section 'proj_B': "):  # finite, positive diagonal
            _check_panel(segment, b - a)
        yield a, b, segment


def read_package(handle: BinaryIO) -> AlicePackage:
    """The package in an open, seekable binary handle, with its factor left in the handle.

    The handle is read from its start, whatever its position: a file, or
    an ``io.BytesIO`` of a package's bytes.  The header line and the
    handle's exact length are checked here, before any of the factor is
    read.  The package's factor is a :class:`pitest.privacy._Factor` whose
    every pass reads the handle one row panel at a time, each panel checked
    (:func:`_stored_panels`), so the reader holds one panel and never the
    whole factor, and the factor can be read any number of times.  The
    handle must stay open and unchanged while the package is used.  Raises PackageFormatError (or its
    UnsupportedVersionError subclass) for every malformed package.
    """
    handle.seek(0)
    line = handle.readline(_HEADER_LIMIT)
    if not isinstance(line, bytes):
        raise PackageFormatError(f"package must be bytes, got {type(line).__name__}")
    n, params, sx, rows, offset = _read_header(line)
    length, expected = handle.seek(0, io.SEEK_END), _package_length(offset, rows, n)
    if length != expected:
        raise PackageFormatError(
            f"package holds {length} bytes, expected {expected} (header, newline and the "
            f"{_row_offset(rows, n)} float64 of a packed {rows}x{n} factor)"
        )
    factor = _Factor(rows, n, functools.partial(_stored_panels, handle, offset, rows, n))
    return AlicePackage(params, factor, sx)

