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
  (a weighted sum of chi-square draws) and never draws ``P_X``.  For every
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
  large mean), forms ``Gamma = n * omega_bar_sq / s_bar``, and applies the
  rejection rule.  Nothing flows back, so the release's privacy guarantee
  is preserved under this post-processing.

Wire format (version 7): one line of canonical UTF-8 JSON (sorted keys,
compact separators) holding ``version``, ``n``, ``privacy`` and ``sx`` (a
finite number >= 0), padded with ASCII blanks before its newline byte so
that the line is a multiple of 8 bytes long, then the ``proj_B`` payload:
the upper trapezoid of the factor ``R_B``, packed in row panels, as raw
little-endian IEEE-754 binary64 values.  The factor has
``rows = min(r, n)`` rows for the ``r`` that the ``privacy`` fields imply
for one release, and ``n`` columns.  Every panel but the last has
``h = min(rows, max(16, floor(2^17 / n) rounded down to a multiple of 16))``
rows, so the header fixes the layout.  Panel [a, b) is its
(b - a) x (b - a) diagonal block, an upper triangle sent column by column
(column j of the block contributes its first j + 1 entries, from row a
down), then the (b - a) x (n - b) rectangle right of it, column by column;
the panels follow one another, top down.  Row i contributes its n - i
entries, so panel [a, b) starts ``a n - a (a - 1) / 2`` values in, and its
diagonal entry in row a + j is j (j+3) / 2 values into the panel.  The
zeros below the diagonal are not sent.  This is the order in which Alice
releases the panels, so neither side rearranges it, and both stream it:
``sx`` does not depend on ``R_B``, so :func:`alice_stream` gives the
header line first and then each panel as it is released and checked, and
:func:`read_package` checks the header line and the package's length, then
reads and checks one panel at a time when the analyst sums over them.
Each side holds O(panel + n (d + m)), never the whole factor.  They are
the one writer and the one reader of a package: :func:`alice_prepare`
writes the parts into memory and reads the package back from there.
A package is exactly the header line and
``8 * (rows (rows+1) / 2 + (n - rows) rows)`` payload bytes long
(``8 n (n+1) / 2`` when r >= n).  Every payload value must be finite, and
every diagonal entry must be > 0.  ``sx`` is written as the shortest decimal
that reads back to the same float, and the padding is fixed by the line's
length, so round-trips are bit-exact and equal packages are equal bytes.
The parser accepts only the header line that :func:`alice_stream` writes
for the fields it reads, so one package has one encoding, and the payload
starts at a multiple of 8 bytes.  No statistic is computed from a package
before its last panel has passed.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .errors import (
    InvalidInputError,
    PackageFormatError,
    ShapeError,
    UnsupportedVersionError,
)
from .data import _as_sample_matrix
from .estimators import _centered, rejection_threshold, test_statistic
from .privacy import (
    PrivacyParams,
    _check_panel,
    _panel_height,
    _panels,
    _row_offset,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance_panels,
    tau,
    tau_mechanism,
)
from .bounds import (
    aggregate_coverage_probability,
    lower_bound_ratio,
    upper_bound_ratio,
)

__all__ = [
    "FORMAT_VERSION",
    "AlicePackage",
    "PackageStream",
    "BoundsReport",
    "TestReport",
    "factor_W",
    "alice_prepare",
    "alice_stream",
    "bob_evaluate",
    "read_package",
    "report_to_dict",
]

FORMAT_VERSION = 7
_SPLIT = "half-half"  # the budget split over the two releases
_HEADER_LIMIT = 1 << 16  # bytes of a package read in search of its header's newline


def _check_sx(sx: float) -> None:
    if not (math.isfinite(sx) and sx >= 0.0):
        raise InvalidInputError(f"sx must be a finite number >= 0, got {sx!r}")


@dataclass(frozen=True, eq=False)
class AlicePackage:
    """Everything the data holder sends: the budget, a release factor and a scalar.

    ``params`` is the total budget; each release spent ``params.half_budget()``.
    ``proj_B`` has the Gram of a release ``P_B`` of ``B B^T``, and ``sx`` has
    the law of ``||P_X - row means||_F^2`` for a release ``P_X`` of
    ``X X^T``.  The sample count is the factor's width, so it is not stored
    again.  The factor is read from the package's handle one panel at a
    time (see :func:`read_package`).
    """

    params: PrivacyParams
    proj_B: _FileFactor
    sx: float

    @property
    def n(self) -> int:
        return self.proj_B.n

    def __post_init__(self) -> None:
        _check_sx(self.sx)


class PackageStream(NamedTuple):
    """A package as Alice writes it: its parts, produced one at a time.

    ``parts`` yields the header line, then the factor's row panels as raw
    little-endian float64 bytes, each released and checked when it is asked
    for and valid until the next is; see :func:`alice_stream`.  So write
    each part before asking for the next: every panel is a view of the
    same scratch panel, and ``b"".join(parts)``, which collects the parts
    before it copies them, reads every panel as the last one left it.
    """

    n: int
    rows: int
    sx: float
    parts: Iterator

    @property
    def entries(self) -> int:
        """Float64 entries of the packed factor."""
        return _row_offset(self.rows, self.n)


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


@dataclass(frozen=True)
class TestReport:
    """The analyst's verdict plus everything needed to audit it."""

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


def factor_W(X) -> np.ndarray:
    """Analytic factor ``B`` of the centered-distance Laplacian ``L = B B^T``.

    ``B = sqrt(2) * (X - column means)``: an n x d matrix, exact in O(nd)
    with no eigendecomposition, since ``L = -J E J = 2 J X X^T J`` for the
    squared-distance matrix ``E`` of ``X``.
    """
    A = _as_sample_matrix(X, min_rows=2)
    return np.sqrt(2.0) * (A - A.mean(axis=0, keepdims=True))


def _release_seeds(master_seed: int | None) -> tuple[int, int]:
    """The 64-bit seeds of the ``B`` release and of the ``X`` release, from a master seed."""
    try:
        seeds = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"invalid master seed {master_seed!r}: {exc}") from exc
    return int(seeds[0]), int(seeds[1])


def _alice_inputs(X, master_seed: int | None) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``X`` checked, its Laplacian factor ``B``, and the seeds of the ``B`` and ``X`` releases."""
    A = _as_sample_matrix(X, "X", min_rows=2)
    seed_B, seed_X = _release_seeds(master_seed)
    return A, factor_W(A), seed_B, seed_X


def _query_matrix(Y: np.ndarray) -> np.ndarray:
    """The matrix whose columns the analyst queries the release of ``B B^T`` with: ``Y`` as given.

    The one place this choice is made, for :func:`bob_evaluate`, the
    sweep's exact-law draw of the same answer and the report's floor share.
    """
    return Y


def _yc_sq(Y: np.ndarray) -> float:
    """``||Yc||_F^2`` for the column-centred ``Y``: the analyst's factor of ``s_bar``."""
    Yc = _centered(Y)
    return float(np.sum(Yc * Yc))


def _private_statistics(n: int, answers: float, sx: float, yc_sq: float) -> tuple[float, float]:
    """``(omega_bar_sq, s_bar)`` from the release's answer ``||R Q||_F^2``, ``sx`` and ``||Yc||_F^2``."""
    return 2.0 / n**2 * answers, 4.0 / n**3 * sx * (n * yc_sq)


def alice_prepare(X, p: PrivacyParams, master_seed: int | None = None) -> AlicePackage:
    """Build the data holder's package from her data matrix, in memory.

    The package of :func:`alice_stream`, written part by part into a
    buffer and read back by :func:`read_package`, so it is the bytes that
    ``pi-test alice`` writes to a file.  The master seed is expanded into
    one 64-bit seed per release (incidence factor first, data matrix
    second).  By default it is drawn from OS entropy; an explicit seed
    makes the package a deterministic function of (X, p, master_seed),
    which is for reproducible tests only, since anyone who knows it can
    regenerate the releases and recover ``X``.  Raw ``X``, its Laplacian
    factor ``B`` and the seeds stay on this side; neither release is drawn.
    Raises InvalidInputError when the package cannot be held in memory.
    """
    stream = alice_stream(X, p, master_seed)
    buffer = io.BytesIO()
    for part in stream.parts:
        try:
            buffer.write(part)
        except MemoryError as exc:
            raise InvalidInputError(
                f"a release factor of {stream.rows} x {stream.n} float64, packed, needs "
                f"{8.0 * stream.entries:.6g} bytes and cannot be held in memory: {exc}"
            ) from None
    return read_package(buffer)


def alice_stream(X, p: PrivacyParams, master_seed: int | None = None) -> PackageStream:
    """The package of :func:`alice_prepare`, encoded one row panel at a time.

    ``sx`` does not depend on ``R_B``, so it is drawn first and the header
    line comes out whole; then each panel of ``R_B`` is released into one
    reused scratch panel, checked (finite, positive diagonal) and handed
    out as bytes, and Alice holds O(panel + n d), nothing of the factor's
    size.  ``X``, ``p`` and the seed are checked before this returns; a
    panel that fails its check raises InvalidInputError when it is
    reached, so a writer of the parts must discard what it wrote.
    """
    A, B, seed_B, seed_X = _alice_inputs(X, master_seed)
    per_release = p.half_budget()
    rows, panels = privatize_covariance_panels(B, per_release, seed_B)
    sx = private_centered_sq_norm(A, per_release, seed_X)
    _check_sx(sx)
    n = A.shape[0]
    return PackageStream(n, rows, sx, chain([_header_line(n, p, sx)], map(_wire_bytes, panels)))


def bob_evaluate(pkg: AlicePackage, Y, alpha: float = 0.05, s_param: float | None = None) -> TestReport:
    """Evaluate the analyst's side of the protocol from a package and ``Y``.

    Args:
        pkg: the data holder's package.
        Y: analyst's n x m data matrix (must match the package's n).
        alpha: significance level in (0, 1).
        s_param: scale parameter for the closed-form upper bound; defaults
            to ``s_bar / n``.  Values outside the validity region make the
            upper bound infinite (recorded in the report, not an error).

    Returns:
        TestReport.  ``degenerate`` is set (and statistic/reject are None)
        when the private denominator is not positive — e.g. constant ``Y``.
        Deterministic given (pkg, Y, alpha, s_param): the analyst draws no
        randomness.
    """
    Ym = _as_sample_matrix(Y, "Y", min_rows=2)
    if Ym.shape[0] != pkg.n:
        raise ShapeError(
            f"package was built for n = {pkg.n} samples but Y has {Ym.shape[0]} rows"
        )
    n, m = pkg.n, Ym.shape[1]
    threshold = rejection_threshold(alpha)

    answers = private_sum_directional_variances(pkg.proj_B, _query_matrix(Ym))
    omega_bar_sq, s_bar = _private_statistics(n, answers, pkg.sx, _yc_sq(Ym))

    if not (s_bar > 0.0):
        return TestReport(
            omega_bar_sq=omega_bar_sq,
            s_bar=s_bar,
            statistic=None,
            threshold=threshold,
            alpha=alpha,
            reject=None,
            bounds=None,
            degenerate=True,
            n=n,
            m=m,
        )

    statistic = test_statistic(omega_bar_sq, s_bar, n)
    reject = statistic > threshold

    per_release = pkg.params.half_budget()
    eta = per_release.eta
    tau_used = tau_mechanism(per_release)
    ratio = omega_bar_sq / s_bar
    requested_s = float(s_param) if s_param is not None else s_bar / n
    clamped = not (requested_s > tau_used / (1.0 - eta))
    upper = math.inf if clamped else upper_bound_ratio(ratio, eta, tau_used, requested_s)
    lower = lower_bound_ratio(ratio, eta)
    try:
        tau_closed: float | None = tau(per_release, m, n)
    except InvalidInputError:
        tau_closed = None
    try:
        prob_floor: float | None = aggregate_coverage_probability(m, n, per_release.nu)
    except InvalidInputError:
        prob_floor = None

    return TestReport(
        omega_bar_sq=omega_bar_sq,
        s_bar=s_bar,
        statistic=statistic,
        threshold=threshold,
        alpha=alpha,
        reject=reject,
        bounds=BoundsReport(
            lower=lower,
            upper=upper,
            s_param=requested_s,
            tau_used=tau_used,
            tau_closed_form=tau_closed,
            prob_floor=prob_floor,
            s_param_clamped=clamped,
        ),
        degenerate=False,
        n=n,
        m=m,
    )


def _privacy_section(params: PrivacyParams) -> dict:
    """The ``privacy`` section of a package header or a report."""
    return {
        "epsilon": float(params.epsilon),
        "delta": float(params.delta),
        "eta": float(params.eta),
        "nu": float(params.nu),
        "split": _SPLIT,
    }


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


def _package_bytes(pkg: AlicePackage) -> int:
    """The length of the package's encoding: its header line and 8 bytes per packed entry.

    It is the length of the package's handle, which :func:`read_package`
    checked against it before reading any panel.
    """
    return len(_header_line(pkg.n, pkg.params, pkg.sx)) + 8 * _row_offset(pkg.proj_B.rows, pkg.n)


def _require(doc: dict, field: str, where: str = "package"):
    if field not in doc:
        raise PackageFormatError(f"{where} is missing required section '{field}'")
    return doc[field]


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PackageFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise PackageFormatError(f"{what} is out of range: {exc}") from exc


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


class _Header(NamedTuple):
    """The fields of a checked header line, and where the payload starts."""

    n: int
    params: PrivacyParams
    sx: float
    rows: int
    offset: int


def _read_header(data: bytes) -> _Header:
    """Parse and check the header line at the start of ``data``: the one header check.

    ``data`` is the first line of a package, newline included.  Without a
    newline all of ``data`` is read as the header, so a document of
    another format version is still reported by its version.  Only the
    line that :func:`_header_line` writes for the parsed fields is
    accepted, which also starts the payload at a multiple of 8 bytes.
    """
    end = data.find(b"\n")
    doc = _parse_header(data if end < 0 else data[:end])

    version = _require(doc, "version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise PackageFormatError(f"version must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported package version {version}; this build reads version {FORMAT_VERSION}"
        )
    if end < 0:
        raise PackageFormatError("package header is not followed by a newline (truncated?)")

    n = _require(doc, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise PackageFormatError(f"n must be an integer >= 2, got {n!r}")

    privacy = _require(doc, "privacy")
    if not isinstance(privacy, dict):
        raise PackageFormatError("section 'privacy' must be an object")
    kwargs = {}
    for field in ("epsilon", "delta", "eta", "nu"):
        value = _require(privacy, field, "section 'privacy'")
        kwargs[field] = _number(value, f"privacy field '{field}'")
    split = _require(privacy, "split", "section 'privacy'")
    if split != _SPLIT:
        raise PackageFormatError(f"unsupported budget split {split!r}; expected {_SPLIT!r}")
    try:
        params = PrivacyParams(**kwargs)
        # The header fixes the factor's row count: min(r, n) for r of one release.
        rows = min(jl_params(params.half_budget()).r, n)
    except InvalidInputError as exc:
        raise PackageFormatError(f"invalid privacy parameters: {exc}") from exc

    # json.loads reads NaN and Infinity, and 1e400 as inf.
    sx = _number(_require(doc, "sx"), "sx")
    try:
        _check_sx(sx)
    except InvalidInputError as exc:
        raise PackageFormatError(f"invalid package: {exc}") from exc

    offset = end + 1
    if data[:offset] != _header_line(n, params, sx):
        raise PackageFormatError(
            "package header is not the canonical line for its fields (sorted keys, no blanks, "
            "shortest numbers, padding to a multiple of 8 bytes)"
        )
    return _Header(n, params, sx, rows, offset)


def _check_length(header: _Header, length: int) -> None:
    """Refuse a package whose length is not its header line's and its packed factor's."""
    size = _row_offset(header.rows, header.n)
    expected = header.offset + 8 * size
    if length != expected:
        raise PackageFormatError(
            f"package holds {length} bytes, expected {expected} "
            f"(header, newline and the {size} float64 of a packed {header.rows}x{header.n} factor)"
        )


def _check_payload_panel(segment: np.ndarray, h: int) -> None:
    """The release's panel check (finite, positive diagonal), failing as PackageFormatError."""
    try:
        _check_panel(segment, h)
    except InvalidInputError as exc:
        raise PackageFormatError(f"section 'proj_B': {exc}") from None


@dataclass(frozen=True, eq=False)
class _FileFactor:
    """The factor of an open package handle, read and checked one row panel at a time.

    It offers what the analyst's sum reads of a factor: ``rows``, ``n`` and
    ``panels()``.  Each pass reads the payload from ``offset`` into one
    reused, aligned panel buffer, and checks each panel (finite, positive
    diagonal) before it yields it; a failure raises PackageFormatError, so
    nothing computed from the factor outlives a bad panel.
    """

    handle: BinaryIO
    offset: int
    rows: int
    n: int

    def panels(self):
        n = self.n
        buffer = np.empty(_row_offset(_panel_height(self.rows, n), n), dtype="<f8")
        self.handle.seek(self.offset)
        for a, b in _panels(self.rows, n):
            segment = buffer[: _row_offset(b, n) - _row_offset(a, n)]
            if self.handle.readinto(segment) != segment.nbytes:
                raise PackageFormatError(f"package ends inside the panel of rows {a} to {b - 1}")
            _check_payload_panel(segment, b - a)
            yield a, b, segment


def read_package(handle: BinaryIO) -> AlicePackage:
    """The package in an open, seekable binary handle, with its factor left in the handle.

    The handle is read from its start, whatever its position: a file, or
    an ``io.BytesIO`` of a package's bytes.  The header line and the
    handle's exact length are checked here, before any of the factor is
    read; the factor is read one row panel at a time, each panel checked,
    whenever it is used (see :class:`_FileFactor`), so the reader holds one
    panel and never the whole factor.  The handle must stay open and
    unchanged while the package is used.  Raises PackageFormatError (or its
    UnsupportedVersionError subclass) for every malformed package.
    """
    handle.seek(0)
    line = handle.readline(_HEADER_LIMIT)
    if not isinstance(line, bytes):
        raise PackageFormatError(f"package must be bytes, got {type(line).__name__}")
    header = _read_header(line)
    _check_length(header, handle.seek(0, io.SEEK_END))
    factor = _FileFactor(handle, header.offset, header.rows, header.n)
    return AlicePackage(params=header.params, proj_B=factor, sx=header.sx)


def report_to_dict(report: TestReport) -> dict:
    """JSON-safe dict for a TestReport (an infinite upper bound becomes null + flag)."""
    doc = asdict(report)
    bounds = doc["bounds"]
    if bounds is not None:
        bounds["upper_finite"] = not math.isinf(bounds["upper"])
        if not bounds["upper_finite"]:
            bounds["upper"] = None
    return doc
