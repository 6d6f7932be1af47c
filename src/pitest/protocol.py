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
zeros below the diagonal are not sent.  This is the buffer Alice fills, so
neither side rearranges it, and :func:`encode_package` hands it to a writer
as it is, after the header line.  The blob is exactly the header line and
``8 * (rows (rows+1) / 2 + (n - rows) rows)`` payload bytes long
(``8 n (n+1) / 2`` when r >= n).  Every payload value must be finite, and
every diagonal entry must be > 0.  ``sx`` is written as the shortest decimal
that reads back to the same float, and the padding is fixed by the line's
length, so round-trips are bit-exact and equal packages are equal bytes.
The parser accepts only the header line that the encoder writes for the
fields it read, so one package has one encoding, and the payload starts at
a multiple of 8 bytes, where the analyst reads each panel.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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
    PrivateProjection,
    _row_offset,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance,
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
    "BoundsReport",
    "TestReport",
    "factor_W",
    "alice_prepare",
    "bob_evaluate",
    "encode_package",
    "serialize_package",
    "deserialize_package",
    "report_to_dict",
]

FORMAT_VERSION = 7
_SPLIT = "half-half"  # the budget split over the two releases


@dataclass(frozen=True, eq=False)
class AlicePackage:
    """Everything the data holder sends: the budget, a release factor and a scalar.

    ``params`` is the total budget; each release spent ``params.half_budget()``.
    ``proj_B`` has the Gram of a release ``P_B`` of ``B B^T``, and ``sx`` has
    the law of ``||P_X - row means||_F^2`` for a release ``P_X`` of
    ``X X^T``.  The sample count is the factor's width, so it is not stored
    again.
    """

    params: PrivacyParams
    proj_B: PrivateProjection
    sx: float

    @property
    def n(self) -> int:
        return self.proj_B.n

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sx) and self.sx >= 0.0):
            raise InvalidInputError(f"sx must be a finite number >= 0, got {self.sx!r}")


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


def alice_prepare(X, p: PrivacyParams, master_seed: int | None = None) -> AlicePackage:
    """Build the data holder's package from her data matrix.

    The master seed is expanded into one 64-bit seed per release (incidence
    factor first, data matrix second).  By default it is drawn from OS
    entropy; an explicit seed makes the package a deterministic function of
    (X, p, master_seed), which is for reproducible tests only, since anyone
    who knows it can regenerate the releases and recover ``X``.  Raw
    ``X``, its Laplacian factor ``B`` and the seeds stay on this side;
    neither release is drawn.
    """
    A = _as_sample_matrix(X, "X", min_rows=2)
    B = factor_W(A)
    try:
        seeds = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"invalid master seed {master_seed!r}: {exc}") from exc
    per_release = p.half_budget()
    proj_B = privatize_covariance(B, per_release, int(seeds[0]))
    sx = private_centered_sq_norm(A, per_release, int(seeds[1]))
    return AlicePackage(params=p, proj_B=proj_B, sx=sx)


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

    omega_bar_sq = 2.0 / n**2 * private_sum_directional_variances(pkg.proj_B, Ym)
    Yc = _centered(Ym)
    s_bar = 4.0 / n**3 * pkg.sx * (n * float(np.sum(Yc * Yc)))

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


def _header_line(pkg: AlicePackage) -> bytes:
    """The canonical header line of a package: its JSON, padding blanks and newline."""
    header = {
        "version": FORMAT_VERSION,
        "n": pkg.n,
        "privacy": _privacy_section(pkg.params),
        "sx": float(pkg.sx),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Blanks before the newline start the payload at a multiple of 8 bytes.
    return head + b" " * (-(len(head) + 1) % 8) + b"\n"


def encode_package(pkg: AlicePackage) -> tuple[bytes, memoryview]:
    """Encode a package as its two parts: the header line and the raw payload.

    The header is the canonical JSON line with its newline; the payload is
    a byte view of the factor's own packed little-endian float64 buffer, so
    a writer can stream both without joining or copying the payload.
    """
    payload = np.ascontiguousarray(pkg.proj_B.values, dtype="<f8")
    return _header_line(pkg), memoryview(payload.view(np.uint8))


def serialize_package(pkg: AlicePackage) -> bytes:
    """The package as one bytes object: the two parts of :func:`encode_package`, joined."""
    return b"".join(encode_package(pkg))


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


def deserialize_package(data: bytes) -> AlicePackage:
    """Parse and validate package bytes; inverse of :func:`serialize_package`.

    The factor is an aligned, read-only view into ``data``.  Raises
    PackageFormatError (or its UnsupportedVersionError subclass) for every
    malformed input; never returns a partially validated package.
    """
    if not isinstance(data, bytes):
        raise PackageFormatError(f"package must be bytes, got {type(data).__name__}")
    end = data.find(b"\n")
    # Without a newline the whole input is read as the header, so a document
    # of another format version is still reported by its version.
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

    # json.loads reads NaN and Infinity, and 1e400 as inf: AlicePackage
    # checks that sx is finite and >= 0.
    sx = _number(_require(doc, "sx"), "sx")

    offset = end + 1
    size = _row_offset(rows, n)
    expected = offset + 8 * size
    if len(data) != expected:
        raise PackageFormatError(
            f"package holds {len(data)} bytes, expected {expected} "
            f"(header, newline and the {size} float64 of a packed {rows}x{n} factor)"
        )
    values = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
    try:
        proj_B = PrivateProjection(values, rows, n)
    except InvalidInputError as exc:
        raise PackageFormatError("section 'proj_B': payload contains NaN or infinite entries") from exc
    if not np.all(proj_B.diagonal() > 0.0):
        raise PackageFormatError("section 'proj_B': a diagonal entry is not > 0")
    try:
        package = AlicePackage(params=params, proj_B=proj_B, sx=sx)
    except InvalidInputError as exc:
        raise PackageFormatError(f"invalid package: {exc}") from exc
    # One package has one encoding, which also starts the payload at a multiple of 8 bytes.
    if data[:offset] != _header_line(package):
        raise PackageFormatError(
            "package header is not the canonical line for its fields (sorted keys, no blanks, "
            "shortest numbers, padding to a multiple of 8 bytes)"
        )
    return package


def report_to_dict(report: TestReport) -> dict:
    """JSON-safe dict for a TestReport (an infinite upper bound becomes null + flag)."""
    doc = asdict(report)
    bounds = doc["bounds"]
    if bounds is not None:
        bounds["upper_finite"] = not math.isinf(bounds["upper"])
        if not bounds["upper_finite"]:
            bounds["upper"] = None
    return doc
