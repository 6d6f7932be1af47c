"""Dataset ingestion, sample-matrix validation and synthetic data generation."""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from pathlib import Path

import numpy as np

from .errors import CsvParseError, InsufficientSamplesError, InvalidInputError, ShapeError

__all__ = ["load_csv", "save_csv", "synthetic_pair"]


def _as_2d(X, name: str) -> np.ndarray:
    """Coerce to a non-empty 2-D float64 array with rows as samples."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"{name} must be a non-empty 2-D sample matrix, got shape {A.shape}")
    return A


def _as_sample_matrix(X, name: str = "X", min_rows: int = 1) -> np.ndarray:
    """Coerce to a finite 2-D float64 array with rows as samples."""
    A = _as_2d(X, name)
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if A.shape[0] < min_rows:
        raise InsufficientSamplesError(
            f"{name} has {A.shape[0]} sample(s); at least {min_rows} required"
        )
    return A


def _as_float(value, name: str) -> float:
    """``value`` as a float: the one rule for a number from outside.

    A number is a ``numbers.Real`` that is not a bool (so numpy's real
    scalars count, and ``"1"`` does not); an int too large for a float is
    infinite.  Anything else raises InvalidInputError.  Only the type is
    checked here: every caller checks its own range, finiteness included.
    """
    if type(value) is float:  # the common case, kept cheap
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_int(value, name: str) -> int:
    """``value`` as an int: the one rule for an integer from outside.

    An integer is a ``numbers.Integral`` that is not a bool (so numpy's
    integer scalars count, and ``2.0`` does not).  Anything else raises
    InvalidInputError; the caller checks the range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_csv(path, has_header: bool = False) -> np.ndarray:
    """Load a numeric CSV file into an n x d float64 matrix.

    The file is parsed by numpy's C reader (``np.loadtxt``): comma-separated
    cells, optionally in double quotes, each in numpy's float syntax
    (``1``, ``-2.5``, ``.5``, ``1e-3``; no digit-group underscores) with
    blank lines skipped.  Every cell must parse as a finite number and every
    row must have the same width.  A file it refuses, or that has no rows or
    a non-finite value, raises CsvParseError naming the offending line and
    column (1-based, counting the header line if present); a file that is
    not text in the locale's encoding raises CsvParseError naming the first
    byte that is not and its offset (0-based); a file refused for a reason
    that has no line and column (``1_000``, say) raises CsvParseError with
    numpy's message.
    """
    path = Path(path)
    try:
        with open(path) as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "input contained no data"
            A = np.loadtxt(handle, delimiter=",", dtype=np.float64, ndmin=2, comments=None,
                           quotechar='"', skiprows=int(has_header))
    except ValueError as exc:
        fault = str(exc)
    else:
        if A.size and np.isfinite(A).all():
            return A
        fault = "non-finite value" if A.size else "no data rows"
    try:
        _locate_fault(path, has_header)
    except UnicodeDecodeError as exc:
        raise CsvParseError(_undecodable(path, exc.encoding)) from None
    raise CsvParseError(f"{path}: {fault}")


def _locate_fault(path: Path, has_header: bool) -> None:
    """Raise CsvParseError at the first line and column that ``load_csv`` refuses.

    A cell by cell reading with the csv module, run only after numpy's
    reader has refused the file, found no rows or returned a non-finite
    value; it returns, having found no fault, only for a file that
    Python's ``float`` reads but numpy does not.
    """
    width: int | None = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for line_no, record in enumerate(reader, start=1):
            if line_no == 1 and has_header:
                continue
            if not record:  # blank line
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise CsvParseError(
                    f"{path}: line {line_no}: expected {width} columns, got {len(record)}"
                )
            for col_no, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {line_no}, column {col_no}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: line {line_no}, column {col_no}: non-finite value {cell!r}"
                    )
    if width is None:
        raise CsvParseError(f"{path}: no data rows")


def _undecodable(path: Path, encoding: str) -> str:
    """Name the first byte of ``path`` that is not ``encoding`` text, and where it lies.

    The decoder of a text handle reports a position within the chunk it
    was decoding, so the file's bytes are decoded again, whole.
    """
    try:
        path.read_bytes().decode(encoding)
    except UnicodeDecodeError as exc:
        return f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not {encoding} text"
    return f"{path}: not {encoding} text"


def save_csv(path, X) -> None:
    """Write a matrix as a plain numeric CSV (no header), atomically: a file that :func:`load_csv` reads.

    ``X`` is checked as a sample matrix first (a 1-D array is one column),
    so a matrix that is not finite, 2-D and non-empty raises
    InvalidInputError or ShapeError and no file is created.
    """
    from .ioutil import atomic_write_text

    A = _as_sample_matrix(X, "matrix")
    # tolist() gives Python floats, whose repr is the shortest round-trip text;
    # one row at a time, so no list of every value is held beside the text.
    lines = "\n".join(",".join(map(repr, row.tolist())) for row in A)
    atomic_write_text(path, lines + "\n")


def synthetic_pair(
    n: int,
    d: int = 2,
    m: int = 2,
    dependence: float = 0.0,
    clusters: int = 3,
    x_scale: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a paired synthetic dataset (X, Y) from a Gaussian mixture.

    X is sampled from `clusters` Gaussian blobs (then multiplied by
    ``x_scale``); Y mixes a linear image of X's standardized coordinates
    with independent noise:

        Y = dependence * (X_std @ C) + (1 - dependence) * noise

    so ``dependence = 0`` gives independent pairs and values near 1 give a
    nearly deterministic relationship.  ``n``, ``d``, ``m``, ``clusters``
    and ``seed`` must be integers and ``dependence`` and ``x_scale``
    numbers, by the package's scalar rules (README, "Library"); ``n`` must
    be >= 2, ``d``, ``m`` and ``clusters`` >= 1, ``dependence`` in [0, 1],
    ``x_scale`` finite and ``seed`` >= 0.  Anything else raises
    InvalidInputError, an int too large for a float included.
    """
    n, d, m, clusters = map(_as_int, (n, d, m, clusters), ("n", "d", "m", "clusters"))
    if n < 2 or d < 1 or m < 1 or clusters < 1:
        raise InvalidInputError(
            f"invalid synthetic shape n={n}, d={d}, m={m}, clusters={clusters}"
        )
    dependence = _as_float(dependence, "dependence")
    if not (0.0 <= dependence <= 1.0):
        raise InvalidInputError(f"dependence must lie in [0, 1], got {dependence}")
    x_scale = _as_float(x_scale, "x_scale")
    if not math.isfinite(x_scale):
        raise InvalidInputError(f"x_scale must be a finite number, got {x_scale!r}")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(clusters, d))
    labels = rng.integers(0, clusters, size=n)
    X_std = centers[labels] + rng.standard_normal((n, d))
    coupling = rng.standard_normal((d, m)) / np.sqrt(d)
    noise = rng.standard_normal((n, m))
    Y = dependence * (X_std @ coupling) + (1.0 - dependence) * noise
    return x_scale * X_std, Y
