"""Distance matrices, double centering, graph Laplacians and their factors.

The dependence statistic has several algebraically equal formulations; the
dense linear-algebra primitives behind them are collected here:

- the matrix of pairwise *squared* Euclidean distances,
- double centering ``M -> J M J`` with ``J = I - (1/n) e e^T``,
- the centered-distance adjacency ``W = J E J`` and its Laplacian,
- the complete-graph Laplacian ``n I - e e^T``,
- explicit factors ``B`` with ``B B^T = L`` for both Laplacians.

Only :func:`factor_W` is on the production path: it is O(nd) and exact.
The n x n builds (distance matrices, ``J``, both Laplacians, ``factor_S``)
are references that the tests compare the closed forms against.

All functions are pure and operate on plain float64 ``numpy`` arrays with
rows as samples.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientSamplesError, InvalidInputError, ShapeError

__all__ = [
    "pairwise_sq_dist",
    "double_center",
    "centering_matrix",
    "adjacency_W",
    "laplacian_W",
    "laplacian_S",
    "factor_W",
    "factor_S",
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


def factor_W(X) -> np.ndarray:
    """Analytic factor ``B`` with ``B B^T = laplacian_W(X)``.

    ``B = sqrt(2) * (X - column means)``: an n x d matrix, exact in O(nd)
    with no eigendecomposition, since ``laplacian_W(X) = 2 J X X^T J``.
    """
    A = _as_sample_matrix(X, min_rows=2)
    return np.sqrt(2.0) * (A - A.mean(axis=0, keepdims=True))


def factor_S(n: int) -> np.ndarray:
    """Factor ``G = sqrt(n) * J`` with ``G G^T = laplacian_S(n)``.

    ``G`` is n x n of rank ``n - 1`` (n - 1 singular values equal
    ``sqrt(n)``, one equals 0).
    """
    if n < 2:
        raise InvalidInputError(f"factor_S requires n >= 2, got {n}")
    return np.sqrt(n) * centering_matrix(n)
