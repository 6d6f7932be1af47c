"""Brute-force reference implementations used only by the test suite.

Everything statistical here is written with plain Python loops over lists
of floats and the math module — deliberately sharing no code with the
production modules it anchors.  The one exception is the Monte Carlo
harness at the bottom, whose entire purpose is to average the production
release mechanism over many fresh seeds.
"""

from __future__ import annotations

import math


def _as_rows(X) -> list[list[float]]:
    return [[float(v) for v in row] for row in X]


def oracle_pairwise_sq_dist(X) -> list[list[float]]:
    """Squared-distance matrix via an elementwise double loop."""
    rows = _as_rows(X)
    n = len(rows)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = 0.0
            for u, v in zip(rows[i], rows[j]):
                diff = u - v
                total += diff * diff
            out[i][j] = total
    return out


def oracle_double_center_triple(M) -> list[list[float]]:
    """J M J by literal triple matrix product with an explicit J."""
    rows = _as_rows(M)
    n = len(rows)
    J = [[(1.0 if i == j else 0.0) - 1.0 / n for j in range(n)] for i in range(n)]

    def matmul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    return matmul(matmul(J, rows), J)


def _centered_entries(a: list[list[float]]) -> list[list[float]]:
    n = len(a)
    row_means = [sum(r) / n for r in a]
    col_means = [sum(a[i][j] for i in range(n)) / n for j in range(n)]
    grand = sum(row_means) / n
    return [
        [a[i][j] - row_means[i] - col_means[j] + grand for j in range(n)]
        for i in range(n)
    ]


def oracle_dcov_double_sum(X, Y) -> float:
    """(1/n^2) * sum_ij [J E_X J]_ij [J E_Y J]_ij with explicit loops."""
    x_rows, y_rows = _as_rows(X), _as_rows(Y)
    n = len(x_rows)
    if len(y_rows) != n:
        raise ValueError(f"sample counts differ: {n} vs {len(y_rows)}")
    cx = _centered_entries(oracle_pairwise_sq_dist(x_rows))
    cy = _centered_entries(oracle_pairwise_sq_dist(y_rows))
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += cx[i][j] * cy[i][j]
    return total / (n * n)


def oracle_dcov_rst(X, Y) -> float:
    """Second transcription: R + S - 2T from the raw double sums."""
    x_rows, y_rows = _as_rows(X), _as_rows(Y)
    n = len(x_rows)
    a = oracle_pairwise_sq_dist(x_rows)
    b = oracle_pairwise_sq_dist(y_rows)
    r_hat = sum(a[k][l] * b[k][l] for k in range(n) for l in range(n)) / n**2
    s_hat = (
        sum(a[k][l] for k in range(n) for l in range(n))
        / n**2
        * sum(b[k][l] for k in range(n) for l in range(n))
        / n**2
    )
    t_hat = sum(sum(a[k]) * sum(b[k]) for k in range(n)) / n**3
    return r_hat + s_hat - 2.0 * t_hat


def oracle_unbiased_dcov(X, Y) -> float:
    """Literal loop transcription of the U-statistic estimator."""
    x_rows, y_rows = _as_rows(X), _as_rows(Y)
    n = len(x_rows)
    a = oracle_pairwise_sq_dist(x_rows)
    b = oracle_pairwise_sq_dist(y_rows)
    term1 = sum(a[i][j] * b[i][j] for i in range(n) for j in range(n) if i != j)
    a_dots = [sum(a[i]) for i in range(n)]
    b_dots = [sum(b[i]) for i in range(n)]
    term2 = sum(a_dots[i] * b_dots[i] for i in range(n))
    a_tot = sum(a_dots)
    b_tot = sum(b_dots)
    return (
        term1 / (n * (n - 3))
        - 2.0 * term2 / (n * (n - 2) * (n - 3))
        + a_tot * b_tot / (n * (n - 1) * (n - 2) * (n - 3))
    )


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def oracle_normal_quantile(p: float) -> float:
    """Invert the normal CDF by bisection on [-12, 12] to ~1e-10."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_projection_mean(F, y, params, trials: int, seed: int) -> float:
    """Monte Carlo mean of ||P y||^2 over `trials` fresh release seeds."""
    import numpy as np

    from pitest.privacy import private_sum_directional_variances
    from reference import released

    seeds = np.random.SeedSequence(seed).generate_state(trials, np.uint64)
    total = 0.0
    for s in seeds:
        total += private_sum_directional_variances(released(F, params, int(s)), y)
    return total / trials
