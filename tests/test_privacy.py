import math
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import lapack

from pitest import laws, privacy
from pitest.data import synthetic_pair
from pitest.errors import InvalidInputError, ShapeError
from pitest.privacy import (
    PrivacyParams,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance_panels,
    tau,
    tau_mechanism,
)
from pitest.protocol import alice_prepare, bob_evaluate, factor_W

from oracles import oracle_projection_mean
from reference import (
    LAPACK_AGREEMENT,
    _draw_bartlett,
    _factor_from_bartlett,
    dense_release,
    gaussian_release,
    pack_factor,
    relative_gap,
    released,
    unpack_factor,
)


PARAMS = PrivacyParams(epsilon=100.0, delta=0.5, eta=0.5, nu=0.5)  # small r, small w: fast MC


# ---------------------------------------------------------------- parameters


def test_jl_params_worked_example():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.1, nu=0.01)
    r, w = jl_params(p)
    assert r == 4239  # ceil(800 * ln 200)
    expected_w = 16.0 * math.sqrt(r * math.log(2.0 / 1e-4)) / 1.0 * math.log(16.0 * r / 1e-4)
    assert w == pytest.approx(expected_w, rel=1e-12)


def test_jl_params_r_doubles_with_log_term():
    # nu chosen so 8 ln(2/nu) / eta^2 is exactly 800, then exactly 1600
    r1 = jl_params(PrivacyParams(1.0, 1e-4, 0.1, 2.0 / math.e)).r
    r2 = jl_params(PrivacyParams(1.0, 1e-4, 0.1, 2.0 / math.e**2)).r
    assert (r1, r2) == (800, 1600)


@pytest.mark.parametrize("eta", [1e-155, 1e-200, 5e-324])
def test_jl_params_rejects_eta_too_small_for_a_row_count(eta):
    # 8 ln(2/nu)/eta^2 overflows to inf at 1e-155; eta^2 underflows to 0 below
    with pytest.raises(InvalidInputError, match="eta"):
        jl_params(PrivacyParams(epsilon=1.0, delta=1e-4, eta=eta, nu=0.05))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, delta=1e-4, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=0.0, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=1.0, eta=0.1, nu=0.01),
        dict(epsilon=1.0, delta=1e-4, eta=1.0, nu=0.01),
        dict(epsilon=1.0, delta=1e-4, eta=0.1, nu=0.0),
        dict(epsilon=1.0, delta=1e-4, eta=float("nan"), nu=0.01),
    ],
)
def test_privacy_params_validation(kwargs):
    with pytest.raises(InvalidInputError):
        PrivacyParams(**kwargs)


@pytest.mark.parametrize("field", ["epsilon", "delta", "eta", "nu"])
def test_privacy_params_refuse_bools(field):
    # True passes an (int, float) check and would read as 1
    kwargs = dict(epsilon=1.0, delta=0.5, eta=0.5, nu=0.5)
    kwargs[field] = True
    with pytest.raises(InvalidInputError, match=f"{field} must be a finite number, got True"):
        PrivacyParams(**kwargs)


def test_half_budget_splits_epsilon_delta_only():
    p = PrivacyParams(2.0, 4e-4, 0.1, 0.01)
    h = p.half_budget()
    assert (h.epsilon, h.delta, h.eta, h.nu) == (1.0, 2e-4, 0.1, 0.01)


def test_tau_quarter_under_epsilon_doubling():
    p1 = PrivacyParams(1.0, 2e-4, 0.05, 1e-4)
    p2 = PrivacyParams(2.0, 2e-4, 0.05, 1e-4)
    assert tau(p2, 3, 500) == pytest.approx(tau(p1, 3, 500) / 4.0, rel=1e-12)


def test_tau_worked_example_matches_transcription():
    p = PrivacyParams(1.0, 2e-4, 0.05, 1e-4)
    total = (3 + 500) * 1e-4
    expected = (
        2048.0
        * math.log(2.0 / total)
        * math.log(2.0 / 2e-4)
        / (0.05 * 1.0**2)
        * math.log(128.0 * math.log(1.0 / total) / (0.05**2 * 2e-4)) ** 2
    )
    assert tau(p, 3, 500) == pytest.approx(expected, rel=1e-12)


def test_tau_rejects_large_query_volume():
    p = PrivacyParams(1.0, 2e-4, 0.05, 1e-2)
    with pytest.raises(InvalidInputError):
        tau(p, 3, 500)  # (m+n)*nu = 5.03 >= 1


def test_tau_rejects_underflowing_eta_squared_delta():
    # eta^2 * delta = 1e-326 underflows to 0 in float64
    with pytest.raises(InvalidInputError, match="tau"):
        tau(PrivacyParams(1, 1e-300, 1e-13, 0.05), 1, 10)


def test_tau_mechanism_is_eta_inflated_floor():
    p = PrivacyParams(1.0, 1e-4, 0.1, 0.01)
    assert tau_mechanism(p) == pytest.approx(1.1 * jl_params(p).w ** 2, rel=1e-12)


# ---------------------------------------------------------------- the release


def test_privatize_deterministic():
    F = np.random.default_rng(0).standard_normal((6, 2))
    a = released(F, PARAMS, seed=1234)
    b = released(F, PARAMS, seed=1234)
    assert a.values.tobytes() == b.values.tobytes()
    c = released(F, PARAMS, seed=1235)
    assert a.values.tobytes() != c.values.tobytes()


def _positive_qr_r(M):
    """The R factor with positive diagonal of a QR of ``M``."""
    T = np.linalg.qr(M, mode="r")
    return T * np.sign(np.diagonal(T))[:, None]


def _bartlett_whole(T1, R, r, k):
    """T assembled from the parts ``_draw_bartlett`` returns, before the factor overwrites R."""
    k1 = T1.shape[0]
    q = min(r - k1, R.shape[1])
    T = np.zeros((k1 + q, T1.shape[1]))
    T[:k1] = T1
    T[k1:, k:] = R[:q]
    return T


def _assert_upper_trapezoidal(R):
    assert np.all(np.tril(R, -1) == 0.0)
    assert np.all(np.diagonal(R) > 0.0)


def test_privatize_is_projection_of_augmented_factor():
    p = PrivacyParams(2.0, 0.01, 0.3, 0.1)
    r, w = jl_params(p)
    assert r == 267
    F = np.random.default_rng(1).standard_normal((5, 2))
    R = unpack_factor(*released(F, p, seed=99))
    # the release: T drawn from the seed, then R from T, as LAPACK factors it
    T1, expected = _draw_bartlett(np.random.default_rng(99), r, 2, 5)
    T = _bartlett_whole(T1, expected, r, 2)
    _factor_from_bartlett(F, w, r, T1, expected)
    assert relative_gap(R, expected) <= LAPACK_AGREEMENT
    # the QR of the stacked product T [F^T; w I] / sqrt(r) it equals in exact arithmetic
    stacked = _positive_qr_r(T @ np.vstack([F.T, w * np.eye(5)]) / math.sqrt(r))
    assert np.max(np.abs(R - stacked)) <= 1e-12 * np.max(np.abs(stacked))


def test_privatize_draws_and_projects_row_blocks():
    # r = 267 < n = 500: the QR's blocks cover the leading 267 columns, and
    # each block's Q finishes the other 233 too
    p = PrivacyParams(2.0, 0.01, 0.3, 0.1)
    r, w = jl_params(p)
    n, k = 500, 2
    F = np.random.default_rng(1).standard_normal((n, k))
    P = released(F, p, seed=99)
    assert (P.rows, P.n) == (r, n)
    R = unpack_factor(*P)
    T1, expected = _draw_bartlett(np.random.default_rng(99), r, k, n)
    # the one-shot triangular-pentagonal QR over all n columns, T22 padded square
    T22 = np.zeros((n, n), order="F")
    T22[:r] = expected
    dense = np.asfortranarray(T1[:, k:] + T1[:, :k] @ (F.T / w))
    one_shot = lapack.dtpqrt(0, 16, T22, dense)[0]
    one_shot *= np.copysign(w / math.sqrt(r), np.diagonal(one_shot))[:, None]
    _factor_from_bartlett(F, w, r, T1, expected)
    assert relative_gap(R, expected) <= LAPACK_AGREEMENT
    assert relative_gap(R, one_shot[:r]) <= LAPACK_AGREEMENT
    # [T22; dense] has only r rows, so the one-shot QR leaves nothing below them
    assert np.max(np.abs(one_shot[r:])) <= 1e-15 * np.max(np.abs(one_shot))


@pytest.mark.parametrize("n", [5, 267, 500])
def test_packed_values_are_the_upper_trapezoid_of_the_factor(n):
    """The packed release is the upper trapezoid of the drawn, then factored, R.

    r = 267 rows: r > n, r = n, r < n.  Its length is exact; its values
    agree with LAPACK's factor to ``LAPACK_AGREEMENT``.
    """
    p = PrivacyParams(2.0, 0.01, 0.3, 0.1)
    r, w = jl_params(p)
    assert r == 267
    k = 2
    F = np.random.default_rng(n).standard_normal((n, k))
    P = released(F, p, seed=99)
    T1, R = _draw_bartlett(np.random.default_rng(99), r, k, n)
    _factor_from_bartlett(F, w, r, T1, R)
    rows = min(r, n)
    assert P.values.size == pack_factor(R).size == rows * (rows + 1) // 2 + (n - rows) * rows
    assert relative_gap(P.values, pack_factor(R)) <= LAPACK_AGREEMENT


def test_privatize_shape_and_finiteness():
    p = PARAMS
    r, _ = jl_params(p)
    P = released(np.zeros((7, 3)), p, seed=5)
    assert (P.rows, P.n) == (min(r, 7), 7)
    assert P.values.shape == (7 * 8 // 2,)
    assert np.all(np.isfinite(P.values))
    _assert_upper_trapezoidal(unpack_factor(*P))


def test_privatize_ships_an_n_row_factor_at_a_huge_row_count():
    # eta = 1e-100 gives r ~ 3e201 rows: the factor still has n = 5 rows
    p = PrivacyParams(1.0, 1e-3, 1e-100, 0.05)
    assert jl_params(p).r > 1e201
    P = released(np.arange(5.0)[:, None], p, seed=0)
    assert (P.rows, P.n) == (5, 5)
    _assert_upper_trapezoidal(unpack_factor(*P))


def test_private_centered_sq_norm_is_finite_at_a_huge_row_count():
    # r ~ 3e201 and w^2 ~ 5e204: weighting chi^2_r / r keeps sx finite, at its
    # mean ||Xc||^2 + w^2 (n-1) to within the sqrt(2/r) spread of the draws
    p = PrivacyParams(1.0, 1e-3, 1e-100, 0.05)
    w = jl_params(p).w
    X = np.arange(5.0)[:, None]
    sx = private_centered_sq_norm(X, p, seed=0)
    assert math.isfinite(sx)
    assert sx == pytest.approx(10.0 + 4.0 * w**2, rel=1e-12)


# r, k, n in the four regimes of the QR: r >= k+n, n < r < k+n, k < r <= n, r <= k
_REGIMES = [(14, 2, 8), (14, 4, 12), (14, 2, 20), (14, 2, 14), (14, 16, 20), (6, 8, 4)]


@pytest.mark.parametrize("r, k, n", _REGIMES)
def test_factor_from_bartlett_is_the_qr_of_the_release(r, k, n):
    """R from T equals the positive-diagonal R of a QR of (G_1 F^T + w G_2) / sqrt(r)."""
    rng = np.random.default_rng(r + 100 * k + 10_000 * n)
    F = 30.0 * rng.standard_normal((n, k))
    w = 25.0
    G = rng.standard_normal((r, k + n))
    T = _positive_qr_r(G)
    k1, rows = min(r, k), min(r, n)
    q = min(r - k1, n)
    R = np.zeros((n, rows)).T
    R[:q] = T[k1:, k:]
    _factor_from_bartlett(F, w, r, T[:k1], R)
    expected = _positive_qr_r((G[:, :k] @ F.T + w * G[:, k:]) / math.sqrt(r))
    assert R.shape == expected.shape == (rows, n)
    assert np.max(np.abs(R - expected)) <= 1e-10 * np.max(np.abs(expected))
    _assert_upper_trapezoidal(R)


def _params_with_rows(r):
    """Privacy parameters whose release has ``r`` projection rows."""
    eta = 0.999
    p = PrivacyParams(1.0, 0.1, eta, 2.0 * math.exp(-(r - 0.1) * eta**2 / 8.0))
    assert jl_params(p).r == r
    return p


# r, k, n and a panel height (None: the default panels), beyond the QR
# regimes: one panel of 15 and 16 rows, then a panel of 16 and a short last
# panel of one row, several panels (a height of 24 is cut to 16), r < n with
# several panels, the last one ending at row r, and the tall shape n = 2000,
# r = 2952, whose default panels are 64 rows high.
_PANEL_SHAPES = [
    (20, 2, 15, 16), (20, 2, 16, 16), (20, 2, 17, 16), (120, 3, 100, 16), (120, 3, 100, 24),
    (120, 3, 100, 32), (40, 2, 100, 16), (40, 5, 130, 24), (267, 2, 500, None), (2952, 2, 2000, None),
]

# More panels: a short last panel of 6 rows; T22's last Bartlett row q - 1 =
# 29 (r - k = 30 < r = rows) inside the second of four panels, so two panels
# hold D's rows only; q = 80 < rows = n = 100 < r inside the third panel;
# r < n with four whole panels, the last ending at row r = 64.
_MORE_PANEL_SHAPES = [(200, 2, 150, 48), (60, 30, 100, 16), (110, 30, 100, 32), (64, 2, 300, 16)]


# Shapes for the QR's 32-column blocks: k1 = min(r, k) >= 32 dense rows
# (d = 40, and d = 100 at n = 300, whose rows from q = 200 on are D's
# alone); panels of 48 rows, a block and a half; r <= d, where T22 has no
# rows and the factor is D's; and r = 90 < n, panels [0, 48) and [48, 90)
# with q = 50 inside the second, where a block's one update spans the rest
# of the square and the rectangle.
_QR_BLOCK_SHAPES = [(300, 40, 200, None), (300, 100, 300, None), (120, 40, 100, 48), (40, 40, 100, None),
                    (90, 40, 200, 48)]


@pytest.mark.parametrize("r, k, n, height",
                         [(*shape, None) for shape in _REGIMES] + _PANEL_SHAPES + _MORE_PANEL_SHAPES
                         + _QR_BLOCK_SHAPES)
def test_release_is_bit_identical_to_the_dense_release(r, k, n, height, monkeypatch):
    """The panel-by-panel release is the release drawn and factored dense by LAPACK.

    Its shape and packed length are exact; its values agree with the
    one-shot LAPACK QR (``dtpqrt``, ``dtpmqrt``) of the same draw to
    ``LAPACK_AGREEMENT``, since the release factors with numpy's QR in
    blocks of ``_QR_BLOCK`` columns and rounds differently.
    """
    if height is not None:
        monkeypatch.setattr(privacy, "_PANEL_FLOATS", height * n)
        assert privacy._panel_height(min(r, n), n) == min(height - height % 16, r, n)
    p = _params_with_rows(r)
    F = 30.0 * np.random.default_rng(r + 100 * k + 10_000 * n).standard_normal((n, k))
    rows = min(r, n)
    for seed in (0, 99):
        factor = released(F, p, seed)
        assert (factor.rows, factor.n) == (rows, n)
        assert factor.values.size == privacy._row_offset(rows, n)
        assert relative_gap(factor.values, dense_release(F, p, seed)) <= LAPACK_AGREEMENT


def test_release_applies_each_reflector_block_once(monkeypatch):
    """Each block of 32 columns has one QR, of its dense rows over its square, and one update.

    So a panel of h rows makes ceil(h / 32) calls of ``np.linalg.qr``, each
    of a (k1 + s) x s stack for s <= 32, and one ``_apply_block`` for each
    block with columns right of it, the rest of the square and the
    rectangle together; a release that factored an earlier block again, for
    a later panel or block, or split an update, would make more.  n = 2000
    and r = 2952: 31 panels of 64 rows and one of 16, so 63 QRs and 62
    updates; and panels of 48 rows of a 150-row factor, 4 panels, 7 QRs and
    6 updates.
    """
    qr, apply_block = np.linalg.qr, privacy._apply_block
    stacks, updates = [], []

    def counted(a, *args, **kwargs):
        stacks.append(a.shape)
        return qr(a, *args, **kwargs)

    def counted_update(Q, Dt, Ut, stack):
        updates.append(Ut.shape)
        apply_block(Q, Dt, Ut, stack)

    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(privacy, "_apply_block", counted_update)
    for r, k, n, height in ((2952, 2, 2000, None), (200, 2, 150, 48)):
        if height is not None:
            monkeypatch.setattr(privacy, "_PANEL_FLOATS", height * n)
        stacks.clear()
        updates.clear()
        F = 30.0 * np.random.default_rng(5).standard_normal((n, k))
        rows = released(F, _params_with_rows(r), 1).rows
        assert rows == min(r, n)
        panels = list(privacy._panels(rows, n))
        assert len(stacks) == sum(math.ceil((b - a) / 32) for a, b in panels) == (63 if height is None else 7)
        assert all(s <= 32 and m == k + s for m, s in stacks)
        # the columns right of each block, which its one update covers
        right = [n - a - min(c + 32, b - a) for a, b in panels for c in range(0, b - a, 32)]
        assert [m for m, _ in updates] == [m for m in right if m]
        assert len(updates) == (62 if height is None else 6)


@pytest.mark.parametrize("h", [1, 2, 15, 16, 17, 64, 200, 256])
def test_unpacked_triangle_is_dtpttrs_square(h):
    """The analyst's expansion of a packed triangle equals LAPACK's, bits and memory order alike.

    And the release's pack of a square through the same mask is LAPACK's
    ``dtrttp``, so both sides read one layout.
    """
    triangle = np.random.default_rng(h).standard_normal(h * (h + 1) // 2)
    square = privacy._unpack_triangle(triangle, h)
    expected = lapack.dtpttr(h, triangle)[0]
    assert np.array_equal(square, expected)
    assert square.tobytes(order="A") == expected.tobytes(order="A")
    assert square.flags.f_contiguous and expected.flags.f_contiguous
    assert square.T[privacy._upper(h)].tobytes() == lapack.dtrttp(square)[0].tobytes()


@pytest.mark.parametrize("k, n", [(2, 8), (4, 12), (2, 20), (16, 20)])
def test_factor_has_the_law_of_the_release_gram(k, n):
    """||R Y||^2 and y_1^T R^T R y_2 have the laws of the release's ||P Y||^2 and y_1^T P^T P y_2."""
    p = PrivacyParams(epsilon=1.0, delta=0.1, eta=0.9, nu=0.5)
    r, w = jl_params(p)
    assert r == 14
    rng = np.random.default_rng(k + 100 * n)
    F = w / 2.0 * rng.standard_normal((n, k))  # the data and the floor both matter
    Y = rng.standard_normal((n, 2))
    trials = 2000

    def statistics(M):
        Z = M @ Y
        return float(np.sum(Z * Z)), float(Z[:, 0] @ Z[:, 1])

    drawn = np.array([statistics(unpack_factor(*released(F, p, s))) for s in range(trials)])
    gaussian = np.array([statistics(gaussian_release(F, p, s)) for s in range(trials, 2 * trials)])
    for column in range(2):
        assert stats.ks_2samp(drawn[:, column], gaussian[:, column]).pvalue > 1e-3, column


@pytest.mark.parametrize("epsilon, x_scale, floor_dominated",
                         [(1.0, 1.0, True), (1e4, 100.0, False)], ids=["floor", "signal"])
def test_projected_sq_norm_has_the_law_of_the_package_answer(epsilon, x_scale, floor_dominated):
    """(2/n^2) ||P Q||^2 from the exact-law sampler has the law of a package's omega_bar_sq.

    n = 60, m = 2 and r = 60; with the floor w^2 ||Q||^2 dominant, and with the
    signal ||B^T Q||^2 dominant.  Where the floor dominates, a sampler that
    leaves out w^2 Q^T Q is told apart from the package.  The sampler's mean
    is within 4 sd of tr C: one answer has mean sum mu = tr C and sd
    sqrt(2 sum mu^2 / r).
    """
    p = PrivacyParams(epsilon=epsilon, delta=2e-4, eta=0.43, nu=0.5)
    half = p.half_budget()
    r, w = jl_params(half)
    assert r == 60
    X, Y = synthetic_pair(n=60, d=2, m=2, dependence=0.3, x_scale=x_scale, seed=5)
    n = X.shape[0]
    B, Q = factor_W(X), laws.query_matrix(Y)
    floor_share = w**2 * np.sum(Q * Q) / (np.sum((B.T @ Q) ** 2) + w**2 * np.sum(Q * Q))
    assert (floor_share > 0.99) if floor_dominated else (floor_share < 0.01)
    trials = 600
    packaged = [bob_evaluate(alice_prepare(X, p, s), Y).omega_bar_sq for s in range(trials)]
    (law,) = laws.projected_sq_norm_laws(B.T @ Q, Q.T @ Q, [(r, w)])
    answers = law.draws(np.random.default_rng(trials), trials)
    assert answers.shape == (trials,)
    assert stats.ks_2samp(2.0 / n**2 * answers, packaged).pvalue >= 1e-3
    trace_C = float(np.sum((B.T @ Q) ** 2)) + w**2 * float(np.sum(Q * Q))
    sd_of_mean = math.sqrt(2.0 * float(np.sum(law.weights**2)) / r / trials)
    assert abs(float(answers.mean()) - trace_C) < 4.0 * sd_of_mean
    if floor_dominated:
        (no_floor,) = laws.projected_sq_norm_laws(B.T @ Q, np.zeros((2, 2)), [(r, w)])
        missing = 2.0 / n**2 * no_floor.draws(np.random.default_rng(trials), trials)
        assert stats.ks_2samp(missing, packaged).pvalue < 1e-6


def test_private_projected_sq_norm_is_finite_at_a_huge_row_count():
    # r ~ 3e201 and w^2 ~ 5e204: weighting chi^2_r / r keeps the draw finite,
    # at its mean ||F^T y||^2 + w^2 ||y||^2 to within the sqrt(2/r) spread
    p = PrivacyParams(1.0, 1e-3, 1e-100, 0.05)
    r, w = jl_params(p)
    F, Q = np.arange(5.0)[:, None], np.ones((5, 1))
    (law,) = laws.projected_sq_norm_laws(F.T @ Q, Q.T @ Q, [(r, w)])
    value = float(law.draws(np.random.default_rng(0), 1)[0])
    assert math.isfinite(value)
    assert value == pytest.approx(100.0 + 5.0 * w**2, rel=1e-12)


def test_privatize_rejects_non_finite_factor():
    with pytest.raises(InvalidInputError):
        privatize_covariance_panels(np.array([[1.0], [np.inf]]), PARAMS, seed=0)


def test_zero_factor_mean_is_floor():
    _, w = jl_params(PARAMS)
    F = np.zeros((5, 1))
    y = np.zeros(5)
    y[2] = 1.0
    mean = oracle_projection_mean(F, y, PARAMS, trials=10_000, seed=77)
    assert mean == pytest.approx(w**2, rel=0.05)


def test_general_factor_mean_is_variance_plus_floor():
    rng = np.random.default_rng(10)
    F = 3.0 * rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    y /= np.linalg.norm(y)
    _, w = jl_params(PARAMS)
    target = float(y @ F @ F.T @ y) + w**2
    mean = oracle_projection_mean(F, y, PARAMS, trials=10_000, seed=78)
    assert mean == pytest.approx(target, rel=0.05)


def test_projection_core_unbiased_within_three_se():
    # with a zero factor, ||P y||^2 = w^2 * ||(1/sqrt r) R y||^2: its mean over
    # seeds estimates w^2 ||y||^2, the projection core's unbiasedness.
    _, w = jl_params(PARAMS)
    y = np.array([0.0, 2.0, 0.0, 0.0, 1.0])
    target = w**2 * float(y @ y)
    trials = 10_000
    values = []
    seeds = np.random.SeedSequence(555).generate_state(trials, np.uint64)
    F = np.zeros((5, 1))
    for s in seeds:
        P = released(F, PARAMS, int(s))
        values.append(private_sum_directional_variances(P, y))
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------- queries


def test_directional_variance_zero_query():
    P = released(np.zeros((4, 1)), PARAMS, seed=3)
    assert private_sum_directional_variances(P, np.zeros(4)) == 0.0


def test_directional_variance_scales_quadratically():
    P = released(np.random.default_rng(11).standard_normal((6, 2)), PARAMS, seed=4)
    y = np.random.default_rng(12).standard_normal(6)
    assert private_sum_directional_variances(P, 2.0 * y) == pytest.approx(
        4.0 * private_sum_directional_variances(P, y), rel=1e-12
    )


def test_directional_variance_shape_check():
    """A query vector or matrix of n + 1 rows, or a matrix of no column, is refused for a factor n = 4 wide."""
    P = released(np.zeros((4, 1)), PARAMS, seed=3)
    for shape in [(5,), (5, 2), (4, 0)]:
        with pytest.raises(ShapeError):
            private_sum_directional_variances(P, np.zeros(shape))


def test_directional_variance_refuses_a_non_finite_query():
    P = released(np.zeros((4, 1)), PARAMS, seed=3)
    V = np.zeros((4, 2))
    V[2, 1] = np.nan
    with pytest.raises(InvalidInputError, match="query matrix contains non-finite"):
        private_sum_directional_variances(P, V)


def test_sum_refuses_panels_that_do_not_tile_the_factor(monkeypatch):
    """Panels [0, 16), [16, 32) and [32, 40): a factor whose panels skip the first raises.

    Without the check the rows of the skipped panel were summed from
    uninitialised memory.
    """
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 40)
    P = released(np.random.default_rng(17).standard_normal((40, 2)), PARAMS, seed=9)
    skips_first = SimpleNamespace(rows=P.rows, n=P.n, panels=lambda: islice(P.panels(), 1, None))
    V = np.ones((40, 1))
    assert private_sum_directional_variances(P, V) > 0.0
    with pytest.raises(InvalidInputError, match=r"covered rows \[0, 0\) of 40, then gave rows \[16, 32\)"):
        private_sum_directional_variances(skips_first, V)


def test_sum_single_column_equals_single_query():
    P = released(np.random.default_rng(13).standard_normal((5, 2)), PARAMS, seed=6)
    y = np.random.default_rng(14).standard_normal(5)
    assert private_sum_directional_variances(P, y[:, None]) == pytest.approx(
        private_sum_directional_variances(P, y), rel=1e-12
    )


def test_sum_zero_matrix():
    P = released(np.zeros((5, 1)), PARAMS, seed=7)
    assert private_sum_directional_variances(P, np.zeros((5, 3))) == 0.0


def test_sum_matches_columnwise_loop():
    P = released(np.random.default_rng(15).standard_normal((7, 3)), PARAMS, seed=8)
    V = np.random.default_rng(16).standard_normal((7, 4))
    R = unpack_factor(*P)
    total = sum(float(np.sum((R @ V[:, i]) ** 2)) for i in range(4))
    assert private_sum_directional_variances(P, V) == pytest.approx(total, rel=1e-10)


# ---------------------------------------------------------------- coverage


def test_single_query_coverage():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.2, nu=0.05)
    rng = np.random.default_rng(20)
    F = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    y /= np.linalg.norm(y)
    t = float(y @ F @ F.T @ y)
    t_mech = tau_mechanism(p)
    seeds = np.random.SeedSequence(99).generate_state(400, np.uint64)
    hits = 0
    for s in seeds:
        P = released(F, p, int(s))
        value = private_sum_directional_variances(P, y)
        if (1 - p.eta) * t - t_mech <= value <= (1 + p.eta) * t + t_mech:
            hits += 1
    assert hits / len(seeds) >= 1.0 - p.nu - 0.02


def test_multi_query_union_coverage():
    p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.2, nu=0.05)
    rng = np.random.default_rng(21)
    F = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 4))
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    t_mech = tau_mechanism(p)
    targets = [float(V[:, i] @ F @ F.T @ V[:, i]) for i in range(4)]
    seeds = np.random.SeedSequence(199).generate_state(300, np.uint64)
    all_hit = 0
    for s in seeds:
        P = released(F, p, int(s))
        ok = all(
            (1 - p.eta) * t - t_mech
            <= private_sum_directional_variances(P, V[:, i])
            <= (1 + p.eta) * t + t_mech
            for i, t in enumerate(targets)
        )
        all_hit += ok
    assert all_hit / len(seeds) >= 1.0 - 4 * p.nu - 0.05


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_release_always_finite(seed):
    P = released(np.random.default_rng(2).standard_normal((5, 2)), PARAMS, seed)
    assert np.all(np.isfinite(P.values))
