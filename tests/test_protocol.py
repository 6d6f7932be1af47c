import base64
import dataclasses
import io
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pitest import laws, privacy
from pitest.cli import main
from pitest.data import save_csv, synthetic_pair
from pitest.errors import (
    InsufficientSamplesError,
    InvalidInputError,
    PackageFormatError,
    ShapeError,
    UnsupportedVersionError,
)
from pitest.bounds import (
    aggregate_coverage_probability,
    check_s_param,
    evaluate_bounds,
    lower_bound_ratio,
    upper_bound_ratio,
)
from pitest.estimators import dcov_sq_closed_form, decide, rejection_threshold, s_hat
from pitest.privacy import (
    PrivacyParams,
    jl_params,
    private_centered_sq_norm,
    private_sum_directional_variances,
    privatize_covariance_panels,
    tau_mechanism,
)
from pitest.protocol import (
    AlicePackage,
    alice_stream,
    bob_evaluate,
    factor_W,
    package_parts,
    read_package,
)
from pitest.sweep import SweepConfig

from reference import (
    LAPACK_AGREEMENT,
    PackedFactor,
    _draw_bartlett,
    _factor_from_bartlett,
    dcov_sq_direct,
    dcov_sq_directional,
    encoded,
    gaussian_release,
    held,
    pack_factor,
    package_bytes,
    prepared,
    relative_gap,
    release_centered_sq_norm,
    released,
    unpack_factor,
)

# cheap parameters: per-release r = ceil(8 ln 4 / 0.25) = 45 rows
PARAMS = PrivacyParams(epsilon=10.0, delta=0.01, eta=0.5, nu=0.5)


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 2))
    Y = rng.standard_normal((12, 3))
    return X, Y


@pytest.fixture(scope="module")
def package(xy):
    return prepared(xy[0], PARAMS, master_seed=2024)


def _gaussian_releases(X, params, master_seed) -> tuple[np.ndarray, np.ndarray]:
    """The r x n releases of B B^T and X X^T drawn from the seeds alice_stream uses."""
    seeds = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    half = params.half_budget()
    return gaussian_release(factor_W(X), half, int(seeds[0])), gaussian_release(X, half, int(seeds[1]))


def test_alice_package_deterministic(xy, package):
    again = alice_stream(xy[0], PARAMS, master_seed=2024)
    assert encoded(again) == encoded(package)
    other = alice_stream(xy[0], PARAMS, master_seed=2025)
    assert encoded(other) != encoded(package)


def test_projection_rows_use_half_budget(xy, package):
    r, _ = jl_params(PARAMS.half_budget())
    assert (package.proj_B.rows, package.proj_B.n) == (min(r, 12), 12)
    assert all(P.shape == (r, 12) for P in _gaussian_releases(xy[0], PARAMS, 2024))


def test_release_seeds_derived_from_master(xy, package):
    X = xy[0]
    seeds = np.random.SeedSequence(2024).generate_state(2, np.uint64)
    half = PARAMS.half_budget()
    proj_B = released(factor_W(X), half, int(seeds[0]))
    assert np.array_equal(proj_B.values, held(package.proj_B).values)
    assert package.sx == private_centered_sq_norm(X, half, int(seeds[1]))


# name, sample count, data matrix: the floor or the data dominates, a column
# is constant (a zero eigenvalue), d > n (no floor-only term), a large mean
_SX_LAW_CASES = [
    ("floor-dominated", lambda g: g.standard_normal((8, 2))),
    ("data-dominated", lambda g: 1e4 * g.standard_normal((8, 2))),
    ("constant column", lambda g: np.column_stack(
        [800.0 * g.standard_normal((8, 2)), np.full(8, 7.0)])),
    ("d > n", lambda g: 500.0 * g.standard_normal((5, 9))),
    ("mean 1e6", lambda g: 1e6 + 800.0 * g.standard_normal((8, 2))),
]


def test_sx_is_post_processing_of_the_x_release():
    """sx has the law of the centred sum of squares of a drawn release of X X^T.

    The exact-law draw, the sweep's batched draw of the same law from one
    generator and the reduction of drawn releases are compared over disjoint
    seeds, by two-sample KS tests against the reductions and by bands on the mean
    ||Xc||^2 + w^2 (n-1) and the variance (2/r)(sum (lambda_j + w^2)^2 +
    w^4 (n-1-q)) that the law implies, with the fourth cumulant of the chi-square
    sum setting the standard error of the sample variance.
    """
    p = PrivacyParams(epsilon=1.0, delta=0.1, eta=0.9, nu=0.5)  # r = 14: skewed chi-squares
    r, w = jl_params(p)
    assert r == 14
    trials = 2000
    for case, make in _SX_LAW_CASES:
        X = make(np.random.default_rng(41))
        n, d = X.shape
        Xc = X - X.mean(axis=0)
        q = min(d, n - 1)
        lam = np.sort(np.linalg.svd(Xc, compute_uv=False) ** 2)[::-1][:q]
        c = np.append(lam + w**2, np.full(n - 1 - q, w**2))  # one chi^2_r weight each
        mean = float(np.sum(Xc * Xc)) + w**2 * (n - 1)
        var = 2.0 / r * float(np.sum(c**2))
        kappa4 = 48.0 / r**3 * float(np.sum(c**4))
        drawn = np.array([private_centered_sq_norm(X, p, s) for s in range(trials)])
        reduced = np.array([release_centered_sq_norm(X, p, s) for s in range(trials, 2 * trials)])
        law = laws.centered_sq_norm_law(laws.centered_spectrum(X), n, r, w)
        batched = law.draws(np.random.default_rng(42), trials)
        for sample in (drawn, batched):
            assert stats.ks_2samp(sample, reduced).pvalue > 1e-3, case
        for sample in (drawn, batched, reduced):
            se_var = math.sqrt(kappa4 / trials + 2.0 * var**2 / (trials - 1))
            assert abs(sample.mean() - mean) < 5.0 * math.sqrt(var / trials), case
            assert abs(sample.var(ddof=1) - var) < 5.0 * se_var, case


def test_alice_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        alice_stream(np.array([[0.0], [np.nan]]), PARAMS, 0)
    with pytest.raises(InsufficientSamplesError):
        alice_stream(np.array([[1.0]]), PARAMS, 0)


def test_a_package_read_as_zeros_after_a_crash_is_refused(package, tmp_path):
    """A replaced package whose blocks were not written before a power loss reads as zeros."""
    path = tmp_path / "pkg.bin"
    path.write_bytes(bytes(len(encoded(package))))
    with open(path, "rb") as handle, pytest.raises(PackageFormatError, match="not valid JSON"):
        read_package(handle)


def test_read_package_reads_a_file_and_a_buffer_alike(package, xy, tmp_path):
    """A package file, its bytes in memory, and either handle left at another offset, give one report."""
    blob = encoded(package)
    path = tmp_path / "pkg.bin"
    path.write_bytes(blob)
    expected = bob_evaluate(package, xy[1])
    with open(path, "rb") as handle:
        assert bob_evaluate(read_package(handle), xy[1]) == expected
        handle.seek(37)
        assert bob_evaluate(read_package(handle), xy[1]) == expected
    buffer = io.BytesIO(blob)
    buffer.seek(0, io.SEEK_END)
    from_memory = read_package(buffer)
    assert (from_memory.params, from_memory.sx, from_memory.n) == (package.params, package.sx, 12)
    assert bob_evaluate(from_memory, xy[1]) == expected


def test_identity_hook_reproduces_nonprivate_statistics(xy):
    X, Y = xy
    # a 'release' with no noise and no floor: P = F^T answers queries exactly,
    # and so does the triangular factor of its QR
    Xc = X - X.mean(axis=0)
    R = np.linalg.qr(factor_W(X).T, mode="r")
    pkg = AlicePackage(PARAMS, PackedFactor(pack_factor(R), *R.shape), sx=float(np.sum(Xc * Xc)))
    report = bob_evaluate(pkg, Y)
    omega = dcov_sq_direct(X, Y)
    s = s_hat(X, Y)
    assert report.omega_bar_sq == pytest.approx(omega, rel=1e-9)
    assert report.s_bar == pytest.approx(s, rel=1e-9)
    assert report.statistic == pytest.approx(decide(omega, s, 12, 0.05).statistic, rel=1e-9)
    assert not report.degenerate


def test_s_bar_keeps_precision_under_large_y_mean(xy):
    X, Y = xy
    Xc = X - X.mean(axis=0)
    R = np.linalg.qr(factor_W(X).T, mode="r")
    pkg = AlicePackage(PARAMS, PackedFactor(pack_factor(R), *R.shape), sx=float(np.sum(Xc * Xc)))
    for shift in (1e8, -1e9):
        report = bob_evaluate(pkg, Y + shift)
        assert report.s_bar == pytest.approx(s_hat(X, Y + shift), rel=1e-6)
        assert not report.degenerate


def test_package_stores_each_fact_once(package):
    """The budget, the projection and sx; n is the projection's width."""
    assert [f.name for f in dataclasses.fields(AlicePackage)] == ["params", "proj_B", "sx"]
    assert package.n == package.proj_B.n == 12


def test_bob_is_deterministic_and_does_not_touch_inputs(package, xy):
    Y = xy[1].copy()
    before = Y.tobytes()
    r1 = bob_evaluate(package, Y, alpha=0.05)
    r2 = bob_evaluate(package, Y, alpha=0.05)
    assert Y.tobytes() == before
    assert r1 == r2


def test_constant_y_gives_degenerate_report(package):
    report = bob_evaluate(package, np.ones((12, 2)))
    assert report.degenerate
    assert report.statistic is None
    assert report.reject is None
    assert report.bounds is None
    assert report.s_bar == 0.0


def test_constant_x_gives_a_zero_factor_and_answer():
    """0.1 has no exact mean, yet a constant column's factor is exact zeros, centred as the
    estimators centre.  At epsilon = 1e300 w^2 underflows to 0, so Bob's answer, the release
    of that zero factor, is 0 too."""
    X = np.full((20, 2), 0.1)
    assert not factor_W(X).any()
    Y = np.random.default_rng(4).standard_normal((20, 2))
    p = PrivacyParams(1e300, 2e-4, 0.1, 0.05)
    assert bob_evaluate(alice_stream(X, p, 0), Y).omega_bar_sq == 0.0


@pytest.mark.parametrize("x_scale, y_scale", [(1e152, 1.0), (1.0, 1e160)])
def test_bob_refuses_an_overflowing_statistic_without_a_numpy_warning(x_scale, y_scale):
    """At X's scale 1e152 Bob's answer overflows, and at Y's scale 1e160 so does ||Yc||^2:
    decide's refusal, naming the scale, is all that comes out."""
    X, Y = synthetic_pair(400, 2, 2, dependence=0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pkg = alice_stream(x_scale * X, PrivacyParams(1.0, 2e-4, 0.5, 0.5), 1)
        with pytest.raises(InvalidInputError, match="scale is too large"):
            bob_evaluate(pkg, y_scale * Y)


def test_sample_count_mismatch_message(package):
    with pytest.raises(ShapeError, match=r"built for n = 12 samples but Y has 10 rows"):
        bob_evaluate(package, np.random.default_rng(0).standard_normal((10, 2)))


def test_bob_rejects_bad_alpha(package, xy):
    with pytest.raises(InvalidInputError):
        bob_evaluate(package, xy[1], alpha=0.0)


@pytest.mark.parametrize("s_param", [math.nan, math.inf, 0.0, -1.0])
def test_bob_refuses_a_bad_s_param_before_reading_the_factor(s_param, xy):
    """An s_param that is not a positive finite number raises, and a released factor stays unread."""
    released_package = alice_stream(xy[0], PARAMS, 2024)
    with pytest.raises(InvalidInputError, match=f"s_param must be a positive finite number, got {s_param}"):
        bob_evaluate(released_package, xy[1], s_param=s_param)
    assert bob_evaluate(released_package, xy[1]) == bob_evaluate(prepared(xy[0], PARAMS, 2024), xy[1])


# The package's two scalar rules (README, "Library"): each public scalar
# argument, called with every other argument valid.  ``good`` is a valid
# value; a float's argument is a number and an int's an integer.
_F = np.random.default_rng(3).standard_normal((6, 2))
_TAU_PARAMS = PrivacyParams(1.0, 1e-4, 0.5, 0.01)  # (m + n) nu < 1 for m + n up to 99
_SCALARS = {
    "PrivacyParams.epsilon": (lambda v: PrivacyParams(v, 0.5, 0.5, 0.5), 1.0),
    "PrivacyParams.delta": (lambda v: PrivacyParams(1.0, v, 0.5, 0.5), 0.5),
    "PrivacyParams.eta": (lambda v: PrivacyParams(1.0, 0.5, v, 0.5), 0.5),
    "PrivacyParams.nu": (lambda v: PrivacyParams(1.0, 0.5, 0.5, v), 0.5),
    "check_s_param": (check_s_param, 2.0),
    "lower_bound_ratio.ratio": (lambda v: lower_bound_ratio(v, 0.5), 0.5),
    "lower_bound_ratio.eta": (lambda v: lower_bound_ratio(0.5, v), 0.5),
    "upper_bound_ratio.ratio": (lambda v: upper_bound_ratio(v, 0.5, 0.25, 4.0), 0.5),
    "upper_bound_ratio.eta": (lambda v: upper_bound_ratio(0.5, v, 0.25, 4.0), 0.5),
    "upper_bound_ratio.tau": (lambda v: upper_bound_ratio(0.5, 0.5, v, 4.0), 0.25),
    "upper_bound_ratio.s_param": (lambda v: upper_bound_ratio(0.5, 0.5, 0.25, v), 4.0),
    "aggregate_coverage_probability.m": (lambda v: aggregate_coverage_probability(v, 2, 0.125), 1),
    "aggregate_coverage_probability.n": (lambda v: aggregate_coverage_probability(1, v, 0.125), 2),
    "aggregate_coverage_probability.nu": (lambda v: aggregate_coverage_probability(1, 2, v), 0.125),
    "evaluate_bounds.ratio": (lambda v: evaluate_bounds(v, 4.0, _TAU_PARAMS), 0.5),
    "evaluate_bounds.s_param": (lambda v: evaluate_bounds(0.5, v, _TAU_PARAMS), 4.0),
    "tau.m": (lambda v: privacy.tau(_TAU_PARAMS, v, 20), 2),
    "tau.n": (lambda v: privacy.tau(_TAU_PARAMS, 2, v), 20),
    "rejection_threshold": (rejection_threshold, 0.25),
    "decide.n": (lambda v: decide(1.0, 1.0, v, 0.05), 3),
    "check_sx": (laws.check_sx, 2.0),
    "synthetic_pair.n": (lambda v: synthetic_pair(v), 20),
    "synthetic_pair.d": (lambda v: synthetic_pair(20, d=v), 3),
    "synthetic_pair.m": (lambda v: synthetic_pair(20, m=v), 3),
    "synthetic_pair.clusters": (lambda v: synthetic_pair(20, clusters=v), 2),
    "synthetic_pair.dependence": (lambda v: synthetic_pair(20, dependence=v), 0.5),
    "synthetic_pair.x_scale": (lambda v: synthetic_pair(20, x_scale=v), 2.0),
    "synthetic_pair.seed": (lambda v: synthetic_pair(20, seed=v), 3),
    "SweepConfig.replications": (lambda v: SweepConfig(epsilons=(1.0,), replications=v), 4),
    "SweepConfig.master_seed": (lambda v: SweepConfig(epsilons=(1.0,), master_seed=v), 3),
    "privatize_covariance_panels.seed":
        (lambda v: [x.copy() for _, _, x in privatize_covariance_panels(_F, PARAMS, v).panels()], 3),
    "private_centered_sq_norm.seed": (lambda v: private_centered_sq_norm(_F, PARAMS, v), 3),
    "alice_stream.master_seed": (lambda v: alice_stream(_F, PARAMS, v).sx, 3),
}


def _refused_cases():
    for name, (call, good) in _SCALARS.items():
        for bad in (True, "0.5", None, 10**400 if isinstance(good, float) else 2.7):
            if not (bad is None and name == "alice_stream.master_seed"):  # None: OS entropy
                yield pytest.param(call, bad, id=f"{name}={bad!r:.8}")
    motivation = [  # each accepted, or refused with another error, before the two rules
        (check_s_param, "1e3"), (laws.check_sx, True), (lambda v: lower_bound_ratio(v, 0.1), True),
        (lambda v: lower_bound_ratio(v, 0.1), 10**400),
        (lambda v: upper_bound_ratio(0.5, 0.1, v, 1e20), 10**400),
        (laws.check_sx, 10**400), (lambda v: synthetic_pair(5, x_scale=v), 10**400),
        (rejection_threshold, "0.05"), (lambda v: aggregate_coverage_probability(1, 2, v), "0.1"),
        (laws.check_sx, "1"), (lambda v: aggregate_coverage_probability(v, 2, 0.1), 1.5),
        (lambda v: private_centered_sq_norm(_F, PARAMS, v), "5"),
        (lambda v: private_centered_sq_norm(_F, PARAMS, v), -1),
        (lambda v: privatize_covariance_panels(_F, PARAMS, v), -1),
        (lambda v: evaluate_bounds(0.5, v, PrivacyParams(1, 1e-4, 0.1, 0.05)), math.nan),
        (lambda v: decide(1.0, 1.0, v, 0.05), True), (lambda v: decide(1.0, 1.0, v, 0.05), 2.5),
        (lambda v: decide(1.0, 1.0, v, 0.05), "3"), (lambda v: decide(1.0, 1.0, v, 0.05), 0),
    ]
    for i, (call, bad) in enumerate(motivation):
        yield pytest.param(call, bad, id=f"motivation-{i}")


@pytest.mark.parametrize("call, bad", _refused_cases())
def test_a_scalar_from_outside_is_a_number_or_an_integer(call, bad):
    """A bool, a string or None is neither a number nor an integer.

    An int too large for a float is no finite number, and 2.7 no integer.
    """
    with pytest.raises(InvalidInputError):
        call(bad)


@pytest.mark.parametrize("name", _SCALARS)
def test_numpy_scalars_count_as_their_python_values(name):
    call, good = _SCALARS[name]
    same = call(np.float32(good) if isinstance(good, float) else np.int64(good))
    expected = call(good)
    if isinstance(expected, (tuple, list)):
        assert all(np.array_equal(a, b) for a, b in zip(same, expected, strict=True))
    else:
        assert same == expected


def test_a_default_s_param_that_underflows_still_clamps_the_upper_bound():
    """``s_bar / n`` can round to 0 for ``s_bar`` > 0; check_s_param refuses 0 as a given ``s_param``."""
    X, Y = synthetic_pair(20, 2, 1, seed=1)
    pkg = alice_stream(X * 1e-150, PrivacyParams(1e12, 0.01, 0.5, 0.5), 1)
    report = bob_evaluate(pkg, Y * 10.0**-153.5)
    assert 0.0 < report.s_bar and report.s_bar / 20 == 0.0
    assert report.bounds.s_param == math.ulp(0.0) and report.bounds.s_param_clamped


def test_report_statistics_match_package_arithmetic(package, xy):
    Y = xy[1]
    report = bob_evaluate(package, Y)
    n = 12
    omega = 2.0 / n**2 * np.linalg.norm(unpack_factor(*held(package.proj_B)) @ Y, "fro") ** 2
    # ||P_X G||_F^2 = n ||P_X J||_F^2 = n sx
    s = 4.0 / n**4 * (n * package.sx) * (
        n * np.linalg.norm(Y, "fro") ** 2 - np.linalg.norm(Y.sum(axis=0)) ** 2
    )
    assert report.omega_bar_sq == pytest.approx(omega, rel=1e-12)
    assert report.s_bar == pytest.approx(s, rel=1e-12)
    assert report.statistic == pytest.approx(n * omega / s, rel=1e-12)


def test_analyst_and_reference_paths_build_no_n_by_n_array():
    """Peak traced memory stays below a quarter of one n x n float64 array."""
    n = 3000
    params = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.9, nu=0.5)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 2))
    pkg = prepared(X, params, master_seed=5)
    assert pkg.proj_B.rows == 14
    calls = {
        "alice_stream, encoded": lambda: encoded(alice_stream(X, params, master_seed=5)),
        "bob_evaluate": lambda: bob_evaluate(pkg, Y),
        "s_hat": lambda: s_hat(X, Y),
        "dcov_sq_closed_form": lambda: dcov_sq_closed_form(X, Y),
        "dcov_sq_directional(factor_W(X), Y)": lambda: dcov_sq_directional(factor_W(X), Y),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    limit = n * n * 8 / 4
    assert all(peak < limit for peak in peaks.values()), (peaks, limit)


def test_report_bounds_plumbing(package, xy):
    report = bob_evaluate(package, xy[1])
    b = report.bounds
    t_mech = tau_mechanism(PARAMS.half_budget())
    assert b.tau_used == pytest.approx(t_mech, rel=1e-12)
    assert b.s_param == pytest.approx(report.s_bar / 12, rel=1e-12)
    # at these noise levels the default scale sits under the floor
    assert b.s_param_clamped
    assert b.upper == math.inf
    assert math.isfinite(b.lower)


def test_explicit_s_param_unclamps_upper(package, xy):
    t_mech = tau_mechanism(PARAMS.half_budget())
    big = 10.0 * t_mech / (1.0 - PARAMS.eta)
    report = bob_evaluate(package, xy[1], s_param=big)
    assert report.bounds.s_param == big
    assert not report.bounds.s_param_clamped
    assert math.isfinite(report.bounds.upper)
    assert report.bounds.lower < report.bounds.upper


# ------------------------------------------------------------ wire format


def _header_and_payload(blob: bytes) -> tuple[dict, bytes]:
    head, newline, payload = blob.partition(b"\n")
    assert newline == b"\n"
    return json.loads(head), payload


def _line_and_payload(blob: bytes) -> tuple[bytes, bytes]:
    """A package's header line, newline included, and its payload."""
    end = blob.index(b"\n") + 1
    return blob[:end], blob[end:]


def _read(blob: bytes) -> AlicePackage:
    """The package in ``blob``, read from memory: its header and length are checked."""
    return read_package(io.BytesIO(blob))


def _read_factor(blob: bytes) -> AlicePackage:
    """The package in ``blob``, with every panel of its factor read and checked too."""
    package = _read(blob)
    for _ in package.proj_B.panels():
        pass
    return package


def _doc(package) -> dict:
    return _header_and_payload(encoded(package))[0]


def _line(head: bytes) -> bytes:
    """``head`` as a header line: padded with blanks, as the encoder pads it, and a newline."""
    return head + b" " * (-(len(head) + 1) % 8) + b"\n"


def _canonical(doc) -> bytes:
    """``doc`` as the encoder writes a header: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _wire(package, doc) -> bytes:
    """A (possibly mutated) header, written and padded as the encoder writes one, then the package's payload.

    The line has the encoder's spelling, so a mutated field is refused by
    its own check, not by the comparison with the canonical line.
    """
    payload = _header_and_payload(encoded(package))[1]
    return _line(_canonical(doc)) + payload


def _reject(package, doc):
    with pytest.raises(PackageFormatError):
        _read(_wire(package, doc))


def test_round_trip_is_bit_exact(package):
    blob = encoded(package)
    pkg2 = _read(blob)
    assert encoded(pkg2) == blob
    assert pkg2.n == package.n
    assert pkg2.params == package.params
    assert np.array_equal(held(pkg2.proj_B).values, held(package.proj_B).values)
    assert pkg2.sx == package.sx
    # integer budget fields are written as the floats the parser reads back
    ints = AlicePackage(PrivacyParams(1, 0.01, 0.3, 0.5), package.proj_B, package.sx)
    assert _read(encoded(ints)).params == ints.params


def test_layout_is_header_line_then_raw_payloads(package, xy):
    blob = package_bytes(xy[0], PARAMS, 2024)  # as Alice writes it
    assert blob == encoded(package)
    doc, payload = _header_and_payload(blob)
    head = blob[: blob.index(b"\n")]
    assert head == _line(_canonical(doc))[:-1]  # the canonical JSON, then blanks up to a multiple of 8
    assert doc["version"] == 7
    assert sorted(doc) == ["n", "privacy", "sx", "version"]
    assert doc["sx"] == package.sx
    # the upper triangle of the 12 x 12 factor, column j keeping j + 1 entries
    assert len(blob) == len(head) + 1 + 8 * (12 * 13 // 2)
    # the factor's upper trapezoid column by column
    R = unpack_factor(*held(package.proj_B))
    assert payload == b"".join(R[: j + 1, j].astype("<f8").tobytes() for j in range(12))
    # For several n and budgets, an sx of 1 to 8 significant digits gives the
    # unpadded line (the JSON and the newline) every length mod 8, 0 and 7
    # included; the payload starts at a multiple of 8 all the same, and a
    # line one blank short is not the canonical line, so it is refused.
    residues = set()
    for n, params in ((12, PARAMS), (7, PrivacyParams(1.0, 0.01, 0.3, 0.5)),
                      (1000, PrivacyParams(10.0, 2e-4, 0.9, 0.5))):
        proj = held(alice_stream(np.random.default_rng(n).standard_normal((n, 2)), params, 2024).proj_B)
        for digits in range(8):
            pkg = AlicePackage(params, proj, sx=1.0 + 2.0**-digits if digits else 1.0)
            line, payload = _line_and_payload(encoded(pkg))
            unpadded = len(line.rstrip(b" \n")) + 1
            residues.add(unpadded % 8)
            assert len(line) % 8 == 0 and len(line) - unpadded < 8
            wire = _read(line + payload)
            assert np.array_equal(held(wire.proj_B).values, proj.values) and wire.sx == pkg.sx
            if len(line) > unpadded:
                with pytest.raises(PackageFormatError, match="not the canonical line"):
                    _read(line[:-2] + b"\n" + payload)
    assert residues == set(range(8))


def test_stream_parts_are_the_header_line_then_views_of_one_scratch_panel(monkeypatch):
    """package_parts gives the header line, then every released panel as a view of the same scratch panel.

    So a writer writes each part before it asks for the next, as
    ``pi-test alice`` and package_bytes do; ``b"".join(parts)`` collects the
    views first, and its panels then all read as the last one released.
    """
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 40)  # panels [0, 16), [16, 32) and [32, 40)
    X = np.random.default_rng(9).standard_normal((40, 2))
    parts = package_parts(alice_stream(X, PARAMS, 3))
    head = next(parts)
    assert head.endswith(b"\n") and head.count(b"\n") == 1 and len(head) % 8 == 0
    views, copies = [], []
    for part in parts:
        views.append(np.frombuffer(part, dtype="<f8"))
        copies.append(bytes(part))
    offsets = [privacy._row_offset(a, 40) for a in (0, 16, 32, 40)]
    assert [len(c) for c in copies] == [8 * (b - a) for a, b in zip(offsets, offsets[1:])]
    assert all(np.shares_memory(view, views[0]) for view in views[1:])
    written = head + b"".join(copies)
    assert written == package_bytes(X, PARAMS, 3) == encoded(prepared(X, PARAMS, 3))
    assert b"".join(package_parts(alice_stream(X, PARAMS, 3))) != written


def test_a_released_package_is_read_once(xy):
    """alice_stream's package gives Bob the report of its bytes; a second evaluation raises.

    Its factor is released as Bob reads it, so a second reading finds no
    panel, and Bob refuses it rather than sum rows that were never filled.
    """
    released_package = alice_stream(xy[0], PARAMS, 2024)
    assert bob_evaluate(released_package, xy[1]) == bob_evaluate(
        prepared(xy[0], PARAMS, 2024), xy[1])
    with pytest.raises(InvalidInputError, match=r"covered rows \[0, 0\) of 12: a factor read once"):
        bob_evaluate(released_package, xy[1])


def test_a_release_and_a_stored_package_give_one_factor_type(xy):
    """A release, a streamed package and a read package give Bob the one factor type.

    A read package's factor reads its handle again on every pass, with the
    same panels; a release's is read once, so Bob's sum refuses a second pass.
    """
    release = privatize_covariance_panels(factor_W(xy[0]), PARAMS.half_budget(), 5)
    streamed = alice_stream(xy[0], PARAMS, 5).proj_B
    stored = prepared(xy[0], PARAMS, 5).proj_B
    assert type(release) is type(streamed) is type(stored)
    first, second = ([(a, b, values.copy()) for a, b, values in stored.panels()] for _ in range(2))
    assert len(first) == len(second) > 0
    for (a, b, values), (c, d, again) in zip(first, second):
        assert (a, b) == (c, d) and np.array_equal(values, again)
    assert private_sum_directional_variances(release, xy[1]) > 0.0
    with pytest.raises(InvalidInputError, match=r"covered rows \[0, 0\) of 12: a factor read once"):
        private_sum_directional_variances(release, xy[1])


def test_round_trip_preserves_bob_verdict(package, xy):
    direct = bob_evaluate(package, xy[1])
    wired = bob_evaluate(_read(encoded(package)), xy[1])
    assert wired == direct


def test_rejects_text(package):
    # the format is binary: a text handle holds no package, whatever it holds
    with pytest.raises(PackageFormatError, match="package must be bytes, got str"):
        read_package(io.StringIO(encoded(package).decode("latin-1")))


def test_rejects_non_utf8():
    with pytest.raises(PackageFormatError, match="UTF-8"):
        _read(b"\xff\xfe\x00rubbish")


def test_rejects_truncated_json(package):
    blob = encoded(package)
    with pytest.raises(PackageFormatError, match="JSON"):
        _read(blob[: blob.index(b"\n") - 50])


def test_rejects_non_object_document():
    with pytest.raises(PackageFormatError):
        _read(b"[1,2,3]")
    with pytest.raises(PackageFormatError):
        _read(b"[1,2,3]\n")


def test_rejects_missing_newline(package):
    blob = encoded(package)
    end = blob.index(b"\n")
    with pytest.raises(PackageFormatError, match="newline"):
        _read(blob[:end])
    with pytest.raises(PackageFormatError):
        _read(blob[:end] + blob[end + 1:])


def test_rejects_short_payload(package):
    blob = encoded(package)
    for cut in (1, 8, 8 * 12, len(blob) - blob.index(b"\n") - 1):
        with pytest.raises(PackageFormatError, match="expected"):
            _read(blob[:-cut])


def test_rejects_trailing_bytes(package):
    blob = encoded(package)
    for extra in (b"\x00", b"\n", bytes(8), blob):
        with pytest.raises(PackageFormatError, match="expected"):
            _read(blob + extra)


@pytest.mark.parametrize("field", ["version", "n", "privacy", "sx"])
def test_rejects_missing_section(package, field):
    doc = _doc(package)
    del doc[field]
    with pytest.raises(PackageFormatError, match=field):
        _read(_wire(package, doc))


def test_rejects_future_version(package):
    doc = _doc(package)
    doc["version"] = 8
    with pytest.raises(UnsupportedVersionError, match="version 8"):
        _read(_wire(package, doc))
    # the subclass keeps one except-clause sufficient for callers
    assert issubclass(UnsupportedVersionError, PackageFormatError)


def _two_projection_header(package, xy, version) -> tuple[dict, list[bytes]]:
    """The header of a version 1 or 2 document, which sent P_B and P_X whole."""
    doc = _doc(package)
    del doc["sx"]
    doc["version"] = version
    PB, PX = _gaussian_releases(xy[0], PARAMS, 2024)
    doc["proj_B"] = {"rows": PB.shape[0], "cols": PB.shape[1]}
    doc["proj_X"] = {"rows": PX.shape[0], "cols": PX.shape[1]}
    return doc, [P.astype("<f8").tobytes() for P in (PB, PX)]


def test_rejects_version_1_document(package, xy):
    """A base64-in-JSON document of format version 1 is no longer read."""
    doc, raws = _two_projection_header(package, xy, 1)
    for name, raw in zip(("proj_B", "proj_X"), raws):
        doc[name]["data"] = base64.b64encode(raw).decode("ascii")
    v1 = _canonical(doc)
    assert b"\n" not in v1
    with pytest.raises(UnsupportedVersionError, match="version 1"):
        _read(v1)


def test_rejects_version_2_document(package, xy):
    """A version 2 document, a header line then both projections, is no longer read."""
    doc, raws = _two_projection_header(package, xy, 2)
    head = _canonical(doc)
    with pytest.raises(UnsupportedVersionError, match="version 2"):
        _read(b"".join([head, b"\n", *raws]))


def test_rejects_version_3_document(package, xy):
    """A version 3 document, a header line then P_B whole row by row, is no longer read."""
    doc = _doc(package)
    doc["version"] = 3
    PB = _gaussian_releases(xy[0], PARAMS, 2024)[0]
    doc["proj_B"] = {"rows": PB.shape[0], "cols": PB.shape[1]}
    head = _canonical(doc)
    with pytest.raises(UnsupportedVersionError, match="version 3"):
        _read(head + b"\n" + PB.astype("<f8").tobytes())


def test_rejects_version_4_document(package):
    """A version 4 document, a header line then the whole factor column by column, is no longer read."""
    doc = _doc(package)
    doc["version"] = 4
    head = _canonical(doc)
    R = unpack_factor(*held(package.proj_B))
    with pytest.raises(UnsupportedVersionError, match="version 4"):
        _read(head + b"\n" + R.astype("<f8").tobytes(order="F"))


def test_rejects_version_5_document(monkeypatch):
    """A version 5 document, the factor column by column whatever its height, is no longer read.

    Its payload is as long as version 7's, and for a factor of one panel
    it is the same bytes, so only the version tells them apart.
    """
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 40)  # 16-row panels
    X = np.random.default_rng(9).standard_normal((40, 2))
    pkg = prepared(X, PARAMS, master_seed=3)
    R = unpack_factor(*held(pkg.proj_B))
    doc = _doc(pkg)
    doc["version"] = 5
    head = _canonical(doc)
    v5 = b"".join(R[: j + 1, j].astype("<f8").tobytes() for j in range(40))
    assert len(v5) == held(pkg.proj_B).values.nbytes
    with pytest.raises(UnsupportedVersionError, match="version 5"):
        _read(head + b"\n" + v5)


def test_rejects_version_6_document(package):
    """A version 6 document, its header unpadded and with a ``proj_B`` section, is no longer read.

    Its payload is version 7's, byte for byte, so only the version tells them apart.
    """
    doc = _doc(package)
    doc["version"] = 6
    doc["proj_B"] = {"rows": package.proj_B.rows, "cols": package.n}
    head = _canonical(doc)
    payload = _header_and_payload(encoded(package))[1]
    with pytest.raises(UnsupportedVersionError, match="version 6"):
        _read(head + b"\n" + payload)


def test_rejects_non_integer_version(package):
    doc = _doc(package)
    doc["version"] = "7"
    _reject(package, doc)
    doc["version"] = True
    _reject(package, doc)


def test_rejects_bad_n(package):
    for bad in (1, 2.0, True, "12"):
        doc = _doc(package)
        doc["n"] = bad
        _reject(package, doc)
    # A consistent package of one sample: the canonical line for n = 1 and
    # the one positive entry of its 1 x 1 factor, so only n >= 2 refuses it.
    one = _line(_canonical(dict(_doc(package), n=1))) + struct.pack("<d", 1.0)
    with pytest.raises(PackageFormatError, match="n must be an integer >= 2, got 1"):
        _read(one)


def test_rejects_out_of_range_integers(package):
    doc = _doc(package)
    doc["privacy"]["epsilon"] = 10**400  # too large for a float
    with pytest.raises(PackageFormatError, match="epsilon"):
        _read(_wire(package, doc))
    blob = encoded(package)
    huge_n = blob.replace(b'"n":12', b'"n":' + b"1" * 5000, 1)  # too long to convert
    with pytest.raises(PackageFormatError, match="JSON"):
        _read(huge_n)


def test_rejects_bad_privacy_values(package):
    doc = _doc(package)
    doc["privacy"]["epsilon"] = True
    _reject(package, doc)
    doc = _doc(package)
    doc["privacy"]["epsilon"] = -1.0
    _reject(package, doc)
    doc = _doc(package)
    doc["privacy"]["split"] = "thirds"
    _reject(package, doc)
    doc = _doc(package)
    del doc["privacy"]["nu"]
    _reject(package, doc)


def test_rejects_a_header_without_the_budget_split(package):
    """The encoder always writes the split, so a header without one is not read as half-half."""
    doc = _doc(package)
    del doc["privacy"]["split"]
    with pytest.raises(PackageFormatError, match="missing required section 'split'"):
        _read(_wire(package, doc))


def test_rejects_row_count_other_than_the_headers_r(package):
    """The header's privacy fields fix r, so min(r, n); a factor of other height is refused by its length."""
    assert jl_params(PARAMS.half_budget()).r == 45
    assert package.proj_B.rows == min(45, 12)
    line = _line_and_payload(encoded(package))[0]
    for rows in (1, 11):
        other = pack_factor(unpack_factor(*held(package.proj_B))[:rows]).astype("<f8").tobytes()
        with pytest.raises(PackageFormatError, match=r"expected .* the 78 float64 of a packed 12x12"):
            _read(line + other)


def _factor_offset(rows: int, n: int, row: int, col: int) -> int:
    """The packed offset of entry (row, col), row <= col, of a rows x n factor in row panels."""
    h = privacy._panel_height(rows, n)
    a = row - row % h
    b = min(a + h, rows)
    start = a * n - a * (a - 1) // 2  # rows before a keep n, n - 1, ... entries
    if col < b:  # in the panel's triangle, column by column
        return start + (col - a) * (col - a + 1) // 2 + row - a
    return start + (b - a) * (b - a + 1) // 2 + (col - b) * (b - a) + row - a


def _with_factor_entry(package, row: int, col: int, value: float) -> bytes:
    """The package's blob with entry (row, col), row <= col, of the factor replaced by ``value``."""
    blob = bytearray(encoded(package))
    rows, n = package.proj_B.rows, package.n
    at = blob.index(b"\n") + 1 + 8 * _factor_offset(rows, n, row, col)
    blob[at:at + 8] = struct.pack("<d", value)
    return bytes(blob)


def test_rejects_a_diagonal_entry_that_is_not_positive(package):
    R = unpack_factor(*held(package.proj_B))
    for j in (0, 4, 11):  # the first, a middle and the last diagonal offset
        for value in (0.0, -0.0, -R[j, j], -5e-324):
            bad = _read(_with_factor_entry(package, j, j, value))  # the header is sound
            with pytest.raises(PackageFormatError, match="diagonal entry is not > 0"):
                bob_evaluate(bad, np.ones((12, 1)))
    # the entry just above a diagonal entry may be anything finite
    assert _read_factor(_with_factor_entry(package, 10, 11, -1.0)).n == 12


def test_rejects_a_diagonal_entry_that_is_not_positive_in_any_panel(monkeypatch):
    """The first and last diagonal entry of each of three row panels is checked where it lies."""
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 50)  # 16-row panels
    X = np.random.default_rng(9).standard_normal((50, 2))
    pkg = prepared(X, PARAMS, master_seed=3)
    assert (pkg.proj_B.rows, privacy._panel_height(45, 50)) == (45, 16)
    R = unpack_factor(*held(pkg.proj_B))
    assert _read_factor(encoded(pkg)).n == 50
    for j in (0, 15, 16, 31, 32, 44):  # panels [0, 16), [16, 32) and [32, 45)
        for value in (0.0, -0.0, -R[j, j], -5e-324):
            with pytest.raises(PackageFormatError, match="diagonal entry is not > 0"):
                _read_factor(_with_factor_entry(pkg, j, j, value))
        # the entries right of and above it may be anything finite
        assert _read_factor(_with_factor_entry(pkg, j, j + 1, -1.0)).n == 50
        if j:
            assert _read_factor(_with_factor_entry(pkg, j - 1, j, -1.0)).n == 50


def test_payload_is_the_factor_in_row_panels(monkeypatch):
    """Rows [0, 16), [16, 32) and [32, 45) of a 45 x 50 factor: each panel's triangle, then its rectangle.

    The layout is written out here by hand; the release, the parser's
    diagonal and the analyst's sum each read it so.
    """
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 50)
    n, rows = 50, 45
    i, j = np.indices((rows, n))
    R = np.where(i <= j, 1.0 + i + j / 1000.0, 0.0)  # the entries name their places
    by_hand = []
    for a, b in ((0, 16), (16, 32), (32, 45)):
        by_hand += [R[a : c + 1, c] for c in range(a, b)]  # the triangle, column by column
        by_hand += [R[a:b, c] for c in range(b, n)]  # the rectangle, column-major
    by_hand = np.concatenate(by_hand)
    assert by_hand.size == rows * (rows + 1) // 2 + (n - rows) * rows
    assert np.array_equal(pack_factor(R), by_hand)
    proj = PackedFactor(by_hand, rows, n)
    diagonal = [segment[privacy._diagonal_at(b - a)] for a, b, segment in proj.panels()]
    assert np.array_equal(np.concatenate(diagonal), np.diagonal(R))
    V = np.random.default_rng(1).standard_normal((n, 3))
    assert private_sum_directional_variances(proj, V) == pytest.approx(
        float(np.sum((R @ V) ** 2)), rel=1e-13)
    wire = _read(encoded(AlicePackage(PARAMS, proj, sx=1.0)))
    assert held(wire.proj_B).values.tobytes() == by_hand.tobytes()
    # Alice writes the factor of the dense draw and QR in the same order:
    # each column of each panel where the layout puts it, its values those
    # of LAPACK's factor to LAPACK_AGREEMENT
    F = factor_W(np.random.default_rng(2).standard_normal((n, 2)))
    r, w = jl_params(PARAMS.half_budget())
    T1, dense = _draw_bartlett(privacy._release_rng(4), r, 2, n)
    _factor_from_bartlett(F, w, r, T1, dense)
    values = released(F, PARAMS.half_budget(), 4).values
    scale = np.max(np.abs(dense))
    at = 0
    for a, b in ((0, 16), (16, 32), (32, 45)):
        for c in range(a, n):
            column = dense[a : min(c + 1, b), c]
            gap = np.max(np.abs(values[at : at + column.size] - column))
            assert gap <= LAPACK_AGREEMENT * scale, (a, c)
            at += column.size
    assert at == values.size


@pytest.mark.parametrize("n", [12, 60])
def test_one_panel_payload_is_the_upper_trapezoid_column_by_column(n):
    """A factor of one panel, rows = n (r = 45 > n = 12) or rows = r < n = 60, is sent as in version 5.

    The payload is the factor's upper trapezoid, column by column: its
    length is exact, and its values are LAPACK's factor to LAPACK_AGREEMENT.
    """
    X = np.random.default_rng(n).standard_normal((n, 2))
    half = PARAMS.half_budget()
    r, w = jl_params(half)
    rows = min(r, n)
    assert privacy._panel_height(rows, n) == rows
    B = factor_W(X)
    T1, dense = _draw_bartlett(privacy._release_rng(6), r, 2, n)
    _factor_from_bartlett(B, w, r, T1, dense)
    pkg = AlicePackage(PARAMS, released(B, half, 6), sx=1.0)
    payload = np.frombuffer(_header_and_payload(encoded(pkg))[1], dtype="<f8")
    expected = np.concatenate([dense[: min(j + 1, rows), j] for j in range(n)])
    assert payload.size == expected.size == rows * (rows + 1) // 2 + (n - rows) * rows
    assert relative_gap(payload, expected) <= LAPACK_AGREEMENT


def test_rejects_a_payload_one_entry_short_or_long(package):
    blob = encoded(package)
    for wrong in (blob[:-8], blob + struct.pack("<d", 1.0)):
        with pytest.raises(PackageFormatError, match=r"expected .* the 78 float64 of a packed 12x12"):
            _read(wrong)


def test_rejects_eta_too_small_for_a_row_count(package):
    doc = _doc(package)
    doc["privacy"]["eta"] = 1e-200  # eta^2 underflows in jl_params
    with pytest.raises(PackageFormatError, match="eta"):
        _read(_wire(package, doc))


def test_rejects_bad_sx(package):
    for bad in (True, False, None, "1.0", [1.0], {}, -1.0, -5e-324, 10**400):
        doc = _doc(package)
        doc["sx"] = bad
        with pytest.raises(PackageFormatError, match="sx"):
            _read(_wire(package, doc))
    # json.loads reads these as NaN and infinities
    line, payload = _line_and_payload(encoded(package))
    head = line.rstrip()
    good = b'"sx":' + json.dumps(package.sx).encode("ascii")
    assert head.count(good) == 1
    for bad in (b"NaN", b"Infinity", b"-Infinity", b"1e400"):
        with pytest.raises(PackageFormatError, match="sx"):
            _read(_line(head.replace(good, b'"sx":' + bad)) + payload)
    for edge in (0.0, 5e-324, 2.0**70):  # finite and >= 0, so read
        pkg = AlicePackage(package.params, package.proj_B, sx=edge)
        assert _read(encoded(pkg)).sx == edge
    # Only the encoder's line for the parsed fields is read: other spellings
    # of the same header (", " and ": " separators, 8 blanks too many, an
    # integer sx) are refused, so one package has one encoding.
    doc = _doc(package)
    spaced = _line(json.dumps(doc, sort_keys=True).encode("utf-8")) + payload
    refused = [spaced, line[:-1] + b" " * 8 + b"\n" + payload]
    for sx in (0, 2**70):
        refused.append(_line(_canonical(dict(doc, sx=sx))) + payload)
    for blob in refused:
        with pytest.raises(PackageFormatError, match="not the canonical line"):
            _read(blob)


def test_rejects_nan_payload(package):
    clean = encoded(package)
    first, last = clean.index(b"\n") + 1, len(clean) - 8  # first and last proj_B value
    for bad in (math.nan, math.inf, -math.inf):
        for at in (first, last):
            blob = bytearray(clean)
            blob[at:at + 8] = struct.pack("<d", bad)
            with pytest.raises(PackageFormatError, match="NaN or infinite"):
                _read_factor(bytes(blob))


def test_codec_makes_no_payload_copy():
    """Reading a package holds one panel of it, and writing one holds its payload about once."""
    n = 2100
    params = PrivacyParams(epsilon=1.0, delta=2e-4, eta=0.2, nu=0.05)
    X = np.random.default_rng(3).standard_normal((n, 2))
    blob = package_bytes(X, params, 8)
    payload_bytes = len(_line_and_payload(blob)[1])
    assert payload_bytes > 10_000_000
    handle = io.BytesIO(blob)

    def read():
        for _ in read_package(handle).proj_B.panels():
            pass

    peaks = {}
    for name, call in (("write", lambda: encoded(alice_stream(X, params, master_seed=8))),
                       ("read", read)):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["read"] < payload_bytes / 10, (peaks, payload_bytes)
    assert peaks["write"] < 1.25 * payload_bytes, (peaks, payload_bytes)


def _peak_bytes(call):
    """The traced peak of ``call()``, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _stream_release(B, params, seed) -> tuple[int, int]:
    """Run the release of ``B`` through: its row count and the bytes of its panels."""
    factor = privatize_covariance_panels(B, params, seed)
    return factor.rows, sum(panel.nbytes for _, _, panel in factor.panels())


def test_release_and_analyst_hold_no_whole_draw():
    """Alice holds the package and blocks far smaller, never P_B or P_X; Bob holds one panel.

    The factor is min(r, n) x n for r = 738: r < n, then r > n.  Bob's
    peak on a factor in memory is one panel's triangle, expanded (h x h
    for panels of h rows), and a few n x m arrays; reading the factor from
    the package's handle adds the one packed panel it reads into.
    """
    params = PrivacyParams(epsilon=1.0, delta=2e-4, eta=0.2, nu=0.05)
    r = jl_params(params).r
    assert r == 738
    for n in (1000, 500):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        release_bytes = 8 * min(r, n) * n
        B = factor_W(X)
        package = prepared(X, params, master_seed=8)
        alice, (rows, nbytes) = _peak_bytes(lambda: _stream_release(B, params.half_budget(), 1))
        assert rows == min(r, n)
        assert nbytes == 8 * (rows * (rows + 1) // 2 + (n - rows) * rows)
        in_memory = AlicePackage(package.params, held(package.proj_B), package.sx)
        bob = _peak_bytes(lambda: bob_evaluate(in_memory, Y))[0]
        bob_read = _peak_bytes(lambda: bob_evaluate(package, Y))[0]
        assert alice < 1.25 * release_bytes, (n, alice, release_bytes)
        h = privacy._panel_height(rows, n)
        assert bob < 8 * h * h + 64 * n * Y.shape[1], (n, bob, h)
        panel_bytes = 8 * privacy._row_offset(h, n)
        assert bob_read < panel_bytes + 8 * h * h + 64 * n * Y.shape[1], (n, bob_read, h)


def test_alice_holds_one_packed_factor(tmp_path, capsys):
    """Alice's traced peak stays below 1.25x the packed factor, from the release to the file or to Bob.

    n = 2000 and r = 2952: the factor is a 2000 x 2000 upper triangle.  Neither
    a dense factor nor a joined copy of the package fits under the bound.
    """
    params = PrivacyParams(epsilon=1.0, delta=2e-4, eta=0.1, nu=0.05)
    assert jl_params(params).r == 2952
    n = 2000
    X = np.random.default_rng(4).standard_normal((n, 2))
    x_csv, out = tmp_path / "x.csv", tmp_path / "pkg.bin"
    save_csv(x_csv, X)
    packed_bytes = 8 * n * (n + 1) // 2
    B = factor_W(X)
    argv = ["alice", "--input", str(x_csv), "--epsilon", "1", "--seed", "3", "--out", str(out)]
    peaks = {}
    peaks["privatize_covariance_panels"], (_, nbytes) = _peak_bytes(
        lambda: _stream_release(B, params.half_budget(), 1))
    Y = np.random.default_rng(5).standard_normal((n, 1))
    peaks["bob_evaluate(alice_stream(...))"] = _peak_bytes(
        lambda: bob_evaluate(alice_stream(X, params, master_seed=8), Y))[0]
    peaks["pi-test alice"], rc = _peak_bytes(lambda: main(argv))
    assert rc == 0
    assert nbytes == packed_bytes
    assert out.stat().st_size > packed_bytes
    assert all(peak < 1.25 * packed_bytes for peak in peaks.values()), (peaks, packed_bytes)


def test_sx_draw_holds_nothing_of_size_r():
    """sx is drawn from its law: the traced peak does not grow with r."""
    n = 1000
    X = np.random.default_rng(3).standard_normal((n, 2))
    for eta, r in ((0.2, 738), (0.02, 73_778)):
        params = PrivacyParams(epsilon=1.0, delta=2e-4, eta=eta, nu=0.05)
        assert jl_params(params).r == r
        peak = _peak_bytes(lambda: private_centered_sq_norm(X, params, 1))[0]
        assert peak < 64 * 1024, (r, peak)


def test_blocked_statistics_match_one_shot_formulas():
    # n = 500: the 267 x 500 factor in row panels of 256 and 11 rows, so
    # omega_bar_sq spans two panels, from the release as from the stored package
    n = 500
    params = PrivacyParams(epsilon=4.0, delta=0.02, eta=0.3, nu=0.1)
    rng = np.random.default_rng(19)
    X = 3.0 * rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 3))
    pkg = prepared(X, params, master_seed=6)
    assert pkg.proj_B.rows == 267
    assert privacy._panel_height(267, n) == 256
    report = bob_evaluate(pkg, Y)
    assert bob_evaluate(alice_stream(X, params, 6), Y).omega_bar_sq == pytest.approx(
        report.omega_bar_sq, rel=1e-15)
    PB = unpack_factor(*held(pkg.proj_B))
    omega = 2.0 / n**2 * float(np.sum((PB @ Y) ** 2))
    col = Y.sum(axis=0)
    s = 4.0 / n**3 * pkg.sx * (n * float(np.sum(Y * Y)) - float(col @ col))
    assert report.omega_bar_sq == pytest.approx(omega, rel=1e-13)
    assert report.s_bar == pytest.approx(s, rel=1e-13)
