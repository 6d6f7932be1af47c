"""Acceptance suite: one test per shipping criterion, tolerances pinned below.

Each test is self-contained and deterministic (seeded); `pytest -v` gives one
pass/fail line per criterion.  Runtime budgets are asserted where they are
part of the criterion.
"""

import io
import json
import math
import struct
import time

import numpy as np
import pytest

from pitest.bounds import lower_bound_ratio, upper_bound_ratio
from pitest.cli import main as cli_main
from pitest.data import save_csv, synthetic_pair
from pitest.errors import PackageFormatError
from pitest.estimators import decide, s_hat
from pitest.privacy import (
    PrivacyParams,
    jl_params,
    private_sum_directional_variances,
    tau_mechanism,
)
from pitest.protocol import alice_prepare, bob_evaluate, factor_W, read_package

from oracles import oracle_dcov_double_sum
from reference import (
    centering_matrix,
    dcov_sq_direct,
    dcov_sq_directional,
    dcov_sq_laplacian,
    encoded,
    factor_S,
    laplacian_S,
    omega_le_s_condition,
    package_bytes,
    pairwise_sq_dist,
    released,
)

REL_TOL_EQUIV = 1e-9          # criteria 1 and 3: estimator formulation agreement
N_EQUIV_INSTANCES = 200       # criteria 1-3: random instances per identity
COVERAGE_SLACK = 0.02         # criterion 4: Monte Carlo slack on the coverage rate
CONTAINMENT_SLACK = 0.05      # criterion 5: Monte Carlo slack on containment
HIGH_BUDGET_REL = 0.01        # criterion 6: private vs non-private statistic
LEVEL_SLACK = 0.05            # criterion 7: rejection rate above nominal alpha
POWER_FLOOR = 0.95            # criterion 7: rejection rate under dependence
TREND_SD_FACTOR = 2.0         # criterion 8: allowed Monte Carlo slack in the envelope


def _random_instance(rng):
    n = int(rng.integers(2, 51))
    d = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    return rng.standard_normal((n, d)), rng.standard_normal((n, m))


def test_criterion_1_formulation_equivalence():
    """Direct, Laplacian-trace, factor-norm, and double-sum estimators agree."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(N_EQUIV_INSTANCES):
        X, Y = _random_instance(rng)
        values = [
            dcov_sq_direct(X, Y),
            dcov_sq_laplacian(X, Y),
            dcov_sq_directional(factor_W(X), Y),
            oracle_dcov_double_sum(X, Y),
        ]
        scale = max(max(abs(v) for v in values), 1e-30)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(values[i] - values[j]) <= REL_TOL_EQUIV * scale
    assert time.monotonic() - start < 10.0


def test_criterion_2_centering_identities():
    """J X X^T J = -1/2 J E_X J entrywise; the centered distance matrix sums to zero."""
    rng = np.random.default_rng(202)
    for _ in range(N_EQUIV_INSTANCES):
        X, _ = _random_instance(rng)
        n = X.shape[0]
        J = centering_matrix(n)
        E = pairwise_sq_dist(X)
        lhs = J @ X @ X.T @ J
        rhs = -0.5 * J @ E @ J
        atol = 1e-9 * (1.0 + max(np.abs(lhs).max(), np.abs(rhs).max()))
        assert np.max(np.abs(lhs - rhs)) <= atol
        assert abs((J @ E @ J).sum()) <= 1e-8 * E.sum()


def test_criterion_3_denominator_factorization():
    """s_hat equals (4/n^4) Tr(G^T X X^T G) Tr(Y^T L_S Y) with G = sqrt(n) J."""
    rng = np.random.default_rng(303)
    for _ in range(N_EQUIV_INSTANCES):
        X, Y = _random_instance(rng)
        n = X.shape[0]
        G = factor_S(n)
        via_traces = (
            4.0 / n**4
            * float(np.trace(G.T @ X @ X.T @ G))
            * float(np.trace(Y.T @ laplacian_S(n) @ Y))
        )
        reference = s_hat(X, Y)
        scale = max(abs(reference), abs(via_traces), 1e-30)
        assert abs(reference - via_traces) <= REL_TOL_EQUIV * scale
    # the n = 3 complete-graph Laplacian, written out
    assert np.array_equal(laplacian_S(3), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_criterion_4_mechanism_coverage():
    """||Py||^2 lands in the (eta, tau_mech) window at the promised rate."""
    start = time.monotonic()
    n = 30
    rng = np.random.default_rng(4)
    F = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    t = float(y @ F @ F.T @ y)
    for eta, nu in ((0.1, 0.05), (0.2, 0.05)):
        p = PrivacyParams(epsilon=1.0, delta=1e-4, eta=eta, nu=nu)
        t_mech = tau_mechanism(p)
        seeds = np.random.SeedSequence(7).generate_state(2000, np.uint64)
        hits = 0
        for s in seeds:
            v = private_sum_directional_variances(released(F, p, int(s)), y)
            hits += (1 - eta) * t - t_mech <= v <= (1 + eta) * t + t_mech
        assert hits / 2000 >= 1.0 - nu - COVERAGE_SLACK
    assert time.monotonic() - start < 60.0


def test_criterion_5_ratio_bound_containment():
    """The private ratio falls between the closed-form transforms of the true one."""
    n, m = 200, 3
    X = 50000.0 * np.arange(n, dtype=np.float64)
    labels = np.random.default_rng(0).integers(0, m, size=n)
    Y = np.eye(m)[labels]
    params = PrivacyParams(epsilon=1.0, delta=1e-4, eta=0.1, nu=1e-4)
    per_release = params.half_budget()
    t_mech = tau_mechanism(per_release)

    # instance validity: spread condition, denominator above the floor,
    # scale parameter inside the upper transform's domain
    assert omega_le_s_condition(X).holds
    s_ref = s_hat(X, Y)
    omega_ref = dcov_sq_direct(X, Y)
    assert s_ref > n * t_mech / (1.0 - params.eta)
    assert s_ref / n > t_mech / (1.0 - params.eta)

    ratio_ref = omega_ref / s_ref
    lo = lower_bound_ratio(ratio_ref, params.eta)
    hi = upper_bound_ratio(ratio_ref, params.eta, t_mech, s_param=s_ref / n)

    trials = 500
    seeds = np.random.SeedSequence(12345).generate_state(trials, np.uint64)
    inside = 0
    for s in seeds:
        report = bob_evaluate(alice_prepare(X, params, int(s)), Y)
        assert not report.degenerate
        inside += lo <= report.omega_bar_sq / report.s_bar <= hi
    floor = 1.0 - (m + n) * params.nu - CONTAINMENT_SLACK
    assert inside / trials >= floor


def test_criterion_6_high_budget_convergence():
    """With an enormous budget the private statistic reproduces the true one."""
    rng = np.random.default_rng(2026)
    X = 100.0 * rng.standard_normal((50, 3))
    Y = rng.standard_normal((50, 3))
    gamma_ref = 50 * dcov_sq_direct(X, Y) / s_hat(X, Y)
    params = PrivacyParams(epsilon=1e6, delta=0.5, eta=0.01, nu=0.05)
    report = bob_evaluate(alice_prepare(X, params, master_seed=0), Y)
    assert report.statistic == pytest.approx(gamma_ref, rel=HIGH_BUDGET_REL)


def test_criterion_7_level_and_power():
    """Non-private test: nominal level on independent data, high power on dependent."""
    n, n_seeds, alpha = 200, 200, 0.05
    rejections_null = rejections_dep = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y_independent = rng.standard_normal(n)
        y_dependent = x + 0.1 * rng.standard_normal(n)
        for y, counter in ((y_independent, "null"), (y_dependent, "dep")):
            statistic = n * dcov_sq_direct(x, y) / s_hat(x, y)
            rejected = decide(statistic, alpha).reject
            if counter == "null":
                rejections_null += rejected
            else:
                rejections_dep += rejected
    assert rejections_null / n_seeds <= alpha + LEVEL_SLACK
    assert rejections_dep / n_seeds >= POWER_FLOOR


def test_criterion_8_sweep_error_decreases_with_budget(tmp_path):
    """CLI sweep: mean relative errors fall as epsilon grows, up to 2 sd of slack."""
    start = time.monotonic()
    X, Y = synthetic_pair(n=100, d=2, m=2, dependence=0.3, x_scale=3e4, seed=1)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    out = tmp_path / "sweep.csv"
    rc = cli_main([
        "sweep",
        "--input-x", str(tmp_path / "x.csv"),
        "--input-y", str(tmp_path / "y.csv"),
        "--epsilons", "0.5,1,2,4,8",
        "--etas", "0.05,0.1",
        "--replications", "50",
        "--delta", "2e-4",
        "--nu", "0.05",
        "--seed", "7",
        "--out", str(out),
    ])
    assert rc == 0

    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 10  # 5 epsilons x 2 etas

    for eta in (0.05, 0.1):
        sub = sorted((r for r in rows if r["eta"] == eta), key=lambda r: r["epsilon"])
        assert [r["epsilon"] for r in sub] == [0.5, 1.0, 2.0, 4.0, 8.0]
        for mean_key, sd_key in (
            ("mean_rel_err_gamma", "sd_gamma"),
            ("mean_rel_err_s", "sd_s"),
            ("mean_rel_err_omega", "sd_omega"),
        ):
            envelope = math.inf
            for r in sub:
                assert math.isfinite(r[mean_key])  # no degenerate cells
                assert r[mean_key] <= envelope + TREND_SD_FACTOR * r[sd_key]
                envelope = min(envelope, r[mean_key])
    assert time.monotonic() - start < 300.0


def _mutate(blob: bytes, rng) -> bytes:
    """One random corruption of a serialized package."""
    strategy = rng.integers(0, 8)
    data = bytearray(blob)
    if strategy == 0:  # flip one byte
        data[rng.integers(0, len(data))] ^= int(rng.integers(1, 256))
        return bytes(data)
    if strategy == 1:  # truncate
        return bytes(data[: rng.integers(0, len(data))])
    if strategy == 2:  # insert junk
        at = int(rng.integers(0, len(data)))
        junk = bytes(rng.integers(0, 256, size=int(rng.integers(1, 20))).tolist())
        return bytes(data[:at]) + junk + bytes(data[at:])
    if strategy == 3:  # delete a slice
        a = int(rng.integers(0, len(data)))
        b = min(len(data), a + int(rng.integers(1, 50)))
        return bytes(data[:a]) + bytes(data[b:])
    if strategy == 7:  # replace wholesale
        return bytes(rng.integers(0, 256, size=64).tolist())

    head, _, payload = blob.partition(b"\n")
    doc = json.loads(head)
    junk_values = [None, True, -1, 0, 4.5, "x", [], {}, 2**70, "not a count"]
    if strategy == 4:  # corrupt a top-level field
        key = ["version", "n", "privacy", "sx"][int(rng.integers(0, 4))]
        if rng.integers(0, 2):
            doc.pop(key, None)
        else:
            doc[key] = junk_values[int(rng.integers(0, len(junk_values)))]
    elif strategy == 5:  # corrupt a privacy field
        key = ["epsilon", "delta", "eta", "nu", "split"][int(rng.integers(0, 5))]
        if rng.integers(0, 2):
            doc["privacy"].pop(key, None)
        else:
            doc["privacy"][key] = junk_values[int(rng.integers(0, len(junk_values)))]
    elif rng.integers(0, 2):  # drop the payload
        payload = b""
    else:  # a non-finite value at a random entry of the payload
        at = 8 * int(rng.integers(0, len(payload) // 8))
        bad = struct.pack("<d", [math.nan, math.inf, -math.inf][int(rng.integers(0, 3))])
        payload = payload[:at] + bad + payload[at + 8:]
    head = json.dumps(doc).encode("utf-8")
    # padded as the encoder pads it, so that the corruption, not the offset, is what is refused
    return head + b" " * (-(len(head) + 1) % 8) + b"\n" + payload


def test_criterion_9_determinism_roundtrip_fuzz():
    """Packages are byte-deterministic, round-trip bit-exactly, and the parser
    answers 1000 corrupted inputs with structured errors only."""
    X = np.array([[0.0], [1.0], [3.0], [6.0]])
    params = PrivacyParams(epsilon=4.0, delta=0.1, eta=0.9, nu=0.5)  # tiny r = 14

    blob = package_bytes(X, params, master_seed=42)
    assert package_bytes(X, params, master_seed=42) == blob
    assert package_bytes(X, params, master_seed=43) != blob
    assert encoded(alice_prepare(X, params, master_seed=42)) == blob
    assert encoded(read_package(io.BytesIO(blob))) == blob

    rng = np.random.default_rng(999)
    raised = 0
    for _ in range(1000):
        mutated = _mutate(blob, rng)
        try:
            encoded(read_package(io.BytesIO(mutated)))  # the header, then every panel
        except PackageFormatError:
            raised += 1
        # any other exception type propagates and fails the test
    assert raised >= 200  # the corpus genuinely exercises the error paths
