"""The benchmark's workloads: seeded inputs, one op each, and its output checks.

Each workload drives the program through ``pitest.cli.main`` in-process, the
way a user runs ``pi-test``: CSV files in, package / report / table files
out.  The checks read only those output files and recompute what they must
contain from X, Y and the mechanism's (r, w); they never parse the package,
so a change of wire format cannot break them.

The (1 +- eta) band is checked per run, not per op: see ``check_band``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist, median

import numpy as np

D, M = 2, 2  # columns of X and of Y
DEPENDENCE = 0.3
X_SCALE = 3e4  # large enough that the statistics are not all spectral floor
ALPHA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    flow: str  # "two-party" (alice then bob) or "sweep"
    n: int
    delta: float
    nu: float
    epsilon: float = 1.0  # two-party only
    eta: float = 0.1  # two-party only
    epsilons: tuple[float, ...] = ()  # sweep only
    etas: tuple[float, ...] = ()  # sweep only
    replications: int = 0  # sweep only
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-r", "two-party", n=200, epsilon=1.0, delta=1e-4, eta=0.1, nu=1e-4,
            why="r=7923 projection rows dwarf n=200: the Gaussian draw, the matmul and the "
                "package codec do nearly all the work; the n^2 builds are negligible",
        ),
        Workload(
            "tall-n", "two-party", n=2000, epsilon=1.0, delta=2e-4, eta=0.1, nu=0.05,
            why="n=2000 with r=2952: the n x n builds (laplacian_W, the BB^T-L check, "
                "factor_S, P.G) dominate Alice's compute and peak RSS",
        ),
        Workload(
            "sweep", "sweep", n=100, delta=2e-4, nu=0.05,
            epsilons=(0.5, 1.0, 2.0, 4.0, 8.0), etas=(0.05, 0.1), replications=4,
            why="many small in-memory releases on the sweep thread pool: privacy draw and "
                "Bob's statistics, no package codec and no CSV inside the loop",
        ),
    )
}


def release_seed(seed: int, stream: int, index: int) -> int:
    """Alice's ``--seed`` for one op, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint32)[0])


@dataclass
class OpResult:
    times: dict[str, float]  # seconds per CLI call: "alice", "bob" or "sweep"
    problems: list[str]
    output_bytes: int = 0  # size of the package (two-party)
    digest: str | None = None  # sha256 of the package or sweep table, when asked for
    trials: int = 0
    band: tuple[float, float] | None = None  # (omega_bar_sq, s_bar) over their means (two-party)


def _call_cli(cli, argv: list[str], tracer) -> tuple[int, float]:
    """One in-process ``pi-test`` call; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start
        with tracer.span("cli.main") as sp:
            code = cli.main(argv)
        return code, sp.end - sp.start


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def expected_statistics(X, Y, w: float) -> tuple[float, float]:
    """Mechanism means of (omega_bar_sq, s_bar) in O(n d m), from X, Y and w.

    E omega_bar^2 = (2/n^2) (2 ||Xc^T Y||_F^2 + w^2 ||Y||_F^2)
    E s_bar       = (4/n^4) (n ||Xc||_F^2 + w^2 n (n-1)) * n ||Yc||_F^2
    """
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    cross = Xc.T @ Y
    omega = 2.0 / n**2 * (2.0 * float(np.sum(cross * cross)) + w**2 * float(np.sum(Y * Y)))
    s = 4.0 / n**4 * (n * float(np.sum(Xc * Xc)) + w**2 * n * (n - 1)) * n * float(np.sum(Yc * Yc))
    return omega, s


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_report(report, n: int, alpha: float) -> list[str]:
    """Problems with one of Bob's reports; an empty list means it passed."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("degenerate") is not False:
        return [f"report degenerate = {report.get('degenerate')!r}"]
    fields = {k: report.get(k) for k in ("omega_bar_sq", "s_bar", "statistic", "threshold")}
    bad = [k for k, v in fields.items() if not _finite_number(v)]
    if bad:
        return [f"report fields not finite numbers: {', '.join(bad)}"]
    problems = []
    if fields["s_bar"] > 0 and not math.isclose(
        fields["statistic"], n * fields["omega_bar_sq"] / fields["s_bar"], rel_tol=1e-9
    ):
        problems.append(f"statistic {fields['statistic']!r} != n * omega_bar_sq / s_bar")
    threshold = NormalDist().inv_cdf(1.0 - alpha / 2.0) ** 2
    if not math.isclose(fields["threshold"], threshold, rel_tol=1e-9):
        problems.append(f"threshold {fields['threshold']!r} != {threshold!r}")
    if report.get("reject") is not (fields["statistic"] > fields["threshold"]):
        problems.append(f"reject = {report.get('reject')!r} but statistic > threshold is "
                        f"{fields['statistic'] > fields['threshold']}")
    return problems


def check_band(band: list[tuple[float, float]], eta: float) -> tuple[int, list[str]]:
    """Ops outside the (1 +- eta) band, and problems with the run's median ratios.

    The mechanism keeps omega_bar_sq and s_bar within (1 +- eta) of their means
    only with high probability: at r=2952 one check misses about once in 1e4
    on a correct program.  So a single op outside the band is counted, not
    failed.  A mis-scaled release moves every op, and then the median of
    each ratio over the run leaves the band: that is a problem of the run.
    """
    misses = sum(abs(ratio - 1.0) > eta for pair in band for ratio in pair)
    problems = []
    for key, ratios in zip(("omega_bar_sq", "s_bar"), zip(*band)):
        mid = median(ratios)
        if abs(mid - 1.0) > eta:
            problems.append(f"median {key} over its mean is {mid:.6g} in {len(ratios)} ops, "
                            f"outside the band 1 +- {eta:g}")
    return misses, problems


def check_sweep_table(text: str, epsilons, etas) -> list[str]:
    """Problems with a sweep table: one finite row per grid cell, in grid order."""
    lines = text.strip().splitlines()
    if not lines:
        return ["sweep table is empty"]
    header = lines[0].split(",")
    if header[:2] != ["epsilon", "eta"]:
        return [f"sweep header starts {header[:2]!r}, expected ['epsilon', 'eta']"]
    cells = [(e, h) for e in epsilons for h in etas]
    if len(lines) - 1 != len(cells):
        return [f"sweep table has {len(lines) - 1} rows for {len(cells)} grid cells"]
    problems = []
    for line_no, (line, (eps, eta)) in enumerate(zip(lines[1:], cells), start=2):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            problems.append(f"sweep line {line_no} is not numeric: {line!r}")
            continue
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            problems.append(f"sweep line {line_no} is not {len(header)} finite values: {line!r}")
        elif (row[0], row[1]) != (eps, eta):
            problems.append(f"sweep line {line_no} is cell {row[:2]}, expected {[eps, eta]}")
    return problems


def write_inputs(prog, spec: Workload, seed: int, workdir: Path):
    """The workload's seeded (X, Y) and the CSV files the CLI reads them from."""
    X, Y = prog.data.synthetic_pair(spec.n, D, M, dependence=DEPENDENCE, x_scale=X_SCALE, seed=seed)
    x_csv, y_csv = workdir / "x.csv", workdir / "y.csv"
    prog.data.save_csv(x_csv, X)
    prog.data.save_csv(y_csv, Y)
    return X, Y, x_csv, y_csv


class TwoPartyFlow:
    """``pi-test alice`` then ``pi-test bob`` on one seeded (X, Y)."""

    def __init__(self, prog, spec: Workload, seed: int, workdir: Path, tamper=None):
        self.cli = prog.cli
        self.spec = spec
        self.tamper = tamper
        X, Y, self.x_csv, self.y_csv = write_inputs(prog, spec, seed, workdir)
        self.package, self.report = workdir / "package.json", workdir / "report.json"
        per_release = prog.privacy.PrivacyParams(spec.epsilon, spec.delta, spec.eta, spec.nu).half_budget()
        self.r, self.w = prog.privacy.jl_params(per_release)
        self.expected = expected_statistics(X, Y, self.w)

    def run_op(self, alice_seed: int, tracer=None, digest: bool = False) -> OpResult:
        s = self.spec
        code_a, t_a = _call_cli(self.cli, [
            "alice", "--input", str(self.x_csv), "--epsilon", repr(s.epsilon), "--delta", repr(s.delta),
            "--eta", repr(s.eta), "--nu", repr(s.nu), "--seed", str(alice_seed), "--out", str(self.package),
        ], tracer)
        code_b, t_b = _call_cli(self.cli, [
            "bob", "--package", str(self.package), "--input", str(self.y_csv),
            "--alpha", repr(ALPHA), "--report", str(self.report),
        ], tracer)
        result = OpResult({"alice": t_a, "bob": t_b}, [])
        if (code_a, code_b) != (0, 0):
            result.problems.append(f"exit codes alice={code_a} bob={code_b}")
            return result
        result.output_bytes = self.package.stat().st_size
        if digest:
            result.digest = _digest(self.package)
        if self.tamper is not None:
            self.tamper(self.report)
        try:
            report = json.loads(self.report.read_text())
        except ValueError as exc:
            result.problems.append(f"report is not JSON: {exc}")
            return result
        result.problems += check_report(report, s.n, ALPHA)
        if not result.problems:
            result.band = (report["omega_bar_sq"] / self.expected[0], report["s_bar"] / self.expected[1])
        return result


class SweepFlow:
    """``pi-test sweep`` over the workload's (epsilon, eta) grid."""

    def __init__(self, prog, spec: Workload, seed: int, workdir: Path, tamper=None):
        self.cli = prog.cli
        self.spec = spec
        _, _, self.x_csv, self.y_csv = write_inputs(prog, spec, seed, workdir)
        self.table = workdir / "sweep.csv"

    def run_op(self, master_seed: int, tracer=None, digest: bool = False) -> OpResult:
        s = self.spec
        code, t = _call_cli(self.cli, [
            "sweep", "--input-x", str(self.x_csv), "--input-y", str(self.y_csv),
            "--epsilons", ",".join(map(repr, s.epsilons)), "--etas", ",".join(map(repr, s.etas)),
            "--replications", str(s.replications), "--delta", repr(s.delta), "--nu", repr(s.nu),
            "--alpha", repr(ALPHA), "--seed", str(master_seed), "--out", str(self.table),
        ], tracer)
        result = OpResult({"sweep": t}, [], trials=len(s.epsilons) * len(s.etas) * s.replications)
        if code != 0:
            result.problems.append(f"exit code sweep={code}")
            return result
        text = self.table.read_text()
        if digest:
            result.digest = _digest(self.table)
        result.problems += check_sweep_table(text, s.epsilons, s.etas)
        return result


FLOWS = {"two-party": TwoPartyFlow, "sweep": SweepFlow}
