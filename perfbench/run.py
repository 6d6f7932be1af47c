"""Benchmark of pitest: one seeded workload through the ``pi-test`` entry points.

    python3 perfbench/run.py --workload {wide-r,tall-n,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, never from an installed copy, and the run fails (exit 2,
no result) when that source is missing.

The load is a closed loop: one client in this one process, each op starting
when the previous one has ended.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` alternates untraced and traced
ops with the same seeds and reports the per-layer metrics (see README.md).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Scratch files go to ``.perfbench_out/`` in the checkout.

``setup_s`` is the median over cold set-ups: this process's own and those
of fresh processes that run this file with ``--setup-only``.  Each one is
the time from the first line of this file to the end of the set-up, that is
imports, data, CSV files and one warm-up op.
"""

import time

_START = time.perf_counter()

# Imports come after the clock so that setup_s includes them.
import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import layers
from spans import Tracer
from workloads import FLOWS, WORKLOADS, OpResult, check_band, release_seed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
FRESH_SETUPS = 2  # cold set-ups in fresh processes, besides this process's own
FRESH_SETUP_TIMEOUT_S = 60
MIN_OPS = 3  # timed ops per run even when --seconds is shorter

# name, unit, better, bound: the metrics the result line carries with --trace 0
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]
TRACE_ONLY = [
    ("tracing.overhead_frac", "ratio", "lower"),
    ("tracing.absent_metrics", "count", "lower"),
]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PI_TEST_THREADS")


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import pitest from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "pitest" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'pitest'}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import pitest.cli
    import pitest.data
    import pitest.privacy
    import pitest.protocol
    import pitest.sweep

    if Path(pitest.__file__).resolve().parent != (src / "pitest").resolve():
        raise ProgramMissing(f"imported pitest from {pitest.__file__}, not from {src}")
    return SimpleNamespace(cli=pitest.cli, data=pitest.data, privacy=pitest.privacy,
                           protocol=pitest.protocol, sweep=pitest.sweep)


def environment(prog) -> dict:
    """nproc, numpy and BLAS build, and the thread variables as found (none are set here)."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):
        blas = "unknown"
    pool = getattr(prog.sweep, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "sweep_pool_size": pool() if pool else None,
    }


def attempt(fn) -> OpResult:
    """Run one op; an exception is a failed op, not a crash of the benchmark."""
    try:
        return fn()
    except Exception as exc:  # any error the program raises is that op's failure
        return OpResult({}, [f"raised {type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # of failed ops, then of the run as a whole
        self.run_failed = False
        self.band: list[tuple[float, float]] = []

    def add(self, res: OpResult) -> OpResult:
        self.attempted += 1
        if res.problems:
            self.failed += 1
            self.problems += res.problems
        if res.band is not None:
            self.band.append(res.band)
        return res

    def band_line(self, eta: float) -> str:
        """Check the run's (1 +- eta) band; returns the ``band_misses`` line."""
        if not self.band:
            return fmt("band_misses", None, "count", "no two-party report here")
        misses, problems = check_band(self.band, eta)
        self.run_failed = self.run_failed or bool(problems)
        self.problems += problems
        return fmt("band_misses", misses, "count",
                   f"of {2 * len(self.band)} checks; the median of each statistic must lie in the band")

    def result(self, metrics: dict) -> dict:
        correct = self.attempted > 0 and self.failed == 0 and not self.run_failed
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def fmt(name: str, value, unit: str, note: str = "") -> str:
    if value is None:
        return f"{name} = absent{f' ({note})' if note else ''}"
    text = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
    return f"{name} = {text} {unit}{f' ({note})' if note else ''}"


def tail(samples: list[float]) -> tuple[float, str] | None:
    """Highest percentile with at least ten samples above it, and its label."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    idx = len(xs) - 11
    return xs[idx], f"p{math.floor(100 * (idx + 1) / len(xs))} of {len(xs)} samples, 10 above"


def set_up(spec, seed, workdir, prog, tally, tamper=None):
    """Data, CSV files and one warm-up op; returns the flow."""
    flow = FLOWS[spec.flow](prog, spec, seed, workdir, tamper)
    tally.add(attempt(lambda: flow.run_op(release_seed(seed, 0, 0))))
    return flow


def fresh_setup(workload: str, seed: int) -> tuple[float | None, OpResult]:
    """Set-up seconds of a fresh process (None if it failed), and its warm-up op's result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=FRESH_SETUP_TIMEOUT_S)
        out = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return None, OpResult({}, [f"fresh set-up: {type(exc).__name__}: {exc}"])
    if out is None:
        return None, OpResult({}, [f"fresh set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    return out["setup_s"], OpResult({}, out["problems"])


def run_untraced(spec, seed, seconds, prog, workdir, tamper=None, fresh_setups=0):
    tally = Tally()
    flow = set_up(spec, seed, workdir, prog, tally, tamper)
    setup_times = [time.perf_counter() - _START]
    for _ in range(fresh_setups):
        secs, res = fresh_setup(spec.name, seed)
        tally.add(res)
        if secs is not None:
            setup_times.append(secs)
    setup_s = median(setup_times)

    ops: list[OpResult] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        i = len(ops)
        ops.append(tally.add(attempt(lambda: flow.run_op(release_seed(seed, 1, i)))))
    timed = [r for r in ops if r.times]
    op_times = [sum(r.times.values()) for r in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "op_s": median(op_times) if op_times else None, "peak_rss_mb": peak_rss_mb}

    lines = [fmt("setup_s", setup_s, "s", f"median of {len(setup_times)} cold set-ups, each from process "
                 "start: imports, data, CSV files and one warm-up op")]
    two_party = spec.flow == "two-party"
    for role in ("alice", "bob"):
        samples = [r.times[role] for r in timed] if two_party else []
        lines.append(fmt(f"{role}_s", median(samples) if samples else None, "s",
                         f"median of {len(samples)} samples" if samples else "no two-party round here"))
        t = tail(samples)
        lines.append(fmt(f"{role}_s_tail", t and t[0], "s",
                         t[1] if t else f"needs at least 11 samples, have {len(samples)}"))
    lines.append(fmt("op_s", values["op_s"], "s", f"median of {len(op_times)} ops"))
    lines.append(fmt("package_bytes", timed[-1].output_bytes if two_party and timed else None, "B",
                     "" if two_party else "no package here"))
    lines.append(fmt("peak_rss_mb", peak_rss_mb, "MiB", "ru_maxrss of this process"))
    trials = sum(r.trials for r in timed)
    lines.append(fmt("sweep_trials_per_s", trials / sum(op_times) if trials else None, "trials/s",
                     f"{trials} trials at n = {spec.n}" if trials else "no sweep here"))
    lines.append(fmt("failed_ops_frac", tally.failed / tally.attempted, "ratio",
                     f"{tally.failed} of {tally.attempted} ops"))
    lines.append(tally.band_line(spec.eta))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in END_TO_END if values[name] is not None}
    return lines + [f"problem: {p}" for p in tally.problems], tally.result(metrics)


def run_traced(spec, seed, seconds, prog, workdir, tamper=None, trace_file=None):
    tally = Tally()
    flow = set_up(spec, seed, workdir, prog, tally, tamper)
    tracer = Tracer()
    wraps = layers.wraps(prog)
    plain_times, traced_times = [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        alice_seed = release_seed(seed, 1, i)
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):  # alternate which goes first
            if traced:
                tracer.op = i
                with tracer.installed(wraps):
                    results[traced] = attempt(lambda: flow.run_op(alice_seed, tracer, digest=True))
            else:
                results[traced] = attempt(lambda: flow.run_op(alice_seed, digest=True))
        plain, traced_res = results[False], results[True]
        if plain.digest and traced_res.digest and plain.digest != traced_res.digest:
            traced_res.problems.append("traced op wrote different output bytes than the untraced op "
                                       "with the same seed")
        for res, times in ((plain, plain_times), (traced_res, traced_times)):
            tally.add(res)
            if res.times:
                times.append(sum(res.times.values()))
        i += 1

    env = environment(prog)
    values = layers.layer_metrics(tracer.spans, env["sweep_pool_size"])
    overhead = median(traced_times) / median(plain_times) - 1.0 if plain_times and traced_times else None
    values["tracing.overhead_frac"] = (overhead, "ratio")
    absent = [name for name, (v, _) in values.items() if v is None]
    values["tracing.absent_metrics"] = (float(len(absent)), "count")

    lines = [fmt(name, v, unit) for name, (v, unit) in values.items()]
    lines.append(tally.band_line(spec.eta))
    lines.append(f"absent: {', '.join(absent) or 'none'}")
    lines.append(f"missing wrapped names: {', '.join(sorted(tracer.missing)) or 'none'}")
    lines += [f"observer error: {e}" for e in tracer.observer_errors[:5]]
    lines.append(f"traced {len(traced_times)} ops against {len(plain_times)} untraced ops with the same seeds")
    if trace_file is not None:
        trace_file.write_text(json.dumps({
            "workload": spec.name, "seed": seed, "environment": env,
            "missing": sorted(tracer.missing), "observer_errors": tracer.observer_errors,
            "per_layer": {k: v for k, (v, _) in values.items()},
            "spans": [sp.to_dict() for sp in tracer.spans],
        }))
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    # The result line must hold every per-layer metric as a number, so an
    # absent one carries 0 there; the lines above name it as absent.
    metrics = {name: {"value": 0.0 if v is None else v, "unit": unit} for name, (v, unit) in values.items()}
    return lines + [f"problem: {p}" for p in tally.problems], tally.result(metrics)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonnegative_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)  # see fresh_setup
    args = parser.parse_args(argv)
    try:
        prog = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_only:
            tally = Tally()
            set_up(spec, args.seed, workdir, prog, tally)
            print(json.dumps({"setup_s": time.perf_counter() - _START, "problems": tally.problems}))
            return 0
        if args.trace:
            trace_file = OUT / f"trace-{spec.name}-seed{args.seed}.json"
            lines, result = run_traced(spec, args.seed, args.seconds, prog, workdir, trace_file=trace_file)
        else:
            lines, result = run_untraced(spec, args.seed, args.seconds, prog, workdir,
                                         fresh_setups=FRESH_SETUPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {spec.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {spec.why}")
    print(f"environment: {json.dumps(environment(prog))}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
