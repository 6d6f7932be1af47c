"""Self-test of the benchmark (not of the program).

    python3 perfbench/selftest.py

Runs each workload at a tiny size, untraced and traced, and checks that
every metric is printed by name with its unit (or as absent) and that the
result line carries every metric BENCHMARK.json declares.  Then corrupts the
statistic in one of Bob's reports and checks that the op is counted as
failed; scales omega_bar_sq and s_bar out of the band in one report (one
counted miss, run still correct) and in every report (run not correct).
Runs one real-size untraced run, with its fresh-process set-ups, and checks
that the benchmark refuses to run without the program's source.  Also checks
that BENCHMARK.json matches the definitions in this directory.  Exit status
0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import suite
from workloads import WORKLOADS

TINY = {"wide-r": {"n": 30}, "tall-n": {"n": 40}, "sweep": {"n": 20, "replications": 2}}
PRINTED_UNTRACED = {
    "setup_s": "s", "alice_s": "s", "alice_s_tail": "s", "bob_s": "s", "bob_s_tail": "s",
    "op_s": "s", "package_bytes": "B", "peak_rss_mb": "MiB",
    "sweep_trials_per_s": "trials/s", "failed_ops_frac": "ratio", "band_misses": "count",
}
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def printed(lines: list[str], name: str, unit: str) -> bool:
    """True when ``name`` has a line giving a value in ``unit`` or saying absent."""
    pattern = re.compile(rf"^{re.escape(name)} = (absent\b|\S+ {re.escape(unit)}(\s|$))")
    return any(pattern.match(line) for line in lines)


def run_tiny(prog, spec, trace: bool, tamper=None):
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        fn = run.run_traced if trace else run.run_untraced
        return fn(spec, 3, 0.1, prog, workdir, tamper=tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    manifest = suite.manifest()
    expect((run.ROOT / "BENCHMARK.json").read_text() == suite.manifest_text(),
           "BENCHMARK.json differs from `python3 perfbench/suite.py --seeds 0` output")
    prog = run.load_program()
    run.OUT.mkdir(exist_ok=True)

    for name, spec in WORKLOADS.items():
        tiny = dataclasses.replace(spec, **TINY[name])
        lines, result = run_tiny(prog, tiny, trace=False)
        expect(result["correct"] and result["failed"] == 0, f"{name}: untraced run not correct: {lines[-3:]}")
        for metric, unit in PRINTED_UNTRACED.items():
            expect(printed(lines, metric, unit), f"{name}: {metric} not printed with unit {unit}")
        for m in manifest["end_to_end"]:
            got = result["metrics"].get(m["name"], {})
            expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), float) and got["value"] > 0,
                   f"{name}: result lacks end-to-end metric {m['name']} [{m['unit']}]: {got}")

        lines, result = run_tiny(prog, tiny, trace=True)
        expect(result["correct"] and result["failed"] == 0, f"{name}: traced run not correct: {lines[-3:]}")
        for m in manifest["per_layer"]:
            expect(printed(lines, m["name"], m["unit"]), f"{name}: {m['name']} not printed with {m['unit']}")
            got = result["metrics"].get(m["name"], {})
            expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), float),
                   f"{name}: result lacks per-layer metric {m['name']} [{m['unit']}]: {got}")
        expect(any(line == "missing wrapped names: none" for line in lines), f"{name}: a wrapped name is missing")

    corrupted = []

    def corrupt_first_report(path: Path) -> None:
        if corrupted:
            return
        doc = json.loads(path.read_text())
        doc["statistic"] *= 1000.0
        path.write_text(json.dumps(doc))
        corrupted.append(path)

    tiny = dataclasses.replace(WORKLOADS["wide-r"], **TINY["wide-r"])
    lines, result = run_tiny(prog, tiny, trace=False, tamper=corrupt_first_report)
    expect(len(corrupted) == 1, "the corruption hook did not run")
    expect(result["failed"] == 1 and not result["correct"],
           f"a corrupted report was not counted as one failed op: {result}")
    expect(any(line.startswith(f"failed_ops_frac = {1 / result['attempted']:.6g} ratio") for line in lines),
           "failed_ops_frac does not show the corrupted report")

    def off_band(every: bool):
        hits = []

        def tamper(path: Path) -> None:
            if hits and not every:
                return
            doc = json.loads(path.read_text())
            doc["omega_bar_sq"] *= 2.0  # both doubled: statistic, threshold and verdict still hold
            doc["s_bar"] *= 2.0
            path.write_text(json.dumps(doc))
            hits.append(path)
        lines, result = run_tiny(prog, tiny, trace=False, tamper=tamper)
        return lines, result, len(hits)

    lines, result, hits = off_band(every=False)
    expect(hits == 1 and result["correct"] and result["failed"] == 0,
           f"one op outside the band failed the run: {result}")
    expect(any(line.startswith("band_misses = 2 count") for line in lines),
           "one op outside the band is not counted as 2 band misses")
    lines, result, hits = off_band(every=True)
    expect(hits == result["attempted"] and not result["correct"] and result["failed"] == 0,
           f"every op outside the band did not fail the run (and only the run): {result}")

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-r", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    out = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and json.loads(out[-1])["correct"]
           and any(line.startswith("setup_s = ") and f"median of {run.FRESH_SETUPS + 1} cold" in line
                   for line in out),
           f"a real-size run failed or lacks its fresh set-ups: exit {proc.returncode}, {out[-3:]}")

    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide-r", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without src/ the benchmark exited {proc.returncode} with stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
