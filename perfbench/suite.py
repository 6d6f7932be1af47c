"""One command for every workload: rewrite BENCHMARK.json, run, summarise.

    python3 perfbench/suite.py [--seeds K] [--first-seed S]

Each (workload, seed) runs ``perfbench/run.py`` for RUN_SECONDS in a fresh
process, one at a time, so ``peak_rss_mb`` is the peak of a process that ran
only that workload.  The summary gives, per workload and end-to-end metric, the median
over seeds and the spread (third minus first quartile, over the median) next
to the metric's bound.  Exit status 1 if any run failed or reported
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import layers
from run import END_TO_END, ROOT, TRACE_ONLY
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 25


def manifest() -> dict:
    """The BENCHMARK.json content, built from the definitions the runner uses."""
    return {
        "command": ["python3", f"{HERE.name}/run.py"],
        "paths": [HERE.name],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in layers.PER_LAYER]
        + [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_ONLY],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1,
                        help="runs per workload, seeds first-seed onwards; 0 only rewrites BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    (ROOT / "BENCHMARK.json").write_text(manifest_text())
    ok = True
    summary: dict[str, dict[str, list[float]]] = {}
    for name in WORKLOADS:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(RUN_SECONDS), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"suite: {name} seed {seed} failed (exit {proc.returncode})", file=sys.stderr)
                continue
            for metric, entry in result["metrics"].items():
                summary.setdefault(name, {}).setdefault(metric, []).append(entry["value"])

    if summary:
        print("\nworkload  metric         median       spread  bound  runs")
        bounds = {n: b for n, _, _, b in END_TO_END}
        for name, metrics in summary.items():
            for metric, values in metrics.items():
                s = f"{spread(values):6.3f}" if len(values) > 1 else "     -"
                print(f"{name:9} {metric:14} {median(values):<12.6g} {s}  {bounds[metric]:5}  {len(values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
