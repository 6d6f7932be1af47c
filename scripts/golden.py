#!/usr/bin/env python3
"""Golden outputs: the numbers and verdicts that a refactor must leave as they are.

For a few fixed cases (r < n and r >= n, d in {1, 40}, m in {1, 3}, a Y
shifted by 3 sd, a constant Y) it records the report that ``bob_evaluate``
gives on the package that ``pi-test alice`` would write, and that package's
sha256; then the rows of ``pi-test sweep`` on the benchmark's sweep grid at
4 replications, and the counts of ``scripts/level_power.py`` at its
defaults.  ``tests/test_golden.py`` runs this script and compares its
output with the committed ``tests/golden/golden.json``: values at 1e-12
relative, verdicts and counts exactly, and each package's sha256 only when
``build`` (numpy, its BLAS, the CPU features and the BLAS thread count) is
the same, since a seeded package is bit-identical only on the same build
and CPU.

The JSON is printed.  Regenerate the committed file with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/golden.py > tests/golden/golden.json

and say in CHANGES.md which values moved and why.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

import pitest
from pitest.cli import _json_safe, main as pi_test
from pitest.data import save_csv, synthetic_pair
from pitest.privacy import PrivacyParams
from pitest.protocol import alice_stream, bob_evaluate, package_parts, read_package

ROOT = Path(__file__).resolve().parent.parent

# name: n, d, m, dependence, x_scale, Y offset in sd of Y (None: a constant
# Y), epsilon, eta.  Every case runs at delta 2e-4 and nu 0.05, where eta
# 0.1 gives r = 2952 >= n and eta 0.5 gives r = 119 < n.
CASES = {
    "r>=n d=2 m=1": (100, 2, 1, 0.3, 3e4, 0.0, 1.0, 0.1),
    "r<n d=2 m=1": (300, 2, 1, 0.3, 3e4, 0.0, 1.0, 0.5),
    "r>=n d=40 m=3": (100, 40, 3, 0.3, 3e4, 0.0, 1.0, 0.1),
    "r<n d=40 m=3": (300, 40, 3, 0.3, 1.0, 0.0, 1e4, 0.5),
    "r>=n d=1 m=1 independent": (100, 1, 1, 0.0, 1.0, 0.0, 1.0, 0.1),
    "r<n d=1 m=3 dependent": (300, 1, 3, 0.5, 1.0, 0.0, 1e4, 0.5),
    "r>=n Y shifted by 3 sd": (200, 2, 1, 0.0, 1.0, 3.0, 1.0, 0.1),
    "r>=n constant Y": (100, 2, 2, 0.3, 3e4, None, 1.0, 0.1),
}
SEED = 1
# The benchmark's sweep workload: its data and (epsilon, eta) grid.
SWEEP = {"n": 100, "epsilons": "0.5,1.0,2.0,4.0,8.0", "etas": "0.05,0.1", "replications": "4"}


def build() -> dict:
    """What a seeded package's bytes depend on beyond the code.

    numpy, its BLAS, the BLAS thread count, and the CPU features that numpy
    finds at run time: an OpenBLAS built with DYNAMIC_ARCH picks its kernels
    by the CPU it runs on, whatever target its build string names.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__  # numpy >= 2
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    # numpy >= 1.26 keeps its build configuration in CONFIG; before it, the numpy version names the BLAS.
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on))}


def case(n, d, m, dependence, x_scale, offset, epsilon, eta) -> dict:
    X, Y = synthetic_pair(n, d, m, dependence=dependence, x_scale=x_scale, seed=SEED)
    Y = np.full_like(Y, 2.5) if offset is None else Y + offset * Y.std(axis=0)
    params = PrivacyParams(epsilon, 2e-4, eta, 0.05)
    digest, package = hashlib.sha256(), io.BytesIO()
    for part in package_parts(alice_stream(X, params, SEED)):
        digest.update(part)
        package.write(part)
    report = asdict(bob_evaluate(read_package(package), Y))
    fields = ("omega_bar_sq", "s_bar", "statistic", "reject", "degenerate", "bounds")
    return {**{key: report[key] for key in fields}, "rows": report["release"]["rows"],
            "package_bytes": package.tell(), "package_sha256": digest.hexdigest()}


def sweep_rows() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        X, Y = synthetic_pair(SWEEP["n"], 2, 2, dependence=0.3, x_scale=3e4, seed=SEED)
        x_csv, y_csv, out = (os.path.join(tmp, name) for name in ("x.csv", "y.csv", "sweep.csv"))
        save_csv(x_csv, X)
        save_csv(y_csv, Y)
        with contextlib.redirect_stdout(io.StringIO()):
            code = pi_test(["sweep", "--input-x", x_csv, "--input-y", y_csv,
                            "--epsilons", SWEEP["epsilons"], "--etas", SWEEP["etas"],
                            "--replications", SWEEP["replications"], "--seed", str(SEED),
                            "--out", out])
        if code != 0:
            raise SystemExit(f"pi-test sweep exited {code}")
        lines = Path(out).read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def level_power_counts() -> list:
    """Each row of ``scripts/level_power.py`` at its defaults: n, epsilon, x scale, offset, dependence, count."""
    env = dict(os.environ, PYTHONPATH=str(Path(pitest.__file__).parent.parent))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "level_power.py")],
                          env=env, capture_output=True, text=True, check=True)
    rows = []
    for line in done.stdout.splitlines()[2:]:
        n, epsilon, x_scale, offset, dependence, rejected = line.split()[:6]
        rows.append([int(n), float(epsilon), float(x_scale), float(offset), float(dependence),
                     int(rejected.split("/")[0])])
    return rows


def golden() -> dict:
    return _json_safe({"build": build(),
                       "cases": {name: case(*spec) for name, spec in CASES.items()},
                       "sweep": sweep_rows(),
                       "level_power": level_power_counts()})


def main():
    sys.stdout.write(json.dumps(golden(), indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
