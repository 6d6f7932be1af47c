"""The golden outputs: the committed reports, packages, sweep rows and level counts are reproduced.

``scripts/golden.py`` re-derives them in a subprocess with one BLAS
thread, and they are compared with ``tests/golden/golden.json``: numbers
at 1e-12 relative, verdicts, flags and counts exactly.  A package's sha256
is compared only on the build and CPU that wrote the file (numpy, its BLAS,
the BLAS thread count and the CPU features), since a seeded package is
bit-identical only there.
A change that moves a golden value regenerates the file (see the script)
and says in CHANGES.md which values moved and why.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "golden.json"


def _mismatches(expected, actual, where="", digests=True):
    """Paths at which ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [bad for key in expected
                if digests or key != "package_sha256"
                for bad in _mismatches(expected[key], actual[key], f"{where}.{key}", digests)]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} entries != {len(expected)}"]
        return [bad for i, (e, a) in enumerate(zip(expected, actual))
                for bad in _mismatches(e, a, f"{where}[{i}]", digests)]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return [] if math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0) else [
            f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def test_golden_outputs_are_reproduced():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "golden.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    actual, expected = json.loads(done.stdout), json.loads(GOLDEN.read_text())
    same_build = actual.pop("build") == expected.pop("build")
    assert _mismatches(expected, actual, digests=same_build) == []
