"""Smoke test: each experiment script runs on tiny inputs and prints its header, and refuses bad input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ("level_power.py", ["--ns", "30", "--trials", "5", "--epsilons", "1,1e4"],
     "5 trials per row, alpha = 0.05; band: "),
]

# Each exits 2 with one usage-error line and prints nothing, so draws nothing.
REFUSED = [
    ("level_power.py", ["--alpha", "1.5"], "error: alpha must lie in (0, 1), got 1.5"),
    ("level_power.py", ["--trials", "0"], "error: --trials must be >= 1, got 0"),
]


def test_scripts_run_on_tiny_inputs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args, header in SCRIPTS:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script, done.stderr)
        assert header in done.stdout.splitlines()[0], (script, done.stdout)


def test_scripts_refuse_bad_input_before_drawing():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args, message in REFUSED:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (script, args, done.stderr)
        assert done.stdout == "" and done.stderr.splitlines()[-1].endswith(message), (args, done.stderr)
