"""Smoke test: each experiment script runs on tiny inputs and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ("level_power.py", ["--ns", "30", "--trials", "5", "--epsilons", "1,1e4"],
     "5 trials per row, alpha = 0.05; band: "),
]


def test_scripts_run_on_tiny_inputs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args, header in SCRIPTS:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script, done.stderr)
        assert header in done.stdout.splitlines()[0], (script, done.stdout)
