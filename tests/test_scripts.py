"""Smoke tests of the scripts.

Each experiment script runs on tiny inputs, prints its header and refuses bad
input; the code-line counter counts only code lines.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ("level_power.py", ["--ns", "30", "--trials", "5", "--epsilons", "1,1e4"],
     "5 trials per row, alpha = 0.05; band: "),
]

# Each exits 2 with one usage-error line and no warning, and prints nothing:
# every row is drawn before the table is printed, so a value refused by a
# later row's draw is refused after earlier rows were drawn.
REFUSED = [
    ("level_power.py", ["--alpha", "1.5"], "error: alpha must lie in (0, 1), got 1.5"),
    ("level_power.py", ["--trials", "0"], "error: --trials must be >= 1, got 0"),
    ("level_power.py", ["--ns", "1"], "error: invalid synthetic shape n=1, d=2, m=1, clusters=3"),
    ("level_power.py", ["--dependences", "2"], "error: dependence must lie in [0, 1], got 2.0"),
    ("level_power.py", ["--ns", "2.9"], "error: argument --ns: invalid integers value: '2.9'"),
    ("level_power.py", ["--ns", "abc"], "error: argument --ns: invalid integers value: 'abc'"),
    ("level_power.py", ["--ns", "30", "--trials", "1", "--offsets", "0", "--dependences", "0",
                        "--x-scales", "1e200"],
     "error: X's scale is too large for a finite release: sx, the centred sum of squares of X's "
     "release, overflows"),
    ("level_power.py", ["--ns", "30", "--trials", "1", "--offsets", "1e300", "--dependences", "0"],
     "error: the data's scale is too large for a finite test statistic: omega_sq = inf, s = 0.0"),
]


def test_scripts_run_on_tiny_inputs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args, header in SCRIPTS:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script, done.stderr)
        assert header in done.stdout.splitlines()[0], (script, done.stdout)


def test_scripts_refuse_bad_input_with_one_error_line_and_nothing_printed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, args, message in REFUSED:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, (script, args, done.stderr)
        assert done.stdout == "" and done.stderr.splitlines()[-1].endswith(message), (args, done.stderr)
        assert "Warning" not in done.stderr, (args, done.stderr)


def test_code_lines_counts_neither_docstrings_nor_comments_nor_blank_lines(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""A docstring\n\non three lines."""\n# a comment\n\nimport math\n'
                      'print(math.pi)  # a comment after code\n')
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(module)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"     2  {module}", "     2  total"]
