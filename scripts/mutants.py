#!/usr/bin/env python3
"""Run tier-1 on each mutant of ``tests/mutants.py``: the tests that catch it, as JSON.

For each mutant the tree is copied into a new temporary directory, the
mutant's old text is replaced there by its new text, and tier-1 runs in
the copy, less the check that each old text is in its file, which every
mutant fails.  The checkout is only read.  The unmutated copy runs
first, as ``"none"``, so a copy that fails by itself is seen.  The JSON
is printed: for each mutant its file, reason, pytest's summary line and
the ids of the tests that failed or errored.  A mutant with no failing
id is not caught.  Each run takes as long as tier-1, so the full list
takes many minutes.  Name mutants to run only those.  Regenerate the
committed file with

    python3 scripts/mutants.py > MUTANTS.json
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

_LIST_CHECK = "tests/test_suite.py::test_every_mutant_names_text_that_is_in_its_file_once"
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               "*.egg-info", ".perfbench_out")


def tier1(tree: Path) -> tuple[str, list[str]]:
    """Run tier-1 in ``tree``: pytest's last line, and the ids of the tests that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", COLUMNS="200")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--deselect", _LIST_CHECK],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # "FAILED <id> - <message>": an id may hold blanks, but not " - "
    failed = [m.group(2) for m in map(re.compile(r"(FAILED|ERROR) (.+?)(?: - |$)").match, lines) if m]
    summary = lines[-1].strip("= ") if lines else done.stderr.strip()
    if "INTERNALERROR" in done.stdout:
        summary = "INTERNALERROR; " + summary
    return summary, failed


def run(mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="pitest-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        entry = {}
        if mutant is not None:
            path = tree / mutant.file
            source = path.read_text()
            if source.count(mutant.old) != 1:
                raise SystemExit(f"error: {mutant.name}: its old text is not in {mutant.file} once")
            path.write_text(source.replace(mutant.old, mutant.new))
            entry = {"file": mutant.file, "reason": mutant.reason}
        summary, failed = tier1(tree)
    return {**entry, "summary": summary, "failed": failed}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"error: no mutant named {', '.join(sorted(unknown))}")
    results = {"none": run(None)}
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            results[mutant.name] = run(mutant)
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
