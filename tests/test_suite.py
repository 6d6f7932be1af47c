"""The test suite's own settings and its mutant list.

A failing property test must be reported as a failure with its falsifying
example, and the session must go on; every mutant of ``tests/mutants.py``
must still name text that is in its file.
"""

import os
import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_falsified_property(x):
    assert x < 0


def test_beside_it():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    """Under the repository's warning filters a falsified ``@given`` test prints its example.

    Hypothesis's plugin imports a module that warns while it reports the
    example; as an error that warning ended the session there.
    """
    (tmp_path / "test_pair.py").write_text(_PAIR)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", "-q", str(tmp_path / "test_pair.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out


def test_every_mutant_names_text_that_is_in_its_file_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        source = (ROOT / mutant.file).read_text()
        assert source.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
