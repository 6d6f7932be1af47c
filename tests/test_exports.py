"""Every name a ``pitest`` module lists in ``__all__`` exists, the package imports, the
CLI imports without ``scipy.special``, every command runs without scipy, only
``protocol`` imports ``privacy``'s private names, README describes the package
format the code writes, and README's library example runs."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pitest
from pitest.data import save_csv, synthetic_pair
from pitest.protocol import FORMAT_VERSION


def _run_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports pitest from this tree."""
    env = dict(os.environ)
    src = str(Path(pitest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_package_imports():
    assert importlib.import_module("pitest") is pitest


def test_cli_import_leaves_scipy_special_out():
    assert _run_python("import sys, pitest.cli; print('scipy.special' in sys.modules)") == "False"


def test_every_command_runs_without_scipy(tmp_path):
    """``import pitest`` and ``pi-test alice``, ``bob``, ``run`` and ``sweep`` run on numpy alone.

    The interpreter is given ``sys.modules["scipy"] = None``, so that any
    import of scipy or of a scipy module raises ImportError.
    """
    X, Y = synthetic_pair(n=40, d=2, m=2, dependence=0.3, seed=4)
    x, y, package = (str(tmp_path / name) for name in ("x.csv", "y.csv", "pkg.bin"))
    save_csv(x, X)
    save_csv(y, Y)
    budget = ["--epsilon", "10", "--delta", "0.01", "--eta", "0.5", "--nu", "0.5", "--seed", "1"]
    calls = {
        "alice": ["alice", "--input", x, *budget, "--out", package],
        "bob": ["bob", "--package", package, "--input", y, "--report", str(tmp_path / "bob.json")],
        "run": ["run", "--input-x", x, "--input-y", y, *budget, "--report", str(tmp_path / "run.json")],
        "sweep": ["sweep", "--input-x", x, "--input-y", y, "--epsilons", "1,10", "--etas", "0.5",
                  "--replications", "2", "--delta", "0.01", "--nu", "0.5",
                  "--out", str(tmp_path / "sweep.csv")],
    }
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        try:
            import scipy.linalg
        except ImportError:
            pass
        else:
            raise AssertionError("scipy was importable")
        import pitest
        from pitest.cli import main
        codes = {{}}
        for name, argv in {calls!r}.items():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[name] = main(argv)
        print(json.dumps(codes))
    """)
    assert json.loads(_run_python(code)) == {"alice": 0, "bob": 0, "run": 0, "sweep": 0}
    assert (tmp_path / "pkg.bin").stat().st_size > 0


def test_every_listed_export_resolves():
    checked = 0
    for info in pkgutil.iter_modules(pitest.__path__, prefix="pitest."):
        module = importlib.import_module(info.name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        missing = [name for name in listed if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        checked += 1
    assert checked >= 5


def test_readme_package_section_names_the_format_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("- **Package**", 1)[1].split("\n- **", 1)[0]
    assert f"format version {FORMAT_VERSION}" in section


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The Python block of README's Library section runs as written, at its n = 200.

    So the example cannot name a function the package no longer has.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_library"})
    assert (tmp_path / "pkg.bin").stat().st_size > 0
    assert len(capsys.readouterr().out.split()) == 4  # statistic, verdict and the two bounds


def test_only_protocol_imports_privacys_private_names():
    """The packed layout is read in ``privacy`` and ``protocol`` alone.

    ``privacy`` releases and sums the panels and ``protocol`` encodes and
    parses them, through ``privacy``'s underscored helpers; any other
    module reads the factor through ``AlicePackage`` and ``protocol``.
    """
    src = Path(pitest.__file__).resolve().parent
    imported = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "protocol":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("privacy", "pitest.privacy"):
                imported += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert not imported
