"""Every name a ``pitest`` module lists in ``__all__`` exists, the package imports, the
CLI imports without ``scipy.special``, README describes the package format the code
writes, and README's library example runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pitest
from pitest.protocol import FORMAT_VERSION


def test_package_imports():
    assert importlib.import_module("pitest") is pitest


def test_cli_import_leaves_scipy_special_out():
    env = dict(os.environ)
    src = str(Path(pitest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, pitest.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


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
