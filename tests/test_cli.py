"""End-to-end command-line tests, run in-process through main(argv), or in a
subprocess where the process's environment matters."""

import codecs
import dataclasses
import errno
import hashlib
import io
import json
import locale
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pitest import cli, laws, privacy
from pitest.bounds import s_param_min
from pitest.cli import main
from pitest.data import load_csv, save_csv, synthetic_pair
from pitest.errors import CsvParseError, InsufficientSamplesError, InvalidInputError, ShapeError
from pitest.privacy import (
    PrivacyParams,
    jl_params,
    private_centered_sq_norm,
    tau_mechanism,
)
from pitest.estimators import dcov_sq_closed_form, s_hat
from pitest.protocol import (
    _release_seeds,
    alice_stream,
    bob_evaluate,
    factor_W,
    read_package,
)
from pitest.sweep import SWEEP_HEADER, SweepConfig, run_sweep

from reference import (_draw_bartlett, encoded, held, load_csv_cellwise, package_bytes, prepared,
                       unpack_factor)


def _read(blob: bytes):
    """The package in ``blob``, read from memory."""
    return read_package(io.BytesIO(blob))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    X, Y = synthetic_pair(n=20, d=2, m=2, dependence=0.0, seed=3)
    save_csv(root / "x.csv", X)
    save_csv(root / "y.csv", Y)
    return root


ALICE_ARGS = ["--epsilon", "10", "--delta", "0.01", "--eta", "0.5", "--nu", "0.5"]


def test_alice_writes_package(data_dir, tmp_path, capsys):
    out = tmp_path / "pkg.json"
    rc = main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS,
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote package" in captured.out
    assert "projection rows r = " in captured.out
    head, newline, payload = out.read_bytes().partition(b"\n")
    assert newline == b"\n"
    doc = json.loads(head)
    assert doc["version"] == 7
    assert sorted(doc) == ["n", "privacy", "sx", "version"]
    assert doc["n"] == 20
    assert doc["privacy"]["split"] == "half-half"
    assert doc["sx"] > 0.0
    assert (len(head) + 1) % 8 == 0  # the payload starts at a multiple of 8
    assert len(payload) == 8 * (20 * 21 // 2)
    size = len(head) + 1 + len(payload)
    assert f"({size} bytes; n = 20, release factor 20 x 20 packed as 210 entries," in captured.out


def test_alice_file_is_the_serialized_package(tmp_path, capsys):
    # r = 45 < n = 150: the packed factor has a triangle and whole columns
    X, _ = synthetic_pair(n=150, d=2, m=1, dependence=0.0, seed=5)
    x_csv, out = tmp_path / "x.csv", tmp_path / "pkg.bin"
    save_csv(x_csv, X)
    rc = main(["alice", "--input", str(x_csv), *ALICE_ARGS, "--seed", "17", "--out", str(out)])
    assert rc == 0
    blob = encoded(alice_stream(load_csv(x_csv), PrivacyParams(10.0, 0.01, 0.5, 0.5), 17))
    assert _read(blob).proj_B.rows == 45
    assert out.read_bytes() == blob
    assert (blob.index(b"\n") + 1) % 8 == 0  # the payload is aligned for float64
    assert f"({len(blob)} bytes; n = 150, release factor 45 x 150 " in capsys.readouterr().out


def test_alice_reports_eta_too_small_as_an_error(data_dir, tmp_path, capsys):
    out = tmp_path / "pkg.bin"
    rc = main(["alice", "--input", str(data_dir / "x.csv"), "--epsilon", "1",
               "--eta", "1e-200", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: eta = 1e-200 is too small")
    assert not out.exists()


def test_alice_writes_a_package_at_a_huge_row_count(data_dir, tmp_path, capsys):
    # eta = 1e-100 gives r ~ 3e201 rows: the factor has n = 20 rows and sx is finite
    out = tmp_path / "pkg.bin"
    rc = main(["alice", "--input", str(data_dir / "x.csv"), "--epsilon", "1",
               "--eta", "1e-100", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    package = _read(out.read_bytes())
    assert (package.proj_B.rows, package.proj_B.n) == (20, 20)
    assert math.isfinite(package.sx) and package.sx > 0.0


def test_alice_reports_an_overflowing_column_mean_as_an_error(tmp_path, capsys):
    # The column sums of the first X overflow, but its differences from the
    # first row do not, so its factor is finite and its centred sum of
    # squares is not; at X's scale 1e160 only the squares overflow.  The
    # third X's row differences overflow, so its centred factor is not
    # finite.  At epsilon = 1e-160 the floor w is finite and w^2 is not, so
    # sx overflows whatever X is.  run fails as alice does, and sweep
    # refuses the law's draws in the same words, naming X's scale (the
    # law's spectrum of the third X is inf) or the budget; each with one
    # error line, and no numpy warning, which this suite makes an error.
    large = np.random.default_rng(0).uniform(0.9, 1.0, (20, 2)) * 1e307
    signs = np.where(np.arange(20) % 2, 1e308, -1e308)[:, None]
    scale = "error: X's scale is too large for a finite release"
    cases = [
        (large, "1", f"{scale}: sx, the centred sum of squares of X's release, overflows", scale),
        (synthetic_pair(20, 2, 1, x_scale=1e160, seed=1)[0], "1", scale, scale),
        (np.hstack([signs, signs]), "1", "error: factor contains non-finite entries", scale),
        (large * 1e-307, "1e-160", "error: epsilon = 1e-160 is too small for a finite release",
         "error: the budget is too small for a finite release"),
    ]
    x_csv, y_csv, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "pkg.bin"
    save_csv(y_csv, np.random.default_rng(1).standard_normal((20, 1)))
    for X, epsilon, message, sweep_message in cases:
        save_csv(x_csv, X)
        rc = main(["alice", "--input", str(x_csv), "--epsilon", epsilon, "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        rc = main(["run", "--input-x", str(x_csv), "--input-y", str(y_csv), "--epsilon", epsilon,
                   "--report", str(tmp_path / "report.json")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1 and message in err[0], err
        rc = main(["sweep", "--input-x", str(x_csv), "--input-y", str(y_csv), "--epsilons", epsilon,
                   "--replications", "2", "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1 and err[0].startswith(sweep_message), err


# n, and rows per panel (None: the default panels), for r = 45: one panel
# of 20 rows; panels [0, 16), [16, 32) and [32, 40) of a 40 x 40 factor;
# and r < n, panels [0, 16), [16, 32) and [32, 45) of a 45 x 150 factor.
_STREAM_SHAPES = [(20, None), (40, 16), (150, 16)]


@pytest.mark.parametrize("n, height", _STREAM_SHAPES)
def test_alice_streams_the_serialized_package(n, height, tmp_path, monkeypatch, capsys):
    """The file written panel by panel is the package of alice_stream(...), byte for byte."""
    if height is not None:
        monkeypatch.setattr(privacy, "_PANEL_FLOATS", height * n)
    rows = min(45, n)
    assert len(list(privacy._panels(rows, n))) == (1 if height is None else 3)
    X, _ = synthetic_pair(n=n, d=2, m=1, dependence=0.0, seed=n)
    x_csv, out = tmp_path / "x.csv", tmp_path / "pkg.bin"
    save_csv(x_csv, X)
    assert main(["alice", "--input", str(x_csv), *ALICE_ARGS, "--seed", "23", "--out", str(out)]) == 0
    blob = encoded(alice_stream(load_csv(x_csv), PrivacyParams(10.0, 0.01, 0.5, 0.5), 23))
    assert out.read_bytes() == blob
    assert f"({len(blob)} bytes; n = {n}, release factor {rows} x {n} " in capsys.readouterr().out


def test_alice_leaves_nothing_when_a_later_panel_is_not_finite(tmp_path, monkeypatch, capsys):
    """A release that turns non-finite in its last panel, after the first panels are written."""
    n = 200  # panels [0, 16), [16, 32) and [32, 45) of 25 kB and more, so written as they come
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * n)
    X, _ = synthetic_pair(n=n, d=2, m=1, dependence=0.0, seed=1)
    save_csv(tmp_path / "x.csv", X)
    out_dir = tmp_path / "out"
    factor = privacy._factor_panel
    partial = []

    def poisoned(U, Dt, floor, stack):
        factor(U, Dt, floor, stack)
        if U.shape[1] == n - 32:  # the panel [32, 45), before the release checks it
            partial.extend(path.stat().st_size for path in out_dir.iterdir())
            U[0, 1] = math.nan  # an entry right of the diagonal

    monkeypatch.setattr(privacy, "_factor_panel", poisoned)
    rc = main(["alice", "--input", str(tmp_path / "x.csv"), *ALICE_ARGS, "--out", str(out_dir / "pkg.bin")])
    assert rc == 1
    assert "error: projection contains non-finite entries" in capsys.readouterr().err
    assert len(partial) == 1 and partial[0] > 0  # the temporary file, with the first panels in it
    assert list(out_dir.iterdir()) == []


def test_alice_on_a_full_disk_keeps_the_old_package_and_releases_nothing(tmp_path, monkeypatch, capsys):
    """The temporary file is preallocated before the first panel is released, so ENOSPC comes first."""
    X, _ = synthetic_pair(n=40, d=2, m=1, dependence=0.0, seed=4)
    save_csv(tmp_path / "x.csv", X)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "pkg.bin"
    out.write_bytes(b"the old package")

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, "No space left on device")

    factored = []
    monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
    monkeypatch.setattr(privacy, "_factor_panel", lambda *args: factored.append(args))
    rc = main(["alice", "--input", str(tmp_path / "x.csv"), *ALICE_ARGS, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert factored == []
    assert list(out_dir.iterdir()) == [out]
    assert out.read_bytes() == b"the old package"


@pytest.mark.parametrize("n, rows", [(20, 20), (150, 45)])
def test_the_package_length_is_the_printed_the_written_and_the_reported_one(n, rows, tmp_path, capsys):
    X, Y = synthetic_pair(n=n, d=2, m=2, dependence=0.0, seed=n)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    pkg, report = tmp_path / "pkg.bin", tmp_path / "report.json"
    pkg.write_bytes(b"an older, longer package " * 1000)  # replaced, not overwritten in place
    assert main(["alice", "--input", str(tmp_path / "x.csv"), *ALICE_ARGS, "--out", str(pkg)]) == 0
    printed = int(re.search(r"\((\d+) bytes; ", capsys.readouterr().out).group(1))
    assert main(["bob", "--package", str(pkg), "--input", str(tmp_path / "y.csv"),
                 "--report", str(report)]) == 0
    release = json.loads(report.read_text())["release"]
    assert release["rows"] == rows
    assert printed == pkg.stat().st_size == release["package_bytes"]


def _package_with_bad_last_panel(tmp_path, defect: str):
    """A package of n = 40 in three panels, its last panel [32, 40) spoilt as ``defect`` says."""
    n = 40
    X, _ = synthetic_pair(n=n, d=2, m=2, dependence=0.0, seed=8)
    blob = bytearray(package_bytes(X, PrivacyParams(10.0, 0.01, 0.5, 0.5), 5))
    last = blob.index(b"\n") + 1 + 8 * privacy._row_offset(32, n)  # where the last panel starts
    if defect == "nan":
        blob[last + 8 : last + 16] = struct.pack("<d", math.nan)  # right of its first diagonal entry
    elif defect == "diagonal":
        blob[-8:] = struct.pack("<d", -1.0)  # the diagonal entry of row 39, the payload's last
    else:  # the last panel is missing
        del blob[last:]
    pkg = tmp_path / "pkg.bin"
    pkg.write_bytes(bytes(blob))
    return pkg


@pytest.mark.parametrize("defect, message", [
    ("nan", "section 'proj_B': projection contains non-finite entries"),
    ("diagonal", "section 'proj_B': projection: a diagonal entry is not > 0"),
    ("short", "package holds .* bytes, expected"),
])
def test_bob_refuses_a_bad_last_panel_and_writes_no_report(defect, message, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(privacy, "_PANEL_FLOATS", 16 * 40)
    pkg = _package_with_bad_last_panel(tmp_path, defect)
    Y = synthetic_pair(n=40, d=2, m=2, dependence=0.0, seed=8)[1]
    save_csv(tmp_path / "y.csv", Y)
    report = tmp_path / "report.json"
    rc = main(["bob", "--package", str(pkg), "--input", str(tmp_path / "y.csv"), "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""  # no statistic, no verdict
    assert captured.err.startswith("error: ")
    assert re.search(message, captured.err)
    assert not report.exists()


def test_bob_reads_the_same_package_from_a_file(data_dir, tmp_path):
    """bob_evaluate on a package read panel by panel equals it on the package in memory."""
    X, Y = load_csv(data_dir / "x.csv"), load_csv(data_dir / "y.csv")
    package = prepared(X, PrivacyParams(10.0, 0.01, 0.5, 0.5), 4)
    path = tmp_path / "pkg.bin"
    path.write_bytes(encoded(package))
    with open(path, "rb") as handle:
        streamed = read_package(handle)
        assert (streamed.params, streamed.sx, streamed.n) == (package.params, package.sx, 20)
        assert bob_evaluate(streamed, Y) == bob_evaluate(package, Y)
        assert bob_evaluate(streamed, Y) == bob_evaluate(package, Y)  # each use reads it again


def test_alice_and_bob_hold_a_few_panels_not_the_factor(tmp_path, capsys):
    """Traced peaks of ``pi-test alice`` and ``pi-test bob`` stay within a few panels and O(n (d + m)).

    n = 3000 at the CLI defaults (r = 2952): the packed factor is 36 MB,
    a panel 32 rows, 0.77 MB.
    """
    n, d, m = 3000, 2, 2
    X, Y = synthetic_pair(n=n, d=d, m=m, dependence=0.3, x_scale=3e4, seed=2)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    pkg = tmp_path / "pkg.bin"
    peaks = {}
    for argv in (["alice", "--input", str(tmp_path / "x.csv"), "--epsilon", "1", "--out", str(pkg)],
                 ["bob", "--package", str(pkg), "--input", str(tmp_path / "y.csv"),
                  "--report", str(tmp_path / "report.json")]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    factor_bytes = 8 * privacy._row_offset(2952, n)
    assert pkg.stat().st_size > factor_bytes > 36e6
    limit = 3 * 8 * privacy._PANEL_FLOATS + 8 * 8 * n * (d + m)
    assert limit < factor_bytes / 8
    assert all(peak < limit for peak in peaks.values()), (peaks, limit)


def test_bob_reports_eta_too_small_in_a_header_as_an_error(data_dir, tmp_path, capsys):
    X = load_csv(data_dir / "x.csv")
    blob = package_bytes(X, PrivacyParams(10.0, 0.01, 0.5, 0.5), 3)
    head, _, payload = blob.partition(b"\n")
    doc = json.loads(head)
    doc["privacy"]["eta"] = 1e-200
    pkg = tmp_path / "pkg.bin"
    pkg.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + payload)
    rc = main(["bob", "--package", str(pkg), "--input", str(data_dir / "y.csv"),
               "--report", str(tmp_path / "report.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid privacy parameters: eta = 1e-200")


def test_a_seeded_package_at_d_2_has_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """README's reproducibility claim at d = 2: OpenBLAS's thread count leaves the bytes alone."""
    X, _ = synthetic_pair(n=200, d=2, m=2, dependence=0.3, x_scale=3e4, seed=1)
    save_csv(tmp_path / "x.csv", X)
    src = str(Path(cli.__file__).resolve().parents[1])
    packages = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"pkg{threads}.bin"
        subprocess.run([sys.executable, "-m", "pitest.cli", "alice", "--input", str(tmp_path / "x.csv"),
                        "--epsilon", "1", "--delta", "1e-4", "--eta", "0.1", "--nu", "1e-4",
                        "--seed", "1", "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=120)
        packages.append(out.read_bytes())
    assert packages[0] == packages[1]


def test_seed_warns_because_a_known_seed_reveals_x(data_dir, tmp_path, capsys):
    """With the master seed, T is regenerated and centred X recovered from the factor.

    The factor R has R^T R = (T A_hat)^T (T A_hat) / r for A_hat = [B^T; w I]
    and the Bartlett factor T of the release.  Subtracting the floor rows
    (w^2 / r) T22^T T22 leaves D^T D / r for the k = 2 dense rows
    D = T11 B^T + w T12, so D is known up to a 2 x 2 orthogonal map O.  The
    columns of B sum to zero, so D e = w T12 e, which leaves two choices of
    O (a rotation and a reflection); one of them gives Xc = B / sqrt(2).
    """
    out = tmp_path / "pkg.bin"
    rc = main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS,
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: --seed") and "recover X" in captured.err
    assert "warning" not in captured.out

    X = load_csv(data_dir / "x.csv")
    params = PrivacyParams(10.0, 0.01, 0.5, 0.5)
    assert out.read_bytes() == package_bytes(X, params, 11)

    R = unpack_factor(*held(_read(out.read_bytes()).proj_B))
    (n, k), (r, w) = X.shape, jl_params(params.half_budget())
    release_seed = int(np.random.SeedSequence(11).generate_state(2, np.uint64)[0])
    T1, T22 = _draw_bartlett(privacy._release_rng(release_seed), r, k, n)
    gram = r * (R.T @ R) - w**2 * (T22.T @ T22)  # D^T D
    lam, V = np.linalg.eigh(gram)
    D0 = np.sqrt(lam[-k:])[:, None] * V[:, -k:].T  # D = O D0
    u, v = D0.sum(axis=1), w * T1[:, k:].sum(axis=1)  # O u = v
    norm = np.linalg.norm(u) * np.linalg.norm(v)
    # cosine and sine of the difference, then of the sum, of the angles of v and u
    c, s = (u @ v) / norm, (u[0] * v[1] - u[1] * v[0]) / norm
    c2, s2 = (u[0] * v[0] - u[1] * v[1]) / norm, (u[1] * v[0] + u[0] * v[1]) / norm
    rotation = np.array([[c, -s], [s, c]])
    reflection = np.array([[c2, s2], [s2, -c2]])
    Xc = X - X.mean(axis=0)
    errors = []
    for O in (rotation, reflection):
        assert np.allclose(O @ u, v, rtol=1e-9)
        Bt = np.linalg.solve(T1[:, :k], O @ D0 - w * T1[:, k:])
        errors.append(np.linalg.norm(Bt.T / math.sqrt(2.0) - Xc))
    assert min(errors) <= 1e-6 * np.linalg.norm(Xc)

    rc = main(["run", "--input-x", str(data_dir / "x.csv"), "--input-y", str(data_dir / "y.csv"),
               *ALICE_ARGS, "--seed", "11", "--report", str(tmp_path / "run.json")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: --seed") and captured.err.count("\n") == 1
    assert "warning" not in captured.out
    main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--out", str(out)])
    assert capsys.readouterr().err == ""


def test_alice_is_reproducible(data_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--seed", "1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_alice_default_seed_is_fresh(data_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_bob_round_trip(data_dir, tmp_path, capsys):
    pkg = tmp_path / "pkg.json"
    report = tmp_path / "report.json"
    main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS,
          "--seed", "11", "--out", str(pkg)])
    capsys.readouterr()
    rc = main(["bob", "--package", str(pkg), "--input", str(data_dir / "y.csv"),
               "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Gamma = " in out and "threshold = " in out
    assert "reject" in out  # either verdict wording contains it
    doc = json.loads(report.read_text())
    assert doc["n"] == 20 and doc["m"] == 2
    assert doc["privacy"]["epsilon"] == 10.0
    assert isinstance(doc["reject"], bool)
    # the release as the header and the blob's length give it
    r, w = jl_params(PrivacyParams(10.0, 0.01, 0.5, 0.5).half_budget())
    assert doc["release"] == {"r": r, "w": w, "rows": 20, "package_bytes": pkg.stat().st_size}
    assert r == 45


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _as_written(doc) -> str:
    """``doc`` as a report is written: indented JSON, each non-finite number as null."""
    return json.dumps(json.loads(json.dumps(doc), parse_constant=lambda name: None), indent=2) + "\n"


def test_bob_writes_the_library_report(data_dir, tmp_path, capsys):
    """``pi-test bob`` writes the ``asdict`` of bob_evaluate's report, and nothing more."""
    pkg, path = tmp_path / "pkg.bin", tmp_path / "report.json"
    assert main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--seed", "11",
                 "--out", str(pkg)]) == 0
    assert main(["bob", "--package", str(pkg), "--input", str(data_dir / "y.csv"),
                 "--report", str(path)]) == 0
    capsys.readouterr()
    with open(pkg, "rb") as f:
        doc = dataclasses.asdict(bob_evaluate(read_package(f), load_csv(data_dir / "y.csv")))
    assert list(doc)[-3:] == ["privacy", "release", "floor"]
    assert path.read_bytes() == _as_written(doc).encode()


@pytest.mark.parametrize("flags", [["--alpha", "1e-17"], ["--s-param", "1"]], ids=["alpha", "s_param"])
def test_every_report_is_strict_json(flags, data_dir, tmp_path, capsys):
    """Bob's and run's reports hold no NaN or Infinity: the infinite threshold of an alpha so small
    that nothing rejects, and a clamped upper bound, are written as null."""
    x, y = str(data_dir / "x.csv"), str(data_dir / "y.csv")
    pkg, bob_path, run_path = tmp_path / "pkg.bin", tmp_path / "bob.json", tmp_path / "run.json"
    assert main(["alice", "--input", x, *ALICE_ARGS, "--seed", "11", "--out", str(pkg)]) == 0
    assert main(["bob", "--package", str(pkg), "--input", y, *flags, "--report", str(bob_path)]) == 0
    assert main(["run", "--input-x", x, "--input-y", y, *ALICE_ARGS, "--seed", "11", *flags,
                 "--report", str(run_path)]) == 0
    capsys.readouterr()
    bob = json.loads(bob_path.read_text(), parse_constant=_refuse_constant)
    run = json.loads(run_path.read_text(), parse_constant=_refuse_constant)
    options = {"alpha": 1e-17} if flags[0] == "--alpha" else {"s_param": 1.0}
    with open(pkg, "rb") as f:
        report = bob_evaluate(read_package(f), load_csv(y), **options)
    assert bob_path.read_text() == _as_written(dataclasses.asdict(report))
    assert run["private"] == bob
    if flags[0] == "--alpha":
        assert report.threshold == math.inf and report.reject is False
        assert bob["threshold"] is None and run["nonprivate"]["threshold"] is None
    else:
        assert report.bounds.upper == math.inf and report.bounds.s_param_clamped
        assert bob["bounds"]["upper"] is None and bob["bounds"]["s_param_clamped"] is True


def test_bob_reports_the_floor_share_of_each_statistic(data_dir, tmp_path, capsys):
    """omega_share = w^2 ||Y||^2 / ||R Y||^2, s_share = w^2 (n - 1) / sx, s_param_min = tau_mech / (1 - eta)."""
    pkg, report = tmp_path / "pkg.bin", tmp_path / "report.json"
    main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--out", str(pkg)])
    assert main(["bob", "--package", str(pkg), "--input", str(data_dir / "y.csv"),
                 "--report", str(report)]) == 0
    capsys.readouterr()
    floor = json.loads(report.read_text())["floor"]
    package = _read(pkg.read_bytes())
    Y = load_csv(data_dir / "y.csv")
    half = PrivacyParams(10.0, 0.01, 0.5, 0.5).half_budget()
    w = jl_params(half).w
    RY = unpack_factor(*held(package.proj_B)) @ Y
    assert floor["omega_share"] == pytest.approx(w**2 * np.sum(Y * Y) / np.sum(RY * RY), rel=1e-12)
    assert floor["s_share"] == pytest.approx(w**2 * 19 / package.sx, rel=1e-15)
    assert floor["s_param_min"] == pytest.approx(tau_mechanism(half) / 0.5, rel=1e-15)
    assert 0.0 < floor["omega_share"] and 0.0 < floor["s_share"]


def test_bob_one_float_above_s_param_min_clamps_the_upper_bound(data_dir, tmp_path, capsys):
    """At epsilon 3 the upper bound's divisor (1 - eta) s_param - tau_mech is exactly 0 one
    float above s_param_min, so the bound is clamped, not divided by zero."""
    pkg, report = tmp_path / "pkg.bin", tmp_path / "report.json"
    assert main(["alice", "--input", str(data_dir / "x.csv"), "--epsilon", "3", "--seed", "1",
                 "--out", str(pkg)]) == 0
    s_param = math.nextafter(s_param_min(PrivacyParams(3.0, 2e-4, 0.1, 0.05).half_budget()), math.inf)
    assert s_param == 1621832558.9560668
    rc = main(["bob", "--package", str(pkg), "--input", str(data_dir / "y.csv"),
               "--s-param", repr(s_param), "--report", str(report)])
    capsys.readouterr()
    assert rc == 0
    bounds = json.loads(report.read_text())["bounds"]
    assert bounds["s_param"] == s_param
    assert bounds["s_param_clamped"] is True and bounds["upper"] is None


def test_bob_degenerate_input_still_exits_zero(data_dir, tmp_path, capsys):
    pkg = tmp_path / "pkg.json"
    main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--out", str(pkg)])
    const = tmp_path / "const.csv"
    save_csv(const, np.ones((20, 2)))
    report = tmp_path / "report.json"
    rc = main(["bob", "--package", str(pkg), "--input", str(const),
               "--report", str(report)])
    assert rc == 0
    assert "degenerate" in capsys.readouterr().out
    doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
    assert doc["degenerate"] is True and doc["statistic"] is None and doc["bounds"] is None


@pytest.mark.parametrize("command", ["bob", "run"])
def test_an_overflowing_statistic_is_one_error_line_and_no_report(command, tmp_path, capsys):
    """``bob`` on X at scale 1e152, and ``run`` on Y at scale 1e160: exit 1, one ``error:``
    line naming the scale, no numpy warning and no report."""
    X, Y = synthetic_pair(400, 2, 2, dependence=0, seed=1)
    x, y, pkg, report = (tmp_path / name for name in ("x.csv", "y.csv", "pkg.bin", "r.json"))
    budget = ["--epsilon", "1", "--delta", "2e-4", "--eta", "0.5", "--nu", "0.5", "--seed", "1"]
    if command == "bob":
        save_csv(x, 1e152 * X)
        save_csv(y, Y)
        assert main(["alice", "--input", str(x), *budget, "--out", str(pkg)]) == 0
        argv = ["bob", "--package", str(pkg), "--input", str(y), "--report", str(report)]
    else:
        save_csv(x, X)
        save_csv(y, 1e160 * Y)
        argv = ["run", "--input-x", str(x), "--input-y", str(y), *budget, "--report", str(report)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not caught
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning: --seed")]
    assert len(err) == 1 and err[0].startswith("error: ") and "scale is too large" in err[0]
    assert not report.exists()


def test_bob_shape_mismatch_is_runtime_error(data_dir, tmp_path, capsys):
    pkg = tmp_path / "pkg.json"
    main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--out", str(pkg)])
    short = tmp_path / "short.csv"
    save_csv(short, np.ones((5, 2)) * np.arange(5)[:, None])
    rc = main(["bob", "--package", str(pkg), "--input", str(short),
               "--report", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "built for n = 20 samples but Y has 5 rows" in err


def test_bob_corrupt_package_is_runtime_error(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{ not json")
    rc = main(["bob", "--package", str(bad), "--input", str(data_dir / "y.csv"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_runtime_error(tmp_path, capsys):
    rc = main(["alice", "--input", str(tmp_path / "nope.csv"), *ALICE_ARGS,
               "--out", str(tmp_path / "pkg.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_one_parser_serves_every_call_and_keeps_no_state(data_dir, tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; a reused parser leaves every output as a first call's.

    Two passes of alice, bob, run, a usage error and sweep, with fixed
    seeds: the second pass writes the first pass's bytes and streams.
    """
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    x, y = str(data_dir / "x.csv"), str(data_dir / "y.csv")
    passes = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        assert main(["alice", "--input", x, *ALICE_ARGS, "--seed", "11",
                     "--out", str(out / "pkg.bin")]) == 0
        assert main(["bob", "--package", str(out / "pkg.bin"), "--input", y,
                     "--report", str(out / "bob.json")]) == 0
        assert main(["run", "--input-x", x, "--input-y", y, *ALICE_ARGS, "--seed", "12",
                     "--report", str(out / "run.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["bob", "--package", str(out / "pkg.bin"), "--input", y, "--alpha", "2",
                  "--report", str(out / "bad.json")])
        assert exc.value.code == 2
        assert main(["sweep", "--input-x", x, "--input-y", y, "--epsilons", "1,2",
                     "--replications", "3", "--seed", "5", "--out", str(out / "sweep.csv")]) == 0
        streams = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        passes.append((files, streams.out.replace(str(out), "#"), streams.err.replace(str(out), "#")))
    assert len(built) == 1
    assert sorted(passes[0][0]) == ["bob.json", "pkg.bin", "run.json", "sweep.csv"]
    assert passes[1] == passes[0]


def test_usage_errors_exit_two(data_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alice", "--input", str(data_dir / "x.csv"), "--out", str(tmp_path / "p")])
    assert exc.value.code == 2  # --epsilon is required
    with pytest.raises(SystemExit) as exc:
        main(["alice", "--input", str(data_dir / "x.csv"), "--epsilon", "1",
              "--eta", "1.5", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2  # eta outside (0, 1)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--input-x", "a", "--input-y", "b", "--out", "c",
              "--epsilons", "4,2,1"])
    assert exc.value.code == 2  # not increasing
    for etas in ("1.5", "0", "0.1,1"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--input-x", "a", "--input-y", "b", "--out", str(tmp_path / "p"),
                  "--etas", etas])
        assert exc.value.code == 2  # an eta outside (0, 1)
    with pytest.raises(SystemExit) as exc:
        main(["alice", "--input", str(data_dir / "x.csv"), "--epsilon", "1",
              "--analyst-dim", "1", "--out", str(tmp_path / "p")])
    assert exc.value.code == 2  # no such flag
    # Every rule is checked before a file is read, so nonexistent inputs
    # still give the usage error, from the library's owner of the rule.
    missing = str(tmp_path / "missing.csv")
    sweep = ["sweep", "--input-x", missing, "--input-y", missing, "--out", str(tmp_path / "p")]
    for argv, message in (
        (sweep + ["--epsilons", "1,inf"], "epsilon must be a finite number, got inf"),
        (sweep + ["--epsilons", "nan"], "epsilon must be a finite number, got nan"),
        (sweep + ["--seed", "-1"], "master_seed must be >= 0, got -1"),
        (sweep + ["--delta", "1"], "delta must lie in (0, 1), got 1.0"),
        (sweep + ["--alpha", "0"], "alpha must lie in (0, 1), got 0.0"),
        (["bob", "--package", missing, "--input", missing, "--alpha", "1",
          "--report", str(tmp_path / "p")], "alpha must lie in (0, 1), got 1.0"),
        (["alice", "--input", missing, "--epsilon", "1", "--seed", "-1", "--out", str(tmp_path / "p")],
         "invalid master seed -1: expected non-negative integer"),
        (["bob", "--package", missing, "--input", missing, "--s-param", "nan",
          "--report", str(tmp_path / "p")], "s_param must be a positive finite number, got nan"),
        (["run", "--input-x", missing, "--input-y", missing, "--epsilon", "1", "--s-param", "0",
          "--report", str(tmp_path / "p")], "s_param must be a positive finite number, got 0.0"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_run_reports_both_worlds(data_dir, tmp_path, capsys):
    report = tmp_path / "both.json"
    rc = main(["run", "--input-x", str(data_dir / "x.csv"),
               "--input-y", str(data_dir / "y.csv"),
               "--epsilon", "1000000", "--delta", "0.5", "--eta", "0.01",
               "--nu", "0.05", "--seed", "4", "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "non-private: Gamma = " in out
    doc = json.loads(report.read_text())
    priv, ref = doc["private"], doc["nonprivate"]
    assert ref["degenerate"] is False
    # with an essentially unlimited budget the two statistics agree closely
    assert priv["statistic"] == pytest.approx(ref["statistic"], rel=0.15)
    # the release and floor sections of a bob report on the same package
    X, Y = load_csv(data_dir / "x.csv"), load_csv(data_dir / "y.csv")
    params = PrivacyParams(1e6, 0.5, 0.01, 0.05)
    package = prepared(X, params, 4)
    r, w = jl_params(params.half_budget())
    blob = encoded(package)
    assert priv["release"] == {"r": r, "w": w, "rows": 20, "package_bytes": len(blob)}
    RY = unpack_factor(*held(package.proj_B)) @ Y
    assert priv["floor"] == pytest.approx({
        "omega_share": w**2 * np.sum(Y * Y) / np.sum(RY * RY),
        "s_share": w**2 * 19 / package.sx,
        "s_param_min": tau_mechanism(params.half_budget()) / (1.0 - 0.01),
    }, rel=1e-12)
    pkg_file, bob_report = tmp_path / "pkg.bin", tmp_path / "bob.json"
    pkg_file.write_bytes(blob)
    assert main(["bob", "--package", str(pkg_file), "--input", str(data_dir / "y.csv"),
                 "--report", str(bob_report)]) == 0
    bob_doc = json.loads(bob_report.read_text())
    assert (bob_doc["release"], bob_doc["floor"]) == (priv["release"], priv["floor"])


@pytest.mark.parametrize("n, privacy_args, rows, panels", [
    (20, ALICE_ARGS, 20, 1),
    (600, ["--epsilon", "1"], 600, 3),
    (1000, ["--epsilon", "1", "--eta", "0.25", "--nu", "0.5"], 178, 2),
], ids=["one panel", "several panels", "r below n"])
def test_run_reports_what_alice_then_bob_report(n, privacy_args, rows, panels, tmp_path, capsys):
    """``pi-test run`` reads the factor as it is released; its ``private`` report is, bit for
    bit, bob's report on the package that alice writes from the same seed."""
    assert len(list(privacy._panels(rows, n))) == panels
    X, Y = synthetic_pair(n=n, d=2, m=2, dependence=0.3, x_scale=3e4, seed=n)
    x, y = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    save_csv(x, X)
    save_csv(y, Y)
    pkg, bob_report, run_report = tmp_path / "pkg.bin", tmp_path / "bob.json", tmp_path / "run.json"
    assert main(["alice", "--input", x, *privacy_args, "--seed", "6", "--out", str(pkg)]) == 0
    assert main(["bob", "--package", str(pkg), "--input", y, "--report", str(bob_report)]) == 0
    assert main(["run", "--input-x", x, "--input-y", y, *privacy_args, "--seed", "6",
                 "--report", str(run_report)]) == 0
    capsys.readouterr()
    bob, run = json.loads(bob_report.read_text()), json.loads(run_report.read_text())
    assert bob["release"]["rows"] == rows and bob["release"]["package_bytes"] == pkg.stat().st_size
    assert run["private"] == bob


def test_run_holds_a_few_panels_not_the_package(tmp_path, capsys):
    """The traced peak of ``pi-test run`` stays within a few panels and O(n (d + m)).

    n = 3000 at the CLI defaults (r = 2952): the packed factor is 36 MB, a panel 32 rows.
    """
    n, d, m = 3000, 2, 2
    X, Y = synthetic_pair(n=n, d=d, m=m, dependence=0.3, x_scale=3e4, seed=2)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    tracemalloc.start()
    try:
        assert main(["run", "--input-x", str(tmp_path / "x.csv"), "--input-y", str(tmp_path / "y.csv"),
                     "--epsilon", "1", "--report", str(tmp_path / "run.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    release = json.loads((tmp_path / "run.json").read_text())["private"]["release"]
    assert release["package_bytes"] > 8 * privacy._row_offset(2952, n) > 36e6
    limit = 3 * 8 * privacy._PANEL_FLOATS + 8 * 8 * n * (d + m)
    assert peak < limit, (peak, limit)


def test_run_and_sweep_constant_x_are_degenerate(tmp_path, capsys):
    # 0.1 has an inexact column mean; the non-private reference must still be exactly zero
    _, Y = synthetic_pair(n=20, d=2, m=2, dependence=0.0, seed=3)
    X = np.full((20, 2), 0.1)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    report = tmp_path / "const.json"
    rc = main(["run", "--input-x", str(tmp_path / "x.csv"),
               "--input-y", str(tmp_path / "y.csv"), *ALICE_ARGS,
               "--seed", "4", "--report", str(report)])
    assert rc == 0
    assert "non-private: degenerate (constant dataset)" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    ref = doc["nonprivate"]
    assert ref["degenerate"] is True
    assert ref["omega_sq"] == 0.0 and ref["s_hat"] == 0.0
    assert ref["threshold"] == doc["private"]["threshold"]
    cfg = SweepConfig(epsilons=(100.0,), replications=2, eta_values=(0.5,),
                      delta=0.01, nu=0.5)
    (row,) = run_sweep(cfg, X, Y)
    assert math.isnan(row.mean_rel_err_gamma) and math.isnan(row.mean_rel_err_omega)


def test_sweep_rejects_zero_replications(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--input-x", str(data_dir / "x.csv"),
              "--input-y", str(data_dir / "y.csv"), "--replications", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "error: replications must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_header_names_the_row_fields():
    assert SWEEP_HEADER == (
        "epsilon,eta,mean_rel_err_gamma,sd_gamma,mean_rel_err_s,sd_s,mean_rel_err_omega,sd_omega"
    )


def test_sweep_writes_expected_table(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--input-x", str(data_dir / "x.csv"),
               "--input-y", str(data_dir / "y.csv"),
               "--epsilons", "100,10000", "--etas", "0.5", "--replications", "3",
               "--delta", "0.01", "--nu", "0.5", "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert "wrote sweep table" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3  # 2 epsilons x 1 eta
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 100.0 and first[1] == 0.5
    assert all(math.isfinite(v) for v in first)


# ------------------------------------------------------------- sweep library


def test_sweep_runs_every_trial_on_the_calling_thread(data_dir, monkeypatch):
    """run_sweep starts no thread, and two calls give the same rows."""
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    X, Y = load_csv(data_dir / "x.csv"), load_csv(data_dir / "y.csv")
    cfg = SweepConfig(epsilons=(100.0, 1000.0), replications=3, eta_values=(0.5,),
                      delta=0.01, nu=0.5)
    threads = threading.active_count()
    first = run_sweep(cfg, X, Y)
    assert threading.active_count() == threads and started == []
    assert run_sweep(cfg, X, Y) == first


def test_sweep_row_is_the_mean_and_sd_of_its_cells_stream(data_dir):
    """A row is the mean and sd of its trials' errors, each trial reported as Bob reports it.

    The sweep's one stream is default_rng(master_seed); the analyst answers of every cell are
    drawn from it first, then every cell's values of sx, each as one batched draw of its law,
    and a row's trials are its cell's slice of those draws.  At m = 2, 1 and 3.
    """
    X = load_csv(data_dir / "x.csv")
    n = X.shape[0]
    _, Y3 = synthetic_pair(n=n, d=2, m=3, dependence=0.5, seed=8)
    cfg = SweepConfig(epsilons=(100.0, 1000.0), replications=4, eta_values=(0.3, 0.5),
                      delta=0.01, nu=0.5, master_seed=7)
    spectrum = laws.centered_spectrum(X)
    for Y in (load_csv(data_dir / "y.csv"), Y3[:, :1], Y3):
        rows = run_sweep(cfg, X, Y)
        assert len(rows) == 4 and rows.degenerate_trials == 0
        omega_ref, s_ref = dcov_sq_closed_form(X, Y), s_hat(X, Y)
        gamma_ref = n * omega_ref / s_ref
        releases = [jl_params(p.half_budget()) for p in cfg.cells]
        Q = laws.query_matrix(Y)
        rng = np.random.default_rng(7)
        answers = laws.projected_sq_norm_laws(factor_W(X).T @ Q, Q.T @ Q, releases).draws(rng, 4)
        r, w = np.array(releases).T
        sx = laws.centered_sq_norm_law(spectrum, n, r, w).draws(rng, 4)
        assert answers.shape == sx.shape == (4, 4)
        for row, p, cell_answers, cell_sx in zip(rows, cfg.cells, answers, sx):
            errors = []
            for answer, sx_trial in zip(cell_answers, cell_sx):
                omega_bar_sq, s_bar = laws.private_statistics(n, float(answer), float(sx_trial),
                                                              laws.yc_sq(Y))
                errors.append([abs(got - ref) / abs(ref) * 100.0 for got, ref in (
                    (n * omega_bar_sq / s_bar, gamma_ref), (s_bar, s_ref), (omega_bar_sq, omega_ref))])
            expected = [p.epsilon, p.eta]
            for column in np.array(errors).T:
                expected += [float(column.mean()), float(column.std(ddof=1))]
            assert tuple(row) == tuple(expected), (Y.shape, p)


def test_sweep_makes_one_generator(data_dir, monkeypatch):
    """A 5 x 2 grid at 4 replications makes one generator, from the master seed, for the whole
    grid: not one per cell or per trial."""
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    cfg = SweepConfig(epsilons=(0.5, 1.0, 2.0, 4.0, 8.0), replications=4, eta_values=(0.3, 0.5),
                      delta=0.01, nu=0.5, master_seed=3)
    run_sweep(cfg, load_csv(data_dir / "x.csv"), load_csv(data_dir / "y.csv"))
    assert made == [(3,)]


def test_releases_draw_from_sfc64_through_one_owner(data_dir, monkeypatch):
    """Alice's package makes two generators, one per release seed, both SFC64 from
    privacy._release_rng and none from default_rng; the sweep, which draws no secret
    noise, makes none through _release_rng."""
    made, defaults = [], []
    release_rng, default_rng = privacy._release_rng, np.random.default_rng

    def counting(seed):
        rng = release_rng(seed)
        made.append((seed, rng))
        return rng

    def counting_default(*args, **kwargs):
        defaults.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(privacy, "_release_rng", counting)
    monkeypatch.setattr(np.random, "default_rng", counting_default)
    X, Y = load_csv(data_dir / "x.csv"), load_csv(data_dir / "y.csv")
    pkg = alice_stream(X, PrivacyParams(10.0, 0.01, 0.5, 0.5), 3)
    for _ in pkg.proj_B.panels():
        pass
    assert sorted(seed for seed, _ in made) == sorted(_release_seeds(3))
    assert all(type(rng.bit_generator) is np.random.SFC64 for _, rng in made)
    assert defaults == []
    made.clear()
    cfg = SweepConfig(epsilons=(1.0, 8.0), replications=4, eta_values=(0.5,), delta=0.01, nu=0.5)
    run_sweep(cfg, X, Y)
    assert made == [] and len(defaults) == 1


@pytest.mark.parametrize("value", [0.5, 0.1])
def test_sweep_counts_its_degenerate_trials(value, tmp_path, capsys):
    """A trial whose s_bar is 0 is counted: X is constant, so its centred spectrum is 0, and at
    epsilon = 1e300 w^2 underflows to 0, so sx = 0, as in a package.  0.1 has no exact mean:
    centring must subtract the first row before the mean to make its columns exact zeros."""
    _, Y = synthetic_pair(n=20, d=2, m=2, dependence=0.0, seed=3)
    X = np.full((20, 2), value)
    p = PrivacyParams(1e300, 0.01, 0.5, 0.5)
    w = jl_params(p.half_budget()).w
    assert w > 0.0 and w * w == 0.0
    assert bob_evaluate(alice_stream(X, p, 0), Y).degenerate
    cfg = SweepConfig(epsilons=(100.0, 1e300), replications=3, eta_values=(0.5,),
                      delta=0.01, nu=0.5)
    rows = run_sweep(cfg, X, Y)
    assert rows.degenerate_trials == 3  # the floor keeps sx > 0 at epsilon = 100
    assert math.isnan(rows[1].mean_rel_err_gamma)
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--input-x", str(tmp_path / "x.csv"), "--input-y", str(tmp_path / "y.csv"),
                 "--epsilons", "100,1e300", "--etas", "0.5", "--replications", "3",
                 "--delta", "0.01", "--nu", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote sweep table: {out} (2 rows; 3 of 6 trials had s_bar <= 0)\n"


@pytest.mark.parametrize("epsilons, message", [
    ((100.0,), "the data's scale is too large for a finite test statistic: omega_sq = inf, s = inf"),
    ((1e-160, 100.0), "the budget is too small for a finite release: sx, the centred sum of "
                      "squares of X's release, overflows"),
])
def test_sweep_refuses_its_first_bad_trial_without_a_numpy_warning(epsilons, message, data_dir):
    """With Y at 1e153, w^2 Y^T Y overflows, so omega_bar_sq is not finite; at epsilon = 1e-160
    w^2 overflows, so sx is not finite, and that cell comes first."""
    cfg = SweepConfig(epsilons=epsilons, replications=2, eta_values=(0.5,), delta=0.01, nu=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            run_sweep(cfg, load_csv(data_dir / "x.csv"), 1e153 * load_csv(data_dir / "y.csv"))


@pytest.mark.parametrize("case, error, message", [
    ("rows", ShapeError, "X and Y must have the same sample count, got 20 and 19"),
    ("nan", InvalidInputError, "Y contains non-finite entries"),
    ("one row", InsufficientSamplesError, "X has 1 sample"),
    ("w2 overflows", InvalidInputError, "the budget is too small for a finite release: sx, the "
                                        "centred sum of squares of X's release, overflows"),
])
def test_sweep_refuses_what_a_package_would_refuse(case, error, message, data_dir, tmp_path,
                                                    capsys):
    X = load_csv(data_dir / "x.csv")
    Y = load_csv(data_dir / "y.csv")
    epsilon = 100.0
    if case == "rows":
        Y = Y[:-1]
    elif case == "nan":
        Y[3, 1] = math.nan
    elif case == "one row":
        X, Y = X[:1], Y[:1]
    else:
        epsilon = 1e-160  # w ~ 6e163 is finite, w^2 is not
    cfg = SweepConfig(epsilons=(epsilon,), replications=2, eta_values=(0.5,), delta=0.01, nu=0.5)
    with pytest.raises(error, match=re.escape(message)):
        run_sweep(cfg, X, Y)
    if case == "nan":
        return  # a CSV file cannot hold a NaN
    save_csv(tmp_path / "x.csv", X)
    save_csv(tmp_path / "y.csv", Y)
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main(["sweep", "--input-x", str(tmp_path / "x.csv"), "--input-y", str(tmp_path / "y.csv"),
                 "--epsilons", repr(epsilon), "--etas", "0.5", "--replications", "2",
                 "--delta", "0.01", "--nu", "0.5", "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_single_replication_has_zero_sd(data_dir):
    X = load_csv(data_dir / "x.csv")
    Y = load_csv(data_dir / "y.csv")
    cfg = SweepConfig(epsilons=(100.0,), replications=1, eta_values=(0.5,),
                      delta=0.01, nu=0.5)
    (row,) = run_sweep(cfg, X, Y)
    assert row.sd_gamma == 0.0 and row.sd_s == 0.0 and row.sd_omega == 0.0


def test_sweep_config_validation():
    from pitest.errors import InvalidInputError

    with pytest.raises(InvalidInputError):
        SweepConfig(epsilons=())
    with pytest.raises(InvalidInputError):
        SweepConfig(epsilons=(2.0, 1.0))
    with pytest.raises(InvalidInputError):
        SweepConfig(epsilons=(1.0,), replications=0)
    with pytest.raises(InvalidInputError, match="master_seed must be >= 0"):
        SweepConfig(epsilons=(1.0,), master_seed=-1)
    with pytest.raises(InvalidInputError, match="eta must lie in"):
        SweepConfig(epsilons=(1.0,), eta_values=(1.5,))
    with pytest.raises(InvalidInputError, match="epsilon must be a finite number"):
        SweepConfig(epsilons=(1.0, math.inf))


@pytest.mark.parametrize("grid, message", [
    ({"epsilons": None}, "epsilons must be a non-empty sequence of numbers, got None"),
    ({"eta_values": None}, "eta_values must be a non-empty sequence of numbers, got None"),
    ({"epsilons": "12"}, "epsilons must be a non-empty sequence of numbers, got '12'"),
    ({"epsilons": {1.0}}, "epsilons must be a non-empty sequence of numbers, got {1.0}"),
    ({"eta_values": ()}, "eta_values must be a non-empty sequence of numbers, got ()"),
    ({"epsilons": (1.0, "2")}, "each of epsilons must be a finite number, got '2'"),
    ({"eta_values": [0.5, True]}, "each of eta_values must be a finite number, got True"),
])
def test_sweep_config_grids_are_non_empty_sequences_of_numbers(grid, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        SweepConfig(**{"epsilons": (1.0,), **grid})


@pytest.mark.parametrize("field, value", [("replications", 1.5), ("replications", True),
                                          ("master_seed", 0.5), ("master_seed", "3")])
def test_sweep_config_rejects_a_non_integer_count_or_seed(field, value):
    from pitest.errors import InvalidInputError

    with pytest.raises(InvalidInputError, match=f"{field} must be an integer, got {value!r}"):
        SweepConfig(epsilons=(1.0,), **{field: value})
    assert SweepConfig(epsilons=(1.0,), **{field: np.int64(2)}).cells  # numpy integers are integers


# ----------------------------------------------------------------- CSV files


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    M = np.array([[1.5, -2.0], [0.125, 3e8]])
    save_csv(path, M)
    assert np.array_equal(load_csv(path), M)


def test_save_csv_writes_the_repr_of_every_float(tmp_path):
    """The text is ``repr(float(v))`` per value, so -0.0, subnormals, the largest magnitudes and
    integer-valued floats are written as before and read back bit for bit."""
    M = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072014e-309],
                  [1e308, -1e308, 1.7976931348623157e308, 3.0],
                  [-2.0, 1e16, 0.1, 1 / 3]])
    for A in (M, M[:, 0]):
        path = tmp_path / "m.csv"
        save_csv(path, A)
        rows = A[:, None] if A.ndim == 1 else A
        assert path.read_text() == "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        assert load_csv(path).tobytes() == rows.tobytes()


def test_load_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    assert np.array_equal(load_csv(path, has_header=True), [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(CsvParseError, match="line 2: expected 2 columns, got 3"):
        load_csv(path)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvParseError, match="line 2, column 2: not a number"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n")
    with pytest.raises(CsvParseError, match="non-finite"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(CsvParseError, match="no data rows"):
        load_csv(path)


def _undecodable_in_locale() -> str:
    """The locale's text encoding, for tests of a byte it cannot decode (0xe9, as in Latin-1 'é')."""
    encoding = locale.getpreferredencoding(False)
    try:
        b"\xe9".decode(encoding)
    except UnicodeDecodeError:
        return codecs.lookup(encoding).name
    pytest.skip(f"0xe9 is text in the locale's encoding {encoding}")


@pytest.mark.parametrize("has_header", [False, True])
def test_load_csv_names_the_first_byte_that_is_not_text(tmp_path, has_header):
    encoding = _undecodable_in_locale()
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n3,4\xe9\n" if has_header else b"1,2\n3,4\xe9\n")
    offset = 11 if has_header else 7
    with pytest.raises(CsvParseError) as got:
        load_csv(path, has_header=has_header)
    assert str(got.value) == f"{path}: byte 0xe9 at offset {offset} is not {encoding} text"


@pytest.mark.parametrize("role", ["alice", "bob"])
def test_a_csv_that_is_not_text_is_an_error(role, data_dir, tmp_path, capsys):
    """A CSV file holding a byte that is not text ends the call with exit 1 and one error line."""
    encoding = _undecodable_in_locale()
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.5,2\n3,4\xe9\n" + b"5,6\n" * 18)
    out = tmp_path / ("pkg.bin" if role == "alice" else "report.json")
    if role == "alice":
        argv = ["alice", "--input", str(bad), *ALICE_ARGS, "--out", str(out)]
    else:
        package = tmp_path / "pkg.bin"
        assert main(["alice", "--input", str(data_dir / "x.csv"), *ALICE_ARGS, "--seed", "2",
                     "--out", str(package)]) == 0
        capsys.readouterr()
        argv = ["bob", "--package", str(package), "--input", str(bad), "--report", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: byte 0xe9 at offset 9 is not {encoding} text\n"
    assert not out.exists()


# name, file bytes, has_header: load_csv and the cell by cell oracle accept
# or refuse each alike, with the same values or the same message.
CSV_EDGE_CASES = [
    ("plain", b"1,2\n3,4\n", False),
    ("spaces", b" 1 , 2\n3 ,4 \n", False),
    ("tabs and form feeds", b"\t1,2\x0c\n3,\x0b4\n", False),
    ("no-break and em spaces", " 1,2\u2003\n3,4\n".encode(), False),
    ("signs", b"+1,-2\n-0,+4\n", False),
    ("bare points", b".5,5.\n-.5,+.5\n", False),
    ("exponents", b"1e3,2E-3\n-1.5e+2,3e0\n", False),
    ("extreme exponents", b"1e-400,4.9e-324\n1.7976931348623157e308,2.2250738585072014e-308\n", False),
    ("leading zeros and long mantissa", b"007,0.1000000000000000055511151231257827\n", False),
    ("quoted cells", b'"1.5",2\n3,"4" \n', False),
    ("quoted line break", b'"1\n",2\n3,4\n', False),
    ("crlf", b"1,2\r\n3,4\r\n", False),
    ("lone cr", b"1,2\r3,4\r", False),
    ("no final newline", b"1,2\n3,4", False),
    ("blank lines", b"\n1,2\n\n3,4\n\n", False),
    ("one column", b"1\n2\n3\n", False),
    ("one row", b"1,2,3\n", False),
    ("header", b"a,b\n1,2\n3,4\n", True),
    ("blank header line", b"\n1,2\n", True),
    ("ragged header", b"a,b,c\n1,2\n", True),
    ("whitespace-only line", b"1,2\n   \n3,4\n", False),
    ("whitespace-only line after header", b"a,b\n   \n3,4\n", True),
    ("trailing commas", b"1,2,\n3,4,\n", False),
    ("empty cell", b"1,,2\n3,4,5\n", False),
    ("empty quoted cell", b'"",1\n', False),
    ("bom", b"\xef\xbb\xbf1,2\n3,4\n", False),
    ("ragged rows", b"1,2\n3,4,5\n", False),
    ("nan", b"1,nan\n3,4\n", False),
    ("signed inf", b"1,2\n-inf,4\n", False),
    ("infinity", b"1,2\nInfinity,4\n", False),
    ("overflow to inf", b"1e400,2\n", False),
    ("non-number", b"1,2\n3,oops\n", False),
    ("hex", b"0x10,2\n", False),
    ("comment line", b"# note\n1,2\n", False),
    ("semicolons", b"1;2\n", False),
    ("quote inside a cell", b'1"2",3\n', False),
    ("delimiter inside quotes", b'"1,5",2\n', False),
    ("unicode minus", "\u22121,2\n".encode(), False),
    ("nul", b"1\x00,2\n", False),
    ("empty file", b"", False),
    ("header only", b"a,b\n", True),
    ("header, no header flag", b"a,b\n1,2\n", False),
]


@pytest.mark.parametrize("name, text, has_header", CSV_EDGE_CASES, ids=[c[0] for c in CSV_EDGE_CASES])
def test_load_csv_matches_the_cellwise_loader(tmp_path, name, text, has_header):
    """numpy's reader accepts, reads and refuses as the cell by cell loader it replaced."""
    path = tmp_path / "edge.csv"
    path.write_bytes(text)
    try:
        expected = load_csv_cellwise(path, has_header=has_header)
    except CsvParseError as exc:
        with pytest.raises(CsvParseError) as got:
            load_csv(path, has_header=has_header)
        assert str(got.value) == str(exc)
    else:
        A = load_csv(path, has_header=has_header)
        assert A.dtype == np.float64 and A.shape == expected.shape
        assert A.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, has_header, cell", [
    (b"1_000,2\n", False, "1_000"),
    ("\u0661,2\n".encode(), False, "\u0661"),
    ("\uff11,2\n".encode(), False, "\uff11"),
    (b'"a\nb",c\n1,2\n', True, "'b\"'"),  # numpy skips one line, not one record
], ids=["underscore", "arabic-indic digit", "fullwidth digit", "two-line header"])
def test_load_csv_refuses_what_only_python_float_reads(tmp_path, text, has_header, cell):
    """Cells numpy's float syntax refuses: now refused, with numpy's message."""
    path = tmp_path / "py.csv"
    path.write_bytes(text)
    assert load_csv_cellwise(path, has_header=has_header).size
    with pytest.raises(CsvParseError) as got:
        load_csv(path, has_header=has_header)
    assert str(got.value).startswith(f"{path}: could not convert string ")
    assert cell in str(got.value)


def test_saved_csv_reads_back_bit_for_bit(tmp_path):
    """Files that save_csv writes, the benchmark's among them, read to the oracle's float64 bits."""
    rng = np.random.default_rng(5)
    mantissa = rng.standard_normal((300, 3))
    M = np.ldexp(mantissa, rng.integers(-1070, 1020, size=mantissa.shape))
    M[:4, 0] = [0.0, -0.0, 5e-324, np.finfo(float).max]
    X, _ = synthetic_pair(n=200, d=2, m=2, dependence=0.3, x_scale=3e4, seed=7)
    for i, A in enumerate((M, X)):
        path = tmp_path / f"m{i}.csv"
        save_csv(path, A)
        assert load_csv(path).tobytes() == load_csv_cellwise(path).tobytes() == A.tobytes()


@pytest.mark.parametrize("kwargs, digest", [
    (dict(n=200, d=2, m=2, dependence=0.3, x_scale=3e4, seed=7),
     "a29f6c13b8413e67ef2e9d8a87ac95e2fa976903d45e9030e65d7b153e7e6c93"),
    (dict(n=15, d=3, m=2, dependence=0.4, clusters=4, seed=8),
     "95fcdab6e3882fa7c1f323f20db6ba5990ce327c9585f0f5ad22df0d8b62df37"),
    (dict(n=np.int64(12), d=np.int32(2), m=1, dependence=1, seed=2),
     "47d2cfc1a060060ed2489ee94d86f38ea45b4ad31795806e91963a5b73d713e8"),
])
def test_synthetic_pair_draws_are_pinned(kwargs, digest):
    """Valid arguments keep their draws: the benchmark's data comes from this function."""
    X, Y = synthetic_pair(**kwargs)
    assert hashlib.sha256(X.tobytes() + Y.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kwargs", [
    dict(n=2.5), dict(n=20.0), dict(n=20, d=True), dict(n=20, d=2.0), dict(n=20, m=np.float64(2.0)),
    dict(n=20, clusters=1.5), dict(n=20, dependence=True), dict(n=20, dependence="0.5"),
    dict(n=20, dependence=None),
])
def test_synthetic_pair_refuses_non_integer_shapes_and_non_numeric_dependence(kwargs):
    with pytest.raises(InvalidInputError):
        synthetic_pair(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(x_scale=float("nan")), "x_scale must be a finite number"),
    (dict(x_scale=-np.inf), "x_scale must be a finite number"),
    (dict(x_scale=True), "x_scale must be a finite number"),
    (dict(x_scale="3"), "x_scale must be a finite number"),
    (dict(seed=-1), "seed must be a nonnegative integer"),
    (dict(seed=1.5), "seed must be an integer"),
    (dict(seed=2.0), "seed must be an integer"),
    (dict(seed=False), "seed must be an integer"),
    (dict(seed=None), "seed must be an integer"),
])
def test_synthetic_pair_refuses_a_non_finite_scale_and_a_bad_seed(kwargs, message):
    with pytest.raises(InvalidInputError, match=message):
        synthetic_pair(20, **kwargs)
    assert synthetic_pair(20, x_scale=np.float32(2), seed=np.uint8(3))[0].shape == (20, 2)


def test_synthetic_pair_shapes_and_determinism():
    X1, Y1 = synthetic_pair(n=15, d=3, m=2, dependence=0.4, seed=8)
    X2, Y2 = synthetic_pair(n=15, d=3, m=2, dependence=0.4, seed=8)
    assert X1.shape == (15, 3) and Y1.shape == (15, 2)
    assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
