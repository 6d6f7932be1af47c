"""Atomic writes: the parts land in order as the whole file, or the target is left as it was."""

import errno
import os

import pytest

from pitest.ioutil import atomic_write_bytes

PREVIOUS = b"previous package\n\x00\x01"


def _assert_only(directory, target, content):
    assert target.read_bytes() == content
    assert list(directory.iterdir()) == [target]  # no temporary file left behind


def test_parts_are_written_in_order(tmp_path):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    atomic_write_bytes(target, [b"head\n", memoryview(b"payload"), bytearray(b"!")])
    _assert_only(tmp_path, target, b"head\npayload!")


class _FailsOnSecondWrite:
    """A file handle whose second write fails as a full disk would."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def test_a_write_failing_after_the_first_part_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FailsOnSecondWrite(fdopen(fd, mode)))
    with pytest.raises(OSError, match="No space left"):
        atomic_write_bytes(target, [b"new header\n", memoryview(b"new payload")])
    _assert_only(tmp_path, target, PREVIOUS)


def test_a_failing_replace_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)

    def refuse(src, dst):
        raise OSError(errno.EACCES, "replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_bytes(target, [b"new header\n", memoryview(b"new payload")])
    _assert_only(tmp_path, target, PREVIOUS)
