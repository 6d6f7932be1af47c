"""Atomic writes: the parts land in order as the whole file, or the target is left as it was."""

import errno
import os

import pytest

from pitest import ioutil
from pitest.ioutil import atomic_write_bytes, atomic_write_text

PREVIOUS = b"previous package\n\x00\x01"
NEW = (b"new header\n", memoryview(b"new payload"))
NEW_CONTENT = b"new header\nnew payload"
NEW_SIZE = len(NEW_CONTENT)


def _assert_only(directory, target, content):
    assert target.read_bytes() == content
    assert list(directory.iterdir()) == [target]  # no temporary file left behind


def test_parts_are_written_in_order(tmp_path):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    atomic_write_bytes(target, [b"head\n", memoryview(b"payload"), bytearray(b"!")], 13)
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
        atomic_write_bytes(target, NEW, NEW_SIZE)
    _assert_only(tmp_path, target, PREVIOUS)


def test_a_failing_replace_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)

    def refuse(src, dst):
        raise OSError(errno.EACCES, "replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_bytes(target, NEW, NEW_SIZE)
    _assert_only(tmp_path, target, PREVIOUS)


class _Parts:
    """The parts of a package, counting how many were asked for."""

    def __init__(self, *parts):
        self.parts = parts
        self.taken = 0

    def __iter__(self):
        for part in self.parts:
            self.taken += 1
            yield part


def test_the_temporary_file_is_preallocated_before_the_first_part(tmp_path, monkeypatch):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    parts = _Parts(*NEW)
    calls = []

    def spy(fd, offset, length):
        calls.append((offset, length, parts.taken))

    monkeypatch.setattr(os, "posix_fallocate", spy, raising=False)
    assert atomic_write_bytes(target, parts, NEW_SIZE) == NEW_SIZE
    assert calls == [(0, NEW_SIZE, 0)]
    _assert_only(tmp_path, target, NEW_CONTENT)


@pytest.mark.parametrize("answer", [None, errno.EOPNOTSUPP, errno.EINVAL])
def test_a_file_system_that_cannot_preallocate_is_written_as_it_comes(answer, tmp_path, monkeypatch):
    """No call to preallocate with (macOS), or a file system that refuses it."""
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    if answer is None:
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        def refuse(fd, offset, length):
            raise OSError(answer, os.strerror(answer))

        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
    assert atomic_write_bytes(target, _Parts(*NEW), NEW_SIZE) == NEW_SIZE
    _assert_only(tmp_path, target, NEW_CONTENT)


@pytest.mark.parametrize("answer", [errno.ENOSPC, errno.EFBIG])
def test_a_failed_preallocation_consumes_no_part_and_keeps_the_target(answer, tmp_path, monkeypatch):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)

    def refuse(fd, offset, length):
        raise OSError(answer, os.strerror(answer))

    monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
    parts = _Parts(*NEW)
    with pytest.raises(OSError) as raised:
        atomic_write_bytes(target, parts, NEW_SIZE)
    assert raised.value.errno == answer
    assert parts.taken == 0
    _assert_only(tmp_path, target, PREVIOUS)


@pytest.mark.parametrize("size", [NEW_SIZE - 1, NEW_SIZE + 1])
def test_parts_of_another_total_than_the_size_keep_the_target(size, tmp_path):
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    with pytest.raises(OSError, match=f"wrote {NEW_SIZE} bytes for .*, expected {size}"):
        atomic_write_bytes(target, _Parts(*NEW), size)
    _assert_only(tmp_path, target, PREVIOUS)


def test_an_empty_text_replaces_the_target(tmp_path):
    """Through the real call: size 0 is answered EINVAL, and the empty file is written as it comes."""
    target = tmp_path / "pkg.bin"
    target.write_bytes(PREVIOUS)
    atomic_write_text(target, "")
    _assert_only(tmp_path, target, b"")


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="no os.posix_fallocate (macOS)")
def test_fallocate_reserves_the_length(tmp_path):
    with open(tmp_path / "f.bin", "wb") as handle:
        ioutil._preallocate(handle.fileno(), 1 << 20)
        assert os.fstat(handle.fileno()).st_size == 1 << 20
