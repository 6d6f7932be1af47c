"""Atomic file writes: tempfile in the target directory, then rename."""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path
from typing import Iterable

__all__ = ["atomic_write_bytes", "atomic_write_text"]

# Answers of a file system that cannot preallocate: the file is written as it comes.
_NO_PREALLOCATION = (errno.EOPNOTSUPP, errno.EINVAL)


def _preallocate(fd: int, size: int) -> None:
    """Reserve ``size`` bytes of blocks for the file ``fd``, where the platform and file system can.

    A file whose blocks are allocated before it is written holds no
    delayed-allocation blocks, so renaming it over an existing file (ext4's
    ``auto_da_alloc``) does not flush it.  ``os.posix_fallocate`` is missing
    on macOS; where the C library passes on a file system's refusal
    (EOPNOTSUPP, or EINVAL, which size 0 also gets), the file is written as
    it comes.  glibc does not pass on EOPNOTSUPP: it writes one byte into
    every block instead.  Any other failure, a full disk (ENOSPC) or a size
    over the file system's limit (EFBIG), is raised.
    """
    if not hasattr(os, "posix_fallocate"):
        return
    try:
        os.posix_fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in _NO_PREALLOCATION:
            raise


def atomic_write_bytes(path, parts: Iterable, size: int) -> int:
    """Write the bytes-like ``parts``, in order, as the whole content of ``path``.

    ``parts`` is consumed lazily: each part is written before the next is
    asked for, so an iterator may hand out one reused buffer again and
    again.  They go to a temporary file in the target's directory, which
    then replaces the target; on any failure, the iterator's own errors
    included, the temporary file is removed and the target is left as it
    was.  Returns the number of bytes written.

    ``size`` is the parts' total length.  The temporary file is
    preallocated at that length before the first part is asked for, so a
    full disk fails before any part is produced, and a total other than
    ``size`` raises OSError.

    The write is atomic against this process's failures, not durable
    across a power loss: nothing is ``fsync``-ed.  Preallocating gives up
    the old-or-new outcome that ext4 (``data=ordered``, ``auto_da_alloc``)
    gave in practice when a target was replaced: the rename then forced
    the new file's blocks to be allocated and written before the journal
    could commit it.  A preallocated file's rename commits without its
    data, so after a crash of the machine a just-replaced target may have
    lost the old content and read as zeros at the new length.  A first
    write to a fresh path had no such guarantee before either.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    written = 0
    try:
        with os.fdopen(fd, "wb") as handle:
            _preallocate(fd, size)
            for part in parts:
                written += handle.write(part)
        if written != size:
            raise OSError(f"wrote {written} bytes for {target}, expected {size}")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return written


def atomic_write_text(path, text: str) -> None:
    data = text.encode("utf-8")
    atomic_write_bytes(path, [data], len(data))
