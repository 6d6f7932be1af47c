"""Atomic file writes: tempfile in the target directory, then rename."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path, parts: Iterable) -> int:
    """Write the bytes-like ``parts``, in order, as the whole content of ``path``.

    ``parts`` is consumed lazily: each part is written before the next is
    asked for, so an iterator may hand out one reused buffer again and
    again.  They go to a temporary file in the target's directory, which
    then replaces the target; on any failure, the iterator's own errors
    included, the temporary file is removed and the target is left as it
    was.  Returns the number of bytes written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    written = 0
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                written += handle.write(part)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return written


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])
