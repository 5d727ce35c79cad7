"""Atomic artifact writes: a reader sees the old file or the new one, never
a partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` for writing.  When the block ends
    cleanly the file replaces `path` in one `os.replace`; when it raises the
    temporary file is removed and `path` is left as it was."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
