"""Atomic file output: write to a sibling temp file, then rename into place."""

import os


def atomic_write_text(path: str, text: str):
    """Write text to path through a temp file; if the write or the rename
    fails, remove the temp file and re-raise.  An OSError is raised again
    as one of the same class and errno that names path, not the temp file,
    so an error message shows the file the caller asked for."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
