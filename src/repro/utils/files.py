"""Atomic archive writes, and what reading a corrupt archive raises."""

from __future__ import annotations

import os
import tempfile
import zipfile
import zlib

import numpy as np

#: What a corrupt archive makes zipfile, zlib, the ``.npy`` header parser
#: and a JSON member raise (``NotImplementedError`` for flag bits or a zip
#: version zipfile does not support is a ``RuntimeError``).  The loaders
#: catch exactly this and raise their own error naming the path.
ARCHIVE_ERRORS = (OSError, EOFError, KeyError, ValueError, RuntimeError,
                  TypeError, zipfile.BadZipFile, zlib.error)


def savez_atomic(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` as one ``.npz``-format archive at exactly ``path``.

    The archive is staged through a temp file in the destination directory
    (same filesystem, so the final ``os.replace`` is a rename): readers see
    the previous file or the complete new one, never a half-written one,
    and a failed write leaves the previous file and no temp file behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".", suffix=".tmp")
    try:
        # Through a file handle: given a path, NumPy appends ".npz" to any
        # other suffix.
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        # mkstemp creates 0600; widen to the umask-respecting default so
        # the staged rename does not silently tighten permissions
        # (shared-cluster runs read each other's files).
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
