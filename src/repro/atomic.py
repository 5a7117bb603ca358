"""Atomic file publication: a reader sees the old file or the new one.

Registry epochs, the recovery manifest, bounds certificates and cached
artifacts are all published through :func:`atomic_write`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union


def atomic_write(path: Union[str, os.PathLike], data: bytes) -> None:
    """Publish ``data`` at ``path``: write a uniquely named temporary
    file in the same directory (concurrent writers never share one),
    then rename it over ``path``. On any failure, the write or the
    rename, the temporary file is removed and the error re-raised.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
