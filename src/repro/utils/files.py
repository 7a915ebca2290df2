"""File-writing helpers shared by the model and topology checkpoints."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Union

import numpy as np

__all__ = ["savez_atomic"]


def savez_atomic(path: Union[str, Path], **arrays: Any) -> None:
    """``np.savez`` onto exactly ``path``, all or nothing.

    Members are stored: deflate was 3/4 of a checkpoint's save time for
    a 2x smaller file. savez appends ``.npz`` to a file *name* but not to
    an open handle, so the archive is written through a handle on a
    sibling ``<name>.tmp`` and renamed over ``path``: a save that fails
    part-way removes the temp file and leaves whatever was at ``path``
    before untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
