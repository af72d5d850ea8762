"""Atomic file replacement for every artifact the package writes."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """Temporary path next to ``path`` that replaces ``path`` when the block ends.

    If the block raises, ``path`` keeps its previous contents and the
    temporary file is removed, so a crash never leaves a truncated artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
