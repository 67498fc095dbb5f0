"""Atomic file replacement: write beside the target, then ``os.replace``."""

from __future__ import annotations

import os
from pathlib import Path


def temp_beside(path: Path) -> Path:
    """Unused hidden name in ``path``'s directory for a file that replaces
    ``path`` once complete. Opened with mode ``"x"`` it gets the permissions
    a plain write of ``path`` would (``mkstemp`` would force 0600)."""
    return path.with_name(f".{path.name}-{os.urandom(8).hex()}.tmp")
