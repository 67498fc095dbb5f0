"""Atomic file replacement: write beside the target, then ``os.replace``."""

from __future__ import annotations

import os
from pathlib import Path


def temp_beside(path: Path) -> Path:
    """Unused hidden name in ``path``'s directory for a file that replaces
    ``path`` once complete. Opened with mode ``"x"`` it gets the permissions
    a plain write of ``path`` would (``mkstemp`` would force 0600)."""
    return path.with_name(f".{path.name}-{os.urandom(8).hex()}.tmp")


def write_atomic(path: Path, *parts: str | bytes) -> None:
    """Write ``parts``, all text (UTF-8, ``\\n`` line ends) or all bytes, in
    turn to ``path`` through a temp file beside it, so a failed write leaves
    an earlier file at ``path`` as it was and no temp file."""
    tmp = temp_beside(path)
    text = bool(parts) and isinstance(parts[0], str)
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") if text else open(tmp, "xb") as f:
            f.writelines(parts)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
