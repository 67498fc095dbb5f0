"""Text files: the float spelling of every CSV, and atomic replacement."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def format_float(v) -> str:
    """``v`` as every CSV writes it: the shortest text with the same bits."""
    return repr(float(v))


@contextlib.contextmanager
def replacing(*paths: Path, binary: bool = False):
    """Yield a list of new files, one beside each of ``paths`` under an
    unused hidden name, and once the block has run without error move each
    over its path, in order. Whatever fails leaves the paths not yet
    replaced as they were, and no temp file. Text is UTF-8 with ``\\n``
    line ends. Opened with mode ``"x"``, a file gets the permissions a
    plain write of its path would (``mkstemp`` would force 0600)."""
    temps = [path.with_name(f".{path.name}-{os.urandom(8).hex()}.tmp") for path in paths]
    try:
        with contextlib.ExitStack() as files:
            yield [files.enter_context(open(tmp, "xb") if binary else
                                       open(tmp, "x", encoding="utf-8", newline="\n"))
                   for tmp in temps]
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def write_atomic(path: Path, *parts: str | bytes) -> None:
    """Write ``parts``, all text or all bytes, in turn to ``path`` through
    ``replacing``: a failed write leaves ``path`` as it was."""
    with replacing(path, binary=not (parts and isinstance(parts[0], str))) as (f,):
        f.writelines(parts)
