"""The one durable writer: tmp + fsync + rename.

Every file the project must never leave half-written -- CDC checkpoints
and registry schema versions -- goes through
:func:`atomic_write`.  The bytes land in ``<path>.tmp``, are fsynced, and
only then renamed over *path*, so a reader sees either the previous file
or the new one, never a torn mix.  A crash before the rename leaves only
the ``.tmp`` sibling, which every reader ignores.  The parent directory is
fsynced after the rename: until then the rename itself may not survive a
power loss, and an acknowledged write could vanish.
"""

from __future__ import annotations

import os

from . import faults

__all__ = ["atomic_write"]


def atomic_write(path: str, data: bytes, site: str, **context) -> None:
    """Durably replace *path* with *data*.

    ``faults.fault_point(site, phase="rename", **context)`` fires between
    the fsync and the rename -- the one instant a crash leaves both the
    old file and the new ``.tmp`` on disk.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fp:
        fp.write(data)
        fp.flush()
        os.fsync(fp.fileno())
    faults.fault_point(site, phase="rename", **context)
    os.replace(tmp, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
