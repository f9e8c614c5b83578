"""Exception types shared across the package, and the writer of whole files.

The CLI maps these onto process exit codes (config 2, data 3, checkpoint 4,
write 5).
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class DataError(Exception):
    """Malformed input data: items, interactions, vocabulary files."""


class CatalogError(DataError):
    """An item id was referenced that the catalog does not contain."""


class NonFiniteLossError(DataError):
    """Training met a NaN or infinite batch loss or gradient norm, before it reached the weights."""


class CheckpointError(Exception):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class WriteError(Exception):
    """An output could not be written; its file keeps its old bytes, or stays absent."""


def write_whole(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all.

    The bytes go to a temporary file beside the target, which then replaces
    it; on any failure the temporary file is removed and the target is left
    as it was. A link's file is replaced, not the link. A target that exists
    and is not a regular file, such as a device or a pipe, is written in
    place. An OSError becomes a WriteError naming `path`.
    """
    target = os.path.realpath(path)
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "wb") as fh:
                fh.write(data)
            return
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise WriteError(f"cannot write {path}: {e.strerror or e}") from None
