"""``.npz`` round-trip kernels shared by every columnar persistence path.

One writer and one reader for the struct-of-arrays archives (trace
shards, cached traces, generated workloads).  The writer stores members
uncompressed so the reader can hand back zero-copy ``np.memmap`` views
straight into the archive -- ``np.load(..., mmap_mode=...)`` silently
ignores the mmap request for ``.npz``, so the reader walks the zip
layout by hand and maps each stored ``.npy`` member's byte range.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict, Union

import numpy as np

__all__ = ["save_npz_payload", "load_npz_members"]


def save_npz_payload(path: Union[str, Path], payload: Dict[str, np.ndarray]) -> None:
    """Write named arrays to an uncompressed ``.npz`` archive.

    Member order follows ``payload`` insertion order; callers that hash
    or diff archives rely on that being deterministic.
    """
    # A wide userspace buffer batches the zip member writes (header +
    # chunked array body per member) into few large syscalls.
    with open(path, "wb", buffering=1 << 22) as fh:
        np.savez(fh, **payload)


def load_npz_members(path: Union[str, Path], mmap_mode) -> Dict[str, np.ndarray]:
    """All members of an uncompressed ``.npz``, memory-mapped when possible.

    With a truthy ``mmap_mode`` each member comes back as a read-only
    ``np.memmap`` view into the archive (the zip local-file header gives
    the payload offset, the ``.npy`` header gives dtype/shape).  Any
    archive this cannot map (compressed members, unexpected layout)
    falls back to a whole-file eager load; ``mmap_mode=None`` forces
    the eager load, e.g. before deleting the file.
    """
    if not mmap_mode:
        return _load_eager(path)
    try:
        members: Dict[str, np.ndarray] = {}
        with zipfile.ZipFile(path) as archive, open(path, "rb") as fh:
            for info in archive.infolist():
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(f"{info.filename}: compressed member")
                fh.seek(info.header_offset)
                local = fh.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    raise ValueError(f"{info.filename}: bad local file header")
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                fh.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
                else:
                    raise ValueError(f"{info.filename}: npy format v{version}")
                if dtype.hasobject:
                    raise ValueError(f"{info.filename}: object dtype")
                name = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
                if np.prod(shape, dtype=np.int64) == 0:
                    # mmap cannot map zero bytes; an empty array is free.
                    members[name] = np.empty(shape, dtype=dtype)
                else:
                    members[name] = np.memmap(
                        path, dtype=dtype, mode=mmap_mode, offset=fh.tell(),
                        shape=shape, order="F" if fortran else "C",
                    )
        return members
    except (ValueError, KeyError, OSError, zipfile.BadZipFile):
        return _load_eager(path)


def _load_eager(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Every member read into memory.

    The handle is opened here, not by ``np.load``: ``np.load`` leaves
    its own handle open when the archive is not a readable zip.
    """
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False, mmap_mode=None) as data:
        return {name: data[name] for name in data.files}
