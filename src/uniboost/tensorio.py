"""Binary tensor files and checkpoint directories.

A ``.ubtn`` file holds one tensor:

    bytes 0-3   magic ``UBTN``
    byte  4     dtype code (2 = float64)
    byte  5     rank
    bytes 6-7   zero padding
    then        rank little-endian uint32 dims
    then        float64 little-endian values, row-major

Values are stored at the engine's float64, so loading returns exactly what
was saved.

A checkpoint is a directory: ``manifest.tsv`` (name and comma-joined dims
per line, sorted by name), ``params.ubtn`` (one rank-1 tensor of every
parameter's values, row-major, in manifest order) and the caller's files,
such as ``config.txt``. It is whole or absent: a save writes all of them
into a sibling temporary directory and then swaps it into place, so a save
that stops partway leaves the previous checkpoint, with its own files, or
none. Every file and the temporary directory are fsynced before the swap,
and the parent directory after it, so a crash or power loss after a save
returns cannot leave a renamed directory over unwritten files.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_tensor", "load_tensor", "save_checkpoint", "load_checkpoint",
           "TensorFormatError"]

MAGIC = b"UBTN"
DTYPE_F64 = 2
PAYLOAD = "params.ubtn"


class TensorFormatError(ValueError):
    """Malformed or unsupported tensor file."""


def save_tensor(path: str | Path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim > 255:
        raise TensorFormatError(f"rank {arr.ndim} exceeds format limit")
    header = MAGIC + struct.pack("<BBxx", DTYPE_F64, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    Path(path).write_bytes(header + dims + arr.tobytes(order="C"))


def load_tensor(path: str | Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except IsADirectoryError:
        raise TensorFormatError(f"{path}: is a directory, not a tensor file") from None
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: missing UBTN magic")
    dtype_code, rank = struct.unpack_from("<BBxx", raw, 4)
    if dtype_code != DTYPE_F64:
        raise TensorFormatError(f"{path}: unsupported dtype code {dtype_code}")
    offset = 8
    need = offset + 4 * rank
    if len(raw) < need:
        raise TensorFormatError(f"{path}: truncated dim header")
    dims = struct.unpack_from(f"<{rank}I", raw, offset) if rank else ()
    offset = need
    count = math.prod(dims)  # Python ints: dims that multiply past int64 cannot wrap
    if len(raw) != offset + 8 * count:
        raise TensorFormatError(
            f"{path}: payload is {len(raw) - offset} bytes, expected {8 * count}")
    return np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(dims).copy()


def _fsync(path: Path) -> None:
    """Flush ``path``, a file or a directory, to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(dirpath: str | Path, named_values: dict[str, np.ndarray],
                    files: dict[str, str]) -> None:
    """Save ``named_values`` and ``files`` (file name -> text) as one checkpoint."""
    d = Path(dirpath)
    # Siblings that no load reads: the checkpoint being written, and the
    # previous one for the moment between the two renames.
    tmp = d.with_name(f".{d.name}.tmp{os.getpid()}")
    old = d.with_name(f".{d.name}.old{os.getpid()}")
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        values = {name: np.asarray(named_values[name]) for name in sorted(named_values)}
        manifest = "".join(f"{name}\t{','.join(map(str, arr.shape))}\n"
                           for name, arr in values.items())
        save_tensor(tmp / PAYLOAD, np.concatenate([np.zeros(0), *map(np.ravel, values.values())]))
        for name, text in {"manifest.tsv": manifest, **files}.items():
            (tmp / name).write_text(text, encoding="utf-8")
        for f in tmp.iterdir():
            _fsync(f)
        _fsync(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if d.exists():
        os.replace(d, old)
    os.replace(tmp, d)
    _fsync(d.parent)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(dirpath: str | Path) -> dict[str, np.ndarray]:
    d = Path(dirpath)
    manifest = d / "manifest.tsv"
    if not manifest.is_file():
        raise TensorFormatError(f"{dirpath}: no manifest.tsv")
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TensorFormatError(f"{manifest} is not UTF-8 text: {exc}") from None
    shapes: dict[str, tuple[int, ...]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TensorFormatError(
                f"{manifest}:{lineno}: expected 2 tab-separated fields, name and dims")
        name, dims_text = parts
        if name in shapes:
            raise TensorFormatError(f"{manifest}:{lineno}: parameter {name!r} repeats")
        dims = dims_text.split(",") if dims_text else []
        if not all(x.isdecimal() for x in dims):
            raise TensorFormatError(f"{manifest}:{lineno}: dims {dims_text!r} are not "
                                    f"comma-separated non-negative integers")
        shapes[name] = tuple(map(int, dims))
    flat = load_tensor(d / PAYLOAD)
    sizes = [math.prod(dims) for dims in shapes.values()]
    if flat.shape != (sum(sizes),):
        raise TensorFormatError(f"{d / PAYLOAD}: has shape {flat.shape}, the manifest's "
                                f"sizes add up to ({sum(sizes)},)")
    parts = np.split(flat, np.cumsum(sizes[:-1], dtype=np.int64))
    return {name: part.reshape(dims) for (name, dims), part in zip(shapes.items(), parts)}
