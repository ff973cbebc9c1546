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

A checkpoint is a directory of ``.ubtn`` payloads plus ``manifest.tsv``
(name, comma-joined dims, filename per line, sorted by name) and a
``config.txt`` echo of the run configuration. It is whole or absent: a save
writes a sibling temporary directory and then swaps it into place, so a
save that stops partway never leaves a manifest over a mix of payloads.
Every file and the temporary directory are fsynced before the swap, and
the parent directory after it, so a crash or power loss after a save
returns cannot leave a renamed directory over unwritten payloads.
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
                    config_text: str = "") -> None:
    d = Path(dirpath)
    # Siblings that no load reads: the checkpoint being written, and the
    # previous one for the moment between the two renames.
    tmp = d.with_name(f".{d.name}.tmp{os.getpid()}")
    old = d.with_name(f".{d.name}.old{os.getpid()}")
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        lines = []
        for i, name in enumerate(sorted(named_values)):
            fname = f"p{i:04d}.ubtn"
            arr = named_values[name]
            save_tensor(tmp / fname, arr)
            dims = ",".join(str(s) for s in np.asarray(arr).shape)
            lines.append(f"{name}\t{dims}\t{fname}")
        (tmp / "manifest.tsv").write_text("\n".join(lines) + "\n")
        (tmp / "config.txt").write_text(config_text)
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
    out: dict[str, np.ndarray] = {}
    owner: dict[str, str] = {}  # payload file name -> the parameter read from it
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TensorFormatError(f"{manifest}:{lineno}: expected 3 tab-separated fields")
        name, dims_text, fname = parts
        if name in out:
            raise TensorFormatError(f"{manifest}:{lineno}: parameter {name!r} repeats")
        if fname in ("", "..") or Path(fname).name != fname:
            raise TensorFormatError(
                f"{manifest}:{lineno}: payload {fname!r} is not a file name in {d}")
        if owner.setdefault(fname, name) != name:
            raise TensorFormatError(f"{manifest}:{lineno}: payload {fname!r} of {name!r} "
                                    f"is also the payload of {owner[fname]!r}")
        try:
            dims = tuple(int(x) for x in dims_text.split(",")) if dims_text else ()
        except ValueError:
            raise TensorFormatError(
                f"{manifest}:{lineno}: dims {dims_text!r} are not comma-separated "
                f"integers") from None
        arr = load_tensor(d / fname)
        if arr.shape != dims:
            raise TensorFormatError(
                f"{manifest}:{lineno}: {name} has shape {arr.shape}, manifest says {dims}")
        out[name] = arr
    return out
