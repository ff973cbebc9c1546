"""Tensor file format, byte for byte, and checkpoint directories."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from uniboost import tensorio
from uniboost.tensorio import (TensorFormatError, load_checkpoint, load_tensor,
                               save_checkpoint, save_tensor)


def test_file_bytes_match_handcrafted_layout(tmp_path):
    values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "t.ubtn"
    save_tensor(path, values)

    want = b"UBTN"
    want += struct.pack("<BBxx", 2, 2)          # dtype code 2 (f64), rank 2
    want += struct.pack("<2I", 2, 3)            # dims, little-endian u32
    want += np.array([1, 2, 3, 4, 5, 6], dtype="<f8").tobytes()
    assert path.read_bytes() == want


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 4, 5))
    values[0, 0, :3] = [np.nextafter(1.0, 2.0), 5e-324, -0.0]  # no float32 holds these
    path = tmp_path / "t.ubtn"
    save_tensor(path, values)
    back = load_tensor(path)
    assert back.dtype == np.float64
    assert back.shape == (3, 4, 5)
    assert back.tobytes() == values.tobytes()


def test_scalar_and_empty_dim_round_trip(tmp_path):
    save_tensor(tmp_path / "s.ubtn", np.array(2.5))
    assert load_tensor(tmp_path / "s.ubtn") == np.array(2.5)
    save_tensor(tmp_path / "e.ubtn", np.zeros((0, 4)))
    assert load_tensor(tmp_path / "e.ubtn").shape == (0, 4)


def test_handcrafted_file_loads(tmp_path):
    raw = b"UBTN" + struct.pack("<BBxx", 2, 1) + struct.pack("<1I", 2)
    raw += np.array([7.0, -1.5], dtype="<f8").tobytes()
    path = tmp_path / "hand.ubtn"
    path.write_bytes(raw)
    assert np.array_equal(load_tensor(path), [7.0, -1.5])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ubtn"
    path.write_bytes(b"NBTU" + bytes(12))
    with pytest.raises(TensorFormatError, match="magic"):
        load_tensor(path)


def test_unsupported_dtype_rejected(tmp_path):
    # code 1 is a float32 payload, which this format no longer reads
    path = tmp_path / "bad.ubtn"
    path.write_bytes(b"UBTN" + struct.pack("<BBxx", 1, 0) + b"\0\0\0\0")
    with pytest.raises(TensorFormatError, match="unsupported dtype code 1"):
        load_tensor(path)


def test_truncated_files_rejected(tmp_path):
    path = tmp_path / "bad.ubtn"
    path.write_bytes(b"UBTN")
    with pytest.raises(TensorFormatError, match="magic"):
        load_tensor(path)
    path.write_bytes(b"UBTN" + struct.pack("<BBxx", 2, 2) + struct.pack("<1I", 2))
    with pytest.raises(TensorFormatError, match="truncated dim header"):
        load_tensor(path)


def test_payload_size_mismatch_rejected(tmp_path):
    raw = b"UBTN" + struct.pack("<BBxx", 2, 1) + struct.pack("<1I", 3)
    raw += np.array([1.0, 2.0], dtype="<f8").tobytes()  # 3 promised, 2 present
    path = tmp_path / "bad.ubtn"
    path.write_bytes(raw)
    with pytest.raises(TensorFormatError, match="payload is 16 bytes, expected 24$"):
        load_tensor(path)
    # dims whose product passes int64 must not wrap to a size that fits
    path.write_bytes(b"UBTN" + struct.pack("<BBxx", 2, 3) + struct.pack("<3I", 2**31, 2**31, 4))
    with pytest.raises(TensorFormatError,
                       match=f"payload is 0 bytes, expected {8 * 2**64}$"):
        load_tensor(path)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "encoder.blocks.0.qkv.weight": rng.standard_normal((8, 24)),
        "encoder.pos.table": rng.standard_normal((10, 8)),
        "head.bias": rng.standard_normal(4),
        "empty": np.zeros((0, 3)),
        "temperature": np.array(0.07),
    }
    named["head.bias"][:3] = [np.nextafter(1.0, 2.0), 5e-324, -0.0]  # no float32 holds these
    files = {"config.txt": "steps = 3\n", "losses.json": "[1.5]"}
    save_checkpoint(tmp_path / "ckpt", named, files)
    back = load_checkpoint(tmp_path / "ckpt")
    assert list(back) == sorted(named)
    for name, arr in named.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "config.txt", "losses.json", "manifest.tsv", "params.ubtn"]
    for name, text in files.items():
        assert (tmp_path / "ckpt" / name).read_text() == text
    # one rank-1 payload: every parameter's values in manifest order
    flat = load_tensor(tmp_path / "ckpt" / "params.ubtn")
    assert flat.tobytes() == b"".join(named[n].tobytes() for n in sorted(named))


def test_checkpoint_manifest_is_sorted_by_name(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"z": np.zeros(1), "a": np.ones((2, 2))}, {})
    assert (tmp_path / "ckpt" / "manifest.tsv").read_text() == "a\t2,2\nz\t1\n"
    assert np.array_equal(load_tensor(tmp_path / "ckpt" / "params.ubtn"), [1, 1, 1, 1, 0])


def test_checkpoint_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(TensorFormatError, match="manifest"):
        load_checkpoint(tmp_path / "empty")
    (tmp_path / "empty" / "manifest.tsv").mkdir()
    with pytest.raises(TensorFormatError, match="no manifest.tsv"):
        load_checkpoint(tmp_path / "empty")


def test_checkpoint_manifest_that_is_not_utf8_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))}, {})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_bytes(b"w\xe9\t2,3\n")
    with pytest.raises(TensorFormatError, match="manifest.tsv is not UTF-8 text"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_row_without_its_fields_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))}, {})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    # the second row is the per-parameter layout: name, dims, payload file
    for text, row in (("w\n", 1), ("w\t2,3\nv\t6\tp0001.ubtn\n", 2)):
        manifest.write_text(text)
        with pytest.raises(TensorFormatError,
                           match=rf"manifest.tsv:{row}: expected 2 tab-separated fields, "
                                 "name and dims$"):
            load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_dims_that_are_not_integers_are_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))}, {})
    (tmp_path / "ckpt" / "manifest.tsv").write_text("w\t2,x\n")
    with pytest.raises(TensorFormatError,
                       match=r"manifest.tsv:1: dims '2,x' are not comma-separated "
                             "non-negative integers$"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_payload_that_is_a_directory_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))}, {})
    payload = tmp_path / "ckpt" / "params.ubtn"
    payload.unlink()
    payload.mkdir()
    with pytest.raises(TensorFormatError, match="params.ubtn: is a directory"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_payload_that_is_not_a_ubtn_file_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))}, {})
    payload = tmp_path / "ckpt" / "params.ubtn"
    payload.write_bytes(payload.read_bytes()[:-8])  # one value short of its header
    with pytest.raises(TensorFormatError,
                       match="params.ubtn: payload is 40 bytes, expected 48$"):
        load_checkpoint(tmp_path / "ckpt")
    payload.unlink()
    with pytest.raises(FileNotFoundError, match="params.ubtn"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_parameter_named_twice_is_refused(tmp_path):
    # a second row of the same shape would otherwise replace the first one
    save_checkpoint(tmp_path / "ckpt", {"a": np.zeros(2), "b": np.ones(2)}, {})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_text(manifest.read_text() + "a\t2\n")
    with pytest.raises(TensorFormatError, match=r"manifest.tsv:3: parameter 'a' repeats"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_shape_cross_check(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"v": np.ones(4), "w": np.zeros((2, 3))}, {})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    # sizes that do not add up to the payload's 10 values, short or long
    for text, total in (("v\t4\nw\t2,2\n", 8), ("v\t4\nw\t3,3\n", 13), ("v\t4\n", 4)):
        manifest.write_text(text)
        with pytest.raises(TensorFormatError,
                           match=rf"params.ubtn: has shape \(10,\), the manifest's sizes "
                                 rf"add up to \({total},\)$"):
            load_checkpoint(tmp_path / "ckpt")
    # negative dims, even where their product is the right size
    for dims in ("-2,-3", "-6", "2,-3"):
        manifest.write_text(f"v\t4\nw\t{dims}\n")
        with pytest.raises(TensorFormatError,
                           match=rf"manifest.tsv:2: dims '{dims}' are not comma-separated "
                                 "non-negative integers$"):
            load_checkpoint(tmp_path / "ckpt")
    # a payload that is not rank 1, holding the right number of values
    save_tensor(tmp_path / "ckpt" / "params.ubtn", np.ones((2, 5)))
    manifest.write_text("v\t4\nw\t2,3\n")
    with pytest.raises(TensorFormatError, match=r"params.ubtn: has shape \(2, 5\)"):
        load_checkpoint(tmp_path / "ckpt")


def test_torn_save_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    names = ["a", "b", "c", "d"]

    def files(run):
        return {"config.txt": f"{run}\n", "losses.json": f"[{run}]",
                "training_audit.json": f'{{"run": "{run}"}}'}

    save_checkpoint(tmp_path / "ckpt", {n: rng.standard_normal((3, 2)) for n in names},
                    files("first"))
    first = load_checkpoint(tmp_path / "ckpt")
    real_write_text = Path.write_text

    def torn(path, text, *args, **kwargs):
        if path.name == "training_audit.json":
            raise OSError("disk full")
        return real_write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", {n: rng.standard_normal((3, 2)) for n in names},
                        files("second"))
    back = load_checkpoint(tmp_path / "ckpt")
    assert sorted(back) == names
    for n in names:
        assert np.array_equal(back[n], first[n])
    for name, text in files("first").items():
        assert (tmp_path / "ckpt" / name).read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


def test_a_save_fsyncs_every_file_then_its_directory_then_the_parent(tmp_path, monkeypatch):
    names = ["a", "b", "c"]
    ckpt = tmp_path / "ckpt"
    opened: dict[int, Path] = {}
    synced = []  # per fsync call: the path, and whether the checkpoint is in place yet
    real_open, real_fsync = os.open, os.fsync

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened[fd] = Path(path)
        return fd

    def recording_fsync(fd):
        synced.append((opened[fd], ckpt.exists()))
        real_fsync(fd)

    monkeypatch.setattr(tensorio.os, "open", recording_open)
    monkeypatch.setattr(tensorio.os, "fsync", recording_fsync)
    files = {"config.txt": "x\n", "losses.json": "[]", "training_audit.json": "{}"}
    save_checkpoint(ckpt, {n: np.ones(2) for n in names}, files)
    monkeypatch.undo()
    tmp = synced[-2][0]
    assert tmp.parent == tmp_path and tmp.name.startswith(".ckpt.tmp")
    assert sorted(path.name for path, _ in synced[:-2]) == [
        "config.txt", "losses.json", "manifest.tsv", "params.ubtn", "training_audit.json"]
    assert all(path.parent == tmp for path, _ in synced[:-2])
    assert synced[-1][0] == tmp_path
    assert [in_place for _, in_place in synced] == [False] * 6 + [True]
    assert sorted(load_checkpoint(ckpt)) == names


def test_a_save_replaces_the_whole_checkpoint_and_ignores_leftovers(tmp_path):
    # a temporary directory left by a save that was killed is never read
    leftover = tmp_path / f".ckpt.tmp{os.getpid() + 1}"
    save_checkpoint(leftover, {"w": np.ones(2)}, {"config.txt": "leftover\n"})
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros(2), "old": np.zeros(1)},
                    {"config.txt": "first\n", "losses.json": "[1.0]"})
    save_checkpoint(tmp_path / "ckpt", {"w": np.full(2, 3.0)}, {"config.txt": "second\n"})
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "config.txt", "manifest.tsv", "params.ubtn"]
    assert (tmp_path / "ckpt" / "config.txt").read_text() == "second\n"
    back = load_checkpoint(tmp_path / "ckpt")
    assert list(back) == ["w"] and np.array_equal(back["w"], np.full(2, 3.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "ckpt"]
