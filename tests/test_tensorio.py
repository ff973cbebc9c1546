"""Tensor file format, byte for byte, and checkpoint directories."""

import os
import re
import struct

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
    }
    save_checkpoint(tmp_path / "ckpt", named, config_text="steps = 3\n")
    back = load_checkpoint(tmp_path / "ckpt")
    assert sorted(back) == sorted(named)
    for name, arr in named.items():
        assert back[name].tobytes() == arr.tobytes()
    assert (tmp_path / "ckpt" / "config.txt").read_text() == "steps = 3\n"


def test_checkpoint_manifest_is_sorted_by_name(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"z": np.zeros(1), "a": np.ones((2, 2))})
    lines = (tmp_path / "ckpt" / "manifest.tsv").read_text().splitlines()
    assert lines[0].startswith("a\t2,2\t")
    assert lines[1].startswith("z\t1\t")


def test_checkpoint_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(TensorFormatError, match="manifest"):
        load_checkpoint(tmp_path / "empty")
    (tmp_path / "empty" / "manifest.tsv").mkdir()
    with pytest.raises(TensorFormatError, match="no manifest.tsv"):
        load_checkpoint(tmp_path / "empty")


def test_checkpoint_manifest_that_is_not_utf8_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_bytes(b"w\xe9\t2,3\tp0000.ubtn\n")
    with pytest.raises(TensorFormatError, match="manifest.tsv is not UTF-8 text"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_dims_that_are_not_integers_are_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))})
    (tmp_path / "ckpt" / "manifest.tsv").write_text("w\t2,x\tp0000.ubtn\n")
    with pytest.raises(TensorFormatError,
                       match=r"manifest.tsv:1: dims '2,x' are not comma-separated integers"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_payload_that_is_a_directory_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))})
    payload = tmp_path / "ckpt" / "p0000.ubtn"
    payload.unlink()
    payload.mkdir()
    with pytest.raises(TensorFormatError, match="p0000.ubtn: is a directory"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_parameter_named_twice_is_refused(tmp_path):
    # a second row of the same shape would otherwise replace the first one
    save_checkpoint(tmp_path / "ckpt", {"a": np.zeros(2), "b": np.ones(2)})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_text(manifest.read_text() + "a\t2\tp0001.ubtn\n")
    with pytest.raises(TensorFormatError, match=r"manifest.tsv:3: parameter 'a' repeats"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_payload_named_twice_is_refused(tmp_path):
    # a second parameter of the same shape would otherwise load the first one's values
    save_checkpoint(tmp_path / "ckpt", {"a": np.zeros(2), "b": np.ones(2)})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("p0001.ubtn", "p0000.ubtn"))
    with pytest.raises(TensorFormatError,
                       match=r"manifest.tsv:2: payload 'p0000.ubtn' of 'b' is also the "
                             "payload of 'a'$"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_payload_outside_its_directory_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))})
    save_checkpoint(tmp_path / "other", {"w": np.ones((2, 3))})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    for payload in ("../other/p0000.ubtn", str(tmp_path / "other" / "p0000.ubtn"),
                    "./p0000.ubtn", "..", ""):
        manifest.write_text(f"w\t2,3\t{payload}\n")
        with pytest.raises(TensorFormatError,
                           match=rf"manifest.tsv:1: payload '{re.escape(payload)}' is not "
                                 "a file name in "):
            load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_shape_cross_check(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros((2, 3))})
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("2,3", "3,2"))
    with pytest.raises(TensorFormatError, match="manifest says"):
        load_checkpoint(tmp_path / "ckpt")


def test_torn_save_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    names = ["a", "b", "c", "d"]
    save_checkpoint(tmp_path / "ckpt", {n: rng.standard_normal((3, 2)) for n in names},
                    config_text="first\n")
    first = load_checkpoint(tmp_path / "ckpt")
    calls = []

    def torn(path, values):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_tensor(path, values)

    monkeypatch.setattr(tensorio, "save_tensor", torn)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", {n: rng.standard_normal((3, 2)) for n in names},
                        config_text="second\n")
    back = load_checkpoint(tmp_path / "ckpt")
    assert sorted(back) == names
    for n in names:
        assert np.array_equal(back[n], first[n])
    assert (tmp_path / "ckpt" / "config.txt").read_text() == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]


def test_a_save_fsyncs_every_file_then_its_directory_then_the_parent(tmp_path, monkeypatch):
    names = ["a", "b", "c"]
    renamed = []  # per fsync call: has the checkpoint been swapped into place yet
    real_fsync = os.fsync

    def counting(fd):
        renamed.append((tmp_path / "ckpt").exists())
        real_fsync(fd)

    monkeypatch.setattr(tensorio.os, "fsync", counting)
    save_checkpoint(tmp_path / "ckpt", {n: np.ones(2) for n in names}, config_text="x\n")
    # three payloads, manifest.tsv and config.txt, the temporary directory,
    # and the parent after the rename
    assert renamed == [False] * 6 + [True]
    assert sorted(load_checkpoint(tmp_path / "ckpt")) == names


def test_a_save_replaces_the_whole_checkpoint_and_ignores_leftovers(tmp_path):
    # a temporary directory left by a save that was killed is never read
    leftover = tmp_path / f".ckpt.tmp{os.getpid() + 1}"
    save_checkpoint(leftover, {"w": np.ones(2)})
    save_checkpoint(tmp_path / "ckpt", {"w": np.zeros(2), "old": np.zeros(1)})
    (tmp_path / "ckpt" / "losses.json").write_text("{}")
    save_checkpoint(tmp_path / "ckpt", {"w": np.full(2, 3.0)})
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "config.txt", "manifest.tsv", "p0000.ubtn"]
    back = load_checkpoint(tmp_path / "ckpt")
    assert list(back) == ["w"] and np.array_equal(back["w"], np.full(2, 3.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "ckpt"]
