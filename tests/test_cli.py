"""Command-line harness: subcommand flow, exit codes, output routing."""

import argparse
import contextlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from uniboost.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, build_parser, main
from uniboost.shapeworld import class_id
from uniboost.tensorio import load_tensor, save_tensor

BASE_CFG = """
[encoder]
layers = 1
width = 16
heads = 2
patch_size = 4
max_tokens = 40
vocab_size = 32

[neck]
fusion_layers = 1
fusion_heads = 2
common_width = 16
layer_set = 1

[pretrain]
mode = {mode}
steps = 2

[data]
samples_per_corpus = 16
paired_fraction = 0.5

[optimizer]
warmup_steps = 1

[run]
steps = 3
batch_size = 4
eval_samples = 8
rebalance_threshold = 8

[task seg]
route = language-guided-vision
head = seg
batch_size = 4
"""


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    monkeypatch.setenv("UNIBOOST_OUT", str(out))
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    return tmp_path, out, cfg


def test_full_subcommand_flow(workspace, capsys):
    tmp, out, cfg = workspace

    assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
    assert (out / "data" / "manifest.tsv").exists()

    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    pre_dir = out / "pretrain-masked-unimodal-seed0"
    assert (pre_dir / "manifest.tsv").exists()
    assert (pre_dir / "losses.json").exists()

    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    model_dir = out / "model-masked-unimodal-seed0"
    assert (model_dir / "manifest.tsv").exists()
    assert (model_dir / "schedule_trace.tsv").exists()
    audit = json.loads((model_dir / "training_audit.json").read_text())
    assert "ring" not in audit["tokens"]

    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_OK
    report = json.loads((out / "eval-novel.json").read_text())
    assert report["split"] == "novel"
    assert 0.0 <= report["miou"] <= 1.0

    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_OK
    screen = capsys.readouterr().out
    assert "base mIoU" in screen
    assert sorted(p.name for p in out.iterdir()) == [
        "data", "eval-base.json", "eval-novel.json",
        "model-masked-unimodal-seed0", "pretrain-masked-unimodal-seed0"]


def test_finetune_single_task_and_vqa_eval(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    assert main(["eval", "--config", str(cfg), "--split", "novel", "--vqa"]) == EXIT_OK
    report = json.loads((out / "eval-novel.json").read_text())
    assert "vqa_exact_match" in report


def test_compare_and_report(workspace, capsys, monkeypatch):
    tmp, out, cfg = workspace
    other = tmp / "pc.cfg"
    other.write_text(BASE_CFG.format(mode="pair-contrastive"))

    rc = main(["compare", "--config", str(cfg), "--config", str(other),
               "--seeds", "0"])
    assert rc == EXIT_OK
    assert (out / "comparison.csv").exists()
    assert (out / "comparison.txt").exists()
    assert json.loads((out / "comparison.json").read_text())["fold_labels"] == ["novel"]
    screen = capsys.readouterr().out
    assert "wins[masked-unimodal]" in screen

    # a refused compare makes no output directory
    refused = tmp / "refused"
    monkeypatch.setenv("UNIBOOST_OUT", str(refused))
    assert main(["compare", "--config", str(cfg), "--seeds", "0"]) == EXIT_CONFIG
    assert main(["compare", "--config", str(cfg), "--config", str(cfg),
                 "--seeds", "0"]) == EXIT_CONFIG  # same mode twice
    for seeds in ("0,,1", "0,one", "", "0,1,0", "0,-1"):
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg), "--config", str(other),
                     "--seeds", seeds]) == EXIT_CONFIG, seeds
        assert "Traceback" not in capsys.readouterr().err
        assert not refused.exists(), seeds


def test_config_errors_exit_2(workspace, tmp_path, monkeypatch, capsys):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(tmp / "missing.cfg")]) == EXIT_CONFIG
    assert main(["pretrain", "--config", str(tmp)]) == EXIT_CONFIG  # a directory
    bad = tmp_path / "bad.cfg"
    bad.write_text("[encoder]\ndepth = 3\n")
    assert main(["gen-data", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_bytes(BASE_CFG.format(mode="masked-unimodal").encode("latin-1")
                    + "# r\xe9sum\xe9\n".encode("latin-1"))  # not UTF-8
    assert main(["pretrain", "--config", str(bad)]) == EXIT_CONFIG
    text = BASE_CFG.format(mode="masked-unimodal")
    for old, new in [("width = 16\nheads = 2", "width = 30\nheads = 4"),
                     ("heads = 2", "heads = 0"),
                     # model sizes below their minimum
                     ("width = 16\nheads = 2", "width = 0\nheads = 2"),
                     ("width = 16\nheads = 2", "width = -4\nheads = 2"),
                     ("heads = 2", "heads = -2"),
                     ("common_width = 16", "common_width = 0"),
                     ("fusion_heads = 2", "fusion_heads = 0"),
                     ("fusion_layers = 1", "fusion_layers = -1"),
                     ("[data]", "[data]\ngrid_size = 12"),
                     ("[data]", "[data]\nnovel_shapes = ring, blob"),
                     # a repeated entry: eval would meet a class twice, the
                     # neck would read one layer where it expects two
                     ("[data]", "[data]\nnovel_shapes = ring, ring"),
                     ("layer_set = 1", "layer_set = 1, 1"),
                     ("paired_fraction = 0.5", "paired_fraction = 1.5"),
                     ("patch_size = 4", "patch_size = 1"),
                     ("patch_size = 4", "patch_size = 3"),
                     ("warmup_steps = 1", "warmup_steps = -1"),
                     ("rebalance_threshold = 8", "rebalance_threshold = 0"),
                     # 4 patches fit, but no caption or question does
                     ("patch_size = 4\nmax_tokens = 40", "patch_size = 8\nmax_tokens = 4"),
                     # question + answer + EOS fit, greedy VQA decoding does not
                     ("patch_size = 4\nmax_tokens = 40", "patch_size = 8\nmax_tokens = 7"),
                     ("warmup_steps = 1", "warmup_steps = 1\npeak_lr = nan"),
                     ("warmup_steps = 1", "warmup_steps = 1\npeak_lr = inf"),
                     ("samples_per_corpus = 16", "samples_per_corpus = 0"),
                     ("steps = 2", "steps = 2\nbatch_size = 0"),  # [pretrain]
                     ("steps = 3", "steps = -3"),  # [run]
                     ("eval_samples = 8", "eval_samples = 0"),
                     ("[data]", "[data]\nseed = -1")]:
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        for command in ("pretrain", "finetune-multitask", "eval"):
            assert main([command, "--config", str(bad)]) == EXIT_CONFIG, (command, new)
    # the run's seed and output directory are flags, not config keys
    for key in ("seed = 1", "out = x"):
        bad.write_text(text.replace("steps = 3", f"steps = 3\n{key}", 1))
        for command in ("pretrain", "finetune-multitask", "eval"):
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == EXIT_CONFIG, (command, key)
            assert (f"unknown key '{key.split()[0]}' in section [run]"
                    in capsys.readouterr().err), (command, key)
    for command in ("pretrain", "finetune-multitask", "eval"):
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --seed -1 must be >= 0\n"
    # an output path that is an existing file, through UNIBOOST_OUT or --out
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    monkeypatch.setenv("UNIBOOST_OUT", str(taken))
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
    monkeypatch.delenv("UNIBOOST_OUT")
    for dest in (taken, taken / "below"):
        for command in ("gen-data", "pretrain"):
            assert main([command, "--config", str(cfg), "--out", str(dest)]) == EXIT_CONFIG
    assert taken.read_text() == "a file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "mu.cfg", "taken"]
    assert not out.exists()  # each config was refused before any work ran


@pytest.mark.parametrize("key", ["weight_decay", "schedule", "encoder_lr_ratio",
                                 "freeze_encoders"])
def test_removed_optimizer_keys_exit_2_as_unknown(tmp_path, capsys, key):
    # the optimizer recipe is fixed, and a config that sets one of these must
    # not run under values it did not ask for
    cfg = tmp_path / "old.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "warmup_steps = 1", f"warmup_steps = 1\n{key} = 0.1"))
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"unknown key '{key}' in section [optimizer]" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_data_errors_exit_3(workspace):
    tmp, out, cfg = workspace
    # eval without any checkpoint ever written
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_DATA
    # config points at a manifest that does not exist
    broken = tmp / "broken.cfg"
    broken.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "[data]", "[data]\nmanifest = /nowhere/manifest.tsv"))
    assert main(["pretrain", "--config", str(broken)]) == EXIT_DATA
    # ... a directory, or a file that is not UTF-8 text
    (tmp / "manifest-dir").mkdir()
    (tmp / "latin1.tsv").write_bytes("caf\xe9\n".encode("latin-1"))
    for manifest in ("manifest-dir", "latin1.tsv"):
        broken.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
            "[data]", f"[data]\nmanifest = {tmp / manifest}"))
        assert main(["pretrain", "--config", str(broken)]) == EXIT_DATA, manifest
    # a pair-contrastive corpus of one pair cannot form a contrastive batch
    broken.write_text(BASE_CFG.format(mode="pair-contrastive").replace(
        "samples_per_corpus = 16\npaired_fraction = 0.5",
        "samples_per_corpus = 4\npaired_fraction = 0.25"))
    assert main(["pretrain", "--config", str(broken)]) == EXIT_DATA


def _drop_image(fields):
    fields[2] = ""


def _drop_last_word(fields):
    fields[4] = fields[4].rsplit(" ", 1)[0]


def _unknown_shape(fields):
    words = fields[4].split()
    fields[4] = " ".join([words[0], "blob", *words[2:]])


def _unknown_first_word(fields):
    fields[4] = " ".join(["crimson", *fields[4].split()[1:]])


def _unknown_answer(fields):
    fields[6] = "crimson"


@pytest.mark.parametrize("mode, corpus, edit, message", [
    ("pair-contrastive", "paired", _drop_image, "no image"),
    ("masked-unimodal", "text-only", _drop_last_word, "caption has 4 tokens"),
    ("supervised", "paired", _unknown_shape, "does not name a shape"),
    # an unknown word would otherwise train as <unk>
    ("masked-unimodal", "text-only", _unknown_first_word,
     "caption word 'crimson' is not in the vocabulary"),
    ("pair-contrastive", "paired", _unknown_answer,
     "answer word 'crimson' is not in the vocabulary"),
], ids=["paired-without-image", "short-text-only-caption", "caption-without-shape",
        "text-only-caption-outside-vocabulary", "paired-answer-outside-vocabulary"])
def test_ingested_corpus_the_stages_cannot_read_exits_3(workspace, capsys, mode, corpus,
                                                        edit, message):
    tmp, out, cfg = workspace
    assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
    full = out / "data" / "manifest.tsv"
    lines = full.read_text().splitlines(True)
    # the last sample of the corpus is the one that cannot be read
    last = max(i for i, l in enumerate(lines) if l.startswith(corpus + "\t"))
    fields = lines[last].rstrip("\n").split("\t")
    edit(fields)  # fields: task, id, image, mask, caption, question, answer
    lines[last] = "\t".join(fields) + "\n"
    edited = full.with_name("edited.tsv")
    edited.write_text("".join(lines))
    path = tmp / "edited.cfg"
    path.write_text(BASE_CFG.format(mode=mode).replace("[data]",
                                                       f"[data]\nmanifest = {edited}"))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: corpus '{corpus}' sample '{fields[1]}': ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("value", [9.0, -1.0, 1.5])
def test_ingested_mask_that_is_not_a_class_id_exits_3(workspace, capsys, value):
    # A label past the last shape, a negative one and a fraction: each would
    # otherwise reach training (or be truncated) instead of being refused.
    tmp, out, cfg = workspace
    assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
    manifest = out / "data" / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith("paired\t"))
    mask_path = lines[lineno - 1].split("\t")[3]
    mask = load_tensor(manifest.parent / mask_path)
    mask[0, 0] = value
    save_tensor(manifest.parent / mask_path, mask)
    path = tmp / "edited.cfg"
    path.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "[data]", f"[data]\nmanifest = {manifest}"))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (f"data error: {manifest}:{lineno}: mask {mask_path} holds {value}, "
                   f"not a class id in 0..8\n")


def _second_paired_renamed(lines, rename):
    """Rename the second ``paired`` sample to ``rename(first sample id)``;
    return the edited line number and the first line's number and id."""
    i, j = [n for n, l in enumerate(lines) if l.startswith("paired\t")][:2]
    first = lines[i].split("\t")[1]
    fields = lines[j].split("\t")  # task, id, image, mask, caption, question, answer
    lines[j] = "\t".join([fields[0], rename(first), *fields[2:]])
    return j + 1, i + 1, first


def _repeat_an_id(lines, directory):
    lineno, first_line, sid = _second_paired_renamed(lines, lambda sid: sid)
    return lineno, f"sample id {sid!r} repeats line {first_line} of task 'paired'"


def _hash_an_id(lines, directory):
    lineno, _, sid = _second_paired_renamed(lines, lambda sid: f"{sid}#aug1")
    return lineno, f"sample id '{sid}#aug1' contains '#'"


def _nan_pixel(lines, directory):
    i = next(n for n, l in enumerate(lines) if l.startswith("paired\t"))
    image_path = lines[i].split("\t")[2]
    image = load_tensor(directory / image_path)
    image[3, 5, 1] = np.nan
    save_tensor(directory / image_path, image)
    return i + 1, f"image {image_path} holds nan, not a finite pixel value"


@pytest.mark.parametrize("edit", [_repeat_an_id, _hash_an_id, _nan_pixel],
                         ids=["repeated-id", "derived-id", "nan-pixel"])
def test_ingested_sample_the_stages_would_misread_exits_3(workspace, capsys, edit):
    # A repeated id makes the fine-tuning store keep one of two samples, an id
    # with '#' is overwritten by an augmented copy of another sample, and a
    # NaN pixel surfaces later as a non-finite gradient that blames training.
    tmp, out, cfg = workspace
    assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
    manifest = out / "data" / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    lineno, message = edit(lines, manifest.parent)
    manifest.write_text("\n".join(lines) + "\n")
    path = tmp / "edited.cfg"
    path.write_text(BASE_CFG.format(mode="pair-contrastive").replace(
        "[data]", f"[data]\nmanifest = {manifest}"))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {manifest}:{lineno}: {message}\n"


def test_failures_inside_compare_workers_keep_their_exit_code(workspace, capsys):
    tmp, out, cfg = workspace
    assert main(["gen-data", "--config", str(cfg)]) == EXIT_OK
    full = out / "data" / "manifest.tsv"
    lines = full.read_text().splitlines(True)
    # a manifest without the text-only corpus fails in each worker's corpus build
    partial = full.with_name("partial.tsv")
    partial.write_text("".join(l for l in lines if not l.startswith("text-only\t")))
    # paired captions that name a novel class fail the leakage audit before eval
    def recaption(line):
        fields = line.split("\t")  # task, id, image, mask, caption, question, answer
        fields[4] = "red ring above blue square"
        return "\t".join(fields)

    leaky = full.with_name("leaky.tsv")
    leaky.write_text("".join(recaption(l) if l.startswith("paired\t") else l for l in lines))
    # base-only captions, but one paired mask labels a novel class
    save_tensor(full.parent / "masks" / "novel.ubtn", np.full((16, 16), float(class_id("ring"))))
    def remask(line):
        fields = line.split("\t")
        fields[3] = "masks/novel.ubtn"
        return "\t".join(fields)

    paired = [i for i, l in enumerate(lines) if l.startswith("paired\t")]
    leaky_mask = full.with_name("leaky-mask.tsv")
    leaky_mask.write_text("".join(remask(l) if i == paired[-1] else l
                                  for i, l in enumerate(lines)))
    for manifest, code, message in [
            (partial, EXIT_DATA, "data error: manifest lacks corpora ['text-only']"),
            (leaky, EXIT_INVARIANT, "invariant violation: novel classes ['ring']"),
            (leaky_mask, EXIT_INVARIANT, "invariant violation: novel classes ['ring']")]:
        configs = []
        for mode in ("masked-unimodal", "pair-contrastive"):
            path = tmp / f"{mode}.cfg"
            path.write_text(BASE_CFG.format(mode=mode).replace(
                "[data]", f"[data]\nmanifest = {manifest}"))
            configs += ["--config", str(path)]
        capsys.readouterr()
        assert main(["compare", *configs, "--seeds", "0,1"]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not (out / "comparison.csv").exists()
        # the same corpus is refused before pair-contrastive pretraining reads it
        assert main(["pretrain", "--config", configs[-1]]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not (out / "pretrain-pair-contrastive-seed0").exists()


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def test_diverged_run_exits_4(workspace, capsys):
    """A learning rate that drives the gradients to inf or NaN stops the run
    with an invariant violation, in the command and inside compare workers."""
    tmp, out, cfg = workspace
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}.cfg"
        path.write_text(BASE_CFG.format(mode=mode).replace(
            "steps = 2\n", "steps = 8\npeak_lr = 1e30\n", 1))
        configs += ["--config", str(path)]
    capsys.readouterr()
    # numpy warns as the values overflow; the test filter would make that an error
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["pretrain", "--config", configs[-1]]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: non-finite gradient") and "Traceback" not in err
    assert not (out / "pretrain-pair-contrastive-seed0").exists()
    # numpy's overflow raised as an exception: a RuntimeWarning, as under
    # `python -W error::RuntimeWarning`, or a FloatingPointError under np.seterr
    for raise_numeric_errors in (_warnings_as_errors,
                                 lambda: np.errstate(over="raise", invalid="raise")):
        with raise_numeric_errors():
            assert main(["pretrain", "--config", configs[-1]]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: numeric fault: overflow")
        assert "Traceback" not in err
        assert not (out / "pretrain-pair-contrastive-seed0").exists()
    assert main(["compare", *configs, "--seeds", "0"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: non-finite gradient") and "Traceback" not in err
    assert not (out / "comparison.csv").exists()


def test_leakage_audit_exits_4(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    audit_path = out / "model-masked-unimodal-seed0" / "training_audit.json"
    audit = json.loads(audit_path.read_text())
    audit["tokens"].append("ring")
    audit_path.write_text(json.dumps(audit))
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT


def test_novel_eval_refuses_without_a_complete_audit(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    audit_path = out / "model-masked-unimodal-seed0" / "training_audit.json"
    audit = json.loads(audit_path.read_text())
    for key in ("tokens", "mask_labels"):
        audit_path.write_text(json.dumps({k: v for k, v in audit.items() if k != key}))
        assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT
    audit_path.unlink()
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT
    assert not (out / "eval-novel.json").exists()
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_OK


def test_unreadable_audit_exits_4(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    audit_path = out / "model-masked-unimodal-seed0" / "training_audit.json"
    for text in ('{"tokens": [', '{"tokens": 5, "mask_labels": 3}', '[1, 2]',
                 '{"tokens": [["red"]], "mask_labels": []}'):
        audit_path.write_text(text)
        assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT
    # valid JSON in every byte but one that is not UTF-8
    audit_path.write_bytes('{"tokens": ["caf\xe9"], "mask_labels": []}'.encode("latin-1"))
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT
    assert not (out / "eval-novel.json").exists()


def test_checkpoint_that_does_not_fit_the_config_exits_3(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    wider = tmp / "wider.cfg"
    wider.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "width = 16", "width = 24"))
    assert main(["finetune-multitask", "--config", str(wider)]) == EXIT_DATA
    assert main(["eval", "--config", str(wider), "--split", "base"]) == EXIT_DATA
    deeper = tmp / "deeper.cfg"
    deeper.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "layers = 1", "layers = 2"))
    assert main(["eval", "--config", str(deeper), "--split", "base"]) == EXIT_DATA
    manifest = out / "model-masked-unimodal-seed0" / "manifest.tsv"
    good = manifest.read_bytes()
    manifest.write_bytes(good.replace(b"\t", b"\xe9\t", 1))
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
    # dims that are not integers, and a payload that is a directory
    name, dims, payload = good.decode().splitlines()[0].split("\t")
    manifest.write_bytes(good.replace(f"\t{dims}\t".encode(), f"\t{dims},x\t".encode(), 1))
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
    # a parameter named twice, and a payload from the pretraining checkpoint
    manifest.write_bytes(good + f"{name}\t{dims}\t{payload}\n".encode())
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
    manifest.write_bytes(good.replace(
        f"\t{payload}\n".encode(), f"\t../pretrain-masked-unimodal-seed0/{payload}\n".encode(), 1))
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
    manifest.write_bytes(good)
    (manifest.parent / payload).unlink()
    (manifest.parent / payload).mkdir()
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA


def test_vocab_size_below_the_vocabulary_exits_2(workspace):
    tmp, out, cfg = workspace
    small = BASE_CFG.replace("vocab_size = 32", "vocab_size = 20")
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}-v20.cfg"
        path.write_text(small.format(mode=mode))
        configs += ["--config", str(path)]
    assert main(["compare", *configs, "--seeds", "0"]) == EXIT_CONFIG


def test_out_flag_used_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("UNIBOOST_OUT", raising=False)
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    dest = tmp_path / "elsewhere"
    assert main(["gen-data", "--config", str(cfg), "--out", str(dest)]) == EXIT_OK
    assert (dest / "data" / "manifest.tsv").exists()
    assert not (tmp_path / "runs").exists()


def test_out_flag_leaves_the_config_unchanged(tmp_path, monkeypatch):
    """--out and --seed pick the run, not the experiment: runs that differ
    only in them record the same config, as runs that differ in
    UNIBOOST_OUT do."""
    monkeypatch.delenv("UNIBOOST_OUT", raising=False)
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    texts = []
    for name, seed in (("a", "0"), ("b", "0"), ("b", "3")):
        dest = tmp_path / name
        assert main(["pretrain", "--config", str(cfg), "--out", str(dest),
                     "--seed", seed]) == EXIT_OK
        ckpt = dest / f"pretrain-masked-unimodal-seed{seed}"
        texts.append((ckpt / "config.txt").read_text())
    assert texts[0] == texts[1] == texts[2]
    assert "\n[run]\nsteps = 3\nbatch_size = 4\nrebalance_threshold = 8\n" in texts[0]


def test_env_overrides_out_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("UNIBOOST_OUT", str(env_dir))
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    ignored = tmp_path / "ignored"
    assert main(["gen-data", "--config", str(cfg), "--out", str(ignored)]) == EXIT_OK
    assert (env_dir / "data" / "manifest.tsv").exists()
    assert not ignored.exists()


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_keeps_only_the_commands_and_flags_that_change_a_run(workspace):
    tmp, out, cfg = workspace
    settable = {name: sorted(a.dest for a in p._actions if not isinstance(a, argparse._HelpAction))
                for name, p in _subparsers().items()}
    assert settable == {"gen-data": ["config", "out"],
                        "pretrain": ["config", "out", "seed"],
                        "finetune-multitask": ["config", "out", "seed"],
                        "eval": ["config", "out", "seed", "split", "vqa"],
                        "compare": ["config", "out", "seeds"]}
    assert all(p.get_default("seed") == 0 for name, p in _subparsers().items()
               if "seed" in settable[name])
    removed = [["report", "--input", str(out / "comparison.json")],
               ["split", "--config", str(cfg)],
               ["finetune-task", "--config", str(cfg), "--task", "seg"],
               ["eval", "--config", str(cfg), "--checkpoint", str(tmp)],
               ["compare", "--config", str(cfg), "--config", str(cfg), "--steps", "5"],
               ["compare", "--config", str(cfg), "--config", str(cfg), "--seed", "7"]]
    for command in ("gen-data", "pretrain", "finetune-multitask", "eval"):
        removed.append([command, "--config", str(cfg), "--steps", "5"])
    removed.append(["gen-data", "--config", str(cfg), "--seed", "3"])
    for argv in removed:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG, argv
        assert sorted(p.name for p in tmp.iterdir()) == ["mu.cfg"], argv


def test_readme_subcommand_table_lists_exactly_the_parser_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Subcommands\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `([\w-]+)", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(_subparsers())


def test_readme_names_only_options_the_parser_has():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme))
    options = {o for p in _subparsers().values() for a in p._actions for o in a.option_strings}
    other_tools = {"--no-build-isolation",  # pip, in the install line
                   "--strict-markers"}      # pytest, set in pyproject.toml
    assert named - options - other_tools == set()
