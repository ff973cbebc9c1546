"""Command-line harness: subcommand flow, exit codes, output routing."""

import argparse
import contextlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from uniboost import pipeline
from uniboost.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, build_parser, main
from uniboost.config import parse_config, serialize_config
from uniboost.shapeworld import CORPORA, class_id
from uniboost.tensorio import load_checkpoint, save_tensor

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


def test_full_subcommand_flow(workspace, capsys, monkeypatch):
    tmp, out, cfg = workspace
    saved = {}  # checkpoint directory -> its files as the save left them
    real_save = pipeline.save_checkpoint

    def recording_save(directory, named_values, files):
        real_save(directory, named_values, files)
        saved[directory.name] = {f.name: f.read_bytes() for f in directory.iterdir()}

    monkeypatch.setattr(pipeline, "save_checkpoint", recording_save)
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    pre_dir = out / "pretrain-masked-unimodal-seed0"
    assert sorted(saved[pre_dir.name]) == [
        "config.txt", "losses.json", "manifest.tsv", "params.ubtn"]

    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    model_dir = out / "model-masked-unimodal-seed0"
    assert sorted(saved[model_dir.name]) == [
        "config.txt", "losses.json", "manifest.tsv", "params.ubtn", "schedule_trace.tsv",
        "training_audit.json"]
    # each command's files are part of its save: nothing is written after it
    for d in (pre_dir, model_dir):
        assert {f.name: f.read_bytes() for f in d.iterdir()} == saved[d.name]
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
        "eval-base.json", "eval-novel.json",
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
    # streams with no task to fine-tune on, refused before any worker pretrains
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}-no-tasks.cfg"
        path.write_text(BASE_CFG.format(mode=mode).split("[task seg]")[0])
        configs += ["--config", str(path)]
    capsys.readouterr()
    assert main(["compare", *configs, "--seeds", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: no [task <id>] sections configured\n"
    assert not refused.exists()
    # streams with no novel shape to score, refused before any worker pretrains
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}-no-novel.cfg"
        path.write_text(BASE_CFG.format(mode=mode).replace("[data]", "[data]\nnovel_shapes ="))
        configs += ["--config", str(path)]
    assert main(["compare", *configs, "--seeds", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: compare scores the novel split, and novel_shapes is empty\n")
    assert not refused.exists()
    # the stage commands still run such a config; only a novel eval needs novel shapes
    monkeypatch.setenv("UNIBOOST_OUT", str(tmp / "no-novel"))
    for command in (["pretrain"], ["finetune-multitask"], ["eval", "--split", "base"]):
        assert main([*command, "--config", str(path)]) == EXIT_OK, command


def test_config_errors_exit_2(workspace, tmp_path, monkeypatch, capsys):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(tmp / "missing.cfg")]) == EXIT_CONFIG
    assert main(["pretrain", "--config", str(tmp)]) == EXIT_CONFIG  # a directory
    bad = tmp_path / "bad.cfg"
    bad.write_text("[encoder]\ndepth = 3\n")
    assert main(["pretrain", "--config", str(bad)]) == EXIT_CONFIG
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
                     ("[data]", "[data]\nseed = -1"),
                     # a task batch larger than the paired set fine-tuning draws
                     # from: no pairs, and 8 pairs that the threshold leaves at 8
                     ("paired_fraction = 0.5", "paired_fraction = 0.0"),
                     ("rebalance_threshold = 8\n\n[task seg]\nroute = language-guided-vision"
                      "\nhead = seg\nbatch_size = 4",
                      "rebalance_threshold = 1\n\n[task seg]\nroute = language-guided-vision"
                      "\nhead = seg\nbatch_size = 64")]:
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        for command in ("pretrain", "finetune-multitask", "eval"):
            assert main([command, "--config", str(bad)]) == EXIT_CONFIG, (command, new)
    # the run's seed and output directory are flags, not config keys, and
    # corpora come only from the generator
    for anchor, key, section in [("steps = 3", "seed = 1", "run"),
                                 ("steps = 3", "out = x", "run"),
                                 ("[data]", "manifest = x", "data")]:
        bad.write_text(text.replace(anchor, f"{anchor}\n{key}", 1))
        for command in ("pretrain", "finetune-multitask", "eval"):
            capsys.readouterr()
            assert main([command, "--config", str(bad)]) == EXIT_CONFIG, (command, key)
            assert (f"unknown key '{key.split()[0]}' in section [{section}]"
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
        assert main(["pretrain", "--config", str(cfg), "--out", str(dest)]) == EXIT_CONFIG
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


def test_eval_loads_no_masked_array_module(workspace):
    """Label sets come from sorted lookups and `bincount`: no stage command
    imports `numpy.ma`, whose import alone costs more than a small eval's
    metrics. `finetune-multitask` and a pair-contrastive `pretrain` audit the
    paired masks; `eval` scores masks."""
    tmp, out, cfg = workspace
    pc = tmp / "pc.cfg"
    pc.write_text(BASE_CFG.format(mode="pair-contrastive"))
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    script = ("import sys\nfrom uniboost.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    for command in (["finetune-multitask", "--config", str(cfg)],
                    ["eval", "--config", str(cfg), "--vqa"],
                    ["pretrain", "--config", str(pc)]):
        proc = subprocess.run([sys.executable, "-c", script, *command], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", command
    assert json.loads((out / "eval-novel.json").read_text())["samples"] == 8
    assert (out / "pretrain-pair-contrastive-seed0" / "manifest.tsv").is_file()


def test_data_errors_exit_3(workspace):
    tmp, out, cfg = workspace
    # eval without any checkpoint ever written
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_DATA
    # a pair-contrastive corpus of one pair cannot form a contrastive batch
    broken = tmp / "broken.cfg"
    broken.write_text(BASE_CFG.format(mode="pair-contrastive").replace(
        "samples_per_corpus = 16\npaired_fraction = 0.5",
        "samples_per_corpus = 4\npaired_fraction = 0.25"))
    assert main(["pretrain", "--config", str(broken)]) == EXIT_DATA


def test_failures_inside_compare_workers_keep_their_exit_code(workspace, capsys):
    # in a one-pair world the pair-contrastive worker cannot form a
    # contrastive batch; a worker that diverges is test_diverged_run_exits_4
    tmp, out, cfg = workspace
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}.cfg"
        path.write_text(BASE_CFG.format(mode=mode).replace(
            "samples_per_corpus = 16\npaired_fraction = 0.5",
            "samples_per_corpus = 4\npaired_fraction = 0.25"))
        configs += ["--config", str(path)]
    capsys.readouterr()
    assert main(["compare", *configs, "--seeds", "0,1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: pair corpus needs >= 2 pairs") and "Traceback" not in err
    assert not (out / "comparison.csv").exists()


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


@pytest.mark.parametrize("leak", ["caption", "mask"])
def test_unaudited_pairs_train_no_stage(workspace, monkeypatch, capsys, leak):
    """A generated pair that names or labels a novel class stops every stage
    that reads the paired corpus with exit 4 before it writes a checkpoint;
    masked-unimodal pretraining reads no pair and runs."""
    tmp, out, cfg = workspace
    generate = pipeline.gen_shapeworld

    def leaky(world, names=CORPORA):
        corpora = generate(world, names)
        for s in corpora.get("paired", ()):
            if leak == "caption":
                s.caption = "red ring above blue square"
            else:
                s.mask = np.full_like(s.mask, class_id("ring"))
        return corpora

    monkeypatch.setattr(pipeline, "gen_shapeworld", leaky)
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: novel classes ['ring'] appeared in the training stream\n")
    assert not (out / "model-masked-unimodal-seed0").exists()
    for mode in ("pair-contrastive", "supervised"):
        path = tmp / f"{mode}.cfg"
        path.write_text(BASE_CFG.format(mode=mode))
        assert main(["pretrain", "--config", str(path)]) == EXIT_INVARIANT, mode
        assert "novel classes ['ring']" in capsys.readouterr().err
        assert not (out / f"pretrain-{mode}-seed0").exists()


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


def test_boolean_mask_labels_in_the_audit_exit_4(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    audit_path = out / "model-masked-unimodal-seed0" / "training_audit.json"
    audit = json.loads(audit_path.read_text())
    audit_path.write_text(json.dumps(dict(audit, mask_labels=[True, False])))
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_INVARIANT
    assert not (out / "eval-novel.json").exists()


def test_checkpoint_that_does_not_fit_the_config_exits_3(workspace, capsys):
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
    # a config.txt that claims the deeper config: its parameters still do not fit
    saved_config = out / "model-masked-unimodal-seed0" / "config.txt"
    good_config = saved_config.read_text()
    saved_config.write_text(serialize_config(parse_config(deeper.read_text())))
    capsys.readouterr()
    assert main(["eval", "--config", str(deeper), "--split", "base"]) == EXIT_DATA
    assert "does not fit the config" in capsys.readouterr().err
    saved_config.write_text(good_config)
    manifest = out / "model-masked-unimodal-seed0" / "manifest.tsv"
    good = manifest.read_bytes()
    rows = good.decode().splitlines(keepends=True)
    name, dims = rows[0].rstrip("\n").split("\t")
    matrix = next(row for row in rows if "," in row)  # a parameter of two dims
    matrix_dims = matrix.rstrip("\n").split("\t")[1]
    for broken, says in [
            (good.replace(b"\t", b"\xe9\t", 1), "manifest.tsv is not UTF-8 text"),
            (good.replace(f"\t{dims}\n".encode(), f"\t{dims},x\n".encode(), 1),
             "are not comma-separated non-negative integers"),
            (good + f"{name}\t{dims}\n".encode(), f"parameter {name!r} repeats"),
            ("".join(rows[1:]).encode(), "the manifest's sizes add up to"),
            (good.replace(matrix.encode(), matrix.replace(
                matrix_dims, "-" + matrix_dims.replace(",", ",-")).encode()),
             "are not comma-separated non-negative integers")]:
        manifest.write_bytes(broken)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA, says
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and says in err and "Traceback" not in err
    manifest.write_bytes(good)
    payload = manifest.parent / "params.ubtn"
    payload.unlink()
    payload.mkdir()
    assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
    assert "params.ubtn: is a directory" in capsys.readouterr().err


def test_checkpoint_is_read_only_under_the_config_it_was_saved_with(workspace, capsys):
    # A pair-contrastive model pretrained with ring and diamond held out,
    # then fine-tuned and scored with circle and square held out: circle
    # and square were in its pretraining pairs.
    tmp, out, _ = workspace
    held_out = BASE_CFG.format(mode="pair-contrastive")
    other = held_out.replace("paired_fraction = 0.5",
                             "paired_fraction = 0.5\nnovel_shapes = circle, square")
    cfg, other_cfg = tmp / "pc.cfg", tmp / "pc-other.cfg"
    cfg.write_text(held_out)
    other_cfg.write_text(other)
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    assert main(["finetune-multitask", "--config", str(other_cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "differs in ['novel_shapes']" in err
    assert not (out / "model-pair-contrastive-seed0").exists()
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    for split in ("novel", "base"):
        capsys.readouterr()
        assert main(["eval", "--config", str(other_cfg), "--split", split]) == EXIT_DATA
        assert "differs in ['novel_shapes']" in capsys.readouterr().err
    assert not list(out.glob("eval-*.json"))
    # so is one whose config.txt reads as the same config in other text, one
    # whose config.txt is not a config, and one without a config.txt
    saved = out / "model-pair-contrastive-seed0" / "config.txt"
    for text, says in [(saved.read_text() + "# a note\n", "differs in its text alone"),
                       ("[run]\nsteps = x\n", "config.txt is not a config"),
                       (None, "has no config.txt")]:
        if text is None:
            saved.unlink()
        else:
            saved.write_text(text)
        assert main(["eval", "--config", str(cfg), "--split", "base"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and says in err and "Traceback" not in err


def test_checkpoint_in_the_per_parameter_layout_exits_3(workspace, capsys):
    """A checkpoint written before the one-payload layout (one `.ubtn` file
    per parameter, named by a third manifest column) is refused, not read."""
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    ckpt = out / "pretrain-masked-unimodal-seed0"
    state = load_checkpoint(ckpt)
    (ckpt / "params.ubtn").unlink()
    rows = []
    for i, (name, values) in enumerate(sorted(state.items())):
        save_tensor(ckpt / f"p{i:04d}.ubtn", values)
        rows.append(f"{name}\t{','.join(map(str, values.shape))}\tp{i:04d}.ubtn")
    (ckpt / "manifest.tsv").write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert "manifest.tsv:1: expected 2 tab-separated fields, name and dims" in err
    # its rows cut to name and dims, it still has no params.ubtn
    (ckpt / "manifest.tsv").write_text("".join(row.rsplit("\t", 1)[0] + "\n" for row in rows))
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "params.ubtn" in err and "Traceback" not in err
    assert not (out / "model-masked-unimodal-seed0").exists()


def test_vocab_size_below_the_vocabulary_exits_2(workspace):
    tmp, out, cfg = workspace
    small = BASE_CFG.replace("vocab_size = 32", "vocab_size = 20")
    configs = []
    for mode in ("masked-unimodal", "pair-contrastive"):
        path = tmp / f"{mode}-v20.cfg"
        path.write_text(small.format(mode=mode))
        configs += ["--config", str(path)]
    assert main(["compare", *configs, "--seeds", "0"]) == EXIT_CONFIG


def test_pair_contrastive_pretrain_batch_of_one_exits_2(workspace, capsys):
    # one pair contrasts with nothing; the batch is refused, never widened to 2
    tmp, out, cfg = workspace
    text = BASE_CFG.replace("steps = 2", "steps = 2\nbatch_size = 1", 1)
    one = tmp / "pc-b1.cfg"
    one.write_text(text.format(mode="pair-contrastive"))
    for command in ("pretrain", "finetune-multitask", "eval"):
        capsys.readouterr()
        assert main([command, "--config", str(one)]) == EXIT_CONFIG, command
        assert capsys.readouterr().err == (
            "config error: [pretrain] batch_size 1 must be >= 2 in pair-contrastive "
            "mode, which contrasts a batch's pairs\n"), command
    assert main(["compare", "--config", str(cfg), "--config", str(one),
                 "--seeds", "0"]) == EXIT_CONFIG
    assert not out.exists()
    # the other modes train on a batch of one
    for mode in ("masked-unimodal", "supervised"):
        assert parse_config(text.format(mode=mode)).pretrain_batch_size == 1


def test_out_flag_used_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("UNIBOOST_OUT", raising=False)
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    dest = tmp_path / "elsewhere"
    assert main(["pretrain", "--config", str(cfg), "--out", str(dest)]) == EXIT_OK
    assert (dest / "pretrain-masked-unimodal-seed0" / "manifest.tsv").exists()
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
    assert main(["pretrain", "--config", str(cfg), "--out", str(ignored)]) == EXIT_OK
    assert (env_dir / "pretrain-masked-unimodal-seed0" / "manifest.tsv").exists()
    assert not ignored.exists()


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_keeps_only_the_commands_and_flags_that_change_a_run(workspace):
    tmp, out, cfg = workspace
    settable = {name: sorted(a.dest for a in p._actions if not isinstance(a, argparse._HelpAction))
                for name, p in _subparsers().items()}
    assert settable == {"pretrain": ["config", "out", "seed"],
                        "finetune-multitask": ["config", "out", "seed"],
                        "eval": ["config", "out", "seed", "split", "vqa"],
                        "compare": ["config", "out", "seeds"]}
    assert all(p.get_default("seed") == 0 for name, p in _subparsers().items()
               if "seed" in settable[name])
    removed = [["report", "--input", str(out / "comparison.json")],
               ["gen-data", "--config", str(cfg)],
               ["split", "--config", str(cfg)],
               ["finetune-task", "--config", str(cfg), "--task", "seg"],
               ["eval", "--config", str(cfg), "--checkpoint", str(tmp)],
               ["compare", "--config", str(cfg), "--config", str(cfg), "--steps", "5"],
               ["compare", "--config", str(cfg), "--config", str(cfg), "--seed", "7"]]
    for command in ("pretrain", "finetune-multitask", "eval"):
        removed.append([command, "--config", str(cfg), "--steps", "5"])
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
