"""Command-line harness: subcommand flow, exit codes, output routing."""

import json

import pytest

from uniboost.cli import EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, main

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

    assert main(["split", "--config", str(cfg)]) == EXIT_OK
    splits = json.loads((out / "splits.json").read_text())
    assert set(splits["folds"]) == {"fold0", "fold1", "fold2", "fold3"}
    assert splits["configured_novel"] == ["ring", "diamond"]

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


def test_finetune_single_task_and_vqa_eval(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-task", "--config", str(cfg), "--task", "seg"]) == EXIT_OK
    assert main(["eval", "--config", str(cfg), "--split", "novel", "--vqa"]) == EXIT_OK
    report = json.loads((out / "eval-novel.json").read_text())
    assert "vqa_exact_match" in report

    assert main(["finetune-task", "--config", str(cfg), "--task", "nope"]) == EXIT_CONFIG


def test_compare_and_report(workspace, capsys):
    tmp, out, cfg = workspace
    other = tmp / "pc.cfg"
    other.write_text(BASE_CFG.format(mode="pair-contrastive"))

    rc = main(["compare", "--config", str(cfg), "--config", str(other),
               "--seeds", "0"])
    assert rc == EXIT_OK
    assert (out / "comparison.csv").exists()
    assert (out / "comparison.txt").exists()
    screen = capsys.readouterr().out
    assert "wins[masked-unimodal]" in screen

    rc = main(["report", "--input", str(out / "comparison.json")])
    assert rc == EXIT_OK

    assert main(["report", "--input", str(out / "ghost.json")]) == EXIT_DATA
    assert main(["compare", "--config", str(cfg), "--seeds", "0"]) == EXIT_CONFIG
    assert main(["compare", "--config", str(cfg), "--config", str(cfg),
                 "--seeds", "0"]) == EXIT_CONFIG  # same mode twice


def test_config_errors_exit_2(workspace, tmp_path):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(tmp / "missing.cfg")]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("[encoder]\ndepth = 3\n")
    assert main(["gen-data", "--config", str(bad)]) == EXIT_CONFIG


def test_data_errors_exit_3(workspace):
    tmp, out, cfg = workspace
    # eval without any checkpoint ever written
    assert main(["eval", "--config", str(cfg), "--split", "novel"]) == EXIT_DATA
    # config points at a manifest that does not exist
    broken = tmp / "broken.cfg"
    broken.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "[data]", "[data]\nmanifest = /nowhere/manifest.tsv"))
    assert main(["pretrain", "--config", str(broken)]) == EXIT_DATA


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
    assert not (out / "eval-novel.json").exists()


def test_checkpoint_that_does_not_fit_the_config_exits_3(workspace):
    tmp, out, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_OK
    assert main(["finetune-multitask", "--config", str(cfg)]) == EXIT_OK
    wider = tmp / "wider.cfg"
    wider.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "width = 16", "width = 24"))
    assert main(["finetune-multitask", "--config", str(wider)]) == EXIT_DATA
    assert main(["finetune-task", "--config", str(wider), "--task", "seg"]) == EXIT_DATA
    assert main(["eval", "--config", str(wider), "--split", "base"]) == EXIT_DATA
    deeper = tmp / "deeper.cfg"
    deeper.write_text(BASE_CFG.format(mode="masked-unimodal").replace(
        "layers = 1", "layers = 2"))
    assert main(["eval", "--config", str(deeper), "--split", "base"]) == EXIT_DATA


def test_truncated_comparison_record_exits_3(workspace):
    tmp, out, cfg = workspace
    record = tmp / "comparison.json"
    record.write_text('{"fold_labels": ["novel"], "rows": [')
    assert main(["report", "--input", str(record)]) == EXIT_DATA
    record.write_text('{"fold_labels": ["novel"]}')
    assert main(["report", "--input", str(record)]) == EXIT_DATA


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
    assert main(["split", "--config", str(cfg), "--out", str(dest)]) == EXIT_OK
    assert (dest / "splits.json").exists()


def test_env_overrides_out_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("UNIBOOST_OUT", str(env_dir))
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(BASE_CFG.format(mode="masked-unimodal"))
    ignored = tmp_path / "ignored"
    assert main(["split", "--config", str(cfg), "--out", str(ignored)]) == EXIT_OK
    assert (env_dir / "splits.json").exists()
    assert not ignored.exists()
