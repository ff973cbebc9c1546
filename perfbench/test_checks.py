"""Self-tests of the benchmark: every output check turns a corrupted
artifact into a failed operation, and the metric lists agree with
BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import pytest

import run
from checks import (OpResult, StreamConfig, check_compare, check_eval, check_finetune,
                    check_pretrain, compare_fingerprints)
from layers import METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
CHAIN = StreamConfig.read(BENCH / "configs" / "chain-masked-unimodal.cfg")
SEED = 3


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def _chain_outputs(out: Path) -> None:
    """The artifacts a correct stage-chain leaves, for the chain config."""
    ckpt = out / f"pretrain-{CHAIN.mode}-seed{SEED}"
    _write(ckpt / "losses.json", {"mim": [0.1] * CHAIN.pretrain_steps,
                                  "mlm": [4.0] * CHAIN.pretrain_steps})
    (ckpt / "manifest.tsv").write_text("")
    mdir = out / f"model-{CHAIN.mode}-seed{SEED}"
    tasks = sorted(CHAIN.task_batch)
    per_task = [CHAIN.steps // len(tasks)] * len(tasks)
    per_task[0] += CHAIN.steps - sum(per_task)
    _write(mdir / "losses.json", {t: [1.0] * n for t, n in zip(tasks, per_task)})
    (mdir / "manifest.tsv").write_text("")
    _write(mdir / "training_audit.json", {"tokens": ["a", "red", "square"],
                                          "mask_labels": [0, 1]})
    for split in ("base", "novel"):
        _write(out / f"eval-{split}.json", {"samples": CHAIN.eval_samples, "miou": 0.3,
                                            "fb_iou": 0.5, "pix_acc": 0.9,
                                            "vqa_exact_match": 0.0})


def _chain_ops(out: Path) -> list[OpResult]:
    return [*check_pretrain(out, CHAIN, SEED).ops, *check_finetune(out, CHAIN, SEED).ops,
            *check_eval(out, CHAIN, SEED, "base").ops,
            *check_eval(out, CHAIN, SEED, "novel").ops]


def _failed(ops: list[OpResult]) -> set[str]:
    return {op.name for op in ops if not op.ok}


def test_intact_chain_passes(tmp_path):
    _chain_outputs(tmp_path)
    assert _failed(_chain_ops(tmp_path)) == set()


def test_short_pretrain_trace_fails(tmp_path):
    _chain_outputs(tmp_path)
    path = tmp_path / f"pretrain-{CHAIN.mode}-seed{SEED}" / "losses.json"
    losses = json.loads(path.read_text())
    losses["mlm"].pop()
    _write(path, losses)
    assert _failed(_chain_ops(tmp_path)) == {"pretrain"}


def test_short_finetune_trace_fails(tmp_path):
    _chain_outputs(tmp_path)
    path = tmp_path / f"model-{CHAIN.mode}-seed{SEED}" / "losses.json"
    losses = json.loads(path.read_text())
    losses["seg"].pop()
    _write(path, losses)
    assert _failed(_chain_ops(tmp_path)) == {"finetune-multitask"}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_loss_fails(tmp_path, bad):
    _chain_outputs(tmp_path)
    path = tmp_path / f"model-{CHAIN.mode}-seed{SEED}" / "losses.json"
    losses = json.loads(path.read_text())
    losses["vqa"][-1] = bad
    path.write_text(json.dumps(losses))  # json writes NaN / Infinity
    assert _failed(_chain_ops(tmp_path)) == {"finetune-multitask"}


def test_missing_audit_fails(tmp_path):
    _chain_outputs(tmp_path)
    (tmp_path / f"model-{CHAIN.mode}-seed{SEED}" / "training_audit.json").unlink()
    assert _failed(_chain_ops(tmp_path)) == {"finetune-multitask", "eval-novel"}


def test_leaky_audit_fails(tmp_path):
    _chain_outputs(tmp_path)
    _write(tmp_path / f"model-{CHAIN.mode}-seed{SEED}" / "training_audit.json",
           {"tokens": ["a", CHAIN.novel_shapes[0]], "mask_labels": [0]})
    assert _failed(_chain_ops(tmp_path)) == {"finetune-multitask", "eval-novel"}


def test_short_eval_and_bad_metric_fail(tmp_path):
    _chain_outputs(tmp_path)
    _write(tmp_path / "eval-base.json", {"samples": CHAIN.eval_samples - 1, "miou": 0.3,
                                         "fb_iou": 0.5, "pix_acc": 0.9,
                                         "vqa_exact_match": 0.0})
    _write(tmp_path / "eval-novel.json", {"samples": CHAIN.eval_samples, "miou": 1.5,
                                          "fb_iou": 0.5, "pix_acc": 0.9,
                                          "vqa_exact_match": 0.0})
    assert _failed(_chain_ops(tmp_path)) == {"eval-base", "eval-novel"}


def test_mismatched_fingerprint_fails(tmp_path):
    _chain_outputs(tmp_path)
    first = _chain_ops(tmp_path)
    path = tmp_path / f"pretrain-{CHAIN.mode}-seed{SEED}" / "losses.json"
    losses = json.loads(path.read_text())
    losses["mim"][0] += 1e-12
    _write(path, losses)
    second = _chain_ops(tmp_path)
    third = _chain_ops(tmp_path)
    compare_fingerprints([first, second, third])
    assert _failed(first) == set()
    assert _failed(second) == _failed(third) == {"pretrain"}


def _compare_outputs(out: Path, rows, wins=("masked-unimodal", "pair-contrastive")):
    lines = ["row-type,stream,seed,novel,mean,fb-iou"]
    lines += [f"result,{s},{seed},30.0,30.0,50.0" for s, seed in rows]
    lines += [f"wins,{s},,,1," for s in wins]
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    _write(out / "comparison.json", {
        "rows": [{"stream": s, "seed": seed, "fold_scores": {"novel": 30.0}, "mean": 30.0,
                  "fb": 50.0} for s, seed in rows],
        "stream_means": {"masked-unimodal": 0.3, "pair-contrastive": 0.3}})


def test_compare_checks_every_job(tmp_path):
    cfgs = [StreamConfig.read(BENCH / "configs" / f"sweep-{m}.cfg")
            for m in ("masked-unimodal", "pair-contrastive")]
    jobs = [(s, seed) for s in ("masked-unimodal", "pair-contrastive") for seed in (5, 6)]
    _compare_outputs(tmp_path, jobs)
    result = check_compare(tmp_path, cfgs, [5, 6])
    assert len(result.ops) == 4 and _failed(result.ops) == set()
    assert result.eval_images == 4 * cfgs[0].eval_samples

    _compare_outputs(tmp_path, jobs[:-1])
    assert len(_failed(check_compare(tmp_path, cfgs, [5, 6]).ops)) == 4

    _compare_outputs(tmp_path, jobs, wins=("masked-unimodal",))
    assert len(_failed(check_compare(tmp_path, cfgs, [5, 6]).ops)) == 4


def test_layer_self_time():
    spans = [  # (id, name, start, end, parent, job, attr), children end first
        (3, "tensor.matmul", 1.0, 2.0, 2, "j", (800, True)),
        (2, "nn.attn", 0.5, 3.0, 1, "j", None),
        (4, "optim.step", 3.0, 3.5, 1, "j", None),
        (1, "pipeline.finetune", 0.0, 4.0, 0, "j", None),
    ]
    proc = {"spans": spans, "counters": {"live_graphs_max": 2, "gc_s": 0.0,
                                         "gc_collections": 0}}
    m = layer_metrics([proc], wall_s=4.0, untraced_wall_s=3.0, cpu_s=4.0)
    assert m["tensor.self_s"] == 1.0
    assert m["nn.self_s"] == 1.5
    assert m["pipeline.self_s"] == 1.0
    assert m["pipeline.coverage"] == 1.5 / 4.0
    assert m["nn.attn.nodes_per_call"] == 1.0
    assert m["trace.overhead_s"] == 1.0
    assert set(m) == {name for name, _, _ in METRICS}


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_without_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "stage-chain", "--seed", "0"]) != 0
    assert capsys.readouterr().out == ""
