"""Per-layer metrics from the spans of one traced iteration.

The spans come from ``tracehook/perfbench_tracer.py``, one file per process.
A span's layer is its name up to the first dot. A layer's self time is the
time its spans were open minus the time their child spans cover.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

OP_GROUPS = ("matmul", "softmax", "gelu", "layer-norm", "add", "scale", "transpose",
             "masked-fill")
LAYERS = ("tensor", "nn", "optim", "encoders", "pretrain", "neck", "model", "scheduler",
          "shapeworld", "metrics", "pipeline", "tensorio", "config", "cli")
COMMANDS = ("compare", "pretrain", "finetune-multitask", "eval")
STAGES = ("pipeline.corpora", "pipeline.pretrain", "pipeline.finetune", "pipeline.eval")
TRAINING = ("pipeline.pretrain", "pipeline.finetune")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
METRICS: list[tuple[str, str, str]] = [
    ("tensor.ops", "count", "lower"),
    ("tensor.nodes", "count", "lower"),
    ("tensor.fwd_s", "s", "lower"),
    ("tensor.bwd_s", "s", "lower"),
    ("tensor.out_mb", "MB", "lower"),
    *[(f"tensor.{g}.{m}", unit, "lower") for g in (*OP_GROUPS, "other")
      for m, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))],
    ("tensor.live_graphs_max", "count", "lower"),
    ("tensor.gc_s", "s", "lower"),
    ("tensor.gc_collections", "count", "lower"),
    ("nn.attn.calls", "count", "lower"),
    ("nn.attn.s", "s", "lower"),
    ("nn.attn.nodes_per_call", "count", "lower"),
    ("nn.ffn.s", "s", "lower"),
    ("nn.layer_norm.s", "s", "lower"),
    ("nn.linear.s", "s", "lower"),
    ("optim.steps", "count", "lower"),
    ("optim.step_s", "s", "lower"),
    ("optim.step_ms_p50", "ms", "lower"),
    ("encoders.image.calls", "count", "lower"),
    ("encoders.image.s", "s", "lower"),
    ("encoders.text.calls", "count", "lower"),
    ("encoders.text.s", "s", "lower"),
    ("encoders.patchify.calls", "count", "lower"),
    ("pretrain.steps", "count", "lower"),
    ("pretrain.step_ms_p50", "ms", "lower"),
    ("pretrain.step_ms_p90", "ms", "lower"),
    ("pretrain.fwd_s", "s", "lower"),
    ("pretrain.bwd_s", "s", "lower"),
    ("pretrain.prep_s", "s", "lower"),
    ("neck.route_forward.calls", "count", "lower"),
    ("neck.route_forward.s", "s", "lower"),
    ("neck.seg_logits.s", "s", "lower"),
    ("neck.lm_generate.calls", "count", "lower"),
    ("neck.lm_generate.s", "s", "lower"),
    ("neck.lm_generate.tokens", "count", "lower"),
    ("model.seg_loss.s", "s", "lower"),
    ("model.cls_loss.s", "s", "lower"),
    ("model.caption_loss.s", "s", "lower"),
    ("model.vqa_loss.s", "s", "lower"),
    ("model.seg_predict.s", "s", "lower"),
    ("model.generate_answer.s", "s", "lower"),
    ("model.prompt_encodes", "count", "lower"),
    ("scheduler.next_batch.calls", "count", "lower"),
    ("scheduler.next_batch.s", "s", "lower"),
    ("scheduler.rebalance.s", "s", "lower"),
    ("scheduler.augment.calls", "count", "lower"),
    ("scheduler.augment.s", "s", "lower"),
    ("scheduler.data_wait_s", "s", "lower"),
    ("shapeworld.corpora.calls", "count", "lower"),
    ("shapeworld.corpora.s", "s", "lower"),
    ("shapeworld.eval_corpus.calls", "count", "lower"),
    ("shapeworld.eval_corpus.s", "s", "lower"),
    ("shapeworld.duplicate_builds", "count", "lower"),
    ("metrics.accumulate.calls", "count", "lower"),
    ("metrics.accumulate.s", "s", "lower"),
    ("metrics.pixels", "count", "lower"),
    ("pipeline.jobs", "count", "lower"),
    ("pipeline.job_s_p50", "s", "lower"),
    ("pipeline.job_s_max", "s", "lower"),
    ("pipeline.corpora_s", "s", "lower"),
    ("pipeline.pretrain_s", "s", "lower"),
    ("pipeline.finetune_s", "s", "lower"),
    ("pipeline.eval_s", "s", "lower"),
    ("pipeline.cpu_s", "s", "lower"),
    ("pipeline.overlap", "ratio", "higher"),
    ("pipeline.untraced_s", "s", "lower"),
    ("pipeline.coverage", "ratio", "higher"),
    ("tensorio.save.calls", "count", "lower"),
    ("tensorio.save.s", "s", "lower"),
    ("tensorio.save.mb", "MB", "lower"),
    ("tensorio.load.calls", "count", "lower"),
    ("tensorio.load.s", "s", "lower"),
    ("tensorio.load.mb", "MB", "lower"),
    ("config.parse.calls", "count", "lower"),
    ("config.parse.s", "s", "lower"),
    *[(f"cli.{c}.s", "s", "lower") for c in COMMANDS],
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def load_processes(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _op_group(tag: str) -> str:
    return tag if tag in OP_GROUPS else "other"


def layer_metrics(processes: list[dict], wall_s: float, untraced_wall_s: float,
                  cpu_s: float) -> dict[str, float]:
    """Every metric of ``METRICS``, from the spans of all processes of one
    traced iteration that took ``wall_s`` (untraced: ``untraced_wall_s``)."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    v: dict[str, float] = defaultdict(float)
    job_s: list[float] = []
    cli_s: list[float] = []
    builds: list[tuple[float, str]] = []
    pretrain_steps_ms: list[float] = []
    optim_ms: list[float] = []
    covered = 0.0
    attn_nodes = 0
    attn_training_calls = 0
    n_spans = 0

    for proc in processes:
        spans = proc["spans"]
        n_spans += len(spans)
        children: dict[int, float] = defaultdict(float)
        for sid, name, t0, t1, parent, job, attr in spans:
            children[parent] += t1 - t0
        # a parent is appended after its children, so reversed order visits
        # every parent first
        info: dict[int, tuple[str | None, bool, bool]] = {}
        step_marks: list[tuple[float, float, bool]] = []
        for sid, name, t0, t1, parent, job, attr in reversed(spans):
            dur = t1 - t0
            stage, in_op, in_attn = info.get(parent, (None, False, False))
            is_op = name.startswith("tensor.") or name == "optim.step"
            info[sid] = (name if name in STAGES else stage, in_op or is_op,
                         in_attn or name == "nn.attn")
            count[name] += 1
            total[name] += dur
            self_s[name.split(".", 1)[0]] += dur - children[sid]
            if isinstance(attr, (int, float)):
                attr_sum[name] += attr
            if is_op and not in_op and stage in TRAINING:
                covered += dur
            if name.startswith("tensor.bwd."):
                v[f"tensor.{_op_group(name[11:])}.bwd_s"] += dur
            elif name.startswith("tensor.") and name != "tensor.backward":
                group = _op_group(name[7:])
                v["tensor.ops"] += 1
                v[f"tensor.{group}.calls"] += 1
                v[f"tensor.{group}.fwd_s"] += dur
                if not in_op:
                    v["tensor.fwd_s"] += dur
                v["tensor.out_mb"] += attr[0] / 1e6
                if in_attn and attr[1]:
                    attn_nodes += 1
            elif name == "nn.attn" and stage in TRAINING:
                attn_training_calls += 1
            elif name == "optim.step":
                optim_ms.append(1e3 * dur)
            if name == "tensor.backward" and stage == "pipeline.pretrain":
                v["pretrain.bwd_s"] += dur
            elif name == "pipeline.job":
                job_s.append(dur)
            elif name.startswith("cli."):
                cli_s.append(dur)
            elif name == "shapeworld.corpora":
                builds.append((t0, attr))
            elif name == "scheduler.next_batch" and stage == "pipeline.finetune":
                v["scheduler.data_wait_s"] += dur
            if stage == "pipeline.pretrain" and (name.startswith("pretrain.loss.")
                                                 or name == "optim.step"):
                step_marks.append((t0, t1, name == "optim.step"))
        # a pretrain step runs from its loss call to the end of the next
        # optimizer step
        start = None
        for t0, t1, is_step in sorted(step_marks):
            if not is_step:
                start = t0
            elif start is not None:
                pretrain_steps_ms.append(1e3 * (t1 - start))
                start = None
        counters = proc["counters"]
        v["tensor.live_graphs_max"] = max(v["tensor.live_graphs_max"],
                                          counters["live_graphs_max"])
        v["tensor.gc_s"] += counters["gc_s"]
        v["tensor.gc_collections"] += counters["gc_collections"]

    seen: set[str] = set()
    for _, key in sorted(builds):
        v["shapeworld.duplicate_builds"] += key in seen
        seen.add(key)
    jobs = job_s or cli_s
    training_s = total["pipeline.pretrain"] + total["pipeline.finetune"]

    v.update({
        "tensor.nodes": attr_sum["tensor.backward"],
        "tensor.bwd_s": total["tensor.backward"],
        "nn.attn.calls": count["nn.attn"],
        "nn.attn.s": total["nn.attn"],
        "nn.attn.nodes_per_call": attn_nodes / attn_training_calls if attn_training_calls else 0,
        "nn.ffn.s": total["nn.ffn"],
        "nn.layer_norm.s": total["nn.layer_norm"],
        "nn.linear.s": total["nn.linear"],
        "optim.steps": count["optim.step"],
        "optim.step_s": total["optim.step"],
        "optim.step_ms_p50": _pct(optim_ms, 50),
        "encoders.image.calls": count["encoders.image.layers"],
        "encoders.image.s": total["encoders.image.layers"] + total["encoders.image.embed"],
        "encoders.text.calls": count["encoders.text.layers"],
        "encoders.text.s": total["encoders.text.layers"] + total["encoders.text.embed"],
        "encoders.patchify.calls": count["encoders.patchify"],
        "pretrain.steps": len(pretrain_steps_ms),
        "pretrain.step_ms_p50": _pct(pretrain_steps_ms, 50),
        "pretrain.step_ms_p90": _pct(pretrain_steps_ms, 90),
        "pretrain.fwd_s": sum(total[n] for n in total if n.startswith("pretrain.loss.")),
        "pretrain.prep_s": total["pipeline.pretrain"] - sum(pretrain_steps_ms) / 1e3,
        "neck.route_forward.calls": count["neck.route_forward"],
        "neck.route_forward.s": total["neck.route_forward"],
        "neck.seg_logits.s": total["neck.seg_logits"],
        "neck.lm_generate.calls": count["neck.lm_generate"],
        "neck.lm_generate.s": total["neck.lm_generate"],
        "neck.lm_generate.tokens": attr_sum["neck.lm_generate"],
        **{f"model.{m}.s": total[f"model.{m}"] for m in (
            "seg_loss", "cls_loss", "caption_loss", "vqa_loss", "seg_predict",
            "generate_answer")},
        "model.prompt_encodes": count["model.seg_patch_logits"] + count["model.class_prompts"],
        "scheduler.next_batch.calls": count["scheduler.next_batch"],
        "scheduler.next_batch.s": total["scheduler.next_batch"],
        "scheduler.rebalance.s": total["scheduler.rebalance"],
        "scheduler.augment.calls": count["scheduler.augment"],
        "scheduler.augment.s": total["scheduler.augment"],
        "shapeworld.corpora.calls": count["shapeworld.corpora"],
        "shapeworld.corpora.s": total["shapeworld.corpora"],
        "shapeworld.eval_corpus.calls": count["shapeworld.eval_corpus"],
        "shapeworld.eval_corpus.s": total["shapeworld.eval_corpus"],
        "metrics.accumulate.calls": count["metrics.accumulate"],
        "metrics.accumulate.s": total["metrics.accumulate"],
        "metrics.pixels": attr_sum["metrics.accumulate"],
        "pipeline.jobs": len(jobs),
        "pipeline.job_s_p50": _pct(jobs, 50),
        "pipeline.job_s_max": max(jobs, default=0.0),
        "pipeline.corpora_s": total["pipeline.corpora"],
        "pipeline.pretrain_s": total["pipeline.pretrain"],
        "pipeline.finetune_s": total["pipeline.finetune"],
        "pipeline.eval_s": total["pipeline.eval"],
        "pipeline.cpu_s": cpu_s,
        "pipeline.overlap": sum(jobs) / wall_s,
        "pipeline.untraced_s": training_s - covered,
        "pipeline.coverage": covered / training_s if training_s else 0.0,
        **{f"tensorio.{io}.{m}": val for io in ("save", "load") for m, val in (
            ("calls", count[f"tensorio.{io}"]), ("s", total[f"tensorio.{io}"]),
            ("mb", attr_sum[f"tensorio.{io}"] / 1e6))},
        "config.parse.calls": count["config.parse"],
        "config.parse.s": total["config.parse"],
        **{f"cli.{c}.s": total[f"cli.{c}"] for c in COMMANDS},
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.spans": n_spans,
    })
    return {name: float(v[name]) for name, _, _ in METRICS}
