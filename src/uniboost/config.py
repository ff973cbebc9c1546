"""Experiment configuration: a small `key = value` format with bracketed
sections, full validation against a declared schema (unknown keys and
sections are errors, never silent), and a canonical serialization whose
reparse reproduces the config exactly.

Task sections use the header form ``[task <id>]`` and may repeat with
distinct ids; all other sections appear at most once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields as dc_fields

from .encoders import EncoderConfig
from .neck import NeckConfig
from .scheduler import RebalancePolicy
from .shapeworld import ShapeWorldConfig, build_vocabulary

__all__ = ["ExperimentConfig", "TaskSpec", "ConfigError", "parse_config",
           "serialize_config", "config_fingerprint", "diff_configs",
           "encoder_config", "neck_config", "world_config"]

PRETRAIN_MODES = ("supervised", "pair-contrastive", "masked-unimodal")
ROUTES = ("image-only", "text-only", "language-guided-vision",
          "image-to-text-gen", "deep-fusion")
# The head alone picks the neck route (see ``model.py``); ``route`` must name it.
HEAD_ROUTES = {"cls": "image-only", "seg": "language-guided-vision",
               "caption": "image-to-text-gen", "vqa": "deep-fusion"}
SCHEDULES = ("cosine", "linear", "step")
# The longest text the text encoder reads: a five-word question plus three
# greedy VQA decoding slots (training reads at most question, answer, EOS).
MAX_TEXT_TOKENS = 8


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


@dataclass
class TaskSpec:
    task_id: str = ""
    route: str = "language-guided-vision"
    head: str = "seg"
    batch_size: int = 8

    def validate(self):
        if self.route not in ROUTES:
            raise ConfigError(f"task {self.task_id}: unknown route {self.route!r}")
        if self.head not in HEAD_ROUTES:
            raise ConfigError(f"task {self.task_id}: unknown head {self.head!r}")
        if self.route != HEAD_ROUTES[self.head]:
            raise ConfigError(f"task {self.task_id}: head {self.head!r} runs route "
                              f"{HEAD_ROUTES[self.head]!r}, not {self.route!r}")
        if self.batch_size < 1:
            raise ConfigError(f"task {self.task_id}: batch_size must be >= 1")


@dataclass
class ExperimentConfig:
    # [encoder]
    layers: int = 2
    width: int = 32
    heads: int = 4
    patch_size: int = 4
    max_tokens: int = 80
    vocab_size: int = 64
    # [neck]
    fusion_layers: int = 2
    fusion_heads: int = 4
    common_width: int = 32
    layer_set: tuple[int, ...] = (1, 2)
    # [pretrain]
    pretrain_mode: str = "masked-unimodal"
    pretrain_steps: int = 300
    pretrain_batch_size: int = 8
    pretrain_peak_lr: float = 1e-3
    # [data]
    grid_size: int = 16
    samples_per_corpus: int = 2048
    paired_fraction: float = 0.25
    novel_shapes: tuple[str, ...] = ("ring", "diamond")
    family_affinity: float = 0.5
    color_affinity: float = 0.6
    data_seed: int = 0
    manifest: str = ""
    # [optimizer]
    peak_lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_steps: int = 50
    schedule: str = "cosine"
    encoder_lr_ratio: float = 0.1
    freeze_encoders: bool = False
    # [run]
    steps: int = 300
    batch_size: int = 8
    seed: int = 0
    out: str = "runs"
    rebalance_threshold: int = 640
    eval_samples: int = 80
    # [task <id>] sections
    tasks: list[TaskSpec] = field(default_factory=list)

    def validate(self):
        if self.pretrain_mode not in PRETRAIN_MODES:
            raise ConfigError(f"unknown pretrain mode {self.pretrain_mode!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.encoder_lr_ratio <= 0:
            raise ConfigError("encoder_lr_ratio must be positive")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps {self.warmup_steps} must be >= 0")
        try:
            encoder_config(self)
            neck_config(self)
            world_config(self)
            RebalancePolicy(threshold=self.rebalance_threshold)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(str(exc)) from None
        if self.grid_size % self.patch_size:
            raise ConfigError(
                f"patch_size {self.patch_size} does not divide grid_size {self.grid_size}")
        n_patches = (self.grid_size // self.patch_size) ** 2
        if n_patches > self.max_tokens:
            raise ConfigError(f"{n_patches} image patches exceed max_tokens {self.max_tokens}")
        if self.max_tokens < MAX_TEXT_TOKENS:
            raise ConfigError(f"max_tokens {self.max_tokens} is below the "
                              f"{MAX_TEXT_TOKENS} tokens of a question and its decoding")
        if any(not 1 <= l <= self.layers for l in self.layer_set):
            raise ConfigError(f"layer_set {self.layer_set} outside 1..{self.layers}")
        n_words = len(build_vocabulary())
        if self.vocab_size < n_words:
            raise ConfigError(
                f"vocab_size {self.vocab_size} is below the {n_words}-entry vocabulary")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate task ids: {sorted(ids)}")
        for t in self.tasks:
            t.validate()
        return self


def encoder_config(cfg: ExperimentConfig) -> EncoderConfig:
    return EncoderConfig(layers=cfg.layers, width=cfg.width, heads=cfg.heads,
                         max_tokens=cfg.max_tokens, patch_size=cfg.patch_size,
                         vocab_size=cfg.vocab_size)


def neck_config(cfg: ExperimentConfig) -> NeckConfig:
    return NeckConfig(encoder_width=cfg.width, text_width=cfg.width,
                      layer_set=tuple(cfg.layer_set), common_width=cfg.common_width,
                      fusion_layers=cfg.fusion_layers, fusion_heads=cfg.fusion_heads,
                      vocab_size=cfg.vocab_size)


def world_config(cfg: ExperimentConfig) -> ShapeWorldConfig:
    return ShapeWorldConfig(grid_size=cfg.grid_size,
                            samples_per_corpus=cfg.samples_per_corpus,
                            paired_fraction=cfg.paired_fraction,
                            novel_shapes=tuple(cfg.novel_shapes),
                            family_affinity=cfg.family_affinity,
                            color_affinity=cfg.color_affinity,
                            seed=cfg.data_seed)


def _parse_scalar(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError
        if kind == "str":
            return raw
        if kind == "int-list":
            return tuple(int(x) for x in raw.split(",") if x.strip()) if raw else ()
        if kind == "str-list":
            return tuple(x.strip() for x in raw.split(",") if x.strip()) if raw else ()
    except ValueError:
        raise ConfigError(f"{where}: expected {kind}, got {raw!r}") from None
    raise AssertionError(f"unhandled kind {kind}")


# section -> key -> (config attribute, type)
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "encoder": {
        "layers": ("layers", "int"),
        "width": ("width", "int"),
        "heads": ("heads", "int"),
        "patch_size": ("patch_size", "int"),
        "max_tokens": ("max_tokens", "int"),
        "vocab_size": ("vocab_size", "int"),
    },
    "neck": {
        "fusion_layers": ("fusion_layers", "int"),
        "fusion_heads": ("fusion_heads", "int"),
        "common_width": ("common_width", "int"),
        "layer_set": ("layer_set", "int-list"),
    },
    "pretrain": {
        "mode": ("pretrain_mode", "str"),
        "steps": ("pretrain_steps", "int"),
        "batch_size": ("pretrain_batch_size", "int"),
        "peak_lr": ("pretrain_peak_lr", "float"),
    },
    "data": {
        "grid_size": ("grid_size", "int"),
        "samples_per_corpus": ("samples_per_corpus", "int"),
        "paired_fraction": ("paired_fraction", "float"),
        "novel_shapes": ("novel_shapes", "str-list"),
        "family_affinity": ("family_affinity", "float"),
        "color_affinity": ("color_affinity", "float"),
        "seed": ("data_seed", "int"),
        "manifest": ("manifest", "str"),
    },
    "optimizer": {
        "peak_lr": ("peak_lr", "float"),
        "weight_decay": ("weight_decay", "float"),
        "warmup_steps": ("warmup_steps", "int"),
        "schedule": ("schedule", "str"),
        "encoder_lr_ratio": ("encoder_lr_ratio", "float"),
        "freeze_encoders": ("freeze_encoders", "bool"),
    },
    "run": {
        "steps": ("steps", "int"),
        "batch_size": ("batch_size", "int"),
        "seed": ("seed", "int"),
        "out": ("out", "str"),
        "rebalance_threshold": ("rebalance_threshold", "int"),
        "eval_samples": ("eval_samples", "int"),
    },
}

_TASK_SCHEMA = {
    "route": ("route", "str"),
    "head": ("head", "str"),
    "batch_size": ("batch_size", "int"),
}


def parse_config(text: str) -> ExperimentConfig:
    config = ExperimentConfig()
    section: str | None = None
    current_task: TaskSpec | None = None
    seen_sections: set[str] = set()
    seen_keys: set[tuple[str, str]] = set()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: unterminated section header {line!r}")
            header = line[1:-1].strip()
            if header == "task" or header.startswith("task "):
                task_id = header[4:].strip()
                if not task_id:
                    raise ConfigError(f"{where}: task section needs an id")
                if any(t.task_id == task_id for t in config.tasks):
                    raise ConfigError(f"{where}: duplicate task section {task_id!r}")
                current_task = TaskSpec(task_id=task_id,
                                        batch_size=config.batch_size)
                config.tasks.append(current_task)
                section = "task"
            else:
                if header not in _SCHEMA:
                    raise ConfigError(f"{where}: unknown section [{header}]")
                if header in seen_sections:
                    raise ConfigError(f"{where}: duplicate section [{header}]")
                seen_sections.add(header)
                section = header
                current_task = None
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if section is None:
            raise ConfigError(f"{where}: key {key!r} outside any section")
        if section == "task":
            if key not in _TASK_SCHEMA:
                raise ConfigError(f"{where}: unknown key {key!r} in task section")
            attr, kind = _TASK_SCHEMA[key]
            setattr(current_task, attr, _parse_scalar(kind, value, where))
        else:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
            if (section, key) in seen_keys:
                raise ConfigError(f"{where}: duplicate key {key!r} in [{section}]")
            seen_keys.add((section, key))
            attr, kind = _SCHEMA[section][key]
            setattr(config, attr, _parse_scalar(kind, value, where))

    return config.validate()


def _format_value(kind: str, value) -> str:
    if kind in ("int-list", "str-list"):
        return ",".join(str(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, kind) in keys.items():
            lines.append(f"{key} = {_format_value(kind, getattr(config, attr))}")
        lines.append("")
    for t in config.tasks:
        lines.append(f"[task {t.task_id}]")
        for key, (attr, kind) in _TASK_SCHEMA.items():
            lines.append(f"{key} = {_format_value(kind, getattr(t, attr))}")
        lines.append("")
    return "\n".join(lines)


def config_fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()[:16]


def diff_configs(a: ExperimentConfig, b: ExperimentConfig,
                 ignore: tuple[str, ...] = ()) -> list[str]:
    """Names of top-level fields (and task ids) where the configs differ."""
    out = []
    for f in dc_fields(ExperimentConfig):
        if f.name in ignore or f.name == "tasks":
            continue
        if getattr(a, f.name) != getattr(b, f.name):
            out.append(f.name)
    if [(t.task_id, t.route, t.head, t.batch_size) for t in a.tasks] != \
            [(t.task_id, t.route, t.head, t.batch_size) for t in b.tasks]:
        out.append("tasks")
    return out
