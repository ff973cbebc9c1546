"""Experiment configuration: a small `key = value` format with bracketed
sections, full validation (unknown keys and sections are errors, never
silent), and a canonical serialization whose reparse reproduces the config
exactly.

The ``ExperimentConfig`` and ``TaskSpec`` dataclasses are the schema.
Parsing, serialization and diffing walk their fields, in field order: a
field belongs to the section that the last ``_opens`` field at or before it
opened, its key is its name less a ``<section>_`` prefix (``pretrain_mode``
is ``[pretrain] mode``), and its annotation is its type. Allowed values come
from the modules that own them (``PretrainMode``, ``RouteKind``,
``optim.schedule_factor``). Adding a key means adding one field.

Task sections use the header form ``[task <id>]`` and may repeat with
distinct ids; all other sections appear at most once. A task without a
``batch_size`` takes ``[run] batch_size``, wherever ``[run]`` sits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import Field, dataclass, field, fields as dc_fields

from .encoders import EncoderConfig
from .neck import NeckConfig, RouteKind
from .optim import schedule_factor
from .pretrain import PretrainMode
from .scheduler import RebalancePolicy
from .shapeworld import ShapeWorldConfig, build_vocabulary

__all__ = ["ExperimentConfig", "TaskSpec", "ConfigError", "parse_config",
           "serialize_config", "config_fingerprint", "diff_configs",
           "encoder_config", "neck_config", "world_config"]

# The head alone picks the neck route (see ``model.py``); ``route`` must name it.
HEAD_ROUTES = {"cls": RouteKind.IMAGE_ONLY, "seg": RouteKind.LANGUAGE_GUIDED_VISION,
               "caption": RouteKind.IMAGE_TO_TEXT_GEN, "vqa": RouteKind.DEEP_FUSION}
# The longest text the text encoder reads: a five-word question plus three
# greedy VQA decoding slots (training reads at most question, answer, EOS).
MAX_TEXT_TOKENS = 8
# Lower bounds on the counts and seeds that no sub-config checks.
_MINIMUMS = {"width": 1, "heads": 1, "fusion_layers": 0, "fusion_heads": 1,
             "common_width": 1, "pretrain_steps": 0, "pretrain_batch_size": 1,
             "samples_per_corpus": 1, "data_seed": 0, "warmup_steps": 0, "steps": 0,
             "batch_size": 1, "seed": 0, "eval_samples": 1}


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


def _opens(section: str, default):
    """A field that opens ``[section]``; the fields after it, up to the next
    such field, belong to that section too."""
    return field(default=default, metadata={"section": section})


@dataclass
class TaskSpec:
    task_id: str = ""
    route: str = "language-guided-vision"
    head: str = "seg"
    batch_size: int = 8

    def validate(self):
        if self.route not in {r.value for r in RouteKind}:
            raise ConfigError(f"task {self.task_id}: unknown route {self.route!r}")
        if self.head not in HEAD_ROUTES:
            raise ConfigError(f"task {self.task_id}: unknown head {self.head!r}")
        if self.route != HEAD_ROUTES[self.head].value:
            raise ConfigError(f"task {self.task_id}: head {self.head!r} runs route "
                              f"{HEAD_ROUTES[self.head].value!r}, not {self.route!r}")
        if self.batch_size < 1:
            raise ConfigError(f"task {self.task_id}: batch_size must be >= 1")


@dataclass
class ExperimentConfig:
    layers: int = _opens("encoder", 2)
    width: int = 32
    heads: int = 4
    patch_size: int = 4
    max_tokens: int = 80
    vocab_size: int = 64
    fusion_layers: int = _opens("neck", 2)
    fusion_heads: int = 4
    common_width: int = 32
    layer_set: tuple[int, ...] = (1, 2)
    pretrain_mode: str = _opens("pretrain", "masked-unimodal")
    pretrain_steps: int = 300
    pretrain_batch_size: int = 8
    pretrain_peak_lr: float = 1e-3
    grid_size: int = _opens("data", 16)
    samples_per_corpus: int = 2048
    paired_fraction: float = 0.25
    novel_shapes: tuple[str, ...] = ("ring", "diamond")
    family_affinity: float = 0.5
    color_affinity: float = 0.6
    data_seed: int = 0
    manifest: str = ""
    peak_lr: float = _opens("optimizer", 1e-3)
    weight_decay: float = 0.01
    warmup_steps: int = 50
    schedule: str = "cosine"
    encoder_lr_ratio: float = 0.1
    freeze_encoders: bool = False
    steps: int = _opens("run", 300)
    batch_size: int = 8
    seed: int = 0
    out: str = "runs"
    rebalance_threshold: int = 640
    eval_samples: int = 80
    # [task <id>] sections
    tasks: list[TaskSpec] = field(default_factory=list)

    def validate(self):
        if self.pretrain_mode not in {m.value for m in PretrainMode}:
            raise ConfigError(f"unknown pretrain mode {self.pretrain_mode!r}")
        for f in dc_fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} {getattr(self, f.name)} is not finite")
        for name, low in _MINIMUMS.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= {low}")
        if self.encoder_lr_ratio <= 0:
            raise ConfigError("encoder_lr_ratio must be positive")
        try:
            schedule_factor(0, 1, 0, self.schedule)  # raises on an unknown schedule
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


def _sections() -> dict[str, dict[str, Field]]:
    """section -> key -> field, in field order. A task section's keys are the
    ``TaskSpec`` fields after ``task_id``, which its header names."""
    out: dict[str, dict[str, Field]] = {}
    section = ""
    for f in dc_fields(ExperimentConfig)[:-1]:  # all but tasks
        section = f.metadata.get("section", section)
        out.setdefault(section, {})[f.name.removeprefix(section + "_")] = f
    out["task"] = {f.name: f for f in dc_fields(TaskSpec)[1:]}
    return out


_KEYS = _sections()


def _parse(kind: str, raw: str, where: str):
    """``raw`` as a value of the field annotation ``kind``."""
    raw = raw.strip()
    try:
        if kind.startswith("tuple["):  # tuple[int, ...] or tuple[str, ...]
            item = kind.removeprefix("tuple[").removesuffix(", ...]")
            return tuple(_parse(item, x, where) for x in raw.split(",") if x.strip())
        if kind == "bool" and raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        return {"int": int, "float": float, "str": str}[kind](raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: expected {kind}, got {raw!r}") from None


def _format(kind: str, value) -> str:
    if kind.startswith("tuple["):
        return ",".join(str(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    return repr(float(value)) if kind == "float" else str(value)


def parse_config(text: str) -> ExperimentConfig:
    config = ExperimentConfig()
    target: ExperimentConfig | TaskSpec | None = None  # what the current section sets
    keys: dict[str, Field] = {}
    place = ""
    seen: set = set()  # section headers, and (place, key) pairs

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
                target = TaskSpec(task_id, batch_size=None)  # None: [run] batch_size
                config.tasks.append(target)
                keys, place = _KEYS["task"], f"task section {task_id!r}"
            else:
                if header not in _KEYS:
                    raise ConfigError(f"{where}: unknown section [{header}]")
                if header in seen:
                    raise ConfigError(f"{where}: duplicate section [{header}]")
                seen.add(header)
                target, keys, place = config, _KEYS[header], f"section [{header}]"
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if target is None:
            raise ConfigError(f"{where}: key {key!r} outside any section")
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r} in {place}")
        if (place, key) in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} in {place}")
        seen.add((place, key))
        setattr(target, keys[key].name, _parse(keys[key].type, value, where))

    for t in config.tasks:
        if t.batch_size is None:
            t.batch_size = config.batch_size
    return config.validate()


def serialize_config(config: ExperimentConfig) -> str:
    sections = [(name, name, config) for name in _KEYS if name != "task"]
    sections += [("task", f"task {t.task_id}", t) for t in config.tasks]
    lines: list[str] = []
    for name, header, obj in sections:
        lines.append(f"[{header}]")
        lines += [f"{key} = {_format(f.type, getattr(obj, f.name))}"
                  for key, f in _KEYS[name].items()]
        lines.append("")
    return "\n".join(lines)


def config_fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()[:16]


def diff_configs(a: ExperimentConfig, b: ExperimentConfig,
                 ignore: tuple[str, ...] = ()) -> list[str]:
    """Names of the fields where the configs differ; ``tasks`` covers every
    field of every task."""
    return [f.name for f in dc_fields(ExperimentConfig)
            if f.name not in ignore and getattr(a, f.name) != getattr(b, f.name)]
