"""Config parsing, validation, canonical serialization, fingerprints."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from uniboost.config import (MAX_TEXT_TOKENS, ConfigError, ExperimentConfig, TaskSpec,
                             config_fingerprint, diff_configs, parse_config,
                             serialize_config, world_config)
from uniboost.neck import ANSWER_TOKENS
from uniboost.shapeworld import SHAPES, build_vocabulary, gen_shapeworld, gen_single_shape_corpus


def test_defaults():
    cfg = parse_config("")
    assert cfg.layers == 2 and cfg.width == 32 and cfg.patch_size == 4
    assert cfg.pretrain_mode == "masked-unimodal"
    assert cfg.layer_set == (1, 2)
    assert cfg.novel_shapes == ("ring", "diamond")
    assert cfg.family_affinity == 0.5
    assert cfg.color_affinity == 0.6
    assert cfg.rebalance_threshold == 640
    assert cfg.eval_samples == 80
    assert cfg.tasks == []


def test_basic_parse():
    cfg = parse_config("""
[encoder]
layers = 3
width = 48   # inline comment
[pretrain]
mode = supervised
steps = 10

[neck]
layer_set = 1, 3
[data]
novel_shapes = ring,diamond
[optimizer]
warmup_steps = 7
""")
    assert cfg.layers == 3 and cfg.width == 48
    assert cfg.pretrain_mode == "supervised" and cfg.pretrain_steps == 10
    assert cfg.layer_set == (1, 3)
    assert cfg.warmup_steps == 7


def test_task_sections():
    run = "[run]\nbatch_size = 4\n"
    tasks = """
[task seg]
route = language-guided-vision
head = seg
[task cap]
route = image-to-text-gen
head = caption
batch_size = 2
"""
    for text in (run + tasks, tasks + run):  # [run] before or after the tasks
        cfg = parse_config(text)
        assert [t.task_id for t in cfg.tasks] == ["seg", "cap"]
        assert cfg.tasks[0].batch_size == 4  # inherits [run] batch_size
        assert cfg.tasks[1].batch_size == 2
        assert cfg.tasks[1].route == "image-to-text-gen"
    with pytest.raises(ConfigError, match="line 4: duplicate key 'head' in task section"):
        parse_config("[task a]\nhead = seg\nroute = language-guided-vision\nhead = seg\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown section"):
        parse_config("\n[warp]\n")
    with pytest.raises(ConfigError, match="line 3: unknown key 'depth'"):
        parse_config("\n[encoder]\ndepth = 3\n")
    with pytest.raises(ConfigError, match="line 1: key 'layers' outside"):
        parse_config("layers = 2\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("[encoder]\nlayers = 2\nlayers = 3\n")
    with pytest.raises(ConfigError, match="line 4: duplicate section"):
        parse_config("[encoder]\nlayers = 2\n\n[encoder]\n")
    with pytest.raises(ConfigError, match="line 2: expected int"):
        parse_config("[encoder]\nlayers = two\n")
    with pytest.raises(ConfigError, match="line 1: unterminated"):
        parse_config("[encoder\n")
    with pytest.raises(ConfigError, match="expected `key = value`"):
        parse_config("[encoder]\nlayers 2\n")
    with pytest.raises(ConfigError, match="task section needs an id"):
        parse_config("[task ]\n")
    with pytest.raises(ConfigError, match="duplicate task section"):
        parse_config("[task a]\n[task a]\n")
    with pytest.raises(ConfigError, match="unknown key 'width' in task"):
        parse_config("[task a]\nwidth = 4\n")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="unknown pretrain mode"):
        parse_config("[pretrain]\nmode = clip\n")
    with pytest.raises(ConfigError, match="outside 1..2"):
        parse_config("[neck]\nlayer_set = 1,3\n")
    with pytest.raises(ConfigError, match=r"^layer_set \(2, 2\) names a layer twice$"):
        parse_config("[neck]\nlayer_set = 2, 2\n")
    with pytest.raises(ConfigError,
                       match=r"^novel shapes \('ring', 'ring'\) name a shape twice$"):
        parse_config("[data]\nnovel_shapes = ring, ring\n")
    with pytest.raises(ConfigError, match="unknown route"):
        parse_config("[task a]\nroute = audio\n")
    with pytest.raises(ConfigError, match="unknown head"):
        parse_config("[task a]\nhead = detect\n")
    with pytest.raises(ConfigError, match="head 'seg' runs route 'language-guided-vision', "
                                          "not 'image-only'"):
        parse_config("[task a]\nroute = image-only\nhead = seg\n")
    with pytest.raises(ConfigError, match="head 'cls' runs route 'image-only'"):
        parse_config("[task a]\nhead = cls\n")
    # learning rates must be positive
    with pytest.raises(ConfigError, match="^peak_lr -5.0 must be positive"):
        parse_config("[optimizer]\npeak_lr = -5\n[pretrain]\npeak_lr = -1\n")
    for section, key, value, message in [
            ("optimizer", "peak_lr", 0, "peak_lr 0.0 must be positive"),
            ("pretrain", "peak_lr", -1, "pretrain_peak_lr -1.0 must be positive"),
            ("pretrain", "peak_lr", 0, "pretrain_peak_lr 0.0 must be positive")]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(f"[{section}]\n{key} = {value}\n")
    # model sizes below their minimum, named before any sub-config divides by them
    for section, key, value in [("encoder", "width", 0), ("encoder", "width", -4),
                                ("encoder", "heads", 0), ("encoder", "heads", -2),
                                ("neck", "common_width", 0), ("neck", "fusion_heads", 0),
                                ("neck", "fusion_layers", -1)]:
        with pytest.raises(ConfigError, match=f"^{key} {value} must be >= "):
            parse_config(f"[{section}]\n{key} = {value}\n")


def test_serialize_then_reparse_round_trips():
    cfg = parse_config("""
[encoder]
layers = 3
width = 48
[neck]
layer_set = 1,2,3
[pretrain]
mode = pair-contrastive
peak_lr = 0.0005
[data]
paired_fraction = 0.125
novel_shapes = ring
[task seg]
route = language-guided-vision
head = seg
batch_size = 4
""")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert diff_configs(cfg, again) == []
    assert serialize_config(again) == text
    assert config_fingerprint(cfg) == config_fingerprint(again)


# config_fingerprint names runs, checkpoints and run records, so the bytes
# that serialize_config writes for these configs must never drift.
PINNED_FINGERPRINTS = {
    "default": "bbdcef356c129fd1",
    "chain-masked-unimodal.cfg": "4b79f3f77275ae3d",
    "sweep-masked-unimodal.cfg": "2b8bf7962113f0a4",
    "sweep-pair-contrastive.cfg": "97d6e8950fee740f",
    "train-masked-unimodal.cfg": "b5909a141b011186",
    "train-pair-contrastive.cfg": "cff7cda737087229",
    "stream-pair-contrastive": "89ea1567890e4b4b",
    "stream-masked-unimodal": "1cde2bec3aed7366",
}


def test_fingerprints_of_the_pinned_configs_do_not_drift():
    root = Path(__file__).resolve().parents[1]
    configs = {"default": ExperimentConfig()}
    for path in sorted((root / "perfbench" / "configs").glob("*.cfg")):
        configs[path.name] = parse_config(path.read_text())
    for mode in ("pair-contrastive", "masked-unimodal"):  # criterion 6's _stream_cfg
        configs[f"stream-{mode}"] = ExperimentConfig(
            pretrain_mode=mode, patch_size=2, pretrain_steps=600, steps=300,
            eval_samples=80, samples_per_corpus=2048, paired_fraction=0.25,
            tasks=[TaskSpec("seg", "language-guided-vision", "seg", 8)]).validate()
    assert {name: config_fingerprint(cfg) for name, cfg in configs.items()} == \
        PINNED_FINGERPRINTS


def test_every_field_round_trips_through_its_key():
    """A config with every field off its default comes back whole, so a
    field added without a section or with an unparseable type fails here."""
    cfg = ExperimentConfig(
        layers=3, width=48, heads=6, patch_size=5, max_tokens=70, vocab_size=40,
        fusion_layers=1, fusion_heads=2, common_width=24, layer_set=(1, 3),
        pretrain_mode="supervised", pretrain_steps=7, pretrain_batch_size=5,
        pretrain_peak_lr=3e-4, grid_size=20, samples_per_corpus=33, paired_fraction=0.1,
        novel_shapes=("ring",), family_affinity=0.3, color_affinity=0.2, data_seed=9,
        peak_lr=2e-3, warmup_steps=3, steps=11,
        batch_size=3, rebalance_threshold=7, eval_samples=9,
        tasks=[TaskSpec("a", "image-only", "cls", 2), TaskSpec("b", "deep-fusion", "vqa", 5)])
    default = ExperimentConfig()
    # 27 keys and the tasks: the run's seed and output directory are flags,
    # and corpora come only from the generator
    assert len(fields(ExperimentConfig)) == 28
    assert diff_configs(default, cfg) == [f.name for f in fields(ExperimentConfig)]
    assert all(getattr(cfg.tasks[1], f.name) != getattr(TaskSpec(), f.name)
               for f in fields(TaskSpec))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_fingerprint_tracks_content():
    a = parse_config("[data]\nseed = 1\n")
    b = parse_config("[data]\nseed = 1\n")
    c = parse_config("[data]\nseed = 2\n")
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)
    assert len(config_fingerprint(a)) == 16


def test_diff_configs_names_fields_and_respects_ignore():
    a = parse_config("[run]\neval_samples = 1\nsteps = 5\n")
    b = parse_config("[run]\neval_samples = 2\nsteps = 6\n")
    assert diff_configs(a, b) == ["steps", "eval_samples"]
    assert diff_configs(a, b, ignore=("eval_samples",)) == ["steps"]
    c = parse_config("[task t]\nroute = image-only\nhead = cls\n")
    assert diff_configs(parse_config(""), c) == ["tasks"]


def test_duplicate_task_ids_rejected_at_validate():
    cfg = ExperimentConfig(tasks=[TaskSpec("a"), TaskSpec("a")])
    with pytest.raises(ConfigError, match="duplicate task ids"):
        cfg.validate()
    bad = ExperimentConfig(tasks=[TaskSpec("a", batch_size=0)])
    with pytest.raises(ConfigError, match="batch_size"):
        bad.validate()


def test_max_text_tokens_is_the_longest_text_the_encoder_reads():
    world = world_config(ExperimentConfig(samples_per_corpus=256))
    corpora = gen_shapeworld(world)
    samples = (corpora["paired"] + corpora["text-only"]
               + gen_single_shape_corpus(world, SHAPES, 64, 0))
    vocab = build_vocabulary()
    lengths = [n for s in samples for n in (
        len(vocab.encode(s.caption)) + 1,  # caption head: caption + EOS
        len(vocab.encode(s.question)) + len(vocab.encode(s.answer)) + 1,  # VQA head
        len(vocab.encode(s.question)) + ANSWER_TOKENS)]  # greedy VQA decoding
    assert max(lengths) == MAX_TEXT_TOKENS


def test_float_serialization_is_exact():
    cfg = ExperimentConfig(peak_lr=3e-4, paired_fraction=0.1)
    again = parse_config(serialize_config(cfg))
    assert again.peak_lr == 3e-4
    assert again.paired_fraction == 0.1


def test_readme_configs_parse():
    """Every ```ini block in README.md parses, every config file that README
    names exists and parses, and every inline `key = value` names a key."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(block)
    named = re.findall(r"--config (\S+\.cfg)", readme)
    assert named
    for path in named:
        parse_config((root / path).read_text())
    every_key = serialize_config(ExperimentConfig(tasks=[TaskSpec("t")]))
    keys = {line.partition(" = ")[0] for line in every_key.splitlines()}
    inline = re.findall(r"`(\w+) = [^`]*`", readme)
    assert inline
    assert [key for key in inline if key not in keys] == []


def test_readme_section_key_references_name_real_keys():
    """Every `[section] key` that README.md names is a key of that section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    real, section = set(), ""
    for line in serialize_config(ExperimentConfig(tasks=[TaskSpec("t")])).splitlines():
        if line.startswith("["):
            section = line[1:-1].split()[0]  # [task t] is a task section
        elif line:
            real.add((section, line.partition(" = ")[0]))
    named = re.findall(r"`\[(\w+)[^\]`]*\] (\w+)`", readme)
    assert named
    assert [ref for ref in named if ref not in real] == []
