"""Config parsing, validation, canonical serialization, fingerprints."""

import re
from pathlib import Path

import pytest

from uniboost.config import (ConfigError, ExperimentConfig, TaskSpec,
                             config_fingerprint, diff_configs, parse_config,
                             serialize_config)


def test_defaults():
    cfg = parse_config("")
    assert cfg.layers == 2 and cfg.width == 32 and cfg.patch_size == 4
    assert cfg.pretrain_mode == "masked-unimodal"
    assert cfg.layer_set == (1, 2)
    assert cfg.novel_shapes == ("ring", "diamond")
    assert cfg.family_affinity == 0.5
    assert cfg.color_affinity == 0.6
    assert cfg.encoder_lr_ratio == 0.1
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
freeze_encoders = true
""")
    assert cfg.layers == 3 and cfg.width == 48
    assert cfg.pretrain_mode == "supervised" and cfg.pretrain_steps == 10
    assert cfg.layer_set == (1, 3)
    assert cfg.freeze_encoders is True


def test_task_sections():
    cfg = parse_config("""
[run]
batch_size = 4
[task seg]
route = language-guided-vision
head = seg
[task cap]
route = image-to-text-gen
head = caption
batch_size = 2
""")
    assert [t.task_id for t in cfg.tasks] == ["seg", "cap"]
    assert cfg.tasks[0].batch_size == 4  # inherits [run] batch_size
    assert cfg.tasks[1].batch_size == 2
    assert cfg.tasks[1].route == "image-to-text-gen"


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
    with pytest.raises(ConfigError, match="unknown schedule"):
        parse_config("[optimizer]\nschedule = exponential\n")
    with pytest.raises(ConfigError, match="outside 1..2"):
        parse_config("[neck]\nlayer_set = 1,3\n")
    with pytest.raises(ConfigError, match="unknown route"):
        parse_config("[task a]\nroute = audio\n")
    with pytest.raises(ConfigError, match="unknown head"):
        parse_config("[task a]\nhead = detect\n")
    with pytest.raises(ConfigError, match="head 'seg' runs route 'language-guided-vision', "
                                          "not 'image-only'"):
        parse_config("[task a]\nroute = image-only\nhead = seg\n")
    with pytest.raises(ConfigError, match="head 'cls' runs route 'image-only'"):
        parse_config("[task a]\nhead = cls\n")
    with pytest.raises(ConfigError, match="encoder_lr_ratio"):
        parse_config("[optimizer]\nencoder_lr_ratio = 0\n")


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


def test_fingerprint_tracks_content():
    a = parse_config("[run]\nseed = 1\n")
    b = parse_config("[run]\nseed = 1\n")
    c = parse_config("[run]\nseed = 2\n")
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)
    assert len(config_fingerprint(a)) == 16


def test_diff_configs_names_fields_and_respects_ignore():
    a = parse_config("[run]\nseed = 1\nsteps = 5\n")
    b = parse_config("[run]\nseed = 2\nsteps = 6\n")
    assert diff_configs(a, b) == ["steps", "seed"]
    assert diff_configs(a, b, ignore=("seed",)) == ["steps"]
    c = parse_config("[task t]\nroute = image-only\nhead = cls\n")
    assert diff_configs(parse_config(""), c) == ["tasks"]


def test_duplicate_task_ids_rejected_at_validate():
    cfg = ExperimentConfig(tasks=[TaskSpec("a"), TaskSpec("a")])
    with pytest.raises(ConfigError, match="duplicate task ids"):
        cfg.validate()
    bad = ExperimentConfig(tasks=[TaskSpec("a", batch_size=0)])
    with pytest.raises(ConfigError, match="batch_size"):
        bad.validate()


def test_float_serialization_is_exact():
    cfg = ExperimentConfig(peak_lr=3e-4, paired_fraction=0.1)
    again = parse_config(serialize_config(cfg))
    assert again.peak_lr == 3e-4
    assert again.paired_fraction == 0.1


def test_readme_configs_parse():
    """Every ```ini block in README.md parses, and every config file that
    README names exists and parses."""
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
