"""Task model: per-route losses, predictions, and decoding."""

import math

import numpy as np
import pytest

from uniboost.config import ExperimentConfig, encoder_config, neck_config
from uniboost.model import MASK_RECOVERY_PROB, TaskModel, patch_majority_labels
from uniboost.optim import AdamW
from uniboost.shapeworld import (SHAPES, ShapeWorldConfig, build_vocabulary,
                                 class_id, gen_single_shape_corpus)
from uniboost.tensor import Tape


def tiny_cfg(**kw):
    base = dict(layers=1, width=16, heads=2, patch_size=4, max_tokens=40,
                vocab_size=32, fusion_layers=1, fusion_heads=2,
                common_width=16, layer_set=(1,), grid_size=16, eval_samples=8)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def model():
    return TaskModel(tiny_cfg(), build_vocabulary(), seed=0)


@pytest.fixture(scope="module")
def eval_samples():
    world = ShapeWorldConfig(grid_size=16, samples_per_corpus=16, seed=0)
    return gen_single_shape_corpus(world, ("square", "circle"), 8, seed=2)


# ---------------------------------------------------------------- patches

def test_patch_majority_labels_oracle():
    mask = np.array([
        [1, 1, 0, 0],
        [1, 0, 0, 0],
        [2, 2, 3, 3],
        [2, 1, 1, 3],
    ])
    got = patch_majority_labels(mask, 2)
    # patch 0: {1,1,1,0} -> 1; patch 1: all 0 -> 0
    # patch 2: {2,2,2,1} -> 2; patch 3: {3,3,1,3} -> 3
    assert got.tolist() == [1, 0, 2, 3]


def test_patch_majority_ties_go_to_lowest_label():
    mask = np.array([
        [0, 0, 1, 1],
        [1, 1, 2, 2],
        [5, 5, 4, 4],
        [3, 3, 4, 5],
    ])
    got = patch_majority_labels(mask, 2)
    assert got.tolist() == [0, 1, 3, 4]


def test_patch_majority_labels_batch_matches_the_per_row_count():
    rng = np.random.default_rng(0)
    # Few labels over 2x2 patches, so many patches tie two labels two-all.
    masks = rng.integers(0, 4, size=(5, 8, 12))
    got = patch_majority_labels(masks, 2)
    assert got.shape == (5, 24)
    ties = 0
    for mask, row in zip(masks, got):
        blocks = mask.reshape(4, 2, 6, 2).transpose(0, 2, 1, 3).reshape(-1, 4)
        counts = [np.bincount(b, minlength=4) for b in blocks]
        ties += sum(int((c == c.max()).sum() > 1) for c in counts)
        assert row.tolist() == [int(c.argmax()) for c in counts]
    assert ties > 10


def test_config_mappings():
    cfg = tiny_cfg()
    enc = encoder_config(cfg)
    assert (enc.layers, enc.width, enc.heads) == (1, 16, 2)
    assert (enc.patch_size, enc.vocab_size) == (4, 32)
    nk = neck_config(cfg)
    assert nk.layer_set == (1,)
    assert nk.common_width == 16
    assert nk.vocab_size == 32


# ---------------------------------------------------------------- seg route

def test_seg_logits_shape_and_loss_initial_value(model, eval_samples):
    names = ["background", "square", "circle"]
    images = np.stack([s.image for s in eval_samples[:4]])
    masks = np.stack([s.mask for s in eval_samples[:4]])
    logits = model.seg_patch_logits(images, names)
    assert logits.shape == (4, 16, 3)  # 16 patches of a 16x16 grid at patch 4
    loss = model.seg_loss(images, masks, names)
    assert np.isfinite(loss.item())


def test_seg_loss_rejects_uncovered_labels(model, eval_samples):
    images = np.stack([s.image for s in eval_samples[:2]])
    masks = np.stack([s.mask for s in eval_samples[:2]])
    with pytest.raises(ValueError, match="not covered by classes"):
        model.seg_loss(images, masks, ["background", "triangle"])


def test_seg_predict_returns_pixel_labels(model, eval_samples):
    names = ["background", "square", "circle"]
    images = np.stack([s.image for s in eval_samples[:3]])
    pred = model.seg_predict(model.image_seq(images), model.class_prompts(names), names)
    assert pred.shape == (3, 16, 16)
    allowed = {0, class_id("square"), class_id("circle")}
    assert set(np.unique(pred).tolist()) <= allowed
    # nearest-patch upsampling makes every 4x4 block constant
    blocks = pred.reshape(3, 4, 4, 4, 4)  # [B, gh, p, gw, p]
    assert (blocks == blocks[:, :, :1, :, :1]).all()


def test_class_prompts_shape_and_distinctness(model):
    prompts = model.class_prompts(["square", "circle", "ring"])
    assert prompts.shape == (3, 1, 16)
    assert not np.allclose(prompts.values[0], prompts.values[1])


def test_seg_loss_decreases_under_training(eval_samples):
    model = TaskModel(tiny_cfg(), build_vocabulary(), seed=1)
    names = ["background", "square", "circle"]
    images = np.stack([s.image for s in eval_samples])
    masks = np.stack([s.mask for s in eval_samples])
    params = model.encoder_parameters() + model.head_parameters()
    opt = AdamW({"all": (params, 1.0)}, peak_lr=3e-3, total_steps=30,
                warmup_steps=3, schedule="cosine")
    losses = []
    for _ in range(30):
        with Tape() as tape:
            loss = model.seg_loss(images, masks, names)
        tape.backward(loss, params=params)
        losses.append(loss.item())
        opt.step()
    assert losses[-1] < losses[0] * 0.9


# ---------------------------------------------------------------- cls route

def test_cls_logits_and_loss(model, eval_samples):
    images = np.stack([s.image for s in eval_samples[:4]])
    logits = model.cls_logits(images)
    assert logits.shape == (4, len(SHAPES))
    labels = np.array([class_id(s.answer) - 1 for s in eval_samples[:4]])
    loss = model.cls_loss(images, labels)
    assert loss.item() == pytest.approx(math.log(len(SHAPES)), rel=0.10)


# ---------------------------------------------------------------- generative

def test_caption_and_vqa_losses_are_finite_and_seeded(model, eval_samples):
    images = np.stack([s.image for s in eval_samples[:2]])
    cap_ids = np.array([model.vocab.encode(s.caption + " <eos>")
                        for s in eval_samples[:2]])
    a = model.caption_loss(images, cap_ids, seed=3)
    b = model.caption_loss(images, cap_ids, seed=3)
    c = model.caption_loss(images, cap_ids, seed=4)
    assert np.isfinite(a.item())
    assert a.item() == b.item()
    assert a.item() != c.item()

    qa = np.array([model.vocab.encode(s.question + " " + s.answer)
                   for s in eval_samples[:2]])
    prefix = len(eval_samples[0].question.split())
    loss = model.vqa_loss(images, qa, prefix_len=prefix, seed=5)
    assert np.isfinite(loss.item())


def test_recovery_prefix_must_leave_targets(model, eval_samples):
    images = np.stack([s.image for s in eval_samples[:1]])
    ids = np.array([[4, 5, 6]])
    with pytest.raises(ValueError, match="leaves nothing to predict"):
        model.vqa_loss(images, ids, prefix_len=3, seed=0)
    assert 0.0 < MASK_RECOVERY_PROB < 1.0


def test_generate_answer_is_deterministic_text(model, eval_samples):
    s = eval_samples[0]
    img = model.image_seq(s.image[None])
    q_ids = np.array([model.vocab.encode(s.question)])
    a = model.generate_answer(img, q_ids, max_len=2)
    b = model.generate_answer(img, q_ids, max_len=2)
    assert a == b
    assert len(a) == 1 and isinstance(a[0], str)
    for word in a[0].split():
        assert word in model.vocab.word_to_id


def test_generate_answer_decodes_when_the_lm_head_favours_an_id_past_the_vocabulary(
        eval_samples):
    vocab = build_vocabulary()
    model = TaskModel(tiny_cfg(vocab_size=64), vocab, seed=0)
    model.neck.lm_head.weight.values[:] = 0.0
    model.neck.lm_head.bias.values[:] = 0.0
    model.neck.lm_head.bias.values[40] = 10.0
    s = eval_samples[0]
    answer = model.generate_answer(model.image_seq(s.image[None]),
                                   np.array([vocab.encode(s.question)]), max_len=2)
    assert answer == [f"{vocab.id_to_word[0]} {vocab.id_to_word[0]}"]
