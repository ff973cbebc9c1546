"""Pretraining regimes: masking laws, loss oracles, and training smoke."""

import gc
import math
import weakref

import numpy as np
import pytest

from uniboost.encoders import MASK_ID, EncoderConfig, ImageEncoder, TextEncoder, patchify
from uniboost.pretrain import (CONTRASTIVE_TEMPERATURE, MIM_RATIO, MLM_RATIO,
                               CorpusMismatchError,
                               MimHead, MlmHead, PretrainMode, _mask_positions,
                               contrastive_loss, cross_entropy, info_nce,
                               mim_loss, mlm_loss, pool_sequence,
                               pretrain_run, supervised_cls_loss, train)
from uniboost.nn import Linear, Parameter, init_rng
from uniboost.optim import AdamW
from uniboost.shapeworld import SHAPES
from uniboost import tensor as T
from uniboost.tensor import Tape, Tensor


def small_config(**kw):
    base = dict(layers=1, width=16, heads=2, max_tokens=20,
                patch_size=4, vocab_size=32)
    base.update(kw)
    return EncoderConfig(**base)


def encoders(seed=0):
    """A fresh image and text encoder pair for ``pretrain_run`` to train."""
    cfg = small_config()
    return ImageEncoder(cfg, seed=f"img:{seed}"), TextEncoder(cfg, seed=f"txt:{seed}")


# ---------------------------------------------------------------- masking

def test_mask_position_counts():
    rng = np.random.default_rng(0)
    # ceil(0.75 * 16) = 12, ceil(0.15 * 20) = 3
    assert (MIM_RATIO, MLM_RATIO) == (0.75, 0.15)
    a = _mask_positions(rng, batch=4, n=16, ratio=MIM_RATIO)
    assert a.shape == (4, 16)
    assert a.sum(axis=1).tolist() == [12] * 4
    b = _mask_positions(rng, batch=3, n=20, ratio=MLM_RATIO)
    assert b.shape == (3, 20)
    assert b.sum(axis=1).tolist() == [3] * 3


def test_mask_positions_distinct_and_in_range():
    """The mask is 0/1 with exactly ceil(ratio * n) ones per row, at the
    positions that one draw of ``n`` choose ``k`` per row picks, in row
    order."""
    mask = _mask_positions(np.random.default_rng(1), batch=8, n=10, ratio=0.5)
    assert mask.shape == (8, 10)
    assert set(np.unique(mask).tolist()) <= {0.0, 1.0}
    assert mask.sum(axis=1).tolist() == [5] * 8
    rng = np.random.default_rng(1)
    for row in mask:
        assert np.flatnonzero(row).tolist() == sorted(rng.choice(10, size=5, replace=False))


def test_mim_gradient_touches_masked_targets_only():
    """The reconstruction loss must never read unmasked patches: it equals
    a numpy oracle over the masked patches alone, the gradient at unmasked
    reconstructions is exactly zero, and exactly ceil(MIM_RATIO * n)
    patches per image carry gradient."""
    cfg = small_config(patch_size=2)
    enc = ImageEncoder(cfg, seed=0)
    head = MimHead(cfg, seed=1)
    images = np.random.default_rng(3).uniform(size=(2, 8, 8, 3))
    flat = np.stack([patchify(img, cfg.patch_size) for img in images])
    b, n, _ = flat.shape
    masked = _mask_positions(np.random.default_rng(7), b, n, MIM_RATIO) == 1.0
    recon = head.recon(enc(images, mask=(head.mask_token, masked))).values
    want = np.mean((recon[masked] - flat[masked]) ** 2)

    leaf = Tensor(recon, requires_grad=True)
    head.recon = lambda hidden: leaf  # the loss reads the reconstruction from here
    with Tape() as tape:
        loss = mim_loss(enc, head, images, seed=7)
    tape.backward(loss, params=[leaf])

    assert loss.item() == pytest.approx(want, rel=1e-12)
    touched = np.any(leaf.grad != 0.0, axis=-1)
    assert np.array_equal(touched, masked)
    assert touched.sum(axis=1).tolist() == [math.ceil(MIM_RATIO * n)] * b


def test_mim_initial_loss_matches_pixel_power():
    """With near-zero initial reconstruction, the masked MSE is close to
    E[pixel^2] = 1/3 for uniform [0, 1) pixels."""
    cfg = small_config(patch_size=2)
    enc = ImageEncoder(cfg, seed=4)
    head = MimHead(cfg, seed=5)
    images = np.random.default_rng(6).uniform(size=(8, 8, 8, 3))
    loss = mim_loss(enc, head, images, seed=0).item()
    assert 0.25 < loss < 0.45


def test_mlm_initial_loss_is_log_vocab():
    cfg = small_config()
    enc = TextEncoder(cfg, seed=8)
    head = MlmHead(cfg.vocab_size)
    ids = np.random.default_rng(9).integers(0, cfg.vocab_size, size=(16, 12))
    loss = mlm_loss(enc, head, ids, seed=0).item()
    assert loss == pytest.approx(math.log(cfg.vocab_size), rel=0.05)


def test_mlm_loss_is_the_nll_of_masked_tokens_read_as_mask_id():
    """Oracle: ceil(MLM_RATIO * n) tokens per row become MASK_ID, and the
    loss is the mean negative log-likelihood of the original ids there."""
    cfg = small_config()
    enc = TextEncoder(cfg, seed=12)
    head = MlmHead(cfg.vocab_size)
    ids = np.random.default_rng(13).integers(3, cfg.vocab_size, size=(4, 10))
    mask = _mask_positions(np.random.default_rng(5), *ids.shape, MLM_RATIO) == 1.0
    assert mask.sum(axis=1).tolist() == [math.ceil(MLM_RATIO * 10)] * 4
    logits = head.logits(enc(np.where(mask, MASK_ID, ids)), enc.tok.table).values
    logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    want = -np.mean(np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0][mask])
    assert mlm_loss(enc, head, ids, seed=5).item() == pytest.approx(want, rel=1e-12)


def test_mlm_input_validation():
    cfg = small_config()
    enc = TextEncoder(cfg, seed=10)
    head = MlmHead(cfg.vocab_size)
    with pytest.raises(ValueError, match="< 2"):
        mlm_loss(enc, head, np.array([[5]]))


# ---------------------------------------------------------------- info-NCE

def test_info_nce_identical_vectors_gives_log_batch():
    v = np.zeros((6, 4))
    v[:, 0] = 1.0
    loss = info_nce(Tensor(v), Tensor(v))
    assert loss.item() == pytest.approx(math.log(6), abs=1e-10)


def test_info_nce_orthonormal_oracle():
    b, tau = 4, CONTRASTIVE_TEMPERATURE
    assert tau == 0.07
    eye = np.eye(b)
    loss = info_nce(Tensor(eye), Tensor(eye))
    # -log p with p = e^(1/tau) / (e^(1/tau) + b - 1)
    assert loss.item() == pytest.approx(math.log1p((b - 1) * math.exp(-1.0 / tau)),
                                        rel=1e-9)


def test_info_nce_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 8))
    b = rng.normal(size=(5, 8))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    ab = info_nce(Tensor(a), Tensor(b)).item()
    ba = info_nce(Tensor(b), Tensor(a)).item()
    assert ab == pytest.approx(ba, abs=1e-12)


def test_info_nce_validation():
    one = Tensor(np.ones((1, 4)))
    with pytest.raises(ValueError, match="degenerate"):
        info_nce(one, one)


# ---------------------------------------------------------------- losses

def test_cross_entropy_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((3, 7)))
    loss = cross_entropy(logits, np.array([0, 3, 6]))
    assert loss.item() == pytest.approx(math.log(7), abs=1e-12)


def test_cross_entropy_numpy_oracle():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(4, 5))
    labels = np.array([1, 0, 4, 2])
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(4), labels].mean()
    got = cross_entropy(Tensor(logits), labels).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_pool_sequence_is_mean_then_unit_norm():
    rng = np.random.default_rng(13)
    seq = rng.normal(size=(2, 5, 6))
    pooled = pool_sequence(Tensor(seq)).values
    want = seq.mean(axis=1)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.allclose(pooled, want, atol=1e-12)
    assert np.allclose(np.linalg.norm(pooled, axis=1), 1.0, atol=1e-12)


def test_supervised_label_range_check():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=14)
    head = Linear(init_rng(15), cfg.width, 3)
    images = np.random.default_rng(16).uniform(size=(2, 8, 8, 3))
    with pytest.raises(ValueError, match="out of range"):
        supervised_cls_loss(enc, head, images, np.array([0, 3]))


def test_supervised_initial_loss_is_log_k():
    cfg = small_config()
    enc = ImageEncoder(cfg, seed=17)
    head = Linear(init_rng(18), cfg.width, 5)
    images = np.random.default_rng(19).uniform(size=(6, 8, 8, 3))
    loss = supervised_cls_loss(enc, head, images, np.zeros(6, dtype=int))
    assert loss.item() == pytest.approx(math.log(5), rel=0.05)


# ---------------------------------------------------------------- corpora

def _supervised_corpus(n=32):
    """Labels over every class of the head, one image level per class, so
    the loss can only fall well below ln(len(SHAPES)) by telling the
    images apart."""
    rng = np.random.default_rng(20)
    labels = rng.integers(0, len(SHAPES), size=n)
    base = (labels[:, None, None, None] + 0.5) / len(SHAPES)
    images = base + rng.normal(scale=0.02, size=(n, 8, 8, 3))
    return np.clip(images, 0, 1), labels


def _pair_corpus(n=16):
    values = np.arange(n) / n
    images = np.ones((n, 8, 8, 3)) * values[:, None, None, None]
    return images, np.stack([np.full(2, 3 + i) for i in range(n)])


def _masked_corpus(n=32):
    rng = np.random.default_rng(21)
    values = rng.uniform(size=n)
    images = np.ones((n, 8, 8, 3)) * values[:, None, None, None]
    return images, rng.choice([3, 4, 5, 6], size=(n, 8))


def _drop(trace):
    head = np.mean(trace[:10])
    tail = np.mean(trace[-10:])
    return (head - tail) / head


def test_pretrain_supervised_learns():
    losses = pretrain_run(PretrainMode.SUPERVISED, *_supervised_corpus(),
                          *encoders(), steps=200, seed=0)
    trace = losses["supervised"]
    assert len(trace) == 200
    # starts near ln 8; matching the label frequencies alone leaves it near 2.0
    assert _drop(trace) > 0.3


def test_pretrain_contrastive_learns():
    losses = pretrain_run(PretrainMode.PAIR_CONTRASTIVE, *_pair_corpus(),
                          *encoders(), steps=200, seed=0)
    trace = losses["contrastive"]
    assert len(trace) == 200
    assert _drop(trace) > 0.3


def test_pretrain_masked_learns():
    losses = pretrain_run(PretrainMode.MASKED_UNIMODAL, *_masked_corpus(),
                          *encoders(), steps=200, seed=0)
    assert list(losses) == ["mim", "mlm"]
    assert len(losses["mim"]) == len(losses["mlm"]) == 200
    assert _drop(losses["mim"]) > 0.3
    # random tokens over 4 symbols: floor is ln(4), start is ln(32)
    assert _drop(losses["mlm"]) > 0.3


@pytest.mark.parametrize("mode, corpus", [
    (PretrainMode.SUPERVISED, _supervised_corpus),
    (PretrainMode.PAIR_CONTRASTIVE, _pair_corpus),
    (PretrainMode.MASKED_UNIMODAL, _masked_corpus)])
def test_pretrain_on_a_list_of_images_equals_the_stacked_array(mode, corpus):
    """Each step stacks the batch it draws, so a list of per-sample arrays
    trains the same bits as the stacked [N, H, W, 3] array."""
    images, targets = corpus()

    def run(imgs):
        img, txt = encoders()
        losses = pretrain_run(mode, imgs, targets, img, txt, steps=3, seed=4)
        return losses, {**img.state_dict(), **txt.state_dict()}

    (stacked_losses, stacked_state), (list_losses, list_state) = run(images), run(list(images))
    assert list_losses == stacked_losses
    assert stacked_state.keys() == list_state.keys()
    assert all(list_state[k].tobytes() == v.tobytes() for k, v in stacked_state.items())


def test_train_runs_objectives_in_list_order_and_clears_grads():
    calls = []
    weights = {name: Parameter(np.full(3, value))
               for name, value in (("a", 1.0), ("b", -2.0))}

    def objective(name):
        def loss_fn(step):
            calls.append((step, name))
            w = weights[name]
            return name, T.sum_(T.mul(w, w))
        return loss_fn, AdamW({"model": ({name: weights[name]}, 1.0)}, total_steps=3,
                              warmup_steps=0)

    losses = {"b": [], "a": []}
    train([objective("a"), objective("b")], 3, losses)
    assert calls == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]
    assert list(losses) == ["b", "a"]
    assert losses["a"][0] == 3.0 and losses["b"][0] == 12.0
    assert len(losses["a"]) == len(losses["b"]) == 3
    assert all(w.grad is None for w in weights.values())
    assert losses["a"][-1] < losses["a"][0]


def test_train_step_graph_is_freed_without_the_cyclic_gc():
    cfg = small_config(patch_size=2)
    enc, head = ImageEncoder(cfg, seed=0), MimHead(cfg, seed=1)
    images = np.random.default_rng(4).uniform(size=(2, 8, 8, 3))
    opt = AdamW({"model": ({**dict(enc.named_parameters("enc.")),
                            **dict(head.named_parameters("head."))}, 1.0)},
                total_steps=1, warmup_steps=0)
    refs = []

    def loss_fn(step):
        loss = mim_loss(enc, head, images, seed=step)
        refs.extend([weakref.ref(T.active_tape()), weakref.ref(loss._node)])
        return "mim", loss

    enabled = gc.isenabled()
    gc.disable()
    try:
        train([(loss_fn, opt)], 1, {"mim": []})
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_pretrain_zero_steps_returns_initialized_encoders():
    img, txt = encoders()
    before = img.state_dict()
    losses = pretrain_run(PretrainMode.SUPERVISED, *_supervised_corpus(), img, txt,
                          steps=0, seed=0)
    assert losses == {"supervised": []}
    assert all(np.array_equal(v, before[k]) for k, v in img.state_dict().items())


def test_pretrain_corpus_mismatch_errors():
    pair = encoders()
    with pytest.raises(CorpusMismatchError, match="misaligned"):
        pretrain_run(PretrainMode.PAIR_CONTRASTIVE, np.zeros((3, 8, 8, 3)),
                     np.zeros((2, 2), dtype=int), *pair, steps=1, seed=0)
    with pytest.raises(CorpusMismatchError, match=">= 2 pairs"):
        pretrain_run(PretrainMode.PAIR_CONTRASTIVE, np.zeros((1, 8, 8, 3)),
                     np.zeros((1, 2), dtype=int), *pair, steps=1, seed=0)


def test_pretrain_is_seed_deterministic():
    corp = _supervised_corpus(8)

    def run(seed):
        img, txt = encoders(seed)
        losses = pretrain_run(PretrainMode.SUPERVISED, *corp, img, txt, steps=5, seed=seed)
        return img.patch_proj.weight.values, losses["supervised"]

    (wa, la), (wb, lb), (wc, _) = run(9), run(9), run(10)
    assert np.array_equal(wa, wb)
    assert la == lb
    assert not np.array_equal(wa, wc)


def test_contrastive_loss_wires_final_layers():
    cfg = small_config()
    img = ImageEncoder(cfg, seed=22)
    txt = TextEncoder(cfg, seed=23)
    images = np.random.default_rng(24).uniform(size=(3, 8, 8, 3))
    ids = np.random.default_rng(25).integers(0, cfg.vocab_size, size=(3, 4))
    loss = contrastive_loss(img, txt, images, ids)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(math.log(3), rel=0.10)
