"""Acceptance gate: seven release criteria, one verdict line each.

Every criterion is a single test that prints exactly one
``[accept] <criterion>: PASS/FAIL (...)`` line straight to the terminal
(bypassing capture) before asserting, so a plain ``pytest -v`` run shows
both the verbose result and the measured quantities with their pinned
tolerances. The suite is self-contained: oracles are re-derived here
rather than imported from the unit tests.

Budget note: criterion 6 runs the full directional experiment (two
pretraining streams x five seeds) and dominates the wall time.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import uniboost.tensor as T
from uniboost.cli import EXIT_OK, main
from uniboost.config import ExperimentConfig, TaskSpec
from uniboost.encoders import EncoderConfig, ImageEncoder, TextEncoder
from uniboost.gradcheck import grad_check
from uniboost.metrics import ConfusionCounts, fb_iou, fold_mean, round_half_up, vqa_accuracy
from uniboost.model import TaskModel
from uniboost.neck import Neck, NeckConfig, RouteInputError, RouteKind, seg_logits
from uniboost.nn import Linear, init_rng
from uniboost.pipeline import compare_streams
from uniboost.pretrain import (MimHead, MlmHead, contrastive_loss, mim_loss,
                               mlm_loss, supervised_cls_loss)
from uniboost.scheduler import (DataQueue, RebalancePolicy, TaskDataset,
                                build_round, rebalance)
from uniboost.shapeworld import build_vocabulary, class_id
from uniboost.splits import (ClassFoldSpec, VqaRecord, VqaSplitSpec,
                             fold_split, load_vqa_v2_records, vqa_token_split)
from uniboost.tensor import Tensor

# Pinned thresholds. Changing any of these is a release decision.
GRAD_TOL = 1e-4              # relative error bound for finite differences
GRAD_INSTANCES = 10          # random instances per op and per loss
GRAD_BUDGET_S = 120.0        # CPU budget for the whole gradient suite
ROSTER_TRIALS = 1000         # randomized task rosters for the scheduler
METRIC_TRIALS = 100          # random 8x8 label maps for the metric oracles
SPLIT_CORPORA = 20           # randomized corpora for the token-split oracle
SEG_SCALE_TRIALS = 50        # random class-embedding rescalings
EXPERIMENT_SEEDS = [0, 1, 2, 3, 4]
EXPERIMENT_MIN_WINS = 4      # stream B must win at least 4 of 5 seeds
EXPERIMENT_BUDGET_S = 1800.0

IGNORE = 255
CLASSES = (0, 1, 2, 3)


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[accept] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# =====================================================================
# criterion 1 - every differentiable op and every composed loss passes
# finite-difference checks at rel-tol 1e-4, ten random instances each
# =====================================================================

def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _op_instance(rng, k):
    """One (fn, inputs) pair per primitive op tag, freshly randomized."""
    allow = rng.uniform(size=(4, 4)) >= 0.4
    allow[:, 0] = True  # keep every softmax row alive
    gather_ids = rng.integers(0, 4, size=3)
    lookup_ids = rng.integers(0, 4, size=3)
    mul_const = Tensor(rng.standard_normal((2, 6)))
    attn_const = Tensor(rng.standard_normal((2, 4, 4)))
    c = float(rng.uniform(0.5, 3.0)) * (-1.0 if k % 2 else 1.0)

    def matmul_case(r):
        if k % 2:  # alternate plain and batched forms
            return (lambda a, b: T.sum_(T.matmul(a, b)),
                    (_leaf(r, 3, 4), _leaf(r, 4, 2)))
        return (lambda a, b: T.sum_(T.matmul(a, b)),
                (_leaf(r, 2, 3, 4), _leaf(r, 2, 4, 2)))

    cases = {
        "matmul": matmul_case(rng),
        "add": (lambda a, b: T.sum_(T.mul(T.add(a, b), T.add(a, b))),
                (_leaf(rng, 3, 4), _leaf(rng, 4))),
        "elementwise-mul": (lambda a, b: T.sum_(T.mul(a, b)),
                            (_leaf(rng, 3, 4), _leaf(rng, 4))),
        "softmax": (lambda a: T.sum_(T.mul(T.softmax(a), a)), (_leaf(rng, 3, 5),)),
        "log-softmax": (lambda a: T.sum_(T.mul(T.log_softmax(a), a)),
                        (_leaf(rng, 3, 5),)),
        "layer-norm": (lambda x, g, b: T.sum_(T.mul(T.layer_norm(x, g, b), x)),
                       (_leaf(rng, 2, 6),
                        Tensor(1.0 + 0.1 * rng.standard_normal(6), requires_grad=True),
                        _leaf(rng, 6))),
        "gelu": (lambda a: T.sum_(T.gelu(a)), (_leaf(rng, 4, 4),)),
        "embedding-lookup": (lambda t: T.sum_(T.mul(T.embedding(t, lookup_ids),
                                                    T.embedding(t, lookup_ids))),
                             (_leaf(rng, 4, 3),)),
        "concat": (lambda a, b: T.sum_(T.mul(T.concat([a, b], axis=1), mul_const)),
                   (_leaf(rng, 2, 3), _leaf(rng, 2, 3))),
        "slice": (lambda a: T.sum_(T.mul(T.slice_(a, (slice(1, 3), slice(0, 2))),
                                         T.slice_(a, (slice(1, 3), slice(0, 2))))),
                  (_leaf(rng, 4, 4),)),
        "gather": (lambda a: T.sum_(T.mul(T.gather(a, gather_ids),
                                          T.gather(a, gather_ids))),
                   (_leaf(rng, 3, 4),)),
        "mean": (lambda a: T.sum_(T.mul(T.mean(a, axis=1), T.mean(a, axis=1))),
                 (_leaf(rng, 3, 4),)),
        "sum": (lambda a: T.sum_(T.mul(T.sum_(a, axis=0), T.sum_(a, axis=0))),
                (_leaf(rng, 3, 4),)),
        "transpose": (lambda a: T.sum_(T.mul(T.transpose(a), T.transpose(a))),
                      (_leaf(rng, 3, 4),)),
        "reshape": (lambda a: T.sum_(T.mul(T.reshape(a, (2, 6)), T.reshape(a, (2, 6)))),
                    (_leaf(rng, 3, 4),)),
        "scale": (lambda a: T.sum_(T.mul(T.scale(a, c), a)), (_leaf(rng, 5),)),
        "l2-normalize": (lambda a: T.sum_(T.mul(T.l2_normalize(a), a)),
                         (Tensor(rng.standard_normal((3, 5)) + 2.0, requires_grad=True),)),
        "linear": (lambda x, w, b: T.sum_(T.mul(T.linear(x, w, b), T.linear(x, w, b))),
                   (_leaf(rng, 2, 3, 4), _leaf(rng, 4, 2), _leaf(rng, 2))),
        # alternate the unmasked and masked forms
        "attention": (lambda a: T.sum_(T.mul(T.attention(a, 2, None if k % 2 else allow),
                                             attn_const)),
                      (_leaf(rng, 2, 4, 12),)),
    }
    return cases


def _loss_instances(k, rng):
    """One instance of each composed loss, with fixed data and fixed
    internal masking seeds so repeated evaluation is deterministic."""
    enc_cfg = EncoderConfig(layers=1, width=16, heads=2, max_tokens=20,
                            patch_size=4, vocab_size=32)
    img_enc = ImageEncoder(enc_cfg, seed=f"a1-img-{k}")
    txt_enc = TextEncoder(enc_cfg, seed=f"a1-txt-{k}")
    mim_head = MimHead(enc_cfg, seed=f"a1-mim-{k}")
    mlm_head = MlmHead(enc_cfg.vocab_size)
    cls_head = Linear(init_rng(f"a1-cls-{k}"), enc_cfg.width, 4)

    model_cfg = ExperimentConfig(layers=1, width=16, heads=2, patch_size=4,
                                 max_tokens=40, vocab_size=32, fusion_layers=1,
                                 fusion_heads=2, common_width=16, layer_set=(1,),
                                 grid_size=16)
    model = TaskModel(model_cfg, build_vocabulary(), seed=k)

    mim_images = rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
    mlm_ids = rng.integers(2, 32, size=(2, 8))
    con_images = rng.uniform(0.0, 1.0, size=(3, 16, 16, 3))
    con_ids = rng.integers(2, 30, size=(3, 6))
    cls_images = rng.uniform(0.0, 1.0, size=(3, 16, 16, 3))
    cls_labels = rng.integers(0, 4, size=3)

    seg_images = rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
    patch_labels = rng.choice([0, class_id("circle"), class_id("square")],
                              size=(2, 4, 4))
    seg_masks = np.repeat(np.repeat(patch_labels, 4, axis=1), 4, axis=2)
    seg_classes = ["background", "circle", "square"]

    lm_images = rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
    if k % 2:  # alternate the two generative routes
        lm_ids = rng.integers(3, 20, size=(2, 5))
        lm_fn = lambda *_: model.vqa_loss(lm_images, lm_ids, prefix_len=2, seed=k)
    else:
        lm_ids = rng.integers(3, 20, size=(2, 4))
        lm_fn = lambda *_: model.caption_loss(lm_images, lm_ids, seed=k)

    return [
        ("mim", lambda *_: mim_loss(img_enc, mim_head, mim_images, seed=k),
         [*img_enc.parameters(), *mim_head.parameters()]),
        ("mlm", lambda *_: mlm_loss(txt_enc, mlm_head, mlm_ids, seed=k),
         [*txt_enc.parameters(), *mlm_head.parameters()]),
        ("contrastive", lambda *_: contrastive_loss(img_enc, txt_enc, con_images, con_ids),
         [*img_enc.parameters(), *txt_enc.parameters()]),
        ("classification", lambda *_: supervised_cls_loss(img_enc, cls_head,
                                                          cls_images, cls_labels),
         [*img_enc.parameters(), *cls_head.parameters()]),
        ("segmentation", lambda *_: model.seg_loss(seg_images, seg_masks, seg_classes),
         list(model.parameters())),
        ("lm", lm_fn, list(model.parameters())),
    ]


def test_criterion_1_gradient_suite(capsys):
    start = time.perf_counter()
    failures = []
    max_err = 0.0
    n_checks = 0

    for k in range(GRAD_INSTANCES):
        rng = np.random.default_rng(1000 + k)
        cases = _op_instance(rng, k)
        assert set(cases) == set(T._PRIMITIVES), "op coverage drifted"
        for name, (fn, inputs) in cases.items():
            report = grad_check(fn, inputs, tol=GRAD_TOL)
            n_checks += 1
            max_err = max(max_err, report.max_rel_err)
            if not report:
                failures.append(f"op {name}[{k}]: {report.worst}")

    for k in range(GRAD_INSTANCES):
        rng = np.random.default_rng(2000 + k)
        for name, fn, params in _loss_instances(k, rng):
            # Smaller probe step than the op checks: composed losses pass
            # through temperature-scaled softmaxes whose curvature would
            # otherwise dominate the central-difference truncation error.
            report = grad_check(fn, params, eps=5e-5, tol=GRAD_TOL,
                                max_probes_per_input=2,
                                rng=np.random.default_rng(50 + k))
            n_checks += 1
            max_err = max(max_err, report.max_rel_err)
            if not report:
                failures.append(f"loss {name}[{k}]: {report.worst}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < GRAD_BUDGET_S
    detail = (f"{n_checks} checks, {len(T._PRIMITIVES)} ops + 6 losses x "
              f"{GRAD_INSTANCES} instances, max rel err {max_err:.2e} "
              f"vs tol {GRAD_TOL:.0e}, {elapsed:.1f}s < {GRAD_BUDGET_S:.0f}s"
              + (f"; first failure: {failures[0]}" if failures else ""))
    verdict(capsys, "gradient-suite", ok, detail)


# =====================================================================
# criterion 2 - 1,000 randomized task rosters obey every scheduler law
# =====================================================================

def test_criterion_2_scheduler_laws(capsys):
    rng = np.random.default_rng(20260814)
    problems = []

    for trial in range(ROSTER_TRIALS):
        n_tasks = int(rng.integers(1, 5))
        datasets = []
        for t in range(n_tasks):
            n = int(rng.integers(2, 40))
            b = int(rng.integers(1, n + 1))
            ids = tuple(f"t{t}-{i:04d}" for i in range(n))
            datasets.append(TaskDataset(f"t{t}", "image-only", ids, b,
                                        int(rng.integers(0, 2 ** 31))))
        seed = int(rng.integers(0, 2 ** 31))
        queue = build_round(datasets, seed)
        by_id = {ds.task_id: ds for ds in datasets}

        if len(queue) != sum(ds.batches_per_round for ds in datasets):
            problems.append(f"trial {trial}: queue length")
        seen = {ds.task_id: set() for ds in datasets}
        for batch in queue:
            ds = by_id[batch.task_id]
            if len(batch.sample_ids) != ds.batch_size:
                problems.append(f"trial {trial}: ragged batch in {ds.task_id}")
            if len(set(batch.sample_ids)) != len(batch.sample_ids):
                problems.append(f"trial {trial}: duplicate inside a batch")
            if not set(batch.sample_ids) <= set(ds.sample_ids):
                problems.append(f"trial {trial}: batch mixes tasks")
            seen[batch.task_id] |= set(batch.sample_ids)
        for ds in datasets:
            if seen[ds.task_id] != set(ds.sample_ids):
                problems.append(f"trial {trial}: incomplete coverage of {ds.task_id}")

        replay = build_round(datasets, seed)
        if [(b.task_id, b.sample_ids) for b in replay] != \
           [(b.task_id, b.sample_ids) for b in queue]:
            problems.append(f"trial {trial}: rerun not bit-identical")

        ds = datasets[0]
        n = len(ds.sample_ids)
        threshold = int(rng.integers(1, 4 * n))
        grown, plan = rebalance(ds, RebalancePolicy(threshold=threshold))
        if n >= threshold:
            if grown.sample_ids != ds.sample_ids or plan:
                problems.append(f"trial {trial}: rebalance touched a full dataset")
        else:
            want = n * math.ceil(threshold / n)
            if len(grown.sample_ids) != want or len(grown.sample_ids) < threshold:
                problems.append(f"trial {trial}: rebalance size")
            if grown.sample_ids[:n] != ds.sample_ids:
                problems.append(f"trial {trial}: originals reordered")
            if not all("#aug" in d for d in grown.sample_ids[n:]):
                problems.append(f"trial {trial}: derived ids unmarked")
            for spec in plan.values():
                if not (0.8 <= spec.scale < 1.2):
                    problems.append(f"trial {trial}: scale {spec.scale} out of band")
                if not (0.0 <= spec.offset_y < 1.0 and 0.0 <= spec.offset_x < 1.0):
                    problems.append(f"trial {trial}: offset out of [0, 1)")

        if trial % 25 == 0:
            q1 = DataQueue(datasets, seed)
            q2 = DataQueue(datasets, seed)
            for _ in range(2 * q1.batches_per_round):
                q1.next_batch()
                q2.next_batch()
            if q1.trace != q2.trace or q1.round != 2:
                problems.append(f"trial {trial}: queue replay diverged")

        if problems:
            break

    ok = not problems
    detail = (f"{ROSTER_TRIALS} rosters: single-task batches, exact queue "
              f"length, full coverage, intact batches, bit-identical reruns, "
              f"rebalance >= threshold with scales in [0.8, 1.2)"
              + (f"; {problems[0]}" if problems else ""))
    verdict(capsys, "scheduler-laws", ok, detail)


# =====================================================================
# criterion 3 - metrics equal brute-force oracles exactly; published
# table aggregations reproduce to the printed decimal
# =====================================================================

def _metric_oracle(pred, gt, foreground=(1, 2, 3)):
    """Direct set arithmetic, no confusion matrix."""
    keep = gt != IGNORE
    p, g = pred[keep], gt[keep]
    ious = {}
    for c in CLASSES:
        inter = int(((p == c) & (g == c)).sum())
        union = int(((p == c) | (g == c)).sum())
        if union > 0:
            ious[c] = inter / union
    miou = float(np.mean([ious[c] for c in CLASSES if c in ious]))
    pix = int((p == g).sum()) / int(keep.sum())
    fg_p, fg_g = np.isin(p, foreground), np.isin(g, foreground)
    i_fg = int((fg_p & fg_g).sum())
    u_fg = int((fg_p | fg_g).sum())
    i_bg = int((~fg_p & ~fg_g).sum())
    u_bg = int((~fg_p | ~fg_g).sum())
    fb = ((i_fg / u_fg if u_fg else 0.0) + (i_bg / u_bg if u_bg else 0.0)) / 2.0
    return ious, miou, pix, fb


def test_criterion_3_metric_oracles(capsys):
    rng = np.random.default_rng(7)
    mismatches = []
    for trial in range(METRIC_TRIALS):
        pred = rng.integers(0, 4, size=(8, 8))
        gt = rng.integers(0, 4, size=(8, 8))
        gt[rng.uniform(size=(8, 8)) < 0.1] = IGNORE
        counts = ConfusionCounts(CLASSES).accumulate(pred, gt)
        ious, miou, pix, fb = _metric_oracle(pred, gt)
        if counts.per_class_iou() != ious:
            mismatches.append(f"trial {trial}: per-class iou")
        if counts.miou() != miou:
            mismatches.append(f"trial {trial}: miou")
        if counts.pix_acc() != pix:
            mismatches.append(f"trial {trial}: pixel accuracy")
        if fb_iou(counts, (1, 2, 3)) != fb:
            mismatches.append(f"trial {trial}: fb-iou")

    tables = [
        ((67.3, 65.1, 46.7, 47.3), 56.6),
        ((68.7, 67.1, 49.0, 50.4), 58.8),
        ((30.4, 31.8, 35.7, 33.5), 32.9),
        ((31.0, 33.2, 35.9, 33.6), 33.4),
    ]
    for folds, want in tables:
        if fold_mean(folds) != want:
            mismatches.append(f"fold_mean{folds} != {want}")

    if round_half_up(float(np.mean([34.1, 75.9, 26.0])), 1) != 45.3:
        mismatches.append("vqa type-mean != 45.3")
    records = []
    for answer_type, hits in (("number", 341), ("yes/no", 759), ("other", 260)):
        records += [(answer_type, "a", "a")] * hits
        records += [(answer_type, "a", "b")] * (1000 - hits)
    _, mean = vqa_accuracy(records)
    if round_half_up(100.0 * mean, 1) != 45.3:
        mismatches.append("bulk vqa mean != 45.3")

    ok = not mismatches
    detail = (f"{METRIC_TRIALS} random 8x8 maps match the set-arithmetic "
              f"oracle exactly (==); fold means 56.6/58.8/32.9/33.4 and "
              f"vqa mean 45.3 reproduce"
              + (f"; {mismatches[0]}" if mismatches else ""))
    verdict(capsys, "metric-oracles", ok, detail)


# =====================================================================
# criterion 4 - zero-shot splits: disjoint exhaustive folds and the
# token-frequency split vs a brute-force oracle
# =====================================================================

VQA_DIR = Path(__import__("os").environ.get("UNIBOOST_VQA_DIR", "/root/data/vqa2"))
VQA_QUESTIONS = VQA_DIR / "v2_OpenEnded_mscoco_train2014_questions.json"
VQA_ANNOTATIONS = VQA_DIR / "v2_mscoco_train2014_annotations.json"


def _split_oracle(records, answer_type, lower, upper, count_records=None):
    source = "answer" if answer_type == "other" else "question"
    freq = {}
    for r in (records if count_records is None else count_records):
        if r.answer_type == answer_type:
            for tok in (r.answer_tokens if source == "answer" else r.question_tokens):
                freq[tok] = freq.get(tok, 0) + 1
    base_ids, novel_ids = [], []
    for r in records:
        if r.answer_type != answer_type:
            continue
        toks = r.answer_tokens if source == "answer" else r.question_tokens
        is_novel = False
        for tok in toks:
            if lower <= freq.get(tok, 0) < upper:
                is_novel = True
        (novel_ids if is_novel else base_ids).append(r.record_id)
    return base_ids, novel_ids


def _random_records(rng, n=300):
    words = [f"w{i:02d}" for i in range(30)]
    types = ("number", "yes/no", "other")
    out = []
    for i in range(n):
        q = tuple(words[j] for j in rng.integers(0, 30, size=int(rng.integers(3, 7))))
        a = tuple(words[j] for j in rng.integers(0, 30, size=int(rng.integers(1, 4))))
        out.append(VqaRecord(f"r{i:03d}", types[int(rng.integers(3))], q, a))
    return out


def test_criterion_4_zero_shot_splits(capsys):
    problems = []

    fold_specs = [(20, 4), (12, 3), (8, 2), (6, 6), (6, 1)]
    for n_classes, n_folds in fold_specs:
        novel_blocks = []
        for fold in range(n_folds):
            base, novel = fold_split(ClassFoldSpec(n_classes, n_folds, fold))
            if set(base) & set(novel):
                problems.append(f"fold {fold}/{n_folds}: overlap")
            if sorted(set(base) | set(novel)) != list(range(n_classes)):
                problems.append(f"fold {fold}/{n_folds}: not exhaustive")
            if len(novel) != n_classes // n_folds:
                problems.append(f"fold {fold}/{n_folds}: novel size")
            novel_blocks += novel
        if sorted(novel_blocks) != list(range(n_classes)):
            problems.append(f"{n_classes}/{n_folds}: folds do not partition")
    base, novel = fold_split(ClassFoldSpec(6, 3, 1),
                             classes=["dog", "cat", "ant", "bee", "fish", "bird"])
    if novel != ["bird", "cat"]:  # fold 1 of the sorted class list
        problems.append("named classes not split in sorted order")

    rng = np.random.default_rng(11)
    for corpus in range(SPLIT_CORPORA):
        records = _random_records(rng)
        lower = int(rng.integers(5, 15))
        upper = lower + int(rng.integers(5, 20))
        for answer_type in ("number", "yes/no", "other"):
            spec = VqaSplitSpec(answer_type, lower, upper)
            base, novel = vqa_token_split(records, spec)
            want = _split_oracle(records, answer_type, lower, upper)
            if ([r.record_id for r in base], [r.record_id for r in novel]) != want:
                problems.append(f"corpus {corpus} {answer_type}: split != oracle")
            train, held = records[:150], records[150:]
            counts = Counter()
            for r in train:
                if r.answer_type == answer_type:
                    counts.update(r.answer_tokens if spec.token_source == "answer"
                                  else r.question_tokens)
            base2, novel2 = vqa_token_split(held, spec, counts=counts)
            want2 = _split_oracle(held, answer_type, lower, upper, count_records=train)
            if ([r.record_id for r in base2], [r.record_id for r in novel2]) != want2:
                problems.append(f"corpus {corpus} {answer_type}: held-out split != oracle")

    if VQA_QUESTIONS.exists() and VQA_ANNOTATIONS.exists():
        records = load_vqa_v2_records(VQA_QUESTIONS, VQA_ANNOTATIONS)
        base, novel = vqa_token_split(records, VqaSplitSpec("number"))
        if (len(base), len(novel)) != (46243, 11363):
            problems.append(f"real corpus: {len(base)}/{len(novel)} != 46243/11363")
        note = f"real number-type corpus: {len(base)}/{len(novel)}"
    else:
        note = "real corpus subtest skipped (data not present)"

    ok = not problems
    detail = (f"folds disjoint+exhaustive over {fold_specs}; "
              f"{SPLIT_CORPORA} corpora x 3 answer types match the "
              f"brute-force token-band oracle; {note}"
              + (f"; {problems[0]}" if problems else ""))
    verdict(capsys, "zero-shot-splits", ok, detail)


# =====================================================================
# criterion 5 - neck invariants: route purity, generative causality
# (exhaustive to six tokens), and scale-invariant segmentation argmax
# =====================================================================

def test_criterion_5_neck_invariants(capsys):
    neck = Neck(NeckConfig(encoder_width=8, text_width=8, layer_set=(1, 2),
                           common_width=8, fusion_layers=2, fusion_heads=2,
                           vocab_size=12), seed=0)
    rng = np.random.default_rng(3)
    problems = []

    img = Tensor(rng.normal(size=(1, 2, 8)))
    txt = Tensor(rng.normal(size=(1, 2, 8)))
    violations = [
        (RouteKind.IMAGE_ONLY, dict(image_seq=img, text_seq=txt)),
        (RouteKind.TEXT_ONLY, dict(image_seq=img, text_seq=txt)),
        (RouteKind.IMAGE_ONLY, dict()),
        (RouteKind.TEXT_ONLY, dict()),
    ]
    for route in (RouteKind.LANGUAGE_GUIDED_VISION, RouteKind.IMAGE_TO_TEXT_GEN,
                  RouteKind.DEEP_FUSION):
        violations.append((route, dict(image_seq=img)))
        violations.append((route, dict(text_seq=txt)))
    n_purity = 0
    for route, kwargs in violations:
        try:
            neck.route_forward(route, **kwargs)
            problems.append(f"purity: {route.value} accepted {sorted(kwargs)}")
        except RouteInputError:
            n_purity += 1

    n_causal = 0
    for route in (RouteKind.DEEP_FUSION, RouteKind.IMAGE_TO_TEXT_GEN):
        for n_img in range(1, 6):
            for n_txt in range(1, 7 - n_img):
                img = Tensor(rng.normal(size=(1, n_img, 8)))
                txt_data = rng.normal(size=(1, n_txt, 8))
                base = neck.route_forward(route, img, Tensor(txt_data.copy()))
                for j in range(n_txt):
                    bumped = txt_data.copy()
                    bumped[0, j] += rng.normal(size=8)
                    out = neck.route_forward(route, img, Tensor(bumped))
                    cut = n_img + j
                    n_causal += 1
                    if not np.array_equal(base.values[:, :cut], out.values[:, :cut]):
                        problems.append(
                            f"causality: {route.value} ({n_img},{n_txt}) token {j} "
                            f"leaked backwards")
                    if np.array_equal(base.values[:, cut], out.values[:, cut]):
                        problems.append(
                            f"causality: {route.value} ({n_img},{n_txt}) token {j} "
                            f"had no effect on itself")

    for trial in range(SEG_SCALE_TRIALS):
        patches = Tensor(rng.normal(size=(1, 16, 8)))
        classes = rng.normal(size=(4, 8))
        scales = rng.uniform(0.05, 20.0, size=4)
        plain = np.argmax(seg_logits(patches, Tensor(classes)).values, axis=-1)
        scaled = np.argmax(seg_logits(patches,
                                      Tensor(classes * scales[:, None])).values, axis=-1)
        if not np.array_equal(plain, scaled):
            problems.append(f"seg argmax changed under rescaling (trial {trial})")

    ok = not problems
    detail = (f"{n_purity} route-purity violations rejected; causality "
              f"bit-exact for all {n_causal} perturbations on both generative "
              f"routes up to 6 tokens; argmax stable under {SEG_SCALE_TRIALS} "
              f"positive class rescalings"
              + (f"; {problems[0]}" if problems else ""))
    verdict(capsys, "neck-invariants", ok, detail)


# =====================================================================
# criterion 6 - directional claim: masked unimodal pretraining (stream
# B, novel classes present unpaired) beats pair-contrastive pretraining
# (stream A, base pairs only) on novel-class language-guided
# segmentation, across seeds
# =====================================================================

def _stream_cfg(mode):
    return ExperimentConfig(
        pretrain_mode=mode,
        patch_size=2,
        pretrain_steps=600,
        steps=300,
        eval_samples=80,
        samples_per_corpus=2048,
        paired_fraction=0.25,
        tasks=[TaskSpec("seg", "language-guided-vision", "seg", 8)],
    ).validate()


@pytest.mark.slow
def test_criterion_6_pretraining_direction(capsys):
    start = time.perf_counter()
    report = compare_streams({"pair-contrastive": _stream_cfg("pair-contrastive"),
                              "masked-unimodal": _stream_cfg("masked-unimodal")},
                             EXPERIMENT_SEEDS)
    elapsed = time.perf_counter() - start

    wins_b = report.win_counts["masked-unimodal"]
    mean_a = report.stream_means["pair-contrastive"]
    mean_b = report.stream_means["masked-unimodal"]
    gap = mean_b - mean_a
    per_seed = {row.stream: {} for row in report.rows}
    for row in report.rows:
        per_seed[row.stream][row.seed] = row.fold_scores["novel"]

    ok = (wins_b >= EXPERIMENT_MIN_WINS and gap > 0.0
          and elapsed < EXPERIMENT_BUDGET_S)
    detail = (f"novel mIoU x100 per seed: "
              f"A={[per_seed['pair-contrastive'][s] for s in EXPERIMENT_SEEDS]}, "
              f"B={[per_seed['masked-unimodal'][s] for s in EXPERIMENT_SEEDS]}; "
              f"B wins {wins_b}/{len(EXPERIMENT_SEEDS)} "
              f"(need >= {EXPERIMENT_MIN_WINS}), mean gap {gap:+.4f} "
              f"(need > 0), {elapsed:.0f}s < {EXPERIMENT_BUDGET_S:.0f}s")
    verdict(capsys, "pretraining-direction", ok, detail)


# =====================================================================
# criterion 7 - rerunning the comparison with an identical config and
# seeds emits a byte-identical CSV
# =====================================================================

RERUN_CFG = """
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


def test_criterion_7_deterministic_reruns(tmp_path, monkeypatch, capsys):
    cfg_a = tmp_path / "mu.cfg"
    cfg_a.write_text(RERUN_CFG.format(mode="masked-unimodal"))
    cfg_b = tmp_path / "pc.cfg"
    cfg_b.write_text(RERUN_CFG.format(mode="pair-contrastive"))

    emitted = []
    for attempt in ("first", "second"):
        out = tmp_path / f"runs-{attempt}"
        monkeypatch.setenv("UNIBOOST_OUT", str(out))
        rc = main(["compare", "--config", str(cfg_a), "--config", str(cfg_b),
                   "--seeds", "0,1"])
        assert rc == EXIT_OK
        emitted.append((out / "comparison.csv").read_bytes())

    header_ok = emitted[0].startswith(b"row-type,stream,seed,novel,mean,fb-iou")
    ok = emitted[0] == emitted[1] and header_ok
    detail = (f"two cold runs, 2 streams x seeds 0,1: csv bytes "
              f"{'identical' if emitted[0] == emitted[1] else 'DIFFER'} "
              f"({len(emitted[0])} bytes)")
    verdict(capsys, "deterministic-reruns", ok, detail)
