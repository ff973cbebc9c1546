"""Every name a ``uniboost`` module exports through ``__all__`` exists,
every name the benchmark's span tracer patches still resolves, every op
tag a training loss tapes is one the tracer knows, the command line
does not import scipy, and no module imports a name it never uses."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import uniboost
from uniboost import tensor as T
from uniboost.config import ExperimentConfig
from uniboost.encoders import EncoderConfig, ImageEncoder, TextEncoder
from uniboost.model import TaskModel
from uniboost.nn import Linear, init_rng
from uniboost.pretrain import (MimHead, MlmHead, contrastive_loss, mim_loss, mlm_loss,
                               supervised_cls_loss)
from uniboost.shapeworld import build_vocabulary, class_id

ROOT = Path(__file__).resolve().parents[1]


def test_every_all_entry_resolves():
    modules = [uniboost] + [importlib.import_module(f"uniboost.{info.name}")
                            for info in pkgutil.iter_modules(uniboost.__path__)]
    assert len(modules) > 10
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "uniboost").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_traced_import_resolves_every_hook(tmp_path):
    # The tracer in perfbench/tracehook wraps functions by name as each
    # module loads; a renamed one fails this import with AttributeError.
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench" / "tracehook")]),
               PERFBENCH_TRACE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", "import uniboost.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("spans-*.json"))) == 1


def test_importing_the_cli_loads_no_scipy():
    # Importing scipy.special costs a process about a third of a second and
    # 25 MB; the runtime needs numpy alone.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, uniboost.cli, uniboost.pipeline; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # Only compare starts a process pool, and it loads multiprocessing and
    # concurrent.futures when it runs, so no other command pays for them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, uniboost.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


CHAIN_CFG = """
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
mode = masked-unimodal
steps = 2

[data]
samples_per_corpus = 16
paired_fraction = 0.5

[optimizer]
warmup_steps = 1

[run]
steps = 4
batch_size = 4
eval_samples = 4
rebalance_threshold = 8
""" + "".join(f"""
[task {head}]
route = {route}
head = {head}
batch_size = 4
""" for head, route in [("seg", "language-guided-vision"), ("cls", "image-only"),
                        ("caption", "image-to-text-gen"), ("vqa", "deep-fusion")])


def test_traced_stage_chain_records_the_spans_the_benchmark_reads(tmp_path):
    # The traced benchmark runs these commands; a wrapper that breaks a call
    # only shows once the call is made, which importing alone does not do.
    trace, out = tmp_path / "trace", tmp_path / "out"
    trace.mkdir()
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(CHAIN_CFG)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench" / "tracehook")]),
               PERFBENCH_TRACE_DIR=str(trace), UNIBOOST_OUT=str(out))
    for command in (["pretrain"], ["finetune-multitask"],
                    ["eval", "--split", "novel", "--vqa"]):
        proc = subprocess.run([sys.executable, "-m", "uniboost.cli", *command,
                               "--config", str(cfg)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, (command, proc.stderr)
    names = {span[1] for path in trace.glob("spans-*.json")
             for span in json.loads(path.read_text())["spans"]}
    want = {"neck.route_forward", "neck.lm_generate", "encoders.image.layers",
            "encoders.text.layers", "model.generate_answer", "tensor.bwd.attention"}
    assert want <= names, sorted(want - names)


def test_every_taped_op_tag_is_a_primitive():
    # The tracer names each node's backward span through a table keyed on
    # ``_PRIMITIVES``, so a tag missing there breaks a traced run at its
    # first backward.
    enc = EncoderConfig(layers=1, width=16, heads=2, max_tokens=20, patch_size=4,
                        vocab_size=32)
    img_enc, txt_enc = ImageEncoder(enc, seed=1), TextEncoder(enc, seed=2)
    model = TaskModel(ExperimentConfig(layers=1, width=16, heads=2, patch_size=4,
                                       max_tokens=40, vocab_size=32, fusion_layers=1,
                                       fusion_heads=2, common_width=16, layer_set=(1,),
                                       grid_size=16), build_vocabulary(), seed=0)
    rng = np.random.default_rng(0)
    images = rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
    ids = rng.integers(3, 20, size=(2, 5))
    masks = np.repeat(np.repeat(rng.choice([0, class_id("circle")], size=(2, 4, 4)),
                                4, axis=1), 4, axis=2)
    losses = {
        "seg": lambda: model.seg_loss(images, masks, ["background", "circle"]),
        "cls": lambda: model.cls_loss(images, np.array([0, 1])),
        "caption": lambda: model.caption_loss(images, ids, seed=0),
        "vqa": lambda: model.vqa_loss(images, ids, prefix_len=2, seed=0),
        "mim": lambda: mim_loss(img_enc, MimHead(enc), images, seed=0),
        "mlm": lambda: mlm_loss(txt_enc, MlmHead(enc.vocab_size), ids, seed=0),
        "contrastive": lambda: contrastive_loss(img_enc, txt_enc, images, ids),
        "supervised": lambda: supervised_cls_loss(img_enc, Linear(init_rng(0), 16, 4),
                                                  images, np.array([0, 3])),
    }
    for name, loss in losses.items():
        with T.Tape() as tape:
            loss()
        tags = {node.op for node in tape.nodes}
        assert "attention" in tags and "linear" in tags, name
        assert tags <= set(T._PRIMITIVES), f"{name}: {sorted(tags - set(T._PRIMITIVES))}"
