"""Every function in ``src/uniboost`` is reached by the commands a run
makes, or is listed in ``ALLOWLIST`` with the reason it stays.

The audit runs the traffic through ``cli.main`` in a fresh process with
``sys.setprofile`` installed before ``import uniboost``, so code that runs
at import counts too: the stage chain (``pretrain``, ``finetune-multitask``,
``eval --vqa`` on both splits) in each pretraining mode, and a two-stream
``compare`` whose process pool is an in-process stand-in that still runs
the pool's ``initializer``. The configs are the benchmark's, shrunk until
the chain still draws every head of its four-task roster.

A function is keyed by its module and qualified name, as in
``tensor.Tensor.item`` or ``pipeline.finetune_stage.<locals>.sample``, and
matched to the profiler's code objects by file and first line from
``ast``. A qualified name that repeats within a module (two ``grad_fn``
closures in one function) keys its later definitions ``#2``, ``#3``, ...
in source order. Only ``def`` statements count, nested ones included;
lambdas do not.

Reading a failure: an *unreached* function is new code that no command
calls. Wire it in, move it into the test that needs it, or delete it; an
allowlist entry is for code that must stay although no run reaches it. A
*stale* entry is a listed function that the traffic now reaches, or a
name that no longer exists; remove the entry.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from uniboost.config import parse_config, serialize_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uniboost"
CONFIGS = ROOT / "perfbench" / "configs"
MODES = ("masked-unimodal", "pair-contrastive", "supervised")
# The smallest run at which the chain's rebalanced pool still feeds every
# head of the four-task roster.
SHRINK = dict(samples_per_corpus=64, steps=16, eval_samples=16, rebalance_threshold=32)

_ACCEPTANCE = "gated by tests/test_acceptance.py, which imports it"
ALLOWLIST = {
    # Gated by the acceptance suite: the criterion that reads it stays
    # unchanged, so the code stays where it imports it from.
    "gradcheck.grad_check": _ACCEPTANCE + " (criterion 1)",
    "gradcheck.grad_check.<locals>.eval_fn": "grad_check's loss probe (criterion 1)",
    "gradcheck._rel_err": "grad_check's error measure (criterion 1)",
    "gradcheck.GradCheckReport.__bool__": "criterion 1 asserts grad_check's report",
    "tensor.softmax": "criterion 1 checks its gradient; runs fuse it into attention",
    "tensor.sum_.<locals>.grad_fn#2": "criterion 1's `sum` case takes the axis gradient",
    "splits.fold_split": _ACCEPTANCE + " (criterion 4); ROADMAP item 2's fold sweep",
    "splits.ClassFoldSpec.__post_init__": "fold_split's spec check (criterion 4)",
    "splits.vqa_token_split": _ACCEPTANCE + " (criterion 4)",
    "splits.VqaSplitSpec.__post_init__": "vqa_token_split's spec check (criterion 4)",
    "splits.VqaSplitSpec.token_source": "vqa_token_split reads it (criterion 4)",
    "splits.count_source_tokens": "vqa_token_split's default counts (criterion 4)",
    "splits._source_tokens": "vqa_token_split's helper (criterion 4)",
    "splits.load_vqa_v2_records": _ACCEPTANCE + " (criterion 4; skipped without the data)",
    "splits._vqa_tokenize": "load_vqa_v2_records' helper (criterion 4)",
    "nn.Module.parameters": "criterion 1 reads a module's parameters through it",
    "scheduler.TaskDataset.batches_per_round": "criterion 2's round law",
    "scheduler.DataQueue.batches_per_round": "criterion 2's round law",
    # Waiting for an open ROADMAP item that will call it.
    "optim.AdamW.effective_lr": "ROADMAP item 1 records each group's learning rate",
    "pipeline.RunRecord.to_json": "ROADMAP item 1 writes the run record",
    # Reached only on some data.
    "tensor._erf_tail": "GELU inputs beyond +-sqrt(2) only; its bits are checked by "
                        "tests/test_tensor.py::test_erf_bits_match_scipy",
    # Protocol: required by collections.abc.Mapping.
    "pipeline._Corpora.__iter__": "Mapping protocol; tests/test_pipeline.py reads it",
    "pipeline._Corpora.__len__": "Mapping protocol; tests/test_pipeline.py reads it",
}

# Runs in a fresh interpreter: argv[1] is the JSON list of command lines,
# argv[2] the file the reached (file, first line) pairs go to.
_DRIVER = r"""
import json, sys
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(profile)
import concurrent.futures

class InlinePool:
    # compare's process pool, run in this process so the profiler sees the jobs
    def __init__(self, max_workers, mp_context, initializer):
        initializer()

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures):
        pass

concurrent.futures.ProcessPoolExecutor = InlinePool
from uniboost import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
sys.setprofile(None)
with open(sys.argv[2], "w") as f:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes}), f)
"""


def src_functions() -> dict[str, tuple[str, int]]:
    """Key -> (real path, first line, decorators included) of every ``def``."""
    out: dict[str, tuple[str, int]] = {}
    for path in sorted(SRC.glob("*.py")):
        seen: dict[str, int] = {}

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    seen[qual] = seen.get(qual, 0) + 1
                    key = f"{path.stem}.{qual}" + (f"#{seen[qual]}" if seen[qual] > 1 else "")
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[key] = (os.path.realpath(path), first)
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def _write_config(name: str, path: Path, **changes) -> str:
    cfg = parse_config((CONFIGS / name).read_text())
    path.write_text(serialize_config(dataclasses.replace(cfg, **SHRINK, **changes)))
    return str(path)


def _traffic(tmp_path: Path) -> list[list[str]]:
    commands = []
    for mode in MODES:
        cfg = _write_config("chain-masked-unimodal.cfg", tmp_path / f"chain-{mode}.cfg",
                            pretrain_mode=mode)
        chain = [["pretrain"], ["finetune-multitask"], ["eval", "--split", "base", "--vqa"],
                 ["eval", "--split", "novel", "--vqa"]]
        commands += [[*c, "--config", cfg, "--out", str(tmp_path / "chain")] for c in chain]
    streams = [_write_config(f"sweep-{mode}.cfg", tmp_path / f"sweep-{mode}.cfg")
               for mode in MODES[:2]]
    commands.append(["compare", "--config", streams[0], "--config", streams[1],
                     "--seeds", "0", "--out", str(tmp_path / "compare")])
    return commands


def test_every_src_function_is_reached_by_a_command_or_allowlisted(tmp_path):
    functions = src_functions()
    reached_at = tmp_path / "reached.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("UNIBOOST_OUT", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _DRIVER, json.dumps(_traffic(tmp_path)),
                           str(reached_at)], env=env, capture_output=True, text=True,
                          timeout=300)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-3000:]
    reached = {(os.path.realpath(f), line) for f, line in json.loads(reached_at.read_text())}
    print(f"reachability audit: {len(functions)} functions, traffic ran in {wall:.1f} s")

    unreached = sorted(k for k, where in functions.items()
                       if where not in reached and k not in ALLOWLIST)
    assert unreached == [], (
        "no command reaches these functions; wire them in, move them into the test "
        f"that needs them, or delete them: {unreached}")
    stale = sorted(k for k in ALLOWLIST if k not in functions or functions[k] in reached)
    assert stale == [], f"allowlist entries that are reached or name no function: {stale}"


def test_every_test_an_allowlist_reason_names_exists():
    for key, reason in ALLOWLIST.items():
        for module, name in re.findall(r"tests/(\w+)\.py::(\w+)", reason):
            tree = ast.parse((ROOT / "tests" / f"{module}.py").read_text())
            assert name in {n.name for n in ast.walk(tree)
                            if isinstance(n, ast.FunctionDef)}, (key, name)
