"""Span tracer for the benchmark's traced run.

``install`` puts an import hook in front of ``sys.meta_path``. When a
``uniboost`` module finishes loading, the hook replaces the public functions
and methods listed in ``_PATCHES`` with wrappers that record one span per
call. Modules that import a name from another module import it after that
module has loaded, so they bind the wrapper too. No file of the program is
changed.

A span is ``(id, name, start, end, parent id, job id, attr)``. Ids are unique
within a process; the parent is the span open when the call began (0 at the
root). The job id is the (stream, seed) job or CLI command the call belongs
to, so spans from several processes can be merged by job. ``attr`` carries a
per-call count where a metric needs one. Spans stay in memory and are
written to ``<trace dir>/spans-<pid>.json`` when the process exits.
"""

import atexit
import gc
import importlib.machinery
import itertools
import json
import os
import sys
import time
import weakref

_clock = time.perf_counter


class Recorder:
    """The spans and counters of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.job = ""
        self.live_graphs = 0
        self.live_graphs_max = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def wrap(self, name, fn, attr=None):
        """``fn`` recording a span per call. ``name`` may be a function of
        the call's arguments; ``attr(args, result)`` gives the span's attr."""
        spans, stack, ids, rec = self.spans, self.stack, self.ids, self
        dynamic = callable(name)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            job = rec.job
            stack.append(sid)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
            spans.append((sid, name(args) if dynamic else name, t0, t1, parent, job,
                          attr(args, out) if attr else None))
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_job(self, name, fn, job_of):
        """Like ``wrap``, and every span opened inside the call carries the
        job id ``job_of(args)``."""
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            prev = self.job
            self.job = job_of(args)
            try:
                return inner(*args, **kwargs)
            finally:
                self.job = prev

        traced.__wrapped__ = fn
        return traced

    def graph_created(self, tape):
        self.live_graphs += 1
        self.live_graphs_max = max(self.live_graphs_max, self.live_graphs)
        weakref.finalize(tape, self._graph_freed).atexit = False

    def _graph_freed(self):
        self.live_graphs -= 1

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _clock()
        elif self._gc_start is not None:
            self.gc_s += _clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def forked(self):
        """A forked child starts with no spans of its own."""
        self.spans.clear()
        self.stack[1:] = []
        if "multiprocessing.util" in sys.modules:
            # forked workers leave through os._exit, which skips atexit
            sys.modules["multiprocessing.util"].Finalize(None, self.write, exitpriority=0)

    def write(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        if os.path.exists(path):
            return
        payload = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "counters": {"live_graphs_max": self.live_graphs_max,
                         "gc_s": self.gc_s,
                         "gc_collections": self.gc_collections},
            "spans": self.spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# what is wrapped, module by module


def _tensor_out(args, out):
    return (out.values.nbytes, out._node is not None)


def _patch_tensor(rec, mod):
    for tag, fn in mod._PRIMITIVES.items():
        setattr(mod, fn.__name__, rec.wrap("tensor." + tag, fn, _tensor_out))
    emit = mod._emit
    bwd_names = {tag: "tensor.bwd." + tag for tag in mod._PRIMITIVES}

    def _emit(op, inputs, out_values, grad_fn):
        return emit(op, inputs, out_values, rec.wrap(bwd_names[op], grad_fn))

    mod._emit = _emit
    tape = mod.Tape
    tape.backward = rec.wrap("tensor.backward", tape.backward,
                             lambda args, out: len(args[0].nodes))
    init = tape.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.graph_created(self)

    tape.__init__ = __init__


def _functions(*table):
    def patch(rec, mod):
        for attr_name, span_name, *attr in table:
            setattr(mod, attr_name, rec.wrap(span_name, getattr(mod, attr_name), *attr))
    return patch


def _methods(class_name, *table):
    def patch(rec, mod):
        cls = getattr(mod, class_name)
        for meth, span_name, *attr in table:
            setattr(cls, meth, rec.wrap(span_name, getattr(cls, meth), *attr))
    return patch


def _patch_encoders(rec, mod):
    _functions(("patchify", "encoders.patchify"))(rec, mod)
    mod.ImageEncoder.embed = rec.wrap("encoders.image.embed", mod.ImageEncoder.embed)
    mod.TextEncoder.embed = rec.wrap("encoders.text.embed", mod.TextEncoder.embed)
    image = mod.ImageEncoder
    mod._Stack.run_layers = rec.wrap(
        lambda args: "encoders.image.layers" if isinstance(args[0], image)
        else "encoders.text.layers", mod._Stack.run_layers)


def _patch_pipeline(rec, mod):
    _functions(("build_corpora", "pipeline.corpora"),
               ("pretrain_stage", "pipeline.pretrain"),
               ("finetune_stage", "pipeline.finetune"),
               ("eval_stage", "pipeline.eval"))(rec, mod)
    mod.run_stream = rec.wrap_job("pipeline.job", mod.run_stream,
                                  lambda args: f"{args[0].pretrain_mode}:seed{args[1]}")


def _dir_bytes(args, out):
    directory = args[0]
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _command_job(args):
    ns = args[0]
    return ns.command + (f":{ns.split}" if getattr(ns, "split", None) else "")


def _patch_cli(rec, mod):
    for command in ("pretrain", "finetune_multitask", "eval", "compare"):
        fn_name = f"cmd_{command}"
        setattr(mod, fn_name, rec.wrap_job("cli." + command.replace("_", "-"),
                                           getattr(mod, fn_name), _command_job))


def _compose(*patches):
    def patch(rec, mod):
        for p in patches:
            p(rec, mod)
    return patch


_PATCHES = {
    "uniboost.tensor": _patch_tensor,
    "uniboost.nn": _compose(
        _methods("MultiHeadSelfAttention", ("__call__", "nn.attn")),
        _methods("FeedForward", ("__call__", "nn.ffn")),
        _methods("LayerNorm", ("__call__", "nn.layer_norm")),
        _methods("Linear", ("__call__", "nn.linear"))),
    "uniboost.optim": _methods("AdamW", ("step", "optim.step")),
    "uniboost.encoders": _patch_encoders,
    "uniboost.pretrain": _functions(
        ("pretrain_run", "pretrain.run"),
        ("mim_loss", "pretrain.loss.mim"),
        ("mlm_loss", "pretrain.loss.mlm"),
        ("contrastive_loss", "pretrain.loss.contrastive"),
        ("supervised_cls_loss", "pretrain.loss.supervised")),
    "uniboost.neck": _compose(
        _methods("Neck", ("route_forward", "neck.route_forward")),
        _functions(("seg_logits", "neck.seg_logits"),
                   ("lm_generate", "neck.lm_generate", lambda args, out: len(out)))),
    "uniboost.model": _methods(
        "TaskModel",
        ("seg_loss", "model.seg_loss"),
        ("cls_loss", "model.cls_loss"),
        ("caption_loss", "model.caption_loss"),
        ("vqa_loss", "model.vqa_loss"),
        ("seg_predict", "model.seg_predict"),
        ("generate_answer", "model.generate_answer"),
        ("seg_patch_logits", "model.seg_patch_logits"),
        ("class_prompts", "model.class_prompts")),
    "uniboost.scheduler": _compose(
        _methods("DataQueue", ("next_batch", "scheduler.next_batch")),
        _functions(("rebalance", "scheduler.rebalance"),
                   ("apply_augmentation", "scheduler.augment"))),
    "uniboost.shapeworld": _functions(
        ("gen_shapeworld", "shapeworld.corpora", lambda args, out: repr(args[0])),
        ("gen_single_shape_corpus", "shapeworld.eval_corpus")),
    "uniboost.metrics": _methods(
        "ConfusionCounts", ("accumulate", "metrics.accumulate",
                            lambda args, out: int(args[1].size))),
    "uniboost.pipeline": _patch_pipeline,
    "uniboost.tensorio": _functions(("save_checkpoint", "tensorio.save", _dir_bytes),
                                    ("load_checkpoint", "tensorio.load", _dir_bytes)),
    "uniboost.config": _functions(("parse_config", "config.parse")),
    "uniboost.cli": _patch_cli,
}


class _PatchingFinder:
    """Meta-path finder that patches a listed module right after it loads."""

    def __init__(self, rec):
        self.rec = rec

    def find_spec(self, fullname, path=None, target=None):
        patch = _PATCHES.get(fullname)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            patch(self.rec, module)

        spec.loader.exec_module = exec_module
        return spec


def install(out_dir):
    rec = Recorder(out_dir)
    sys.meta_path.insert(0, _PatchingFinder(rec))
    gc.callbacks.append(rec.on_gc)
    atexit.register(rec.write)
    os.register_at_fork(after_in_child=rec.forked)
    return rec
