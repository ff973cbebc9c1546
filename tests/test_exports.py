"""Every name a ``uniboost`` module exports through ``__all__`` exists, and
every name the benchmark's span tracer patches still resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import uniboost

ROOT = Path(__file__).resolve().parents[1]


def test_every_all_entry_resolves():
    modules = [uniboost] + [importlib.import_module(f"uniboost.{info.name}")
                            for info in pkgutil.iter_modules(uniboost.__path__)]
    assert len(modules) > 10
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


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
