"""Every name a ``uniboost`` module exports through ``__all__`` exists."""

import importlib
import pkgutil

import uniboost


def test_every_all_entry_resolves():
    modules = [uniboost] + [importlib.import_module(f"uniboost.{info.name}")
                            for info in pkgutil.iter_modules(uniboost.__path__)]
    assert len(modules) > 10
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
