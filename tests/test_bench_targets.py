"""The benchmark's span tracer patches railho callables by name; each must exist."""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _namespaces() -> dict[str, dict]:
    """Attributes of every loaded railho module and of the classes defined in it."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "railho" or name.startswith("railho."):
            out[name] = dict(vars(module))
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == name:
                    out[f"{name}.{cls_name}"] = dict(vars(cls))
    return out


def test_tracer_finds_every_patch_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()  # AttributeError if a patched name no longer exists
    finally:
        tracer.uninstall()
    assert _namespaces() == before
