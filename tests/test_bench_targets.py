"""The benchmark patches railho callables by name: its span tracer, and its capture of a sweep's configs."""

import importlib
import inspect
import sys
from pathlib import Path

from railho import cli, simulate
from railho.config import RunConfig, apply_overrides

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


def test_sweep_capture_sees_every_config_of_one_batch(monkeypatch, tmp_path):
    """``sweep_grid`` captures each config's statistics at ``cli.monte_carlo``; the sweep runs one batch."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    batches = []

    def counted(cfgs, workers):
        batches.append(list(cfgs))
        return simulate.run_batch(cfgs, workers)

    monkeypatch.setattr(cli, "run_batch", counted)
    argv = ["sweep", "--speeds", "100,300", "--offsets", "0,2", "--envs", "viaduct,urban", "--runs", "2",
            "--out", str(tmp_path)]
    code, captured = workloads.run_cli_capturing(argv)
    assert code == 0
    base = apply_overrides(RunConfig(), runs=2)
    expected = [
        apply_overrides(base, speed_kmh=speed, environment=env, offset_db=offset)
        for env in ("viaduct", "urban")
        for speed in (100.0, 300.0)
        for offset in (0.0, 2.0)
    ]
    assert [cfg for cfg, _ in captured] == expected
    assert batches == [expected]
    for cfg, stats in captured:
        assert stats == simulate.monte_carlo(cfg)
