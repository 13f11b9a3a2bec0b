"""The benchmark's tracer wraps slrkit functions that exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, function_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"slrkit.{module_name}")
        function = getattr(module, function_name, None)
        assert callable(function), f"slrkit.{module_name}.{function_name}"
