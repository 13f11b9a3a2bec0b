"""The benchmark's scripts use slrkit names that exist."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def slrkit_names(path):
    """(module, name) pairs a script takes from slrkit: imports and module attributes.

    Attributes count only on names that ``from slrkit import …`` binds, so a
    local variable of the same name in another script is not taken for the
    module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] == "slrkit":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "slrkit":
                    modules[alias.asname or alias.name] = f"slrkit.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


def test_perfbench_slrkit_names_exist():
    used = set().union(*(slrkit_names(path) for path in PERFBENCH.glob("*.py")))
    assert ("slrkit.metrics", "brute_force_cpwer") in used
    assert ("slrkit.metrics", "assignment_streams") in used
    for module_name, name in sorted(used):
        module = importlib.import_module(module_name)
        if module_name == "slrkit":  # ``from slrkit import corpus`` names a submodule
            importlib.import_module(f"slrkit.{name}")
        assert hasattr(module, name), f"{module_name}.{name}"
