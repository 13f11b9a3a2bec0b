"""The benchmark's scripts use slrkit names that exist, with arguments they take.

The package's own public names resolve too.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import slrkit
from slrkit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_script(monkeypatch, name, path):
    """Import a benchmark script as module ``name`` for the length of a test."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(monkeypatch):
    tracing = load_script(monkeypatch, "perfbench_tracing", TRACING)
    assert tracing.TARGETS
    for module_name, function_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"slrkit.{module_name}")
        function = getattr(module, function_name, None)
        assert callable(function), f"slrkit.{module_name}.{function_name}"


@pytest.mark.parametrize("name", ["relabel", "evaluate", "sweep"])
def test_workload_output_passes_the_benchmark_check(tmp_path, monkeypatch, name):
    # ``checks`` imports ``workloads`` by its bare name, as ``run.py`` does
    workloads = load_script(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    checks = load_script(monkeypatch, "perfbench_checks", PERFBENCH / "checks.py")
    workload = workloads.WORKLOADS[name]
    workloads.write_inputs(workload, 1, tmp_path)
    assert cli.main(workload.argv(tmp_path, 1)) == 0
    if name == "relabel":
        first = json.loads((tmp_path / workloads.OUT).read_text().splitlines()[0])
        assert first["embedding_ref"] == {"file": workloads.SIDECAR, "index": 0}
    outcome = checks.check(workload, tmp_path, 1)
    assert not outcome.failed, outcome.problems
    assert outcome.cpwer_after > 0


def test_traced_relabel_reads_its_sidecar_once_per_pass(tmp_path, monkeypatch):
    tracing = load_script(monkeypatch, "perfbench_tracing", TRACING)
    workloads = load_script(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    workload = workloads.WORKLOADS["relabel"]
    workloads.write_inputs(workload, 1, tmp_path)
    sidecar = tmp_path / workloads.SIDECAR
    # the same paths twice in one process, as the benchmark's passes run
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            assert cli.main(workload.argv(tmp_path, 1)) == 0
        reads = [s for s in tracer.spans if s.name == "corpus.read_embeddings_sidecar"]
        assert [s.note for s in reads] == [(sidecar.stat().st_size, 0)]


def slrkit_imports(tree):
    """Local name -> (module, name) for each name a script imports from slrkit."""
    imports = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.split(".")[0] == "slrkit":
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)
    return imports


def slrkit_modules(imports):
    """Local name -> module name for the submodules ``from slrkit import …`` binds."""
    return {
        local: f"slrkit.{name}"
        for local, (module, name) in imports.items()
        if module == "slrkit"
    }


def slrkit_names(path):
    """(module, name) pairs a script takes from slrkit: imports and module attributes.

    Attributes count only on names that ``from slrkit import …`` binds, so a
    local variable of the same name in another script is not taken for the
    module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = slrkit_imports(tree)
    names, modules = set(imports.values()), slrkit_modules(imports)
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


def slrkit_calls(path):
    """(call node, callee) for each call a script makes to a slrkit function or class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = slrkit_imports(tree)
    modules = slrkit_modules(imports)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imports:
            module_name, name = imports[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            module_name, name = modules[func.value.id], func.attr
        else:
            continue
        yield node, getattr(importlib.import_module(module_name), name)


def test_perfbench_slrkit_calls_bind_to_signatures():
    checked = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for call, callee in slrkit_calls(path):
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            if starred or any(k.arg is None for k in call.keywords):
                continue  # ``*args`` / ``**kwargs``: the argument count is not known
            where = f"{path.name}:{call.lineno} {callee.__qualname__}"
            try:
                inspect.signature(callee).bind(
                    *call.args, **{k.arg: k.value for k in call.keywords}
                )
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            checked.append(where)
    assert any("cluster_session" in where for where in checked)
    assert len(checked) >= 20, sorted(checked)


def test_public_names_resolve():
    names = slrkit.__all__
    assert len(names) == len(set(names)), "slrkit.__all__ repeats a name"
    for name in names:
        assert hasattr(slrkit, name), f"slrkit.{name}"
    # the only public way to split a pairing's errors into S/D/I
    assert {"EditCounts", "edit_distance"} <= set(names)
