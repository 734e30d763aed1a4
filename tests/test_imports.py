"""The package's modules import each other at module level only, in one
direction: coords, gentrig, quad, sturm, chebyshev, cubature, verify, cli,
with lattice, poly and jsonio beside them; importing the CLI loads no
`dataclasses`."""

import ast
import importlib
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cub"
ORDER = ("coords", "gentrig", "quad", "sturm", "chebyshev", "cubature", "verify", "cli")


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node):
    """The package modules one import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("g2cub."):
        return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("g2cub.")]
    return []


def _graph():
    """Module -> the package modules it imports anywhere, which is at module
    level once `test_no_import_inside_a_function` holds."""
    return {
        name: {m for node in ast.walk(tree) for m in _imported_modules(node)}
        for name, tree in _trees().items()
    }


def test_no_import_inside_a_function():
    found = {
        f"{name}.py:{inner.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    assert not found, sorted(found)


def test_module_imports_have_no_cycle_and_follow_the_layer_order():
    graph = _graph()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {err.args[1]}") from None
    for lower, name in enumerate(ORDER):
        later = graph[name] & set(ORDER[lower + 1:])
        assert not later, f"{name} imports {sorted(later)}, which come after it"


def test_benchmark_imports_resolve():
    # bench/ imports these names by module; a move must leave each reachable there
    path = ROOT / "bench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("g2cub"):
            # the import statement alone, run as written: ImportError if a name moved
            exec(compile(ast.Module([node], []), str(path), "exec"), {})
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS")
    for layer in layers:
        importlib.import_module(f"g2cub.{layer}")


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # dataclasses writes and execs each decorated class's methods at import, ~2 ms for four
    code = "import sys, g2cub.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n", result.stdout
