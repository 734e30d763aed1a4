"""The package's modules import each other at module level only, in one
direction: coords, gentrig, quad, sturm, chebyshev, cubature, verify, cli,
with lattice, poly and jsonio beside them; importing the CLI loads no
`dataclasses`; every public function has a user outside the tests;
every source file parses with the Python 3.10 grammar; every name the
docs cite as `module.name` exists; and README's library example runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from g2cub import WeightParams

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2cub"
ENV = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
ORDER = ("coords", "gentrig", "quad", "sturm", "chebyshev", "cubature", "verify", "cli")


def _trees(package=PACKAGE):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}


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
        # each in a fresh interpreter, with warnings as errors, so it imports alone
        subprocess.run([sys.executable, "-W", "error", "-c", f"import g2cub.{layer}"],
                       env=ENV, check=True)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # dataclasses writes and execs each decorated class's methods at import, ~2 ms
    # for four; -X importtime logs every module the `python -m g2cub` entry point loads
    result = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", "-m", "g2cub",
                             "dims", "--n", "1"], env=ENV, capture_output=True, text=True, check=True)
    assert "import time:" in result.stderr
    assert not re.search(r"\bdataclasses\b", result.stderr), result.stderr


def _code_names(tree, skip=None):
    """The names tree refers to in code, outside the subtree skip: each
    `ast.Name`, attribute and imported name; docstrings and comments name
    nothing."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unused_public_functions(root):
    """The public top-level defs under root/src/g2cub, as module.name, with
    no user outside the tests.  A user is a code reference in another
    module (the re-exports of __init__ aside), in the def's own module
    outside the def or in bench/*.py, or the name in backticks in
    README.md, a fenced block included."""
    trees = _trees(root / "src" / "g2cub")
    del trees["__init__"]
    names = {stem: _code_names(tree) for stem, tree in trees.items()}
    bench = set().union(*map(_code_names, _trees(root / "bench").values()))
    readme = re.findall(r"```.*?```|`[^`]+`", (root / "README.md").read_text(), re.S)
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                used = _code_names(tree, skip=node).union(
                    bench, *(other for name, other in names.items() if name != stem))
                word = re.compile(rf"\b{node.name}\b")
                if node.name not in used and not any(word.search(t) for t in readme):
                    unused.append(f"{stem}.{node.name}")
    return unused


def test_every_public_function_has_a_user_outside_the_tests():
    # a function only tests call belongs in tests/helpers.py, not in the package
    assert _unused_public_functions(ROOT) == []


def test_every_source_file_parses_with_the_python_3_10_grammar():
    # pyproject asks for Python >= 3.10; feature_version refuses later syntax
    # (except*, type parameter lists, ...) on a newer interpreter
    paths = [path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _cited_names(root=ROOT):
    """The backticked `module.name` and `module.name.attr` references in
    README.md (fenced blocks included) and in the package's docstrings,
    module one of the package's modules; a file name such as `poly.py` is
    none."""
    trees = _trees(root / "src" / "g2cub")
    modules = "|".join(stem for stem in trees if not stem.startswith("_"))
    cited = re.compile(rf"(?<![\w.])(?:{modules})\.(?!py\b)\w+(?:\.\w+)?")
    texts = [(root / "README.md").read_text()] + [
        ast.get_docstring(node, clean=False) or "" for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {name for text in texts for span in re.findall(r"```.*?```|`[^`]+`", text, re.S)
            for name in cited.findall(span)}


def _exists(name):
    """Whether module.name[.attr] names an object in the package."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"g2cub.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_module_name_the_docs_cite_exists():
    # a change that deletes or renames a name must take it out of the docs too
    cited = _cited_names()
    assert len(cited) > 20
    assert [name for name in sorted(cited) if not _exists(name)] == []


def test_the_readme_library_example_runs_and_its_comments_hold():
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library example\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    scope = {}
    exec(block, scope)
    assert scope["p"] == WeightParams(Fraction(-1, 2), Fraction(-1, 2))
    coeffs = scope["cheb_poly"](scope["p"], (2, 0)).coeffs
    assert coeffs and all(type(c) is int for c in coeffs.values())  # "ints, as they are integral"
    assert len(scope["rule"].nodes) == 5 and scope["rule"].exact_mdegree == 11
    q, r = scope["q"].coeffs, scope["r"].coeffs  # the same member, in floats and exactly
    assert r.keys() == q.keys()
    for key, c in r.items():
        assert type(c) is (int if c.denominator == 1 else Fraction)
        assert abs(q[key] - c) <= 1e-12 * abs(c)
