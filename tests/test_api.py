"""The public API: every exported name resolves, every public function is
reached by more than the tests, and every import is used."""

import ast
import re
from pathlib import Path

import watlab

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    assert [name for name in watlab.__all__ if not hasattr(watlab, name)] == []


def test_star_import():
    namespace = {}
    exec("from watlab import *", namespace)
    assert set(watlab.__all__) <= set(namespace)


def _referenced_names(tree):
    """Names a module uses: loaded or imported names, attributes, and string
    constants (the benchmark tracer wraps functions by their names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _public_defs(tree):
    """Names of the public top-level functions of a module and of the public
    methods of its public classes, the latter as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_public_functions_are_reached():
    """Every public top-level function and public method of the package is
    used by a module of it, by the benchmark, or by a pyproject entry point;
    one only tests or the package exports reach belongs in the tests.  A
    method counts as used where its name is."""
    src = ROOT / "src" / "watlab"
    public, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qualname in _public_defs(tree):
            public[qualname] = path.name
        if path.name != "__init__.py":
            used.update(_referenced_names(tree))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used.update(_referenced_names(ast.parse(path.read_text())))
    entry_points = (ROOT / "pyproject.toml").read_text()
    unreached = sorted(
        f"{module}:{qualname}" for qualname, module in public.items()
        if (name := qualname.rpartition(".")[2]) not in used
        and not re.search(rf"\b{name}\b", entry_points)
    )
    assert unreached == []


# Imported only so that perfbench/tracing.py can wrap them by name at these
# sites.  When the tracer stops naming them, the imports go and so does this
# allowlist: the test fails while either entry is used or gone.
TRACER_HOOKS = {("coeffs.py", "csum_rows"), ("symbols.py", "csum")}


def test_imports_are_used():
    """Every name a module of the package imports is used in that module
    (``__init__`` uses a name by listing it in ``__all__``)."""
    unused = set()
    for path in sorted((ROOT / "src" / "watlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used.update(watlab.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.add((path.name, name))
    assert unused == TRACER_HOOKS
