"""Import-time structure: oracle independence, the lazy numpy import, and
a public surface that the package or its benchmark uses."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import pentaperm

PACKAGE_DIR = os.path.dirname(os.path.abspath(pentaperm.__file__))
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(PACKAGE_DIR)), "perfbench")
MODULES_WITH_ALL = [info.name for info in pkgutil.iter_modules(pentaperm.__path__, "pentaperm.")
                    if hasattr(importlib.import_module(info.name), "__all__")]


def _package_imports(module: str) -> set[str]:
    """Package modules named by any import statement in the module's source."""
    path = os.path.join(PACKAGE_DIR, module.split(".", 1)[1] + ".py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(f"pentaperm.{node.module}")
            elif node.level == 1:
                found.update(f"pentaperm.{alias.name}" for alias in node.names)
            elif node.module and node.module.startswith("pentaperm."):
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.startswith("pentaperm."))
    return found


def _reachable(module: str) -> set[str]:
    """The package modules the module imports, directly or through others."""
    seen, todo = set(), [module]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    return seen


def test_oracle_never_imports_theory():
    # the cross-check is only worth something while the oracles stay
    # independent of the closed-form theory
    seen = _reachable("pentaperm.oracle")
    assert "pentaperm.field" in seen
    assert "pentaperm.theory" not in seen


def test_equivalence_never_imports_theory():
    # certificates take r from the oracle's g, so they check the theory too
    seen = _reachable("pentaperm.equivalence")
    assert "pentaperm.oracle" in seen
    assert "pentaperm.theory" not in seen


@pytest.mark.parametrize("module", ["pentaperm", "pentaperm.cli"])
def test_import_does_not_load_numpy(module):
    # CLI startup pulls in oracle, equivalence and search; numpy must stay lazy
    env = dict(os.environ)
    src = os.path.dirname(PACKAGE_DIR)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _loaded_names(tree: ast.AST, skip_def: str | None) -> set[str]:
    """Names read (ast.Name loads and attribute names), outside the body of
    the def or class named skip_def; __all__ strings and imports are not reads."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == skip_def):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", MODULES_WITH_ALL)
def test_all_names_resolve_and_are_used(module):
    # every exported name exists, and the package or perfbench reads it
    # somewhere besides its own definition: test-only helpers belong in tests
    mod = importlib.import_module(module)
    assert os.path.isdir(BENCH_DIR)
    trees = {}
    for path in glob.glob(os.path.join(PACKAGE_DIR, "*.py")) + glob.glob(
            os.path.join(BENCH_DIR, "*.py")):
        with open(path, encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read())
    unresolved = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not unresolved
    own = os.path.abspath(mod.__file__)
    unused = [name for name in mod.__all__ if not any(
        name in _loaded_names(tree, name if path == own else None)
        for path, tree in trees.items())]
    assert not unused
