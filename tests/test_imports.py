"""Import-time structure: oracle independence and the lazy numpy import."""

import ast
import os
import subprocess
import sys

import pytest

import pentaperm

PACKAGE_DIR = os.path.dirname(pentaperm.__file__)


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


def test_oracle_never_imports_theory():
    # the cross-check is only worth something while the oracles stay
    # independent of the closed-form theory
    seen, todo = set(), ["pentaperm.oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module))
    assert "pentaperm.field" in seen
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
