"""Every top-level import of the package, the tests and the demos is read,
every name the package exports resolves, and importing the package leaves
``scipy.linalg`` and ``scipy.special`` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import so2frames

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/so2frames", "tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that it never
    reads; the names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, sys\nimport a.b as c\n"
              "from x import y, z\n__all__ = ['z']\nprint(sys)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 3)", "y (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    assert [name for name in so2frames.__all__ if not hasattr(so2frames, name)] == []


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special"])
def test_package_import_leaves_scipy_linalg_unloaded(module):
    # scipy.linalg is most of the time of importing so2frames, and only the
    # eigensolver of the metrics needs it; scipy.special adds about 3.5 MiB
    # of RSS, and only real_spherical_harmonics needs it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, so2frames; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
