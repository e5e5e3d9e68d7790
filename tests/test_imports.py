"""Every top-level import in the package is used in its module or listed
in the module's ``__all__``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coteach"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that nothing
    in it reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read and name not in exported]


def test_guard_reports_only_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport a.b\n"
              "from . import c, d\nfrom .e import f as g\n"
              "a.b.run(c)\n__all__ = ['g']\n")
    assert _unused_imports(source) == ["os (line 2)", "osp (line 3)", "d (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
