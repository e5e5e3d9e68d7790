"""Every top-level import in the package is used in its module or listed
in the module's ``__all__``, every top-level function and class is used
somewhere in the package, and the package exports what README and the
demos import."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import coteach

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coteach"


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


# Kept for the tests alone: ``score`` is the one-dialogue oracle that batched
# scoring is checked against. It stays in the package because the benchmark
# traces it by name; the gradient oracle lives in ``tests/oracles.py``.
TEST_ORACLES = {"matcher.score"}


def _reads(tree) -> Counter:
    """How often each name is read, as a Name or an Attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def _unused_definitions(sources: dict) -> list[str]:
    """``module.name`` of each top-level function and class in ``sources``
    (module name -> source) that no code reads outside its own definition.
    ``__init__`` only re-exports, so its reads do not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((_reads(t) for name, t in trees.items() if name != "__init__"),
                Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and reads[node.name] == _reads(node)[node.name]]


def test_guard_reports_only_unused_definitions():
    sources = {
        "__init__": "from .a import dead, used\n__all__ = ['dead', 'used']\n",
        "a": ("def used(n):\n    return used(n - 1) if n else 0\n"
              "def dead(n):\n    return dead(n - 1) if n else 0\n"
              "class Kept:\n    pass\n"),
        "b": "from . import a\nfrom .a import Kept\nx = a.used(2), Kept\n",
    }
    assert _unused_definitions(sources) == ["a.dead"]


def test_every_top_level_definition_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(set(_unused_definitions(sources)) - TEST_ORACLES) == []


def _documented_imports() -> set:
    """Names that README's Python blocks and the demos import from ``coteach``."""
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no Python block"
    sources = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    return {alias.name for source in blocks + sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "coteach"
            for alias in node.names}


def test_exports_are_what_readme_and_the_demos_import():
    documented = _documented_imports()
    assert sorted(set(coteach.__all__) - documented) == []
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    assert sorted(documented - set(coteach.__all__) - submodules) == []
