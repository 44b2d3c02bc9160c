"""Every name a ``repro`` module imports is used in that module.

No linter runs here, so this scan stands in for one: it parses each
non-``__init__`` module under ``src/repro`` and fails on an imported name
that the module never references.  Names listed in ``__all__`` are
re-exports and exempt; a name that appears only in a string annotation
(``"GoldenRun"``) counts as referenced.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST, out: Set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _annotation_names(ast.parse(sub.value, mode="eval"), out)
            except SyntaxError:
                pass


def unused_imports(source: str) -> List[str]:
    """Imported names ``source`` never references, in import order."""
    tree = ast.parse(source)
    imported: List[str] = []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0]
                         for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _annotation_names(node.annotation, used)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            _annotation_names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, used)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_annotations_and_exports():
    source = (
        "from typing import Dict, List\n"
        "from x import A, B, C, D\n"
        "import os.path\n"
        "__all__ = ['D']\n"
        "def f(a: 'A') -> Dict[str, int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["List", "B", "C"]
