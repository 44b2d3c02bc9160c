"""Every ``repro`` module is reachable from production code.

A module that only tests import is substrate nobody runs.  This scan
walks imports with ``ast`` from the production roots -- the ``repro``
package, ``repro.cli``, ``repro.__main__`` and whatever ``scripts/``,
``perfbench/``, ``benchmarks/`` and ``examples/`` import -- following
absolute and relative imports anywhere in a module (function bodies
included) and ``"repro.…"`` string literals that name a module.
Importing a module runs its parent packages, so those count as reached.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION_DIRS = ("scripts", "perfbench", "benchmarks", "examples")
ROOT_MODULES = ("repro", "repro.cli", "repro.__main__")


def package_modules(src: Path) -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> str:
    base = module.split(".")
    if not is_package:
        base.pop()
    if level > 1:
        base = base[:len(base) - (level - 1)]
    return ".".join(base + ([target] if target else []))


def imported_names(source: str, module: str = "",
                   is_package: bool = False) -> Set[str]:
    """Dotted names ``source`` may import: each ``import``, each
    ``from X import y`` as both ``X`` and ``X.y``, and every string
    literal starting with ``repro.``."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = (_resolve_relative(module, is_package, node.level,
                                      node.module)
                    if node.level else node.module)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("repro.")):
            names.add(node.value)
    return names


def _with_parents(names: Iterable[str], known: Dict[str, Path]) -> Set[str]:
    out = set()
    for name in names:
        parts = name.split(".")
        out.update(prefix for prefix in (".".join(parts[:i])
                                         for i in range(1, len(parts) + 1))
                   if prefix in known)
    return out


def unreachable_modules(root: Path = ROOT) -> List[str]:
    """``repro`` modules no production root reaches, sorted."""
    known = package_modules(root / "src")
    seeds: Set[str] = set(ROOT_MODULES)
    for directory in PRODUCTION_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            seeds |= imported_names(path.read_text())
    reached: Set[str] = set()
    frontier = _with_parents(seeds, known)
    while frontier:
        name = frontier.pop()
        reached.add(name)
        path = known[name]
        found = imported_names(path.read_text(), name,
                               path.name == "__init__.py")
        frontier |= _with_parents(found, known) - reached
    return sorted(set(known) - reached)


def test_every_module_is_reached_from_production():
    assert unreachable_modules() == []


def test_scan_follows_relative_imports_and_strings():
    source = (
        "from . import sibling\n"
        "from ..other import thing\n"
        "import repro.a.b\n"
        "def f():\n"
        "    return load('repro.lazy.mod')\n"
    )
    assert imported_names(source, "repro.pkg.mod") == {
        "repro.pkg", "repro.pkg.sibling", "repro.other",
        "repro.other.thing", "repro.a.b", "repro.lazy.mod"}
    assert imported_names("from .core import x\n", "repro.pkg",
                          is_package=True) == {"repro.pkg.core",
                                               "repro.pkg.core.x"}


def test_scan_flags_a_module_only_tests_import(tmp_path):
    files = {
        "src/repro/__init__.py": "from .used import f\n",
        "src/repro/cli.py": "",
        "src/repro/__main__.py": "from repro.cli import main\n",
        "src/repro/used.py": "def f():\n    from . import helper\n",
        "src/repro/helper.py": "",
        "src/repro/sub/__init__.py": "",
        "src/repro/sub/lazy.py": "",
        "src/repro/sub/orphan.py": "",
        "scripts/run.py": "import_module('repro.sub.lazy')\n",
        "tests/test_orphan.py": "import repro.sub.orphan\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unreachable_modules(tmp_path) == ["repro.sub.orphan"]
