"""Every ``repro`` module and symbol is reachable from production code.

A module or function that only tests use is substrate nobody runs.

Modules: this scan walks imports with ``ast`` from the production roots
-- the ``repro`` package, ``repro.cli``, ``repro.__main__`` and whatever
``scripts/``, ``perfbench/``, ``benchmarks/`` and ``examples/`` import --
following absolute and relative imports anywhere in a module (function
bodies included) and ``"repro.…"`` string literals that name a module.
Importing a module runs its parent packages, so those count as reached.

Symbols: every top-level function and class, and every method of a
top-level class, defined under ``src/repro`` must have its name appear
somewhere in ``src/`` or those four directories -- as a name, an
attribute, an import alias or a word inside a string literal.  Its own
``def``, a docstring, a package ``__init__`` re-export and an
``__all__`` entry do not count.  Dunder methods are exempt, and
:data:`ALLOWED_UNUSED` names the few kept on purpose, each with why.
The scan matches bare names, so a method shares its name with every
attribute of that spelling: it finds helpers nothing calls, not every
dead path.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION_DIRS = ("scripts", "perfbench", "benchmarks", "examples")
ROOT_MODULES = ("repro", "repro.cli", "repro.__main__")
SYMBOL_ROOTS = ("src",) + PRODUCTION_DIRS
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Symbols no production root names that stay anyway, with the reason.
ALLOWED_UNUSED = {
    "repro.campaign.journal.canonical_journal":
        "the chaos-smoke and adaptive-smoke CI steps call it to compare "
        "journals",
    "repro.experiments.run_experiment":
        "documented library entry point (README.md, experiments section)",
    "repro.observe.httpd._Handler.do_GET":
        "BaseHTTPRequestHandler protocol: the server dispatches GET to it",
    "repro.observe.httpd._Handler.log_message":
        "BaseHTTPRequestHandler protocol: overridden to silence the "
        "per-request log",
    "repro.workloads.base.FPContext.add_s":
        "single-precision guest API, the only route into _binary's "
        "binary32 rounding",
    "repro.workloads.base.FPContext.sub_s":
        "single-precision guest API, the only route into _binary's "
        "binary32 rounding",
    "repro.workloads.base.FPContext.mul_s":
        "single-precision guest API, the only route into _binary's "
        "binary32 rounding",
    "repro.workloads.base.FPContext.div_s":
        "single-precision guest API, the only route into _binary's "
        "binary32 rounding",
}


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


def defined_symbols(src: Path) -> Dict[str, str]:
    """Qualified name -> bare name of every symbol the guard covers."""
    symbols = {}
    for module, path in package_modules(src).items():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            symbols[f"{module}.{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    symbols[f"{module}.{node.name}.{item.name}"] = item.name
    return symbols


def _excluded_nodes(tree: ast.AST, is_package: bool) -> Set[int]:
    """Ids of nodes that mention a name without using it: docstrings,
    ``__all__`` entries and, in a package, ``from … import`` re-exports."""
    skip: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                skip.update(id(sub) for sub in ast.walk(node.value))
        elif is_package and isinstance(node, ast.ImportFrom):
            skip.add(id(node))
    return skip


def used_names(source: str, is_package: bool = False) -> Set[str]:
    """Every identifier ``source`` uses: names, attributes, import
    aliases and the words of its string literals."""
    tree = ast.parse(source)
    skip = _excluded_nodes(tree, is_package)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
                if alias.asname:
                    names.add(alias.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD.findall(node.value))
    return names


def unused_symbols(root: Path = ROOT) -> List[str]:
    """Symbols under ``src/repro`` no production root names, sorted."""
    names: Set[str] = set()
    for directory in SYMBOL_ROOTS:
        for path in sorted((root / directory).rglob("*.py")):
            names |= used_names(path.read_text(),
                                path.name == "__init__.py")
    return sorted(qualified for qualified, name
                  in defined_symbols(root / "src").items()
                  if name not in names)


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


def test_every_symbol_is_used_in_production():
    unused = unused_symbols()
    assert [name for name in unused if name not in ALLOWED_UNUSED] == []
    # An entry whose symbol gained a production use, or went away, is
    # stale: drop it rather than let the allowlist grow.
    assert sorted(set(ALLOWED_UNUSED) - set(unused)) == []
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())


def test_symbol_scan_flags_a_helper_only_tests_use(tmp_path):
    files = {
        "src/repro/__init__.py": (
            "from .mod import helper, used\n"
            "__all__ = ['helper', 'used']\n"),
        "src/repro/mod.py": (
            '"""Mentions helper and Box.orphan in prose."""\n'
            "def used():\n"
            "    return Box().called() + getattr(Box, 'by_string')()\n"
            "def helper():\n"
            '    """helper calls nothing."""\n'
            "class Box:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def called(self):\n"
            "        return 1\n"
            "    def by_string(self):\n"
            "        return 2\n"
            "    def orphan(self):\n"
            "        return 3\n"),
        "src/repro/cli.py": "from repro.mod import used as entry\n",
        "scripts/run.py": "import repro\nrepro.entry()\n",
        "tests/test_helper.py": (
            "from repro.mod import Box, helper\n"
            "helper(); Box().orphan()\n"),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unused_symbols(tmp_path) == ["repro.mod.Box.orphan",
                                        "repro.mod.helper"]
