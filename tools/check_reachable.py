#!/usr/bin/env python3
"""Reachability gate: every module under ``src/`` must serve an entry point.

Builds an import graph from the source alone (``ast``, nothing is
imported) and walks it from the entry points:

* ``repro.engine.planner`` (``run_query`` / ``plan_query``);
* the CLI, ``repro.__main__``;
* the service, ``repro.service.server``;
* every ``examples/*.py`` and ``tools/*.py``, and every
  ``benchmarks/e2e/*.py`` but the harness's own ``test_harness.py``;
* the ``python`` code blocks of ``README.md``.

A package ``__init__`` is glue, not an edge: ``from repro.x import name``
leads to the module that *defines* ``name`` (followed through the
``__init__``'s own imports, or its lazy ``_EXPORTS`` table), so a name
merely listed in an ``__all__`` reaches nothing. Imports anywhere in a
module count, function-local ones included; ``src/`` uses absolute
imports only, so relative ones are not followed.

Exit 1 listing every non-``__init__`` module that no entry point
reaches; exit 0 otherwise. There is no allow-list: a module only tests
use belongs under ``tests/``.

Run from the repo root: ``python tools/check_reachable.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"

ENTRY_MODULES = ("repro.engine.planner", "repro.__main__", "repro.service.server")


def _modules() -> dict[str, Path]:
    """Dotted name -> file for every module under ``src/``."""
    found = {}
    for path in sorted(_SRC.rglob("*.py")):
        parts = list(path.relative_to(_SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_names(package: str) -> dict[str, tuple[str, str] | None]:
    """Name -> (module, name) it is imported from, or None if defined here."""
    names: dict[str, tuple[str, str] | None] = {}
    tree = _parse(MODULES[package])
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = None
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = None
                if (isinstance(target, ast.Name) and target.id == "_EXPORTS"
                        and isinstance(node.value, ast.Dict)):
                    for key, value in zip(node.value.keys, node.value.values):
                        names[key.value] = (f"{package}.{value.value}", key.value)
    return names


def _resolve(source: str, name: str) -> str | None:
    """The module that defines ``name`` as imported ``from source``."""
    if f"{source}.{name}" in MODULES:
        return f"{source}.{name}"
    if source not in MODULES:
        return None
    if not _is_package(source):
        return source
    origin = _package_names(source).get(name)
    if origin is None:
        return source
    return _resolve(*origin)


def _edges(tree: ast.Module) -> set[str]:
    """Modules under ``src/`` that one file's imports lead to."""
    edges = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES and not _is_package(alias.name):
                    edges.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                target = _resolve(node.module, alias.name)
                if target is not None:
                    edges.add(target)
    return edges


def _entry_trees() -> list[ast.Module]:
    """The parsed entry-point files outside ``src/``."""
    paths = [*sorted((_REPO / "examples").glob("*.py")),
             *sorted((_REPO / "tools").glob("*.py")),
             *(path for path in sorted((_REPO / "benchmarks/e2e").glob("*.py"))
               if path.name != "test_harness.py")]
    trees = [_parse(path) for path in paths]
    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        trees.append(ast.parse(block))
    return trees


def reachable() -> set[str]:
    """Every module some entry point reaches."""
    frontier = set(ENTRY_MODULES)
    for tree in _entry_trees():
        frontier |= _edges(tree)
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        if not _is_package(module):
            frontier |= _edges(_parse(MODULES[module])) - reached
    return reached


def main() -> int:
    """Print the unreached modules; 1 if there is any."""
    reached = reachable()
    unreached = [name for name in MODULES
                 if name not in reached and not _is_package(name)]
    for name in unreached:
        print(f"unreached: {MODULES[name].relative_to(_REPO)}")
    if unreached:
        return 1
    print(f"{len(reached)} modules reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
