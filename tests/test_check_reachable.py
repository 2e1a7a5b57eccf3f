"""Tests for ``tools/check_reachable.py``, the reachability gate.

The gate is loaded from its file (``tools/`` is not a package) and
checked on the repository as it stands, and on small import snippets
whose edges are known.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_reachable", REPO / "tools" / "check_reachable.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def edges(source):
    return gate._edges(ast.parse(source))


def test_tree_passes_the_gate():
    done = subprocess.run([sys.executable, "tools/check_reachable.py"],
                          cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout
    assert "modules reached" in done.stdout


def test_entry_modules_are_reached():
    reached = gate.reachable()
    assert set(gate.ENTRY_MODULES) <= reached
    # examples/relational_triangles.py is what keeps the binary plans
    assert "repro.relational.plans" in reached


@pytest.mark.parametrize("source, target", [
    ("from repro.relational.plans import greedy_plan",
     "repro.relational.plans"),
    ("import repro.relational.plans", "repro.relational.plans"),
    # a package re-export leads to the defining module, not the package
    ("from repro.relational import Relation", "repro.relational.relation"),
    ("from repro import xjoin", "repro.core.xjoin"),
    # a submodule imported by name from its package
    ("from repro.xml import navigation", "repro.xml.navigation"),
    # function-local imports count too
    ("def f():\n    from repro.xml.pathstack import path_stack\n",
     "repro.xml.pathstack"),
])
def test_import_edges(source, target):
    assert target in edges(source)


@pytest.mark.parametrize("source", [
    "import repro",
    "import repro.relational",
    "import json\nfrom collections import Counter",
    "from . import sibling",
])
def test_packages_and_outside_modules_are_not_edges(source):
    assert edges(source) == set()


def test_unreached_module_fails_the_gate(monkeypatch, capsys):
    reached = gate.reachable() - {"repro.relational.plans"}
    monkeypatch.setattr(gate, "reachable", lambda: reached)
    assert gate.main() == 1
    assert ("unreached: src/repro/relational/plans.py"
            in capsys.readouterr().out)
