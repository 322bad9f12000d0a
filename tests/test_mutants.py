"""The mutation gate's rows still apply to the tree they were written for.

``benchmarks/mutants.py`` runs each mutant against its tests, which takes
minutes; these checks take milliseconds.  Each row's old text must occur
exactly once in its file (else the gate reports an error instead of a
verdict), and each node id it names must still be a test (a deleted or
renamed test catches nothing, so the mutant would survive).
"""

from __future__ import annotations

import ast
import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _gate():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(REPO, "benchmarks", "mutants.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _gate()


def _defines(node_id: str) -> bool:
    """Whether the test file of *node_id* exists and defines what it names."""
    path, *names = node_id.split("::")
    if names:
        names[-1] = names[-1].split("[", 1)[0]  # a parametrised case names its function
    full = os.path.join(REPO, path)
    if not os.path.exists(full):
        return False
    with open(full, encoding="utf-8") as handle:
        body = ast.parse(handle.read()).body
    for name in names:
        kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        found = [node for node in body if isinstance(node, kinds) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("mutant", GATE.MUTANTS, ids=[m.name for m in GATE.MUTANTS])
def test_mutant_applies_to_the_tree_and_names_live_tests(mutant):
    assert GATE.check_text(REPO, mutant) is None
    assert mutant.old != mutant.new
    # a row either names the tests that must catch it or says why none can
    assert bool(mutant.tests) != bool(mutant.equivalent)
    assert [node_id for node_id in mutant.tests if not _defines(node_id)] == []


def test_mutant_names_are_unique_and_listed(capsys):
    names = [mutant.name for mutant in GATE.MUTANTS]
    assert len(set(names)) == len(names)
    assert GATE.main(["--list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line[:1] != " "]
    assert listed == names
