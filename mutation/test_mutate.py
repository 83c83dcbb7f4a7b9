"""Tests of the mutation harness on a small fixture tree: `python3 -m pytest mutation`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mutate  # noqa: E402

CALC = '''def grow(x, on):
    if x > 0 and on:
        return x * 2 + 1
    return x


def clip(x):
    if x > 10:
        return 10
    return min(x, 10)
'''

# grow's mutants, one per operator, and the function each one makes
GROW = {
    "calc:2:7:if_false": "if False:\n        return x * 2 + 1",
    "calc:2:11:compare": "if x <= 0 and on:",
    "calc:2:11:int_plus_one": "if x > 1 and on:",
    "calc:2:17:and_or": "if x > 0 or on:",
    "calc:3:19:int_plus_one": "return x * 3 + 1",
    "calc:3:19:mul_div": "return x / 2 + 1",
    "calc:3:23:int_plus_one": "return x * 2 + 2",
    "calc:3:23:add_sub": "return x * 2 - 1",
}
KILLED = "calc:8:11:compare"  # clip(3) returns 10
EQUIVALENT = "calc:8:7:if_false"  # the early return only repeats what min(x, 10) gives

TESTS = '''from apcval.calc import clip, grow


def test_grow():
    assert grow(3, True) == 7
    assert grow(3, False) == grow(-1, True) + 4 == 3


def test_clip():
    assert clip(3) == 3 and clip(20) == 10
'''


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tree laid out as the repository: src/apcval, tests, pyproject.toml and README.md.

    The harness runs on it and keeps its kill table beside it.
    """
    root = tmp_path / "tree"
    monkeypatch.setattr(mutate, "ROOT", root)
    monkeypatch.setattr(mutate, "TABLE", tmp_path / "kills.json")
    (root / "src" / "apcval").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "apcval" / "__init__.py").write_text("")
    (root / "src" / "apcval" / "calc.py").write_text(CALC)
    (root / "tests" / "test_calc.py").write_text(TESTS)
    (root / "pyproject.toml").write_text('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n')
    (root / "README.md").write_text("")
    return root


def test_each_operator_yields_its_mutant():
    found = {m.id: m for m in mutate.mutants("calc", CALC)}
    assert {m.operator for m in found.values()} == set(mutate.OPERATORS)
    for mutant_id, text in GROW.items():
        mutated = mutate.mutate(CALC, found[mutant_id])
        assert text in mutated
        assert mutated.replace(text, "") != mutate.mutate(CALC, None).replace(text, "")
    assert [i for i in found if i.startswith(("calc:2:", "calc:3:"))] == list(GROW)


def test_the_ids_are_the_same_across_two_enumerations():
    first, second = mutate.mutants("calc", CALC), mutate.mutants("calc", CALC)
    assert [m.id for m in first] == [m.id for m in second]
    assert len({m.id for m in first}) == len(first) == 13


def test_a_killed_and_an_equivalent_mutant_then_a_lost_kill(tree, capsys):
    note = "the early return only repeats what min(x, 10) gives"
    survived = {"status": "survived", "stage": "suite", "failed": None}
    mutate.TABLE.write_text(json.dumps({EQUIVALENT: {**survived, "note": note}}))
    assert mutate.main(["calc", "--id", KILLED, "--id", EQUIVALENT]) == 0
    entries = json.loads(mutate.TABLE.read_text())
    assert entries[KILLED] == {"status": "killed", "stage": "module",
                               "failed": "tests/test_calc.py::test_clip"}
    assert entries[EQUIVALENT] == {**survived, "note": note}
    assert "survivor without a note" not in capsys.readouterr().out

    # the table says the equivalent mutant was killed: the run must fail
    entries[EQUIVALENT] = {"status": "killed", "stage": "module", "failed": "tests/x.py::t"}
    mutate.TABLE.write_text(json.dumps(entries))
    assert mutate.main(["calc", "--id", EQUIVALENT]) == 1
    assert f"killed in the table, survives now: {EQUIVALENT}" in capsys.readouterr().out
    assert json.loads(mutate.TABLE.read_text())[KILLED] == entries[KILLED]  # not run, kept


def test_a_lost_kill_whose_line_moved_fails_the_run(tree, capsys):
    """A line above the site moves its id, so the lost kill is a survivor without a note."""
    mutate.TABLE.write_text(json.dumps({KILLED: {"status": "killed", "stage": "module",
                                                 "failed": "tests/test_calc.py::test_clip"}}))
    (tree / "src" / "apcval" / "calc.py").write_text('"""Calc."""\n' + CALC)
    (tree / "tests" / "test_calc.py").write_text(TESTS.replace("clip(3) == 3 and ", ""))
    moved = "calc:9:11:compare"
    assert mutate.main(["calc", "--id", moved]) == 1
    assert f"survivor without a note: {moved}" in capsys.readouterr().out
    assert json.loads(mutate.TABLE.read_text())[moved]["status"] == "survived"


def test_a_survivors_note_is_kept():
    old = {EQUIVALENT: {"status": "survived", "stage": "suite", "failed": None, "note": "why"}}
    new = {EQUIVALENT: {"status": "survived", "stage": "suite", "failed": None}}
    assert mutate.merge(old, new, ["calc"], some_ids=False) == old
    assert mutate.regressions(old, new) == []
    killed = {EQUIVALENT: {"status": "timeout", "stage": "module", "failed": None}}
    assert mutate.regressions(killed, new) == [EQUIVALENT]
    assert mutate.merge(old, {}, ["calc"], some_ids=False) == {}  # a full run drops gone ids
