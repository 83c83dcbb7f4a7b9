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
    "calc:grow:0:if_false": "if False:\n        return x * 2 + 1",
    "calc:grow:0:compare": "if x <= 0 and on:",
    "calc:grow:0:int_plus_one": "if x > 1 and on:",
    "calc:grow:0:and_or": "if x > 0 or on:",
    "calc:grow:1:int_plus_one": "return x * 3 + 1",
    "calc:grow:0:mul_div": "return x / 2 + 1",
    "calc:grow:2:int_plus_one": "return x * 2 + 2",
    "calc:grow:0:add_sub": "return x * 2 - 1",
}
KILLED = "calc:clip:0:compare"  # clip(3) returns 10
EQUIVALENT = "calc:clip:0:if_false"  # the early return only repeats what min(x, 10) gives

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
    assert [i for i in found if i.startswith("calc:grow:")] == list(GROW)


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


def test_lines_added_above_a_function_leave_its_ids():
    """Ids are keyed on the scope, not the line: a new line, site or function above keeps them."""
    edited = ('"""Calc."""\nLIMIT = 10\n\n\ndef first(x):\n    return x + 1 if x < 0 else x\n\n\n'
              + CALC.replace("def clip(x):", "def clip(x):\n    x = first(x)"))
    before = {m.id for m in mutate.mutants("calc", CALC)}
    after = {m.id for m in mutate.mutants("calc", edited)}
    assert before < after
    assert sorted(after - before) == ["calc:<module>:0:int_plus_one", "calc:first:0:add_sub",
                                      "calc:first:0:compare", "calc:first:0:int_plus_one",
                                      "calc:first:1:int_plus_one"]
    found = {m.id: m for m in mutate.mutants("calc", edited)}
    for mutant_id, text in GROW.items():
        assert text in mutate.mutate(edited, found[mutant_id])


def test_a_lost_kill_whose_id_moved_fails_the_run(tree, capsys):
    """A site added before it in its scope moves the killed mutant's id off the table's."""
    mutate.TABLE.write_text(json.dumps({KILLED: {"status": "killed", "stage": "module",
                                                 "failed": "tests/test_calc.py::test_clip"}}))
    moved = "calc:clip:1:compare"
    edited = CALC.replace("def clip(x):", "def clip(x):\n    x = 0 if x is None else x")
    assert "if x <= 10:" in mutate.mutate(edited, next(
        m for m in mutate.mutants("calc", edited) if m.id == moved))
    (tree / "src" / "apcval" / "calc.py").write_text(edited)
    (tree / "tests" / "test_calc.py").write_text(TESTS.replace("clip(3) == 3 and ", ""))
    assert mutate.main(["calc", "--id", moved]) == 1
    out = capsys.readouterr().out
    assert f"survivor without a note: {moved}" in out
    assert "killed in the table" not in out


def test_a_survivors_note_is_kept():
    old = {EQUIVALENT: {"status": "survived", "stage": "suite", "failed": None, "note": "why"}}
    new = {EQUIVALENT: {"status": "survived", "stage": "suite", "failed": None}}
    assert mutate.merge(old, new, ["calc"], some_ids=False) == old
    assert mutate.regressions(old, new) == []
    killed = {EQUIVALENT: {"status": "timeout", "stage": "module", "failed": None}}
    assert mutate.regressions(killed, new) == [EQUIVALENT]
    assert mutate.merge(old, {}, ["calc"], some_ids=False) == {}  # a full run drops gone ids
