"""Mutation testing of `src/apcval` modules against the test suite, standard library only.

    python3 mutation/mutate.py io domain

Each mutant changes one operator of one module (the operator list is
`OPERATORS`). Its id is `module:line:column:operator`, at the position of
the constant, of the `if` statement's test, or of the operand to the right
of the operator.
A mutant runs in a throwaway copy of `src`, `tests`, `pyproject.toml` and
`README.md`, first against its module's test file (`tests/test_{module}.py`)
and, only if it passes, against the whole suite (`tests`), two mutants at a
time. A failing run kills it, and a run over its timeout counts as a kill.
Every run is

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 ...

so no example database carries over and two runs on one tree give the
same table.

The kill table `mutation/kills.json` holds one entry per mutant: its
status (killed, timeout or survived), the first test that failed, and for
a survivor a note saying why it is equivalent or which test should kill
it. The run reads the table, replaces the entries of the modules it ran
(keeping each note), writes it back and exits 1 if a mutant the table had
killed now survives, or if a mutant survives without a note. Ids move with
line numbers, so a lost kill whose id an edit above it moved shows as a
survivor without a note; so does an equivalent survivor whose id moved,
which needs its note carried to the new id.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "apcval"
TABLE = Path(__file__).resolve().parent / "kills.json"
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
KILLED = ("killed", "timeout")
WORKERS = 2

_NEGATED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
OPERATORS = ("compare", "int_plus_one", "add_sub", "mul_div", "and_or", "if_false")


class Mutant(NamedTuple):
    module: str
    line: int
    column: int
    operator: str
    node: int  # the node's index in `ast.walk` order
    part: int  # which operator of a chained comparison

    @property
    def id(self) -> str:
        return f"{self.module}:{self.line}:{self.column}:{self.operator}"


def _sites(tree: ast.AST):
    """(node index, part, operator, the node whose position names the site) of each site."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for part, right in enumerate(node.comparators):
                yield index, part, "compare", right
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, 0, "int_plus_one", node
        elif isinstance(node, ast.BinOp) and type(node.op) in _SWAPPED:
            yield index, 0, "add_sub" if type(node.op) in (ast.Add, ast.Sub) else "mul_div", node.right
        elif isinstance(node, ast.BoolOp):
            yield index, 0, "and_or", node.values[1]
        elif isinstance(node, ast.If):
            yield index, 0, "if_false", node.test


def mutants(module: str, source: str) -> list[Mutant]:
    """The mutants of a module's source, sorted by position; their ids are unique."""
    found = sorted(
        (Mutant(module, at.lineno, at.col_offset, operator, index, part)
         for index, part, operator, at in _sites(ast.parse(source))),
        key=lambda m: (m.line, m.column, OPERATORS.index(m.operator)),
    )
    ids = [m.id for m in found]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{module}: two mutants share an id")
    return found


def mutate(source: str, mutant: Mutant | None) -> str:
    """The source with the mutant's change, unparsed; with None, unparsed unchanged."""
    tree = ast.parse(source)
    if mutant is not None:
        node = next(n for i, n in enumerate(ast.walk(tree)) if i == mutant.node)
        if mutant.operator == "compare":
            node.ops[mutant.part] = _NEGATED[type(node.ops[mutant.part])]()
        elif mutant.operator == "int_plus_one":
            node.value += 1
        elif mutant.operator in ("add_sub", "mul_div"):
            node.op = _SWAPPED[type(node.op)]()
        elif mutant.operator == "and_or":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        else:
            node.test = ast.Constant(False)
    return ast.unparse(tree) + "\n"


class Outcome(NamedTuple):
    status: str  # "passed", "killed" or "timeout"
    failed: str | None  # the first failing test, as pytest names it
    seconds: float


def _pytest(tree: Path, targets: list[str], timeout: float) -> Outcome:
    """Run the tests of a copied tree; its process group is killed on timeout."""
    start = time.monotonic()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, *PYTEST, *targets], cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Outcome("timeout", None, time.monotonic() - start)
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return Outcome("passed", None, seconds)
    failed = next((line.split(" ")[1] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), f"exit {proc.returncode}")
    return Outcome("killed", failed, seconds)


def _run(root: Path, sources: dict[str, str], targets: list[str], timeout: float) -> Outcome:
    """Run the tests on a throwaway copy of `root` whose modules `sources` replaces."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        shutil.copytree(root / "src", tree / "src")
        shutil.copytree(root / "tests", tree / "tests")
        for name in ("pyproject.toml", "README.md"):  # the tests read both
            shutil.copy(root / name, tree)
        for module, source in sources.items():
            (tree / "src" / PACKAGE / f"{module}.py").write_text(source, encoding="utf-8")
        return _pytest(tree, targets, timeout)


def _module_tests(module: str) -> list[str]:
    return [f"tests/test_{module}.py"]


def run_modules(root: Path, modules: list[str], only: set[str] | None = None,
                log=print) -> tuple[dict, dict]:
    """The entries of every mutant of `modules` (or of the ids in `only`), and the counts.

    First the unmutated modules, unparsed, must pass their module tests and
    the whole suite; each stage's timeout is three times that run's time,
    and at least 60 s.
    """
    run = partial(_run, root)
    sources = {m: (root / "src" / PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in modules}
    unparsed = {m: mutate(source, None) for m, source in sources.items()}
    timeouts = {}
    for targets in [*map(_module_tests, modules), []]:
        outcome = run(unparsed, targets, timeout=3600)
        if outcome.status != "passed":
            raise RuntimeError(f"the unmutated tree fails {targets or 'the suite'}: {outcome}")
        timeouts[tuple(targets)] = max(60.0, 3 * outcome.seconds)
        log(f"baseline {' '.join(targets) or 'suite'}: passed in {outcome.seconds:.1f} s")

    todo = [m for module in modules for m in mutants(module, sources[module])
            if only is None or m.id in only]

    def one(mutant: Mutant) -> tuple[Mutant, Outcome, str]:
        source = {mutant.module: mutate(sources[mutant.module], mutant)}
        targets = _module_tests(mutant.module)
        outcome = run(source, targets, timeouts[tuple(targets)])
        stage = "module"
        if outcome.status == "passed":
            outcome = run(source, [], timeouts[()])
            stage = "suite"
        return mutant, outcome, stage

    entries, counts = {}, {}
    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for done, (mutant, outcome, stage) in enumerate(pool.map(one, todo), start=1):
            status = "survived" if outcome.status == "passed" else outcome.status
            entries[mutant.id] = {"status": status, "stage": stage, "failed": outcome.failed}
            count = counts.setdefault(mutant.module, dict.fromkeys(
                ("mutants", "killed", "timeout", "survived"), 0))
            count["mutants"] += 1
            count[status] += 1
            log(f"[{done}/{len(todo)}] {mutant.id} {status} at {stage} "
                f"({outcome.seconds:.1f} s) {outcome.failed or ''}".rstrip())
    log(f"mutants run in {time.monotonic() - start:.1f} s")
    return entries, counts


def regressions(old: dict, new: dict) -> list[str]:
    """The ids that `old` has killed (or timed out) and that survive in `new`."""
    return sorted(i for i, entry in new.items()
                  if entry["status"] == "survived" and old.get(i, {}).get("status") in KILLED)


def merge(old: dict, new: dict, modules: list[str], some_ids: bool) -> dict:
    """`old` with the entries of `new`; a full run drops its modules' ids that are gone.

    A survivor keeps the note it had in `old`.
    """
    kept = {i: e for i, e in old.items()
            if some_ids or i.split(":")[0] not in modules}
    for i, entry in new.items():
        note = old.get(i, {}).get("note")
        kept[i] = {**entry, "note": note} if entry["status"] == "survived" and note else entry
    return dict(sorted(kept.items(), key=lambda item: _order(item[0])))


def _order(mutant_id: str):
    module, line, column, operator = mutant_id.split(":")
    return module, int(line), int(column), OPERATORS.index(operator)


def write_table(path: Path, table: dict) -> None:
    """One line per mutant, so a diff shows each mutant whose outcome changed."""
    lines = [f"{json.dumps(i)}: {json.dumps(e, sort_keys=True)}" for i, e in table.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("modules", nargs="+", help="modules of src/apcval, such as io domain")
    parser.add_argument("--id", action="append", dest="ids",
                        help="run only this mutant id (repeatable)")
    args = parser.parse_args(argv)

    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    only = set(args.ids) if args.ids else None
    new, counts = run_modules(ROOT, args.modules, only)
    table = merge(old, new, args.modules, some_ids=only is not None)
    write_table(TABLE, table)
    for module, count in counts.items():
        print(f"{module}: " + ", ".join(f"{k} {v}" for k, v in count.items()))
    unexplained = [i for i, entry in table.items()
                   if i in new and entry["status"] == "survived" and not entry.get("note")]
    for i in unexplained:
        print(f"survivor without a note: {i}")
    lost = regressions(old, new)
    for i in lost:
        print(f"killed in the table, survives now: {i}")
    return 1 if lost or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
