"""Mutation census of src/finslercurv: which one-operator defects the tier-1 suite cannot see.

    python3 tests/mutation_census.py              # every mutant: about 20 min on 2 cores
    python3 tests/mutation_census.py --list       # enumerate the sites, run no mutant
    python3 tests/mutation_census.py --only cli.py numkernel.py:101

A site is one line of a module under src/finslercurv. On a line that holds
a comparison, arithmetic, bitwise or boolean operator (the whole operator
expression on that one line, outside annotations, which the package's
``from __future__ import annotations`` never evaluates), the mutant swaps
the line's first operator
(leftmost, outermost first) by SWAPS: ``<`` for ``<=``, ``*`` for ``/``,
``and`` for ``or``, and so on. A module-level numeric constant
(``FRAME_TOL = 1e-12``) gives two mutants, the value doubled and halved.
Sites run in a fixed order: module name, then line.

Each mutant is its module rewritten with ``ast.unparse`` in a temporary
copy of the checkout (one copy, running one suite at a time, per usable
core), never in the working tree; before any mutant, the copy with every
module rewritten unchanged (the null mutant) must pass the suite, else
the census exits 2. A mutant is killed when tier-1
(``pytest -x``, hypothesis seed 0) fails on it, times out or runs out of
its memory limit; it survives when the suite passes. The suite runs
without tests/test_mutation_census.py, which checks the survivor list
below against the committed sources, not the package's behaviour, and
fails on any rewritten module.

Every survivor must be listed in tests/mutation_survivors.txt, one line
``<mutant id>: `<source line>` <reason>`` each, id and source line as --list
prints them: why the mutant computes what the original does (an equivalent
mutant), or why no test can tell the two apart yet. The census exits 1 when
a survivor is not listed, or when a listed survivor was killed, names no
site or names a line whose source changed, so the list can only shrink and
an edit that moves lines cannot leave it pointing elsewhere; 0 otherwise.
--list exits 1 on such a stale line too, and runs no mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslercurv"
SURVIVORS = ROOT / "tests" / "mutation_survivors.txt"
SELF_TEST = "tests/test_mutation_census.py"  # left out of every mutant's suite
# what a mutant's run reads: the package, the suite, the demos and README it replays, bench/
COPIED = ("src", "tests", "demos", "bench", "README.md", "pyproject.toml")
LEFTOVERS = ("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Pow: "**", ast.MatMult: "@", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and",
    ast.Or: "or",
}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
SURVIVOR = re.compile(r"(?P<id>[^:]+:\d+ [^:]+): `(?P<source>[^`]*)` (?P<reason>\S.*)")
MEMORY_LIMIT = 4 << 30  # address space of a mutant's suite; a runaway allocation is a kill
NULL_TIMEOUT = 600.0    # seconds for the null mutant; a mutant gets 5x its time, at least 120


class Mutant(NamedTuple):
    module: str   # file name under src/finslercurv
    line: int
    col: int      # the operator expression's column; -1 for a constant
    label: str    # "<= to <", or "FRAME_TOL x2" / "FRAME_TOL /2"

    @property
    def site(self) -> str:
        """<module>:<line>, with one mutant, or a constant's two."""
        return f"{self.module}:{self.line}"

    @property
    def id(self) -> str:
        return f"{self.site} {self.label}"


def _operator(node):
    """The operator class a node would swap, or None."""
    if isinstance(node, ast.Compare):
        op = type(node.ops[0])
    elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)):
        op = type(node.op)
    else:
        return None
    return op if op in SWAPS else None


def _swap(op) -> str | None:
    """An operator swap's label, "<= to <"; None for no operator."""
    return None if op is None else f"{SYMBOLS[op]} to {SYMBOLS[SWAPS[op]]}"


def _constant(node):
    """The name and value of a module-level numeric constant assignment, or None."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and CONSTANT.fullmatch(node.targets[0].id)
            and isinstance(node.value, ast.Constant) and type(node.value.value) in (int, float)):
        return node.targets[0].id, node.value.value
    return None


def mutants(module: str, source: str) -> list[Mutant]:
    """The module's mutants in line order: each operator site's swap, each constant's two."""
    tree = ast.parse(source)
    # annotations are never evaluated (from __future__ import annotations): no site there
    annotations = {id(inner) for node in ast.walk(tree)
                   for outer in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if outer is not None for inner in ast.walk(outer)}
    first = {}  # line: (key, node, operator) of the line's first operator
    for node in ast.walk(tree):
        op = _operator(node)
        if op is None or node.lineno != node.end_lineno or id(node) in annotations:
            continue
        key = (node.col_offset, -node.end_col_offset)  # leftmost, then outermost
        if node.lineno not in first or key < first[node.lineno][0]:
            first[node.lineno] = key, node, op
    found = [Mutant(module, node.lineno, node.col_offset, _swap(op))
             for _, node, op in first.values()]
    found += [Mutant(module, node.lineno, -1, f"{const[0]} {label}")
              for node in tree.body if (const := _constant(node)) for label in ("x2", "/2")]
    return sorted(found, key=lambda m: (m.line, m.label))


def census() -> list[Mutant]:
    """Every mutant of the package, in the census's fixed order."""
    return [m for path in sorted(PACKAGE.glob("*.py"))
            for m in mutants(path.name, path.read_text(encoding="utf-8"))]


def mutated_source(mutant: Mutant, source: str) -> str:
    """The module's source with ``mutant`` applied, rewritten by ast.unparse."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) != mutant.line:
            continue
        if mutant.col < 0:
            name, value = _constant(node) or (None, None)
            if name is not None:
                doubled = mutant.label.endswith("x2")
                node.value = ast.Constant(value * 2 if doubled else
                                          value // 2 if isinstance(value, int) else value / 2)
                return ast.unparse(tree) + "\n"
        elif node.col_offset == mutant.col and _swap(_operator(node)) == mutant.label:
            new = SWAPS[_operator(node)]()
            if isinstance(node, ast.Compare):
                node.ops[0] = new
            else:
                node.op = new
            return ast.unparse(tree) + "\n"
    raise LookupError(f"no site {mutant.id}")


def listed_survivors() -> dict[str, str]:
    """tests/mutation_survivors.txt as {mutant id: its line's source}; '#' lines are comments."""
    listed = {}
    for number, text in enumerate(SURVIVORS.read_text(encoding="utf-8").splitlines(), 1):
        if not text.strip() or text.startswith("#"):
            continue
        line = SURVIVOR.fullmatch(text)
        if line is None:
            raise SystemExit(f"{SURVIVORS.name}:{number}: a survivor line is "
                             "'<mutant id>: `<source line>` <reason>'")
        listed[line["id"]] = line["source"]
    return listed


def stale_survivors(every: list[Mutant], listed: dict[str, str]) -> list[str]:
    """A message for each listed survivor that names no mutant or a line whose source changed."""
    by_id, stale = {m.id: m for m in every}, []
    for mutant_id, source in listed.items():
        if mutant_id not in by_id:
            stale.append(f"listed survivor names no site: {mutant_id}")
        elif (now := _source_line(by_id[mutant_id]).strip()) != source:
            stale.append(f"listed survivor's line is now `{now}`, triage it again: {mutant_id}")
    return stale


def _copy_checkout(into: Path) -> Path:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, into / name, ignore=shutil.ignore_patterns(*LEFTOVERS))
        elif src.exists():
            shutil.copy2(src, into / name)
    return into


def run_suite(checkout: Path, timeout: float) -> tuple[bool, float, str]:
    """(passed, seconds, last output line) of tier-1 with -x in ``checkout``."""
    shutil.rmtree(checkout / ".hypothesis", ignore_errors=True)  # no example carries over
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", f"--ignore={SELF_TEST}"], cwd=checkout, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True)
    # set from here, not by preexec_fn, which can deadlock a threaded parent
    resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    lines = [line for line in out.splitlines() if line.strip()]
    return proc.returncode == 0, time.perf_counter() - start, lines[-1] if lines else ""


def _null_mutant(checkout: Path) -> tuple[bool, float, str]:
    """run_suite with every module rewritten unchanged by ast.unparse."""
    package = checkout / "src" / "finslercurv"
    for path in sorted(package.glob("*.py")):
        path.write_text(ast.unparse(ast.parse(path.read_text(encoding="utf-8"))) + "\n",
                        encoding="utf-8")
    outcome = run_suite(checkout, NULL_TIMEOUT)
    for path in sorted(package.glob("*.py")):
        shutil.copy2(PACKAGE / path.name, path)
    return outcome


def _source_line(mutant: Mutant) -> str:
    return (PACKAGE / mutant.module).read_text(encoding="utf-8").splitlines()[mutant.line - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="enumerate the sites, run no mutant")
    parser.add_argument("--only", nargs="+", metavar="PREFIX", default=(),
                        help="run the mutants whose id starts with one of these, e.g. cli.py:277")
    args = parser.parse_args(argv)

    every, listed = census(), listed_survivors()
    stale = stale_survivors(every, listed)
    sites = len({m.site for m in every})
    if args.list:
        for m in every:
            print(f"{m.id:<44} {_source_line(m).strip()}")
        for message in stale:
            print(message, file=sys.stderr)
        print(f"mutation census: {len(every)} mutants at {sites} sites; "
              f"{len(listed)} listed survivors")
        return 1 if stale else 0
    chosen = [m for m in every if not args.only or m.id.startswith(tuple(args.only))]
    if not chosen:
        print("no mutant matches --only", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="mutation-census-") as tmp:
        jobs = min(len(os.sched_getaffinity(0)), len(chosen))  # one suite per usable core
        copies = [_copy_checkout(Path(tmp) / f"worker{k}") for k in range(jobs)]
        passed, null_s, last = _null_mutant(copies[0])
        if not passed:
            print(f"the null mutant (every module through ast.unparse) fails: {last}",
                  file=sys.stderr)
            return 2
        timeout = max(120.0, 5 * null_s)
        print(f"null mutant passes in {null_s:.1f} s; {len(chosen)} mutants, {jobs} workers, "
              f"timeout {timeout:.0f} s", file=sys.stderr)
        free, lock = list(copies), threading.Lock()

        def run(mutant: Mutant):
            with lock:
                checkout = free.pop()
            target = checkout / "src" / "finslercurv" / mutant.module
            try:
                target.write_text(mutated_source(mutant, (PACKAGE / mutant.module).read_text(
                    encoding="utf-8")), encoding="utf-8")
                passed, seconds, last = run_suite(checkout, timeout)
            finally:
                shutil.copy2(PACKAGE / mutant.module, target)
                with lock:
                    free.append(checkout)
            print(f"{'SURVIVED' if passed else 'killed  '} {mutant.id}  ({seconds:.1f} s)",
                  file=sys.stderr, flush=True)
            return passed, seconds

        start = time.perf_counter()
        with ThreadPoolExecutor(jobs) as pool:
            outcomes = list(pool.map(run, chosen))
        wall = time.perf_counter() - start

    survived = [m for m, (passed, _) in zip(chosen, outcomes) if passed]
    print(f"{'module':<16} {'mutants':>7} {'killed':>7} {'survived':>8}")
    for module in sorted({m.module for m in chosen}):
        ran = [m for m in chosen if m.module == module]
        alive = [m for m in survived if m.module == module]
        print(f"{module:<16} {len(ran):>7} {len(ran) - len(alive):>7} {len(alive):>8}")
    print(f"{len(chosen)} mutants, {len(chosen) - len(survived)} killed, {len(survived)} "
          f"survived; {sum(s for _, s in outcomes):.0f} mutant-seconds, {wall:.0f} s wall")

    unlisted = [m for m in survived if m.id not in listed]
    killed_listed = [m for m in chosen if m.id in listed and m not in survived]
    for m in unlisted:
        print(f"unlisted survivor: {m.id}    {_source_line(m).strip()}")
    for m in killed_listed:
        print(f"listed survivor now killed, remove it: {m.id}")
    for message in stale:
        print(message)
    return 1 if unlisted or killed_listed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
