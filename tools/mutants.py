"""Mutants of the int-row kernels, each run against the tests of its module.

    python3 tools/mutants.py

Each mutant of the table below replaces one piece of source text, found
exactly once in its file, by a wrong one.  For each mutant in turn, one
process at a time, the script copies src/, tests/ and pyproject.toml into a
temporary directory, applies the mutant there and runs

    python -m pytest -x -q -p no:cacheprovider TESTS

in the copy, TESTS the test files of the mutated module.  A failing run
kills the mutant; a passing one lets it survive, and a survivor is a test
that is missing.  One line per mutant says which, with the first failing
test of a killed one, and a last line gives the kill count.  The exit code
is 0 when every mutant is killed, 1 otherwise.

The repository itself is never written.  Only the standard library.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (source file, text, mutated text, test files)
MUTANTS = {
    "least-form-no-drop-gcd": (
        "src/cxorder/measures.py",
        "    if len(xs) < len(merged):  # a position dropped\n",
        "    if False:  # a position dropped\n",
        ["tests/test_measures.py"],
    ),
    "least-form-no-sum-gcd": (
        "src/cxorder/measures.py",
        "    if summed:\n",
        "    if False:\n",
        ["tests/test_measures.py"],
    ),
    "jump-row-nu-not-negated": (
        "src/cxorder/orders.py",
        "(u2, [-w for w in w2])",
        "(u2, list(w2))",
        ["tests/test_orders.py"],
    ),
    "muirhead-step-factors-swapped": (
        "src/cxorder/polynomials.py",
        "_common_ints([(unit, row.values()), (lower_unit, lower_row.values())])",
        "_common_ints([(lower_unit, row.values()), (unit, lower_row.values())])",
        ["tests/test_polynomials.py"],
    ),
    "p4-join-factors-swapped": (
        "src/cxorder/bernstein.py",
        "_common_ints([(fam_x.unit, fam_x.ints), (fam_y.unit, fam_y.ints)])",
        "_common_ints([(fam_y.unit, fam_x.ints), (fam_x.unit, fam_y.ints)])",
        ["tests/test_bernstein.py"],
    ),
    "decimal-rounds-half-down": (
        "src/cxorder/cli.py",
        "(n * 10**digits + d // 2) // d",
        "(n * 10**digits + (d - 1) // 2) // d",
        ["tests/test_cli.py"],
    ),
    "decimal-drops-negative-sign": (
        "src/cxorder/cli.py",
        'sign = "-" if num < 0 else ""',
        'sign = ""',
        ["tests/test_cli.py"],
    ),
    "witness-gap-num-den-swapped": (
        "src/cxorder/orders.py",
        "gap=Fraction(num, den))",
        "gap=Fraction(den, num))",
        ["tests/test_orders.py"],
    ),
    "minimum-takes-last-argmin": (
        "src/cxorder/orders.py",
        "return (sums[values.index(low)], scale), (low, den)",
        "return (sums[len(values) - 1 - values[::-1].index(low)], scale), (low, den)",
        ["tests/test_orders.py"],
    ),
    "absdiff-arity-check-at-1": (
        "src/cxorder/bernstein.py",
        "    if arity < 2:\n",
        "    if arity < 1:\n",
        ["tests/test_bernstein.py"],
    ),
}


def mutated(name: str, root: Path = ROOT) -> str:
    """The text of the mutant's file under ``root`` with the mutant applied;
    ValueError unless its text occurs exactly once."""
    path, old, new, _ = MUTANTS[name]
    text = (root / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{name}: {old!r} occurs {text.count(old)} times in {path}")
    return text.replace(old, new)


def first_failure(output: str) -> str:
    """The first test that pytest's short summary names as failing (or in
    error), else the output's last line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def run_mutant(name: str) -> tuple[bool, str]:
    """(killed, first failing test or the passing summary) of one mutant,
    run in a fresh copy of the sources and tests."""
    path, _, _, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        (copy / path).write_text(mutated(name), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, capture_output=True, text=True,
        )
    return proc.returncode != 0, first_failure(proc.stdout + proc.stderr)


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    killed = 0
    for name in MUTANTS:
        dead, detail = run_mutant(name)
        killed += dead
        print(f"{'killed' if dead else 'SURVIVED':8} {name}: {detail}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
