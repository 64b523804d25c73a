"""tools/mutants.py without running a mutant: every mutant of its table still
finds its text once in the sources, so the table follows the code it
mutates, and the first failing test is read from pytest's summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_every_mutant_applies_once_and_names_existing_tests(name):
    path, old, new, tests = mutants.MUTANTS[name]
    source = (mutants.ROOT / path).read_text(encoding="utf-8")
    text = mutants.mutated(name)
    assert text != source and text.count(new) == source.count(new) + 1
    assert all((mutants.ROOT / test).is_file() for test in tests)


def test_a_mutant_whose_text_is_gone_is_refused(tmp_path, monkeypatch):
    (tmp_path / "module.py").write_text("a = 1\na = 1\n", encoding="utf-8")
    monkeypatch.setitem(mutants.MUTANTS, "twice", ("module.py", "a = 1", "a = 2", []))
    with pytest.raises(ValueError, match="occurs 2 times in module.py"):
        mutants.mutated("twice", tmp_path)


def test_first_failure_reads_the_short_summary():
    output = ("..F\n=== short test summary info ===\n"
              "FAILED tests/test_x.py::test_y[1] - AssertionError: 1 != 2\n"
              "!!! stopping after 1 failures !!!\n1 failed, 2 passed in 0.1s\n")
    assert mutants.first_failure(output) == "tests/test_x.py::test_y[1]"
    assert mutants.first_failure("3 passed in 0.1s\n") == "3 passed in 0.1s"
