"""The README's "Budgets" table, checked against the constants it names."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^\| `(\w+)\.(MAX_\w+)` = ([\d,]+) \|")
CONSTANT = re.compile(r"^(MAX_\w+) = ", re.MULTILINE)


def _budget_rows() -> dict[tuple[str, str], int]:
    """(module, NAME) -> value of each row of the table under "Budgets"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text[text.index("\nBudgets") :].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        match = ROW.match(line)
        assert match, f"unreadable budget row: {line}"
        module, name, value = match.groups()
        rows[module, name] = int(value.replace(",", ""))
    return rows


def test_every_budget_row_states_the_constant():
    rows = _budget_rows()
    assert rows
    for (module, name), value in rows.items():
        assert getattr(importlib.import_module(f"cxorder.{module}"), name) == value, name


def test_every_budget_constant_has_a_row():
    rows = _budget_rows()
    for path in sorted((ROOT / "src" / "cxorder").glob("*.py")):
        for name in CONSTANT.findall(path.read_text(encoding="utf-8")):
            assert (path.stem, name) in rows, f"{path.stem}.{name} has no README row"
