"""Source checks over src/cxorder: no module reads the environment, so a
verdict follows from the command line and the files it names alone; and
only orders reads the parts of a convex test function."""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cxorder"
# os.environ, os.environb, os.getenv and a bare getenv(
_ENVIRONMENT = re.compile(r"environ|getenv")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if _ENVIRONMENT.search(line)] == []


# phi's parts: ConvexTestFn.const, .slope, .curve and .hinges
_PHI_FIELDS = re.compile(r"\.(const|slope|curve|hinges)\b")


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "orders.py"), ids=lambda path: path.name
)
def test_only_orders_reads_the_fields_of_a_test_function(path):
    # the gaps tabulate phi through ConvexTestFn._tabulate, so the format
    # of a test function stays behind the module that defines it
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if _PHI_FIELDS.search(line)] == []
