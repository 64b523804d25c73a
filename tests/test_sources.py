"""Source checks over src/cxorder: no module reads the environment, so a
verdict follows from the command line and the files it names alone."""

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
