"""Start-up footprint: each command loads only the modules its verb runs.

Every probe runs in a fresh interpreter without site packages (``-I -S``),
so the modules it reports are those the command itself imported.  The test
counts modules rather than timing them, so it is deterministic.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
if sys.argv[3:]:
    from cxorder.cli import run
    code, _ = run(sys.argv[3:])
    assert code == int(sys.argv[2]), code
else:
    import cxorder
print(" ".join(sorted(set(sys.modules) - before)))
"""
# Loaded by no command: dataclasses pulls in inspect, ast, dis and tokenize.
_NEVER = {"dataclasses", "inspect"}
_KERNELS = {"cxorder.lattice", "cxorder.polynomials", "cxorder.bernstein"}


def _loaded(*argv: str, env: dict[str, str] | None = None, code: int = 0) -> set[str]:
    """The modules that the command ``argv`` loads, which must exit ``code``;
    with no argv, those of ``import cxorder``."""
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE, str(SRC), str(code), *argv],
        capture_output=True, text=True, check=True, env={**os.environ, **(env or {})},
    )
    return set(result.stdout.split())


def _cxorder_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "cxorder" or m.startswith("cxorder.")}


@pytest.fixture(scope="module")
def coin(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("measures") / "coin.json"
    path.write_text('{"atoms": [{"x": "0", "w": "1/2"}, {"x": "1", "w": "1/2"}]}')
    return str(path)


def test_import_cxorder_imports_no_submodule():
    assert _cxorder_modules(_loaded()) == {"cxorder"}


def test_major_compare_loads_only_majorization():
    loaded = _loaded("major", "compare", "--p", "1,1", "--q", "2,0")
    assert _cxorder_modules(loaded) == {
        "cxorder", "cxorder.cli", "cxorder.errors", "cxorder.majorization",
    }
    assert not loaded & (_NEVER | {"fractions", "decimal", "json", "random"})


@pytest.mark.parametrize("eps", ["1/8", "abc"])
def test_major_compare_loads_no_fractions_whatever_cxorder_eps_holds(eps):
    # the --eps default is read by the commands that truncate, never from
    # the environment
    loaded = _loaded("major", "compare", "--p", "1,1", "--q", "2,0", env={"CXORDER_EPS": eps})
    assert not loaded & {"fractions", "decimal", "cxorder.measures"}


@pytest.mark.parametrize("argv", [
    ["order", "cx", "--mu", "{coin}", "--nu", "{coin}"],
    ["order", "st", "--mu", "{coin}", "--nu", "{coin}"],
    ["rasa", "check", "--mu", "{coin}", "--nu", "{coin}"],
    ["rasa", "direct", "--mu", "{coin}", "--nu", "{coin}"],
])
def test_order_and_rasa_on_files_load_no_other_kernel(coin, argv):
    # a well-formed measure file is read by the C scanner alone
    loaded = _loaded(*(a.format(coin=coin) for a in argv))
    assert "cxorder.orders" in loaded and "_json" in loaded
    assert not loaded & (_NEVER | _KERNELS | {"json"})


# fractions and what it imports: only a command that prints or computes a
# Fraction loads them
_FRACTIONS = {"fractions", "decimal", "_decimal", "numbers"}


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory) -> dict[str, str]:
    folder = tmp_path_factory.mktemp("pairs")
    atoms = {
        "coin": [("0", "1/2"), ("1", "1/2")],
        "half": [("0", "1/4"), ("1", "1/4")],
        "dirac0": [("0", "1")],
        "dirac1": [("1", "1")],
        "dirac2": [("2", "1")],
        "spread": [("-1", "1/2"), ("1", "1/2")],
        "wide": [("-1", "1/4"), ("1/2", "1/2"), ("2", "1/4")],
    }
    paths = {}
    for name, pairs in atoms.items():
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(
            '{"atoms": [' + ", ".join(f'{{"x": "{x}", "w": "{w}"}}' for x, w in pairs) + "]}")
    return paths


# (command on files of pair_files, exit code, the start of its verdict):
# each order test and the criterion where it holds and with each witness
_DECISIONS = [
    ("order st --mu {coin} --nu {coin}", 0, "holds"),
    ("order st --mu {dirac2} --nu {coin}", 1, "fails; x="),
    ("order st --mu {coin} --nu {half}", 1, "fails; mass mismatch"),
    ("order cx --mu {coin} --nu {coin}", 0, "holds"),
    ("order cx --mu {coin} --nu {dirac1}", 1, "fails; mean mismatch"),
    ("order cx --mu {spread} --nu {dirac0}", 1, "fails; A="),
    ("order cx --mu {coin} --nu {half}", 1, "fails; mass mismatch"),
    ("rasa check --mu {coin} --nu {dirac1}", 0, "holds; min "),
    ("rasa check --mu {coin} --nu {wide}", 1, "fails; A="),
    ("rasa check --mu {coin} --nu {half}", 1, "fails; mass mismatch"),
    ("rasa direct --mu {coin} --nu {coin}", 0, "holds"),
    ("rasa direct --mu {coin} --nu {wide}", 1, "fails; A="),
    ("rasa direct --mu {coin} --nu {half}", 1, "fails; mass mismatch"),
]


@pytest.mark.parametrize("decimal", [[], ["--decimal", "3"]], ids=["exact", "decimal"])
@pytest.mark.parametrize("command, code, verdict", _DECISIONS, ids=[c for c, _, _ in _DECISIONS])
def test_order_and_rasa_decisions_load_no_fractions(pair_files, decimal, command, code, verdict):
    from cxorder.cli import run

    argv = decimal + command.format(**pair_files).split()
    exit_code, text = run(argv)
    assert exit_code == code and text.startswith(verdict)
    assert not _loaded(*argv, code=code) & _FRACTIONS


def test_rasa_equivalence_loads_no_fractions():
    assert not _loaded("rasa", "equivalence", "--trials", "40", "--seed", "3") & _FRACTIONS


def test_importing_orders_loads_no_fractions():
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import cxorder.orders; print(*sys.modules)",
         str(SRC)],
        capture_output=True, text=True, check=True,
    )
    loaded = set(result.stdout.split())
    assert "cxorder.orders" in loaded and not loaded & _FRACTIONS


def test_rasa_equivalence_loads_no_other_kernel():
    loaded = _loaded("rasa", "equivalence", "--trials", "3", "--seed", "1")
    assert "cxorder.orders" in loaded
    assert not loaded & (_NEVER | _KERNELS)


@pytest.mark.parametrize("argv", [
    ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4", "--phi", "quad 1"],
    ["bernstein", "rasa-scan", "--n", "2", "--step", "1/2", "--phi", "hinge 1/2 1"],
    ["bernstein", "eq6", "--ns", "1,2", "--points", "1/4,1/2", "--phi", "quad 1"],
    ["bernstein", "multi", "--n", "2", "--points", "1/4,1/2,3/4", "--phi", "quad 1"],
    ["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4",
     "--phi", "sum(affine 1 -2, quad 1)"],
    ["reproduce", "gavrea-p4"],
])
def test_bernstein_gaps_load_no_polynomials(argv):
    loaded = _loaded(*argv)
    assert "cxorder.bernstein" in loaded
    assert not loaded & {"cxorder.polynomials", "cxorder.majorization"}


@pytest.mark.parametrize("argv", [
    ["bernstein", "gav", "--mode", "P1", "--g", "mid(quad 1; 1,1)", "--ns", "2",
     "--points", "1/4,3/4"],
    ["bernstein", "supermod", "--g", "mid(quad 1; 1,1)", "--step", "1/2"],
])
def test_bernstein_surfaces_load_polynomials(argv):
    assert "cxorder.polynomials" in _loaded(*argv)


@pytest.mark.parametrize("argv", [
    ["genfun", "check", "--family", "negbinomial:1,1/2"],
    ["poly", "w", "--p", "2,1"],
    ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4", "--phi", "quad 1"],
    ["reproduce", "example-3"],
])
def test_no_verb_loads_dataclasses(argv):
    loaded = _loaded(*argv)
    assert not loaded & _NEVER
    assert "json" not in loaded  # no measure file is read


_COMPILE_PROBE = """
import importlib
import sys
sys.path.insert(0, sys.argv[1])
callers = set()


def hook(event, args):
    if event in ("exec", "compile"):
        callers.add(sys._getframe(1).f_globals.get("__name__") or "")


sys.addaudithook(hook)
for name in sys.argv[2:]:
    importlib.import_module(name)
print(" ".join(sorted(c for c in callers if c.startswith("cxorder"))))
"""


def test_importing_every_module_compiles_no_code():
    # a record's constructor is compiled on its first construction, not at import
    names = [f"cxorder.{path.stem}" for path in sorted((SRC / "cxorder").glob("*.py"))
             if path.stem not in ("__init__", "__main__")]
    assert len(names) == 8
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COMPILE_PROBE, str(SRC), *names],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == []


# argparse and what it imports: cli.parse_args reads the command line.
_ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ["order", "cx", "--mu", "{coin}", "--nu", "{coin}"],
    ["rasa", "equivalence", "--trials", "3"],
    ["genfun", "check", "--family", "negbinomial:1,1/2", "--eps", "1/64"],
    ["major", "chain", "--p", "1,1", "--q", "2,0"],
    ["poly", "w", "--p", "2,1"],
    ["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4",
     "--phi", "sum(affine 1 -2, quad 1)"],
    ["--decimal", "2", "reproduce", "example-3"],
])
def test_no_command_loads_argparse(coin, argv):
    assert not _loaded(*(a.format(coin=coin) for a in argv)) & _ARGPARSE


def test_reproduce_example_3_loads_no_lattice():
    # lattice holds the default --eps, which example-3 never reads
    loaded = _loaded("reproduce", "example-3")
    assert "cxorder.polynomials" in loaded and "cxorder.lattice" not in loaded


# Every name `cxorder` exported before its exports became lazy, less the
# Fraction routes that no command ran (test_sources checks they stay gone).
EXPORTS = """
    ArityMismatch BadParameter BivariateFn ConvexTestFn CxOrderError DEFAULT_EPS
    DecompositionMismatch DiscreteMeasure Inconclusive IntervalValue LatticeSeq
    LengthMismatch MVPolynomial MassMismatch ModeArity NegativeWeight
    NonConvexTestFn NonPositiveInput NotLattice NotMajorized NotNonneg NotSStep
    OrderVerdict ParseError PiecewiseLinear SosDecomposition Witness absdiff_surface
    affine_fn as_lattice as_rational bernstein binomial_measure binomial_weights
    cauchy_product compose_convex dirac distinct_arrangements eq6prim_gap errors
    gap_functional gav_gap gav_scan gavrea_p4_sum genfun_square_coeffs genfun_test
    hinge_fn hinge_surface integrate_hinge is_s_step lattice leq_cx leq_st
    majorization majorizes make_measure measure_from_json measure_to_json measures
    moment_consistency muirhead_cx_check muirhead_scalar multi_rasa_gap orders
    poly_eval_measures poly_surface polynomials quad_fn rasa_criterion rasa_direct
    rasa_gap rasa_scan s_step_chain sorted_desc sos_cx_check sos_step_decomposition
    supermodularity_check tensor_bernstein truncate_negbinomial truncate_poisson
    truncated_family unit_grid w_polynomial
""".split()


def test_every_export_resolves():
    import cxorder

    assert len(EXPORTS) == 83
    assert set(EXPORTS) <= set(dir(cxorder))
    submodules = [importlib.import_module(f"cxorder.{name}") for name in (
        "bernstein", "errors", "lattice", "majorization", "measures", "orders", "polynomials")]
    for name in EXPORTS:
        value = getattr(cxorder, name)
        namespace = {}
        exec(f"from cxorder import {name}", namespace)
        assert namespace[name] is value
        assert value in submodules or any(getattr(m, name, None) is value for m in submodules)
    assert cxorder.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        cxorder.nonexistent
    with pytest.raises(ImportError):
        exec("from cxorder import nonexistent", {})
