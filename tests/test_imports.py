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
if sys.argv[2:]:
    from cxorder.cli import run
    code, _ = run(sys.argv[2:])
    assert code == 0, code
else:
    import cxorder
print(" ".join(sorted(set(sys.modules) - before)))
"""
# Loaded by no command: dataclasses pulls in inspect, ast, dis and tokenize.
_NEVER = {"dataclasses", "inspect"}
_KERNELS = {"cxorder.lattice", "cxorder.polynomials", "cxorder.bernstein"}


def _loaded(*argv: str, env: dict[str, str] | None = None) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE, str(SRC), *argv],
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
