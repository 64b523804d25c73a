"""Source checks over src/cxorder: no module reads the environment, so a
verdict follows from the command line and the files it names alone; only
orders reads the parts of a convex test function; no kernel reads a
measure's Fraction atoms; an lcm outside measures is a grid's, a pole's or
a column sum's; the Fraction routes that no command ran stay
retired; and no module compiles a regex when it is imported."""

import ast
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


def _functions_where(tree, hit):
    """The qualified names of the functions (the module, for code outside
    any) with a node of their own code for which ``hit`` holds, once per
    such node."""
    found = []

    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{name}.{child.name}" if name else child.name)
            else:
                if hit(child):
                    found.append(name or "<module>")
                walk(child, name)

    walk(tree, "")
    return found


def _atoms_readers(tree):
    """The functions whose own code reads an attribute named atoms."""
    return _functions_where(tree, lambda node: (isinstance(node, ast.Attribute)
                                                and node.attr == "atoms"))


@pytest.mark.parametrize("name", ["orders", "lattice", "polynomials", "bernstein"])
def test_no_kernel_reads_the_fraction_atoms_of_a_measure(name):
    # the kernels read a measure's int form (DiscreteMeasure._int_form); only
    # the literal integral of a test function sums over the Fraction atoms
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    readers = _atoms_readers(tree)
    assert set(readers) <= {"ConvexTestFn.integrate"}
    assert readers.count("ConvexTestFn.integrate") == (name == "orders")


def test_the_atoms_check_sees_every_reader():
    tree = ast.parse("def f(mu):\n    return [x for x, _ in mu.atoms]\n"
                     "class C:\n    def g(self, mu):\n        return lambda: mu.atoms\n"
                     "TOP = m.atoms\n")
    assert _atoms_readers(tree) == ["f", "C.g", "<module>"]


# Outside measures, whose _common_ints puts int rows on a common
# denominator, an lcm is taken only for a grid, the poles of a rational
# generating function, the bound of _width_floor and the columns of _unit_sum
_LCM_SITES = {
    "bernstein": ["_ProductOperator.__init__", "gavrea_p4_sum"],
    "lattice": ["_rational_square", "_width_floor", "_width_floor", "_width_floor"],
    "orders": ["_unit_sum"],
}


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "measures.py"), ids=lambda path: path.name
)
def test_only_grids_poles_and_column_sums_take_an_lcm_outside_measures(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = _functions_where(tree, lambda node: isinstance(node, ast.Call)
                             and ast.unparse(node.func) in ("lcm", "math.lcm"))
    assert sites == _LCM_SITES.get(path.stem, [])


# The exported Fraction routes that no command ran; the tests keep literal
# oracles of the ones they need in tests/helpers.py
_RETIRED = ("convolve", "mix", "cdf_diff", "StepFunction", "step_function",
            "step_self_convolution", "lattice_to_measure", "rescale_argument")
_DEFINITION = re.compile(r"^\s*(?:def|class)\s+(\w+)|^(\w+)\s*[:=]", re.MULTILINE)


def test_the_retired_fraction_routes_stay_gone():
    import cxorder

    defined = {
        name for path in PACKAGE.glob("*.py")
        for match in _DEFINITION.finditer(path.read_text(encoding="utf-8"))
        for name in match.groups() if name
    }
    assert "measure_from_json" in defined and "ConvexTestFn" in defined
    assert defined.isdisjoint(_RETIRED)
    assert set(cxorder.__all__).isdisjoint(_RETIRED)
    with pytest.raises(AttributeError, match="no attribute 'convolve'"):
        cxorder.convolve


def _runs_at_import(node):
    """``node`` and the nodes under it that run when its module is imported:
    all but the bodies of functions and lambdas."""
    yield node
    for field, value in ast.iter_fields(node):
        if field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _runs_at_import(child)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_compiles_a_regex_at_import(path):
    # every command pays for what its modules do at import; a pattern string
    # goes through re's own cache when its call site first runs
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in _runs_at_import(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"]
    assert calls == []
