"""Command-line behaviour: exit codes, witnesses, grammars, reproductions."""

import errno
import gc
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from cxorder import (
    ParseError,
    bernstein,
    lattice,
    make_measure,
    measure_from_json,
    measure_to_json,
    orders,
)
from cxorder import cli
from cxorder.cli import (
    MAX_NESTING,
    parse_convex_fn,
    parse_mvpoly,
    parse_surface,
    run,
)

H = Fraction(1, 2)


@pytest.fixture
def measure_files(tmp_path):
    def write(name, atoms):
        path = tmp_path / name
        path.write_text(measure_to_json(make_measure(atoms)))
        return str(path)

    return {
        "dirac0": write("dirac0.json", [(0, 1)]),
        "coin": write("coin.json", [(0, H), (1, H)]),
        "outer": write("outer.json", [(0, H), (3, H)]),
        "inner": write("inner.json", [(1, H), (2, H)]),
    }


def test_rasa_check_holds(measure_files):
    code, text = run(["rasa", "check", "--mu", measure_files["coin"], "--nu", measure_files["coin"]])
    assert code == 0
    assert text.strip() == "holds; min 0"


def test_rasa_check_failure_witness(measure_files):
    code, text = run(["rasa", "check", "--mu", measure_files["outer"], "--nu", measure_files["inner"]])
    assert code == 1
    assert "A=3 gap=-1/2" in text


@pytest.mark.parametrize(
    "mu, nu, verb, line",
    [
        ([(0, 1), ("4/3", 1), (2, "5/2")], [(1, "3/2"), (2, 3)], "rasa", "fails; A=3 gap=-1/12"),
        ([(0, 1), (2, 3), (3, 5)], [(2, 5), (3, 2), (5, 2)], "genfun", "fails; index=2 gap=-1"),
    ],
    ids=["rasa-check", "genfun-check"],
)
def test_a_minimum_of_one_negative_int_unit_fails(mu, nu, verb, line, tmp_path):
    # the sign scan's most negative int is exactly -1 here, so a test of
    # `< -1` in place of `< 0` would print "holds"
    files = []
    for name, atoms in (("--mu", mu), ("--nu", nu)):
        path = tmp_path / f"{name[2:]}.json"
        path.write_text(measure_to_json(make_measure(atoms)))
        files += [name, str(path)]
    assert run([verb, "check", *files]) == (1, f"{line}\n")
    assert run(["rasa", "direct", *files])[0] == 1


def test_rasa_direct_and_gap(measure_files):
    code, _ = run(["rasa", "direct", "--mu", measure_files["dirac0"], "--nu", measure_files["coin"]])
    assert code == 0
    code, text = run(
        ["rasa", "gap", "--mu", measure_files["outer"], "--nu", measure_files["inner"],
         "--phi", "hinge 3 1"]
    )
    assert code == 1
    assert "gap = -1/2" in text


def test_order_subcommands(measure_files):
    code, _ = run(["order", "st", "--mu", measure_files["dirac0"], "--nu", "binomial:2,3/4"])
    assert code == 0
    code, text = run(["order", "cx", "--mu", measure_files["outer"], "--nu", measure_files["inner"]])
    assert code == 1
    assert "A=1" in text


def test_major_chain_output():
    code, text = run(["major", "chain", "--p", "1,1,1,1", "--q", "4,0,0,0"])
    assert code == 0
    assert text.splitlines() == ["1,1,1,1", "2,1,1,0", "3,1,0,0", "4,0,0,0"]


def test_major_compare_codes():
    assert run(["major", "compare", "--p", "1,1", "--q", "2,0"])[0] == 0
    assert run(["major", "compare", "--p", "2,0", "--q", "1,1"])[0] == 1


def test_poly_eval_and_w(measure_files):
    code, text = run(
        ["poly", "eval", "--expr", "1/2 * x1^3 x2 + 1/2 * x1 x2^3",
         "--measure", measure_files["dirac0"], "--measure", measure_files["coin"]]
    )
    assert code == 0
    assert text.strip() == "0:5/16 1:7/16 2:3/16 3:1/16"
    code, text = run(["poly", "w", "--p", "2,0"])
    assert code == 0
    assert "1/2" in text
    code, text = run(["poly", "sos", "--p", "2,1", "--q", "3,0"])
    assert code == 0
    assert "(x1 - x2)^2" in text


def test_poly_muirhead(measure_files):
    code, _ = run(
        ["poly", "muirhead", "--p", "1,1", "--q", "2,0",
         "--measure", "binomial:1,1/4", "--measure", "binomial:1,3/4"]
    )
    assert code == 0


def test_genfun_check_and_csv(measure_files):
    code, _ = run(["genfun", "check", "--mu", measure_files["dirac0"], "--nu", measure_files["coin"]])
    assert code == 0
    code, text = run(
        ["genfun", "check", "--mu", measure_files["outer"], "--nu", measure_files["inner"], "--csv"]
    )
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "index,num,den,sign"
    assert "2,-1,2,-1" in lines  # coefficient -1/2 at index 2


def test_genfun_families_inconclusive():
    code, text = run(
        ["genfun", "check", "--family", "negbinomial:1,1/4", "--family", "negbinomial:1,3/4",
         "--eps", "1/1048576"]
    )
    assert code == 3
    assert "inconclusive" in text


def test_genfun_single_family_summary():
    code, text = run(["genfun", "check", "--family", "negbinomial:0,1/2", "--eps", "1/1024"])
    assert code == 0
    assert "tail bound" in text


def test_bernstein_commands():
    code, text = run(["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4",
                      "--phi", "hinge 1/2 1"])
    assert code == 0
    code, text = run(["bernstein", "gav", "--mode", "P1p", "--g", "absdiff 1",
                      "--ns", "1,1", "--points", "0,1"])
    assert code == 1
    assert "gap = -2" in text
    code, text = run(["bernstein", "eq6", "--ns", "1,1", "--points", "0,1",
                      "--phi", "hinge 1/2 1"])
    assert code == 0
    assert "gap = 1/4" in text
    code, text = run(["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4",
                      "--phi", "affine 0 1", "--eps", "1/1099511627776"])
    assert code == 1
    assert "certified sign -1" in text


def test_bernstein_scan_csv():
    code, text = run(["bernstein", "rasa-scan", "--n", "1", "--phi", "hinge 1/2 1",
                      "--step", "1/2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "x,y,num,den,sign"
    assert len(lines) == 1 + 9  # 3x3 grid
    assert all(line.split(",")[4] in {"0", "1"} for line in lines[1:])


def test_bernstein_supermod():
    assert run(["bernstein", "supermod", "--g", "absdiff 1", "--step", "1/2"])[0] == 1
    assert run(["bernstein", "supermod", "--g", "mid(quad 1; 1,1)", "--step", "1/2"])[0] == 0


def test_reproduce_cases():
    code, text = run(["reproduce", "example-3"])
    assert code == 0
    assert "5/16" in text and "41/128" in text and "REPRODUCED" in text
    code, text = run(["reproduce", "absdiff"])
    assert code == 0
    assert "1+1 > 0+0" in text
    code, text = run(["reproduce", "rasa-binomial"])
    assert code == 0
    assert text.count("holds") == 3
    code, text = run(["reproduce", "gavrea-p4", "--eps", "1/1099511627776"])
    assert code == 0
    assert "certified negative: True" in text


def test_usage_errors_exit_two(measure_files, tmp_path):
    assert run(["rasa", "check", "--mu", "nope.json", "--nu", "nope.json"])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": [{"x": 0.5, "w": 1}]}')
    assert run(["rasa", "check", "--mu", str(bad), "--nu", str(bad)])[0] == 2
    code, text = run(["rasa", "gap", "--mu", measure_files["coin"], "--nu", measure_files["coin"],
                      "--phi", "hige 1 2"])
    assert code == 2
    assert "position" in text
    assert run(["order", "weird"])[0] == 2


@pytest.mark.parametrize("atoms", ["5", "null"])
def test_measure_file_without_an_atom_list_exits_2(atoms, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"atoms": {atoms}}}')
    assert run(["order", "cx", "--mu", str(bad), "--nu", str(bad)]) == (
        2, f'error: {bad}: measure file must be an object {{"atoms": [...]}}\n'
    )


@pytest.mark.parametrize("verb", ["rasa", "genfun"])
def test_negative_trials_exit_2_with_one_line(verb):
    assert run([verb, "equivalence", "--trials", "-5"]) == (
        2, "error: --trials: must be >= 0, got -5\n"
    )
    assert run([verb, "equivalence", "--trials", "0"]) == (
        0, "0 randomized pairs: criterion and oracle agree\n"
    )


@pytest.mark.parametrize("verb", ["rasa", "genfun"])
def test_trials_budget_boundary(verb, monkeypatch):
    assert cli.MAX_TRIALS == 100_000
    monkeypatch.setattr(cli, "MAX_TRIALS", 3)
    assert run([verb, "equivalence", "--trials", "3"]) == (
        0, "3 randomized pairs: criterion and oracle agree\n"
    )
    monkeypatch.setattr(cli, "_random_measure", helpers.refuse("_random_measure"))
    monkeypatch.setattr(cli, "_random_lattice_measure", helpers.refuse("_random_lattice_measure"))
    assert run([verb, "equivalence", "--trials", "4"]) == (
        2, "error: --trials: 4 exceeds MAX_TRIALS = 3\n"
    )


def test_decimal_flag(measure_files):
    code, text = run(["--decimal", "3", "rasa", "gap", "--mu", measure_files["outer"],
                      "--nu", measure_files["inner"], "--phi", "hinge 3 1"])
    assert code == 1
    assert "-1/2 (-0.500)" in text


def test_parse_convex_fn_grammar():
    phi = parse_convex_fn("sum(affine 1/2 -1, hinge 1/2 2)")
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert phi(t) == abs(t - H)
    with pytest.raises(ParseError) as err:
        parse_convex_fn("hinge 1/2")
    assert "2 parameter" in str(err.value)
    with pytest.raises(ParseError):
        parse_convex_fn("sum(hinge 1 1")  # unbalanced


def test_parse_mvpoly_grammar():
    poly = parse_mvpoly("1/2 * x1^3 x2 + 1/2 * x1 x2^3")
    assert poly.arity == 2
    assert poly.eval([1, 2]) == Fraction(1, 2) * 2 + Fraction(1, 2) * 8
    constant = parse_mvpoly("3", arity=2)
    assert constant.eval([5, 7]) == 3
    with pytest.raises(ParseError):
        parse_mvpoly("1/2 x1")  # missing '*'
    with pytest.raises(ParseError):
        parse_mvpoly("1/2 * y3")


def test_parse_surface_grammar():
    g = parse_surface("sum(absdiff 1; term 1/2 1,1)")
    assert g([Fraction(1), Fraction(3)]) == 2 + Fraction(3, 2)
    mid = parse_surface("mid(hinge 1/2 1; 1/2,1/2)")
    assert mid([1, 1]) == H
    assert mid([0, 1]) == 0
    with pytest.raises(ParseError):
        parse_surface("blob 1")


def test_json_round_trip_through_files(tmp_path, measure_files):
    original = measure_from_json(Path(measure_files["outer"]).read_text())
    rewritten = measure_from_json(measure_to_json(original))
    assert rewritten == original


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "cx", "--mu", "DEEP", "--nu", "dirac0"],
        ["rasa", "check", "--mu", "dirac0", "--nu", "DEEP"],
        ["rasa", "direct", "--mu", "DEEP", "--nu", "dirac0"],
        ["rasa", "gap", "--mu", "DEEP", "--nu", "dirac0", "--phi", "quad 1"],
        ["genfun", "check", "--mu", "DEEP", "--nu", "dirac0"],
        ["poly", "eval", "--expr", "x1", "--measure", "DEEP"],
    ],
    ids=["order-cx", "rasa-check", "rasa-direct", "rasa-gap", "genfun-check", "poly-eval"],
)
def test_deeply_nested_measure_json_exits_2_with_one_line(argv, tmp_path, measure_files):
    # 2,000 nested arrays once raised RecursionError out of json.loads and
    # exited 1, the code of a failing inequality, with a traceback
    nested = "[" * 2000 + "]" * 2000
    for name, text in (("bare", nested), ("atoms", '{"atoms": ' + nested + "}")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files = {**measure_files, "DEEP": str(path)}
        message = f"error: {path}: invalid JSON: nested deeper than the parser's recursion limit\n"
        assert run([files.get(a, a) for a in argv]) == (2, message)


def test_seeded_equivalence_sweeps():
    code, text = run(["rasa", "equivalence", "--trials", "40", "--seed", "7"])
    assert code == 0 and "40 randomized pairs" in text
    first = run(["genfun", "equivalence", "--trials", "25", "--seed", "3"])
    second = run(["genfun", "equivalence", "--trials", "25", "--seed", "3"])
    assert first == second == (0, "25 randomized pairs: criterion and oracle agree\n")


def test_eps_option_overrides_the_default():
    command = ["genfun", "check", "--family", "negbinomial:0,1/2"]
    code, text = run(command + ["--eps", "1/1024"])
    assert code == 0
    tail = Fraction(text.split("tail bound ")[1].strip())
    assert tail < Fraction(1, 1024)
    assert "coefficients 0..16" in text  # doubling search stops far earlier
    _, text = run(command)
    assert "coefficients 0..64" in text  # default eps = 2^-40 needs more terms


def test_gav_scan_csv():
    code, text = run(["bernstein", "gav-scan", "--mode", "P1p", "--g", "absdiff 1",
                      "--ns", "1,1", "--step", "1/2"])
    assert code == 1  # the scan finds the corner violations
    lines = text.splitlines()
    assert lines[0] == "x1,x2,num,den,sign"
    by_point = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert by_point[("0", "1")] == ["-2", "1", "-1"]
    assert by_point[("1/2", "1/2")] == ["0", "1", "0"]


def test_eps_environment_is_ignored(monkeypatch):
    # the truncation budget comes from --eps alone, so a verdict can be
    # reproduced from the command line
    monkeypatch.setenv("CXORDER_EPS", "abc")
    assert run(["major", "compare", "--p", "1,1", "--q", "2,0"]) == (0, "majorized\n")
    monkeypatch.setenv("CXORDER_EPS", "1/16")  # --eps 1/16 makes this pair inconclusive
    code, text = run(["genfun", "check", "--family", "negbinomial:1,7/8",
                      "--family", "negbinomial:4,13/16"])
    assert code == 1 and text.startswith("fails; index=105 gap=-")


def test_unknown_reproduce_case_lists_the_cases_in_order():
    assert run(["reproduce", "nope"]) == (
        2,
        "error: argument case: invalid choice: 'nope' (choose from 'example-3', 'gavrea-p4',"
        " 'absdiff', 'rasa-binomial')\n",
    )


@pytest.mark.parametrize(
    "argv, env, line",
    [
        (["bernstein", "p4", "--n", "1", "--y", "1/2", "--phi", "quad 1"], None,
         "error: the following arguments are required: --x"),
        (["--decimal", "-1", "major", "compare", "--p", "1", "--q", "1"], None,
         "error: argument --decimal: K must be >= 0, got -1"),
        (["rasa", "equivalence", "--trials", "x"], None,
         "error: argument --trials: invalid int value: 'x'"),
        ([], None, "error: the following arguments are required: verb"),
        # the environment does not enter parsing
        (["bernstein", "p4", "--n", "1", "--y", "1/2", "--phi", "quad 1"], "abc",
         "error: the following arguments are required: --x"),
        (["rasa", "equivalence", "--trials", "x"], "1/0",
         "error: argument --trials: invalid int value: 'x'"),
    ],
)
def test_parse_stage_errors_keep_their_line(argv, env, line, monkeypatch):
    if env is not None:
        monkeypatch.setenv("CXORDER_EPS", env)
    assert run(argv) == (2, line + "\n")


def test_negative_decimal_rejected_at_parse_time():
    code, text = run(["--decimal", "-2", "bernstein", "rasa", "--n", "2", "--x", "1/4",
                      "--y", "3/4", "--phi", "hinge 1/2 1"])
    assert code == 2
    assert text.count("\n") == 1 and "--decimal" in text


def test_decimal_digits_budget_boundary():
    command = ["bernstein", "rasa", "--n", "2", "--x", "1/3", "--y", "3/4", "--phi", "quad 1"]
    code, text = run(["--decimal", "4300"] + command)
    assert code == 0 and text.startswith("gap = 25/288 (0.0868055555")
    assert run(["--decimal", "4301"] + command) == (
        2, "error: argument --decimal: K = 4301 exceeds MAX_EXPONENT = 4300\n"
    )


@pytest.mark.parametrize(
    "option, text, position",
    [
        ("--phi", "sum(quad 1) junk", 12),
        ("--g", "mid(quad 1; 1,1) trailing", 17),
        ("--phi", "sum quad 1", 0),
        ("--phi", "summary", 0),
    ],
)
def test_grammar_rejects_malformed_calls(option, text, position):
    parse = parse_convex_fn if option == "--phi" else parse_surface
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    if option == "--phi":
        argv = ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4", "--phi", text]
    else:
        argv = ["bernstein", "supermod", "--g", text, "--step", "1/2"]
    code, out = run(argv)
    assert code == 2
    assert out == f"error: {err.value}\n"
    assert f"(at position {position})" in out


def test_decimal_zero_writes_no_point(measure_files):
    code, text = run(["--decimal", "0", "bernstein", "rasa", "--n", "2", "--x", "1/4",
                      "--y", "3/4", "--phi", "hinge 1/2 1"])
    assert (code, text) == (0, "gap = 1/8 (0)\n")
    code, text = run(["--decimal", "0", "rasa", "gap", "--mu", measure_files["outer"],
                      "--nu", measure_files["inner"], "--phi", "hinge 3 1"])
    assert code == 1 and "gap = -1/2 (-1)" in text
    code, text = run(["--decimal", "0", "bernstein", "rasa-scan", "--n", "1",
                      "--phi", "quad 1", "--step", "1/2"])
    assert code == 0 and "1,0,1,2,1" in text and "." not in text


@pytest.mark.parametrize(
    "option, argv, message",
    [
        ("--x", ["rasa", "--n", "2", "--x", "1/0", "--y", "3/4", "--phi", "quad 1"],
         "--x: bad fraction '1/0'"),
        ("--y", ["p4", "--n", "1", "--x", "1/4", "--y", "q", "--phi", "quad 1"],
         "--y: bad fraction 'q'"),
        ("--points", ["multi", "--n", "1", "--points", ",", "--phi", "quad 1"],
         "--points: bad fraction ''"),
        ("--ns", ["eq6", "--ns", "1,x", "--points", "0,1", "--phi", "quad 1"],
         "--ns: bad integer 'x'"),
        ("--step", ["supermod", "--g", "absdiff 1", "--step", "abc"],
         "--step: bad fraction 'abc'"),
    ],
)
def test_bernstein_number_options_are_named_in_errors(option, argv, message):
    code, text = run(["bernstein"] + argv)
    assert code == 2
    assert text.count("\n") == 1
    assert text.startswith(f"error: {message}") and "(at position" in text


def test_poly_w_over_the_arrangement_budget_exits_2():
    code, text = run(["poly", "w", "--p", "9,8,7,6,5,4,3,2,1,0"])
    assert code == 2
    assert text.count("\n") == 1
    assert text.startswith("error: BadParameter: ") and "3628800" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["major", "chain", "--p", "1,1", "--q", "2,x"], "--q: bad integer 'x' (at position 2)"),
        (["major", "compare", "--p", "1,,1", "--q", "2,0,0"], "--p: bad integer ''"),
        (["poly", "w", "--p", "2,-1"], "--p: exponents must be non-negative"),
        (["poly", "sos", "--p", "2,1", "--q", "3,y"], "--q: bad integer 'y'"),
        (["poly", "muirhead", "--p", "a", "--q", "2,0", "--measure", "binomial:1,1/2",
          "--measure", "binomial:1,1/2"], "--p: bad integer 'a'"),
    ],
)
def test_exponent_options_are_named_in_errors(argv, message):
    code, text = run(argv)
    assert code == 2
    assert text.count("\n") == 1
    assert text.startswith(f"error: {message}") and "(at position" in text


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["supermod", "--g", "absdiff 1", "--step", "1/1000"], "MAX_GRID_POINTS = 257"),
        (["rasa-scan", "--n", "1", "--phi", "quad 1", "--step", "1/320"], "MAX_GRID_POINTS = 257"),
        (["gav-scan", "--mode", "P3", "--g", "absdiff 1", "--ns", "1,1,1", "--step", "1/64"],
         "MAX_SCAN_POINTS = 100000"),
        (["gav", "--mode", "P3", "--g", "mid(quad 1; 1/3,1/3,1/3)", "--ns", "30,30,30",
          "--points", "1/3,1/2,2/3"], "MAX_OPERATOR_TABLE = 10000"),
        (["multi", "--n", "1", "--points", ",".join(["1/2"] * 17), "--phi", "quad 1"],
         "MAX_MULTI_POINTS = 16"),
        (["eq6", "--ns", ",".join(["1"] * 17), "--points", ",".join(["1/2"] * 17),
          "--phi", "quad 1"], "MAX_MULTI_POINTS = 16"),
    ],
)
def test_scan_budgets_exit_2_with_one_line(argv, limit):
    code, text = run(["bernstein"] + argv)
    assert code == 2
    assert text.count("\n") == 1
    assert text.startswith("error: BadParameter: ") and limit in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["genfun", "check", "--family", "negbinomial:4097,1/1000"],
         "negative binomial index 4097 exceeds MAX_NEGBIN_INDEX = 4096"),
        (["genfun", "check", "--family", "poisson:1/2", "--family", "poisson:2049"],
         "poisson:2049 at eps=1/1099511627776 needs a truncation cutoff above MAX_CUTOFF = 4096"),
        (["bernstein", "p4", "--n", "4097", "--x", "1/1000", "--y", "1/999", "--phi", "quad 1"],
         "negative binomial index 4097 exceeds MAX_NEGBIN_INDEX = 4096"),
        # x = y gives [0, 0], but only after n and eps are checked
        (["bernstein", "p4", "--n", "100000", "--x", "1/2", "--y", "1/2", "--phi", "quad 1"],
         "negative binomial index 100000 exceeds MAX_NEGBIN_INDEX = 4096"),
        (["bernstein", "p4", "--n", "1", "--x", "1/2", "--y", "1/2", "--phi", "quad 1",
          "--eps", "0"], "eps=0 must be positive"),
    ],
)
def test_family_budgets_exit_2_with_one_line(argv, message):
    assert run(argv) == (2, f"error: BadParameter: {message}\n")


def _families(n, x, y):
    return ["genfun", "check", "--family", f"negbinomial:{n},{x}", "--family", f"negbinomial:{n},{y}"]


def _box(n, x, y):
    return ["bernstein", "p4", "--n", str(n), "--x", x, "--y", y, "--phi", "quad 1"]


def _refuse_squares(monkeypatch):
    monkeypatch.setattr(lattice, "_int_product", helpers.refuse("_int_product"))
    monkeypatch.setattr(bernstein, "_self_form", helpers.refuse("_self_form"))
    monkeypatch.setattr(bernstein, "_square_ints", helpers.refuse("_square_ints"))
    monkeypatch.setattr(bernstein.ConvexTestFn, "_tabulate", helpers.refuse("ConvexTestFn._tabulate"))
    monkeypatch.setattr(bernstein.ConvexTestFn, "__call__", helpers.refuse("phi"))


@pytest.mark.parametrize(
    "argv, products, bits",
    [
        # a complete pair: 1,023 * 512 products
        (["genfun", "check", "--mu", "binomial:512,1/5", "--nu", "binomial:512,1/6"], 523776, 2512),
        # K = 256, wide ints
        (_families(512, "1/8", "1/9"), 66049, 4737),
        # K = 512 with poles of order 4: the plain square's products count
        (_families(1, "15/16", "31/32"), 263169, 2551),
        # --csv squares the pair before its header: a refusal prints no row
        (["genfun", "check", "--csv", *_families(1, "31/32", "15/16")[2:]], 263169, 2551),
        # one truncation at K = 256, the other at K = 512: the box side is 513
        (_box(1, "13/16", "15/16"), 263169, 2053),
        # K = 1: 4 products, counted as 64, on ints past 2^17 bits
        (_families(34, "1e-1130", "2e-1130"), 4, 131386),
        (_box(34, "1e-1130", "2e-1130"), 4, 131383),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6"],
)
def test_square_budget_exits_2_before_any_product(argv, products, bits, monkeypatch):
    _refuse_squares(monkeypatch)
    message = helpers.square_work_message(products, bits)
    assert run(argv) == (2, f"error: BadParameter: {message}\n")


def test_square_bits_budget_boundary_exits_2_with_one_line(monkeypatch):
    # negbinomial:190 with 1/1000 and 1/999 stops at K = 16 with rows of
    # 4,109 bits: 17^2 products for the genfun prefix and for the box
    work = 17 * 17 * 4109 * 4109
    assert run(_families(190, "1/1000", "1/999")) == (
        3, "inconclusive (certified prefix clean; tail unseen)\n"
    )
    code, text = run(_box(190, "1/1000", "1/999"))
    assert code == 0 and text.startswith("interval [")

    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", work - 1)
    _refuse_squares(monkeypatch)
    message = helpers.square_work_message(289, 4109, work - 1)
    for argv in (_families(190, "1/1000", "1/999"), _box(190, "1/1000", "1/999")):
        assert run(argv) == (2, f"error: BadParameter: {message}\n")


def test_squares_inside_the_budget_run(tmp_path):
    # K = 256 on rows of 3,765 bits: 257^2 products for the genfun prefix
    # and for the box, about 0.85 of the budget
    assert run(_families(512, "1/5", "1/6")) == (
        3, "inconclusive (certified prefix clean; tail unseen)\n"
    )
    code, text = run(_box(512, "1/5", "1/6"))
    assert code == 0 and text.startswith("interval [")
    # 1,025 unit atoms at 0..1024 against 1..1025: 2,049 * 1,025 products on
    # one-bit ints
    paths = []
    for start in (0, 1):
        path = tmp_path / f"ramp{start}.json"
        path.write_text(measure_to_json(make_measure([(k, 1) for k in range(start, start + 1025)])))
        paths.append(str(path))
    assert run(["genfun", "check", "--mu", paths[0], "--nu", paths[1]]) == (0, "holds\n")


def test_rasa_on_a_cancelled_wide_atom_takes_the_budget_of_what_is_left(tmp_path):
    # both measures carry 1/(2^600 + 1) at 1/(2^601 + 3), which cancels in
    # H: the 256 small breakpoints left are the budget itself, while the
    # three convolutions see the 609-bit ints of that atom and refuse
    shared = (Fraction(1, 2**601 + 3), Fraction(1, 2**600 + 1))
    paths = []
    for name, offset in (("mu", 0), ("nu", 1)):
        path = tmp_path / f"{name}.json"
        path.write_text(measure_to_json(make_measure([(2 * k + offset, 1) for k in range(128)] + [shared])))
        paths.append(str(path))
    pair = ["--mu", paths[0], "--nu", paths[1]]
    assert run(["rasa", "check", *pair]) == (0, "holds; min 0\n")
    assert run(["rasa", "gap", *pair, "--phi", "quad 1"]) == (0, "gap = 32768\n")
    message = helpers.convolution_work_message("the three convolutions of 129 and 129 atoms", 49923, 609)
    assert run(["rasa", "direct", *pair]) == (2, f"error: BadParameter: {message}\n")


@pytest.mark.parametrize(
    "action, sizes, what, pairs",
    [
        ("check", (128, 129), "the signed square of 257 breakpoints", 66049),
        ("gap", (128, 129), "the signed square of 257 breakpoints", 66049),
        ("direct", (148, 148), "the three convolutions of 148 and 148 atoms", 65712),
    ],
)
def test_convolution_work_budget_exits_2_before_any_product(
    action, sizes, what, pairs, tmp_path, monkeypatch
):
    # atoms at the even integers against atoms at the odd ones, equal masses
    from cxorder import measures

    evens, odds = sizes
    mu, nu = tmp_path / "evens.json", tmp_path / "odds.json"
    mu.write_text(measure_to_json(make_measure([(2 * k, 1) for k in range(evens)])))
    nu.write_text(measure_to_json(make_measure([(2 * k + 1, Fraction(evens, odds)) for k in range(odds)])))
    monkeypatch.setattr(measures, "_product_row", helpers.refuse("_product_row"))
    monkeypatch.setattr(orders, "_product_row", helpers.refuse("_product_row"))
    argv = ["rasa", action, "--mu", str(mu), "--nu", str(nu)]
    # every int has 9 bits, counted as 512
    message = helpers.convolution_work_message(what, pairs, 9)
    assert run(argv + (["--phi", "quad 1"] if action == "gap" else [])) == (
        2, f"error: BadParameter: {message}\n"
    )


@pytest.mark.parametrize("n", [16, 48])
def test_order_cx_on_wide_denominators_exits_2_with_one_line(n, tmp_path):
    paths = [tmp_path / "mu.json", tmp_path / "nu.json"]
    for path, measure in zip(paths, helpers.wide_denominator_pair(n)):
        path.write_text(measure_to_json(measure))
    message = helpers.convolution_work_message(
        f"the convex-order test of {n} and {n} atoms", 2 * n, 26576, noun="atoms"
    )
    argv = ["order", "cx", "--mu", str(paths[0]), "--nu", str(paths[1])]
    assert run(argv) == (2, f"error: BadParameter: {message}\n")


def test_order_st_on_wide_weights_exits_2_before_any_fraction_mass(tmp_path, monkeypatch):
    # 48 + 48 weights 1/(10^4000 + k): summing their Fraction masses and
    # CDFs once took 2.1 s to print "holds"
    from cxorder import measures

    paths = [tmp_path / "mu.json", tmp_path / "nu.json"]
    for path, measure in zip(paths, helpers.wide_weight_pair(48)):
        path.write_text(measure_to_json(measure))
    monkeypatch.setattr(measures.DiscreteMeasure, "mass", property(helpers.refuse("mass")))
    message = helpers.convolution_work_message(
        "the stochastic-order test of 48 and 48 atoms", 96, 26576, noun="atoms"
    )
    argv = ["order", "st", "--mu", str(paths[0]), "--nu", str(paths[1])]
    assert run(argv) == (2, f"error: BadParameter: {message}\n")


def test_poly_muirhead_prints_a_failing_step(monkeypatch):
    # the chain walked backwards, from W^(3,0,0) down to W^(1,1,1), fails at
    # its first step
    from cxorder import polynomials

    forward = polynomials.s_step_chain
    monkeypatch.setattr(polynomials, "s_step_chain", lambda p, q: forward(p, q)[::-1])
    argv = ["poly", "muirhead", "--p", "1,1,1", "--q", "3,0,0", "--measure", "binomial:2,1/4",
            "--measure", "binomial:2,1/2", "--measure", "binomial:2,3/4"]
    assert run(argv) == (1, "fails; step=((3,0,0),(2,1,0),1) gap=-505/12288\n")


def _nested(option: str, depth: int) -> list[str]:
    """A command whose --phi or --g nests parentheses ``depth`` deep: sum()
    calls around ``quad 1``, inside one mid(...) for --g."""
    if option == "--phi":
        text = "sum(" * depth + "quad 1" + ")" * depth
        return ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4", "--phi", text]
    text = "mid(" + "sum(" * (depth - 1) + "quad 1" + ")" * (depth - 1) + "; 1,1)"
    return ["bernstein", "supermod", "--g", text, "--step", "1/2"]


@pytest.mark.parametrize("option", ["--phi", "--g"])
def test_nesting_budget_boundary(option):
    assert MAX_NESTING == 64
    code, text = run(_nested(option, MAX_NESTING))
    assert code == 0 and text.count("\n") == 1
    # the error points at the first parenthesis past the budget; 1,200
    # nested calls once overflowed the parsers' recursion
    for depth in (MAX_NESTING + 1, 1200):
        assert run(_nested(option, depth)) == (
            2,
            "error: parentheses nest deeper than MAX_NESTING = 64"
            f" (at position {4 * (MAX_NESTING + 1) - 1})\n",
        )


def test_scan_input_error_prints_no_csv_header():
    code, text = run(["bernstein", "gav-scan", "--mode", "P1", "--g", "absdiff 1",
                      "--ns", "1,1,1", "--step", "1/2"])
    assert (code, text) == (2, "error: ModeArity: mode P1 takes one or two degrees\n")


def test_negbinomial_pair_at_the_square_budget_needs_no_cauchy_product(monkeypatch):
    # both families carry their poles (order r = 4 <= K = 256), so the
    # kernel gets them and squares the sound prefix by the recurrence
    def refuse(*args, **kwargs):
        raise AssertionError("cauchy_product may not run")

    kernel, poles = lattice._rational_square, []

    def spy(a, b, pair_poles, size):
        poles.append(pair_poles)
        return kernel(a, b, pair_poles, size)

    monkeypatch.setattr(lattice, "cauchy_product", refuse)
    monkeypatch.setattr(lattice, "_rational_square", spy)
    assert run(["genfun", "check", "--family", "negbinomial:1,27/32",
                "--family", "negbinomial:1,13/16"]) == (
        3, "inconclusive (certified prefix clean; tail unseen)\n"
    )
    assert poles == [((Fraction(27, 32), 2), (Fraction(13, 16), 2))]


def test_lattice_file_over_the_cutoff_budget_exits_2(tmp_path):
    far, mid = tmp_path / "far.json", tmp_path / "mid.json"
    far.write_text(measure_to_json(make_measure([(0, H), (4097, H)])))
    mid.write_text(measure_to_json(make_measure([(2048, 1)])))
    assert run(["genfun", "check", "--mu", str(far), "--nu", str(mid)]) == (
        2, "error: BadParameter: atom position 4097 exceeds MAX_CUTOFF = 4096\n"
    )


def test_truncation_over_the_cutoff_budget_exits_2(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 64)
    code, text = run(["genfun", "check", "--family", "negbinomial:1,255/256"])
    assert code == 2
    assert text == (
        "error: BadParameter: negbinomial:1,255/256 at eps=1/1099511627776"
        " needs a truncation cutoff above MAX_CUTOFF = 64\n"
    )


def test_genfun_csv_squares_the_pair_once(monkeypatch):
    calls = []
    square = lattice.genfun_square_coeffs

    def counting(a, b):
        calls.append((a, b))
        return square(a, b)

    monkeypatch.setattr(lattice, "genfun_square_coeffs", counting)
    code, text = run(["genfun", "check", "--csv", "--family", "negbinomial:1,1/2",
                      "--family", "negbinomial:1,9/16"])
    assert code == 3 and text.startswith("index,num,den,sign\n")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bernstein", "rasa", "--n", "513", "--x", "1/4", "--y", "3/4", "--phi", "quad 1"],
         "degree 513"),
        (["bernstein", "rasa-scan", "--n", "513", "--phi", "quad 1", "--step", "1/2"],
         "degree 513"),
        (["bernstein", "multi", "--n", "513", "--points", "0,1", "--phi", "quad 1"],
         "degree 513"),
        (["bernstein", "eq6", "--ns", "500,13", "--points", "0,1", "--phi", "quad 1"],
         "degree 513"),
        (["order", "st", "--mu", "binomial:513,1/2", "--nu", "binomial:1,1/2"], "degree 513"),
        # multi with m points takes eq6's total degree m*n
        (["bernstein", "multi", "--n", "200", "--points", "0,1/2,1", "--phi", "quad 1"],
         "degree 600"),
    ],
)
def test_degree_budget_exits_2_with_one_line(argv, message):
    code, text = run(argv)
    assert code == 2
    assert text == f"error: BadParameter: {message} exceeds MAX_DEGREE = 512\n"


def test_degree_budget_admits_512():
    code, text = run(["order", "cx", "--mu", "binomial:512,1/2", "--nu", "binomial:512,1/2"])
    assert (code, text) == (0, "holds\n")


def test_poly_eval_span_budget_exits_2_with_one_line(measure_files):
    code, text = run(["poly", "eval", "--expr", "1 * x1^5000", "--measure", measure_files["coin"]])
    assert code == 2
    assert text == (
        "error: BadParameter: monomial (5000,) has span 5000, "
        "which exceeds MAX_POLY_SPAN = 2048\n"
    )


@pytest.mark.parametrize("exponent", ["4301", "-4301"])
def test_exponent_budget_at_every_textual_entry_point(exponent, tmp_path):
    big = f"1e{exponent}"
    measure = tmp_path / "big.json"
    measure.write_text(f'{{"atoms": [{{"x": "{big}", "w": "1"}}]}}')
    family = ["genfun", "check", "--family"]
    commands = [
        ["order", "st", "--mu", str(measure), "--nu", str(measure)],
        ["bernstein", "rasa", "--n", "1", "--x", big, "--y", "0", "--phi", "quad 1"],
        ["rasa", "gap", "--mu", "binomial:1,1/2", "--nu", "binomial:1,1/2",
         "--phi", f"hinge {big} 1"],
        ["order", "st", "--mu", f"binomial:2,{big}", "--nu", "binomial:2,1/2"],
        family + [f"negbinomial:1,{big}"],
        family + [f"poisson:{big}"],
        family + ["poisson:1", "--eps", big],
        ["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4", "--phi", "quad 1",
         "--eps", big],
        ["reproduce", "gavrea-p4", "--eps", big],
    ]
    for argv in commands:
        code, text = run(argv)
        assert code == 2 and text.count("\n") == 1, argv
        assert "MAX_EXPONENT = 4300" in text, argv


def test_exponent_budget_admits_4300(tmp_path):
    measure = tmp_path / "big.json"
    measure.write_text('{"atoms": [{"x": "1e4300", "w": "1e-4300"}]}')
    assert run(["order", "cx", "--mu", str(measure), "--nu", str(measure)]) == (0, "holds\n")
    pair = ["--mu", "binomial:1,1e-4300", "--nu", "binomial:1,1e-4300"]
    assert run(["rasa", "gap"] + pair + ["--phi", "hinge 1e4300 1"]) == (0, "gap = 0\n")


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_eps_exits_2_with_one_line(value):
    code, text = run(["genfun", "check", "--family", "poisson:1", "--eps", value])
    assert code == 2
    assert text.count("\n") == 1
    assert text.startswith(f"error: argument --eps: bad fraction '{value}'")


def test_genfun_csv_mass_mismatch_prints_the_witness_only(measure_files, tmp_path):
    half = str(tmp_path / "half.json")
    with open(half, "w") as handle:
        handle.write(measure_to_json(make_measure([(0, H)])))
    argv = ["genfun", "check", "--mu", half, "--nu", measure_files["coin"]]
    expected = (1, "fails; mass mismatch gap=-1/8\n")
    assert run(argv) == run(argv + ["--csv"]) == expected
    assert run(["rasa", "check", "--mu", half, "--nu", measure_files["coin"]]) == expected
    assert run(["rasa", "direct", "--mu", half, "--nu", measure_files["coin"]]) == expected


def test_numbers_over_4300_digits_are_printed():
    # str() refuses ints over 4300 digits; this gap is 1/(2 * 10^8600).
    argv = ["bernstein", "rasa", "--n", "1", "--x", "1e-4300", "--y", "0", "--phi", "quad 1"]
    assert run(argv) == (0, "gap = 1/2" + "0" * 8600 + "\n")
    code, text = run(["--decimal", "2"] + argv)
    assert (code, text) == (0, "gap = 1/2" + "0" * 8600 + " (0.00)\n")
    big = "1" + "0" * 4300  # the gap 10^4300 of B(1, 1) against B(1, 0) under 2 * 10^4300 x^2
    argv = ["bernstein", "rasa", "--n", "1", "--x", "1", "--y", "0",
            "--phi", "sum(quad 1e4300, quad 1e4300)"]
    assert run(["--decimal", "0"] + argv) == (0, f"gap = {big} ({big})\n")
    assert run(["--decimal", "2"] + argv) == (0, f"gap = {big} ({big}.00)\n")
    code, text = run(["bernstein", "rasa", "--n", "1", "--x", "1e4300", "--y", "0",
                      "--phi", "quad 1"])
    assert (code, text) == (
        2, "error: BadParameter: parameter x=1" + "0" * 4300 + " must lie in [0, 1]\n"
    )


def test_truncations_print_numbers_over_4300_digits():
    seq = lattice.truncated_family("poisson:1", Fraction(1, 10**4300))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the expected text, from str() without its cap
    try:
        expected = (f"coefficients 0..{seq.last_index}; boxed mass {seq.boxed_mass}; "
                    f"tail bound {seq.tail_bound}\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300
    assert run(["genfun", "check", "--family", "poisson:1", "--eps", "1e-4300"]) == (0, expected)
    code, text = run(["genfun", "check", "--family", "negbinomial:1,255/256", "--eps", "1e-4300"])
    assert (code, text) == (
        2,
        "error: BadParameter: negbinomial:1,255/256 at eps=<1/4301-digit fraction> needs a"
        " truncation cutoff above MAX_CUTOFF = 4096\n",
    )


# Values of each option kind: mostly ones that read, and some that argparse
# refuses or reads as options ("-x", "-1/2") or as values ("-1", "a b").
_VALUES = {
    "str": ["a", "1/2", "a", "-1", "a b", "", "-x", "-1/2"],
    "int": ["3", "-2", "3", " 7", "x", "1.5"],
    "append": ["binomial:1,1/2", "-1", "-x"],
    "eps": ["1/8", "1e-3", "1/8", "-1", "abc", "1/0"],
}
_JUNK = ["--bogus", "extra", "-x", "--bogus=1", "-1"]


def _option_tokens(draw, option, kind):
    """One use of ``option``: its name, or a prefix of it, with its value
    after it, after "=", or missing."""
    name = option[: draw(st.integers(3, len(option)))] if draw(st.booleans()) else option
    if kind == "flag":
        return [name]
    values = list(kind) + ["nope"] if isinstance(kind, tuple) else _VALUES[kind]
    value = draw(st.sampled_from(values))
    form = draw(st.sampled_from(["apart"] * 6 + ["equals"] * 3 + ["missing"]))
    if form == "equals":
        return [f"{name}={value}"]
    return [name] if form == "missing" else [name, value]


@st.composite
def _argvs(draw):
    """argv drawn from the command table: a verb and action (or a wrong
    one), each option given or not (required ones mostly given, append ones
    repeated), in any order, spelled out, by prefix or with "=", plus junk."""
    verb = draw(st.sampled_from([*cli._COMMANDS, "nope"]))
    if verb == "nope":
        return [verb]
    actions = cli._COMMANDS[verb][2]
    action = draw(st.sampled_from([*actions, "nope"] if None not in actions else [None]))
    head = [verb] + ([] if action is None else [action])
    if action == "nope":
        return head
    positional, options = actions[action]
    groups = []
    if positional is not None and draw(st.integers(0, 9)):
        groups.append([draw(st.sampled_from([*positional[1], "nope"]))])
    for option, (kind, default) in options.items():
        uses = draw(st.integers(0, 3 if kind == "append" else 1))
        if default is cli._REQUIRED and draw(st.integers(0, 9)):
            uses = max(uses, 1)
        groups += [_option_tokens(draw, option, kind) for _ in range(uses)]
    if not draw(st.integers(0, 3)):
        groups.append([draw(st.sampled_from(_JUNK))])
    groups = draw(st.permutations(groups))
    top = draw(st.sampled_from([[]] * 6 + [["--decimal", "2"], ["--dec=x"], ["--decimal"]]))
    return top + head + [token for group in groups for token in group]


def _outcome(parse, argv):
    try:
        return "namespace", vars(parse(argv))
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(argv=_argvs(), env=st.sampled_from([None, None, "1/1024", "abc"]))
def test_parser_matches_the_argparse_oracle(argv, env):
    # the oracle's --eps default reads no environment, so equal outcomes
    # under every drawn CXORDER_EPS show that parse_args ignores it
    saved = os.environ.pop("CXORDER_EPS", None)
    if env is not None:
        os.environ["CXORDER_EPS"] = env
    try:
        kind, found = _outcome(cli.parse_args, argv)
        expected = _outcome(lambda a: helpers.build_argparse_parser().parse_args(a), argv)
    finally:
        os.environ.pop("CXORDER_EPS", None)
        if saved is not None:
            os.environ["CXORDER_EPS"] = saved
    if kind == "namespace" and found.get("eps", 0) is None:
        found["eps"] = lattice.DEFAULT_EPS  # resolved when a handler reads it
    assert (kind, found) == expected


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: cxorder [-h] [--decimal DECIMAL]"
             " {order,rasa,genfun,major,poly,bernstein,reproduce} ..."),
    (["rasa", "--help"], "usage: cxorder rasa [-h] {check,direct,gap,equivalence} ..."),
    (["order", "cx", "--he"], "usage: cxorder order [-h] --mu MU --nu NU {st,cx}"),
    (["genfun", "check", "--mu", "a", "-h", "--bogus"],
     "usage: cxorder genfun check [-h] [--mu MU] [--nu NU] [--family FAMILY]..."
     " [--eps EPS] [--csv]"),
])
def test_help_prints_the_usage_of_its_level_and_exits_0(argv, usage):
    code, text = run(argv)
    assert code == 0 and text.splitlines()[0] == usage
    assert ("Textual grammars" in text) == (argv == ["-h"])


def test_gav_modes_are_those_of_bernstein():
    # the table names them so that parsing loads no bernstein
    assert cli._GAV_MODES == bernstein.GAV_MODES


def test_eps_is_none_until_a_command_reads_its_default():
    assert cli.parse_args(["reproduce", "absdiff"]).eps is None
    assert cli.parse_args(["reproduce", "absdiff", "--ep=1/8"]).eps == Fraction(1, 8)


def test_wide_negbinomial_weights_exit_2_fast():
    # q = 10^4300, n = 100: weights over q^103 (1.47M bits) once took 10 s
    # to print; now refused before the first weight
    code, text = run(["genfun", "check", "--family", "negbinomial:100,1e-4300"])
    assert code == 2 and text.count("\n") == 1
    assert text.endswith("needs weights of 1471355 bits, above MAX_WEIGHT_BITS = 262144"
                         " ((n + K + 2) x bits(q))\n")


# An atexit handler registered at start-up, as the benchmark's peak-memory
# probe registers one: it must still run after main's output and freeze.
_ATEXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"atexit ran, heap frozen: {gc.get_freeze_count() > 0}\\n"))
"""


@pytest.mark.parametrize("argv, code", [
    (["major", "compare", "--p", "1,1", "--q", "2,0"], 0),
    (["major", "compare", "--p", "2,0", "--q", "1,1"], 1),
    (["major", "compare", "--p", "1,x", "--q", "1,1"], 2),
    (["genfun", "check", "--family", "negbinomial:1,1/2", "--family", "negbinomial:1,9/16"], 3),
])
def test_main_exits_as_run_returns_and_runs_atexit_handlers(tmp_path, argv, code):
    (tmp_path / "sitecustomize.py").write_text(_ATEXIT_PROBE)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    result = subprocess.run([sys.executable, "-m", "cxorder", *argv], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == run(argv) and result.returncode == code
    assert result.stderr == "atexit ran, heap frozen: True\n"


def test_run_leaves_the_callers_heap_unfrozen():
    before = gc.get_freeze_count()
    for argv in (["major", "compare", "--p", "1,1", "--q", "2,0"], ["major", "compare", "--p", "1,x"]):
        run(argv)
    assert gc.get_freeze_count() == before


def test_wide_poisson_parameter_exits_2_fast():
    # lam = (10^4000 + 1)/10^4000 once took 4 s to print 408 kB; its terms
    # at K = 8 would count 10 x 26,576 bits
    big = 10**4000
    code, text = run(["genfun", "check", "--family", f"poisson:{big + 1}/{big}"])
    assert code == 2 and text.count("\n") == 1
    assert text.endswith("at cutoff 8 needs weights of 265760 bits, above MAX_WEIGHT_BITS = 262144"
                         " ((K + 2) x (bits(p) + bits(q)))\n")


@pytest.mark.parametrize("family, expected", [
    (f"poisson:{10**4000 + 1}/{10**4000}", "poisson:<4001/4001-digit fraction> at cutoff 8 needs weights"),
    ("negbinomial:100,1e-4300", "negbinomial:100,<1/4301-digit fraction> at cutoff 1 needs weights"),
    (f"negbinomial:1,{10**61}/{10**61 + 1}", "negbinomial:1,<62/62-digit fraction> at cutoff 2048 needs"),
    (f"poisson:{10**59}", f"poisson:{10**59} at eps="),  # 60 characters: written out
    (f"poisson:{10**60}", "poisson:<61-digit integer> at eps="),
], ids=["wide-poisson", "wide-negbinomial", "two-62-digit-parts", "60-characters", "61-characters"])
def test_refused_truncations_name_long_parameters_by_their_digits(family, expected):
    # a refused family once echoed all 8,001 digits of its parameter
    code, text = run(["genfun", "check", "--family", family])
    assert code == 2 and text.count("\n") == 1 and len(text.encode()) < 300
    assert text.startswith(f"error: BadParameter: {expected}")


_RASA_PHI = ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4", "--phi"]
_SUPERMOD_G = ["bernstein", "supermod", "--step", "1/2", "--g"]
_POLY_EXPR = ["poly", "eval", "--measure", "binomial:1,1/2", "--measure", "binomial:1,1/2", "--expr"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bernstein", "gav", "--mode", "P1", "--g", "hinge2 1 1,1,1 1/2", "--ns", "1,1",
          "--points", "0,1"], "hinge2 list must have 2 entries, got 3 (at position 9)"),
        (_RASA_PHI + [""], "empty test-function expression (at position 0)"),
        (_RASA_PHI + ["sum(quad 1,)"], "empty test-function expression (at position 11)"),
        (_RASA_PHI + ["max(quad 1)"], "unknown test-function call 'max' (at position 0)"),
        (_SUPERMOD_G + ["max(absdiff 1)"], "unknown surface call 'max' (at position 0)"),
        (_SUPERMOD_G + ["mid(quad 1)"], "mid needs (<phi> ; w1,w2,...) (at position 0)"),
        (_POLY_EXPR + ["1 + "], "empty polynomial term (at position 3)"),
        (_POLY_EXPR + ["2 *"], "dangling '*' (at position 0)"),
        (_POLY_EXPR + ["1 * xq"], "bad variable token 'xq' (at position 4)"),
        (_POLY_EXPR + ["1 * x0"], "bad variable token 'x0' (at position 4)"),
        (_POLY_EXPR + ["1 * x3"], "variable index exceeds arity 2 (at position 0)"),
        (["genfun", "check", "--mu", "binomial:1,1/2", "--nu", "binomial:1,1/2",
          "--family", "negbinomial:1,1/2"], "genfun check needs exactly two sequences (files or families)"),
        (["genfun", "check"], "genfun check needs exactly two sequences (files or families)"),
    ],
)
def test_input_errors_exit_2_with_one_line(argv, message):
    assert run(argv) == (2, f"error: {message}\n")


_DIRAC0 = '{"atoms": [{"x": "0", "w": "1"}]}'


@pytest.mark.parametrize(
    "body, message",
    [
        ("{", "invalid JSON: Expecting property name enclosed in double quotes (at position 1)"),
        ('{"atoms": [1]}', 'atom #0 must be an object {"x": ..., "w": ...}'),
        ("\ufeff" + _DIRAC0,
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (at position 0)"),
        (_DIRAC0 + " x", "invalid JSON: Extra data (at position 34)"),
        ('{"atoms": []}{}', "invalid JSON: Extra data (at position 13)"),
        ('{"atoms": [{"x": 0.5, "w": "1"}]}',
         "floating-point literal '0.5' not allowed in measure files"),
        ('{"atoms": [{"x": 1e5, "w": "1"}]}',
         "floating-point literal '1e5' not allowed in measure files"),
        ('{"atoms": [{"x": NaN, "w": "1"}]}',
         "atom #0: refusing float nan; pass a Fraction, int or string"),
        ('{"atoms": [{"x": "0", "w": -Infinity}]}',
         "atom #0: refusing float -inf; pass a Fraction, int or string"),
        ('{"atoms": [{"x": "\\q", "w": "1"}]}', "invalid JSON: Invalid \\escape (at position 18)"),
        ('{"atoms": [{"x": "0\n", "w": "1"}]}',
         "invalid JSON: Invalid control character at (at position 19)"),
        ('{"atoms": [{"x": ' + "1" * 4301 + ', "w": "1"}]}',
         "atom #0: int literal of 4301 digits exceeds MAX_EXPONENT = 4300"),
        (b'{"atoms": [{"x": "\xff", "w": "1"}]}',
         "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 18: "
         "invalid start byte"),
    ],
)
def test_malformed_measure_file_exits_2_with_one_line(body, message, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    good = tmp_path / "good.json"
    good.write_text(_DIRAC0)
    # the line names the file that fails, whichever side it is on
    for mu, nu in ((bad, good), (good, bad)):
        argv = ["order", "cx", "--mu", str(mu), "--nu", str(nu)]
        assert run(argv) == (2, f"error: {bad}: {message}\n")


def test_measure_file_with_a_repeated_key_keeps_the_last(tmp_path):
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"atoms": [{"x": "5", "w": "1"}], "atoms": [{"x": "0", "w": "1"}]}')
    dirac0 = tmp_path / "dirac0.json"
    dirac0.write_text(_DIRAC0)
    # the first list would put the mass at 5, another mean: "fails"
    assert run(["order", "cx", "--mu", str(repeated), "--nu", str(dirac0)]) == (0, "holds\n")


def test_directory_as_a_measure_file_exits_2_with_one_line(tmp_path):
    assert run(["order", "cx", "--mu", str(tmp_path), "--nu", "binomial:1,1/2"]) == (
        2, f"error: IsADirectoryError: [Errno {errno.EISDIR}] Is a directory: '{tmp_path}'\n"
    )
