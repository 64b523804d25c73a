"""Command-line behaviour: exit codes, witnesses, grammars, reproductions."""

import sys
from fractions import Fraction

import pytest

from cxorder import ParseError, lattice, make_measure, measure_from_json, measure_to_json
from cxorder.cli import build_parser, parse_convex_fn, parse_mvpoly, parse_surface, run

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
        2, 'error: measure file must be an object {"atoms": [...]}\n'
    )


@pytest.mark.parametrize("verb", ["rasa", "genfun"])
def test_negative_trials_exit_2_with_one_line(verb):
    assert run([verb, "equivalence", "--trials", "-5"]) == (
        2, "error: --trials: must be >= 0, got -5\n"
    )
    assert run([verb, "equivalence", "--trials", "0"]) == (
        0, "0 randomized pairs: criterion and oracle agree\n"
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
    original = measure_from_json(open(measure_files["outer"]).read())
    rewritten = measure_from_json(measure_to_json(original))
    assert rewritten == original


def test_seeded_equivalence_sweeps():
    code, text = run(["rasa", "equivalence", "--trials", "40", "--seed", "7"])
    assert code == 0 and "40 randomized pairs" in text
    first = run(["genfun", "equivalence", "--trials", "25", "--seed", "3"])
    second = run(["genfun", "equivalence", "--trials", "25", "--seed", "3"])
    assert first == second == (0, "25 randomized pairs: criterion and oracle agree\n")


def test_eps_environment_override(monkeypatch):
    command = ["genfun", "check", "--family", "negbinomial:0,1/2"]
    monkeypatch.setenv("CXORDER_EPS", "1/1024")
    code, text = run(command)
    assert code == 0
    tail = Fraction(text.split("tail bound ")[1].strip())
    assert tail < Fraction(1, 1024)
    assert "coefficients 0..16" in text  # doubling search stops far earlier
    monkeypatch.delenv("CXORDER_EPS")
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


def test_malformed_eps_environment_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("CXORDER_EPS", "abc")
    code, text = run(["major", "compare", "--p", "1,1", "--q", "2,0"])
    assert code == 2
    assert text.count("\n") == 1 and "CXORDER_EPS" in text


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


def test_scan_input_error_prints_no_csv_header():
    code, text = run(["bernstein", "gav-scan", "--mode", "P1", "--g", "absdiff 1",
                      "--ns", "1,1,1", "--step", "1/2"])
    assert (code, text) == (2, "error: ModeArity: mode P1 takes one or two degrees\n")


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
def test_exponent_budget_at_every_textual_entry_point(exponent, tmp_path, monkeypatch):
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
    monkeypatch.setenv("CXORDER_EPS", big)
    code, text = run(["major", "compare", "--p", "1,1", "--q", "2,0"])
    assert code == 2 and text.count("\n") == 1
    assert text.startswith(f"error: CXORDER_EPS='{big}' is not a fraction")
    assert "MAX_EXPONENT" in text


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
        f"error: BadParameter: negbinomial:1,255/256 at eps=1/1{'0' * 4300} needs a truncation"
        " cutoff above MAX_CUTOFF = 4096\n",
    )


def test_a_parser_builds_each_verb_once():
    # A verb's arguments are added on its first parse; a second parse with
    # the same parser must not add them again (argparse refuses duplicates).
    parser = build_parser()
    for argv in (["major", "compare", "--p", "1,1", "--q", "2,0"],
                 ["major", "chain", "--p", "1,1", "--q", "2,0"],
                 ["order", "cx", "--mu", "a.json", "--nu", "b.json"]):
        args = parser.parse_args(argv)
        assert args.verb == argv[0]
    assert (args.relation, args.mu, args.nu) == ("cx", "a.json", "b.json")
