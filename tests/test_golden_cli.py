"""Golden CLI output: exit code and stdout, byte for byte.

Every verb, action and ``reproduce`` case runs once on small inputs.  The
expected output of case NAME is ``golden/NAME.txt``: a first line
``exit <code>`` followed by the exact stdout.  The files are data, written
once from a known-good build; a change to any of them is a change to the
CLI's output and must be deliberate.
"""

from pathlib import Path

import pytest

import helpers
from cxorder import bernstein, measures, orders
from cxorder.cli import run

GOLDEN = Path(__file__).parent / "golden"


def m(name: str) -> str:
    """Path of a measure file under golden/inputs."""
    return str(GOLDEN / "inputs" / f"{name}.json")


EPS40 = "1/1099511627776"  # 2^-40
MIXED_PHI = "sum(hinge 3/8 1, quad 2/5, affine 1 1/3)"

CASES = {
    # order
    "order_st_holds": ["order", "st", "--mu", m("dirac0"), "--nu", "binomial:2,3/4"],
    "order_st_fails": ["order", "st", "--mu", m("inner"), "--nu", m("outer")],
    "order_st_mass": ["order", "st", "--mu", m("half"), "--nu", m("coin")],
    "order_cx_holds": ["order", "cx", "--mu", m("inner"), "--nu", m("outer")],
    "order_cx_fails": ["order", "cx", "--mu", m("outer"), "--nu", m("inner")],
    "order_cx_mean": ["order", "cx", "--mu", m("dirac0"), "--nu", "binomial:2,3/4"],
    # rasa
    "rasa_check_equal": ["rasa", "check", "--mu", m("coin"), "--nu", m("coin")],
    "rasa_check_holds": ["rasa", "check", "--mu", m("dirac0"), "--nu", m("coin")],
    "rasa_check_spread": ["rasa", "check", "--mu", m("dirac0"), "--nu", m("spread")],
    "rasa_check_fails": ["rasa", "check", "--mu", m("outer"), "--nu", m("inner")],
    "rasa_direct_holds": ["rasa", "direct", "--mu", m("dirac0"), "--nu", m("coin")],
    "rasa_direct_fails": ["rasa", "direct", "--mu", m("outer"), "--nu", m("inner")],
    "rasa_gap_hinge": ["rasa", "gap", "--mu", m("outer"), "--nu", m("inner"),
                       "--phi", "hinge 3 1"],
    "rasa_gap_sum": ["rasa", "gap", "--mu", m("dirac0"), "--nu", m("spread"),
                     "--phi", "sum(affine 1/2 -1, hinge 1/2 2, quad 3)"],
    "rasa_gap_nested": ["rasa", "gap", "--mu", m("coin"), "--nu", "binomial:1,1/3",
                        "--phi", " sum (hinge 0 1, sum(quad 1/2, affine 0 0)) "],
    "rasa_equivalence": ["rasa", "equivalence", "--trials", "20", "--seed", "7"],
    # atoms, weights and phi on different denominators
    "rasa_gap_mixed": ["rasa", "gap", "--mu", m("spread"), "--nu", "binomial:2,2/7",
                       "--phi", MIXED_PHI],
    # genfun
    "genfun_check_holds": ["genfun", "check", "--mu", m("dirac0"), "--nu", m("coin")],
    "genfun_check_fails": ["genfun", "check", "--mu", m("outer"), "--nu", m("inner")],
    "genfun_check_csv": ["genfun", "check", "--mu", m("outer"), "--nu", m("inner"), "--csv"],
    "genfun_check_csv_binomial": ["genfun", "check", "--mu", "binomial:3,1/3",
                                  "--nu", "binomial:3,1/2", "--csv"],
    "genfun_family_negbinomial": ["genfun", "check", "--family", "negbinomial:0,1/2",
                                  "--eps", "1/1024"],
    "genfun_family_poisson": ["genfun", "check", "--family", "poisson:1", "--eps", "1/64"],
    "genfun_truncated": ["genfun", "check", "--family", "negbinomial:1,1/4",
                         "--family", "negbinomial:1,3/4", "--eps", "1/1048576"],
    "genfun_truncated_csv": ["genfun", "check", "--family", "negbinomial:1,1/2",
                             "--mu", m("dirac0"), "--eps", "1/256", "--csv"],
    "genfun_lower_bounds_csv": ["genfun", "check", "--family", "poisson:1",
                                "--family", "poisson:2", "--eps", "1/64", "--csv"],
    "genfun_equivalence": ["genfun", "equivalence", "--trials", "20", "--seed", "3"],
    # unequal masses fail with the mass gap of the constant test functions,
    # the line `rasa direct` prints for the same pair
    "genfun_check_mass_mismatch": ["genfun", "check", "--mu", m("half"), "--nu", m("coin")],
    # major
    "major_compare_holds": ["major", "compare", "--p", "1,1", "--q", "2,0"],
    "major_compare_fails": ["major", "compare", "--p", "2,0", "--q", "1,1"],
    "major_chain": ["major", "chain", "--p", "1,1,1,1", "--q", "4,0,0,0"],
    "major_chain_empty": ["major", "chain", "--p", "2,1", "--q", "1,2"],
    # poly
    "poly_w": ["poly", "w", "--p", "2,1,0"],
    "poly_sos": ["poly", "sos", "--p", "2,1", "--q", "3,0"],
    "poly_sos_three": ["poly", "sos", "--p", "2,1,1", "--q", "2,2,0"],
    "poly_sos_empty": ["poly", "sos", "--p", "2,1", "--q", "1,2"],
    "poly_eval": ["poly", "eval", "--expr", "1/2 * x1^3 x2 + 1/2 * x1 x2^3",
                  "--measure", m("dirac0"), "--measure", m("coin")],
    "poly_eval_constant": ["poly", "eval", "--expr", "2 + 1/3 * x2", "--measure", m("coin"),
                           "--measure", m("spread")],
    "poly_muirhead_holds": ["poly", "muirhead", "--p", "1,1,1", "--q", "3,0,0",
                            "--measure", "binomial:1,1/4", "--measure", "binomial:1,1/2",
                            "--measure", "binomial:1,3/4"],
    "poly_muirhead_pair_fails": ["poly", "muirhead", "--p", "1,1", "--q", "2,0",
                                 "--measure", m("outer"), "--measure", m("inner")],
    # bernstein
    "bernstein_rasa": ["bernstein", "rasa", "--n", "2", "--x", "1/4", "--y", "3/4",
                       "--phi", "hinge 1/2 1"],
    "bernstein_rasa_sum": ["bernstein", "rasa", "--n", "3", "--x", "0", "--y", "1",
                           "--phi", "sum(quad 1, hinge 1/3 2)"],
    "bernstein_rasa_scan": ["bernstein", "rasa-scan", "--n", "1", "--phi", "hinge 1/2 1",
                            "--step", "1/2"],
    "bernstein_rasa_scan_quad": ["bernstein", "rasa-scan", "--n", "2", "--phi", "quad 1",
                                 "--step", "1/3"],
    "bernstein_gav_p1": ["bernstein", "gav", "--mode", "P1", "--g", "mid(quad 1; 1,1)",
                         "--ns", "2", "--points", "1/4,3/4"],
    "bernstein_gav_p1p": ["bernstein", "gav", "--mode", "P1p", "--g", "absdiff 1",
                          "--ns", "1,1", "--points", "0,1"],
    "bernstein_gav_p3": ["bernstein", "gav", "--mode", "P3",
                         "--g", "mid(hinge 1/2 1; 1/3,1/3,1/3)",
                         "--ns", "1,2,1", "--points", "0,1/2,1"],
    "bernstein_gav_p3p": ["bernstein", "gav", "--mode", "P3p",
                          "--g", "sum(term 1 1,1,0; hinge2 1 1,1,1 1)",
                          "--ns", "1,1,1", "--points", "1/4,1/2,3/4"],
    "bernstein_gav_scan_p1p": ["bernstein", "gav-scan", "--mode", "P1p", "--g", "absdiff 1",
                               "--ns", "1,1", "--step", "1/2"],
    "bernstein_gav_scan_p3": ["bernstein", "gav-scan", "--mode", "P3",
                              "--g", "mid(quad 1; 1/2,1/2)", "--ns", "2,2", "--step", "1/2"],
    "bernstein_gav_scan_p1": ["bernstein", "gav-scan", "--mode", "P1",
                              "--g", "sum(absdiff 1; hinge2 -1 1,-1/2 1/4)", "--ns", "2,3",
                              "--step", "1/3"],
    "bernstein_gav_scan_p3p": ["bernstein", "gav-scan", "--mode", "P3p",
                               "--g", "sum(term 1 1,1,0; hinge2 1 1,1,-1 1/2; absdiff 1/4)",
                               "--ns", "1,2,1", "--step", "1/2"],
    "bernstein_supermod_fails": ["bernstein", "supermod", "--g", "absdiff 1", "--step", "1/2"],
    # the first failing quadruple is neither the first (x1, y1) pair nor its first (x2, y2)
    "bernstein_supermod_late_witness": ["bernstein", "supermod", "--g", "hinge2 -1 1,1 3/2",
                                        "--step", "1/4"],
    "bernstein_supermod_holds": ["bernstein", "supermod", "--g", "mid(quad 1; 1,1)",
                                 "--step", "1/4"],
    "bernstein_supermod_sum": ["bernstein", "supermod", "--g", "sum(term 1 1,1; absdiff 1/4)",
                               "--step", "1/4"],
    # grids and points whose coordinates carry different denominators
    "bernstein_gav_scan_p3_mixed": ["bernstein", "gav-scan", "--mode", "P3",
                                    "--g", "mid(quad 1; 1/3,2/5,1/7)", "--ns", "2,1,3",
                                    "--step", "2/7"],
    "bernstein_gav_scan_p1_one_degree": ["bernstein", "gav-scan", "--mode", "P1",
                                         "--g", "sum(hinge2 1 1,-1/2 1/4; term -1/3 2,1)",
                                         "--ns", "3", "--step", "1/5"],
    "bernstein_gav_p3_mixed": ["bernstein", "gav", "--mode", "P3",
                               "--g", "sum(mid(hinge 1/2 1; 1/3,1/3,1/3); term -1 1,0,2)",
                               "--ns", "1,2,2", "--points", "1/3,2/5,1/7"],
    "bernstein_supermod_sevenths": ["bernstein", "supermod", "--g", "hinge2 -1 1,1 3/2",
                                    "--step", "2/7"],
    "bernstein_supermod_sum_twelfths": ["bernstein", "supermod",
                                        "--g", "sum(term 1 1,1; absdiff 1/4)", "--step", "1/12"],
    "bernstein_rasa_scan_twelfths": ["bernstein", "rasa-scan", "--n", "4",
                                     "--phi", "sum(quad 1, hinge 1/3 2)", "--step", "1/12"],
    "bernstein_eq6": ["bernstein", "eq6", "--ns", "1,1", "--points", "0,1",
                      "--phi", "hinge 1/2 1"],
    "bernstein_eq6_three": ["bernstein", "eq6", "--ns", "1,2,3", "--points", "0,1/2,1",
                            "--phi", "quad 1"],
    "bernstein_multi": ["bernstein", "multi", "--n", "2", "--points", "0,1/2,1",
                        "--phi", "hinge 1/2 1"],
    # points on different denominators and a phi with every part
    "bernstein_rasa_mixed": ["bernstein", "rasa", "--n", "5", "--x", "1/3", "--y", "2/7",
                             "--phi", MIXED_PHI],
    "bernstein_eq6_mixed": ["bernstein", "eq6", "--ns", "2,3,1", "--points", "1/3,2/5,6/7",
                            "--phi", MIXED_PHI],
    "bernstein_multi_mixed": ["bernstein", "multi", "--n", "3", "--points", "1/3,2/5,6/7",
                              "--phi", MIXED_PHI],
    "bernstein_p4_negative": ["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4",
                              "--phi", "affine 0 1", "--eps", EPS40],
    "bernstein_p4_positive": ["bernstein", "p4", "--n", "1", "--x", "1/4", "--y", "3/4",
                              "--phi", "sum(affine 1 -2, quad 1)", "--eps", "1/1024"],
    "bernstein_p4_uncertified": ["bernstein", "p4", "--n", "1", "--x", "2/5", "--y", "3/5",
                                 "--phi", "affine 0 1", "--eps", "1/4"],
    "bernstein_p4_equal": ["bernstein", "p4", "--n", "2", "--x", "1/3", "--y", "1/3",
                           "--phi", "quad 1"],
    # reproduce
    "reproduce_example3": ["reproduce", "example-3"],
    "reproduce_absdiff": ["reproduce", "absdiff"],
    "reproduce_gavrea_p4": ["reproduce", "gavrea-p4", "--eps", EPS40],
    "reproduce_rasa_binomial": ["reproduce", "rasa-binomial"],
    # --decimal
    "decimal_rasa_gap": ["--decimal", "3", "rasa", "gap", "--mu", m("outer"),
                         "--nu", m("inner"), "--phi", "hinge 3 1"],
    "decimal_rasa_check": ["--decimal", "4", "rasa", "check", "--mu", m("dirac0"),
                           "--nu", m("spread")],
    "decimal_order_cx": ["--decimal", "2", "order", "cx", "--mu", m("outer"), "--nu", m("inner")],
    "decimal_genfun_family": ["--decimal", "6", "genfun", "check",
                              "--family", "negbinomial:0,1/2", "--eps", "1/1024"],
    "decimal_rasa_scan": ["--decimal", "3", "bernstein", "rasa-scan", "--n", "1",
                          "--phi", "quad 1", "--step", "1/2"],
    "decimal_gav_scan": ["--decimal", "4", "bernstein", "gav-scan", "--mode", "P1p",
                         "--g", "absdiff 3/8", "--ns", "2,3", "--step", "1/6"],
    "decimal_p4": ["--decimal", "5", "bernstein", "p4", "--n", "1", "--x", "1/4",
                   "--y", "3/4", "--phi", "affine 0 1", "--eps", EPS40],
    "decimal_eq6": ["--decimal", "6", "bernstein", "eq6", "--ns", "2,3,1",
                    "--points", "1/3,2/5,6/7", "--phi", MIXED_PHI],
    "decimal_example3": ["--decimal", "3", "reproduce", "example-3"],
    "decimal_zero": ["--decimal", "0", "bernstein", "rasa", "--n", "2", "--x", "1/4",
                     "--y", "3/4", "--phi", "hinge 1/2 1"],
    # input errors whose wording is part of the interface
    "error_unknown_phi_atom": ["rasa", "gap", "--mu", m("coin"), "--nu", m("coin"),
                               "--phi", "hige 1 2"],
    "error_phi_arity": ["bernstein", "rasa", "--n", "1", "--x", "0", "--y", "1",
                        "--phi", "hinge 1/2"],
    "error_mass_mismatch": ["rasa", "check", "--mu", m("half"), "--nu", m("coin")],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run(CASES[name])
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert f"exit {code}\n{text}" == expected


# Every golden case of `rasa check`, `rasa direct` and `rasa equivalence`:
# the self-convolution criterion and its oracle run on ints, so the oracle
# hands no convolution measure to leq_cx and integrates no hinge on Fractions
_RASA = [
    "decimal_rasa_check", "error_mass_mismatch", "rasa_check_equal", "rasa_check_fails",
    "rasa_check_holds", "rasa_check_spread", "rasa_direct_fails", "rasa_direct_holds",
    "rasa_equivalence",
]


@pytest.mark.parametrize("name", _RASA)
def test_rasa_prints_the_golden_bytes_without_intermediate_measures(name, monkeypatch):
    monkeypatch.setattr(orders, "leq_cx", helpers.refuse("leq_cx"))
    monkeypatch.setattr(measures, "integrate_hinge", helpers.refuse("integrate_hinge"))
    code, text = run(CASES[name])
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert f"exit {code}\n{text}" == expected


# Every golden case of the Bernstein scanners, the product operator and the
# gaps that pair a row with phi (`bernstein rasa`/`eq6`/`multi`, `rasa gap`):
# surfaces and phi are tabulated on ints and the gaps summed there, with no
# literal surface or phi evaluation.  Only the p4 box keeps a literal phi
# table.
_SCANS = sorted(
    name for name, argv in CASES.items()
    if ("--phi" in argv or "--g" in argv) and "p4" not in argv or argv == ["reproduce", "absdiff"]
)


@pytest.mark.parametrize("name", _SCANS)
def test_bernstein_scans_print_the_golden_bytes_on_ints(name, monkeypatch):
    monkeypatch.setattr(bernstein.BivariateFn, "__call__", helpers.refuse("BivariateFn.__call__"))
    monkeypatch.setattr(bernstein.ConvexTestFn, "__call__", helpers.refuse("ConvexTestFn.__call__"))
    code, text = run(CASES[name])
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert f"exit {code}\n{text}" == expected
