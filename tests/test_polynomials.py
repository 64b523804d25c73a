"""Convolution polynomials, symmetric means, squared-difference certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from cxorder import (
    ArityMismatch,
    BadParameter,
    DecompositionMismatch,
    MVPolynomial,
    NotNonneg,
    NotSStep,
    SosDecomposition,
    binomial_measure,
    convolve,
    dirac,
    integrate_hinge,
    leq_cx,
    make_measure,
    mix,
    moment_consistency,
    muirhead_cx_check,
    poly_eval_measures,
    sos_cx_check,
    sos_step_decomposition,
    sorted_desc,
    w_polynomial,
)
from cxorder import polynomials
from cxorder.majorization import distinct_arrangements

H = Fraction(1, 2)


def example_pair():
    poly_p = MVPolynomial.from_dict(2, {(3, 1): H, (1, 3): H})
    poly_q = MVPolynomial.from_dict(
        2, {(4, 0): Fraction(1, 8), (2, 2): Fraction(3, 4), (0, 4): Fraction(1, 8)}
    )
    mu = dirac(0)
    nu = make_measure([(0, H), (1, H)])
    return poly_p, poly_q, mu, nu


def test_w_polynomial_examples():
    assert w_polynomial((1, 1)) == MVPolynomial.from_dict(2, {(1, 1): 1})
    assert w_polynomial((2, 0)) == MVPolynomial.from_dict(2, {(2, 0): H, (0, 2): H})
    sixth = Fraction(1, 6)
    expected = {
        perm: sixth for perm in set(itertools.permutations((2, 1, 0)))
    }
    assert w_polynomial((2, 1, 0)) == MVPolynomial.from_dict(3, expected)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
def test_arrangement_count_is_the_multinomial(p):
    assert polynomials.arrangement_count(p) == len(list(distinct_arrangements(p)))


def test_w_polynomial_budget_is_checked_before_enumerating(monkeypatch):
    def refuse(values):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(polynomials, "distinct_arrangements", refuse)
    with pytest.raises(BadParameter) as err:
        w_polynomial(tuple(range(9, -1, -1)))  # 10! = 3,628,800 arrangements
    assert "3628800" in str(err.value) and str(polynomials.MAX_ARRANGEMENTS) in str(err.value)


def test_w_polynomial_budget_boundary(monkeypatch):
    monkeypatch.setattr(polynomials, "MAX_ARRANGEMENTS", 12)
    assert len(w_polynomial((2, 1, 1, 0)).terms) == 12  # exactly at the limit
    with pytest.raises(BadParameter):
        w_polynomial((3, 2, 1, 0))  # 24 arrangements


def test_w_polynomial_budget_admits_eight_distinct_exponents():
    # well above the five-entry tuples the tests, goldens and benchmark use
    assert polynomials.arrangement_count(range(8)) <= polynomials.MAX_ARRANGEMENTS
    assert polynomials.arrangement_count(range(9)) > polynomials.MAX_ARRANGEMENTS


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
def test_w_polynomial_permutation_invariant(p):
    rng = random.Random(sum(p) + len(p))
    shuffled = list(p)
    rng.shuffle(shuffled)
    assert w_polynomial(tuple(p)) == w_polynomial(tuple(shuffled))
    assert w_polynomial(tuple(p)).nonneg


def test_poly_eval_reference_values():
    poly_p, poly_q, mu, nu = example_pair()
    left = poly_eval_measures(poly_p, [mu, nu])
    assert left == make_measure(
        [(0, Fraction(5, 16)), (1, Fraction(7, 16)), (2, Fraction(3, 16)), (3, Fraction(1, 16))]
    )
    right = poly_eval_measures(poly_q, [mu, nu])
    assert right == make_measure(
        [
            (0, Fraction(41, 128)),
            (1, Fraction(52, 128)),
            (2, Fraction(30, 128)),
            (3, Fraction(4, 128)),
            (4, Fraction(1, 128)),
        ]
    )


def test_poly_eval_square_on_dirac():
    square = MVPolynomial.from_dict(1, {(2,): 1})
    assert poly_eval_measures(square, [dirac(1)]) == dirac(2)


def test_poly_eval_rejects_negative_coefficients():
    signed = MVPolynomial.from_dict(1, {(1,): -1})
    with pytest.raises(NotNonneg):
        poly_eval_measures(signed, [dirac(0)])


def test_poly_eval_arity_checked():
    with pytest.raises(ArityMismatch):
        poly_eval_measures(w_polynomial((1, 1)), [dirac(0)])


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_poly_eval_is_a_homomorphism(rng):
    arity = rng.randint(1, 2)
    measures = [helpers.random_measure(rng, max_atoms=3, span=3) for _ in range(arity)]

    def small_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(arity))
            terms[exps] = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        return MVPolynomial.from_dict(arity, terms)

    a, b = small_poly(), small_poly()
    product = poly_eval_measures(a * b, measures)
    assert product == convolve(
        poly_eval_measures(a, measures), poly_eval_measures(b, measures)
    )
    total = poly_eval_measures(a + b, measures)
    assert total == mix(
        [1, 1], [poly_eval_measures(a, measures), poly_eval_measures(b, measures)]
    )


def test_moment_consistency_reference_pair():
    poly_p, poly_q, _, _ = example_pair()
    assert poly_p.eval([1, 1]) == poly_q.eval([1, 1]) == 1
    for b in ([1, 0], [Fraction(2, 3), 5], [0, 0]):
        assert moment_consistency(poly_p, poly_q, [1, 1], b)


def test_moment_consistency_trivial_and_failing():
    poly = MVPolynomial.from_dict(2, {(1, 1): 1})
    assert moment_consistency(poly, poly, [Fraction(1, 3), 2], [5, 7])
    square = MVPolynomial.from_dict(2, {(2, 0): 1})
    assert not moment_consistency(poly, square, [1, 2], [1, 0])


def test_moment_consistency_arity_checked():
    with pytest.raises(ArityMismatch):
        moment_consistency(
            MVPolynomial.from_dict(1, {(1,): 1}),
            MVPolynomial.from_dict(2, {(1, 1): 1}),
            [1],
            [1],
        )


def test_sos_step_simplest():
    decomposition = sos_step_decomposition((1, 1), (2, 0))
    assert len(decomposition.parts) == 1
    u, v, factor = decomposition.parts[0]
    assert (u, v) == (0, 1)
    assert factor == MVPolynomial.from_dict(2, {(0, 0): H})


def test_sos_step_with_bridge_sum():
    decomposition = sos_step_decomposition((2, 1), (3, 0))
    ((u, v, factor),) = decomposition.parts
    assert factor == MVPolynomial.from_dict(2, {(1, 0): H, (0, 1): H})


def test_sos_step_equal_tuples_empty():
    decomposition = sos_step_decomposition((2, 1), (1, 2))
    assert decomposition.parts == ()
    assert decomposition.expand().is_zero


def test_sos_step_rejects_non_steps():
    with pytest.raises(NotSStep):
        sos_step_decomposition((1, 1, 1, 1), (4, 0, 0, 0))


def test_sos_step_expansion_exhaustive_small():
    entries = range(5)
    for m in (2, 3, 4):
        seen = set()
        for p in itertools.product(entries, repeat=m):
            ph = sorted_desc(p)
            if ph in seen:
                continue
            seen.add(ph)
            for i in range(m):
                for j in range(i + 1, m):
                    bumped = list(ph)
                    bumped[i] += 1
                    bumped[j] -= 1
                    if bumped[j] < 0 or max(bumped) > 5:
                        continue
                    q = tuple(bumped)
                    from cxorder import is_s_step

                    if not is_s_step(ph, q):
                        continue
                    decomposition = sos_step_decomposition(ph, q)
                    assert decomposition.expand() == w_polynomial(q) - w_polynomial(ph)
                    for _, _, factor in decomposition.parts:
                        assert factor.nonneg


def test_sos_cx_check_simple_certificate():
    # xy versus (x^2 + y^2)/2 on one-trial binomials
    poly_p = w_polynomial((1, 1))
    poly_q = w_polynomial((2, 0))
    decomposition = sos_step_decomposition((1, 1), (2, 0))
    measures = [binomial_measure(1, Fraction(1, 4)), binomial_measure(1, Fraction(3, 4))]
    assert sos_cx_check(poly_p, poly_q, decomposition, measures).holds


def test_sos_cx_check_identical_measures():
    decomposition = sos_step_decomposition((1, 1), (2, 0))
    mu = make_measure([(0, H), (Fraction(5, 2), H)])
    assert sos_cx_check(
        w_polynomial((1, 1)), w_polynomial((2, 0)), decomposition, [mu, mu]
    ).holds


def test_sos_cx_check_mismatched_certificate():
    poly_p, poly_q, mu, nu = example_pair()
    empty = SosDecomposition(2, ())
    with pytest.raises(DecompositionMismatch):
        sos_cx_check(poly_p, poly_q, empty, [mu, nu])


def test_reference_pair_has_no_nonneg_certificate():
    # Q - P = (x - y)^2 * (x - y)^2 / 8 and the inner factor carries a
    # negative coefficient, so it is not admissible as a certificate
    poly_p, poly_q, mu, nu = example_pair()
    inner = MVPolynomial.from_dict(2, {(2, 0): Fraction(1, 8), (1, 1): -Fraction(1, 4), (0, 2): Fraction(1, 8)})
    diff = MVPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    assert diff * diff * inner == poly_q - poly_p
    with pytest.raises(NotNonneg):
        SosDecomposition(2, ((0, 1, inner),))
    # and indeed the convex order fails outright, so no certificate can exist
    left = poly_eval_measures(poly_p, [mu, nu])
    right = poly_eval_measures(poly_q, [mu, nu])
    assert integrate_hinge(left, 2) == Fraction(1, 16)
    assert integrate_hinge(right, 2) == Fraction(6, 128)
    verdict = leq_cx(left, right)
    assert verdict.holds is False
    assert verdict.witness.point == 2


def test_muirhead_cx_full_spread_three_measures():
    measures = [
        binomial_measure(2, Fraction(1, 4)),
        binomial_measure(2, Fraction(1, 2)),
        binomial_measure(2, Fraction(3, 4)),
    ]
    assert muirhead_cx_check((1, 1, 1), (3, 0, 0), measures).holds


def test_muirhead_cx_equal_measures():
    mu = make_measure([(0, H), (1, Fraction(1, 3)), (2, Fraction(1, 6))])
    assert muirhead_cx_check((2, 1, 1), (4, 0, 0), [mu, mu, mu]).holds


def test_muirhead_cx_on_st_ordered_three_point_measures():
    measures = [
        make_measure([(0, H), (1, Fraction(1, 4)), (2, Fraction(1, 4))]),
        make_measure([(0, Fraction(1, 4)), (1, H), (2, Fraction(1, 4))]),
        make_measure([(0, Fraction(1, 4)), (1, Fraction(1, 4)), (2, H)]),
    ]
    assert muirhead_cx_check((2, 1, 1), (3, 1, 0), measures).holds


def test_muirhead_cx_reports_incompatible_pair():
    # the crossing pair fails the pairwise profile condition
    measures = [
        make_measure([(0, H), (3, H)]),
        make_measure([(1, H), (2, H)]),
    ]
    verdict = muirhead_cx_check((1, 1), (2, 0), measures)
    assert verdict.holds is False
    assert verdict.witness.kind == "pair"


def test_consistency_identities_follow_from_convex_order():
    # whenever the convex-order comparison holds, the value and
    # directional-derivative identities at (masses; means) must hold too
    rng = random.Random(99)
    for _ in range(20):
        q = tuple(
            sorted((rng.randint(0, 3) for _ in range(2)), reverse=True)
        )
        p_candidates = [
            (a, sum(q) - a)
            for a in range(sum(q) // 2, min(q[0], sum(q)) + 1)
            if a >= sum(q) - a >= 0
        ]
        p = rng.choice(p_candidates)
        poly_p, poly_q = w_polynomial(p), w_polynomial(q)
        measures = [
            binomial_measure(2, Fraction(rng.randint(0, 4), 4)) for _ in range(2)
        ]
        verdict = leq_cx(
            poly_eval_measures(poly_p, measures),
            poly_eval_measures(poly_q, measures),
        )
        if verdict.holds:
            masses = [m.mass for m in measures]
            means = [m.mean for m in measures]
            assert moment_consistency(poly_p, poly_q, masses, means)


def test_muirhead_cx_mass_and_major_checks():
    from cxorder import MassMismatch, NotMajorized

    with pytest.raises(NotMajorized):
        muirhead_cx_check((2, 0), (1, 1), [dirac(0), dirac(0)])
    with pytest.raises(MassMismatch):
        muirhead_cx_check((1, 1), (2, 0), [dirac(0), make_measure([(0, 2)])])
