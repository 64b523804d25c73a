"""Convolution polynomials, symmetric means, squared-difference certificates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from cxorder import (
    ArityMismatch,
    BadParameter,
    DecompositionMismatch,
    MVPolynomial,
    NotNonneg,
    NotSStep,
    OrderVerdict,
    SosDecomposition,
    Witness,
    binomial_measure,
    dirac,
    integrate_hinge,
    leq_cx,
    make_measure,
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


def test_poly_eval_builds_high_powers_without_recursion():
    # one stack frame per power overflowed the stack near exponent 1000
    assert poly_eval_measures(MVPolynomial.monomial(1, (1100,)), [dirac(1)]) == dirac(1100)


def test_poly_eval_convolves_each_power_once(monkeypatch):
    calls = []
    product_row = polynomials._product_row

    def counting(left, right):
        calls.append(1)
        return product_row(left, right)

    monkeypatch.setattr(polynomials, "_product_row", counting)
    poly = MVPolynomial.from_dict(2, {(1, 2): 1, (2, 2): 2, (0, 0): 1})
    coin = make_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert poly_eval_measures(poly, [coin, coin]) == helpers.poly_eval_measures_oracle(
        poly, [coin, coin]
    )
    # powers: the square of each variable, 1 + 1; then one product per
    # distinct non-zero exponent suffix: (1, 2) and (2, 2) at x1, and the
    # merged (2,) at x2, 2 + 1
    assert len(calls) == 5


def test_poly_eval_packs_each_power_once(monkeypatch):
    products = []
    times = polynomials._PackedPowers.times

    def counting(self, row, i, e):
        products.append((i, e))
        return times(self, row, i, e)

    monkeypatch.setattr(polynomials, "_PackedPowers", type(
        "Counting", (polynomials._PackedPowers,), {"times": counting}
    ))
    monkeypatch.setattr(polynomials, "_product_row", helpers.refuse("_product_row"))
    poly = MVPolynomial.from_dict(2, {(1, 2): 1, (2, 2): 2, (0, 0): 1})
    coin = make_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    pos_scale, weight_scale, rows = polynomials._measure_powers([coin, coin], 4, [True] * 2)
    powers = polynomials._PackedPowers(rows.rows)  # packed, though the rule keeps coins as dicts
    assert polynomials._eval_ints(poly, powers, weight_scale) == (
        16, {0: 20, 1: 14, 2: 18, 3: 10, 4: 2}
    )
    # the same products as the dict rows: one per distinct non-zero
    # exponent suffix, and every power up to 2 built once
    assert sorted(products) == [(0, 1), (0, 2), (1, 2)]
    assert [sorted(p) for p in powers.powers] == [[1, 2], [1, 2]]


def test_poly_eval_on_many_variables_without_recursion():
    # one level per variable: a recursion over the variables would overflow
    poly = MVPolynomial.monomial(1500, (1,) * 1500)
    assert poly_eval_measures(poly, [dirac(1)] * 1500) == dirac(1500)


def test_poly_eval_span_budget_is_checked_before_any_power(monkeypatch):
    # the dict rows and the packed ones, which pack no row before the check
    for name in ("_product_row", "_power", "_repack", "_pack", "_dense"):
        monkeypatch.setattr(polynomials, name, helpers.refuse(name))
    lattice = make_measure([(x, 1) for x in range(3000)])
    assert _powers_type([lattice], 2) is polynomials._PackedPowers
    with pytest.raises(BadParameter):
        poly_eval_measures(MVPolynomial.monomial(1, (2,)), [lattice])
    coin = make_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    three = make_measure([(0, 1), (1, 1), (5, 1)])
    poly = MVPolynomial.from_dict(2, {(1, 0): 1, (1, 1024): 1})  # span 1 + 2 * 1024
    with pytest.raises(BadParameter) as err:
        poly_eval_measures(poly, [coin, three])
    assert str(err.value) == "monomial (1, 1024) has span 2049, which exceeds MAX_POLY_SPAN = 2048"


def test_poly_eval_work_budget_is_checked_before_any_power(monkeypatch):
    # x1^43 x2^43 on two binomials of degree 12 runs on packed rows, x1^1449
    # on a coin on dict rows; both are within MAX_POLY_SPAN
    for name in ("_product_row", "_power", "_repack", "_pack", "_dense"):
        monkeypatch.setattr(polynomials, name, helpers.refuse(name))
    low, high = binomial_measure(12, Fraction(1, 16)), binomial_measure(12, Fraction(3, 16))
    assert _powers_type([low, high], 86) is polynomials._PackedPowers
    with pytest.raises(BadParameter) as err:
        poly_eval_measures(MVPolynomial.monomial(2, (43, 43)), [low, high])
    assert str(err.value) == (
        "the polynomial has terms of span 1032 on 4214-bit weights, work 4348848,"
        " which exceeds MAX_POLY_WORK = 4194304"
    )
    coin = binomial_measure(1, Fraction(1, 2))
    with pytest.raises(BadParameter, match="work 4199202, which exceeds MAX_POLY_WORK"):
        poly_eval_measures(MVPolynomial.monomial(1, (1449,)), [coin])


@pytest.mark.parametrize("exponent, bits_of_p", [(1448, 1), (64, 1023)], ids=["coin", "wide-weights"])
def test_poly_eval_work_budget_boundary(exponent, bits_of_p):
    # x1^e on binomial(1, 1/2^k): span e, bits e * (k + 1); the work of
    # 1448 * 2896 and of 64 * 64 * 1024 = 2^22 is admitted, one more
    # exponent is not
    mu = binomial_measure(1, Fraction(1, 2**bits_of_p))
    power = poly_eval_measures(MVPolynomial.monomial(1, (exponent,)), [mu])
    assert len(power.atoms) == exponent + 1
    assert power.mass == 1
    with pytest.raises(BadParameter, match="exceeds MAX_POLY_WORK"):
        poly_eval_measures(MVPolynomial.monomial(1, (exponent + 1,)), [mu])


def test_a_chain_is_held_to_its_own_work_budget():
    # the one term x1^1449 on a coin has poly-eval work over MAX_POLY_WORK;
    # the chain's work, 1449 * 2898, is within MAX_CHAIN_WORK
    coin = binomial_measure(1, Fraction(1, 2))
    assert muirhead_cx_check((1449,), (1449,), [coin]) == OrderVerdict(True)


def test_poly_eval_span_budget_boundary():
    # a zero measure and a point mass count one step per unit of exponent
    poly = MVPolynomial.from_dict(2, {(2047, 1): 1})
    assert poly_eval_measures(poly, [dirac(1), make_measure([])]).is_zero
    with pytest.raises(BadParameter):
        poly_eval_measures(MVPolynomial.monomial(2, (2048, 1)), [dirac(1), dirac(0)])


_poly_terms = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3).map(tuple),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
    max_size=4,
)
_poly_measures = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5),
    ),
    max_size=4,
).map(make_measure)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    _poly_terms,
    st.lists(_poly_measures, min_size=3, max_size=3),
)
@example(1, {(0, 0, 0): Fraction(3, 2)}, [make_measure([(1, 1)])] * 3)  # constant
@example(2, {}, [make_measure([(1, 1)])] * 3)  # empty polynomial
def test_poly_eval_matches_the_convolve_loop_oracle(arity, terms, measures):
    poly = MVPolynomial.from_dict(arity, {e[:arity]: c for e, c in terms.items()})
    assert poly_eval_measures(poly, measures[:arity]) == helpers.poly_eval_measures_oracle(
        poly, measures[:arity]
    )


@pytest.mark.parametrize("t", [
    t for size in (1, 2, 3)
    for t in itertools.combinations_with_replacement(range(7), size) if sum(t) <= 6
])
def test_poly_eval_w_matches_the_oracle_on_binomials(t):
    measures = [binomial_measure(3, Fraction(k, 8)) for k in (1, 3, 6)][: len(t)]
    poly = w_polynomial(t)
    assert poly_eval_measures(poly, measures) == helpers.poly_eval_measures_oracle(poly, measures)


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
    assert product == helpers.convolve_oracle(
        poly_eval_measures(a, measures), poly_eval_measures(b, measures)
    )
    total = poly_eval_measures(a + b, measures)
    assert total == helpers.mix(
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


def test_muirhead_cx_reports_a_failing_step_as_the_oracle_does(monkeypatch):
    # the chain walked from q down to p, so that its steps fail
    forward = polynomials.s_step_chain
    monkeypatch.setattr(polynomials, "s_step_chain", lambda p, q: forward(p, q)[::-1])
    measures = [binomial_measure(2, Fraction(k, 4)) for k in (1, 2, 3)]
    p, q = (1, 1, 1), (3, 0, 0)
    verdict = muirhead_cx_check(p, q, measures)
    # the first reversed step, W^(3,0,0) against W^(2,1,0), fails at the
    # hinge (x - 1)+
    assert verdict == OrderVerdict(
        False, Witness("step", ((3, 0, 0), (2, 1, 0), Fraction(1)), Fraction(-505, 12288))
    )
    assert verdict == helpers.muirhead_cx_check_oracle(p, q, measures, chain=forward(p, q)[::-1])


_small_measures = st.lists(
    st.tuples(st.integers(min_value=-2, max_value=3), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=3,
).map(make_measure)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=3),
    st.data(),
    st.booleans(),
)
def test_muirhead_cx_matches_the_loop_oracle(p, data, reverse):
    # q gathers p's total into fewer entries, so p is majorized by q
    total, arity = sum(p), len(p)
    head = data.draw(st.integers(min_value=max(p), max_value=total), label="head")
    q = (head, total - head) + (0,) * (arity - 2)
    assume(sorted_desc(p) != sorted_desc(q))
    drawn = data.draw(st.lists(_small_measures, min_size=arity, max_size=arity))
    measures = [m.scaled(drawn[0].mass / m.mass) for m in drawn]
    forward = polynomials.s_step_chain
    chain = forward(p, q)[::-1] if reverse else None
    with pytest.MonkeyPatch.context() as patch:
        if reverse:
            patch.setattr(polynomials, "s_step_chain", lambda a, b: forward(a, b)[::-1])
        verdict = muirhead_cx_check(p, q, measures)
    assert verdict == helpers.muirhead_cx_check_oracle(p, q, measures, chain=chain)


# -- packed rows and the selection rule ---------------------------------------


def _support(atoms, span, start):
    """``atoms`` >= 2 positions from ``start`` to ``start + span``, both
    ends included, for span >= atoms - 1."""
    return [*range(start, start + atoms - 1), start + span]


def _powers_type(measures, degree):
    return type(polynomials._measure_powers(measures, degree, [True] * len(measures))[2])


@pytest.mark.parametrize("atoms", [2, 3, 5, 24, 48])
def test_rows_are_packed_while_dense_and_large_enough(atoms):
    # packed iff span + 1 <= 2 atoms and degree * atoms >= 48, degree >= 2
    degree = max(-(-48 // atoms), 2)

    def powers(span, degree):
        return _powers_type([make_measure([(x, 1) for x in _support(atoms, span, -7)])], degree)

    assert powers(2 * atoms - 1, degree) is polynomials._PackedPowers
    assert powers(atoms - 1, degree) is polynomials._PackedPowers
    assert powers(2 * atoms, degree) is polynomials._DictPowers
    assert powers(atoms - 1, degree - 1) is polynomials._DictPowers


def test_a_dirac_is_packed_from_degree_48_and_a_used_zero_measure_never():
    assert _powers_type([dirac(-2)], 48) is polynomials._PackedPowers
    assert _powers_type([dirac(-2)], 47) is polynomials._DictPowers
    assert _powers_type([dirac(-2), make_measure([])], 48) is polynomials._DictPowers
    # a measure the polynomial leaves out does not count
    pos_scale, weight_scale, powers = polynomials._measure_powers(
        [dirac(-2), make_measure([])], 48, [True, False]
    )
    assert type(powers) is polynomials._PackedPowers


def test_degree_one_keeps_the_dict_rows():
    # a mixture of the measures multiplies nothing: packing would only copy
    lattice = make_measure([(x, 1) for x in range(100)])
    assert _powers_type([lattice], 1) is polynomials._DictPowers
    assert _powers_type([lattice], 2) is polynomials._PackedPowers


@st.composite
def _rule_measures(draw):
    """A measure whose scaled support sits just inside or just outside the
    density bound span + 1 <= 2 atoms of the packing rule, at negative
    and positive positions; or the zero measure, or a Dirac.  With 6 to
    12 atoms, the degrees 1 to 8 of ``_mixed_terms`` fall on both sides
    of its size bound degree * atoms >= 48."""
    kind = draw(st.sampled_from(["inside", "outside", "zero", "dirac"]))
    if kind == "zero":
        return make_measure([])
    start = draw(st.integers(min_value=-30, max_value=30))
    if kind == "dirac":
        return make_measure([(start, draw(st.integers(min_value=1, max_value=5)))])
    atoms = draw(st.integers(min_value=2, max_value=12))
    span = 2 * atoms - 1 if kind == "inside" else 2 * atoms + draw(st.integers(0, 3))
    weights = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)
    return make_measure([(x, draw(weights)) for x in _support(atoms, span, start)])


# eight atoms on 15 positions: packed from degree 6 on
_LATTICE = make_measure([(x, Fraction(k + 1, 6)) for k, x in enumerate(_support(8, 14, -5))])

_mixed_terms = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2).map(tuple),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_mixed_terms, st.lists(_rule_measures(), min_size=2, max_size=2))
@example({(3, 0): 1, (1, 1): Fraction(1, 2), (0, 0): 2}, [dirac(-4), make_measure([])])
@example({(4, 2): 1, (0, 1): Fraction(1, 3)}, [_LATTICE, make_measure([(-3, 1), (12, 2)])])
@example({(4, 2): 1, (0, 1): Fraction(1, 3)}, [_LATTICE, _LATTICE])  # packed
@example({(4, 1): 1, (0, 1): Fraction(1, 3)}, [_LATTICE, _LATTICE])  # degree 5 * 8 < 48
def test_poly_eval_matches_the_oracle_on_both_sides_of_the_packing_rule(terms, measures):
    # mixed degrees, so the terms meet on the unit weight_scale^top
    poly = MVPolynomial.from_dict(2, terms)
    assert poly_eval_measures(poly, measures) == helpers.poly_eval_measures_oracle(poly, measures)
    # and both kinds of rows, whichever the rule picks
    pos_scale, weight_scale, powers = polynomials._measure_powers(measures, 0, [False] * 2)
    if all(powers.rows):  # packed rows need an atom in every measure
        assert polynomials._eval_ints(
            poly, polynomials._PackedPowers(powers.rows), weight_scale
        ) == polynomials._eval_ints(poly, polynomials._DictPowers(powers.rows), weight_scale)


_binomials = st.builds(
    binomial_measure,
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2).map(tuple),
        st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
        min_size=1,
        max_size=3,
    ),
    st.lists(_binomials, min_size=2, max_size=2),
)
def test_poly_eval_matches_the_oracle_on_binomials(terms, measures):
    poly = MVPolynomial.from_dict(2, terms)
    assert poly_eval_measures(poly, measures) == helpers.poly_eval_measures_oracle(poly, measures)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=3),
    st.integers(min_value=1, max_value=6),
    st.lists(st.sampled_from([Fraction(k, 8) for k in range(9)]), min_size=3, max_size=3),
    st.integers(min_value=-5, max_value=5),
)
def test_muirhead_cx_matches_the_oracle_on_binomials(p, degree, xs, shift):
    # binomials of one degree are pairwise compatible; the shift moves
    # every support, negative positions included
    q = (sum(p),) + (0,) * (len(p) - 1)
    measures = [
        make_measure([(x + shift, w) for x, w in binomial_measure(degree, y).atoms])
        for y in xs[: len(p)]
    ]
    assert muirhead_cx_check(p, q, measures) == helpers.muirhead_cx_check_oracle(p, q, measures)


def test_packed_rows_keep_their_offsets_far_from_zero():
    # padded from position 0, this row would need 10^12 slots
    far = make_measure([(10**12, Fraction(1, 2)), (10**12 + 1, Fraction(1, 2))])
    cube = MVPolynomial.monomial(1, (3,))
    expected = {3 * 10**12 + k: c for k, c in enumerate((1, 3, 3, 1))}
    assert poly_eval_measures(cube, [far]) == make_measure(
        [(s, Fraction(c, 8)) for s, c in expected.items()]
    )
    # the rule keeps x1^3 on two atoms on the dict rows; on packed ones
    pos_scale, weight_scale, powers = polynomials._measure_powers([far], 48, [True])
    assert type(powers) is polynomials._PackedPowers
    assert powers.offsets == [10**12]
    assert polynomials._eval_ints(cube, powers, weight_scale) == (8, expected)
    power = poly_eval_measures(MVPolynomial.monomial(1, (48,)), [far])
    assert power.atoms[0] == (48 * 10**12, Fraction(1, 2**48))


def test_sparse_supports_take_the_dict_rows(monkeypatch):
    # {0, 1, 10^9}: a dense row of 10^9 + 1 slots for three atoms, at a
    # degree the size bound would pack
    monkeypatch.setattr(polynomials, "_PackedPowers", helpers.refuse("_PackedPowers"))
    third = Fraction(1, 3)
    wide = make_measure([(0, third), (1, third), (10**9, third)])
    power = poly_eval_measures(MVPolynomial.monomial(1, (16,)), [wide])
    assert power == helpers.poly_eval_measures_oracle(MVPolynomial.monomial(1, (16,)), [wide])


@pytest.mark.parametrize("support", [(0, 63), (0, 10**9), (5, 68, 131)])
def test_supports_on_a_coarse_grid_pack_as_their_steps_do(support):
    # positions a multiple of one step g past the first atom pack with one
    # slot per g: {0, 63} as {0, 1}, {0, 10^9} as {0, 1}
    mu = make_measure([(x, Fraction(1, len(support))) for x in support])
    powers = polynomials._measure_powers([mu], 256, [True], homogeneous=True)[2]
    assert type(powers) is polynomials._PackedPowers
    poly = MVPolynomial.monomial(1, (256,))
    step = support[1] - support[0]
    unit = make_measure([(k, Fraction(1, len(support))) for k in range(len(support))])
    power = poly_eval_measures(poly, [mu])
    assert power == make_measure([(256 * support[0] + step * x, w)
                                  for x, w in poly_eval_measures(poly, [unit]).atoms])


def test_a_grid_step_respects_every_offset_of_the_polynomial():
    # x1^2 + x2^2 on {0, 63} and {1, 64}: the two terms start at 0 and 2, so
    # they share no grid of step 63; x1^2 + x1 on {1, 64}: terms at 2 and 1
    coarse, shifted = (make_measure([(x, H), (x + 63, H)]) for x in (0, 1))
    sums = MVPolynomial.from_dict(2, {(24, 0): 1, (0, 24): 1})
    mixed = MVPolynomial.from_dict(1, {(24,): 1, (23,): 1})
    for poly, measures in ((sums, [coarse, shifted]), (mixed, [shifted])):
        assert poly_eval_measures(poly, measures) == helpers.poly_eval_measures_oracle(
            poly, measures
        )



# eight atoms at odd halves: a sum of an even number of them is an int
_HALVES = make_measure([(Fraction(2 * k + 1, 2), Fraction(k + 1, 36)) for k in range(8)])


@pytest.mark.parametrize("poly, measures, rows", [
    (MVPolynomial.zero(2), [_LATTICE, dirac(1)], "_DictPowers"),  # no term: empty row
    (MVPolynomial.monomial(2, (2, 1)), [_HALVES, make_measure([])], "_DictPowers"),  # empty row
    (MVPolynomial.monomial(1, (2,), 3), [_HALVES], "_DictPowers"),
    (MVPolynomial.from_dict(2, {(3, 0): 1, (1, 1): H}), [_HALVES, dirac(Fraction(-3, 2))],
     "_DictPowers"),
    (MVPolynomial.monomial(1, (6,), Fraction(1, 3)), [_HALVES], "_PackedPowers"),
    (MVPolynomial.from_dict(2, {(4, 2): 1, (0, 1): Fraction(1, 3)}), [_LATTICE, _LATTICE],
     "_PackedPowers"),
])
def test_poly_eval_returns_its_least_int_form(monkeypatch, poly, measures, rows):
    # the result is built on its int row, reduced to its least form, and
    # builds no Fraction view until one is read
    other = {"_DictPowers": "_PackedPowers", "_PackedPowers": "_DictPowers"}[rows]
    monkeypatch.setattr(polynomials, other, helpers.refuse(other))
    result = poly_eval_measures(poly, measures)
    assert "atoms" not in result.__dict__
    oracle = helpers.poly_eval_measures_oracle(poly, measures)
    assert result._int_form() == oracle._int_form()  # the oracle's form is least
    assert result == oracle

# -- the chain budget ------------------------------------------------------------


def test_chain_budget_boundary():
    # admitted: 876 terms of span 180 on 210-bit weights, work 33,112,800;
    # refused: 396 terms of span 285 on 300-bit weights, work 33,858,000
    # (a binomial:n,1/2 weighs 2^n on the common unit, so bits(S) = n + 1)
    admitted = ((6,) * 5, (30, 0, 0, 0, 0), [binomial_measure(6, H)] * 5)
    refused = ((3,) * 5, (15, 0, 0, 0, 0), [binomial_measure(19, H)] * 5)
    for p, q, measures in (admitted, refused):
        chain = polynomials.s_step_chain(p, q)
        terms = sum(map(polynomials.arrangement_count, chain))
        degree = len(measures[0].atoms) - 1
        work = terms * sum(p) * degree * sum(p) * (2**degree).bit_length()
        assert (work <= polynomials.MAX_CHAIN_WORK) == (p == admitted[0])
    assert muirhead_cx_check(*admitted).holds
    with pytest.raises(BadParameter) as err:
        muirhead_cx_check(*refused)
    assert str(err.value) == (
        "the chain from (3, 3, 3, 3, 3) to (15, 0, 0, 0, 0) evaluates 396 terms of span 285"
        " on 300-bit weights, work 33858000, which exceeds MAX_CHAIN_WORK = 33554432"
    )


def test_chain_budget_is_checked_before_any_product(monkeypatch):
    # nothing is packed or profiled before the refusal
    for name in ("_product_row", "_power", "_repack", "_pack", "_dense", "_pairwise_profiles_nonneg"):
        monkeypatch.setattr(polynomials, name, helpers.refuse(name))
    coins = [binomial_measure(1, H), binomial_measure(1, Fraction(1, 3))]
    with pytest.raises(BadParameter):
        muirhead_cx_check((200, 200), (400, 0), coins)
