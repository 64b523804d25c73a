"""Measure algebra: construction, moments, convolution, CDF differences."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from cxorder import measures
from cxorder import (
    MassMismatch,
    MVPolynomial,
    NegativeWeight,
    ParseError,
    as_rational,
    cdf_diff,
    convolve,
    dirac,
    integrate_hinge,
    make_measure,
    measure_from_json,
    measure_to_json,
    mix,
    poly_eval_measures,
    step_function,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_make_measure_singleton():
    assert make_measure([(0, 1)]).atoms == ((0, 1),)


def test_make_measure_merges_duplicates():
    mu = make_measure([(0, H), (0, Q), (1, Q)])
    assert mu.atoms == ((0, Fraction(3, 4)), (1, Q))


def test_make_measure_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        make_measure([(1, -1)])


def test_make_measure_drops_zero_weights():
    assert make_measure([(0, 0), (1, 1)]).atoms == ((1, 1),)


def test_moments_dirac():
    mu = dirac(0)
    assert (mu.mass, mu.mean) == (1, 0)


def test_moments_two_point():
    mu = make_measure([(0, H), (1, H)])
    assert (mu.mass, mu.mean) == (1, H)


def test_moments_binomial_two_half():
    # direct sum over atoms: 1/4*0 + 1/2*1 + 1/4*2 = 1
    b2 = make_measure([(0, Q), (1, H), (2, Q)])
    assert (b2.mass, b2.mean) == (1, 1)


def test_moments_zero_measure():
    mu = make_measure([])
    assert (mu.mass, mu.mean) == (0, 0)


def test_convolve_diracs():
    assert convolve(dirac(Fraction(3, 2)), dirac(-1)) == dirac(H)


def test_convolve_binomial_expansion():
    coin = make_measure([(0, H), (1, H)])
    assert convolve(coin, coin).atoms == ((0, Q), (1, H), (2, Q))


def test_convolve_power():
    from cxorder import dirac as point

    coin = make_measure([(0, H), (1, H)])

    def convolve_power(mu, k):  # the monomial x1^k evaluated on mu
        return poly_eval_measures(MVPolynomial.monomial(1, (k,)), [mu])

    assert convolve_power(coin, 0) == point(0)
    assert convolve_power(coin, 1) == coin
    assert convolve_power(coin, 2) == convolve(coin, coin)
    cubed = convolve_power(coin, 3)
    assert cubed.atoms == (
        (0, Fraction(1, 8)),
        (1, Fraction(3, 8)),
        (2, Fraction(3, 8)),
        (3, Fraction(1, 8)),
    )
    with pytest.raises(ValueError):
        convolve_power(coin, -1)


def test_convolve_matches_direct_atom_pair_sum():
    # independent oracle: accumulate every atom pair by hand
    mu = make_measure([(-1, H), (2, Fraction(1, 3))])
    nu = make_measure([(0, Q), (1, Fraction(2))])
    table = {}
    for x, wx in mu.atoms:
        for y, wy in nu.atoms:
            table[x + y] = table.get(x + y, Fraction(0)) + wx * wy
    assert convolve(mu, nu) == make_measure(table.items())


# integer and fractional positions of both signs, weights with large and
# unrelated denominators, so the common scales of convolve are non-trivial
_positions = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
)
_weights = st.fractions(min_value=Fraction(1, 997), max_value=50, max_denominator=997)
_scaled_measures = st.lists(st.tuples(_positions, _weights), max_size=8).map(make_measure)


@settings(max_examples=300)
@given(_scaled_measures, _scaled_measures)
def test_convolve_matches_literal_oracle(mu, nu):
    out = convolve(mu, nu)
    assert out.atoms == helpers.convolve_oracle(mu, nu).atoms
    assert all(type(x) is Fraction and type(w) is Fraction for x, w in out.atoms)


@settings(max_examples=300)
@given(st.lists(st.one_of(_positions, _weights, st.sampled_from([Fraction(1, 10**40 + k) for k in range(3)]))))
@example([])
@example([Fraction(3), Fraction(-5), Fraction(7)])
@example([H, Q, H, Fraction(-3, 4), Q])
def test_scaled_ints_match_the_per_entry_oracle(values):
    # repeated, distinct and wide denominators, ints and the empty list
    scale, ints = measures._scaled_ints(values)
    assert (scale, ints) == helpers.scaled_ints_oracle(values)
    assert all(type(v) is int for v in ints)


def test_mix_basics():
    mu = make_measure([(0, H), (2, H)])
    assert mix([H, H], [dirac(0), dirac(2)]) == mu
    assert mix([1], [mu]) == mu


def test_mix_average_of_squares():
    mu, nu = dirac(0), make_measure([(0, H), (1, H)])
    averaged = mix([H, H], [convolve(mu, mu), convolve(nu, nu)])
    assert averaged == make_measure([(0, Fraction(5, 8)), (1, Q), (2, Fraction(1, 8))])


def test_mix_rejects_negative_coefficient():
    with pytest.raises(NegativeWeight):
        mix([-1], [dirac(0)])


def test_integrate_hinge_examples():
    assert integrate_hinge(dirac(1), 0) == 1
    assert integrate_hinge(make_measure([(0, H), (2, H)]), 1) == H
    b2 = make_measure([(0, Q), (1, H), (2, Q)])
    assert integrate_hinge(b2, 1) == Q  # 1/4 * (2 - 1)


def test_cdf_diff_identical_measures_is_zero():
    mu = make_measure([(0, H), (1, H)])
    assert cdf_diff(mu, mu).is_zero


def test_cdf_diff_simple_step():
    h = cdf_diff(dirac(0), make_measure([(0, H), (1, H)]))
    assert h.breakpoints == (0, 1)
    assert h.values == (H,)
    assert h.value(H) == H
    assert h.value(1) == 0


def test_cdf_diff_three_levels():
    h = cdf_diff(
        make_measure([(0, H), (3, H)]), make_measure([(1, H), (2, H)])
    )
    assert h.breakpoints == (0, 1, 2, 3)
    assert h.values == (H, 0, -H)


def test_cdf_diff_needs_equal_masses():
    with pytest.raises(MassMismatch):
        cdf_diff(dirac(0), make_measure([(0, 2)]))


def test_step_function_canonicalisation():
    s = step_function([0, 1, 2, 3, 4], [0, 1, 1, 0])
    assert s.breakpoints == (1, 3)
    assert s.values == (1,)


@given(helpers.measures, helpers.measures, helpers.measures)
def test_convolution_commutative_associative(a, b, c):
    assert convolve(a, b) == convolve(b, a)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@given(helpers.measures, helpers.measures)
def test_convolution_moment_homomorphism(a, b):
    ab = convolve(a, b)
    assert ab.mass == a.mass * b.mass
    assert ab.mean == b.mass * a.mean + a.mass * b.mean


@given(helpers.nonempty_measures)
def test_hinge_tail_identities(mu):
    mass, mean = mu.mass, mu.mean
    low = min(mu.positions()) - 1
    high = max(mu.positions())
    assert integrate_hinge(mu, low) == mean - low * mass
    assert integrate_hinge(mu, high) == 0


@given(helpers.nonempty_measures, helpers.rationals)
def test_hinge_matches_brute_force(mu, a):
    assert integrate_hinge(mu, a) == helpers.hinge_integral_brute(mu, a)


@given(helpers.measures, helpers.measures)
def test_cdf_diff_antisymmetric(a, b):
    b = b.scaled(a.mass / b.mass) if b.mass != 0 and a.mass != 0 else a
    h, g = cdf_diff(a, b), cdf_diff(b, a)
    assert g.breakpoints == h.breakpoints
    assert g.values == tuple(-v for v in h.values)
    probes = set(h.breakpoints) | {Fraction(0)}
    for x in probes:
        assert h.value(x) == a.cdf(x) - b.cdf(x)


@given(helpers.measures, helpers.nonempty_measures, helpers.measures)
@example(  # both share 0 and 1; the weights at 1 cancel
    make_measure([(0, 1), (1, H)]), make_measure([(0, H), (1, H), (2, H)]), make_measure([])
)
def test_cdf_diff_is_canonical(a, b, shared):
    # atoms of ``shared`` sit in both measures with equal weights and cancel
    b = b.scaled(a.mass / b.mass)
    mu, nu = mix((1, 1), (a, shared)), mix((1, 1), (b, shared))
    h = cdf_diff(mu, nu)
    assert h == step_function(h.breakpoints, h.values)
    assert all(type(v) is Fraction for v in h.values)
    for x in set(mu.positions()) | set(nu.positions()):
        assert h.value(x) == mu.cdf(x) - nu.cdf(x)


def test_measure_json_round_trip():
    mu = make_measure([(Fraction(-1, 3), Fraction(2, 7)), (4, 1)])
    assert measure_from_json(measure_to_json(mu)) == mu


def test_measure_json_rejects_floats():
    from cxorder import ParseError

    with pytest.raises(ParseError):
        measure_from_json('{"atoms": [{"x": 0.5, "w": 1}]}')


@pytest.mark.parametrize("text", ['{"atoms": 5}', '{"atoms": null}', '{"atoms": "0"}', "[]"])
def test_measure_json_needs_an_atom_list(text):
    from cxorder import ParseError

    with pytest.raises(ParseError) as info:
        measure_from_json(text)
    assert str(info.value) == 'measure file must be an object {"atoms": [...]}'


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_as_rational_exponent_budget_boundary(sign):
    # "1e1000000000" would make Fraction build 10^1000000000 (not run here);
    # an exponent above MAX_EXPONENT is refused before Fraction sees the text,
    # one of more digits than Python reads into an int included
    limit = measures.MAX_EXPONENT
    assert limit == 4300
    at_limit = as_rational(f"1e{sign}{limit}")
    assert at_limit == Fraction(10) ** (-limit if sign == "-" else limit)
    assert as_rational(f"3E{sign}0_0{limit}") == 3 * at_limit
    for text in (f"1e{sign}{limit + 1}", f"2.5E{sign}{limit + 1}", f"1e{sign}" + "9" * 5000):
        with pytest.raises(ValueError, match="MAX_EXPONENT = 4300"):
            as_rational(text)
    with pytest.raises(ParseError, match="atom #0: .*MAX_EXPONENT"):
        measure_from_json(f'{{"atoms": [{{"x": "1e{sign}{limit + 1}", "w": "1"}}]}}')


def test_as_rational_returns_a_fraction_unchanged():
    q = Fraction(-7, 3)
    assert as_rational(q) is q
    for value, expected in ((5, Fraction(5)), ("-3/4", Fraction(-3, 4)), ("1e-3", Fraction(1, 1000)),
                            (True, Fraction(1)), (False, Fraction(0))):
        converted = as_rational(value)
        assert converted == expected and type(converted) is Fraction
    with pytest.raises(TypeError, match="refusing float"):
        as_rational(0.5)


def _str_without_cap(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=-10**6, max_value=10**6),
       st.booleans())
def test_int_text_prints_ints_of_any_size(digits, offset, negative):
    n = 10**digits + offset
    n = -n if negative else n
    assert measures._int_text(n) == _str_without_cap(n)


def test_format_rational_prints_over_4300_digits():
    big = 10**4300  # 4301 digits
    assert measures.format_rational(Fraction(-big - 1, 3)) == "-1" + "0" * 4299 + "1/3"
    assert measures.format_rational(Fraction(1, big)) == "1/1" + "0" * 4300
    assert measures.format_rational(Fraction(7 * big**3)) == "7" + "0" * 12900
