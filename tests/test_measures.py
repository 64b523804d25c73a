"""Measure algebra: construction, moments, the convolution kernel, and the
CDF differences and mixtures of the test oracles."""

import math
import random
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
    dirac,
    integrate_hinge,
    make_measure,
    measure_from_json,
    measure_to_json,
    poly_eval_measures,
)
from helpers import cdf_diff, mix

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


def convolve(mu, nu):
    """mu*nu by the kernel ``measures._product_row``, on the rows that
    rasa_direct forms: the positions of both measures over one common
    denominator, the weights of each over its own."""
    scale, xs = measures._scaled_ints(mu.positions() + nu.positions())
    u, a = measures._scaled_ints([w for _, w in mu.atoms])
    v, b = measures._scaled_ints([w for _, w in nu.atoms])
    n = len(mu.atoms)
    row = measures._product_row(zip(xs[:n], a), list(zip(xs[n:], b)))
    return make_measure((Fraction(s, scale), Fraction(w, u * v)) for s, w in row.items())


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
    assert convolve_power(coin, 2) == helpers.convolve_oracle(coin, coin)
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
# unrelated denominators, so the common scales of the rows are non-trivial
_positions = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
)
_weights = st.fractions(min_value=Fraction(1, 997), max_value=50, max_denominator=997)
_scaled_measures = st.lists(st.tuples(_positions, _weights), max_size=8).map(make_measure)


@settings(max_examples=300)
@given(_scaled_measures, _scaled_measures)
def test_convolve_matches_literal_oracle(mu, nu):
    assert convolve(mu, nu).atoms == helpers.convolve_oracle(mu, nu).atoms


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


# rows of (position, weight) ints as the kernels square them: repeated
# positions, and weights of both signs that may cancel
_int_rows = st.lists(st.tuples(st.integers(-20, 20), st.integers(-50, 50)), max_size=8)


@given(_int_rows, _int_rows, _int_rows)
def test_convolution_commutative_associative(a, b, c):
    product = measures._product_row
    assert product(a, b) == product(b, a)
    assert product(product(a, b).items(), c) == product(a, product(b, c).items())


@given(_int_rows, _int_rows)
def test_convolution_moment_homomorphism(a, b):
    def mass(row):
        return sum(w for _, w in row)

    def mean(row):
        return sum(x * w for x, w in row)

    ab = measures._product_row(a, b).items()
    assert mass(ab) == mass(a) * mass(b)
    assert mean(ab) == mass(b) * mean(a) + mass(a) * mean(b)


_packable_rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(st.integers(min_value=0, max_value=2 ** (8 * size) - 1), max_size=12).map(
            lambda row: row + [1]  # the row ends at a non-zero slot
        ),
    )
)


@given(_packable_rows, st.integers(min_value=0, max_value=3))
def test_pack_unpack_and_repack_keep_every_slot(sized, extra):
    size, row = sized
    packed = measures._pack(row, size)
    assert packed == sum(v << (8 * size * k) for k, v in enumerate(row))
    assert measures._unpack(packed, size) == row
    assert measures._repack(packed, size, size + extra) == measures._pack(row, size + extra)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=10),
       st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=10))
def test_a_packed_product_is_the_convolution(a, b):
    # slots as wide as the largest weight sum hold every entry and coefficient
    size = (max(sum(a) * sum(b), sum(a), sum(b)).bit_length() + 7) // 8 or 1
    product = measures._unpack(measures._pack(a, size) * measures._pack(b, size), size)
    row = measures._product_row(enumerate(a), list(enumerate(b)))
    assert product == [row.get(s, 0) for s in range(len(product))]
    assert not any(w for s, w in row.items() if s >= len(product))


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
    levels = (0,) + h.values + (0,)
    assert h.is_zero or all(before != after for before, after in zip(levels, levels[1:]))
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


# A measure file's values are fraction strings and int literals.  Most
# drawn texts carry one flaw: a value that json refuses, reads as a float or
# reads as something no measure file holds (floats, the constants json reads
# as floats, bad escapes, a raw control character, an int over the 4300
# digits Python reads, nesting deeper than the parser's recursion limit), a
# space json does not skip, a BOM, a cut, or data after the value.
_JSON_VALUES = st.one_of(
    st.fractions(max_denominator=50).map(lambda q: f'"{q}"'),
    st.integers(-10**30, 10**30).map(str),
)
_ODD_JSON_VALUES = st.sampled_from([
    "0.5", "-1e3", "2E+1", "NaN", "Infinity", "-Infinity", "null", "true", "[]", "{}",
    '"1/0"', '"\\q"', '"\\u0031/2"', '"\\ud800"', '"\x01"', '"1e-5000"', "01", "-",
    "1" * 4301, "[" * 1200 + "]" * 1200,
])
_JSON_GAPS = st.sampled_from(["", "", " ", "\t", "\n", "\r", " \r\n\t"])  # what json skips
_ODD_JSON_GAPS = st.sampled_from(["\x0b", "\xa0", "\x0c", "\u2028"])


@st.composite
def _measure_texts(draw):
    values = [draw(_JSON_VALUES) for _ in range(2 * draw(st.integers(0, 4)))]
    flaw = draw(st.sampled_from([None, None, "value", "gap", "bom", "cut", "tail"]))
    if flaw == "value" and values:
        values[draw(st.integers(0, len(values) - 1))] = draw(_ODD_JSON_VALUES)
    entries = [f'{{~"x"~:~{x}~,~"w"~:~{w}~}}' for x, w in zip(values[::2], values[1::2])]
    first, *pieces = ('~{~"atoms"~:~[~' + "~,~".join(entries) + "~]~}~").split("~")
    gaps = [draw(_JSON_GAPS) for _ in pieces]
    if flaw == "gap":
        gaps[draw(st.integers(0, len(gaps) - 1))] = draw(_ODD_JSON_GAPS)
    text = first + "".join(gap + piece for gap, piece in zip(gaps, pieces))
    if flaw == "bom":
        text = "\ufeff" + text
    if flaw == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    if flaw == "tail":
        text += draw(st.sampled_from([" x", "{}", "]", "\x00", "null"]))
    return text


def _outcome(read, text):
    """("ok", repr of the value), or the type and text of what it raised:
    repr, because NaN != NaN."""
    try:
        return "ok", repr(read(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_measure_texts(), st.text(max_size=40)))
def test_measure_file_reader_matches_json_loads(text):
    import json

    scanned = measures._scan_json(text)
    if scanned is not measures._UNSCANNED:  # read without json: json.loads reads the same
        assert _outcome(lambda t: scanned, text) == _outcome(
            lambda t: json.loads(t, parse_float=measures._reject_float,
                                 parse_int=measures._read_int), text)
    assert _outcome(measure_from_json, text) == _outcome(helpers.measure_from_json_oracle, text)


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


def test_as_rational_digit_budget_boundary():
    # Python's int() refuses more than 4300 digits with advice to raise its
    # limit; a longer run of digits is refused first, and a measure file's
    # int literal of that length reaches as_rational as its text
    digits = "1" * measures.MAX_EXPONENT
    assert as_rational(digits) == int(digits)
    assert as_rational("-" + digits + "/3") == Fraction(-int(digits), 3)
    assert measure_from_json(f'{{"atoms": [{{"x": -{digits}, "w": 1}}]}}') == dirac(-int(digits))
    zeros = "0" * measures.MAX_EXPONENT  # an exponent of 1 after 4300 zeros
    for text in ("1" + digits, "1/0" + digits, "0." + digits + "1", "1e" + zeros + "1", "1_" + digits):
        with pytest.raises(ValueError, match="^int literal of 4301 digits exceeds MAX_EXPONENT = 4300$"):
            as_rational(text)
    with pytest.raises(ParseError, match="^atom #1: int literal of 4301 digits exceeds"):
        measure_from_json(f'{{"atoms": [{{"x": 0, "w": 1}}, {{"x": 1{digits}, "w": 1}}]}}')


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


# -- the int form: the reader, the sweeps' draws and the measure's own view ----

_RUN = st.sampled_from([1, 4299, 4300, 4301])
_ODD_TOKENS = st.sampled_from([
    '"+3"', '"-0"', '"007/014"', '"1_000"', '"1_0/3"', '"1e-3"', '"-2.5E1"', '" 1/2 "',
    '"\\u0663"', '"\\uff13/\\uff14"', '"\\u00b2"', '"1/-2"', '"-/2"', '"1/"', '""', '"0/0"',
    '"-0/0"', '"-3/6"', '"1/2/3"', '"--1"', '"0x10"', '"1 /2"', '"-"', "true", "false", "null",
    "[]", '{"a": 1}', "-0", "1.0",
])


@st.composite
def _file_tokens(draw):
    """A position or weight of a measure file: mostly plain numbers (JSON
    ints, "p" and "p/q" strings with signs, leading zeros and q = 0), and
    what as_rational alone reads or refuses: signs, exponents, underscores,
    non-ASCII digits, runs of 4,300 digits and more, other JSON values."""
    kind = draw(st.sampled_from(["int", "ratio", "ratio", "text", "odd", "run"]))
    n = draw(st.integers(-12, 12))
    if kind == "int":
        return str(n)
    if kind == "ratio":
        return f'"{n}/{draw(st.integers(0, 12))}"'
    if kind == "text":
        return f'"{n}"'
    if kind == "odd":
        return draw(_ODD_TOKENS)
    digits = draw(st.sampled_from("1379")) * draw(_RUN)
    return draw(st.sampled_from([f'"{digits}"', f'"-1/{digits}"', f'"{digits}/7"', digits,
                                 f"-{digits}"]))


@st.composite
def _file_texts(draw):
    atoms = [(draw(_file_tokens()), draw(_file_tokens())) for _ in range(draw(st.integers(0, 6)))]
    if atoms and draw(st.booleans()):  # a position again, with its own weight
        atoms.append((atoms[0][0], draw(_file_tokens())))
    body = ", ".join(f'{{"x": {x}, "w": {w}}}' for x, w in atoms)
    return f'{{"atoms": [{body}]}}'


@settings(max_examples=500, deadline=None)
@given(_file_texts())
@example('{"atoms": [{"x": "1/2", "w": "1/3"}, {"x": "2/4", "w": "1/6"}, {"x": 3, "w": "0"}]}')
@example('{"atoms": [{"x": 1, "w": "-1/2"}, {"x": "1/0", "w": 1}]}')  # the parse error first
@example('{"atoms": [{"x": 1, "w": "-2/4"}, {"x": 2, "w": "-1"}]}')  # the first negative weight
@example('{"atoms": [{"x": "-4/6", "w": "3/9"}, {"x": "2/3", "w": "2/9"}]}')
def test_the_int_reader_matches_the_fraction_reader(text):
    read = _outcome(measure_from_json, text)
    assert read == _outcome(helpers.fraction_measure_from_json, text)
    if read[0] == "ok":
        new, old = measure_from_json(text), helpers.fraction_measure_from_json(text)
        assert new._int_form() == helpers.int_form_oracle(old) == old._int_form()
        assert new == old and hash(new) == hash(old) and new.atoms == old.atoms


@pytest.mark.parametrize("draw, oracle", [
    ("_random_measure", helpers.random_measure_draw),
    ("_random_lattice_measure", helpers.random_lattice_measure_draw),
])
def test_the_sweeps_draw_the_pairs_they_drew_through_fractions(draw, oracle):
    from cxorder import cli

    for seed in range(300):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(4):
            mu, expected = getattr(cli, draw)(new), oracle(old)
            assert mu == expected and mu._int_form() == helpers.int_form_oracle(expected)
        assert new.getstate() == old.getstate()


@settings(max_examples=200, deadline=None)
@given(helpers.measures, st.fractions(min_value=0, max_value=9, max_denominator=12))
def test_mass_mean_and_scaled_read_the_int_form(mu, factor):
    file_mu = measure_from_json(measure_to_json(mu))
    assert "atoms" not in file_mu.__dict__
    for m in (mu, file_mu):
        assert m.mass == sum((w for _, w in mu.atoms), Fraction(0))
        assert m.mean == sum((x * w for x, w in mu.atoms), Fraction(0))
        scaled = m.scaled(factor)
        assert scaled == make_measure([(x, factor * w) for x, w in mu.atoms])
        assert scaled._int_form() == helpers.int_form_oracle(scaled)
    assert "atoms" not in file_mu.__dict__  # no Fraction view was needed


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 4)), max_size=8),
       st.integers(1, 12), st.integers(1, 12))
@example([(1, 0), (2, 1)], 2, 1)  # the position 1/2 drops: the scale falls to 1
@example([(0, 1), (0, 1)], 1, 2)  # the weights 1/2 sum to 1: the unit falls to 1
def test_least_form_merges_as_make_measure_does(entries, scale, unit):
    xs, ws = [x for x, _ in entries], [w for _, w in entries]
    expected = helpers.int_form_oracle(
        make_measure((Fraction(x, scale), Fraction(w, unit)) for x, w in entries))
    # each row given on its least unit, as every caller gives it
    x_common, w_common = math.gcd(scale, *xs), math.gcd(unit, *ws)
    assert measures._least_form(scale // x_common, [x // x_common for x in xs],
                                unit // w_common, [w // w_common for w in ws]) == expected


def test_a_measure_of_ints_builds_its_fraction_view_once_and_compares_as_a_record():
    mu = measures._measure_of_ints([(1, 2, 1, 3), (2, 4, 1, 6), (-3, 1, 0, 1)])
    assert mu._int_form() == (2, (1,), 2, (1,))
    assert "atoms" not in mu.__dict__
    assert repr(mu) == "DiscreteMeasure(atoms=((Fraction(1, 2), Fraction(1, 2)),))"
    assert mu.atoms is mu.atoms
    assert mu == make_measure([(H, H)]) and hash(mu) == hash(make_measure([(H, H)]))
    with pytest.raises(AttributeError):
        mu.atoms = ()
