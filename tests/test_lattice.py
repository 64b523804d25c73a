"""Generating-function tests and certified truncations."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from cxorder import lattice
from cxorder.measures import _scaled_ints
from cxorder import (
    BadParameter,
    Inconclusive,
    LatticeSeq,
    MassMismatch,
    NotLattice,
    OrderVerdict,
    Witness,
    as_lattice,
    cauchy_product,
    dirac,
    genfun_square_coeffs,
    genfun_test,
    make_measure,
    rasa_criterion,
    truncate_negbinomial,
    truncate_poisson,
    truncated_family,
)

H = Fraction(1, 2)


def test_as_lattice_examples():
    assert as_lattice(dirac(0)).coeffs == (1,)
    assert as_lattice(make_measure([(0, H), (2, H)])).coeffs == (H, 0, H)


def test_as_lattice_rejects_non_integers():
    with pytest.raises(NotLattice):
        as_lattice(make_measure([(Fraction(1, 2), H)]))
    with pytest.raises(NotLattice):
        as_lattice(dirac(-1))


def test_square_coeffs_identical_sequences():
    a = as_lattice(make_measure([(0, H), (1, H)]))
    assert all(c == 0 for c in genfun_square_coeffs(a, a))


def test_square_coeffs_simple():
    a = as_lattice(dirac(0))
    b = as_lattice(make_measure([(0, H), (1, H)]))
    assert genfun_square_coeffs(a, b) == [Fraction(1, 4)]


def test_square_coeffs_binomial_pair():
    # (f - g)/(z - 1) is identically x - y = -1/2 for one-trial binomials
    a = as_lattice(make_measure([(0, Fraction(3, 4)), (1, Fraction(1, 4))]))
    b = as_lattice(make_measure([(0, Fraction(1, 4)), (1, Fraction(3, 4))]))
    assert genfun_square_coeffs(a, b) == [Fraction(1, 4)]


def test_square_coeffs_cross_pair():
    a = as_lattice(make_measure([(0, H), (3, H)]))
    b = as_lattice(make_measure([(1, H), (2, H)]))
    assert genfun_square_coeffs(a, b) == [
        Fraction(1, 4),
        0,
        -H,
        0,
        Fraction(1, 4),
    ]
    verdict = genfun_test(a, b)
    assert verdict.holds is False
    assert verdict.witness.point == 2 and verdict.witness.gap == -H


def test_genfun_test_holds_and_mass_mismatch():
    a = as_lattice(dirac(0))
    b = as_lattice(make_measure([(0, H), (1, H)]))
    assert genfun_test(a, b).holds
    assert genfun_test(a, a).holds
    # unequal masses 1 and 2: the mass gap -(1 - 2)^2/2 of rasa_direct,
    # while the square itself stays undefined
    heavy = as_lattice(make_measure([(0, 2)]))
    assert genfun_test(a, heavy) == OrderVerdict(False, Witness("mass", None, -H))
    with pytest.raises(MassMismatch):
        genfun_square_coeffs(a, heavy)


def test_tail_sums_match_series_division():
    # coefficients of (f - 1)/(z - 1) two ways: direct tail sums versus
    # synthetic polynomial division by (z - 1)
    mu = make_measure([(0, Fraction(1, 6)), (2, H), (3, Fraction(1, 3))])
    seq = as_lattice(mu)
    tails = []
    for i in range(len(seq.coeffs) - 1):
        tails.append(sum(seq.coeffs[i + 1 :], Fraction(0)))
    # divide f(z) - 1 by (z - 1) from the top coefficient down
    dividend = list(seq.coeffs)
    dividend[0] -= 1
    quotient = [Fraction(0)] * (len(dividend) - 1)
    carry = Fraction(0)
    for k in range(len(dividend) - 1, 0, -1):
        quotient[k - 1] = dividend[k] + carry
        carry = quotient[k - 1]
    assert carry == -dividend[0]  # division is exact for probability mass 1
    assert quotient == tails


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_genfun_matches_profile_criterion(rng):
    mu, nu = helpers.random_lattice_pair(rng)
    verdict, profile = rasa_criterion(mu, nu)
    series = genfun_test(as_lattice(mu), as_lattice(nu))
    assert series.holds == verdict.holds
    coeffs = genfun_square_coeffs(as_lattice(mu), as_lattice(nu))
    for i, c in enumerate(coeffs):
        assert profile.value(i + 1) == c
    assert profile.value(0) == 0
    assert profile.value(len(coeffs) + 1) == 0


def test_cauchy_product_against_polynomial_multiplication():
    u = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1, 3)]
    v = [Fraction(1, 2), Fraction(5)]
    out = cauchy_product(u, v)
    for k in range(len(u) + len(v) - 1):
        expected = sum(
            u[i] * v[k - i] for i in range(len(u)) if 0 <= k - i < len(v)
        )
        assert out[k] == expected


_signed_rows = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.integers(-9, 9).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=97),
    ),
    max_size=10,
)


@settings(max_examples=300)
@given(_signed_rows, _signed_rows)
def test_cauchy_product_matches_literal_oracle(u, v):
    out = cauchy_product(u, v)
    assert out == helpers.cauchy_product_oracle(u, v)
    assert all(type(c) is Fraction for c in out)


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=97).filter(bool),
    st.fractions(min_value=-20, max_value=20, max_denominator=97),
    st.fractions(min_value=-5, max_value=5, max_denominator=13).filter(bool),
)
def test_cauchy_product_keeps_cancelled_coefficients(u0, u1, t):
    # (u0 + u1 z)(t u0 - t u1 z) = t (u0^2 - u1^2 z^2): the middle coefficient
    # cancels to 0 and stays in the row
    u, v = [u0, u1], [t * u0, -t * u1]
    out = cauchy_product(u, v)
    assert out == helpers.cauchy_product_oracle(u, v) == [t * u0 * u0, 0, -t * u1 * u1]
    assert type(out[1]) is Fraction


_NEGBIN_PARAMETERS = [Fraction(1, 3), Fraction(1, 2), Fraction(9, 16), Fraction(5, 8), Fraction(2, 7)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.sampled_from(_NEGBIN_PARAMETERS),
    st.sampled_from(_NEGBIN_PARAMETERS),
    st.integers(4, 40),
)
def test_cauchy_product_matches_oracle_on_negbinomial_differences(n, x, y, bits):
    # the large-denominator signed rows genfun_square_coeffs squares
    eps = Fraction(1, 2**bits)
    a, b = truncate_negbinomial(n, x, eps), truncate_negbinomial(n, y, eps)
    sound = min(a.last_index, b.last_index)
    row = _cdf_difference(a, b)[: sound + 1]
    expected = helpers.cauchy_product_oracle(row, row)
    assert cauchy_product(row, row) == expected
    assert genfun_square_coeffs(a, b) == expected[: sound + 1]


def _cdf_difference(a, b):
    """(G - F)(i) for every stored index i of the longer sequence."""
    steps = itertools.zip_longest(b.coeffs, a.coeffs, fillvalue=Fraction(0))
    return list(itertools.accumulate(bk - ak for bk, ak in steps))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(_NEGBIN_PARAMETERS),
    st.sampled_from(_NEGBIN_PARAMETERS),
    st.integers(4, 20),
)
@example(0, 0, Fraction(1, 2), Fraction(1, 3), 16)  # n = m = 0: geometric pair
@example(2, 2, H, H, 16)  # one family twice: every coefficient is 0
@example(12, 3, Fraction(2, 7), Fraction(2, 7), 4)  # x = y, n != m, r = 17 > K = 4
@example(12, 8, Fraction(1, 3), Fraction(2, 7), 10)  # r = 22 > K = 16: the fallback
def test_square_of_negbinomial_pair_matches_cauchy_oracle(n, m, x, y, bits):
    # pairs of order r = n + m + 2 <= K take the recurrence, the rest
    # cauchy_product; both must equal the literal Fraction double loop
    eps = Fraction(1, 2**bits)
    a, b = truncate_negbinomial(n, x, eps), truncate_negbinomial(m, y, eps)
    assert (a.poles, b.poles) == (((x, n + 1),), ((y, m + 1),))
    sound = min(a.last_index, b.last_index)
    row = _cdf_difference(a, b)[: sound + 1]
    assert genfun_square_coeffs(a, b) == helpers.cauchy_product_oracle(row, row)[: sound + 1]


def _unit_mass(weights):
    """The complete sequence with masses proportional to ``weights``."""
    total = sum(weights)
    return as_lattice(make_measure([(k, Fraction(w, total)) for k, w in enumerate(weights) if w]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=9).filter(any),
    st.lists(st.integers(0, 5), min_size=1, max_size=9).filter(any),
    st.integers(0, 3),
    st.sampled_from(_NEGBIN_PARAMETERS),
)
@example([1], [1], 0, H)  # two one-atom sequences at 0: the empty square
@example([1, 0, 1], [0, 1], 0, H)  # rows of lengths 3 and 2
@example([0, 0, 0, 1], [1], 2, Fraction(1, 3))  # the file is longer than its rival
def test_square_of_complete_and_mixed_pairs_matches_cauchy_oracle(u, v, n, x):
    # no poles on either side or on one side: the kernel runs with Den = 1
    a, b = _unit_mass(u), _unit_mass(v)
    d = _cdf_difference(a, b)
    assert genfun_square_coeffs(a, b) == helpers.cauchy_product_oracle(d[:-1], d[:-1])
    family = truncate_negbinomial(n, x, Fraction(1, 2**8))
    sound = min(a.last_index, family.last_index)
    row = _cdf_difference(a, family)[: sound + 1]
    assert genfun_square_coeffs(a, family) == helpers.cauchy_product_oracle(row, row)[: sound + 1]


def test_square_takes_the_recurrence_exactly_when_its_order_fits(monkeypatch):
    # negbinomial:1,13/16 and 1,27/32 stop at K = 256 (order r = 4); at
    # eps 2^-10, negbinomial:12,2/7 stops at K = 16 and 8,1/3 at 16 (r = 22)
    fits = [truncated_family(f"negbinomial:1,{x}") for x in ("13/16", "27/32")]
    over = [truncated_family(f"negbinomial:{spec}", Fraction(1, 2**10)) for spec in ("12,2/7", "8,1/3")]
    # a complete sequence carries no poles, so a mixed pair passes none
    mixed = (truncated_family("negbinomial:0,1/2"), as_lattice(make_measure([(0, H), (2, H)])))
    assert mixed[1].poles == ()
    kernel, poles = lattice._rational_square, []

    def spy(a, b, pair_poles, size):
        poles.append(pair_poles)
        return kernel(a, b, pair_poles, size)

    monkeypatch.setattr(lattice, "_rational_square", spy)
    monkeypatch.setattr(lattice, "cauchy_product", helpers.refuse("cauchy_product"))
    squares = [genfun_square_coeffs(*pair) for pair in (fits, over, mixed)]
    assert poles == [fits[0].poles + fits[1].poles, (), ()]
    for pair, square in zip((fits, over, mixed), squares):
        sound = min(pair[0].last_index, pair[1].last_index)
        row = _cdf_difference(*pair)[: sound + 1]
        assert square == helpers.cauchy_product_oracle(row, row)[: sound + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=2**12), max_size=12),
             min_size=1, max_size=3),
    st.sampled_from([1, 2, 3, 6, 16, 32, 35, 4096, 3**9]),
    st.one_of(st.integers(1, 64), st.integers(1, 2**300)),
)
@example([[Fraction(1, 2**20), Fraction(3, 2**21), Fraction(1, 3)]], 2, 5)
@example([[], [Fraction(5, 7)]], 6, 7**90)
@example([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]], 1, 2**256)  # a row of zeros
def test_power_scaled_ints_match_the_fraction_route(rows, s, factor):
    # one least common denominator for every c s^k, so the squared row, its
    # width under MAX_SQUARE_WORK and every output stay as before; the
    # kernel reads each row as the (unit, ints) pair a LatticeSeq stores,
    # on a unit that need not be the least (a truncation keeps its own)
    int_rows = [(unit * factor, [c * factor for c in ints]) for unit, ints in map(_scaled_ints, rows)]
    assert lattice._scaled_rows(int_rows, s) == helpers.power_scaled_ints_oracle(rows, s)


@pytest.mark.parametrize("poles", [((Fraction(1, 2), 2),), ((Fraction(1, 3), 1),)])
def test_square_refuses_poles_that_do_not_fit_the_coefficients(poles):
    # negbinomial:1,1/3 has the pole 1/3 of order 2; a hand-built sequence
    # that claims another pole, or a lower order, must not reach a wrong square
    a = truncate_negbinomial(1, Fraction(1, 3), Fraction(1, 2**20))
    b = truncate_negbinomial(1, Fraction(1, 2), Fraction(1, 2**20))
    wrong = LatticeSeq(a.coeffs, a.tail_bound, a.total_mass, poles=poles)
    with pytest.raises(BadParameter, match="^the poles of a truncated pair do not match its coefficients$"):
        genfun_square_coeffs(wrong, b)


# -- int rows against the former Fraction loops ---------------------------------

# x = floor(q t / 1000) / q <= 3/4, denominators up to 2^120
_wide_x = st.builds(
    lambda q, t: Fraction(max(q * t // 1000, 1), q), st.integers(2, 2**120), st.integers(1, 750)
)
# lam = floor(q t / 100) / q <= 8, and 1 + 1/10^k
_wide_lam = st.one_of(
    st.builds(
        lambda q, t: Fraction(max(q * t // 100, 1), q), st.integers(1, 2**80), st.integers(1, 800)
    ),
    st.integers(1, 30).map(lambda k: Fraction(10**k + 1, 10**k)),
)


def _assert_row(seq, coeffs):
    # the stored row is the masses over a common denominator, not
    # necessarily the least: a truncation keeps the unit it builds on
    assert seq.unit % math.lcm(*(c.denominator for c in coeffs)) == 0
    assert [Fraction(c, seq.unit) for c in seq.ints] == list(coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6), st.one_of(st.sampled_from(_NEGBIN_PARAMETERS), _wide_x), st.integers(4, 24)
)
@example(0, Fraction(1, 3), 20)  # n = 0: the geometric law
@example(0, Fraction(3, 2**100), 8)
@example(5, Fraction(1, 10**30), 24)  # stops at K = 1
@example(2, Fraction(3, 4), 24)
def test_negbinomial_int_row_matches_the_fraction_loop(n, x, bits):
    eps = Fraction(1, 2**bits)
    seq = truncate_negbinomial(n, x, eps)
    assert "coeffs" not in vars(seq)  # no Fraction row until one is read
    coeffs, tail = helpers.truncate_negbinomial_oracle(n, x, eps)
    _assert_row(seq, coeffs)
    assert (seq.coeffs, seq.tail_bound, seq.boxed_mass) == (coeffs, tail, sum(coeffs))
    assert (seq.total_mass, seq.exact, seq.poles) == (1, True, ((x, n + 1),))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([Fraction(k, 2) for k in range(1, 10)]), _wide_lam),
    st.integers(4, 24),
)
@example(Fraction(1, 2**200), 24)  # stops at K = 1 on 200-bit terms
@example(Fraction(10**30 + 1, 10**30), 24)
@example(Fraction(8), 4)
def test_poisson_int_row_matches_the_fraction_loop(lam, bits):
    eps = Fraction(1, 2**bits)
    seq = truncate_poisson(lam, eps)
    assert "coeffs" not in vars(seq)
    coeffs, tail = helpers.truncate_poisson_oracle(lam, eps)
    _assert_row(seq, coeffs)
    assert (seq.coeffs, seq.tail_bound, seq.boxed_mass) == (coeffs, tail, sum(coeffs))
    assert (seq.total_mass, seq.exact, seq.poles) == (1, False, ())


def _fraction_built(seq):
    """The same sequence built by the public constructor from Fractions."""
    coeffs = tuple(Fraction(c, seq.unit) for c in seq.ints)
    return LatticeSeq(coeffs, seq.tail_bound, seq.total_mass, seq.exact, seq.poles)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from(_NEGBIN_PARAMETERS), st.sampled_from(_NEGBIN_PARAMETERS),
       st.lists(st.integers(0, 5), min_size=1, max_size=9).filter(any))
def test_int_backed_sequences_compare_hash_and_print_as_fraction_built(n, x, lam, weights):
    eps = Fraction(1, 2**12)
    sequences = (truncate_negbinomial(n, x, eps), truncate_poisson(lam * 4, eps),
                 _unit_mass(weights), as_lattice(make_measure([])))
    for seq in sequences:
        built = _fraction_built(seq)
        assert seq == built and hash(seq) == hash(built)
        assert repr(seq) == repr(built)
        other = LatticeSeq(built.coeffs, seq.tail_bound + 1, seq.total_mass, seq.exact, seq.poles)
        assert seq != other
        # the same masses stored on a wider unit
        fields = seq.tail_bound, seq.total_mass, seq.exact, seq.poles
        wide = LatticeSeq._of_ints(seq.unit * 6, [c * 6 for c in seq.ints], *fields)
        assert wide == seq and hash(wide) == hash(seq) and repr(wide) == repr(seq)
        if seq.complete:  # stored over the least common denominator
            assert (seq.unit, seq.ints) == (built.unit, built.ints)
    # ints and Fractions of equal value store equal rows
    assert LatticeSeq((1, 0, 1)) == LatticeSeq((Fraction(1), Fraction(0), Fraction(1)))
    assert hash(LatticeSeq((1, 0, 1))) == hash(LatticeSeq((Fraction(1), Fraction(0), Fraction(1))))


def test_genfun_check_builds_no_fraction_rows():
    # the verdict, the boxed mass and the tail bound read the int rows
    pair = [truncate_negbinomial(1, x) for x in (Fraction(13, 16), Fraction(27, 32))]
    files = [_unit_mass([1, 0, 2]), _unit_mass([0, 3])]
    for a, b in (pair, files):
        genfun_test(a, b)
        assert a.boxed_mass <= 1 and b.tail_bound >= 0 and a.last_index >= 0
        assert "coeffs" not in vars(a) and "coeffs" not in vars(b)
    assert genfun_test(*files) == genfun_test(*files, coeffs=genfun_square_coeffs(*files))


# -- certified truncations -----------------------------------------------------


def test_negbinomial_geometric_case():
    # n = 0 reduces to the geometric distribution and the certificate is the
    # exact tail x^(K+1)
    x = Fraction(1, 3)
    seq = truncate_negbinomial(0, x, Fraction(1, 10**6))
    k = seq.last_index
    assert seq.coeffs[0] == 1 - x
    assert seq.tail_bound == x ** (k + 1)
    assert seq.boxed_mass == 1 - x ** (k + 1)
    assert seq.tail_bound < Fraction(1, 10**6)


def test_negbinomial_example_weights():
    seq = truncate_negbinomial(1, H, Fraction(1, 2**20))
    for k, c in enumerate(seq.coeffs):
        assert c == Fraction(k + 1, 2 ** (k + 2))
    assert seq.tail_bound < Fraction(1, 2**20)
    assert seq.boxed_mass <= 1 <= seq.boxed_mass + seq.tail_bound


def test_negbinomial_bad_parameters():
    with pytest.raises(BadParameter):
        truncate_negbinomial(1, Fraction(0))
    with pytest.raises(BadParameter):
        truncate_negbinomial(1, Fraction(3, 2))
    with pytest.raises(BadParameter):
        truncate_negbinomial(-1, H)
    with pytest.raises(BadParameter):
        truncate_negbinomial(1, H, Fraction(0))


def test_poisson_certificates():
    seq = truncate_poisson(Fraction(1), Fraction(1))
    assert not seq.exact
    assert seq.tail_bound < 1
    assert seq.boxed_mass <= 1 <= seq.boxed_mass + seq.tail_bound
    tight = truncate_poisson(Fraction(3, 2), Fraction(1, 2**30))
    assert tight.tail_bound < Fraction(1, 2**30)
    assert tight.boxed_mass <= 1 <= tight.boxed_mass + tight.tail_bound
    # the stored values are certified lower bounds of e^-lam * lam^k / k!
    # sanity-check the first against a crude rational sandwich of e^-3/2
    assert Fraction(2, 9) < tight.coeffs[0] < Fraction(1, 4)


def test_poisson_inconclusive_by_construction():
    a = truncate_poisson(Fraction(1), Fraction(1, 2**20))
    b = truncate_poisson(Fraction(2), Fraction(1, 2**20))
    assert genfun_test(a, b).holds is None
    with pytest.raises(Inconclusive):
        genfun_square_coeffs(a, b)


def test_truncated_exact_prefix_semantics():
    # truncations of distinct negative binomials have strictly positive
    # profiles, so the clean exact prefix stays inconclusive
    a = truncate_negbinomial(1, Fraction(1, 4), Fraction(1, 2**20))
    b = truncate_negbinomial(1, Fraction(3, 4), Fraction(1, 2**20))
    verdict = genfun_test(a, b)
    assert verdict.holds is None
    # a manufactured truncated pair with a negative sound coefficient is a
    # certified failure even without the tail
    bad_a = LatticeSeq((H, 0, 0, H), tail_bound=Fraction(1, 100), total_mass=Fraction(11, 10))
    bad_b = LatticeSeq((0, H, H, 0), tail_bound=Fraction(1, 100), total_mass=Fraction(11, 10))
    verdict = genfun_test(bad_a, bad_b)
    assert verdict.holds is False and verdict.witness.point == 2


def test_truncated_family_dispatch():
    seq = truncated_family("negbinomial:1,1/2", Fraction(1, 2**10))
    assert seq.coeffs[0] == Fraction(1, 4)
    poisson = truncated_family("poisson:1", Fraction(1, 2))
    assert not poisson.exact
    with pytest.raises(BadParameter):
        truncated_family("zeta:3")
    with pytest.raises(BadParameter):
        truncated_family("negbinomial:1")


def test_interpolation_against_hinge_gap_on_truncations():
    # sound prefix coefficients of a truncated pair equal the profile of the
    # boxed measures at integers (the tail sits beyond all tested indices
    # once the box is wide enough for the probed range)
    eps = Fraction(1, 2**40)
    a = truncate_negbinomial(1, Fraction(1, 4), eps)
    b = truncate_negbinomial(1, Fraction(3, 4), eps)
    coeffs = genfun_square_coeffs(a, b)
    from cxorder import lattice_to_measure, step_self_convolution, cdf_diff

    boxed_a = lattice_to_measure(a).scaled(1 / lattice_to_measure(a).mass)
    boxed_b = lattice_to_measure(b).scaled(1 / lattice_to_measure(b).mass)
    profile = step_self_convolution(cdf_diff(boxed_a, boxed_b))
    for i in range(6):
        # normalisation perturbs by less than the tail certificates can hide
        assert abs(profile.value(i + 1) - coeffs[i]) < Fraction(1, 2**30)


def test_truncation_cutoff_budget_boundary(monkeypatch):
    # at eps 2^-10 negbinomial:1,1/2 stops at K = 16 and poisson:1 at K = 8;
    # a budget one below refuses each
    eps = Fraction(1, 2**10)
    assert truncate_negbinomial(1, H, eps).last_index == 16
    assert truncate_poisson(1, eps).last_index == 8
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 16)
    assert truncate_negbinomial(1, H, eps).last_index == 16
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 15)
    with pytest.raises(BadParameter, match="MAX_CUTOFF = 15"):
        truncate_negbinomial(1, H, eps)
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 8)
    assert truncate_poisson(1, eps).last_index == 8
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 7)
    with pytest.raises(BadParameter, match="MAX_CUTOFF = 7"):
        truncate_poisson(1, eps)


def test_truncation_cutoff_budget_names_the_family(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 4)
    with pytest.raises(BadParameter, match=r"negbinomial:1,255/256 .*MAX_CUTOFF = 4"):
        truncate_negbinomial(1, Fraction(255, 256))
    with pytest.raises(BadParameter, match=r"poisson:3 .*MAX_CUTOFF = 4"):
        truncate_poisson(3)
    # a Poisson parameter whose first cutoff 2^ceil(log2(2 lam)) is over the
    # budget is refused before a single term is built
    monkeypatch.setattr(lattice, "MAX_CUTOFF", 4096)
    with pytest.raises(BadParameter, match="MAX_CUTOFF = 4096"):
        truncate_poisson(10**100)


def refuse_weights(monkeypatch):
    """Make every weight of the truncations fail: both build theirs with
    Fraction products, powers and quotients."""

    def refuse(*args):
        raise AssertionError("no weight may be built")

    for name in ("__mul__", "__pow__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, refuse)


def test_negbinomial_index_budget_boundary(monkeypatch):
    limit = lattice.MAX_NEGBIN_INDEX
    assert limit == 4096
    assert truncate_negbinomial(limit, Fraction(1, 1000)).last_index == 32
    refuse_weights(monkeypatch)
    message = "^negative binomial index 4097 exceeds MAX_NEGBIN_INDEX = 4096$"
    with pytest.raises(BadParameter, match=message):
        truncate_negbinomial(limit + 1, Fraction(1, 1000))
    with pytest.raises(BadParameter, match=message):
        truncated_family("negbinomial:4097,1/2")


def test_negbinomial_weight_bits_budget_boundary(monkeypatch):
    # x = 10^-1130 (q of 3,754 bits) stops at K = 1: its weights over
    # q^(n + 1 + k), k <= 2, count (n + 3) x 3,754 bits
    assert lattice.MAX_WEIGHT_BITS == 2**18
    x = Fraction(1, 10**1130)
    fits = truncate_negbinomial(66, x)
    assert fits.last_index == 1 and 69 * 3754 <= 2**18
    assert max(w.denominator.bit_length() for w in fits.coeffs) <= 68 * 3754
    refuse_weights(monkeypatch)
    with pytest.raises(BadParameter, match=r"at cutoff 1 needs weights of 262780 bits, above"
                                           r" MAX_WEIGHT_BITS = 262144 \(\(n \+ K \+ 2\) x bits\(q\)\)$"):
        truncate_negbinomial(67, x)


def test_poisson_cutoff_budget_boundary(monkeypatch):
    # the first cutoff is the power of two >= 2 lam: 4096 = MAX_CUTOFF at
    # lam = 2048, 8192 just past it, refused before any term
    assert lattice.MAX_CUTOFF == 4096
    assert truncate_poisson(2048).last_index == 4096
    refuse_weights(monkeypatch)
    message = "^poisson:2049 at eps=1/1099511627776 needs a truncation cutoff above MAX_CUTOFF = 4096$"
    with pytest.raises(BadParameter, match=message):
        truncate_poisson(2049)
    with pytest.raises(BadParameter, match="^poisson:2048001/1000 at eps=.* above MAX_CUTOFF = 4096$"):
        truncated_family("poisson:2048001/1000")


def test_poisson_weight_bits_budget_boundary(monkeypatch):
    # lam = 1/2^w stops at K = 1, so its terms count 3 x (1 + (w + 1)) bits:
    # 262,143 at w = 87,379 and 262,146 at w = 87,380, refused before any term
    assert lattice.MAX_WEIGHT_BITS == 2**18
    assert truncate_poisson(Fraction(1, 2**87379)).last_index == 1
    # the benchmark's parameters k/2, k <= 9, stop by K = 32 on 4-bit numerators
    assert truncate_poisson(Fraction(9, 2)).last_index == 32  # 34 x (4 + 2) = 204 bits
    refuse_weights(monkeypatch)
    with pytest.raises(BadParameter, match=r" at cutoff 1 needs weights of 262146 bits, above MAX_WEIGHT_BITS"
                                           r" = 262144 \(\(K \+ 2\) x \(bits\(p\) \+ bits\(q\)\)\)$"):
        truncate_poisson(Fraction(1, 2**87380))


def _work_message(products, bits, work=2**40):
    return "^" + re.escape(helpers.square_work_message(products, bits, work)) + "$"


def test_square_cutoff_budget_boundary(monkeypatch):
    # MAX_SQUARE_WORK bounds max(products, 64) * bits^2, products = size * len(row);
    # negbinomial:1 stops at K = 256 for 13/16, at 512 for 15/16 and at 1024
    # for 31/32, and a truncated pair is squared up to the shorter cutoff
    assert lattice.MAX_SQUARE_WORK == 2**40
    short, mid, long = (truncated_family(f"negbinomial:1,{x}") for x in ("13/16", "15/16", "31/32"))
    assert (short.last_index, mid.last_index, long.last_index) == (256, 512, 1024)
    assert len(genfun_square_coeffs(short, mid)) == 257
    # complete sequences count their products too: 2,049 * 1,025 on one-bit ints
    ramp = [as_lattice(make_measure([(k, 1) for k in range(start, start + 1025)])) for start in (0, 1)]
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", 2049 * 1025)
    assert len(genfun_square_coeffs(*ramp)) == 2049
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", 2049 * 1025 - 1)
    monkeypatch.setattr(lattice, "_int_product", helpers.refuse("_int_product"))
    with pytest.raises(BadParameter, match=_work_message(2100225, 1, 2049 * 1025 - 1)):
        genfun_square_coeffs(*ramp)

    # mid and long carry their poles (order r = 4): the budget counts the
    # 513^2 products of the plain square, not the recurrence's 513 * 4
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", 2**40)
    with pytest.raises(BadParameter, match=_work_message(263169, 2551)):
        genfun_square_coeffs(mid, long)
    with pytest.raises(BadParameter, match=_work_message(263169, 2551)):
        genfun_test(long, mid)


def _bits_pair(bits):
    """A complete pair whose scaled row is the one int 1 - 2^bits."""
    tiny = Fraction(1, 2**bits)
    return as_lattice(make_measure([(0, 1 - tiny), (1, tiny)])), as_lattice(dirac(1))


def test_square_bits_budget_boundary(monkeypatch):
    # a square counts at least 64 products, so the one product of a bits
    # pair weighs 64 bits^2: at the budget 2^40, rows of up to 2^17 bits
    assert lattice.MAX_SQUARE_WORK == 64 * (2**17) ** 2
    assert genfun_square_coeffs(*_bits_pair(2**17)) == [(1 - Fraction(1, 2**2**17)) ** 2]
    # negbinomial:190 (K = 16 for 1/1000 and 1/999) squares rows of 4,109
    # bits, and negbinomial:512 (K = 256 for 1/8 and 1/9) is refused on rows
    # of 4,737 bits; both pairs carry poles of order r > K
    fits = [truncated_family(f"negbinomial:190,{x}") for x in ("1/1000", "1/999")]
    over = [truncated_family(f"negbinomial:512,{x}") for x in ("1/8", "1/9")]
    assert len(genfun_square_coeffs(*fits)) == 17
    monkeypatch.setattr(lattice, "_int_product", helpers.refuse("_int_product"))
    with pytest.raises(BadParameter, match=_work_message(1, 2**17 + 1)):
        genfun_square_coeffs(*_bits_pair(2**17 + 1))
    with pytest.raises(BadParameter, match=_work_message(66049, 4737)):
        genfun_test(*over)


def test_lattice_position_budget_boundary(monkeypatch):
    limit = lattice.MAX_CUTOFF
    assert limit == 4096
    assert as_lattice(make_measure([(0, H), (limit, H)])).last_index == limit
    # the sequence would be padded with Fraction(0) up to the largest atom
    monkeypatch.setattr(lattice, "Fraction", helpers.refuse("Fraction"))
    message = "^atom position 4097 exceeds MAX_CUTOFF = 4096$"
    with pytest.raises(BadParameter, match=message):
        as_lattice(make_measure([(0, H), (limit + 1, H)]))
    with pytest.raises(BadParameter, match="^atom position 1000000000 exceeds"):
        as_lattice(dirac(10**9))
    with pytest.raises(NotLattice):  # positions are checked before the budget
        as_lattice(make_measure([(H, H), (limit + 1, H)]))
