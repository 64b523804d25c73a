"""Order decisions: stochastic order, convex order, and the profile test."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from cxorder import measures, orders
from cxorder import (
    BadParameter,
    ConvexTestFn,
    MassMismatch,
    NonConvexTestFn,
    OrderVerdict,
    Witness,
    affine_fn,
    binomial_measure,
    cdf_diff,
    convolve,
    dirac,
    gap_functional,
    hinge_fn,
    leq_cx,
    leq_st,
    make_measure,
    mix,
    quad_fn,
    rasa_criterion,
    rasa_direct,
    step_function,
    step_self_convolution,
)

H = Fraction(1, 2)


def cross_pair():
    return (
        make_measure([(0, H), (3, H)]),
        make_measure([(1, H), (2, H)]),
    )


# -- usual stochastic order ---------------------------------------------------


def test_leq_st_diracs():
    assert leq_st(dirac(0), dirac(1)).holds


def test_leq_st_binomials():
    assert leq_st(binomial_measure(2, Fraction(1, 4)), binomial_measure(2, Fraction(3, 4))).holds


def test_leq_st_incomparable_pair():
    mu = make_measure([(0, H), (3, H)])
    nu = dirac(1)
    forward = leq_st(mu, nu)
    assert forward.holds is False
    assert forward.witness.point == 1 and forward.witness.gap == -H
    backward = leq_st(nu, mu)
    assert backward.holds is False
    assert backward.witness.point == 0


def test_leq_st_mass_mismatch_is_failure():
    verdict = leq_st(dirac(0), make_measure([(0, 2)]))
    assert verdict.holds is False and verdict.witness.kind == "mass"


@settings(max_examples=200)
@given(helpers.measures, helpers.measures, st.booleans(), st.randoms(use_true_random=False))
def test_leq_st_matches_literal_cdf_oracle(mu, nu, rescale, rng):
    # unequal masses as drawn, equal masses after rescaling, and comparable pairs
    if rescale and mu.mass and nu.mass:
        nu = nu.scaled(mu.mass / nu.mass)
    low, high = helpers.st_comparable_pair(rng)
    for a, b in [(mu, nu), (nu, mu), (low, high), (high, low)]:
        assert leq_st(a, b) == helpers.leq_st_oracle(a, b)


def test_leq_st_refuses_wide_weights_before_their_full_lcm(monkeypatch):
    mu, nu = helpers.wide_weight_pair(48)
    steps = []
    lcm = orders.lcm

    def counting(a, b):
        steps.append(1)
        return lcm(a, b)

    monkeypatch.setattr(orders, "lcm", counting)
    message = helpers.convolution_work_message(
        "the stochastic-order test of 48 and 48 atoms", 96, 26576, noun="atoms"
    )
    with pytest.raises(BadParameter, match="^" + re.escape(message) + "$"):
        leq_st(mu, nu)
    # one weight denominator of 13,288 bits passes; the lcm of two is refused
    assert len(steps) == 2
    # inside the budget the same weights decide as the oracle does
    small, large = helpers.wide_weight_pair(2)
    assert leq_st(small, large) == helpers.leq_st_oracle(small, large) == OrderVerdict(True)
    assert leq_st(large, small) == helpers.leq_st_oracle(large, small)


# -- convex order -------------------------------------------------------------


def test_leq_cx_reflexive():
    mu = make_measure([(0, H), (5, H)])
    assert leq_cx(mu, mu).holds


def test_leq_cx_two_point_spread():
    assert leq_cx(dirac(0), make_measure([(-1, H), (1, H)])).holds


def test_leq_cx_nested_pair_and_witness():
    inner = make_measure([(1, H), (2, H)])
    outer = make_measure([(0, H), (3, H)])
    assert leq_cx(inner, outer).holds
    reverse = leq_cx(outer, inner)
    assert reverse.holds is False
    assert reverse.witness.kind == "hinge"
    assert 1 <= reverse.witness.point <= 2


def test_leq_cx_detects_mean_mismatch():
    verdict = leq_cx(dirac(0), dirac(1))
    assert verdict.holds is False and verdict.witness.kind == "mean"


def _cx_variants(mu, nu, common, spread):
    """Pairs that fail leq_cx on mass, on mean or on a hinge, and pairs that
    hold: ``common`` adds shared atoms (net weight 0 where the pair did not
    already differ), ``spread`` is a mean-zero probability measure, so
    mu <=cx mu*spread."""
    pairs = [(mu, nu), (nu, mu)]
    if mu.mass and nu.mass:
        nu = nu.scaled(mu.mass / nu.mass)
        pairs += [(mu, nu), (nu, mu)]
        shared = (mix((1, 1), (mu, common)), mix((1, 1), (nu, common)))
        pairs += [shared, shared[::-1]]
        spread_out = convolve(mu, spread)
        pairs += [(mu, spread_out), (spread_out, mu)]
        shared_spread = (mix((1, 1), (mu, common)), mix((1, 1), (spread_out, common)))
        pairs += [shared_spread, shared_spread[::-1]]
    return pairs


def _mean_zero(rng):
    spread = helpers.probability_measure(rng, max_atoms=3)
    return make_measure((x - spread.mean, w) for x, w in spread.atoms)


@settings(max_examples=150)
@given(helpers.measures, helpers.measures, helpers.measures, st.randoms(use_true_random=False))
def test_leq_cx_matches_literal_hinge_oracle(mu, nu, common, rng):
    for a, b in _cx_variants(mu, nu, common, _mean_zero(rng)):
        assert leq_cx(a, b) == helpers.leq_cx_oracle(a, b)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_leq_cx_matches_oracle_on_convolution_pairs(rng):
    # the n^2-atom pairs rasa_direct hands to leq_cx, both ways round
    mu, nu = helpers.equal_mass_pair(rng, max_atoms=6)
    left = convolve(mu, nu)
    right = mix((H, H), (convolve(mu, mu), convolve(nu, nu)))
    assert leq_cx(left, right) == helpers.leq_cx_oracle(left, right)
    assert leq_cx(right, left) == helpers.leq_cx_oracle(right, left)


def test_leq_cx_oracle_comparison_covers_every_outcome():
    # the second round gives the two measures unequal, non-dyadic
    # denominators, so the mass, mean and hinge gaps are read back from
    # units that are neither powers of two nor shared
    for mu_denominators, nu_denominators in [((1, 2), (1, 2)), ((3, 7, 9), (5, 11, 13))]:
        rng = random.Random(11)
        kinds = set()
        odd_gaps = set()
        for _ in range(60):
            mu = helpers.random_measure(rng, max_atoms=5, denominators=mu_denominators)
            nu = helpers.random_measure(rng, max_atoms=5, denominators=nu_denominators)
            common = helpers.random_measure(rng, max_atoms=3, denominators=mu_denominators)
            for a, b in _cx_variants(mu, nu, common, _mean_zero(rng)):
                verdict = leq_cx(a, b)
                assert verdict == helpers.leq_cx_oracle(a, b)
                kinds.add(verdict.witness.kind if verdict.witness else "holds")
                denominator = verdict.witness.gap.denominator if verdict.witness else 1
                if denominator & (denominator - 1):
                    odd_gaps.add(verdict.witness.kind)
        assert kinds == {"mass", "mean", "hinge", "holds"}
    assert odd_gaps == {"mass", "mean", "hinge"}


non_dyadic = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.sampled_from((3, 5, 7, 9, 11, 13))
)
non_dyadic_measures = st.lists(
    st.tuples(non_dyadic, non_dyadic.map(lambda w: abs(w) + Fraction(1, 7))), min_size=1, max_size=5
).map(make_measure)


@settings(max_examples=100)
@given(non_dyadic_measures, non_dyadic_measures, non_dyadic_measures, st.randoms(use_true_random=False))
def test_leq_cx_matches_the_oracle_on_non_dyadic_denominators(mu, nu, common, rng):
    for a, b in _cx_variants(mu, nu, common, _mean_zero(rng)):
        assert leq_cx(a, b) == helpers.leq_cx_oracle(a, b)


@pytest.mark.parametrize("n", [16, 48])
def test_leq_cx_refuses_wide_denominators_before_their_full_lcm(n, monkeypatch):
    mu, nu = helpers.wide_denominator_pair(n)
    steps = []
    lcm = orders.lcm

    def counting(a, b):
        steps.append(1)
        return lcm(a, b)

    monkeypatch.setattr(orders, "lcm", counting)
    message = helpers.convolution_work_message(
        f"the convex-order test of {n} and {n} atoms", 2 * n, 26576, noun="atoms"
    )
    with pytest.raises(BadParameter, match="^" + re.escape(message) + "$"):
        leq_cx(mu, nu)
    # one denominator of 13,288 bits passes; the lcm of two is refused
    assert len(steps) == 2


def test_leq_cx_work_budget_boundary(monkeypatch):
    # two point masses at 1/2^e: the common denominator 2^e has e + 1 bits,
    # and 2 atoms on 92,681 bits are inside 2^34, on 92,682 bits past it
    assert 2 * 92681**2 <= orders.MAX_CONVOLUTION_WORK < 2 * 92682**2
    inside, outside = (dirac(Fraction(1, 2**e)) for e in (92680, 92681))
    assert leq_cx(inside, inside).holds
    message = helpers.convolution_work_message("the convex-order test of 1 and 1 atoms", 2, 92682, noun="atoms")
    with pytest.raises(BadParameter, match="^" + re.escape(message) + "$"):
        leq_cx(outside, outside)
    # small ints count as 512 bits: 3 + 4 atoms are at the budget 7 * 512^2
    mu = make_measure([(0, 4), (1, 4), (2, 4)])
    nu = make_measure([(0, 3), (1, 3), (2, 3), (3, 3)])
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 7 * 512**2)
    assert leq_cx(mu, nu) == helpers.leq_cx_oracle(mu, nu)
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 7 * 512**2 - 1)
    message = helpers.convolution_work_message(
        "the convex-order test of 3 and 4 atoms", 7, 2, 7 * 512**2 - 1, noun="atoms"
    )
    with pytest.raises(BadParameter, match="^" + re.escape(message) + "$"):
        leq_cx(mu, nu)


step_functions = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3), helpers.rationals),
    min_size=0,
    max_size=9,
).map(
    lambda cells: step_function(
        sorted({x for x, _ in cells}),
        [v for _, v in sorted(dict(cells).items())][:-1],
    )
)


@settings(max_examples=150)
@given(step_functions)
def test_step_self_convolution_matches_midpoint_oracle(h):
    assert step_self_convolution(h) == helpers.step_self_convolution_oracle(h)


# jumps (2, 1, -6, 3) at 0, 1, 2, 3: the kink weights of 0+3 and 1+2 cancel
CANCELLING = step_function((0, 1, 2, 3), (2, 3, -3))


def test_step_self_convolution_keeps_kinks_whose_weights_cancel():
    mu = make_measure([(0, 2), (1, 1), (3, 3)])
    nu = make_measure([(2, 6)])
    assert cdf_diff(mu, nu) == CANCELLING
    profile = step_self_convolution(CANCELLING)
    assert profile == helpers.step_self_convolution_oracle(CANCELLING)
    assert profile.breakpoints == tuple(range(7))
    # affine through 3: the profile is the mean of its neighbours there
    assert 2 * profile.value(3) == profile.value(2) + profile.value(4)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_step_self_convolution_matches_oracle_on_cdf_differences(rng):
    # integer positions make many pairwise breakpoint sums coincide
    mu, nu = helpers.random_lattice_pair(rng, top=6, max_atoms=6)
    h = cdf_diff(mu, nu)
    profile = step_self_convolution(h)
    assert profile == helpers.step_self_convolution_oracle(h)
    assert all(isinstance(v, Fraction) for v in profile.breakpoints + profile.values)


# -- profile criterion ----------------------------------------------------------


def test_criterion_identical_measures():
    mu = make_measure([(0, H), (Fraction(7, 2), H)])
    verdict, profile = rasa_criterion(mu, mu)
    assert verdict.holds and profile.is_zero


def test_criterion_triangle_profile():
    verdict, profile = rasa_criterion(dirac(0), make_measure([(0, H), (1, H)]))
    assert verdict.holds
    assert profile.breakpoints == (0, 1, 2)
    assert profile.values == (0, Fraction(1, 4), 0)
    assert profile.value(H) == Fraction(1, 8)


def test_criterion_failure_with_smallest_argmin():
    verdict, profile = rasa_criterion(*cross_pair())
    assert verdict.holds is False
    assert verdict.witness.point == 3
    assert verdict.witness.gap == -H
    assert profile.value(3) == -H


def test_criterion_requires_equal_mass():
    # the constant test functions give the gap m1 m2 - (m1^2 + m2^2)/2;
    # there is no profile, since H does not return to 0 on the right
    mu, nu = dirac(0), make_measure([(0, 2)])
    verdict, profile = rasa_criterion(mu, nu)
    assert verdict == OrderVerdict(False, Witness("mass", None, -H))
    assert profile is None
    assert rasa_direct(mu, nu) == verdict
    with pytest.raises(MassMismatch):
        cdf_diff(mu, nu)


def test_oracle_examples():
    mu = make_measure([(0, H), (3, H)])
    assert rasa_direct(mu, mu).holds
    assert rasa_direct(
        binomial_measure(1, Fraction(1, 4)), binomial_measure(1, Fraction(3, 4))
    ).holds
    verdict = rasa_direct(*cross_pair())
    assert verdict.holds is False and verdict.witness.point == 3


def test_oracle_reports_mass_mismatch_as_failure():
    verdict = rasa_direct(dirac(0), make_measure([(0, 2)]))
    assert verdict.holds is False and verdict.witness.kind == "mass"


def _atoms(denominator, size):
    """Lists of atoms at multiples of 1/denominator in [-3, 3], negative ones
    included, with weights k/denominator."""
    return st.lists(
        st.tuples(
            st.integers(min_value=-3 * denominator, max_value=3 * denominator),
            st.integers(min_value=1, max_value=6),
        ).map(lambda a: (Fraction(a[0], denominator), Fraction(a[1], denominator))),
        min_size=size[0],
        max_size=size[1],
    )


@st.composite
def _criterion_pairs(draw):
    """mu on multiples of 1/7 and nu on multiples of 1/11, each of one to
    four atoms, plus atoms that both carry with one weight, on either grid:
    where such an atom meets no other, mu(x) = nu(x) cancels in H; where it
    meets one, it only shifts the weight.  The masses are equal (nu's own
    atoms scaled to the mass of mu's), unequal as drawn, or nu is mu."""
    own_mu, own_nu = draw(_atoms(7, (1, 4))), draw(_atoms(11, (1, 4)))
    shared = draw(st.one_of(_atoms(7, (0, 3)), _atoms(11, (0, 3))))
    mode = draw(st.sampled_from(("equal", "unequal", "same")))
    mu = make_measure(own_mu + shared)
    if mode == "same":
        return mu, mu
    if mode == "equal":
        ratio = sum(w for _, w in own_mu) / sum(w for _, w in own_nu)
        own_nu = [(x, w * ratio) for x, w in own_nu]
    return mu, make_measure(own_nu + shared)


_SHARED = (Fraction(2, 7), Fraction(3, 7))


@settings(max_examples=120)
@given(_criterion_pairs())
@example((dirac(Fraction(-3, 7)), dirac(Fraction(5, 11))))  # one atom each, equal masses
@example((dirac(Fraction(1, 7)), make_measure([(Fraction(-2, 11), 3)])))  # one atom each, unequal
@example((make_measure([(Fraction(-1, 7), 1), _SHARED]),) * 2)  # mu = nu
@example(  # the shared atom cancels; the other positions differ
    (make_measure([(Fraction(-1, 7), 1), _SHARED]), make_measure([(Fraction(4, 11), 1), _SHARED]))
)
def test_criterion_and_direct_match_their_fraction_routes(pair):
    mu, nu = pair
    assert rasa_criterion(mu, nu) == helpers.rasa_criterion_oracle(mu, nu)
    assert rasa_direct(mu, nu) == helpers.rasa_direct_oracle(mu, nu)


def test_criterion_pairs_cover_cancellation_and_every_outcome():
    # the draws of the Fraction-route comparison reach every case it names
    seen = set()

    @settings(max_examples=300, database=None, derandomize=True)
    @given(_criterion_pairs())
    def record(pair):
        mu, nu = pair
        verdict, _ = rasa_criterion(mu, nu)
        seen.add(verdict.witness.kind if verdict.witness else "holds")
        if mu == nu:
            seen.add("same")
        if min(len(mu.atoms), len(nu.atoms)) == 1:
            seen.add("one atom")
        mu_at, nu_at = dict(mu.atoms), dict(nu.atoms)
        if mu != nu and mu.mass == nu.mass and any(mu_at[x] == nu_at.get(x) for x in mu_at):
            seen.add("cancels")  # in a profile that is built
        if any(x < 0 for x in mu.positions() + nu.positions()):
            seen.add("negative")

    record()
    assert seen == {"mass", "profile", "holds", "same", "one atom", "cancels", "negative"}


def test_criterion_budget_counts_no_cancelled_atom(monkeypatch):
    # a shared atom at 1/(2^601 + 3) with weight 1/(2^600 + 1) cancels in
    # H: the 256 breakpoints of unit atoms at 0..255 stay small ints, so the
    # signed square is the budget itself.  A unit of the whole pair would
    # carry the cancelled denominators and refuse it at 609 bits.
    shared = (Fraction(1, 2**601 + 3), Fraction(1, 2**600 + 1))
    mu = make_measure([(2 * k, 1) for k in range(128)] + [shared])
    nu = make_measure([(2 * k + 1, 1) for k in range(128)] + [shared])
    assert 256**2 * 512**2 == orders.MAX_CONVOLUTION_WORK
    verdict, profile = rasa_criterion(mu, nu)
    assert verdict.holds and len(profile.breakpoints) == 511
    assert gap_functional(mu, nu, quad_fn(1)) == 2 * 128 * 128
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 256**2 * 512**2 - 1)
    message = _work_message("the signed square of 256 breakpoints", 65536, 8, 256**2 * 512**2 - 1)
    with pytest.raises(BadParameter, match=message):
        rasa_criterion(mu, nu)
    with pytest.raises(BadParameter, match=message):
        gap_functional(mu, nu, quad_fn(1))


# -- gap functional -------------------------------------------------------------


def test_gap_square_on_diracs():
    assert gap_functional(dirac(0), dirac(1), quad_fn(1)) == 2


def test_gap_affine_vanishes():
    mu, nu = cross_pair()
    assert gap_functional(mu, nu, affine_fn(Fraction(5, 3), -2)) == 0


def test_gap_hinge_equals_profile_value():
    mu, nu = cross_pair()
    assert gap_functional(mu, nu, hinge_fn(3)) == -H
    _, profile = rasa_criterion(mu, nu)
    assert profile.value(3) == -H


def test_gap_requires_equal_mass():
    with pytest.raises(MassMismatch):
        gap_functional(dirac(0), make_measure([(0, 2)]), quad_fn(1))


# equal-mass pairs with negative and fractional positions; a zero first
# measure scales the second to zero too
_equal_mass_pairs = st.tuples(helpers.measures, helpers.nonempty_measures).map(
    lambda pair: (pair[0], pair[1].scaled(pair[0].mass / pair[1].mass))
)
_coefficients = st.fractions(min_value=0, max_value=4, max_denominator=4)
_test_fns = st.builds(
    ConvexTestFn,
    const=helpers.rationals,
    slope=helpers.rationals,
    curve=_coefficients,
    hinges=st.lists(st.tuples(helpers.rationals, _coefficients), max_size=3).map(tuple),
)
_PHI = ConvexTestFn(1, -2, H, ((Fraction(-1, 3), 1), (H, 3)))


@given(_equal_mass_pairs, _test_fns)
@example((make_measure([(Fraction(-3, 2), H), (Fraction(1, 3), 2)]),) * 2, _PHI)  # identical
@example((make_measure([]), make_measure([])), _PHI)  # two zero measures
@example(  # the shared position 1 cancels in mu - nu, the shared -1/2 only in part
    (
        make_measure([(Fraction(-1, 2), 1), (1, 1), (4, 1)]),
        make_measure([(Fraction(-1, 2), H), (1, 1), (Fraction(5, 2), Fraction(3, 2))]),
    ),
    _PHI,
)
def test_gap_functional_matches_three_convolution_oracle(pair, phi):
    mu, nu = pair
    assert gap_functional(mu, nu, phi) == helpers.gap_functional_oracle(mu, nu, phi)


def test_gap_functional_and_oracle_refuse_unequal_masses_alike():
    pairs = [
        (dirac(0), make_measure([(0, 2)])),
        (make_measure([(H, Fraction(1, 3))]), make_measure([])),
        (make_measure([(-1, H), (1, H)]), make_measure([(0, Fraction(2, 3))])),
    ]
    for mu, nu in pairs:
        with pytest.raises(MassMismatch) as ours:
            gap_functional(mu, nu, _PHI)
        with pytest.raises(MassMismatch) as oracle:
            helpers.gap_functional_oracle(mu, nu, _PHI)
        assert str(ours.value) == str(oracle.value)
        assert str(ours.value).startswith("masses differ: ")


def test_gap_functional_builds_no_convolution(monkeypatch):
    # phi is tabulated on ints (ConvexTestFn._tabulate), never called
    def refuse(*args):
        raise AssertionError("gap_functional must neither convolve, integrate nor call phi")

    mu, nu = cross_pair()
    expected = helpers.gap_functional_oracle(mu, nu, _PHI)
    monkeypatch.setattr(measures, "convolve", refuse)
    monkeypatch.setattr(ConvexTestFn, "integrate", refuse)
    monkeypatch.setattr(ConvexTestFn, "__call__", refuse)
    assert gap_functional(mu, nu, hinge_fn(3)) == -H
    assert gap_functional(mu, nu, _PHI) == expected


def test_gap_functional_refuses_a_phi_that_is_not_a_convex_test_fn(monkeypatch):
    # refused before the signed square: only a ConvexTestFn has a table
    monkeypatch.setattr(orders, "_product_row", helpers.refuse("_product_row"))
    mu, nu = cross_pair()
    with pytest.raises(NonConvexTestFn, match="^test function must be a ConvexTestFn$"):
        gap_functional(mu, nu, lambda t: t * t)


def test_convex_fn_rejects_negative_certificates():
    with pytest.raises(NonConvexTestFn):
        quad_fn(-1)
    with pytest.raises(NonConvexTestFn):
        hinge_fn(0, -2)


def test_convex_fn_unit_interval_bound():
    # |t - 1/2| as affine + hinge: sup on [0,1] is 1/2
    phi = ConvexTestFn(const=H, slope=-1, hinges=((H, Fraction(2)),))
    assert phi.bound_on_unit_interval() == H
    # (1-u)^2: sup 1 at u=0, interior minimum 0 at u=1
    psi = ConvexTestFn(const=1, slope=-2, curve=1)
    assert psi.bound_on_unit_interval() == 1
    # vertex inside the interval: (u - 1/4)^2 sup is 9/16
    chi = ConvexTestFn(const=Fraction(1, 16), slope=-H, curve=1)
    assert chi.bound_on_unit_interval() == Fraction(9, 16)
    # derivative sign change exactly at a hinge kink: min is -1/4 there
    kinked = ConvexTestFn(slope=-1, curve=1, hinges=((H, Fraction(2)),))
    assert kinked(H) == -Fraction(1, 4)
    assert kinked.bound_on_unit_interval() == Fraction(1)  # phi(1) = 1
    # and a case where that kink minimum dominates both endpoints
    dipped = ConvexTestFn(slope=-1, curve=1, hinges=((H, Fraction(1, 4)),))
    assert (dipped(0), dipped(H), dipped(1)) == (0, -Fraction(1, 4), Fraction(1, 8))
    assert dipped.bound_on_unit_interval() == Fraction(1, 4)


# convex test functions of every shape: zero, constant, affine, quadratic,
# and hinges at negative thresholds, above 1 and off any grid a table uses
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_nonneg = st.fractions(min_value=0, max_value=5, max_denominator=12)
_thresholds = st.one_of(
    st.fractions(min_value=-3, max_value=Fraction(-1, 50), max_denominator=50),
    st.fractions(min_value=Fraction(51, 50), max_value=3, max_denominator=50),
    st.fractions(min_value=0, max_value=1, max_denominator=2**70),
)
_hinges = st.lists(st.tuples(_thresholds, _nonneg), max_size=4)
convex_fns = st.one_of(
    st.just(ConvexTestFn()),
    st.builds(lambda c: ConvexTestFn(const=c), _coeffs),
    st.builds(affine_fn, _coeffs, _coeffs),
    st.builds(quad_fn, _nonneg),
    st.builds(lambda hs: ConvexTestFn(hinges=tuple(hs)), _hinges),
    st.builds(lambda c, b, q, hs: ConvexTestFn(c, b, q, tuple(hs)), _coeffs, _coeffs, _nonneg, _hinges),
)


@st.composite
def _grids(draw):
    den = draw(st.integers(1, 2**64))
    return den, draw(st.lists(st.integers(-4 * den, 4 * den), max_size=8))


@settings(max_examples=300, deadline=None)
@given(phi=convex_fns, grid=_grids())
@example(phi=ConvexTestFn(), grid=(1, []))
@example(phi=hinge_fn(Fraction(1, 3), 2) + quad_fn(1), grid=(3, [-1, 0, 1, 2, 3]))  # at the kink
@example(phi=hinge_fn(-H) + affine_fn(1, -1), grid=(2**64, [-(2**63), -(2**63) - 1]))
def test_tabulate_matches_the_literal_phi(phi, grid):
    # the int table of the gaps against ConvexTestFn.__call__, the literal
    # evaluator, at s/den for signed int sums s
    den, sums = grid
    unit, values = phi._tabulate(sums, den)
    assert type(unit) is int and unit >= 1 and all(type(v) is int for v in values)
    assert [Fraction(v, unit) for v in values] == [phi(Fraction(s, den)) for s in sums]
    assert phi._tabulate(range(len(sums)), den) == phi._tabulate(list(range(len(sums))), den)


@settings(max_examples=200, deadline=None)
@given(phi=convex_fns)
@example(phi=ConvexTestFn(slope=-1, curve=1, hinges=((H, Fraction(1, 4)),)))
@example(phi=ConvexTestFn(slope=-3, curve=1, hinges=((-H, 1), (Fraction(1, 3), 1), (H, 1))))
def test_unit_interval_bound_matches_the_running_ramp_oracle(phi):
    assert phi.bound_on_unit_interval() == helpers.unit_interval_bound_oracle(phi)


def test_convex_fn_rescale_argument():
    phi = hinge_fn(2, 3) + quad_fn(1) + affine_fn(1, 5)
    scaled = phi.rescale_argument(Fraction(1, 4))
    for t in (Fraction(-3), Fraction(0), Fraction(8), Fraction(17, 3)):
        assert scaled(t) == phi(t / 4)


# -- randomized invariants ------------------------------------------------------


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_criterion_agrees_with_oracle(rng):
    mu, nu = helpers.equal_mass_pair(rng, max_atoms=5)
    verdict, profile = rasa_criterion(mu, nu)
    assert verdict.holds == rasa_direct(mu, nu).holds
    # proof identity at every profile breakpoint
    for a in profile.breakpoints:
        assert gap_functional(mu, nu, hinge_fn(a)) == profile.value(a)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), helpers.rationals)
def test_proof_identity_at_arbitrary_points(rng, shift):
    # the hinge-gap identity holds for every threshold, not only at kinks,
    # so it also exercises the linear interpolation between breakpoints
    mu, nu = helpers.equal_mass_pair(rng, max_atoms=4)
    _, profile = rasa_criterion(mu, nu)
    probes = [shift, shift + Fraction(1, 7), 3 * shift - Fraction(5, 3)]
    probes += [a + Fraction(1, 13) for a in profile.breakpoints[:3]]
    for a in probes:
        assert gap_functional(mu, nu, hinge_fn(a)) == profile.value(a)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_sufficiency_under_stochastic_comparability(rng):
    mu, nu = helpers.st_comparable_pair(rng)
    assert leq_st(mu, nu).holds
    verdict, _ = rasa_criterion(mu, nu)
    assert verdict.holds


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_profile_symmetry_and_support(rng):
    mu, nu = helpers.equal_mass_pair(rng, max_atoms=4)
    _, left = rasa_criterion(mu, nu)
    _, right = rasa_criterion(nu, mu)
    assert left == right
    positions = mu.positions() + nu.positions()
    if positions and not left.is_zero:
        assert min(left.breakpoints) >= 2 * min(positions)
        assert max(left.breakpoints) <= 2 * max(positions)
        assert left.value(2 * min(positions) - 1) == 0
        assert left.value(2 * max(positions) + 1) == 0


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_second_moment_identity(rng):
    mu, nu = helpers.equal_mass_pair(rng, max_atoms=4)
    assert gap_functional(mu, nu, quad_fn(1)) == 2 * (mu.mean - nu.mean) ** 2


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_curvature_lower_bound(rng):
    # for pairs satisfying the criterion, gap(phi) >= inf phi'' * (mean gap)^2
    mu, nu = helpers.st_comparable_pair(rng)
    mu = mu.scaled(1 / mu.mass)
    nu = nu.scaled(1 / nu.mass)
    curve = Fraction(rng.randint(0, 3), 2)
    phi = quad_fn(curve) + hinge_fn(Fraction(rng.randint(-4, 4), 2), rng.randint(0, 3))
    assert gap_functional(mu, nu, phi) >= 2 * curve * (mu.mean - nu.mean) ** 2


def test_leq_cx_means_and_masses_are_forced():
    rng = random.Random(7)
    for _ in range(50):
        mu, nu = helpers.equal_mass_pair(rng, max_atoms=4)
        if leq_cx(mu, nu).holds:
            assert mu.mass == nu.mass and mu.mean == nu.mean


def _work_message(what, pairs, bits, work=2**34):
    return "^" + re.escape(helpers.convolution_work_message(what, pairs, bits, work)) + "$"


def test_convolution_work_budget_boundary(monkeypatch):
    # 128 atoms at the even and 128 at the odd integers: H has 256
    # breakpoints, so the signed square forms 256^2 pairs of small ints,
    # counted at 512 bits: the budget itself
    assert orders.MAX_CONVOLUTION_WORK == 2**16 * 512**2
    evens = make_measure([(2 * k, 1) for k in range(128)])
    odds = make_measure([(2 * k + 1, 1) for k in range(128)])
    verdict, profile = rasa_criterion(evens, odds)
    assert verdict.holds and len(profile.breakpoints) == 511
    assert gap_functional(evens, odds, quad_fn(1)) == 2 * 128 * 128
    wider = make_measure([(2 * k + 1, Fraction(128, 129)) for k in range(129)])
    # the first atom of each measure moved right by t = 2^-16381: 8
    # breakpoints scaled to ints of up to 7 * 2^16381, 16,384 bits, are the
    # budget itself, and 10 breakpoints of up to 16,385 bits are past it
    t = Fraction(1, 2**16381)
    mu = make_measure([(2 * k + (t if k == 0 else 0), 1) for k in range(4)])
    nu, six = (
        make_measure([(2 * k + 1 + (t if k == 0 else 0), Fraction(4, n)) for k in range(n)]) for n in (4, 6)
    )
    assert len(cdf_diff(mu, nu).breakpoints) == 8
    assert rasa_criterion(mu, nu)[1] is not None
    monkeypatch.setattr(orders, "_product_row", helpers.refuse("_product_row"))
    message = _work_message("the signed square of 257 breakpoints", 66049, 9)
    with pytest.raises(BadParameter, match=message):
        rasa_criterion(evens, wider)
    with pytest.raises(BadParameter, match=message):
        gap_functional(evens, wider, quad_fn(1))
    with pytest.raises(BadParameter, match=message):
        step_self_convolution(cdf_diff(evens, wider))
    with pytest.raises(BadParameter, match=_work_message("the signed square of 10 breakpoints", 100, 16385)):
        rasa_criterion(mu, six)


def test_rasa_direct_counts_its_convex_order_test_with_the_convolutions(monkeypatch):
    # weights over d = 2^600 + 1 scale to small ints, so the 37 pairs of the
    # three convolutions count 512 bits each, but the weights of the
    # convolutions have denominators of about 1,200 bits: leq_cx alone on
    # their 13 atoms would be past a budget at rasa_direct's own work
    d = 2**600 + 1
    mu = make_measure([(k, Fraction(1, d)) for k in range(3)])
    nu = make_measure([(k, Fraction(3, 4 * d)) for k in range(4)])
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 37 * 512**2)
    left = convolve(mu, nu)
    right = mix((H, H), (convolve(mu, mu), convolve(nu, nu)))
    with pytest.raises(BadParameter, match="the convex-order test of 6 and 7 atoms: 13 atoms on 1203-bit"):
        leq_cx(left, right)
    assert rasa_direct(mu, nu) == helpers.leq_cx_oracle(left, right)


def test_rasa_direct_takes_the_convolution_work_budget(monkeypatch):
    # 3 and 4 atoms: 3*4 + 3^2 + 4^2 = 37 pairs in the three convolutions
    mu = make_measure([(0, 4), (1, 4), (2, 4)])
    nu = make_measure([(0, 3), (1, 3), (2, 3), (3, 3)])
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 37 * 512**2)
    assert rasa_direct(mu, nu) == rasa_criterion(mu, nu)[0]
    monkeypatch.setattr(orders, "MAX_CONVOLUTION_WORK", 37 * 512**2 - 1)
    monkeypatch.setattr(measures, "convolve", helpers.refuse("convolve"))
    message = _work_message("the three convolutions of 3 and 4 atoms", 37, 3, 37 * 512**2 - 1)
    with pytest.raises(BadParameter, match=message):
        rasa_direct(mu, nu)
    # the widest int is one that convolve builds: the positions of both
    # measures over one denominator, here 2^21000 or 2^22000, and 37 pairs
    # of ints of up to 21,002 bits pass, of 22,002 bits do not
    monkeypatch.undo()
    near, far = (make_measure([(Fraction(1, 2**e), 4), (1, 4), (2, 4)]) for e in (21000, 22000))
    assert rasa_direct(near, nu).holds is rasa_criterion(near, nu)[0].holds
    monkeypatch.setattr(measures, "convolve", helpers.refuse("convolve"))
    with pytest.raises(BadParameter, match=_work_message("the three convolutions of 3 and 4 atoms", 37, 22002)):
        rasa_direct(far, nu)
