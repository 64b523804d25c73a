"""Order decisions: stochastic order, convex order, and the profile test."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from cxorder import (
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
    rng = random.Random(11)
    kinds = set()
    for _ in range(60):
        mu = helpers.random_measure(rng, max_atoms=5)
        nu = helpers.random_measure(rng, max_atoms=5)
        common = helpers.random_measure(rng, max_atoms=3)
        for a, b in _cx_variants(mu, nu, common, _mean_zero(rng)):
            verdict = leq_cx(a, b)
            assert verdict == helpers.leq_cx_oracle(a, b)
            kinds.add(verdict.witness.kind if verdict.witness else "holds")
    assert kinds == {"mass", "mean", "hinge", "holds"}


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
    from cxorder import orders

    def refuse(*args):
        raise AssertionError("gap_functional must neither convolve nor integrate")

    monkeypatch.setattr(orders, "convolve", refuse)
    monkeypatch.setattr(ConvexTestFn, "integrate", refuse)
    mu, nu = cross_pair()
    assert gap_functional(mu, nu, hinge_fn(3)) == -H
    assert gap_functional(mu, nu, _PHI) == helpers.gap_functional_oracle(mu, nu, _PHI)


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
