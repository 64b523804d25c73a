"""Basis gaps, product-operator inequalities, certified double sums."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import helpers
from cxorder import (
    BadParameter,
    BivariateFn,
    ConvexTestFn,
    Inconclusive,
    ModeArity,
    NonConvexTestFn,
    absdiff_surface,
    affine_fn,
    binomial_measure,
    binomial_weights,
    compose_convex,
    dirac,
    eq6prim_gap,
    gap_functional,
    gav_gap,
    gav_scan,
    gavrea_p4_sum,
    hinge_fn,
    hinge_surface,
    make_measure,
    multi_rasa_gap,
    poly_surface,
    quad_fn,
    rasa_criterion,
    rasa_gap,
    rasa_scan,
    supermodularity_check,
    tensor_bernstein,
    unit_grid,
)
from cxorder import bernstein, measures

H = Fraction(1, 2)
Q = Fraction(1, 4)
ABS_MID = ConvexTestFn(const=H, slope=-1, hinges=((H, Fraction(2)),))  # |t - 1/2|


def brute_rasa_gap(n, x, y, phi):
    """Independent oracle: the literal double sum over basis indices."""
    u, v = binomial_weights(n, x), binomial_weights(n, y)
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(n + 1):
            bracket = u[i] * u[j] + v[i] * v[j] - 2 * u[i] * v[j]
            total += bracket * phi(Fraction(i + j, 2 * n))
    return total


def test_binomial_measure_examples():
    assert binomial_measure(1, H) == make_measure([(0, H), (1, H)])
    b2 = binomial_measure(2, H)
    assert b2 == make_measure([(0, Q), (1, H), (2, Q)])
    assert binomial_weights(2, H)[1] == H
    assert binomial_measure(3, 0) == dirac(0)
    assert binomial_measure(2, 1) == dirac(2)
    assert b2.mass == 1 and b2.mean == 1


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), x=st.fractions(min_value=0, max_value=1, max_denominator=30))
@example(n=5, x=Fraction(0))
@example(n=5, x=Fraction(1))
def test_binomial_weights_match_the_literal_powers(n, x):
    # the rows are built on ints over q^n; the literal Fraction formula is
    # the reference for them and for every oracle built on binomial_weights
    literal = [math.comb(n, i) * x**i * (1 - x) ** (n - i) for i in range(n + 1)]
    assert binomial_weights(n, x) == literal
    assert all(type(w) is Fraction for w in binomial_weights(n, x))


def test_binomial_measure_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        binomial_measure(0, H)
    with pytest.raises(BadParameter):
        binomial_measure(2, Fraction(3, 2))


def test_rasa_gap_zero_on_diagonal():
    assert rasa_gap(3, Fraction(2, 7), Fraction(2, 7), hinge_fn(H)) == 0


def test_rasa_gap_corner_absolute_value():
    # phi(0) + phi(1) - 2*phi(1/2) for phi = |t - 1/2|
    assert rasa_gap(1, 0, 1, ABS_MID) == 1


def test_rasa_gap_matches_rescaled_gap_functional():
    n, x, y = 2, Q, Fraction(3, 4)
    phi = hinge_fn(H)
    direct = rasa_gap(n, x, y, phi)
    rescaled = helpers.rescale_argument(phi, Fraction(1, 2 * n))
    via_measures = gap_functional(binomial_measure(n, x), binomial_measure(n, y), rescaled)
    assert direct == via_measures
    _, profile = rasa_criterion(binomial_measure(n, x), binomial_measure(n, y))
    assert direct == profile.value(2) * Fraction(1, 2 * n)
    assert direct > 0


def test_rasa_gap_matches_brute_double_sum():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 3)
        x = Fraction(rng.randint(0, 8), 8)
        y = Fraction(rng.randint(0, 8), 8)
        phi = hinge_fn(Fraction(rng.randint(0, 4), 4), rng.randint(1, 3)) + quad_fn(
            rng.randint(0, 2)
        )
        assert rasa_gap(n, x, y, phi) == brute_rasa_gap(n, x, y, phi)


def test_multi_rasa_gap_reduces_to_pairs():
    phi = hinge_fn(Fraction(3, 8), 2) + quad_fn(1)
    for x, y in ((0, 1), (Q, Fraction(3, 4)), (H, Fraction(7, 8))):
        assert multi_rasa_gap(2, [x, y], phi) == rasa_gap(2, x, y, phi)


def test_multi_rasa_gap_three_points():
    phi = hinge_fn(H)
    # independent oracle: the literal triple sum
    xs = (Fraction(0), H, Fraction(1))
    rows = [binomial_weights(1, x) for x in xs]
    expected = Fraction(0)
    for i1, i2, i3 in itertools.product((0, 1), repeat=3):
        mixed = rows[0][i1] * rows[1][i2] * rows[2][i3]
        same = sum(r[i1] * r[i2] * r[i3] for r in rows)
        expected += (same - 3 * mixed) * phi(Fraction(i1 + i2 + i3, 3))
    value = multi_rasa_gap(1, list(xs), phi)
    assert value == expected
    assert value > 0


eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))
hinge_quads = st.builds(
    lambda a, c, q: hinge_fn(Fraction(a, 4), c) + quad_fn(q),
    st.integers(0, 4), st.integers(1, 3), st.integers(0, 2),
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), xs=st.lists(eighths, min_size=1, max_size=5), phi=hinge_quads)
@example(n=2, xs=[Fraction(0), Fraction(1), Fraction(1)], phi=quad_fn(1))
@example(n=4, xs=[Fraction(0), Q, Q, Fraction(1), H], phi=hinge_fn(H))
def test_multi_rasa_gap_matches_the_power_loop_oracle(n, xs, phi):
    value = multi_rasa_gap(n, xs, phi)
    assert isinstance(value, Fraction)
    assert value == helpers.multi_rasa_gap_oracle(n, xs, phi)


def test_multi_rasa_gap_is_m_block_gaps(monkeypatch):
    calls = []

    def block_gap(ns, xs, phi):
        calls.append((ns, xs, phi))
        return Fraction(1, 7)

    def refuse(*args):
        raise AssertionError("multi_rasa_gap builds no row and no phi table of its own")

    monkeypatch.setattr(bernstein, "eq6prim_gap", block_gap)
    monkeypatch.setattr(bernstein, "_basis_ints", refuse)
    monkeypatch.setattr(bernstein, "_int_product", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    phi = quad_fn(1)
    assert multi_rasa_gap(3, [0, H, 1], phi) == Fraction(3, 7)
    assert calls == [([3, 3, 3], [0, H, 1], phi)]


def test_multi_rasa_gap_takes_the_block_degree_budget(monkeypatch):
    def refuse(*args):
        raise AssertionError("no row and no phi value may be built")

    monkeypatch.setattr(bernstein, "comb", refuse)
    monkeypatch.setattr(bernstein, "_int_product", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    with pytest.raises(BadParameter, match="^degree 1536 exceeds MAX_DEGREE = 512$"):
        multi_rasa_gap(512, [0, H, 1], quad_fn(1))


mixed_points = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), xs=st.lists(mixed_points, min_size=1, max_size=4), phi=hinge_quads)
@example(n=3, xs=[Fraction(1, 3), Fraction(2, 5), Fraction(6, 7)],
         phi=hinge_fn(Fraction(3, 8)) + quad_fn(Fraction(2, 5)) + affine_fn(1, Fraction(1, 3)))
def test_eq6prim_gap_on_mixed_denominators_matches_the_power_loop_oracle(n, xs, phi):
    # each point keeps its own denominator; phi is tabulated, never called
    expected = helpers.multi_rasa_gap_oracle(n, xs, phi)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ConvexTestFn, "__call__", helpers.refuse("ConvexTestFn.__call__"))
        blocks = eq6prim_gap([n] * len(xs), xs, phi)
        assert multi_rasa_gap(n, xs, phi) == expected == len(xs) * blocks
        if len(xs) == 2:
            assert rasa_gap(n, *xs, phi) == expected


@pytest.mark.parametrize(
    "gap",
    [
        lambda phi: rasa_gap(2, Q, Fraction(2, 3), phi),
        lambda phi: rasa_scan(2, [0, Fraction(1, 3), 1], phi),
        lambda phi: eq6prim_gap([1, 2], [Q, Fraction(2, 3)], phi),
        lambda phi: multi_rasa_gap(2, [0, Q, Fraction(2, 3)], phi),
        lambda phi: gavrea_p4_sum(1, Q, Fraction(3, 4), phi),
        lambda phi: gavrea_p4_sum(1, Q, Q, phi),
    ],
    ids=["rasa_gap", "rasa_scan", "eq6prim_gap", "multi_rasa_gap", "gavrea_p4_sum",
         "gavrea_p4_sum_equal_points"],
)
def test_gaps_refuse_a_phi_that_is_not_a_convex_test_fn(gap, monkeypatch):
    # a plain callable has no table: refused before any basis row or
    # truncation, even where x = y makes the box vanish
    monkeypatch.setattr(bernstein, "_basis_ints", helpers.refuse("_basis_ints"))
    monkeypatch.setattr(bernstein, "truncate_negbinomial", helpers.refuse("truncate_negbinomial"))
    with pytest.raises(NonConvexTestFn, match="^test function must be a ConvexTestFn$"):
        gap(lambda t: t * t)


def test_multi_rasa_gap_equal_points_vanishes():
    phi = hinge_fn(Fraction(1, 3))
    assert multi_rasa_gap(2, [Q, Q, Q], phi) == 0


# -- the self-form kernel --------------------------------------------------------

signed_rows = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=9), min_size=1, max_size=7
)


def self_form(d, phis):
    """bernstein._self_form on Fraction rows: d and phis scaled to ints by
    their least common denominators, one Fraction at the end."""
    (d_scale, ds), (phi_scale, ps) = measures._scaled_ints(d), measures._scaled_ints(phis)
    return Fraction(bernstein._self_form(ds, ps), d_scale * d_scale * phi_scale)


@settings(max_examples=150, deadline=None)
@given(u=signed_rows, v=signed_rows, phi=hinge_quads, shift=st.integers(1, 8))
@example(u=[Fraction(1, 3)] * 3, v=[Fraction(1, 3)] * 3, phi=quad_fn(1), shift=2)  # u = v
@example(u=[Fraction(1)], v=[Fraction(0), H, H], phi=hinge_fn(H), shift=1)
def test_phi_form_matches_the_squared_difference_oracle(u, v, phi, shift):
    # rows of unequal length and phi on a grid s / (shift + s), the grid of
    # the gavrea_p4_sum box
    phi_at = lambda s: phi(Fraction(s, shift + s))
    d = [a - b for a, b in itertools.zip_longest(u, v, fillvalue=0)]
    value = self_form(d, [phi_at(s) for s in range(2 * len(d) - 1)])
    assert isinstance(value, Fraction)
    assert value == helpers.squared_difference_gap_oracle(u, v, phi_at)


# signed rows with denominators up to 2^80, as wide as the p4 box rows get
wide_signed_rows = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=2**80)),
    min_size=1, max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    d=wide_signed_rows,
    phis=st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=2**40), min_size=23, max_size=23),
)
@example(d=[Fraction(0)], phis=[Fraction(1)] * 23)
@example(d=[H, Fraction(0), -H], phis=[Fraction(s, 3) for s in range(23)])
def test_phi_form_self_form_matches_the_hankel_row_oracle(d, phis):
    # the self form sums i <= j only; the oracle sums every Hankel row, and
    # a row scaled by 1/2 scales the form by 1/4
    phis = phis[: 2 * len(d) - 1]
    expected = helpers.phi_form_oracle(d, d, phis)
    assert self_form(d, phis) == expected
    halves = [c / 2 for c in d]
    assert self_form(halves, phis) == helpers.phi_form_oracle(halves, halves, phis) == expected / 4


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), x=eighths, y=eighths, phi=hinge_quads)
@example(n=3, x=Fraction(0), y=Fraction(1), phi=hinge_fn(H))
@example(n=3, x=Fraction(1), y=Fraction(1), phi=quad_fn(1))
@example(n=4, x=Q, y=Q, phi=hinge_fn(Q) + quad_fn(2))
def test_phi_form_on_basis_rows_matches_the_squared_difference_oracle(n, x, y, phi):
    phi_at = lambda s: phi(Fraction(s, 2 * n))
    u, v = binomial_weights(n, x), binomial_weights(n, y)
    d = [a - b for a, b in zip(u, v)]
    expected = helpers.squared_difference_gap_oracle(u, v, phi_at)
    assert self_form(d, [phi_at(s) for s in range(2 * n + 1)]) == expected
    assert rasa_gap(n, x, y, phi) == expected


def test_tensor_bernstein_partition_of_unity():
    ones = poly_surface([(1, (0, 0))])
    assert tensor_bernstein(ones, [3, 2], [Fraction(2, 5), Fraction(1, 7)]) == 1


def test_tensor_bernstein_product_function():
    g = poly_surface([(1, (1, 1))])
    x, y = Fraction(1, 3), Fraction(4, 7)
    assert tensor_bernstein(g, [1, 1], [x, y]) == x * y


def test_tensor_bernstein_absdiff_corner():
    g = absdiff_surface(1)
    assert tensor_bernstein(g, [4, 4], [0, 1]) == 1


def test_gav_gap_p1p_absolute_difference_counterexample():
    assert gav_gap("P1p", absdiff_surface(1), [1, 1], [0, 1]) == -2
    assert gav_gap("P1p", absdiff_surface(1), [3, 3], [0, 1]) == -2


def test_gav_gap_p1_midpoint_recovers_rasa_gap():
    phi = hinge_fn(H)
    g = compose_convex(phi, (H, H))
    for n in (1, 2):
        for x, y in ((0, 1), (Q, Fraction(3, 4)), (Fraction(1, 8), Fraction(5, 8))):
            assert gav_gap("P1", g, [n, n], [x, y]) == rasa_gap(n, x, y, phi)


def test_gav_gap_vanishes_on_diagonal():
    g = compose_convex(quad_fn(1), (H, H))
    for mode in ("P1", "P1p"):
        assert gav_gap(mode, g, [2, 2], [Fraction(1, 3), Fraction(1, 3)]) == 0
    g3 = compose_convex(quad_fn(1), (Fraction(1, 3),) * 3)
    assert gav_gap("P3", g3, [1, 1, 1], [H, H, H]) == 0
    assert gav_gap("P3p", g3, [1, 1, 1], [H, H, H]) == 0


def test_gav_gap_addition_identity():
    # swapping the two points in the one-sided gap adds up to twice the
    # symmetrised gap
    g = hinge_surface(2, (1, Fraction(-1, 2)), Q) + absdiff_surface(H)
    for x, y in ((0, 1), (Q, H), (Fraction(7, 8), Fraction(1, 8))):
        one_sided = gav_gap("P1", g, [2, 2], [x, y]) + gav_gap("P1", g, [2, 2], [y, x])
        assert one_sided == 2 * gav_gap("P1p", g, [2, 2], [x, y])


def test_gav_gap_p3_block_splitting():
    phi = hinge_fn(Fraction(2, 5))
    weights = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    g = compose_convex(phi, weights)
    gap = gav_gap("P3", g, [1, 1, 1], [0, H, 1])
    assert gap >= 0


def test_gav_gap_mode_and_point_validation():
    g = absdiff_surface(1)
    with pytest.raises(ModeArity):
        gav_gap("P1", g, [1, 1], [0, H, 1])
    with pytest.raises(ModeArity):
        gav_gap("P9", g, [1, 1], [0, 1])
    with pytest.raises(BadParameter):
        gav_gap("P1", g, [1, 1], [0, 2])


def test_supermodularity_check_quadratic_sum():
    g = compose_convex(quad_fn(1), (1, 1))  # (u + v)^2
    assert supermodularity_check(g, unit_grid(Q)).holds


def test_supermodularity_check_absdiff_fails():
    verdict = supermodularity_check(absdiff_surface(1), unit_grid(H))
    assert verdict.holds is False
    x1, x2, y1, y2 = verdict.witness.point
    g = absdiff_surface(1)
    assert g([x1, x2]) + g([y1, y2]) < g([x1, y2]) + g([y1, x2])


def test_supermodularity_check_modular_boundary():
    g = poly_surface([(1, (1, 0)), (1, (0, 1))])  # u + v
    assert supermodularity_check(g, unit_grid(H)).holds


def test_supermodular_predicts_one_sided_gap():
    # convex + supermodular (grid-screened) functions keep the symmetrised
    # gap non-negative for binomial inputs across the whole grid
    candidates = [
        compose_convex(quad_fn(1), (1, 1)),
        compose_convex(hinge_fn(H), (H, H)),
        hinge_surface(1, (1, 1), Fraction(3, 4)),
    ]
    grid = unit_grid(Q)
    for g in candidates:
        assert g.convex_cert == "construction"
        assert supermodularity_check(g, grid).holds
        for x in grid:
            for y in grid:
                assert gav_gap("P1p", g, [2, 2], [x, y]) >= 0


def test_eq6prim_hand_value():
    assert eq6prim_gap([1, 1], [0, 1], hinge_fn(H)) == Q


def test_eq6prim_evaluates_phi_once_per_grid_point(monkeypatch):
    # one phi table of phi(s/m), s = 0..m, and no literal phi value
    phi = hinge_fn(Fraction(1, 3), 2) + quad_fn(1)
    calls = []
    tabulate = ConvexTestFn._tabulate

    def counting(self, sums, den):
        calls.append((list(sums), den))
        return tabulate(self, sums, den)

    monkeypatch.setattr(ConvexTestFn, "_tabulate", counting)
    monkeypatch.setattr(ConvexTestFn, "__call__", helpers.refuse("ConvexTestFn.__call__"))
    n, xs = 4, [Fraction(1, k) for k in range(2, 10)]  # 8 blocks, m = 32
    gap = eq6prim_gap([n] * len(xs), xs, phi)
    assert calls == [(list(range(n * len(xs) + 1)), n * len(xs))]
    monkeypatch.undo()
    # a sum of m independent B(n, x) is B(m n, x): the m-point gap is m blocks
    assert gap == helpers.multi_rasa_gap_oracle(n, xs, phi) / len(xs)


def test_eq6prim_single_block_vanishes():
    phi = hinge_fn(Fraction(3, 7)) + quad_fn(2)
    for n, x in ((1, Q), (2, Fraction(5, 8)), (3, 1)):
        assert eq6prim_gap([n], [x], phi) == 0


def test_eq6prim_affine_vanishes():
    phi = affine_fn(3, Fraction(-2, 5))
    assert eq6prim_gap([1, 2], [Q, Fraction(2, 3)], phi) == 0
    assert eq6prim_gap([2, 2, 1], [Q, H, 1], phi) == 0


def test_eq6prim_matches_brute_sum():
    phi = hinge_fn(Fraction(1, 3), 2) + quad_fn(1)
    ns = [2, 1]
    xs = [Fraction(1, 3), Fraction(5, 6)]
    m = sum(ns)
    rows = [binomial_weights(n, x) for n, x in zip(ns, xs)]
    mixed = Fraction(0)
    for i1 in range(ns[0] + 1):
        for i2 in range(ns[1] + 1):
            mixed += rows[0][i1] * rows[1][i2] * phi(Fraction(i1 + i2, m))
    blocks = Fraction(0)
    for n, x in zip(ns, xs):
        big = binomial_weights(m, x)
        blocks += Fraction(n, m) * sum(
            w * phi(Fraction(j, m)) for j, w in enumerate(big)
        )
    assert eq6prim_gap(ns, xs, phi) == blocks - mixed


# -- certified double sums -----------------------------------------------------


def test_p4_symmetry_gives_point_interval():
    enclosure = gavrea_p4_sum(1, Q, Q, affine_fn(0, 1), Fraction(1, 2**10))
    assert (enclosure.lo, enclosure.hi) == (0, 0)
    assert enclosure.certified_sign() == 0


def test_p4_identity_function_certified_negative():
    enclosure = gavrea_p4_sum(1, Q, Fraction(3, 4), affine_fn(0, 1), Fraction(1, 2**40))
    assert enclosure.hi < 0
    assert enclosure.certified_sign() == -1


def test_p4_decreasing_convex_certified_consistent():
    square = ConvexTestFn(const=1, slope=-2, curve=1)  # (1 - u)^2
    enclosure = gavrea_p4_sum(1, Q, Fraction(3, 4), square, Fraction(1, 2**40))
    assert enclosure.lo > -Fraction(1, 2**30)
    assert enclosure.certified_sign() == 1


def test_p4_width_certificate():
    # recompute the remainder certificate independently: tau bounds the tail
    # L1 mass of the weight difference, sigma is its boxed L1 mass, and the
    # squared-difference mass outside the box is below 2*sigma*tau + tau^2
    from cxorder import truncate_negbinomial

    eps = Fraction(1, 2**20)
    phi = affine_fn(0, 1)
    enclosure = gavrea_p4_sum(2, Fraction(1, 3), Fraction(2, 3), phi, eps)
    fam_x = truncate_negbinomial(2, Fraction(1, 3), eps)
    fam_y = truncate_negbinomial(2, Fraction(2, 3), eps)
    size = max(len(fam_x.coeffs), len(fam_y.coeffs))
    ax = list(fam_x.coeffs) + [Fraction(0)] * (size - len(fam_x.coeffs))
    ay = list(fam_y.coeffs) + [Fraction(0)] * (size - len(fam_y.coeffs))
    sigma = sum(abs(a - b) for a, b in zip(ax, ay))
    tau = fam_x.tail_bound + fam_y.tail_bound
    certificate = 2 * sigma * tau + tau * tau
    bound = phi.bound_on_unit_interval()
    assert enclosure.width == 2 * bound * certificate
    assert enclosure.width <= 4 * bound * certificate


def test_p4_box_is_the_literal_double_sum():
    from cxorder import truncate_negbinomial

    eps, n, x, y = Fraction(1, 2**10), 2, Fraction(1, 3), Fraction(5, 8)
    phi = hinge_fn(H) + quad_fn(1)
    enclosure = gavrea_p4_sum(n, x, y, phi, eps)
    a, b = truncate_negbinomial(n, x, eps).coeffs, truncate_negbinomial(n, y, eps).coeffs
    assert len(a) < len(b)  # the box pads the shorter row with zeros
    d = [p - q for p, q in itertools.zip_longest(a, b, fillvalue=0)]
    box = sum(
        (d[i] * d[j] * phi(Fraction(i + j, 2 * n + i + j))
         for i in range(len(d)) for j in range(len(d))),
        Fraction(0),
    )
    assert (enclosure.lo + enclosure.hi) / 2 == box


sixteenths = st.integers(1, 15).map(lambda k: Fraction(k, 16))
p4_fns = st.builds(
    lambda c, b, q, hs: ConvexTestFn(c, b, q, tuple(hs)),
    st.fractions(-2, 2, max_denominator=3), st.fractions(-2, 2, max_denominator=3),
    st.fractions(0, 2, max_denominator=3),
    st.lists(st.tuples(st.fractions(-1, 2, max_denominator=8), st.fractions(0, 2, max_denominator=3)),
             max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), x=sixteenths, y=sixteenths, phi=p4_fns,
       eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2**10)]))
@example(n=2, x=Fraction(5, 16), y=Fraction(5, 16), phi=ConvexTestFn(1, -1, 1, ((H, 1),)),
         eps=Fraction(1, 2**10))
@example(n=1, x=Fraction(1, 16), y=Fraction(15, 16), phi=ConvexTestFn(0, 1, 0, ((Q, 2),)),
         eps=Fraction(1, 2**10))
@example(n=3, x=Fraction(2, 16), y=Fraction(3, 16), phi=ConvexTestFn(Fraction(-1, 3)), eps=Fraction(1, 4))
def test_p4_matches_the_fraction_table_oracle(n, x, y, phi, eps):
    # the box on phi's int table and one Kronecker square against the
    # Fraction table and the self form; the oracle has no budget
    try:
        enclosure = gavrea_p4_sum(n, x, y, phi, eps)
    except BadParameter as error:
        assert "MAX_SQUARE_WORK" in str(error)
        reject()
    assert enclosure == helpers.gavrea_p4_oracle(n, x, y, phi, eps)


# entries of 7/8/9 and 15/16/17 bits put the slot width on either side of a
# byte boundary; 80-bit entries give slots of several bytes
square_entries = st.one_of(
    st.just(0),
    st.sampled_from([1, 7, 8, 9, 15, 16, 17, 80]).flatmap(lambda k: st.integers(-(2**k), 2**k)),
)


@settings(max_examples=200, deadline=None)
@given(d=st.lists(square_entries, min_size=1, max_size=40))
@example(d=[0])
@example(d=[0] * 9)
@example(d=[-(2**80)])
@example(d=[2**8 - 1, -(2**8 - 1)])
@example(d=[-(2**16)] * 17)
def test_square_ints_match_the_anti_diagonal_oracle(d):
    assert bernstein._square_ints(d) == helpers.square_oracle(d)


def test_p4_inconclusive_when_interval_straddles_zero():
    # a symmetric-but-distinct pair with a huge eps cannot certify the sign
    enclosure = gavrea_p4_sum(1, Fraction(2, 5), Fraction(3, 5), affine_fn(0, 1), Fraction(1, 4))
    if enclosure.lo < 0 < enclosure.hi:
        with pytest.raises(Inconclusive):
            enclosure.certified_sign()


def test_p4_parameter_validation():
    with pytest.raises(BadParameter):
        gavrea_p4_sum(1, Fraction(0), H, affine_fn(0, 1))
    with pytest.raises(BadParameter):
        gavrea_p4_sum(0, Q, H, affine_fn(0, 1))
    # x = y gives [0, 0], but only after n and eps are checked
    with pytest.raises(BadParameter, match="^negative binomial index 4097 exceeds"):
        gavrea_p4_sum(4097, H, H, affine_fn(0, 1))
    with pytest.raises(BadParameter, match="^eps=0 must be positive$"):
        gavrea_p4_sum(1, H, H, affine_fn(0, 1), 0)


def test_p4_takes_the_negbinomial_index_budget(monkeypatch):
    from cxorder import lattice

    def refuse(*args):
        raise AssertionError("no weight and no phi value may be built")

    monkeypatch.setattr(Fraction, "__pow__", refuse)
    monkeypatch.setattr(bernstein, "_self_form", refuse)
    monkeypatch.setattr(bernstein, "_square_ints", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    with pytest.raises(BadParameter, match="^negative binomial index 4097 exceeds"):
        gavrea_p4_sum(lattice.MAX_NEGBIN_INDEX + 1, Q, H, affine_fn(0, 1))


def _refuse_box_work(monkeypatch):
    monkeypatch.setattr(bernstein, "_self_form", helpers.refuse("_self_form"))
    monkeypatch.setattr(bernstein, "_square_ints", helpers.refuse("_square_ints"))
    monkeypatch.setattr(ConvexTestFn, "_tabulate", helpers.refuse("ConvexTestFn._tabulate"))
    monkeypatch.setattr(ConvexTestFn, "__call__", helpers.refuse("phi"))


def _box_work_message(products, bits, work=2**40):
    return "^" + re.escape(helpers.square_work_message(products, bits, work)) + "$"


def test_p4_box_takes_the_square_budget(monkeypatch):
    # the box squares its difference row d, len(d)^2 products; negbinomial:1
    # stops at K = 256 for 13/16 and 27/32 and at K = 512 for 15/16, and the
    # box side is the longer truncation
    from cxorder import lattice

    assert lattice.MAX_SQUARE_WORK == 2**40
    enclosure = gavrea_p4_sum(1, Fraction(13, 16), Fraction(27, 32), quad_fn(1))
    assert enclosure.lo <= enclosure.hi
    _refuse_box_work(monkeypatch)
    with pytest.raises(BadParameter, match=_box_work_message(263169, 2053)):
        gavrea_p4_sum(1, Fraction(13, 16), Fraction(15, 16), quad_fn(1))


def test_p4_box_takes_the_bits_budget(monkeypatch):
    # at n = 190 both truncations stop at K = 16 and the difference row holds
    # 4,109-bit ints: the box is 17^2 products of 4,109^2 each
    from cxorder import lattice

    x, y, work = Fraction(1, 1000), Fraction(1, 999), 17**2 * 4109**2
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", work)
    enclosure = gavrea_p4_sum(190, x, y, quad_fn(1))
    assert enclosure.lo <= enclosure.hi
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", work - 1)
    _refuse_box_work(monkeypatch)
    with pytest.raises(BadParameter, match=_box_work_message(289, 4109, work - 1)):
        gavrea_p4_sum(190, x, y, quad_fn(1))
    # at n = 34 and x, y = 1/10^20, 2/10^20 both truncations stop at K = 1:
    # the box's 4 products on 2,326-bit ints count as 64
    x, y, work = Fraction(1, 10**20), Fraction(2, 10**20), 64 * 2326**2
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", work)
    assert gavrea_p4_sum(34, x, y, quad_fn(1)).lo > 0
    monkeypatch.setattr(lattice, "MAX_SQUARE_WORK", work - 1)
    _refuse_box_work(monkeypatch)
    with pytest.raises(BadParameter, match=_box_work_message(4, 2326, work - 1)):
        gavrea_p4_sum(34, x, y, quad_fn(1))


@pytest.mark.parametrize("arity", [-1, 0, 1])
def test_absdiff_surface_refuses_an_arity_below_two(arity):
    with pytest.raises(ModeArity, match=f"^absdiff needs arity >= 2, got {arity}$"):
        absdiff_surface(1, arity)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_absdiff_surface_is_the_distance_of_the_first_two_coordinates(arity):
    g = absdiff_surface(Q, arity)
    assert g.arity == arity
    for point in itertools.product([0, Q, 1], repeat=arity):
        assert g(point) == helpers.surface_oracle(point, absdiff_terms=[(Q, 0, 1)])


def test_surface_certificates():
    # construction-level certificates follow the closure rules
    assert absdiff_surface(1).convex_cert == "construction"
    assert absdiff_surface(1).supermodular_cert is None
    assert absdiff_surface(-1).convex_cert is None
    ridge = hinge_surface(2, (1, H), Q)
    assert ridge.convex_cert == "construction"
    assert ridge.supermodular_cert == "construction"
    signed_ridge = hinge_surface(2, (1, -H), Q)
    assert signed_ridge.supermodular_cert is None
    affine = poly_surface([(1, (1, 0)), (2, (0, 1))])
    assert affine.convex_cert == affine.supermodular_cert == "construction"
    bilinear = poly_surface([(1, (1, 1))])
    assert bilinear.convex_cert is None
    composed = compose_convex(quad_fn(1), (H, H))
    assert composed.convex_cert == "construction"
    assert composed.supermodular_cert == "construction"
    # addition keeps only evidence shared by both sides
    both = ridge + composed
    assert both.convex_cert == "construction"
    mixed = ridge + bilinear
    assert mixed.convex_cert is None


def test_compose_convex_evaluates_like_the_profile():
    phi = hinge_fn(Fraction(3, 8), 2) + quad_fn(1) + affine_fn(1, -1)
    weights = (Fraction(2, 3), Fraction(1, 3))
    g = compose_convex(phi, weights)
    for u in (Fraction(0), Q, Fraction(5, 7)):
        for v in (Fraction(1), H, Fraction(2, 9)):
            assert g([u, v]) == phi(weights[0] * u + weights[1] * v)


# -- tabulated scanners against the literal oracles ---------------------------

small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
unit_points = st.sampled_from([Fraction(k, 6) for k in range(7)] + [Q, Fraction(3, 4)])


def _absdiff(c, arity, i, j):
    """c * |u_i - u_j| for any two coordinates i != j: the ridge of
    absdiff_surface, which takes u_1 and u_2."""
    w = [0] * arity
    w[i], w[j] = 1, -1
    return bernstein._ridge(c, ConvexTestFn(slope=-1, hinges=((0, 2),)), w)


@st.composite
def surfaces(draw, arity=2, supermodular=False):
    """Sums of random polynomial, hinge and absolute-difference terms.  With
    supermodular=True only terms that are supermodular by construction:
    non-negative products, increasing convex ridges and affine terms."""
    sign = st.fractions(min_value=0, max_value=2, max_denominator=4) if supermodular else small
    alphas = st.lists(sign, min_size=arity, max_size=arity)
    kinds = ["poly", "hinge", "affine"] if supermodular else ["poly", "hinge", "absdiff", "affine"]
    g = poly_surface([(draw(small), (0,) * arity)], arity)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "poly":
            exps = draw(st.lists(st.integers(0, 2), min_size=arity, max_size=arity))
            if supermodular:  # a non-negative monomial of degree <= 1 in each variable
                exps = [min(e, 1) for e in exps]
            g = g + poly_surface([(draw(sign), tuple(exps))], arity)
        elif kind == "hinge":
            g = g + hinge_surface(draw(sign), draw(alphas), draw(small), arity)
        elif kind == "absdiff" and arity >= 2:
            i, j = draw(st.permutations(range(arity)))[:2]
            g = g + _absdiff(draw(small), arity, i, j)
        else:
            exps = [0] * arity
            exps[draw(st.integers(0, arity - 1))] = 1
            g = g + poly_surface([(draw(small), tuple(exps))], arity)
    return g


grids = st.lists(st.one_of(unit_points, small), min_size=0, max_size=8)

nonneg = st.fractions(min_value=0, max_value=2, max_denominator=4)
convex_fns = st.builds(
    ConvexTestFn, small, small, nonneg, st.lists(st.tuples(small, nonneg), max_size=2).map(tuple)
)


@st.composite
def surface_sums(draw):
    """A random sum of the four surface constructors, signed coefficients
    and weights, arity 1 to 3; with the oracle's terms and the certificates
    the three-kind surface type gave each constructor."""
    arity = draw(st.integers(1, 3))
    coords = st.lists(small, min_size=arity, max_size=arity)
    terms = {"poly_terms": [], "hinge_terms": [], "absdiff_terms": []}
    pieces, convex, supermod = [], True, True
    kinds = st.sampled_from(["poly", "hinge", "absdiff", "mid"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        c = draw(small)
        if kind == "poly":
            exps = tuple(draw(st.lists(st.integers(0, 2), min_size=arity, max_size=arity)))
            pieces.append(poly_surface([(c, exps)], arity))
            terms["poly_terms"].append((c, exps))
            affine = sum(exps) <= 1
            convex, supermod = convex and affine, supermod and affine
        elif kind == "hinge":
            alphas, a = draw(coords), draw(small)
            pieces.append(hinge_surface(c, alphas, a, draw(st.sampled_from([None, arity]))))
            terms["hinge_terms"].append((c, alphas, a))
            convex = convex and c >= 0
            supermod = supermod and c >= 0 and all(t >= 0 for t in alphas)
        elif kind == "absdiff" and arity >= 2:
            i, j = draw(st.permutations(range(arity)))[:2]
            pieces.append(_absdiff(c, arity, i, j))
            terms["absdiff_terms"].append((c, i, j))
            convex, supermod = convex and c >= 0, False
        else:
            phi, w = draw(convex_fns), draw(coords)
            pieces.append(compose_convex(phi, w))
            poly_terms, hinge_terms = helpers.compose_convex_terms(phi, w)
            terms["poly_terms"] += poly_terms
            terms["hinge_terms"] += hinge_terms
            supermod = supermod and all(t >= 0 for t in w)
    return sum(pieces[1:], pieces[0]), terms, convex, supermod


@settings(max_examples=150, deadline=None)
@given(surface_sums(), st.data())
def test_surfaces_match_the_three_kind_oracle(drawn, data):
    g, terms, convex, supermod = drawn
    points = st.lists(st.one_of(unit_points, small), min_size=g.arity, max_size=g.arity)
    for point in data.draw(st.lists(points, min_size=1, max_size=4)):
        assert g(point) == helpers.surface_oracle(point, **terms)
    assert g.convex_cert == ("construction" if convex else None)
    assert g.supermodular_cert == ("construction" if supermod else None)


# coordinates of both signs, also outside [0, 1], with unrelated denominators
mixed_coords = st.one_of(unit_points, small, st.fractions(min_value=-3, max_value=3, max_denominator=9))


def _surface_ints_at(g, points, factor):
    """bernstein._surface_ints at rational points, on the points' common
    denominator times factor, each value back as a Fraction."""
    q = factor * math.lcm(*(x.denominator for pt in points for x in pt))
    unit, ints = bernstein._surface_ints(g, [tuple(int(x * q) for x in pt) for pt in points], q)
    assert unit > 0
    return [Fraction(v, unit) for v in ints]


@settings(max_examples=150, deadline=None)
@given(surface_sums(), st.data())
def test_surface_ints_match_the_literal_evaluators(drawn, data):
    g, terms, _, _ = drawn
    point = st.lists(mixed_coords, min_size=g.arity, max_size=g.arity)
    points = data.draw(st.lists(point, min_size=1, max_size=6))
    values = _surface_ints_at(g, points, data.draw(st.integers(1, 3)))
    for pt, value in zip(points, values):
        assert value == g(pt) == helpers.surface_oracle(pt, **terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    surfaces(arity=k), st.lists(st.lists(mixed_coords, min_size=k, max_size=k), min_size=1, max_size=6),
)), st.integers(1, 3))
def test_surface_ints_match_bivariate_call_on_signed_surfaces(drawn, factor):
    g, points = drawn
    assert _surface_ints_at(g, points, factor) == [g(pt) for pt in points]


def test_surface_ints_of_an_empty_grid():
    unit, ints = bernstein._surface_ints(absdiff_surface(1), [], 7)
    assert unit > 0 and ints == []
    assert bernstein._surface_ints(poly_surface([], 2), [(1, 2)], 7) == (1, [0])


@settings(max_examples=200, deadline=None)
@given(surfaces(), grids)
def test_supermodularity_check_matches_literal_walk(g, grid):
    # unsorted grids with repeated points; the verdict, the first witness in
    # the walk order and its gap are identical
    assert supermodularity_check(g, grid) == helpers.supermodularity_check_oracle(g, grid)


@settings(max_examples=60, deadline=None)
@given(surfaces(supermodular=True), grids)
def test_supermodularity_check_passes_supermodular_surfaces(g, grid):
    verdict = supermodularity_check(g, grid)
    assert verdict.holds
    assert verdict == helpers.supermodularity_check_oracle(g, grid)


def test_supermodularity_check_oracle_comparison_covers_both_outcomes():
    # seeded random surfaces: passes, failures at the first quadruple and
    # failures further down the walk all occur, and all agree
    rng = random.Random(11)
    seen = {"holds": 0, "first": 0, "later": 0}
    for _ in range(150):
        terms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["poly", "hinge", "absdiff"])
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
            if kind == "poly":
                terms.append(poly_surface([(c, (rng.randint(0, 2), rng.randint(0, 2)))]))
            elif kind == "hinge":
                alphas = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(2)]
                terms.append(hinge_surface(c, alphas, Fraction(rng.randint(-2, 4), 4)))
            else:
                terms.append(absdiff_surface(c))
        g = sum(terms[1:], terms[0])
        grid = [Fraction(rng.randint(0, 8), 8) for _ in range(rng.randint(2, 9))]
        verdict = supermodularity_check(g, grid)
        assert verdict == helpers.supermodularity_check_oracle(g, grid)
        if verdict.holds:
            seen["holds"] += 1
        else:
            pts = sorted(set(grid))
            x1, x2, y1, y2 = verdict.witness.point
            first = (x1, y1) == (pts[0], pts[1]) and (x2, y2) == (pts[0], pts[1])
            seen["first" if first else "later"] += 1
    assert all(count >= 5 for count in seen.values()), seen


@st.composite
def operator_inputs(draw):
    # points of one denominator and of several, sevenths and fifths too
    k = draw(st.integers(1, 3))
    ns = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    coords = st.one_of(unit_points, st.fractions(min_value=0, max_value=1, max_denominator=9))
    xs = draw(st.lists(coords, min_size=k, max_size=k))
    return draw(surfaces(arity=k)), ns, xs


@settings(max_examples=150, deadline=None)
@given(operator_inputs())
@example((hinge_surface(-1, (1, Fraction(-1, 2), 2), Fraction(1, 3)) + _absdiff(1, 3, 2, 0),
          [2, 1, 3], [Fraction(1, 3), Fraction(2, 5), Fraction(6, 7)]))
def test_tensor_bernstein_matches_literal_sum(inputs):
    g, ns, xs = inputs
    assert tensor_bernstein(g, ns, xs) == helpers.tensor_bernstein_oracle(g, ns, xs)


def gav_gap_oracle(mode, g, ns, xs):
    """The four gaps of gav_gap's docstring, term by term, on the literal
    operator sum."""
    def b(degrees, point):
        return helpers.tensor_bernstein_oracle(g, degrees, point)

    if mode in ("P1", "P1p"):
        degrees = list(ns) * (2 // len(ns))
        x, y = xs
        mixed = 2 * b(degrees, [x, y]) if mode == "P1" else b(degrees, [x, y]) + b(degrees, [y, x])
        return b(degrees, [x, x]) + b(degrees, [y, y]) - mixed
    k = len(ns)
    diagonal = [b(ns, [t] * k) for t in xs]
    if mode == "P3":
        return sum(Fraction(n, sum(ns)) * d for n, d in zip(ns, diagonal)) - b(ns, xs)
    return sum(diagonal) - sum(b(ns, xs[s:] + xs[:s]) for s in range(k))


@st.composite
def gav_inputs(draw):
    mode = draw(st.sampled_from(["P1", "P1p", "P3", "P3p"]))
    if mode in ("P1", "P1p"):
        k, ns = 2, draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    else:
        k = draw(st.integers(1, 3))
        ns = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    xs = draw(st.lists(unit_points, min_size=k, max_size=k))
    return mode, draw(surfaces(arity=k)), ns, xs


@settings(max_examples=150, deadline=None)
@given(gav_inputs())
def test_gav_gap_matches_oracle_in_every_mode(inputs):
    mode, g, ns, xs = inputs
    assert gav_gap(mode, g, ns, xs) == gav_gap_oracle(mode, g, ns, xs)


@settings(max_examples=30, deadline=None)
@given(gav_inputs(), st.lists(unit_points, min_size=1, max_size=3, unique=True))
def test_gav_scan_matches_pointwise_oracle(inputs, grid):
    mode, g, ns, _ = inputs
    expected = [
        (pt, gav_gap_oracle(mode, g, ns, list(pt)))
        for pt in itertools.product(grid, repeat=g.arity)
    ]
    assert gav_scan(mode, g, ns, grid) == expected


def test_rasa_scan_matches_brute_double_sum():
    phi = hinge_fn(Fraction(3, 8), 2) + quad_fn(1)
    grid = unit_grid(Fraction(1, 5))
    for n in (1, 2, 3):
        expected = [((x, y), brute_rasa_gap(n, x, y, phi)) for x in grid for y in grid]
        assert rasa_scan(n, grid, phi) == expected


def test_rasa_scan_builds_one_row_per_grid_point(monkeypatch):
    # one basis row and one Phi u per grid point, one table of the
    # phi(s/(2n)), no self form per pair, and the symmetric gap mirrored
    rows, tables = [], []
    basis, tabulate = bernstein._basis_ints, ConvexTestFn._tabulate

    def counting_rows(n, a, q):
        rows.append(a)
        return basis(n, a, q)

    def counting_tables(self, sums, den):
        tables.append((list(sums), den))
        return tabulate(self, sums, den)

    monkeypatch.setattr(bernstein, "_basis_ints", counting_rows)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", counting_tables)
    monkeypatch.setattr(ConvexTestFn, "__call__", helpers.refuse("ConvexTestFn.__call__"))
    monkeypatch.setattr(bernstein, "_self_form", helpers.refuse("_self_form"))
    grid = unit_grid(Fraction(1, 6))
    result = rasa_scan(2, grid, hinge_fn(Fraction(1, 3)))
    assert len(rows) == 7 and tables == [([0, 1, 2, 3, 4], 4)]
    assert [point for point, _ in result] == [(x, y) for x in grid for y in grid]
    gaps = dict(result)
    assert all(gaps[x, y] == gaps[y, x] for x in grid for y in grid)
    assert all(gaps[x, x] == 0 for x in grid)


def test_operator_table_budget_is_checked_before_evaluating(monkeypatch):
    monkeypatch.setattr(bernstein, "MAX_OPERATOR_TABLE", 12)
    g2, g3 = absdiff_surface(1), poly_surface([(1, (1, 1, 1))], 3)
    assert tensor_bernstein(g2, [2, 3], [Q, H]) == helpers.tensor_bernstein_oracle(g2, [2, 3], [Q, H])
    assert gav_gap("P3", g3, [1, 2, 1], [0, H, 1]) == gav_gap_oracle("P3", g3, [1, 2, 1], [0, H, 1])

    def refuse(*args):
        raise AssertionError("nothing may be evaluated")

    monkeypatch.setattr(BivariateFn, "__call__", refuse)
    monkeypatch.setattr(bernstein, "_basis_ints", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    with pytest.raises(BadParameter, match="table of 16 surface values; MAX_OPERATOR_TABLE = 12"):
        tensor_bernstein(g2, [3, 3], [Q, H])
    with pytest.raises(BadParameter, match="MAX_OPERATOR_TABLE"):
        gav_gap("P1", g2, [3], [Q, H])
    with pytest.raises(BadParameter, match="MAX_OPERATOR_TABLE"):
        gav_gap("P3p", g3, [1, 2, 2], [0, H, 1])
    with pytest.raises(BadParameter, match="MAX_OPERATOR_TABLE"):
        gav_scan("P3", g3, [2, 2, 1], [0, 1])


def test_supermodularity_check_makes_one_surface_ints_call(monkeypatch):
    # a 33-point grid is one _surface_ints call for its 33^2 cells, and no
    # literal evaluation, whether the screen passes or walks to a witness
    calls = []
    tabulate = bernstein._surface_ints

    def counting(g, points, q):
        calls.append(len(points))
        return tabulate(g, points, q)

    monkeypatch.setattr(bernstein, "_surface_ints", counting)
    monkeypatch.setattr(BivariateFn, "__call__", helpers.refuse("BivariateFn.__call__"))
    grid = unit_grid(Fraction(1, 32))
    assert len(grid) == 33
    assert supermodularity_check(compose_convex(quad_fn(1), (1, 1)), grid).holds
    assert calls == [33**2]
    calls.clear()
    verdict = supermodularity_check(hinge_surface(-1, (1, 1), Fraction(3, 2)), grid)
    assert verdict.holds is False
    assert calls == [33**2]


# -- budgets ---------------------------------------------------------------------


def test_unit_grid_matches_repeated_steps():
    for step in (1, Fraction(2, 3), Fraction(1, 3), Fraction(3, 7), Q, Fraction(5, 16)):
        points, t = [], Fraction(0)
        while t < 1:
            points.append(t)
            t += step
        assert unit_grid(step) == points + [Fraction(1)]


def test_unit_grid_budget_boundary():
    limit = bernstein.MAX_GRID_POINTS
    assert len(unit_grid(Fraction(1, limit - 1))) == limit
    assert len(unit_grid(Fraction(2, 2 * limit - 3))) == limit
    for step in (Fraction(1, limit), Fraction(2, 2 * limit - 1), Fraction(1, 10**6)):
        with pytest.raises(BadParameter, match="MAX_GRID_POINTS"):
            unit_grid(step)


def test_scan_budget_is_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(bernstein, "MAX_SCAN_POINTS", 16)

    def refuse(*args):
        raise AssertionError("nothing may be evaluated")

    g = absdiff_surface(1)
    assert len(gav_scan("P1", g, [1], [0, Q, H, 1])) == 16
    assert len(rasa_scan(1, [0, Q, H, 1], hinge_fn(H))) == 16
    monkeypatch.setattr(BivariateFn, "__call__", refuse)
    monkeypatch.setattr(bernstein, "_basis_ints", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    five = [0, Q, H, Fraction(3, 4), 1]
    with pytest.raises(BadParameter, match="MAX_SCAN_POINTS"):
        gav_scan("P1", g, [1], five)
    with pytest.raises(BadParameter, match="MAX_SCAN_POINTS"):
        gav_scan("P3", poly_surface([(1, (1, 1, 1))], 3), [1, 1, 1], [0, H, 1])
    with pytest.raises(BadParameter, match="MAX_SCAN_POINTS"):
        rasa_scan(1, five, hinge_fn(H))


def test_degree_budget_boundary(monkeypatch):
    limit = bernstein.MAX_DEGREE
    assert limit == 512
    assert len(binomial_weights(limit, Fraction(1, 3))) == limit + 1

    def refuse(*args):
        raise AssertionError("no weight and no phi value may be built")

    monkeypatch.setattr(bernstein, "comb", refuse)
    monkeypatch.setattr(bernstein, "_int_product", refuse)
    monkeypatch.setattr(ConvexTestFn, "__call__", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    for call in (
        lambda: binomial_weights(limit + 1, Fraction(1, 3)),
        lambda: binomial_measure(limit + 1, H),
        lambda: rasa_gap(limit + 1, Q, H, quad_fn(1)),
        lambda: rasa_scan(limit + 1, [0, 1], quad_fn(1)),
        lambda: multi_rasa_gap(limit + 1, [0, H, 1], quad_fn(1)),
        lambda: eq6prim_gap([256, 257], [Q, H], quad_fn(1)),  # m = 513
    ):
        with pytest.raises(BadParameter, match=f"degree 513 exceeds MAX_DEGREE = {limit}"):
            call()


def test_multi_points_budget_boundary(monkeypatch):
    limit = bernstein.MAX_MULTI_POINTS
    assert limit == 16
    assert multi_rasa_gap(1, [H] * limit, quad_fn(1)) == 0  # equal points: the gap vanishes

    def refuse(*args):
        raise AssertionError("no row and no phi value may be built")

    monkeypatch.setattr(bernstein, "_basis_ints", refuse)
    monkeypatch.setattr(bernstein, "_int_product", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    with pytest.raises(BadParameter, match="17 points exceed MAX_MULTI_POINTS = 16"):
        multi_rasa_gap(1, [H] * (limit + 1), quad_fn(1))


def test_eq6_blocks_budget_boundary(monkeypatch):
    limit = bernstein.MAX_MULTI_POINTS
    assert eq6prim_gap([1] * limit, [H] * limit, quad_fn(1)) == 0  # equal points

    def refuse(*args):
        raise AssertionError("no row and no phi value may be built")

    monkeypatch.setattr(bernstein, "_basis_ints", refuse)
    monkeypatch.setattr(bernstein, "_int_product", refuse)
    monkeypatch.setattr(ConvexTestFn, "_tabulate", refuse)
    # the points lie outside [0, 1]: the block count is refused before them
    with pytest.raises(BadParameter, match="17 points exceed MAX_MULTI_POINTS = 16"):
        eq6prim_gap([1] * (limit + 1), [2] * (limit + 1), quad_fn(1))
