"""Shared generators for randomized exact-arithmetic tests."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from cxorder import (
    DiscreteMeasure,
    OrderVerdict,
    PiecewiseLinear,
    StepFunction,
    Witness,
    integrate_hinge,
    make_measure,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)
positive_rationals = st.fractions(
    min_value=Fraction(1, 4), max_value=8, max_denominator=4
)
measures = st.lists(
    st.tuples(rationals, positive_rationals), min_size=0, max_size=6
).map(make_measure)
nonempty_measures = st.lists(
    st.tuples(rationals, positive_rationals), min_size=1, max_size=6
).map(make_measure)


def random_measure(rng: random.Random, max_atoms=8, denominators=(1, 2), span=6):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        position = Fraction(rng.randint(-span, span), rng.choice(denominators))
        weight = Fraction(rng.randint(1, 6), rng.choice(denominators))
        atoms.append((position, weight))
    return make_measure(atoms)


def equal_mass_pair(rng: random.Random, **kwargs):
    mu = random_measure(rng, **kwargs)
    nu = random_measure(rng, **kwargs)
    return mu, nu.scaled(mu.mass / nu.mass)


def probability_measure(rng: random.Random, **kwargs):
    mu = random_measure(rng, **kwargs)
    return mu.scaled(1 / mu.mass)


def random_lattice_pair(rng: random.Random, top=8, max_atoms=6):
    def one():
        return make_measure(
            (rng.randint(0, top), Fraction(rng.randint(1, 9)))
            for _ in range(rng.randint(1, max_atoms))
        )

    mu, nu = one(), one()
    return mu, nu.scaled(mu.mass / nu.mass)


def st_comparable_pair(rng: random.Random, max_atoms=6):
    """Monotone coupling: equal weights on paired positions a_i <= b_i, so
    the first measure is below the second in the usual stochastic order."""
    count = rng.randint(1, max_atoms)
    weights = [Fraction(rng.randint(1, 6), rng.choice((1, 2, 4))) for _ in range(count)]
    total = sum(weights)
    lows, highs = [], []
    for _ in range(count):
        a = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
        lows.append(a)
        highs.append(a + Fraction(rng.randint(0, 8), rng.choice((1, 2))))
    mu = make_measure(zip(lows, (w / total for w in weights)))
    nu = make_measure(zip(highs, (w / total for w in weights)))
    return mu, nu


def hinge_integral_brute(mu: DiscreteMeasure, threshold) -> Fraction:
    """Independent oracle: literal sum of max(x - A, 0) * w over atoms."""
    total = Fraction(0)
    for x, w in mu.atoms:
        total += max(x - Fraction(threshold), Fraction(0)) * w
    return total


def leq_st_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Independent oracle for leq_st: the literal scan that re-sums both
    CDFs at every position of the union of supports."""
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -abs(mu.mass - nu.mass)))
    for x in sorted(set(mu.positions()) | set(nu.positions())):
        gap = mu.cdf(x) - nu.cdf(x)
        if gap < 0:
            return OrderVerdict(False, Witness("cdf", x, gap))
    return OrderVerdict(True)


def leq_cx_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Independent oracle for leq_cx: the literal scan that integrates the
    hinge (x - a)+ against both measures at every position a of the union
    of supports, O(n^2) for n atoms."""
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -abs(mu.mass - nu.mass)))
    if mu.mean != nu.mean:
        return OrderVerdict(False, Witness("mean", None, -abs(mu.mean - nu.mean)))
    for a in sorted(set(mu.positions()) | set(nu.positions())):
        gap = integrate_hinge(nu, a) - integrate_hinge(mu, a)
        if gap < 0:
            return OrderVerdict(False, Witness("hinge", a, gap))
    return OrderVerdict(True)


def _step_conv_value(h1: StepFunction, h2: StepFunction, at: Fraction) -> Fraction:
    """Exact (h1 * h2)(at) = integral h1(t) h2(at - t) dt.

    The integrand is a step function of t whose jumps happen at breakpoints
    of h1 or at reflected breakpoints of h2, so it is constant between
    consecutive cuts and a midpoint sample per cell is exact.
    """
    if h1.is_zero or h2.is_zero:
        return Fraction(0)
    lo = max(h1.breakpoints[0], at - h2.breakpoints[-1])
    hi = min(h1.breakpoints[-1], at - h2.breakpoints[0])
    if lo >= hi:
        return Fraction(0)
    cuts = {lo, hi}
    cuts.update(t for t in h1.breakpoints if lo < t < hi)
    cuts.update(at - s for s in h2.breakpoints if lo < at - s < hi)
    ordered = sorted(cuts)
    total = Fraction(0)
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = (t0 + t1) / 2
        total += h1.value(mid) * h2.value(at - mid) * (t1 - t0)
    return total


def step_self_convolution_oracle(h: StepFunction) -> PiecewiseLinear:
    """Independent oracle for step_self_convolution: the integral (h*h)(A)
    by midpoint integration over a fresh cut list at every pairwise
    breakpoint sum A, O(B^3 log B) for B breakpoints."""
    if h.is_zero:
        return PiecewiseLinear((), ())
    sums = sorted({a + b for a in h.breakpoints for b in h.breakpoints})
    return PiecewiseLinear(tuple(sums), tuple(_step_conv_value(h, h, s) for s in sums))
