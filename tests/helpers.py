"""Shared generators for randomized exact-arithmetic tests."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from cxorder import DiscreteMeasure, OrderVerdict, Witness, make_measure

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
