"""Majorization order, elementary transfers, chains, scalar comparisons."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxorder import (
    LengthMismatch,
    NonPositiveInput,
    NotMajorized,
    is_s_step,
    majorizes,
    muirhead_scalar,
    s_step_chain,
    sorted_desc,
    w_polynomial,
)

tuples = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5).map(tuple)


def sorted_tuples(length, bound):
    """All decreasing tuples of the given length with entries <= bound."""
    return [
        t
        for t in itertools.product(range(bound, -1, -1), repeat=length)
        if all(a >= b for a, b in zip(t, t[1:]))
    ]


def test_majorizes_examples():
    assert majorizes((1, 1), (2, 0))
    assert not majorizes((2, 2), (3, 0))  # totals differ
    assert majorizes((2, 1, 1), (3, 1, 0))


def test_majorizes_length_mismatch():
    with pytest.raises(LengthMismatch):
        majorizes((1, 1), (2, 0, 0))


def test_is_s_step_examples():
    assert is_s_step((1, 1), (2, 0))
    assert is_s_step((1, 1, 1, 1), (2, 1, 1, 0))
    assert not is_s_step((1, 1, 1, 1), (4, 0, 0, 0))
    assert not is_s_step((2, 0), (1, 1))  # transfer in the wrong direction
    assert not is_s_step((1, 1), (1, 1))


def test_chain_examples():
    assert s_step_chain((2, 1), (1, 2)) == []
    assert s_step_chain((1, 1), (2, 0)) == [(1, 1), (2, 0)]
    assert s_step_chain((1, 1, 1, 1), (4, 0, 0, 0)) == [
        (1, 1, 1, 1),
        (2, 1, 1, 0),
        (3, 1, 0, 0),
        (4, 0, 0, 0),
    ]


def test_chain_requires_majorization():
    with pytest.raises(NotMajorized):
        s_step_chain((2, 0), (1, 1))


def test_chains_exhaustively_small():
    for p in sorted_tuples(4, 4):
        for q in sorted_tuples(4, 4):
            if sum(p) != sum(q) or not majorizes(p, q):
                continue
            chain = s_step_chain(p, q)
            if p == q:
                assert chain == []
                continue
            assert chain[0] == p and chain[-1] == q
            for a, b in zip(chain, chain[1:]):
                assert is_s_step(a, b)
                assert majorizes(a, b)


@given(tuples, st.integers(min_value=0, max_value=10**6))
def test_majorizes_permutation_invariant(p, seed):
    order = list(range(len(p)))
    random.Random(seed).shuffle(order)
    shuffled = tuple(p[i] for i in order)
    assert majorizes(p, p)
    assert majorizes(shuffled, p) and majorizes(p, shuffled)


@given(tuples)
def test_s_step_implies_majorization(p):
    ph = sorted_desc(p)
    for i in range(len(ph)):
        for j in range(i + 1, len(ph)):
            bumped = list(ph)
            bumped[i] += 1
            bumped[j] -= 1
            if bumped[j] < 0:
                continue
            q = tuple(bumped)
            if is_s_step(ph, q):
                assert majorizes(ph, q)


def test_majorizes_transitive_on_chains():
    rng = random.Random(11)
    for _ in range(100):
        length = rng.randint(2, 5)
        q = sorted_desc(tuple(rng.randint(0, 6) for _ in range(length)))
        p = q
        for _ in range(rng.randint(1, 4)):  # reverse transfers keep p < q
            p = _robin_hood(p, rng)
        assert majorizes(p, q)
        for a, b in zip(s_step_chain(p, q), s_step_chain(p, q)[1:]):
            assert majorizes(a, q) and majorizes(p, b)


def _robin_hood(t, rng):
    """One reverse transfer: take from a rich entry, give to a poorer one."""
    pairs = [
        (i, j)
        for i in range(len(t))
        for j in range(len(t))
        if t[i] >= t[j] + 2
    ]
    if not pairs:
        return t
    i, j = rng.choice(pairs)
    out = list(t)
    out[i] -= 1
    out[j] += 1
    return sorted_desc(tuple(out))


def test_muirhead_scalar_examples():
    lhs, rhs = muirhead_scalar((1, 1), (2, 0), (1, 2))
    assert (lhs, rhs) == (2, Fraction(5, 2))
    same = muirhead_scalar((2, 1), (3, 0), (Fraction(5, 3), Fraction(5, 3)))
    assert same[0] == same[1]
    both = muirhead_scalar((2, 1), (1, 2), (2, 3))
    assert both[0] == both[1]


def test_muirhead_scalar_errors():
    with pytest.raises(NotMajorized):
        muirhead_scalar((2, 0), (1, 1), (1, 2))
    with pytest.raises(NonPositiveInput):
        muirhead_scalar((1, 1), (2, 0), (0, 2))
    with pytest.raises(LengthMismatch):
        muirhead_scalar((1, 1), (2, 0), (1, 2, 3))
    with pytest.raises(LengthMismatch):
        muirhead_scalar((1, 1), (2, 0, 0), (1, 2))


def test_symmetric_mean_matches_full_permutation_sum():
    import math

    rng = random.Random(3)
    for _ in range(25):
        length = rng.randint(1, 4)
        p = tuple(rng.randint(0, 4) for _ in range(length))
        xs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(length)]
        brute = sum(
            math.prod(
                (xs[target]**e for target, e in zip(perm, p)), start=Fraction(1)
            )
            for perm in itertools.permutations(range(length))
        ) / math.factorial(length)
        assert w_polynomial(p).eval(xs) == brute


@settings(max_examples=50)
@given(st.randoms(use_true_random=False))
def test_muirhead_inequality_randomized(rng):
    length = rng.randint(2, 5)
    q = sorted_desc(tuple(rng.randint(0, 6) for _ in range(length)))
    p = q
    for _ in range(rng.randint(1, 5)):
        p = _robin_hood(p, rng)
    xs = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(length)]
    lhs, rhs = muirhead_scalar(p, q, xs)
    assert lhs <= rhs
