"""Coefficient-sequence machinery for measures on the non-negative integers.

For lattice measures the self-convolution criterion collapses to the signs
of the coefficients of ((f(z) - g(z)) / (z - 1))^2, where f and g are the
probability generating functions: the square's k-th coefficient equals the
piecewise-linear profile (H*H) at the integer k+1.  Infinite classical
families (negative binomial, Poisson) enter through truncations whose tail
mass is certified by exact geometric-ratio bounds, keeping the whole
pipeline float-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadParameter, Inconclusive, MassMismatch, NotLattice
from .measures import DiscreteMeasure, as_rational
from .orders import OrderVerdict, Witness

DEFAULT_EPS = Fraction(1, 2**40)


@dataclass(frozen=True)
class LatticeSeq:
    """Masses at the integers 0..K plus a certified bound on everything past K.

    For a finite-support measure the sequence is complete: ``tail_bound`` is 0
    and ``total_mass == sum(coeffs)``.  For a truncated infinite family,
    ``total_mass`` declares the mass of the untruncated family and
    ``tail_bound`` certifies the missing mass.  ``exact`` records whether the
    stored coefficients equal the true masses (negative binomial) or are
    certified lower bounds whose slack is folded into ``tail_bound``
    (Poisson, where the normalising constant is irrational).
    """

    coeffs: tuple[Fraction, ...]
    tail_bound: Fraction = Fraction(0)
    total_mass: Fraction | None = None
    exact: bool = True

    def __post_init__(self):
        for i, c in enumerate(self.coeffs):
            if c < 0:
                raise BadParameter(f"coefficient {c} at index {i} is negative")
        if self.tail_bound < 0:
            raise BadParameter("tail bound must be non-negative")
        if self.total_mass is None:
            if self.tail_bound != 0:
                raise BadParameter("a truncated sequence must declare its total mass")
            object.__setattr__(self, "total_mass", self.boxed_mass)

    @property
    def boxed_mass(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    @property
    def complete(self) -> bool:
        return self.tail_bound == 0

    @property
    def last_index(self) -> int:
        return len(self.coeffs) - 1


def as_lattice(mu: DiscreteMeasure) -> LatticeSeq:
    """View a measure supported on {0, 1, 2, ...} as a coefficient sequence."""
    coeffs: list[Fraction] = []
    for x, w in mu.atoms:
        if x < 0 or x.denominator != 1:
            raise NotLattice(f"atom position {x} is not a non-negative integer")
        k = int(x)
        coeffs.extend([Fraction(0)] * (k + 1 - len(coeffs)))
        coeffs[k] = w
    return LatticeSeq(tuple(coeffs))


def lattice_to_measure(seq: LatticeSeq) -> DiscreteMeasure:
    """The measure carried by the stored coefficients (the box part only)."""
    return DiscreteMeasure(
        tuple((Fraction(k), c) for k, c in enumerate(seq.coeffs) if c != 0)
    )


def cauchy_product(u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    """Discrete convolution of coefficient sequences."""
    if not u or not v:
        return []
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b != 0:
                out[i + j] += a * b
    return out


def genfun_square_coeffs(a: LatticeSeq, b: LatticeSeq) -> list[Fraction]:
    """Coefficients of ((f(z) - g(z)) / (z - 1))^2.

    f and g are the generating functions of a and b; the quotient expands as
    sum_i (G - F)(i) z^i, so the result is the discrete self-convolution of
    the CDF difference.  Complete sequences yield the full finite list; for
    truncations only the prefix provably unaffected by the unseen tail
    (indices k <= min(Ka, Kb)) is returned.
    """
    if a.total_mass != b.total_mass:
        raise MassMismatch(f"total masses differ: {a.total_mass} vs {b.total_mass}")
    if not (a.exact and b.exact):
        raise Inconclusive(
            "stored coefficients are lower bounds only; exact series "
            "coefficients are unavailable for this family"
        )
    # d(i) = (G - F)(i) = sum_{k <= i} (b_k - a_k)
    steps = itertools.zip_longest(b.coeffs, a.coeffs, fillvalue=Fraction(0))
    d = list(itertools.accumulate(bk - ak for bk, ak in steps))
    if a.complete and b.complete:
        # (G - F) vanishes from the common support end by mass equality
        return cauchy_product(d[:-1], d[:-1])
    sound = min(a.last_index, b.last_index)
    return cauchy_product(d[: sound + 1], d[: sound + 1])[: sound + 1]


def genfun_test(a: LatticeSeq, b: LatticeSeq) -> OrderVerdict:
    """Sign test on the squared-quotient coefficients.

    Complete inputs get a definite verdict.  Truncated exact inputs can only
    be refuted (any negative coefficient in the sound prefix is a true
    coefficient of the full family); a clean prefix stays inconclusive, and
    lower-bound families (Poisson) are inconclusive outright.
    """
    if a.total_mass != b.total_mass:
        raise MassMismatch(f"total masses differ: {a.total_mass} vs {b.total_mass}")
    if not (a.exact and b.exact):
        return OrderVerdict(None)
    coeffs = genfun_square_coeffs(a, b)
    for k, c in enumerate(coeffs):
        if c < 0:
            return OrderVerdict(False, Witness("coefficient", k, c))
    if a.complete and b.complete:
        return OrderVerdict(True)
    return OrderVerdict(None)


def truncate_negbinomial(n: int, x, eps=DEFAULT_EPS) -> LatticeSeq:
    """Exact weights C(n+k, k) (1-x)^(n+1) x^k for k = 0..K.

    K comes from a log-free doubling search: the term ratio
    x (n+k+1) / (k+1) decreases towards x < 1, so once the ratio r at K+1
    drops below 1 the tail is dominated by the geometric series
    w_{K+1} / (1 - r); K doubles until that certificate is below eps.
    """
    x, eps = as_rational(x), as_rational(eps)
    if not isinstance(n, int) or n < 0:
        raise BadParameter(f"negative binomial index must be an integer >= 0, got {n!r}")
    if not 0 < x < 1:
        raise BadParameter(f"negative binomial parameter x={x} must lie in (0, 1)")
    if eps <= 0:
        raise BadParameter(f"eps={eps} must be positive")
    weights = [(1 - x) ** (n + 1)]

    def extend(upto: int):
        while len(weights) <= upto:
            k = len(weights) - 1
            weights.append(weights[-1] * x * (n + k + 1) / (k + 1))

    cutoff = 1
    while True:
        extend(cutoff + 1)
        ratio = x * Fraction(n + cutoff + 2, cutoff + 2)
        if ratio < 1:
            certificate = weights[cutoff + 1] / (1 - ratio)
            if certificate < eps:
                return LatticeSeq(
                    tuple(weights[: cutoff + 1]),
                    tail_bound=certificate,
                    total_mass=Fraction(1),
                    exact=True,
                )
        cutoff *= 2


def truncate_poisson(lam, eps=DEFAULT_EPS) -> LatticeSeq:
    """Certified lower-bound coefficients L * lam^k / k! with rational
    L <= e^(-lam).

    e^(-lam) itself is irrational, so exact coefficients are impossible;
    instead L = 1/U for a rational upper bound U >= e^lam from the partial
    exponential series plus a geometric remainder.  The truncation tail and
    the total rounding slack both go into tail_bound, so the sequence is a
    certified under-approximation of the Poisson family.
    """
    lam, eps = as_rational(lam), as_rational(eps)
    if lam <= 0:
        raise BadParameter(f"Poisson parameter {lam} must be positive")
    if eps <= 0:
        raise BadParameter(f"eps={eps} must be positive")

    order = 1
    while order < 2 * lam:  # keeps every later term ratio <= 1/2
        order *= 2
    cutoff = order
    while True:
        core = [Fraction(1)]
        for k in range(1, max(order, cutoff) + 2):
            core.append(core[-1] * lam / k)
        partial = sum(core[: order + 1], Fraction(0))
        upper_exp = partial + 2 * core[order + 1]  # geometric tail, ratio <= 1/2
        lower_factor = 1 / upper_exp  # <= e^(-lam)
        upper_factor = 1 / partial  # >= e^(-lam)

        ratio = lam / (cutoff + 2)
        if ratio < 1:
            core_tail = core[cutoff + 1] / (1 - ratio)
            boxed = sum(core[: cutoff + 1], Fraction(0))
            slack = (upper_factor - lower_factor) * boxed
            tail = upper_factor * core_tail + slack
            if tail < eps:
                return LatticeSeq(
                    tuple(lower_factor * c for c in core[: cutoff + 1]),
                    tail_bound=tail,
                    total_mass=Fraction(1),
                    exact=False,
                )
        order *= 2
        cutoff *= 2


def truncated_family(family: str, eps=DEFAULT_EPS) -> LatticeSeq:
    """Dispatch on a textual family spec: ``negbinomial:n,x`` or
    ``poisson:lambda`` with fraction-string parameters."""
    name, _, args = family.partition(":")
    name = name.strip().lower()
    try:
        if name == "negbinomial":
            n_text, x_text = (t.strip() for t in args.split(","))
            return truncate_negbinomial(int(n_text), Fraction(x_text), eps)
        if name == "poisson":
            return truncate_poisson(Fraction(args.strip()), eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"malformed family parameters {args!r}: {exc}") from exc
    raise BadParameter(f"unknown family {name!r}; expected negbinomial or poisson")
