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
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import BadParameter, Inconclusive, MassMismatch, NotLattice
from .measures import (DiscreteMeasure, _check_work, _frozen, _scaled_ints, as_rational,
                       format_rational)
from .orders import OrderVerdict, Witness

DEFAULT_EPS = Fraction(1, 2**40)
# Budgets, each checked before the weights it bounds are built: the
# truncations refuse a cutoff K above MAX_CUTOFF, and as_lattice an atom
# position above it (the square of a sequence of length K costs O(K^2)
# products on O(K)-digit numbers), truncate_negbinomial an
# index n above MAX_NEGBIN_INDEX (every weight carries (1 - x)^(n+1), so its
# digits grow with n at any cutoff) and truncate_poisson a parameter above
# MAX_POISSON_RATE (its first cutoff is the power of two >= 2 lambda: 1024
# at the limit, 2048 just past it, where the truncation costs five times more),
# and truncate_negbinomial a cutoff K whose weights, over q^(n + 1 + k) for x =
# p/q and k <= K + 1, exceed (n + K + 2) x bits(q) = MAX_WEIGHT_BITS.
# Every square (genfun_square_coeffs, the box of bernstein.gavrea_p4_sum)
# costs one product per pair of row entries, each on ints of up to ``bits``
# bits, so products * bits^2 above MAX_SQUARE_WORK is refused after the row
# is scaled and before its first product: products counts the plain square
# even when poles make the recurrence cheaper, and at least 64, since the
# Fractions built from the result (reduced to lowest terms on ints twice as
# wide) cost about that much however short the row.  At K = 256 rows of up
# to 4,080 bits pass, at K = 1 rows of up to 131,072; the README table has
# the timings.
MAX_CUTOFF = 4096
MAX_NEGBIN_INDEX = 4096
MAX_POISSON_RATE = 512
MAX_WEIGHT_BITS = 2**18
MAX_SQUARE_WORK = 2**40


@_frozen
class LatticeSeq:
    """Masses at the integers 0..K plus a certified bound on everything past K.

    For a finite-support measure the sequence is complete: ``tail_bound`` is 0
    and ``total_mass == sum(coeffs)``.  For a truncated infinite family,
    ``total_mass`` declares the mass of the untruncated family and
    ``tail_bound`` certifies the missing mass.  ``exact`` records whether the
    stored coefficients equal the true masses (negative binomial) or are
    certified lower bounds whose slack is folded into ``tail_bound``
    (Poisson, where the normalising constant is irrational).  ``poles``
    lists pairs (x, m) such that f(z) * prod (1 - x z)^m, f the generating
    function of the untruncated family, is a polynomial of degree below
    sum m: ((x, n + 1),) for negbinomial:n,x, empty for complete sequences
    and for Poisson.  A square of two sequences with poles trusts them
    (without, its Den is 1), checking only that the z^r coefficient of
    (CDF difference) * prod (1 - x z)^m is 0, so only
    ``truncate_negbinomial`` should set them.  Poles make a square cheaper
    but not more affordable: MAX_SQUARE_WORK counts its plain products.
    """

    coeffs: tuple[Fraction, ...]
    tail_bound: Fraction = Fraction(0)
    total_mass: Fraction | None = None
    exact: bool = True
    poles: tuple[tuple[Fraction, int], ...] = ()

    def __post_init__(self):
        for i, c in enumerate(self.coeffs):
            if c < 0:
                raise BadParameter(f"coefficient {format_rational(c)} at index {i} is negative")
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
    """View a measure supported on {0, 1, 2, ...} as a coefficient sequence.

    The sequence runs up to the largest atom, so a position above
    MAX_CUTOFF raises BadParameter before the sequence is built."""
    for x, _ in mu.atoms:
        if x < 0 or x.denominator != 1:
            raise NotLattice(f"atom position {format_rational(x)} is not a non-negative integer")
    top = int(mu.atoms[-1][0]) if mu.atoms else -1  # positions ascend
    if top > MAX_CUTOFF:
        raise BadParameter(f"atom position {top} exceeds MAX_CUTOFF = {MAX_CUTOFF}")
    coeffs = [Fraction(0)] * (top + 1)
    for x, w in mu.atoms:
        coeffs[int(x)] = w
    return LatticeSeq(tuple(coeffs))


def lattice_to_measure(seq: LatticeSeq) -> DiscreteMeasure:
    """The measure carried by the stored coefficients (the box part only)."""
    return DiscreteMeasure(
        tuple((Fraction(k), c) for k, c in enumerate(seq.coeffs) if c != 0)
    )


def cauchy_product(u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    """Discrete convolution of coefficient sequences.

    Each row is scaled to ints by its common denominator, so the products
    and sums run on ints and each output coefficient is one Fraction.
    """
    size = len(u) + len(v) - 1 if u and v else 0
    (u_scale, us), (v_scale, vs) = _scaled_ints(u), _scaled_ints(v)
    unit = u_scale * v_scale
    return [Fraction(c, unit) for c in _int_product(us, vs, size)]


def _int_product(us: Sequence[int], vs: Sequence[int], size: int) -> list[int]:
    """The first ``size`` coefficients of us * vs, one anti-diagonal sum each."""
    rv, top = vs[::-1], len(vs) - 1
    return [sum(map(mul, us[max(k - top, 0) : k + 1], rv[max(top - k, 0) :])) for k in range(size)]


def genfun_square_coeffs(a: LatticeSeq, b: LatticeSeq) -> list[Fraction]:
    """Coefficients of ((f(z) - g(z)) / (z - 1))^2.

    f and g are the generating functions of a and b; the quotient expands as
    sum_i (G - F)(i) z^i, so the result is the discrete self-convolution of
    the CDF difference.  Complete sequences yield the full finite list; for
    truncations only the prefix provably unaffected by the unseen tail
    (indices k <= K = min(Ka, Kb)) is returned.  Every pair is squared by
    one kernel, ``_rational_square``: with the poles of both truncations
    when both carry them and their total order r is at most K (O(K r)
    products), with none (Den = 1, the plain square) otherwise.  The kernel
    refuses, complete pairs included, a square past MAX_SQUARE_WORK.
    """
    if a.total_mass != b.total_mass:
        raise MassMismatch(
            f"total masses differ: {format_rational(a.total_mass)}"
            f" vs {format_rational(b.total_mass)}"
        )
    if not (a.exact and b.exact):
        raise Inconclusive(
            "stored coefficients are lower bounds only; exact series "
            "coefficients are unavailable for this family"
        )
    poles = a.poles + b.poles if a.poles and b.poles else ()
    if a.complete and b.complete:
        # (G - F) vanishes from the common support end by mass equality
        length = max(len(a.coeffs), len(b.coeffs)) - 1
        size = max(2 * length - 1, 0)
    else:
        length = size = min(a.last_index, b.last_index) + 1
    if sum(m for _, m in poles) >= length:
        poles = ()
    return _rational_square(a.coeffs[:length], b.coeffs[:length], poles, size)


def _rational_square(
    a: Sequence[Fraction], b: Sequence[Fraction], poles: Sequence[tuple[Fraction, int]], size: int
) -> list[Fraction]:
    """The first ``size`` coefficients of D(z)^2, D = sum d_i z^i the CDF
    difference d_i = sum_{k <= i} (b_k - a_k) of the rows a and b, where
    Den * D = N for Den = prod (1 - x z)^m over ``poles`` and deg N < r = sum m < len(d).

    Den * D^2 = N * D, so with P the first ``size`` coefficients of N * d,
    E_k = P_k - sum_{j=1}^{min(k, r)} Den_j E_{k-j}: O(size r) products;
    with no poles Den = 1, N = d and E = P is the plain square.  With
    z = s w, s the lcm of the pole denominators, Den_j s^j is an int; a and
    b (times s^k when s != 1) share one common denominator, so d_i s^i is
    summed and multiplied on ints and E_k is one Fraction over scale^2 * s^k.
    Before the first product, max(size * len(d), 64) * bits^2, bits the
    widest int of the scaled row, is checked against MAX_SQUARE_WORK, poles
    or not.
    Poles that do not fit d are refused: d * Den must have no z^r term.
    """
    s = lcm(*(x.denominator for x, _ in poles))
    den = [1]  # Den_j * s^j
    for x, m in poles:
        c = x.numerator * (s // x.denominator)
        for _ in range(m):
            den = [u - c * v for u, v in zip(den + [0], [0] + den)]
    r = len(den) - 1
    if s != 1:
        a, b = ([c * s**k for k, c in enumerate(row)] for row in (a, b))
    scale, ints = _scaled_ints([*b, *a])
    steps = itertools.zip_longest(ints[: len(b)], ints[len(b) :], fillvalue=0)
    ts = list(itertools.accumulate((bk - ak for bk, ak in steps), lambda t, step: s * t + step))
    _check_square(size * len(ts), ts)
    q = ts  # N
    if poles:
        q = _int_product(den, ts, r + 1)
        if q.pop():  # d_r is known as r < len(d), and N has no term at z^r
            raise BadParameter("the poles of a truncated pair do not match its coefficients")
    out = _int_product(q, ts, size)
    for k in range(1, len(out) if r else 0):
        out[k] -= sum(map(mul, den[1 : k + 1], reversed(out[max(k - r, 0) : k])))
    units = itertools.accumulate(itertools.repeat(s), mul, initial=scale * scale)  # scale^2 s^k
    return [Fraction(e, unit) for e, unit in zip(out, units)]


def genfun_test(
    a: LatticeSeq, b: LatticeSeq, *, coeffs: Sequence[Fraction] | None = None
) -> OrderVerdict:
    """Sign test on the squared-quotient coefficients.

    Complete inputs get a definite verdict.  Truncated exact inputs can only
    be refuted (any negative coefficient in the sound prefix is a true
    coefficient of the full family); a clean prefix stays inconclusive, and
    lower-bound families (Poisson) are inconclusive outright.  A caller that
    already holds ``genfun_square_coeffs(a, b)`` passes it as ``coeffs``.
    Unequal total masses m1 != m2 fail outright with the mass gap
    -(m1 - m2)^2/2 of the constant test functions, as in rasa_criterion.
    """
    if a.total_mass != b.total_mass:
        return OrderVerdict(False, Witness("mass", None, -((a.total_mass - b.total_mass) ** 2) / 2))
    if not (a.exact and b.exact):
        return OrderVerdict(None)
    if coeffs is None:
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
    w_{K+1} / (1 - r); K doubles until that certificate is below eps, and
    a K above MAX_CUTOFF or past MAX_WEIGHT_BITS raises BadParameter before
    its weights are built, as does an index n above MAX_NEGBIN_INDEX.
    """
    x, eps = as_rational(x), as_rational(eps)
    if not isinstance(n, int) or n < 0:
        raise BadParameter(f"negative binomial index must be an integer >= 0, got {n!r}")
    if not 0 < x < 1:
        raise BadParameter(f"negative binomial parameter x={format_rational(x)} must lie in (0, 1)")
    if eps <= 0:
        raise BadParameter(f"eps={format_rational(eps)} must be positive")
    if n > MAX_NEGBIN_INDEX:
        raise BadParameter(
            f"negative binomial index {n} exceeds MAX_NEGBIN_INDEX = {MAX_NEGBIN_INDEX}"
        )
    weights = []

    def extend(upto: int):
        while len(weights) <= upto:
            k = len(weights) - 1
            weights.append(weights[-1] * x * (n + k + 1) / (k + 1) if weights
                           else (1 - x) ** (n + 1))

    family, cutoff = f"negbinomial:{n},{format_rational(x)}", 1
    while True:
        _check_cutoff(cutoff, family, eps, (n + cutoff + 2) * x.denominator.bit_length())
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
                    poles=((x, n + 1),),
                )
        cutoff *= 2


def truncate_poisson(lam, eps=DEFAULT_EPS) -> LatticeSeq:
    """Certified lower-bound coefficients L * lam^k / k! with rational
    L <= e^(-lam).

    e^(-lam) itself is irrational, so exact coefficients are impossible;
    instead L = 1/U for a rational upper bound U >= e^lam from the partial
    exponential series plus a geometric remainder.  The truncation tail and
    the total rounding slack both go into tail_bound, so the sequence is a
    certified under-approximation of the Poisson family.  The cutoff K
    starts at the first power of two >= 2 lam, so every term ratio past K is
    <= 1/2, and doubles until the tail is below eps; the terms lam^k/k! are
    extended in place, and a K above MAX_CUTOFF raises BadParameter before
    its terms are built.  A lam above MAX_POISSON_RATE is refused right
    after the first cutoff check, before any term.
    """
    lam, eps = as_rational(lam), as_rational(eps)
    if lam <= 0:
        raise BadParameter(f"Poisson parameter {format_rational(lam)} must be positive")
    if eps <= 0:
        raise BadParameter(f"eps={format_rational(eps)} must be positive")
    cutoff = 1
    while cutoff < 2 * lam:
        cutoff *= 2
    _check_cutoff(cutoff, f"poisson:{format_rational(lam)}", eps)
    if lam > MAX_POISSON_RATE:
        raise BadParameter(
            f"Poisson parameter {format_rational(lam)} exceeds MAX_POISSON_RATE = {MAX_POISSON_RATE}"
        )
    core = [Fraction(1)]  # lam^k / k!
    boxed, summed = Fraction(0), 0  # boxed = sum(core[:summed])
    while True:
        while len(core) < cutoff + 2:
            core.append(core[-1] * lam / len(core))
        boxed += sum(core[summed : cutoff + 1], Fraction(0))
        summed = cutoff + 1
        lower_factor = 1 / (boxed + 2 * core[cutoff + 1])  # <= e^(-lam)
        upper_factor = 1 / boxed  # >= e^(-lam)
        core_tail = core[cutoff + 1] / (1 - lam / (cutoff + 2))
        tail = upper_factor * core_tail + (upper_factor - lower_factor) * boxed
        if tail < eps:
            return LatticeSeq(
                tuple(lower_factor * c for c in core[: cutoff + 1]),
                tail_bound=tail,
                total_mass=Fraction(1),
                exact=False,
            )
        cutoff *= 2
        _check_cutoff(cutoff, f"poisson:{format_rational(lam)}", eps)


def _check_cutoff(cutoff: int, family: str, eps: Fraction, bits: int = 0):
    if cutoff > MAX_CUTOFF:
        raise BadParameter(
            f"{family} at eps={format_rational(eps)} needs a truncation cutoff above"
            f" MAX_CUTOFF = {MAX_CUTOFF}"
        )
    if bits > MAX_WEIGHT_BITS:
        raise BadParameter(f"{family} at cutoff {cutoff} needs weights of {bits} bits,"
                           f" above MAX_WEIGHT_BITS = {MAX_WEIGHT_BITS} ((n + K + 2) x bits(q))")


def _check_square(products: int, ints: Sequence[int]):
    _check_work(products, ints, MAX_SQUARE_WORK, lambda bits: (
        f"the square of a lattice pair, {products} products on {bits}-bit ints,"
        f" exceeds MAX_SQUARE_WORK = {MAX_SQUARE_WORK} (max(products, 64) x bits^2)"
    ), min_count=64)


def truncated_family(family: str, eps=DEFAULT_EPS) -> LatticeSeq:
    """Dispatch on a textual family spec: ``negbinomial:n,x`` or
    ``poisson:lambda`` with fraction-string parameters."""
    name, _, args = family.partition(":")
    name = name.strip().lower()
    try:
        if name == "negbinomial":
            n_text, x_text = (t.strip() for t in args.split(","))
            return truncate_negbinomial(int(n_text), as_rational(x_text), eps)
        if name == "poisson":
            return truncate_poisson(as_rational(args), eps)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"malformed family parameters {args!r}: {exc}") from exc
    raise BadParameter(f"unknown family {name!r}; expected negbinomial or poisson")
