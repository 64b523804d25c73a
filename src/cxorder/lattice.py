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

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul

from .errors import BadParameter, Inconclusive, MassMismatch, NotLattice
from .measures import (DiscreteMeasure, _check_work, _refuse_delete, _refuse_set, _scaled_ints,
                       as_rational, format_rational)
from .orders import OrderVerdict, Witness

DEFAULT_EPS = Fraction(1, 2**40)
# Budgets, each checked before the weights it bounds are built: the
# truncations refuse a cutoff K above MAX_CUTOFF, and as_lattice an atom
# position above it (the square of a sequence of length K costs O(K^2)
# products on O(K)-digit numbers), truncate_negbinomial an index n above
# MAX_NEGBIN_INDEX (every weight carries (1 - x)^(n+1), so its digits grow
# with n at any cutoff) and a cutoff K whose weights, over q^(n + 1 + k) for
# x = p/q and k <= K + 1, exceed (n + K + 2) x bits(q) = MAX_WEIGHT_BITS, and
# truncate_poisson one whose terms lambda^k / k!, lambda = p/q and k <= K + 1,
# exceed (K + 2) x (bits(p) + bits(q)): terms above 1 have wide numerators too,
# and the sums behind the tail bound carry both.
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
MAX_WEIGHT_BITS = 2**18
MAX_SQUARE_WORK = 2**40


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

    The masses are stored as one row of ints over one unit, ``ints[k] /
    unit``, unit a common denominator of the row but not necessarily the
    least: a truncation keeps the unit it builds its row on.  ``==`` and
    ``hash`` compare rows reduced to lowest terms, so equal masses compare
    equal on any unit, and with ``repr`` they read as for a record of the
    fields coeffs, tail_bound, total_mass, exact and poles.  ``coeffs``, the
    masses as Fractions, is built only when first read (a sequence built
    from Fractions keeps the row it was given).
    """

    __setattr__, __delattr__ = _refuse_set, _refuse_delete

    def __init__(self, coeffs, tail_bound=Fraction(0), total_mass=None, exact=True, poles=()):
        coeffs = tuple(coeffs)
        self._init(*_scaled_ints(coeffs), tail_bound, total_mass, exact, poles)
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def _of_ints(cls, unit: int, ints: Sequence[int], *fields) -> LatticeSeq:
        """The sequence of masses ints[k] / unit, unit any common
        denominator of them, then the fields after coeffs."""
        seq = cls.__new__(cls)
        seq._init(unit, ints, *fields)
        return seq

    def _init(self, unit, ints, tail_bound=Fraction(0), total_mass=None, exact=True, poles=()):
        for i, c in enumerate(ints):
            if c < 0:
                raise BadParameter(
                    f"coefficient {format_rational(Fraction(c, unit))} at index {i} is negative"
                )
        if tail_bound < 0:
            raise BadParameter("tail bound must be non-negative")
        if total_mass is None:
            if tail_bound != 0:
                raise BadParameter("a truncated sequence must declare its total mass")
            total_mass = Fraction(sum(ints), unit)
        self.__dict__.update(unit=unit, ints=tuple(ints), tail_bound=tail_bound,
                             total_mass=total_mass, exact=exact, poles=poles)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.unit) for c in self.ints)

    @functools.cached_property
    def _key(self) -> tuple:
        common = gcd(self.unit, *self.ints)  # the row in lowest terms
        ints = tuple(c // common for c in self.ints)
        return self.unit // common, ints, self.tail_bound, self.total_mass, self.exact, self.poles

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        names = ("coeffs", "tail_bound", "total_mass", "exact", "poles")
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({text})"

    @property
    def boxed_mass(self) -> Fraction:
        return Fraction(sum(self.ints), self.unit)

    @property
    def complete(self) -> bool:
        return self.tail_bound == 0

    @property
    def last_index(self) -> int:
        return len(self.ints) - 1


def as_lattice(mu: DiscreteMeasure) -> LatticeSeq:
    """View a measure supported on {0, 1, 2, ...} as a coefficient sequence.

    The sequence runs up to the largest atom, so a position above
    MAX_CUTOFF raises BadParameter before the sequence is built.  Its row is
    the weights scaled by their least common denominator."""
    for x, _ in mu.atoms:
        if x < 0 or x.denominator != 1:
            raise NotLattice(f"atom position {format_rational(x)} is not a non-negative integer")
    top = int(mu.atoms[-1][0]) if mu.atoms else -1  # positions ascend
    if top > MAX_CUTOFF:
        raise BadParameter(f"atom position {top} exceeds MAX_CUTOFF = {MAX_CUTOFF}")
    unit, weights = _scaled_ints([w for _, w in mu.atoms])
    ints = [0] * (top + 1)
    for (x, _), w in zip(mu.atoms, weights):
        ints[int(x)] = w
    return LatticeSeq._of_ints(unit, ints)


def lattice_to_measure(seq: LatticeSeq) -> DiscreteMeasure:
    """The measure carried by the stored coefficients (the box part only)."""
    return DiscreteMeasure(
        tuple((Fraction(k), Fraction(c, seq.unit)) for k, c in enumerate(seq.ints) if c)
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
    out, unit, s = _square(a, b)
    units = itertools.accumulate(itertools.repeat(s), mul, initial=unit)  # unit s^k
    return [Fraction(e, u) for e, u in zip(out, units)]


def _square(a: LatticeSeq, b: LatticeSeq) -> tuple[list[int], int, int]:
    """(out, unit, s): coefficient k of genfun_square_coeffs(a, b) is
    out[k] / (unit s^k), computed on the int rows of a and b."""
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
        length = max(len(a.ints), len(b.ints)) - 1
        size = max(2 * length - 1, 0)
    else:
        length = size = min(a.last_index, b.last_index) + 1
    if sum(m for _, m in poles) >= length:
        poles = ()
    return _rational_square((a.unit, a.ints[:length]), (b.unit, b.ints[:length]), poles, size)


def _rational_square(
    a: tuple[int, Sequence[int]], b: tuple[int, Sequence[int]],
    poles: Sequence[tuple[Fraction, int]], size: int,
) -> tuple[list[int], int, int]:
    """(E, unit, s) with E_k / (unit s^k) the first ``size`` coefficients of
    D(z)^2, D = sum d_i z^i the CDF difference d_i = sum_{k <= i} (b_k - a_k)
    of the rows a and b, each a (unit, ints) pair, where Den * D = N for
    Den = prod (1 - x z)^m over ``poles`` and deg N < r = sum m < len(d).

    Den * D^2 = N * D, so with P the first ``size`` coefficients of N * d,
    E_k = P_k - sum_{j=1}^{min(k, r)} Den_j E_{k-j}: O(size r) products;
    with no poles Den = 1, N = d and E = P is the plain square.  With
    z = s w, s the lcm of the pole denominators, Den_j s^j is an int; a and
    b (times s^k when s != 1) share one least common denominator, scale, so
    d_i s^i is summed and multiplied on ints and unit = scale^2.
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
    scale, ints = _scaled_rows((b, a), s)
    steps = itertools.zip_longest(ints[: len(b[1])], ints[len(b[1]) :], fillvalue=0)
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
    return out, scale * scale, s


def _scaled_rows(rows: Sequence[tuple[int, Sequence[int]]], s: int = 1) -> tuple[int, list[int]]:
    """(scale, ints) for rows of (unit, ints) pairs: scale the least common
    denominator of c s^k / unit over the entries c at index k of every row,
    and ints each of them in units of 1/scale, row after row.  A row's own
    least common denominator is unit / gcd(unit, every c s^k): one gcd over
    the row, whatever its unit."""
    top = max((len(ints) for _, ints in rows), default=0)
    powers = list(itertools.accumulate(itertools.repeat(s, top), mul, initial=1))
    scaled = []
    for unit, ints in rows:
        row = list(map(mul, ints, powers)) if s != 1 else ints
        common = gcd(unit, *row)
        scaled.append((unit // common, common, row))
    scale = lcm(*(own for own, _, _ in scaled))
    out = []
    for own, common, row in scaled:
        factor = scale // own  # one wide division per row
        out.extend(c // common * factor for c in row)
    return scale, out


def genfun_test(
    a: LatticeSeq, b: LatticeSeq, *, coeffs: Sequence[Fraction] | None = None
) -> OrderVerdict:
    """Sign test on the squared-quotient coefficients.

    Complete inputs get a definite verdict.  Truncated exact inputs can only
    be refuted (any negative coefficient in the sound prefix is a true
    coefficient of the full family); a clean prefix stays inconclusive, and
    lower-bound families (Poisson) are inconclusive outright.  A caller that
    already holds ``genfun_square_coeffs(a, b)`` passes it as ``coeffs``;
    otherwise the signs are read on the square's ints and only a witness
    becomes a Fraction.
    Unequal total masses m1 != m2 fail outright with the mass gap
    -(m1 - m2)^2/2 of the constant test functions, as in rasa_criterion.
    """
    if a.total_mass != b.total_mass:
        return OrderVerdict(False, Witness("mass", None, -((a.total_mass - b.total_mass) ** 2) / 2))
    if not (a.exact and b.exact):
        return OrderVerdict(None)
    if coeffs is None:
        out, unit, s = _square(a, b)
        k = next((k for k, e in enumerate(out) if e < 0), None)
        gap = None if k is None else Fraction(out[k], unit * s**k)
    else:
        k = next((k for k, c in enumerate(coeffs) if c < 0), None)
        gap = None if k is None else coeffs[k]
    if k is not None:
        return OrderVerdict(False, Witness("coefficient", k, gap))
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
    its weights are built, as does an index n above MAX_NEGBIN_INDEX.  For
    x = p/q the row is built once, at the final K, on ints over the unit
    q^(n+1+K), which it keeps: w_k q^(n+1+K) = C(n+k, k) (q-p)^(n+1) p^k
    q^(K-k), by the exact recurrence times p (n+k+1) / ((k+1) q).
    """
    x, eps = as_rational(x), as_rational(eps)
    if not isinstance(n, int) or n < 0:
        raise BadParameter(f"negative binomial index must be an integer >= 0, got {n!r}")
    if not 0 < x < 1:
        raise BadParameter(f"negative binomial parameter x={_brief(x)} must lie in (0, 1)")
    if eps <= 0:
        raise BadParameter(f"eps={_brief(eps)} must be positive")
    if n > MAX_NEGBIN_INDEX:
        raise BadParameter(
            f"negative binomial index {n} exceeds MAX_NEGBIN_INDEX = {MAX_NEGBIN_INDEX}"
        )
    p, q = x.numerator, x.denominator
    family, cutoff = f"negbinomial:{n},{_brief(x)}", 1
    while True:
        _check_cutoff(cutoff, family, eps, (n + cutoff + 2) * q.bit_length(),
                      "(n + K + 2) x bits(q)")
        ratio = x * Fraction(n + cutoff + 2, cutoff + 2)
        if ratio < 1:
            # w_(K+1) from its factors: Fraction(t, q^(n+2+K)) would reduce
            # two wide ints against each other
            weight = (1 - x) ** (n + 1) * x ** (cutoff + 1) * comb(n + cutoff + 1, cutoff + 1)
            certificate = weight / (1 - ratio)
            if certificate < eps:
                break
        cutoff *= 2
    ints = [(q - p) ** (n + 1) * q**cutoff]
    for k in range(cutoff):
        ints.append(ints[-1] * p * (n + k + 1) // ((k + 1) * q))
    return LatticeSeq._of_ints(q ** (n + 1 + cutoff), ints, certificate, Fraction(1), True,
                               ((x, n + 1),))


def truncate_poisson(lam, eps=DEFAULT_EPS) -> LatticeSeq:
    """Certified lower-bound coefficients L * lam^k / k! with rational
    L <= e^(-lam).

    e^(-lam) itself is irrational, so exact coefficients are impossible;
    instead L = 1/U for a rational upper bound U >= e^lam from the partial
    exponential series plus a geometric remainder.  The truncation tail and
    the total rounding slack both go into tail_bound, so the sequence is a
    certified under-approximation of the Poisson family.  The cutoff K
    starts at the first power of two >= 2 lam, so every term ratio past K is
    <= 1/2, and doubles until the tail is below eps; a K above MAX_CUTOFF or
    past MAX_WEIGHT_BITS raises BadParameter before its terms are built, so
    these two budgets bound every lam.

    At each cutoff the terms t_k, k <= K + 1, are ints in one unit
    (``_poisson_terms``); with B = t_0 + ... + t_K and T = t_{K+1},
    U = B + 2T, the coefficients are t_k / U, stored over the unit U, and
    the tail bound is T (K + 2) q / (B ((K + 2) q - p)) + 2T / U for
    lam = p/q.
    """
    lam, eps = as_rational(lam), as_rational(eps)
    if lam <= 0:
        raise BadParameter(f"Poisson parameter {_brief(lam)} must be positive")
    if eps <= 0:
        raise BadParameter(f"eps={_brief(eps)} must be positive")
    family = f"poisson:{_brief(lam)}"
    p, q = lam.numerator, lam.denominator
    width = p.bit_length() + q.bit_length()
    cutoff = 1
    while cutoff < 2 * lam:
        cutoff *= 2
    while True:
        _check_cutoff(cutoff, family, eps, (cutoff + 2) * width, "(K + 2) x (bits(p) + bits(q))")
        terms = _poisson_terms(p, q, cutoff + 1)
        last = terms.pop()
        boxed = sum(terms)
        ratio = (cutoff + 2) * q  # 1 / (1 - lam / (K + 2)) = ratio / (ratio - p)
        tail = Fraction(last * ratio, boxed * (ratio - p)) + Fraction(2 * last, boxed + 2 * last)
        if tail < eps:
            return LatticeSeq._of_ints(boxed + 2 * last, terms, tail, Fraction(1), False)
        cutoff *= 2


def _poisson_terms(p: int, q: int, top: int) -> list[int]:
    """lam^k / k! for k = 0..top, lam = p/q, in units of 1 / (q^top top!):
    the ints t_k = p^k q^(top - k) top! / k!, by the exact recurrence
    t_(k+1) = t_k p / (q (k + 1)), one short product and division each."""
    terms = [q**top * factorial(top)]
    for k in range(top):
        terms.append(terms[-1] * p // (q * (k + 1)))
    return terms


def _check_cutoff(cutoff: int, family: str, eps: Fraction, bits: int, formula: str):
    if cutoff > MAX_CUTOFF:
        raise BadParameter(
            f"{family} at eps={_brief(eps)} needs a truncation cutoff above"
            f" MAX_CUTOFF = {MAX_CUTOFF}"
        )
    if bits > MAX_WEIGHT_BITS:
        raise BadParameter(f"{family} at cutoff {cutoff} needs weights of {bits} bits,"
                           f" above MAX_WEIGHT_BITS = {MAX_WEIGHT_BITS} ({formula})")


def _brief(value: Fraction) -> str:
    """format_rational(value), or, when that text is longer than 60
    characters, its digit counts ("<4001/4001-digit fraction>", "-<4301-digit
    integer>"), so that a refusal that names a parameter or eps stays one
    short line."""
    text = format_rational(value)
    if len(text) <= 60:
        return text
    sign, digits = ("-", text[1:]) if value < 0 else ("", text)
    kind = "fraction" if "/" in digits else "integer"
    return f"{sign}<{'/'.join(str(len(part)) for part in digits.split('/'))}-digit {kind}>"


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
