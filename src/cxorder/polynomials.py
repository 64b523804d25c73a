"""Sparse multivariate polynomials over the rationals, their evaluation on
measures by convolution, and the squared-difference machinery behind the
Muirhead-type convex-order comparisons.

A monomial x1^k1 ... xm^km evaluated on measures is the convolution
mu1^{*k1} * ... * mum^{*km} (exponent 0 contributes no factor, the empty
product being a unit mass at 0), and a polynomial with non-negative
coefficients is the corresponding mixture.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial, gcd, prod

from .errors import (
    ArityMismatch,
    BadParameter,
    DecompositionMismatch,
    LengthMismatch,
    MassMismatch,
    NonPositiveInput,
    NotMajorized,
    NotNonneg,
    NotSStep,
)
from .majorization import (
    distinct_arrangements,
    is_s_step,
    majorizes,
    s_step_chain,
    sorted_desc,
)
from .measures import (
    DiscreteMeasure,
    _common_ints,
    _frozen,
    _pack,
    _product_row,
    _repack,
    _scaled_ints,
    _unpack,
    as_rational,
    format_rational,
)
from .orders import OrderVerdict, Witness, _cx_ints, leq_cx, rasa_criterion

# Budget for w_polynomial: the most distinct arrangements it enumerates.
# Eight distinct exponents (8! = 40,320) fit; nine (362,880) are refused.
MAX_ARRANGEMENTS = 100_000
# Budget for poly_eval_measures: the largest span of one term,
# sum_i e_i * max(atoms(mu_i) - 1, 1), which bounds both the term's atom
# count on a lattice and the power steps that build it.
MAX_POLY_SPAN = 2048
# Budget for poly_eval_measures: the most work of one evaluation, span *
# bits, with span the largest span of a term and bits = top * bits(S) a
# bound on the bits of every weight (top the degree, S the largest of the
# common weight denominator and the int weight sums of the measures), as
# MAX_CHAIN_WORK counts a chain.  Checked before the first product.
# Evaluations just inside the limit took 0.1 to 1.6 s in-process (cli.run,
# printing included), the widest weights costing the most per unit of
# work: x1^1448 on a coin 0.1 s, x1^42 x2^42 on two binomials of degree 12
# 0.4 s, x1^12 on two atoms with 4300-digit weights 1.6 s.  x1^85 x2^85 on
# those binomials (work 16,993,200) took 3.4 s and printed 8.9 MB.
MAX_POLY_WORK = 2**22
# Budget for muirhead_cx_check: the most work of one chain, terms * span *
# bits, with terms the number of terms of all the W^t it evaluates, span =
# top * max(atoms - 1, 1) the widest span of a term and bits = top * bits(S)
# a bound on the bits of every weight (top = sum(p), S the int weight sum
# of each measure on the common unit).  Checked before the first product.
# Chains just inside the limit took 0.07 to 1.2 s in-process, the widest
# weights costing the most per unit of work.
MAX_CHAIN_WORK = 2**25
# Packed rows (_PackedPowers) replace the dict rows of _product_row when
# the evaluation has degree d >= 2 and every measure it raises to a power,
# of a atoms on span + 1 positions, is dense, span + 1 <= _PACK_SPREAD * a,
# and large enough, d * a >= _PACK_MIN_WORK: one wide product then does
# the work of about d^2 a^2 / 2 pairs of the dict loop.  Below either
# bound the dict rows were faster in-process (fixed costs of packing for
# small d * a; slots without atoms, or with all the weight bits of the
# row, for sparse supports).
_PACK_SPREAD = 2
_PACK_MIN_WORK = 48


@_frozen
class MVPolynomial:
    """Sparse polynomial; ``terms`` maps exponent tuples (length = arity) to
    non-zero rational coefficients, stored sorted for canonical equality."""

    arity: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        for exps, coeff in self.terms:
            if len(exps) != self.arity:
                raise ArityMismatch(f"monomial {exps} does not have arity {self.arity}")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in monomial {exps}")

    @staticmethod
    def from_dict(arity: int, terms: Mapping[tuple[int, ...], Fraction]) -> "MVPolynomial":
        cleaned = tuple(
            (tuple(exps), as_rational(c)) for exps, c in sorted(terms.items()) if c != 0
        )
        return MVPolynomial(arity, cleaned)

    @staticmethod
    def zero(arity: int) -> "MVPolynomial":
        return MVPolynomial(arity, ())

    @staticmethod
    def monomial(arity: int, exps: Sequence[int], coeff=1) -> "MVPolynomial":
        return MVPolynomial.from_dict(arity, {tuple(exps): as_rational(coeff)})

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    @property
    def nonneg(self) -> bool:
        """Certifies every coefficient >= 0 (required before evaluating on
        measures)."""
        return all(c >= 0 for _, c in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "MVPolynomial", sign: int) -> "MVPolynomial":
        if self.arity != other.arity:
            raise ArityMismatch(f"arities differ: {self.arity} vs {other.arity}")
        acc = self.as_dict()
        for exps, c in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + sign * c
        return MVPolynomial.from_dict(self.arity, acc)

    def __add__(self, other: "MVPolynomial") -> "MVPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "MVPolynomial") -> "MVPolynomial":
        return self._combine(other, -1)

    def __mul__(self, other: "MVPolynomial") -> "MVPolynomial":
        if self.arity != other.arity:
            raise ArityMismatch(f"arities differ: {self.arity} vs {other.arity}")
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return MVPolynomial.from_dict(self.arity, acc)

    def scaled(self, factor) -> "MVPolynomial":
        factor = as_rational(factor)
        return MVPolynomial.from_dict(
            self.arity, {e: factor * c for e, c in self.terms}
        )

    def partial(self, var: int) -> "MVPolynomial":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms:
            if exps[var] == 0:
                continue
            key = exps[:var] + (exps[var] - 1,) + exps[var + 1 :]
            acc[key] = acc.get(key, Fraction(0)) + c * exps[var]
        return MVPolynomial.from_dict(self.arity, acc)

    def eval(self, xs: Sequence) -> Fraction:
        if len(xs) != self.arity:
            raise ArityMismatch(f"need {self.arity} arguments, got {len(xs)}")
        points = [as_rational(x) for x in xs]
        total = Fraction(0)
        for exps, c in self.terms:
            term = c
            for x, e in zip(points, exps):
                if e:
                    term *= x**e
            total += term
        return total


def arrangement_count(p: Sequence[int]) -> int:
    """Number of distinct orderings of the multiset p: the multinomial
    len(p)! / prod(multiplicity!)."""
    count = factorial(len(p))
    for multiplicity in Counter(p).values():
        count //= factorial(multiplicity)
    return count


def w_polynomial(p: Sequence[int]) -> MVPolynomial:
    """The symmetrised monomial average: mean over all permutations pi of
    prod_l x_{pi(l)}^{p_l}.

    Computed over distinct arrangements of the multiset p (each raw
    permutation hits one of them, evenly), so repeated exponents cost
    nothing extra.  Symmetric, non-negative, and invariant under permuting p.
    Raises BadParameter, before enumerating, when p has more than
    MAX_ARRANGEMENTS distinct arrangements.
    """
    ph = sorted_desc(p)
    count = arrangement_count(ph)
    if count > MAX_ARRANGEMENTS:
        raise BadParameter(
            f"W^{ph} has {count} distinct arrangements, over the limit of {MAX_ARRANGEMENTS}"
        )
    share = Fraction(1, count)
    return MVPolynomial.from_dict(len(ph), {arr: share for arr in distinct_arrangements(ph)})


def muirhead_scalar(p: Sequence[int], q: Sequence[int], xs: Sequence) -> tuple[Fraction, Fraction]:
    """(W^p(xs), W^q(xs)) for positive rational xs and p majorized by q;
    the first value never exceeds the second."""
    if not majorizes(p, q):
        raise NotMajorized(f"{tuple(p)} is not majorized by {tuple(q)}")
    points = [as_rational(x) for x in xs]
    for x in points:
        if x <= 0:
            raise NonPositiveInput(f"input {format_rational(x)} is not strictly positive")
    if len(points) != len(p):
        raise LengthMismatch(f"need {len(p)} arguments, got {len(points)}")
    return w_polynomial(p).eval(points), w_polynomial(q).eval(points)


def poly_eval_measures(
    poly: MVPolynomial, measures: Sequence[DiscreteMeasure]
) -> DiscreteMeasure:
    """Evaluate a non-negative polynomial on measures by convolution.

    Runs on ints (``_eval_ints``): positions in units of their least
    common denominator and the weights of every measure in units of one
    common denominator.  The output row has distinct positions and
    positive weights, so it is only sorted and takes one gcd over each of
    its two int rows, which makes the result's int form least, and no
    Fraction is built.  Raises ArityMismatch for the wrong number of measures,
    NotNonneg for a negative coefficient, and BadParameter, before any
    power is built, when a term's span exceeds MAX_POLY_SPAN or the
    evaluation's work exceeds MAX_POLY_WORK.
    """
    degrees = {sum(exps) for exps, _ in poly.terms}
    used = [any(column) for column in zip(*(exps for exps, _ in poly.terms))]
    pos_scale, weight_scale, powers = _measure_powers(measures, max(degrees, default=0), used,
                                                      len(degrees) <= 1)
    unit, row = _eval_ints(poly, powers, weight_scale, budget_work=True)
    xs = sorted(row)
    ws = [row[x] for x in xs]
    pos_common, weight_common = gcd(pos_scale, *xs), gcd(unit, *ws)
    return DiscreteMeasure._of_ints(pos_scale // pos_common, tuple(x // pos_common for x in xs),
                                    unit // weight_common, tuple(w // weight_common for w in ws))


def _measure_powers(
    measures: Sequence[DiscreteMeasure], degree: int, used: Sequence[bool],
    homogeneous: bool = False,
):
    """(pos_scale, weight_scale, powers): every measure's atoms as
    (position, weight) int pairs, read from its int form, positions in
    units of 1/pos_scale and weights in units of 1/weight_scale, handed to
    the convolution powers that ``_eval_ints`` multiplies by, for
    polynomials of degree at most ``degree`` in which the i-th measure
    appears when ``used[i]``, all of one degree when ``homogeneous``.

    Every position of an evaluation is then congruent to one offset modulo
    the step g, the gcd of the differences between the positions of each
    measure used and, across them, between their first atoms (for
    polynomials of more than one degree, of the first atoms themselves).
    The powers are packed ints (``_PackedPowers``) with a slot per step g
    when degree >= 2 and every measure used has span + 1 <= _PACK_SPREAD *
    atoms and degree * atoms >= _PACK_MIN_WORK, span the distance from its
    first atom to its last in steps of g; dict rows (``_DictPowers``)
    otherwise: the zero measure, sparse supports such as {0, 1, 10^9},
    and evaluations too small to repay the packing.  Nothing is packed
    here, so the budgets of the callers run first."""
    forms = [m._int_form() for m in measures]
    pos_scale, positions = _common_ints([(s, xs) for s, xs, _, _ in forms])
    weight_scale, weights = _common_ints([(u, ws) for _, _, u, ws in forms])
    rows = []
    start = 0
    for _, xs, _, _ in forms:
        stop = start + len(xs)
        rows.append(list(zip(positions[start:stop], weights[start:stop])))
        start = stop
    live = [row for row, use in zip(rows, used) if use]
    if degree >= 2 and all(live) and live:
        first = live[0][0][0]
        step = gcd(*(x - row[0][0] for row in live for x, _ in row),
                   *(row[0][0] - first if homogeneous else row[0][0] for row in live))
        if all((row[-1][0] - row[0][0]) // (step or 1) + 1 <= _PACK_SPREAD * len(row)
               and degree * len(row) >= _PACK_MIN_WORK for row in live):
            return pos_scale, weight_scale, _PackedPowers(rows, step or 1)
    return pos_scale, weight_scale, _DictPowers(rows)


class _DictPowers:
    """Convolution powers as lists of (position, weight) int pairs, each
    built from the one below by ``_product_row``; a row of ``_eval_ints``
    is a dict position -> weight, multiplied by a power with
    ``_product_row`` too."""

    def __init__(self, rows: list[list[tuple[int, int]]]):
        self.rows = rows
        # powers[i][e]: the e-th power of the i-th measure (entry 0 unused)
        self.powers = [[[], row] for row in rows]

    @staticmethod
    def scalar(c: int) -> dict[int, int]:
        return {0: c}

    def times(self, row: dict[int, int], i: int, e: int) -> dict[int, int]:
        powers = self.powers[i]
        while len(powers) <= e:
            powers.append(list(_product_row(powers[-1], powers[1]).items()))
        return _product_row(row.items(), powers[e])

    @staticmethod
    def plus(into: dict[int, int], row: dict[int, int]) -> dict[int, int]:
        for s, w in row.items():
            into[s] = into.get(s, 0) + w
        return into

    @staticmethod
    def unpack(row: dict[int, int]) -> dict[int, int]:
        return row


class _PackedPowers:
    """Convolution powers as Kronecker-packed ints (Harvey, J. Symbolic
    Comput. 44, 2009): a measure's dense weight row, shifted to start at
    slot 0, is one int with one slot per position, and a product of two
    such ints is their convolution while no slot overflows.

    A row of ``_eval_ints`` is a triple (offset, total, packed): slot k
    holds the weight at position offset + k * step, and total is the row's
    weight sum.  Every weight is >= 0, so no slot exceeds total, and the slots are
    the whole bytes that hold it (``_slot_bytes``).  A product sums to the
    product of the sums of its factors, so both are widened to the width
    of the product (``measures._repack``) before they are multiplied, and
    a sum of two rows to the width of its total, after a shift of the one
    with the larger offset.  Each measure keeps its own offset, its first
    atom, so a support far from 0 costs nothing, and one slot per step,
    the gcd of every offset difference of the evaluation
    (``_measure_powers``), so a support on a coarse grid costs no empty
    slots.

    ``powers[i][e]`` holds the e-th power of the i-th measure as a pair
    (total, packed) on its own width, built once (``_power``); entry 1 is
    packed the first time a power of the measure is asked for, so a term
    refused by MAX_POLY_SPAN packs nothing."""

    def __init__(self, rows: list[list[tuple[int, int]]], step: int = 1):
        self.rows, self.step = rows, step
        self.offsets = [row[0][0] if row else 0 for row in rows]
        self.powers = [{} for _ in rows]

    @staticmethod
    def scalar(c: int) -> tuple[int, int, int]:
        return 0, c, c

    def times(self, row: tuple[int, int, int], i: int, e: int) -> tuple[int, int, int]:
        offset, total, packed = row
        power_total, power = _power(self.powers[i], self.rows[i], e, self.step)
        product = total * power_total
        size = _slot_bytes(product)
        packed = _repack(packed, _slot_bytes(total), size)
        return offset + e * self.offsets[i], product, packed * _repack(
            power, _slot_bytes(power_total), size
        )

    def plus(self, into: tuple[int, int, int], row: tuple[int, int, int]) -> tuple[int, int, int]:
        if into[0] > row[0]:
            into, row = row, into
        total = into[1] + row[1]
        size = _slot_bytes(total)
        low = _repack(into[2], _slot_bytes(into[1]), size)
        high = _repack(row[2], _slot_bytes(row[1]), size)
        return into[0], total, low + (high << (row[0] - into[0]) // self.step * 8 * size)

    def unpack(self, row: tuple[int, int, int]) -> dict[int, int]:
        offset, total, packed = row
        step = self.step
        return {offset + k * step: w
                for k, w in enumerate(_unpack(packed, _slot_bytes(total))) if w}


def _slot_bytes(bound: int) -> int:
    """The whole bytes of a slot that holds every int in [0, bound]."""
    return (bound.bit_length() + 7) // 8


def _dense(row: list[tuple[int, int]], step: int) -> list[int]:
    """The weights of the (position, weight) pairs ``row``, sorted by
    position, on every position from its first to its last that lies a
    multiple of ``step`` past the first."""
    offset = row[0][0]
    dense = [0] * ((row[-1][0] - offset) // step + 1)
    for s, w in row:
        dense[(s - offset) // step] = w
    return dense


def _power(
    powers: dict[int, tuple[int, int]], row: list[tuple[int, int]], e: int, step: int
) -> tuple[int, int]:
    """The e-th entry of the memo ``powers`` of (total, packed) powers of
    the measure with the (position, weight) pairs ``row``: entry 1 is the
    packed dense row, one slot per ``step``, and entry e is P^(e - 1) * P when entry e - 1 is
    there, as a chain asks for them, else P^(e//2) * P^(e - e//2), a
    squaring where the two halves are one.  On wide weights the first,
    a wide int times a narrow one, beat the balanced product: the chain
    (8,8) -> (16,0) on binomials of degree 32 ran in 0.92 of the dict
    rows' time with it and in 1.06 on balanced products alone."""
    entry = powers.get(e)
    if entry is None:
        if e == 1:
            total = sum(w for _, w in row)
            entry = total, _pack(_dense(row, step), _slot_bytes(total))
        else:
            low = e - 1 if e - 1 in powers else e // 2
            (total_a, a), (total_b, b) = (_power(powers, row, low, step),
                                          _power(powers, row, e - low, step))
            total = total_a * total_b
            size = _slot_bytes(total)
            a = _repack(a, _slot_bytes(total_a), size)
            b = a if low == e - low else _repack(b, _slot_bytes(total_b), size)
            entry = total, a * b
        powers[e] = entry
    return entry


def _eval_ints(
    poly: MVPolynomial, powers, weight_scale: int, budget_work: bool = False
) -> tuple[int, dict[int, int]]:
    """The core of poly_eval_measures: (unit, row) with row the evaluated
    measure as a dict position -> weight, in the position unit of
    ``powers`` and weights in units of 1/unit.

    ``powers`` (``_DictPowers`` or ``_PackedPowers``) multiplies a row by
    the e-th convolution power of the i-th measure, whose weights are in
    units of 1/weight_scale^e, and builds each power once, so polynomials
    evaluated on the same ``powers`` share them.  The coefficients are
    scaled by their lcm C, and a term c * x^e of degree d starts as the
    int c*C*weight_scale^(top - d), top being the largest degree, so every
    term ends in the one unit C*weight_scale^top.

    The variables are walked left to right, Horner-like: at each level the
    terms whose remaining exponents coincide are summed into one row,
    which is multiplied by the power of that variable once, so there is one
    product per distinct exponent suffix (for W^t, one per arrangement of a
    sub-multiset of t) rather than one per term and variable.  Raises
    BadParameter, before any power is built, when a term's span exceeds
    MAX_POLY_SPAN, or, with ``budget_work`` (a chain has its own budget,
    MAX_CHAIN_WORK), when the work exceeds MAX_POLY_WORK.
    """
    if len(powers.rows) != poly.arity:
        raise ArityMismatch(f"need {poly.arity} measures, got {len(powers.rows)}")
    if not poly.nonneg:
        raise NotNonneg("polynomial has a negative coefficient")
    steps = [max(len(row) - 1, 1) for row in powers.rows]
    widest = 0
    for exps, _ in poly.terms:
        span = sum(e * step for e, step in zip(exps, steps))
        if span > MAX_POLY_SPAN:
            raise BadParameter(
                f"monomial {exps} has span {span}, which exceeds MAX_POLY_SPAN = {MAX_POLY_SPAN}"
            )
        widest = max(widest, span)
    degrees = [sum(exps) for exps, _ in poly.terms]
    top = max(degrees, default=0)
    if budget_work:
        sums = [sum(w for _, w in row) for row in powers.rows]
        bits = top * max([weight_scale, *sums]).bit_length()
        if widest * bits > MAX_POLY_WORK:
            raise BadParameter(
                f"the polynomial has terms of span {widest} on {bits}-bit weights, work"
                f" {widest * bits}, which exceeds MAX_POLY_WORK = {MAX_POLY_WORK}"
            )
    coeff_scale, coeffs = _scaled_ints([c for _, c in poly.terms])
    # remaining exponents -> row summed over the terms
    groups = {
        exps: powers.scalar(c * weight_scale ** (top - d))
        for (exps, _), c, d in zip(poly.terms, coeffs, degrees)
    }
    for i in range(poly.arity):
        merged = {}
        for exps, row in groups.items():
            if exps[0]:
                row = powers.times(row, i, exps[0])
            into = merged.get(exps[1:])
            merged[exps[1:]] = row if into is None else powers.plus(into, row)
        groups = merged
    row = groups.get(())
    return coeff_scale * weight_scale**top, {} if row is None else powers.unpack(row)


def moment_consistency(
    poly_p: MVPolynomial,
    poly_q: MVPolynomial,
    masses: Sequence,
    means: Sequence,
) -> bool:
    """Check the two scalar identities any convex-order comparison forces:
    equal values at the mass vector, and equal directional derivatives along
    the mean vector at the mass vector."""
    if poly_p.arity != poly_q.arity:
        raise ArityMismatch(f"arities differ: {poly_p.arity} vs {poly_q.arity}")
    if len(masses) != poly_p.arity or len(means) != poly_p.arity:
        raise ArityMismatch("mass and mean vectors must match the polynomial arity")
    a = [as_rational(v) for v in masses]
    b = [as_rational(v) for v in means]
    if poly_p.eval(a) != poly_q.eval(a):
        return False
    lhs = sum((poly_p.partial(i).eval(a) * b[i] for i in range(len(a))), Fraction(0))
    rhs = sum((poly_q.partial(i).eval(a) * b[i] for i in range(len(a))), Fraction(0))
    return lhs == rhs


@_frozen
class SosDecomposition:
    """A certificate sum_{u<v} (x_u - x_v)^2 * R_uv with non-negative R's."""

    arity: int
    parts: tuple[tuple[int, int, MVPolynomial], ...]

    def __post_init__(self):
        for u, v, r in self.parts:
            if not 0 <= u < v < self.arity:
                raise ValueError(f"bad variable pair ({u}, {v}) for arity {self.arity}")
            if r.arity != self.arity:
                raise ArityMismatch("factor polynomial has the wrong arity")
            if not r.nonneg:
                raise NotNonneg(f"factor for pair ({u}, {v}) has a negative coefficient")

    def expand(self) -> MVPolynomial:
        total = MVPolynomial.zero(self.arity)
        for u, v, r in self.parts:
            du = [0] * self.arity
            du[u] = 1
            dv = [0] * self.arity
            dv[v] = 1
            diff = MVPolynomial.monomial(self.arity, du) - MVPolynomial.monomial(
                self.arity, dv
            )
            total = total + diff * diff * r
        return total


def sos_step_decomposition(p: Sequence[int], q: Sequence[int]) -> SosDecomposition:
    """Explicit certificate for one elementary transfer:
    W^q - W^p = sum_{u<v} (x_u - x_v)^2 R_uv.

    With the transfer raising entry l1 and lowering entry l2 of the sorted
    tuple, the factor for the ordered variable pair (u, v) is

        R_uv = (1/m!) * [sum over permutations pinning l1 -> u, l2 -> v of
                the remaining monomial] * sum_{j=lo}^{hi-1} x_u^j x_v^{hi+lo-1-j}

    where hi = p-hat[l1] and lo = q-hat[l2].  All its coefficients are
    positive, and the expansion identity is re-checked symbolically before
    returning.
    """
    ph, qh = sorted_desc(p), sorted_desc(q)
    m = len(ph)
    if ph == qh:
        return SosDecomposition(m, ())
    if not is_s_step(p, q):
        raise NotSStep(f"{tuple(p)} -> {tuple(q)} is not an elementary transfer")
    l1 = next(i for i in range(m) if qh[i] == ph[i] + 1)
    l2 = next(i for i in range(m) if qh[i] == ph[i] - 1)
    hi, lo = ph[l1], qh[l2]
    rest = tuple(ph[l] for l in range(m) if l not in (l1, l2))

    # multiplicity of each distinct arrangement of the remaining exponents
    count = prod(map(factorial, Counter(rest).values()))

    parts = []
    for u in range(m):
        for v in range(u + 1, m):
            others = [i for i in range(m) if i not in (u, v)]
            rest_sum: dict[tuple[int, ...], Fraction] = {}
            if others:
                for arr in distinct_arrangements(rest):
                    exps = [0] * m
                    for var, e in zip(others, arr):
                        exps[var] = e
                    key = tuple(exps)
                    rest_sum[key] = rest_sum.get(key, Fraction(0)) + count
            else:
                rest_sum[(0,) * m] = Fraction(count)
            bridge: dict[tuple[int, ...], Fraction] = {}
            for j in range(lo, hi):
                exps = [0] * m
                exps[u] = j
                exps[v] = hi + lo - 1 - j
                bridge[tuple(exps)] = Fraction(1)
            factor = (
                MVPolynomial.from_dict(m, rest_sum)
                * MVPolynomial.from_dict(m, bridge)
            ).scaled(Fraction(1, factorial(m)))
            if not factor.is_zero:
                parts.append((u, v, factor))
    decomposition = SosDecomposition(m, tuple(parts))
    if decomposition.expand() != w_polynomial(q) - w_polynomial(p):
        raise DecompositionMismatch(
            "internal: certificate does not expand to the symmetric-mean difference"
        )
    return decomposition


def _require_equal_masses(measures: Sequence[DiscreteMeasure]):
    masses = {m.mass for m in measures}
    if len(masses) > 1:
        raise MassMismatch(
            "measures carry different masses: "
            + ", ".join(map(format_rational, sorted(masses)))
        )


def _pairwise_profiles_nonneg(measures: Sequence[DiscreteMeasure]) -> Witness | None:
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            verdict, _ = rasa_criterion(measures[i], measures[j])
            if not verdict.holds:
                w = verdict.witness
                return Witness("pair", (i, j, w.point), w.gap)
    return None


def sos_cx_check(
    poly_p: MVPolynomial,
    poly_q: MVPolynomial,
    decomposition: SosDecomposition,
    measures: Sequence[DiscreteMeasure],
) -> OrderVerdict:
    """Certify P(measures) <=_cx Q(measures) through a squared-difference
    decomposition of Q - P.

    The certificate must expand to Q - P exactly; every pair of measures
    must pass the self-convolution criterion; and the conclusion is then
    double-checked with the direct convex-order test on the evaluated
    measures rather than taken on faith.
    """
    if poly_p.arity != poly_q.arity or decomposition.arity != poly_p.arity:
        raise ArityMismatch("polynomials and decomposition must share one arity")
    if decomposition.expand() != poly_q - poly_p:
        raise DecompositionMismatch("certificate does not expand to Q - P")
    _require_equal_masses(measures)
    bad_pair = _pairwise_profiles_nonneg(measures)
    if bad_pair is not None:
        return OrderVerdict(False, bad_pair)
    left = poly_eval_measures(poly_p, measures)
    right = poly_eval_measures(poly_q, measures)
    return leq_cx(left, right)


def muirhead_cx_check(
    p: Sequence[int], q: Sequence[int], measures: Sequence[DiscreteMeasure]
) -> OrderVerdict:
    """Convex-order comparison of symmetric means: W^p(mu_1..mu_m) <=_cx
    W^q(mu_1..mu_m) for p majorized by q and pairwise-compatible measures.

    Walks the elementary-transfer chain and re-verifies every step with the
    direct convex-order test; the first failing step is reported, exercising
    the theory rather than assuming it.

    Runs on ints end to end: the measures are scaled once and their
    convolution powers shared by every W^t of the chain, and consecutive
    rows are compared by leq_cx's kernel ``_cx_ints`` on the lcm of their
    two units (``measures._common_ints``), only the previous row being
    kept.  Raises BadParameter, before the pairwise profiles and before
    any power, when the chain's work exceeds MAX_CHAIN_WORK.
    """
    if not majorizes(p, q):
        raise NotMajorized(f"{tuple(p)} is not majorized by {tuple(q)}")
    if len(measures) != len(p):
        raise ArityMismatch(f"need {len(p)} measures, got {len(measures)}")
    _require_equal_masses(measures)
    chain = s_step_chain(p, q)
    pos_scale, weight_scale, powers = _measure_powers(measures, sum(p), [True] * len(measures), True)
    _check_chain_work(p, q, chain, powers.rows)
    bad_pair = _pairwise_profiles_nonneg(measures)
    if bad_pair is not None:
        return OrderVerdict(False, bad_pair)
    previous = None
    for t in chain:
        unit, row = _eval_ints(w_polynomial(t), powers, weight_scale)
        if previous is not None:
            lower, lower_unit, lower_row = previous
            common, ws = _common_ints([(unit, row.values()), (lower_unit, lower_row.values())])
            net = dict(zip(row, ws))
            for s, w in zip(lower_row, ws[len(row):]):
                net[s] = net.get(s, 0) - w
            witness = _cx_ints(net, pos_scale, common)
            if witness is not None:
                point = (lower, t, witness.point)
                return OrderVerdict(False, Witness("step", point, witness.gap))
        previous = t, unit, row
    return OrderVerdict(True)


def _check_chain_work(p, q, chain, rows: list[list[tuple[int, int]]]):
    """Refuse the chain of symmetric means ``chain`` on the int rows
    ``rows`` when its work terms * span * bits (see MAX_CHAIN_WORK)
    exceeds the budget."""
    terms = sum(map(arrangement_count, chain))
    top = sum(p)
    span = top * max((max(len(row) - 1, 1) for row in rows), default=1)
    bits = top * sum(w for _, w in rows[0]).bit_length() if rows else 0
    work = terms * span * bits
    if work > MAX_CHAIN_WORK:
        raise BadParameter(
            f"the chain from {tuple(p)} to {tuple(q)} evaluates {terms} terms of span {span}"
            f" on {bits}-bit weights, work {work}, which exceeds MAX_CHAIN_WORK = {MAX_CHAIN_WORK}"
        )
