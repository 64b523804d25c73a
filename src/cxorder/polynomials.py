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
from math import factorial, lcm, prod

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
    _frozen,
    _product_row,
    _scaled_ints,
    as_rational,
    format_rational,
)
from .orders import OrderVerdict, Witness, _cx_ints, leq_cx, rasa_criterion

# Budget for w_polynomial: the most distinct arrangements it enumerates.
# Eight distinct exponents (8! = 40,320) fit; nine (362,880) are refused.
MAX_ARRANGEMENTS = 100_000
# Budget for poly_eval_measures: the largest span of one term,
# sum_i e_i * max(atoms(mu_i) - 1, 1), which bounds both the term's atom
# count and the power steps that build it.  x1^2048 on a coin takes about
# 3 s.
MAX_POLY_SPAN = 2048


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
    common denominator, the weights of every measure in units of one common
    denominator, and one Fraction pair built per output atom.  Raises
    ArityMismatch for the wrong number of measures, NotNonneg for a
    negative coefficient, and BadParameter, before any power is built, when
    a term's span exceeds MAX_POLY_SPAN.
    """
    pos_scale, weight_scale, powers = _measure_powers(measures)
    unit, row = _eval_ints(poly, powers, weight_scale)
    return DiscreteMeasure(
        tuple((Fraction(s, pos_scale), Fraction(w, unit)) for s, w in sorted(row.items()))
    )


def _measure_powers(measures: Sequence[DiscreteMeasure]) -> tuple[int, int, list[list]]:
    """(pos_scale, weight_scale, powers): every measure's atoms as
    (position, weight) int pairs, positions in units of 1/pos_scale and
    weights in units of 1/weight_scale, each the entry 1 of that measure's
    list of convolution powers ``[[], pairs]`` for ``_eval_ints``."""
    pos_scale, positions = _scaled_ints([x for m in measures for x, _ in m.atoms])
    weight_scale, weights = _scaled_ints([w for m in measures for _, w in m.atoms])
    powers = []
    start = 0
    for m in measures:
        stop = start + len(m.atoms)
        powers.append([[], list(zip(positions[start:stop], weights[start:stop]))])
        start = stop
    return pos_scale, weight_scale, powers


def _eval_ints(
    poly: MVPolynomial, powers: list[list], weight_scale: int
) -> tuple[int, dict[int, int]]:
    """The core of poly_eval_measures: (unit, row) with row the evaluated
    measure as a dict position -> weight, in the position unit of
    ``powers`` and weights in units of 1/unit.

    ``powers[i][e]`` holds the (position, weight) int pairs of the i-th
    measure's e-th convolution power, weights in units of 1/weight_scale^e.
    Missing powers are appended in place, so polynomials evaluated on the
    same ``powers`` build each power once.  The coefficients are scaled by
    their lcm C, and a term c * x^e of degree d starts as the int
    c*C*weight_scale^(top - d), top being the largest degree, so every term
    ends in the one unit C*weight_scale^top.

    The variables are walked left to right, Horner-like: at each level the
    terms whose remaining exponents coincide are summed into one row,
    which is multiplied by the power of that variable once, so there is one
    product per distinct exponent suffix (for W^t, one per arrangement of a
    sub-multiset of t) rather than one per term and variable.  Raises
    BadParameter, before any power is built, when a term's span exceeds
    MAX_POLY_SPAN.
    """
    if len(powers) != poly.arity:
        raise ArityMismatch(f"need {poly.arity} measures, got {len(powers)}")
    if not poly.nonneg:
        raise NotNonneg("polynomial has a negative coefficient")
    steps = [max(len(row[1]) - 1, 1) for row in powers]
    for exps, _ in poly.terms:
        span = sum(e * step for e, step in zip(exps, steps))
        if span > MAX_POLY_SPAN:
            raise BadParameter(
                f"monomial {exps} has span {span}, which exceeds MAX_POLY_SPAN = {MAX_POLY_SPAN}"
            )
    coeff_scale, coeffs = _scaled_ints([c for _, c in poly.terms])
    degrees = [sum(exps) for exps, _ in poly.terms]
    top = max(degrees, default=0)
    # remaining exponents -> row {position: weight} summed over the terms
    groups: dict[tuple[int, ...], dict[int, int]] = {
        exps: {0: c * weight_scale ** (top - d)}
        for (exps, _), c, d in zip(poly.terms, coeffs, degrees)
    }
    for row_powers in powers:
        base = row_powers[1]
        for _ in range(len(row_powers), max((exps[0] for exps in groups), default=0) + 1):
            row_powers.append(list(_product_row(row_powers[-1], base).items()))
        merged: dict[tuple[int, ...], dict[int, int]] = {}
        for exps, row in groups.items():
            if exps[0]:
                row = _product_row(row.items(), row_powers[exps[0]])
            into = merged.get(exps[1:])
            if into is None:
                merged[exps[1:]] = row
            else:
                for s, w in row.items():
                    into[s] = into.get(s, 0) + w
        groups = merged
    return coeff_scale * weight_scale**top, groups.get((), {})


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
    two units, only the previous row being kept.
    """
    if not majorizes(p, q):
        raise NotMajorized(f"{tuple(p)} is not majorized by {tuple(q)}")
    if len(measures) != len(p):
        raise ArityMismatch(f"need {len(p)} measures, got {len(measures)}")
    _require_equal_masses(measures)
    bad_pair = _pairwise_profiles_nonneg(measures)
    if bad_pair is not None:
        return OrderVerdict(False, bad_pair)
    chain = s_step_chain(p, q)
    pos_scale, weight_scale, powers = _measure_powers(measures)
    previous = None
    for t in chain:
        unit, row = _eval_ints(w_polynomial(t), powers, weight_scale)
        if previous is not None:
            lower, lower_unit, lower_row = previous
            common = lcm(lower_unit, unit)
            up, down = common // unit, common // lower_unit
            net = {s: w * up for s, w in row.items()}
            for s, w in lower_row.items():
                net[s] = net.get(s, 0) - w * down
            witness = _cx_ints(net, pos_scale, common)
            if witness is not None:
                point = (lower, t, witness.point)
                return OrderVerdict(False, Witness("step", point, witness.gap))
        previous = t, unit, row
    return OrderVerdict(True)
