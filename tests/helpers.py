"""Shared generators for randomized exact-arithmetic tests."""

import argparse
import bisect
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from cxorder import (
    ArityMismatch,
    BivariateFn,
    ConvexTestFn,
    DEFAULT_EPS,
    DiscreteMeasure,
    IntervalValue,
    MVPolynomial,
    MassMismatch,
    NotMajorized,
    NotNonneg,
    OrderVerdict,
    ParseError,
    PiecewiseLinear,
    Witness,
    as_rational,
    binomial_weights,
    cauchy_product,
    dirac,
    integrate_hinge,
    majorizes,
    make_measure,
    rasa_criterion,
    s_step_chain,
    truncate_negbinomial,
    w_polynomial,
)
from cxorder.bernstein import GAV_MODES, _self_form
from cxorder.cli import _REPRODUCTIONS
from cxorder.lattice import _scaled_rows
from cxorder import orders
from cxorder.measures import (_UNSCANNED, _int_text, _product_row, _read_int, _reject_float,
                              _scaled_ints, _scan_json, format_rational)

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


def measure_from_json_oracle(text: str) -> DiscreteMeasure:
    """The measure file reader as one json.loads call, the reading that
    measures.measure_from_json must give byte for byte."""
    import json

    try:
        obj = json.loads(text, parse_float=_reject_float, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested deeper than the parser's recursion limit") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise ParseError('measure file must be an object {"atoms": [...]}')
    pairs = []
    for i, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
            raise ParseError(f'atom #{i} must be an object {{"x": ..., "w": ...}}')
        try:
            pairs.append((as_rational(entry["x"]), as_rational(entry["w"])))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"atom #{i}: {exc}") from exc
    return make_measure(pairs)


def fraction_measure_from_json(text: str) -> DiscreteMeasure:
    """measures.measure_from_json as it read a file into one Fraction per
    position and weight, kept verbatim as the oracle of the int reader:
    the same measure, and the same error line, for every text."""
    obj = _scan_json(text)
    if obj is _UNSCANNED:
        import json

        try:
            obj = json.loads(text, parse_float=_reject_float, parse_int=_read_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
        except RecursionError as exc:  # the reader recurses once per nested array or object
            raise ParseError(
                "invalid JSON: nested deeper than the parser's recursion limit"
            ) from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise ParseError('measure file must be an object {"atoms": [...]}')
    pairs = []
    for i, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
            raise ParseError(f'atom #{i} must be an object {{"x": ..., "w": ...}}')
        try:
            pairs.append((as_rational(entry["x"]), as_rational(entry["w"])))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"atom #{i}: {exc}") from exc
    return make_measure(pairs)


def random_measure_draw(rng: random.Random) -> DiscreteMeasure:
    """cli._random_measure as it drew through Fractions and make_measure,
    kept as the oracle of the draws of `rasa equivalence`."""
    atoms = []
    for _ in range(rng.randint(1, 5)):
        position = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        weight = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        atoms.append((position, weight))
    return make_measure(atoms)


def random_lattice_measure_draw(rng: random.Random) -> DiscreteMeasure:
    """cli._random_lattice_measure as it drew through make_measure, kept as
    the oracle of the draws of `genfun equivalence`."""
    return make_measure((rng.randint(0, 6), rng.randint(1, 8)) for _ in range(rng.randint(1, 5)))


def int_form_oracle(mu: DiscreteMeasure) -> tuple:
    """(scale, xs, unit, ws) of a measure from its Fraction atoms: each row
    over the least common denominator of its values."""
    scale, xs = scaled_ints_oracle([x for x, _ in mu.atoms])
    unit, ws = scaled_ints_oracle([w for _, w in mu.atoms])
    return scale, tuple(xs), unit, tuple(ws)


def profile_minimum_oracle(profile) -> tuple[Fraction, Fraction]:
    """The former Fraction body of orders.PiecewiseLinear.minimum, kept as
    its oracle: the first breakpoint of least value, and (0, 0) for the
    zero profile."""
    if not profile.breakpoints:
        return Fraction(0), Fraction(0)
    best_x, best_v = profile.breakpoints[0], profile.values[0]
    for x, v in zip(profile.breakpoints, profile.values):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def leq_st_fraction_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """The former body of orders.leq_st, kept as the oracle of its int-built
    witnesses: the same scan of the running level of H, each witness built
    from Fractions."""
    scale, unit, net = orders._net_ints(mu, nu, mu._size + nu._size, "stochastic-order")
    mass = sum(net.values())
    if mass:
        return OrderVerdict(False, Witness("mass", None, Fraction(-abs(mass), unit)))
    level = 0
    for x in sorted(net):
        level -= net[x]
        if level < 0:
            return OrderVerdict(False, Witness("cdf", Fraction(x, scale), Fraction(level, unit)))
    return OrderVerdict(True)


def cx_ints_fraction_oracle(net, scale, unit):
    """The former body of orders._cx_ints, kept as the oracle of its
    int-built witnesses: the same checks, each witness built from
    Fractions."""
    mass = sum(net.values())
    if mass:
        return Witness("mass", None, Fraction(-abs(mass), unit))
    mean = sum(x * w for x, w in net.items())
    if mean:
        return Witness("mean", None, Fraction(-abs(mean), scale * unit))
    points = sorted(net)
    for a, gap in zip(points, orders._ramp_sums(points, [net[a] for a in points])):
        if gap < 0:
            return Witness("hinge", Fraction(a, scale), Fraction(gap, scale * unit))
    return None


def rasa_criterion_fraction_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """The verdict of the former body of orders.rasa_criterion, kept as the
    oracle of its int-built witnesses: the mass witness from Fractions, and
    the profile's minimum read by the Fraction argmin of
    profile_minimum_oracle."""
    scale, bs, unit, ds = orders._jump_row(mu, nu)
    mass = sum(ds)
    if mass:
        return OrderVerdict(False, Witness("mass", None, Fraction(-mass * mass, 2 * unit * unit)))
    scale, unit, kinks = orders._signed_square(scale, bs, unit, ds)
    sums = sorted(kinks)
    values = orders._ramp_sums(sums, [kinks[s] for s in sums])
    profile = PiecewiseLinear(tuple(Fraction(s, scale) for s in sums),
                              tuple(Fraction(v, scale * unit) for v in values))
    where, low = profile_minimum_oracle(profile)
    return OrderVerdict(False, Witness("profile", where, low)) if low < 0 else OrderVerdict(True)


def rat_oracle(q, decimal=None) -> str:
    """The former Fraction body of cli._Printer.rat and _decimal_digits,
    kept as the oracle of the int formatter: format_rational, and with
    ``decimal`` K digits rounded half up."""
    q = as_rational(q)
    text = format_rational(q)
    if decimal is None:
        return text
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    scaled = (n * 10**decimal + d // 2) // d
    if decimal == 0:
        return f"{text} ({sign}{_int_text(scaled)})"
    whole, frac = divmod(scaled, 10**decimal)
    return f"{text} ({sign}{_int_text(whole)}.{_int_text(frac).zfill(decimal)})"


def signed_square_oracle(scale, bs, unit, ds):
    """The signed square of orders._signed_square as the full square, every
    ordered pair (i, j) through measures._product_row, kept as its oracle."""
    row = list(zip(bs, ds))
    return scale, unit * unit, _product_row(row, row)


def jump_row_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple:
    """orders._jump_row from the jumps of H = F_mu - F_nu, literally: H
    re-summed from the Fraction atoms at every position of the union of
    supports, a breakpoint wherever it moves, and each row of positions and
    jumps over the least common denominator of its values."""
    breakpoints, jumps, level = [], [], Fraction(0)
    for x in sorted(set(mu.positions()) | set(nu.positions())):
        jump = mu.cdf(x) - nu.cdf(x) - level
        if jump:
            breakpoints.append(x)
            jumps.append(jump)
            level += jump
    scale, bs = scaled_ints_oracle(breakpoints)
    unit, ds = scaled_ints_oracle(jumps)
    return scale, tuple(bs), unit, tuple(ds)


def hinge_integral_brute(mu: DiscreteMeasure, threshold) -> Fraction:
    """Independent oracle: literal sum of max(x - A, 0) * w over atoms."""
    total = Fraction(0)
    for x, w in mu.atoms:
        total += max(x - Fraction(threshold), Fraction(0)) * w
    return total


def convolve_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """The convolution mu*nu by the literal loop that adds every atom
    pair's weight product, Fraction by Fraction, at the pair's sum."""
    acc: dict[Fraction, Fraction] = {}
    for x, wx in mu.atoms:
        for y, wy in nu.atoms:
            s = x + y
            acc[s] = acc.get(s, Fraction(0)) + wx * wy
    return DiscreteMeasure(tuple(sorted(acc.items())))


def mix(coeffs, measures) -> DiscreteMeasure:
    """The non-negative combination sum_i coeffs[i] * measures[i], every
    atom's weight times its coefficient, merged by make_measure."""
    return make_measure(
        (x, c * w) for c, m in zip(coeffs, measures, strict=True) for x, w in m.atoms
    )


def rescale_argument(phi: ConvexTestFn, factor) -> ConvexTestFn:
    """The test function x -> phi(factor * x), for factor > 0."""
    s = as_rational(factor)
    return ConvexTestFn(
        phi.const, phi.slope * s, phi.curve * s * s, tuple((a / s, c * s) for a, c in phi.hinges)
    )


def gap_functional_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, phi: ConvexTestFn) -> Fraction:
    """Independent oracle for gap_functional: the three literal convolutions
    mu*mu, nu*nu and mu*nu of convolve_oracle, phi summed over the atoms of
    each, Fraction by Fraction, and the first two less twice the third."""
    if mu.mass != nu.mass:
        raise MassMismatch(
            f"masses differ: {format_rational(mu.mass)} vs {format_rational(nu.mass)}"
        )

    def integral(m: DiscreteMeasure) -> Fraction:
        total = Fraction(0)
        for x, w in m.atoms:
            total += w * phi(x)
        return total

    both = integral(convolve_oracle(mu, mu)) + integral(convolve_oracle(nu, nu))
    return both - 2 * integral(convolve_oracle(mu, nu))


def cauchy_product_oracle(u, v) -> list[Fraction]:
    """Independent oracle for cauchy_product: the literal double loop over
    the non-zero entries, Fraction by Fraction."""
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


def scaled_ints_oracle(values) -> tuple[int, list[int]]:
    """The former measures._scaled_ints, kept as its oracle: the lcm over
    every entry's denominator and one division of the scale per entry."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def power_scaled_ints_oracle(rows, s) -> tuple[int, list[int]]:
    """The former scaling of lattice._rational_square, kept as the oracle of
    lattice._power_scaled_ints: every entry c at index k of every row
    times s^k as a Fraction, then the least common denominator of all of
    them and each entry in its units."""
    scaled = [c * s**k for row in rows for k, c in enumerate(row)]
    scale = math.lcm(*(c.denominator for c in scaled))
    return scale, [c.numerator * (scale // c.denominator) for c in scaled]


def truncate_negbinomial_oracle(n: int, x: Fraction, eps: Fraction) -> tuple:
    """The former Fraction loop of lattice.truncate_negbinomial, kept as its
    oracle (no budgets): (coeffs, tail_bound) of the doubling search, each
    weight the previous one times x (n + k + 1) / (k + 1) as a Fraction."""
    weights = [(1 - x) ** (n + 1)]
    cutoff = 1
    while True:
        while len(weights) <= cutoff + 1:
            k = len(weights) - 1
            weights.append(weights[-1] * x * (n + k + 1) / (k + 1))
        ratio = x * Fraction(n + cutoff + 2, cutoff + 2)
        if ratio < 1:
            certificate = weights[cutoff + 1] / (1 - ratio)
            if certificate < eps:
                return tuple(weights[: cutoff + 1]), certificate
        cutoff *= 2


def truncate_poisson_oracle(lam: Fraction, eps: Fraction) -> tuple:
    """The former Fraction loop of lattice.truncate_poisson, kept as its
    oracle (no budgets): (coeffs, tail_bound), the terms lam^k / k! as
    Fractions, the bounds 1 / (boxed + 2 t_(K+1)) <= e^(-lam) <= 1 / boxed
    and the tail from both."""
    core = [Fraction(1)]
    cutoff = 1
    while cutoff < 2 * lam:
        cutoff *= 2
    while True:
        while len(core) < cutoff + 2:
            core.append(core[-1] * lam / len(core))
        boxed = sum(core[: cutoff + 1], Fraction(0))
        lower_factor = 1 / (boxed + 2 * core[cutoff + 1])
        upper_factor = 1 / boxed
        core_tail = core[cutoff + 1] / (1 - lam / (cutoff + 2))
        tail = upper_factor * core_tail + (upper_factor - lower_factor) * boxed
        if tail < eps:
            return tuple(lower_factor * c for c in core[: cutoff + 1]), tail
        cutoff *= 2


def phi_form_oracle(u, v, phis) -> Fraction:
    """The former bernstein._phi_form, kept as the oracle of rasa_gap's self
    form bernstein._self_form: every Hankel row (v against phis shifted by i)
    summed on ints, then weighted by u_i, L^2 products for rows of length L."""
    scaled = [(math.lcm(*(c.denominator for c in row)), row) for row in (u, v, phis)]
    (u_scale, us), (v_scale, vs), (phi_scale, ps) = [
        (scale, [c.numerator * (scale // c.denominator) for c in row]) for scale, row in scaled
    ]
    total = sum(a * sum(map(operator.mul, vs, ps[i:])) for i, a in enumerate(us) if a)
    return Fraction(total, u_scale * v_scale * phi_scale)


def gavrea_p4_oracle(n: int, x: Fraction, y: Fraction, phi: ConvexTestFn, eps: Fraction) -> IntervalValue:
    """The former box route of bernstein.gavrea_p4_sum, kept as its oracle
    (no budgets): the same truncations, difference row d and tail slack,
    with phi's table built as Fractions phi(s/(2n + s)), scaled to ints by
    measures._scaled_ints and paired with d by the self form
    bernstein._self_form, L(L+1)/2 products for a row of length L."""
    fam_x, fam_y = truncate_negbinomial(n, x, eps), truncate_negbinomial(n, y, eps)
    if x == y:
        return IntervalValue(Fraction(0), Fraction(0))
    unit = math.lcm(fam_x.unit, fam_y.unit)
    fx, fy = unit // fam_x.unit, unit // fam_y.unit
    rows = itertools.zip_longest(fam_x.ints, fam_y.ints, fillvalue=0)
    scale, d = _scaled_rows([(unit, [a * fx - b * fy for a, b in rows], False)])
    phi_scale, ps = _scaled_ints([phi(Fraction(s, 2 * n + s)) for s in range(2 * len(d) - 1)])
    boxed = Fraction(_self_form(d, ps), scale * scale * phi_scale)
    sigma = Fraction(sum(map(abs, d)), scale)
    tau = fam_x.tail_bound + fam_y.tail_bound
    slack = phi.bound_on_unit_interval() * (2 * sigma * tau + tau * tau)
    return IntervalValue(boxed - slack, boxed + slack)


def square_oracle(d) -> list:
    """The literal square of the row d, the oracle of bernstein._square_ints:
    each coefficient summed along its anti-diagonal i + j = s."""
    size = len(d)
    return [sum(d[i] * d[s - i] for i in range(max(0, s - size + 1), min(s, size - 1) + 1))
            for s in range(2 * size - 1)]


def unit_interval_bound_oracle(phi: ConvexTestFn) -> Fraction:
    """The former ConvexTestFn.bound_on_unit_interval, kept as its oracle:
    sup |phi| over [0, 1], the minimum found by carrying the derivative's
    ramp from one piece to the next, each hinge added at its own kink."""
    kinks = [Fraction(0)] + [a for a, _ in phi.hinges if 0 < a < 1] + [Fraction(1)]
    candidates = list(kinks)
    if phi.curve > 0:
        ramp = phi.slope
        for a, c in phi.hinges:
            if a <= 0:
                ramp += c
        for left, right in zip(kinks, kinks[1:]):
            vertex = -ramp / (2 * phi.curve)
            if left < vertex < right:
                candidates.append(vertex)
            for a, c in phi.hinges:
                if a == right:
                    ramp += c
    lo = min(phi(t) for t in candidates)
    hi = max(phi(Fraction(0)), phi(Fraction(1)))
    return max(abs(lo), abs(hi))


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


class Step(NamedTuple):
    """A right-continuous step function, 0 outside [breakpoints[0],
    breakpoints[-1]): values[i] on [breakpoints[i], breakpoints[i + 1])."""

    breakpoints: tuple
    values: tuple

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints

    def value(self, x) -> Fraction:
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return self.values[i] if 0 <= i < len(self.values) else Fraction(0)


def cdf_diff(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Step:
    """H = F_mu - F_nu of an equal-mass pair as a Step: both CDFs re-summed
    at every position of the union of supports, a breakpoint wherever the
    level changes.  So no level repeats its neighbour and the first is not
    0, and equal masses bring the level after the last breakpoint to 0."""
    if mu.mass != nu.mass:
        raise MassMismatch(
            f"masses differ: {format_rational(mu.mass)} vs {format_rational(nu.mass)}"
        )
    breakpoints, levels = [], [Fraction(0)]
    for x in sorted(set(mu.positions()) | set(nu.positions())):
        level = mu.cdf(x) - nu.cdf(x)
        if level != levels[-1]:
            breakpoints.append(x)
            levels.append(level)
    return Step(tuple(breakpoints), tuple(levels[1:-1]))


def step_pair(h: Step) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """An equal-mass pair (mu, nu) whose cdf_diff is h: each jump of h at a
    breakpoint is an atom of mu where it rises and of nu where it falls."""
    levels = (Fraction(0),) + h.values + (Fraction(0),)
    jumps = [(b, after - before) for b, before, after in zip(h.breakpoints, levels, levels[1:])]
    return make_measure((b, d) for b, d in jumps if d > 0), make_measure(
        (b, -d) for b, d in jumps if d < 0
    )


def _step_conv_value(h1: Step, h2: Step, at: Fraction) -> Fraction:
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


def step_self_convolution_oracle(h: Step) -> PiecewiseLinear:
    """Independent oracle for the profile of rasa_criterion: the integral
    (h*h)(A) by midpoint integration over a fresh cut list at every
    pairwise breakpoint sum A, O(B^3 log B) for B breakpoints."""
    if h.is_zero:
        return PiecewiseLinear((), ())
    sums = sorted({a + b for a in h.breakpoints for b in h.breakpoints})
    return PiecewiseLinear(tuple(sums), tuple(_step_conv_value(h, h, s) for s in sums))


def rasa_criterion_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The former Fraction route of rasa_criterion, kept as its oracle:
    unequal masses m1 != m2 fail with the gap -(m1 - m2)^2/2 and no profile;
    otherwise the step function cdf_diff(mu, nu), its profile by
    step_self_convolution_oracle, and the verdict from the profile's
    minimum."""
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -((mu.mass - nu.mass) ** 2) / 2)), None
    profile = step_self_convolution_oracle(cdf_diff(mu, nu))
    arg, low = profile.minimum()
    if low < 0:
        return OrderVerdict(False, Witness("profile", arg, low)), profile
    return OrderVerdict(True), profile


def rasa_direct_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """The former Fraction route of rasa_direct, kept as its oracle: the
    three convolutions of convolve_oracle, mu*mu and nu*nu mixed half and
    half, and leq_cx_oracle of mu*nu against that mixture."""
    half = Fraction(1, 2)
    right = mix((half, half), (convolve_oracle(mu, mu), convolve_oracle(nu, nu)))
    return leq_cx_oracle(convolve_oracle(mu, nu), right)


def tensor_bernstein_oracle(g: BivariateFn, ns, xs) -> Fraction:
    """Independent oracle for tensor_bernstein: the literal sum over every
    index tuple of the weight product times g at (i_1/n_1, ..., i_k/n_k),
    evaluating g afresh wherever the weight is non-zero."""
    weight_rows = [binomial_weights(n, x) for n, x in zip(ns, xs)]
    total = Fraction(0)
    for indices in itertools.product(*(range(n + 1) for n in ns)):
        w = Fraction(1)
        for row, i in zip(weight_rows, indices):
            w *= row[i]
            if w == 0:
                break
        if w == 0:
            continue
        total += w * g([Fraction(i, n) for i, n in zip(indices, ns)])
    return total


def poly_eval_measures_oracle(poly: MVPolynomial, measures) -> DiscreteMeasure:
    """Independent oracle for poly_eval_measures: each variable's powers by
    one convolve_oracle per step, then per term one per non-zero
    exponent, the terms mixed Fraction by Fraction."""
    if len(measures) != poly.arity:
        raise ArityMismatch(f"need {poly.arity} measures, got {len(measures)}")
    if not poly.nonneg:
        raise NotNonneg("polynomial has a negative coefficient")
    powers: list[list[DiscreteMeasure]] = [[dirac(0), m] for m in measures]
    for exps, _ in poly.terms:
        for row, m, e in zip(powers, measures, exps):
            while len(row) <= e:
                row.append(convolve_oracle(row[-1], m))

    acc: dict[Fraction, Fraction] = {}
    for exps, coeff in poly.terms:
        part = dirac(0)
        for i, e in enumerate(exps):
            if e:
                part = convolve_oracle(part, powers[i][e])
        for x, w in part.atoms:
            acc[x] = acc.get(x, Fraction(0)) + coeff * w
    return make_measure(acc.items())


def muirhead_cx_check_oracle(p, q, measures, chain=None) -> OrderVerdict:
    """Independent oracle for muirhead_cx_check: its former loop, with
    every W^t evaluated afresh by poly_eval_measures_oracle and every step
    compared by leq_cx_oracle, on Fractions.  ``chain`` replaces
    s_step_chain(p, q)."""
    if not majorizes(p, q):
        raise NotMajorized(f"{tuple(p)} is not majorized by {tuple(q)}")
    if len(measures) != len(p):
        raise ArityMismatch(f"need {len(p)} measures, got {len(measures)}")
    masses = {m.mass for m in measures}
    if len(masses) > 1:
        raise MassMismatch(
            "measures carry different masses: " + ", ".join(map(format_rational, sorted(masses)))
        )
    for i, j in itertools.combinations(range(len(measures)), 2):
        verdict, _ = rasa_criterion(measures[i], measures[j])
        if not verdict.holds:
            w = verdict.witness
            return OrderVerdict(False, Witness("pair", (i, j, w.point), w.gap))
    chain = s_step_chain(p, q) if chain is None else chain
    for lower, upper in zip(chain, chain[1:]):
        verdict = leq_cx_oracle(
            poly_eval_measures_oracle(w_polynomial(lower), measures),
            poly_eval_measures_oracle(w_polynomial(upper), measures),
        )
        if not verdict.holds:
            w = verdict.witness
            return OrderVerdict(False, Witness("step", (lower, upper, w.point), w.gap))
    return OrderVerdict(True)


def squared_difference_gap_oracle(u, v, phi_at) -> Fraction:
    """Independent oracle for the squared-difference Hankel forms of
    bernstein (rasa_gap and rasa_scan on the Hankel table, the gavrea_p4_sum
    box on the square of d): the difference u - v, the shorter row padded
    with zeros, squared by cauchy_product and paired with phi_at(s) along
    its diagonals."""
    diff = [a - b for a, b in itertools.zip_longest(u, v, fillvalue=0)]
    square = cauchy_product(diff, diff)
    return sum((c * phi_at(s) for s, c in enumerate(square) if c != 0), Fraction(0))


def multi_rasa_gap_oracle(n: int, xs, phi: ConvexTestFn) -> Fraction:
    """Independent oracle for multi_rasa_gap: the mixed row of the m basis
    rows and the m-th power of each row, built by m(m - 1) + m - 1
    cauchy_product calls, their difference paired with phi(s/(m n))."""
    m = len(xs)
    weights = [binomial_weights(n, x) for x in xs]
    mixed = weights[0]
    for w in weights[1:]:
        mixed = cauchy_product(mixed, w)
    total = [-Fraction(m) * c for c in mixed]
    for w in weights:
        power = w
        for _ in range(m - 1):
            power = cauchy_product(power, w)
        for s, c in enumerate(power):
            total[s] += c
    return sum(
        (c * phi(Fraction(s, m * n)) for s, c in enumerate(total) if c != 0), Fraction(0)
    )


def supermodularity_check_oracle(g: BivariateFn, grid) -> OrderVerdict:
    """Independent oracle for supermodularity_check: the literal walk over
    every grid quadruple, (x1, y1) then (x2, y2) in lexicographic order,
    with four evaluations of g each, O(G^4) for G grid points."""
    pts = sorted({as_rational(t) for t in grid})
    for x1, y1 in itertools.combinations(pts, 2):
        for x2, y2 in itertools.combinations(pts, 2):
            gap = g([x1, x2]) + g([y1, y2]) - g([x1, y2]) - g([y1, x2])
            if gap < 0:
                return OrderVerdict(False, Witness("quadruple", (x1, x2, y1, y2), gap))
    return OrderVerdict(True)


def surface_oracle(point, poly_terms=(), hinge_terms=(), absdiff_terms=()) -> Fraction:
    """Independent oracle for BivariateFn: the literal loops over three term
    kinds, monomials (c, exponents) for c * prod u_t^e_t, hinges
    (c, alphas, A) for c * (sum alpha_t u_t - A)_+ and absolute differences
    (c, i, j) for c * |u_i - u_j|."""
    xs = [as_rational(t) for t in point]
    total = Fraction(0)
    for c, exps in poly_terms:
        term = c
        for t, e in zip(xs, exps):
            if e:
                term *= t**e
        total += term
    for c, alphas, a in hinge_terms:
        s = sum((al * t for al, t in zip(alphas, xs)), Fraction(0)) - a
        if s > 0:
            total += c * s
    for c, i, j in absdiff_terms:
        total += c * abs(xs[i] - xs[j])
    return total


def compose_convex_terms(phi: ConvexTestFn, weights):
    """(poly_terms, hinge_terms) of phi(sum w_t u_t) for surface_oracle: the
    constant, linear and quadratic parts of phi expanded into monomials,
    each hinge of phi a hinge term."""
    w = tuple(as_rational(t) for t in weights)
    k = len(w)
    terms = [(phi.const, (0,) * k)]
    for i, wi in enumerate(w):
        exps = [0] * k
        exps[i] = 1
        terms.append((phi.slope * wi, tuple(exps)))
        for j, wj in enumerate(w):
            exps = [0] * k
            exps[i] += 1
            exps[j] += 1
            terms.append((phi.curve * wi * wj, tuple(exps)))
    return terms, [(c, w, a) for a, c in phi.hinges]


def refuse(name):
    """A stand-in for ``name`` that fails the test if it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} may not run")

    return refuse


def square_work_message(products, bits, work=2**40):
    """The one line with which a lattice square past MAX_SQUARE_WORK = work
    is refused."""
    return (
        f"the square of a lattice pair, {products} products on {bits}-bit ints,"
        f" exceeds MAX_SQUARE_WORK = {work} (max(products, 64) x bits^2)"
    )


def wide_denominator_pair(n):
    """n unit atoms at 2k + 1/(10^4000 + k) against n at 2k + 1 +
    1/(10^4000 + n + k): equal masses, and 2n denominators of 13,288 bits
    whose pairwise gcds divide their differences, so the lcm of any two
    has about 26,576 bits."""
    big = 10**4000
    mu = make_measure([(2 * k + Fraction(1, big + k), 1) for k in range(n)])
    nu = make_measure([(2 * k + 1 + Fraction(1, big + n + k), 1) for k in range(n)])
    return mu, nu


def wide_weight_pair(n):
    """n atoms of weight 1/(10^4000 + k) at 2k against the same weights at
    2k + 1: equal masses, mu <=_st nu, and 2n weights whose 13,288-bit
    denominators are pairwise coprime up to factors below n, so their lcm
    gains about 13,288 bits with each new one."""
    big = 10**4000
    mu = make_measure([(2 * k, Fraction(1, big + k)) for k in range(n)])
    nu = make_measure([(2 * k + 1, Fraction(1, big + k)) for k in range(n)])
    return mu, nu


def measure_width_message(path, what, bits, budget=2**17):
    """The line (after "error: ") with which cli.load_measure refuses the
    file ``path`` whose ``what`` ("positions" or "weights") reach a common
    denominator of ``bits`` bits past MAX_MEASURE_BITS = budget."""
    return (f"{path}: BadParameter: the {what} have a common denominator of {bits} bits,"
            f" above MAX_MEASURE_BITS = {budget}")


def denominators_of_width(bits):
    """Pairwise coprime prime powers, each of at most 4,300 digits, whose
    product has exactly ``bits`` bits: powers of the odd primes fill up to
    about 1,000 bits short of it, and a power of 2 the rest."""
    dens, product = [], 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73):
        gap = bits - 1000 - product.bit_length()
        if gap < 100:  # no power of p, or a narrow one
            break
        dens.append(p ** int(min(14200, gap) / math.log2(p)))
        product *= dens[-1]
    dens.append(2 ** (bits - product.bit_length()))
    return dens


def first_lcm_bits_past(denominators, budget=2**17):
    """The bits of the first running lcm of ``denominators`` wider than
    ``budget`` bits, or of their whole lcm when none is."""
    common = 1
    for d in denominators:
        common = math.lcm(common, d)
        if common.bit_length() > budget:
            break
    return common.bit_length()


def convolution_work_message(what, count, bits, work=2**34, noun="pairs"):
    """The one line with which an order-engine square, convolution or
    convex-order test past MAX_CONVOLUTION_WORK = work is refused: count
    pairs, or atoms for leq_cx."""
    return (
        f"{what}: {count} {noun} on {bits}-bit ints exceed MAX_CONVOLUTION_WORK"
        f" = {work} ({noun} x max(bits, 512)^2)"
    )


# -- the argparse command line, kept as the oracle of cli.parse_args ----------
# The parser cxorder used before its table-driven one, unchanged but for its
# imports: a verb's arguments are added on its first parse, and its errors
# raise ParseError instead of exiting.


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting, and adds its own arguments only when
    argparse first gives it arguments to parse: ``populate(parser)`` runs
    then, so a command builds the parser of its own verb and no other."""

    def __init__(self, *args, populate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._populate = populate

    def parse_known_args(self, args=None, namespace=None):
        populate, self._populate = self._populate, None
        if populate is not None:
            populate(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):  # argparse would sys.exit(2); keep it testable
        raise ParseError(message)


def _rational_arg(text: str) -> Fraction:
    """argparse type of the --eps options: as_rational, its errors reported
    as bad values of the option."""
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}: {exc}") from exc


def _add_eps(parser: _Parser):
    """--eps, defaulting to lattice.DEFAULT_EPS."""
    parser.add_argument("--eps", type=_rational_arg, default=DEFAULT_EPS)


def _order_args(order: _Parser):
    order.add_argument("relation", choices=["st", "cx"])
    order.add_argument("--mu", required=True)
    order.add_argument("--nu", required=True)


def _rasa_args(rasa: _Parser):
    rasa_actions = rasa.add_subparsers(dest="action", required=True)
    for name in ("check", "direct"):
        sub = rasa_actions.add_parser(name)
        sub.add_argument("--mu", required=True)
        sub.add_argument("--nu", required=True)
    gap = rasa_actions.add_parser("gap")
    gap.add_argument("--mu", required=True)
    gap.add_argument("--nu", required=True)
    gap.add_argument("--phi", required=True)
    equiv = rasa_actions.add_parser("equivalence")
    equiv.add_argument("--trials", type=int, default=200)
    equiv.add_argument("--seed", type=int, default=0)


def _genfun_args(genfun: _Parser):
    genfun_actions = genfun.add_subparsers(dest="action", required=True)
    check = genfun_actions.add_parser("check")
    check.add_argument("--mu")
    check.add_argument("--nu")
    check.add_argument("--family", action="append",
                       help="negbinomial:n,x or poisson:lambda (repeatable)")
    _add_eps(check)
    check.add_argument("--csv", action="store_true")
    gequiv = genfun_actions.add_parser("equivalence")
    gequiv.add_argument("--trials", type=int, default=200)
    gequiv.add_argument("--seed", type=int, default=0)


def _major_args(major: _Parser):
    major_actions = major.add_subparsers(dest="action", required=True)
    for name in ("compare", "chain"):
        sub = major_actions.add_parser(name)
        sub.add_argument("--p", required=True)
        sub.add_argument("--q", required=True)


def _poly_args(poly: _Parser):
    poly_actions = poly.add_subparsers(dest="action", required=True)
    w = poly_actions.add_parser("w")
    w.add_argument("--p", required=True)
    sos = poly_actions.add_parser("sos")
    sos.add_argument("--p", required=True)
    sos.add_argument("--q", required=True)
    evaluate = poly_actions.add_parser("eval")
    evaluate.add_argument("--expr", required=True)
    evaluate.add_argument("--measure", action="append", required=True)
    muir = poly_actions.add_parser("muirhead")
    muir.add_argument("--p", required=True)
    muir.add_argument("--q", required=True)
    muir.add_argument("--measure", action="append", required=True)


def _bernstein_args(bern: _Parser):
    bern_actions = bern.add_subparsers(dest="action", required=True)
    brasa = bern_actions.add_parser("rasa")
    brasa.add_argument("--n", type=int, required=True)
    brasa.add_argument("--x", required=True)
    brasa.add_argument("--y", required=True)
    brasa.add_argument("--phi", required=True)
    bscan = bern_actions.add_parser("rasa-scan")
    bscan.add_argument("--n", type=int, required=True)
    bscan.add_argument("--phi", required=True)
    bscan.add_argument("--step", default="1/16")
    gav = bern_actions.add_parser("gav")
    gav.add_argument("--mode", choices=list(GAV_MODES), required=True)
    gav.add_argument("--g", required=True)
    gav.add_argument("--ns", required=True)
    gav.add_argument("--points", required=True)
    gscan = bern_actions.add_parser("gav-scan")
    gscan.add_argument("--mode", choices=list(GAV_MODES), required=True)
    gscan.add_argument("--g", required=True)
    gscan.add_argument("--ns", required=True)
    gscan.add_argument("--step", default="1/4")
    smod = bern_actions.add_parser("supermod")
    smod.add_argument("--g", required=True)
    smod.add_argument("--step", default="1/16")
    eq6 = bern_actions.add_parser("eq6")
    eq6.add_argument("--ns", required=True)
    eq6.add_argument("--points", required=True)
    eq6.add_argument("--phi", required=True)
    multi = bern_actions.add_parser("multi")
    multi.add_argument("--n", type=int, required=True)
    multi.add_argument("--points", required=True)
    multi.add_argument("--phi", required=True)
    p4 = bern_actions.add_parser("p4")
    p4.add_argument("--n", type=int, required=True)
    p4.add_argument("--x", required=True)
    p4.add_argument("--y", required=True)
    p4.add_argument("--phi", required=True)
    _add_eps(p4)


def _reproduce_args(repro: _Parser):
    repro.add_argument("case", choices=list(_REPRODUCTIONS))
    _add_eps(repro)


# verb -> (help, the arguments of its parser)
_VERBS = {
    "order": ("usual stochastic / convex order", _order_args),
    "rasa": ("self-convolution criterion and oracle", _rasa_args),
    "genfun": ("lattice generating-function test", _genfun_args),
    "major": ("majorization comparisons and chains", _major_args),
    "poly": ("convolution polynomials", _poly_args),
    "bernstein": ("basis gap evaluators and scanners", _bernstein_args),
    "reproduce": ("bundled reference scenarios", _reproduce_args),
}


def build_argparse_parser() -> _Parser:
    """The former cxorder parser.  A verb's arguments are added when that
    verb is parsed."""
    parser = _Parser(prog="cxorder", formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--decimal", type=int, default=None, metavar="K",
                        help="append a K-digit decimal rendering to every fraction")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, add_arguments) in _VERBS.items():
        verbs.add_parser(name, help=help_text,
                         populate=lambda verb, add=add_arguments: add(verb))
    return parser
