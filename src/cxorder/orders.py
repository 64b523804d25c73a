"""Exact decisions for the usual stochastic order, the convex order, and the
self-convolution criterion.

The central object is the profile (H*H) where H = F_mu - F_nu is the CDF
difference of an equal-mass pair.  The comparison

    mu*nu  <=_cx  (mu*mu + nu*nu)/2

holds exactly when (H*H)(A) >= 0 for every A.  H is a compactly supported
step function, so H*H is continuous, piecewise linear, and kinked only at
pairwise sums of the breakpoints of H; finitely many exact evaluations
therefore decide the sign everywhere.

Both that profile and the stop-loss gap of the convex order are sums of
ramps sum_j c_j (A - p_j)+, evaluated at their own sorted kinks p_j by one
running-slope sweep (``_ramp_sums``).  Writing H = sum_i d_i 1[t >= b_i]
with jumps d_i at the breakpoints b_i gives the ramp identity

    (H*H)(A) = sum_{i,j} d_i d_j (A - b_i - b_j)+,

so the profile of B breakpoints costs B^2 kink weights, one sort and one
sweep: O(B^2 log B) exact operations.

Neither the criterion nor its brute-force oracle ``rasa_direct`` builds an
intermediate measure or step function.  The criterion reads the jumps of H
from the pair and squares them on ints; the oracle forms mu*mu, nu*nu and
mu*nu on ints and tests their net row with the kernel of leq_cx.  The two
share only ``measures._scaled_ints``, ``measures._product_row`` and
``_ramp_sums``, which the tests check against literal Fraction loops, so
each can certify the other.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import MassMismatch, NonConvexTestFn
from .measures import (
    DiscreteMeasure,
    StepFunction,
    _check_work,
    _frozen,
    _product_row,
    _scaled_ints,
    as_rational,
    format_rational,
)

# Budget, checked after the rows are scaled to ints and before the first
# product: the signed square of B breakpoints forms B^2 pairs and the three
# convolutions of rasa_direct n*m + n^2 + m^2 for n and m atoms, each pair a
# product on ints of up to ``bits`` bits added into a kink or atom weight,
# plus a fixed Python overhead that counts as 512 bits, so
# pairs * max(bits, 512)^2 above MAX_CONVOLUTION_WORK is refused: 65,536
# pairs of ints up to 512 bits pass, 1,024 of 4,096 bits (at the limit
# `rasa check` takes about 0.5 s, `rasa gap` 1.2 s and `rasa direct` 0.1 s;
# the README has the table).  leq_st and leq_cx count their n + m atoms
# instead of pairs, each a few products and an lcm step on such ints, and
# check their common denominators while they grow.
MAX_CONVOLUTION_WORK = 2**34


@_frozen
class Witness:
    """Where and by how much a tested inequality fails.

    kind   one of "mass", "mean", "cdf", "hinge", "profile", "coefficient",
           "pair", "step", "quadruple"
    point  location of the violation: a rational, an index, a tuple, or None
    gap    the strictly violating signed amount (negative for a failed >=)
    """

    kind: str
    point: object
    gap: Fraction


@_frozen
class OrderVerdict:
    """Outcome of an order test.

    ``holds`` is True (certified), False (certified violation, witness
    present), or None for tests on truncated inputs whose examined exact
    prefix was clean but whose unseen tail prevents a global claim.
    """

    holds: bool | None
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds is False and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


@_frozen
class PiecewiseLinear:
    """Continuous function, affine between consecutive breakpoints and zero
    outside them.  ``values[i]`` is the value at ``breakpoints[i]``; the
    first and last values are 0 so the function is globally continuous."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values):
            raise ValueError("one value per breakpoint required")
        if self.values and (self.values[0] != 0 or self.values[-1] != 0):
            raise ValueError("a compactly supported profile must start and end at 0")

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints

    def value(self, x) -> Fraction:
        x = as_rational(x)
        bps = self.breakpoints
        if not bps or x <= bps[0] or x >= bps[-1]:
            return Fraction(0)
        i = bisect_right(bps, x) - 1
        x0, x1 = bps[i], bps[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (x - x0) / (x1 - x0)

    def minimum(self) -> tuple[Fraction, Fraction]:
        """(argmin, min) over breakpoints -- which is the global minimum,
        since the function is affine in between and 0 outside.  Ties go to
        the smallest argmin; the zero profile reports (0, 0)."""
        if not self.breakpoints:
            return Fraction(0), Fraction(0)
        best_x, best_v = self.breakpoints[0], self.values[0]
        for x, v in zip(self.breakpoints, self.values):
            if v < best_v:
                best_x, best_v = x, v
        return best_x, best_v


@_frozen
class ConvexTestFn:
    """phi(x) = const + slope*x + curve*x^2 + sum c_i * max(x - A_i, 0).

    Convexity is certified by construction: curve >= 0 and every hinge
    coefficient >= 0 (anything else raises NonConvexTestFn).  This family is
    closed under addition, non-negative scaling and argument rescaling, and
    it integrates exactly against finite discrete measures.
    """

    const: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)
    curve: Fraction = Fraction(0)
    hinges: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "const", as_rational(self.const))
        object.__setattr__(self, "slope", as_rational(self.slope))
        object.__setattr__(self, "curve", as_rational(self.curve))
        if self.curve < 0:
            raise NonConvexTestFn(
                f"quadratic coefficient {format_rational(self.curve)} is negative"
            )
        merged: dict[Fraction, Fraction] = {}
        for a, c in self.hinges:
            a, c = as_rational(a), as_rational(c)
            if c < 0:
                raise NonConvexTestFn(
                    f"hinge coefficient {format_rational(c)} at {format_rational(a)} is negative"
                )
            if c != 0:
                merged[a] = merged.get(a, Fraction(0)) + c
        object.__setattr__(self, "hinges", tuple(sorted(merged.items())))

    def __call__(self, x) -> Fraction:
        x = as_rational(x)
        out = self.const + self.slope * x + self.curve * x * x
        for a, c in self.hinges:
            if x > a:
                out += c * (x - a)
        return out

    def __add__(self, other: "ConvexTestFn") -> "ConvexTestFn":
        return ConvexTestFn(
            self.const + other.const,
            self.slope + other.slope,
            self.curve + other.curve,
            self.hinges + other.hinges,
        )

    def rescale_argument(self, factor) -> "ConvexTestFn":
        """The function x -> phi(factor * x), for factor > 0."""
        s = as_rational(factor)
        if s <= 0:
            raise NonConvexTestFn("argument rescaling needs a positive factor")
        return ConvexTestFn(
            self.const,
            self.slope * s,
            self.curve * s * s,
            tuple((a / s, c * s) for a, c in self.hinges),
        )

    def _tabulate(self, sums: Sequence[int], den: int) -> tuple[int, list[int]]:
        """(unit, [phi(s/den) * unit for s in sums]) on ints, for int sums s
        of any sign and den >= 1: each part is its coefficient times an int
        column over a unit (the constant's 1 over 1, the slope's s over den,
        the curve's s^2 over den^2, a hinge (A, c)'s max(s A.den - A.num den,
        0) over den A.den), summed on the lcm of their units.  The gaps
        tabulate phi here, so no other module reads its fields."""
        parts = [(self.const, 1, [1] * len(sums)), (self.slope, den, sums),
                 (self.curve, den * den, [t * t for t in sums])]
        for a, c in self.hinges:
            shift, q = a.numerator * den, a.denominator
            parts.append((c, den * q, [max(t * q - shift, 0) for t in sums]))
        return _unit_sum([(coeff.denominator * unit, [coeff.numerator * t for t in column])
                          for coeff, unit, column in parts if coeff], len(sums))

    def integrate(self, mu: DiscreteMeasure) -> Fraction:
        return sum((w * self(x) for x, w in mu.atoms), Fraction(0))

    def bound_on_unit_interval(self) -> Fraction:
        """Exact sup of |phi| over [0, 1].

        The max of a convex function sits at an endpoint; the min is found
        by walking the (increasing, piecewise linear) derivative.
        """
        kinks = [Fraction(0)] + [a for a, _ in self.hinges if 0 < a < 1] + [Fraction(1)]
        # the minimum sits at an endpoint, a hinge kink, or a quadratic vertex
        candidates = list(kinks)
        if self.curve > 0:
            # derivative on (left, right) is ramp + 2*curve*x with ramp
            # collecting slope plus all hinges switched on at left
            for left, right in zip(kinks, kinks[1:]):
                ramp = self.slope + sum(c for a, c in self.hinges if a <= left)
                vertex = -ramp / (2 * self.curve)
                if left < vertex < right:
                    candidates.append(vertex)
        lo = min(self(t) for t in candidates)
        hi = max(self(Fraction(0)), self(Fraction(1)))
        return max(abs(lo), abs(hi))


def affine_fn(const, slope) -> ConvexTestFn:
    return ConvexTestFn(const=const, slope=slope)


def quad_fn(curve) -> ConvexTestFn:
    return ConvexTestFn(curve=curve)


def hinge_fn(threshold, coeff=1) -> ConvexTestFn:
    return ConvexTestFn(hinges=((as_rational(threshold), as_rational(coeff)),))


def _unit_sum(parts, size: int) -> tuple[int, list[int]]:
    """(unit, total) for ``parts``, pairs (den, column) of int columns of
    ``size`` entries each over its own den: unit the lcm of the dens and
    total the entrywise sum of the columns over it."""
    unit = lcm(*(den for den, _ in parts))
    total = [0] * size
    for den, column in parts:
        factor = unit // den
        total = [t + factor * v for t, v in zip(total, column)]
    return unit, total


def _test_fn(phi) -> ConvexTestFn:
    """phi, once checked to be a ConvexTestFn: the gaps tabulate its parts."""
    if not isinstance(phi, ConvexTestFn):
        raise NonConvexTestFn("test function must be a ConvexTestFn")
    return phi


def leq_st(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Usual stochastic order: equal masses and F_mu >= F_nu everywhere.

    H = F_mu - F_nu is a step function that only moves at atom positions,
    so its values there decide the comparison on all of R, and the witness
    is the first atom position where H < 0.

    Runs on the ints of ``_net_ints``, under the same MAX_CONVOLUTION_WORK
    count of n + m atoms as leq_cx: one sorted scan of the running level of
    H, with Fractions built only for a witness.
    """
    scale, unit, net = _net_ints(mu, nu, len(mu.atoms) + len(nu.atoms), "stochastic-order")
    mass = sum(net.values())
    if mass:
        return OrderVerdict(False, Witness("mass", None, Fraction(-abs(mass), unit)))
    level = 0
    for x in sorted(net):
        level -= net[x]
        if level < 0:
            return OrderVerdict(False, Witness("cdf", Fraction(x, scale), Fraction(level, unit)))
    return OrderVerdict(True)


def _ramp_sums(points, weights) -> list:
    """sum_j weights[j] * (x - points[j])+ at every x in ``points``, which
    must be strictly increasing; exact on ints or Fractions.

    Between consecutive points the sum is affine, with slope the total
    weight of the points already passed, so one sweep gives every value.
    """
    values = []
    value = slope = 0
    previous = None
    for x, w in zip(points, weights):
        if previous is not None:
            value += slope * (x - previous)
        values.append(value)
        slope += w
        previous = x
    return values


def leq_cx(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Convex order: integral of every convex function does not decrease.

    Decided exactly by equal mass, equal mean, and hinge comparisons on the
    union of supports.  Completeness of the finite check: the gap
        D(A) = integral (x-A)+ d(nu) - integral (x-A)+ d(mu)
    is piecewise linear in A with kinks only at atom positions; for A below
    every atom D(A) = (mean nu - mean mu) - A (mass nu - mass mu), which is
    identically 0 once masses and means agree, and D(A) = 0 above every
    atom.  A piecewise-linear function vanishing on both unbounded rays
    attains its minimum at a kink, so D >= 0 at the kinks gives D >= 0 on R.

    Once masses and means agree, (x-A)+ - (A-x)+ = x - A integrates to the
    same value against both measures, so D(A) = sum_x (nu(x) - mu(x)) (A-x)+
    over the union of positions: a ramp sum, swept in one sorted pass
    (O(n log n) for n positions).  The witness is the first position where
    D < 0.

    Runs on the ints of ``_net_ints``: the mass, mean and ramp checks run
    in ``_cx_ints``, which builds Fractions only for a witness.
    """
    scale, unit, net = _net_ints(mu, nu, len(mu.atoms) + len(nu.atoms), "convex-order")
    return _cx_verdict(_cx_ints(net, scale, unit))


def _cx_verdict(witness: Witness | None) -> OrderVerdict:
    return OrderVerdict(True) if witness is None else OrderVerdict(False, witness)


def _net_ints(mu: DiscreteMeasure, nu: DiscreteMeasure, atoms: int, test: str):
    """(scale, unit, net) for the order tests: the positions of both
    measures scaled by one common denominator and the weights by one unit,
    net mapping each position of the union of supports, in units of
    1/scale, to nu's weight less mu's, in units of 1/unit.  ``atoms`` times
    max(bits, 512)^2 of the widest int past MAX_CONVOLUTION_WORK raise
    BadParameter; the common denominators are checked while they grow, so
    wide coprime denominators are refused before their full lcm."""
    n, m = len(mu.atoms), len(nu.atoms)
    what = f"the {test} test of {n} and {m} atoms"
    both = mu.atoms + nu.atoms
    scale, xs = _budgeted_ints([x for x, _ in both], atoms, what)
    unit, ws = _budgeted_ints([w for _, w in both], atoms, what)
    net = dict(zip(xs[n:], ws[n:]))
    for x, w in zip(xs[:n], ws[:n]):
        net[x] = net.get(x, 0) - w
    return scale, unit, net


def _cx_ints(net: dict[int, int], scale: int, unit: int) -> Witness | None:
    """The convex-order test of leq_cx on ints, also run by the Muirhead
    chain.  ``net`` maps every position of the union of supports, in units
    of 1/scale, to nu's weight less mu's, in units of 1/unit (0 where they
    agree).  Returns None when mu <=_cx nu, else the first failure's
    witness: the only Fractions built."""
    mass = sum(net.values())
    if mass:
        return Witness("mass", None, Fraction(-abs(mass), unit))
    mean = sum(x * w for x, w in net.items())
    if mean:
        return Witness("mean", None, Fraction(-abs(mean), scale * unit))
    points = sorted(net)
    for a, gap in zip(points, _ramp_sums(points, [net[a] for a in points])):
        if gap < 0:
            return Witness("hinge", Fraction(a, scale), Fraction(gap, scale * unit))
    return None


def _budgeted_ints(values, atoms: int, what: str) -> tuple[int, list[int]]:
    """``measures._scaled_ints`` under the work check of ``atoms`` atoms:
    the common denominator grows one value at a time and is checked at each
    step, and the scaled ints are checked once built."""
    scale = 1
    for v in values:
        if scale % v.denominator:
            scale = lcm(scale, v.denominator)
            _check_pairs(atoms, (scale,), what, "atoms")
    ints = [v.numerator * (scale // v.denominator) for v in values]
    _check_pairs(atoms, ints, what, "atoms")
    return scale, ints


def _jump_row(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """(scale, bs, unit, ds): the jumps d = mu(x) - nu(x) of H = F_mu - F_nu
    at the positions x where they are not 0, sorted, the positions bs over
    their least common denominator scale and the jumps ds over theirs, unit.
    Weights are subtracted only where mu and nu share a position; elsewhere
    a jump is the weight itself.  So an atom that both measures carry with
    one weight cancels before any scaling and leaves its denominators in
    neither unit: a unit of the whole pair, reduced afterwards by its gcd
    with each row, gives the same ints, but its gcds on wide coprime
    denominators cost more than all the rest."""
    net = dict(mu.atoms)
    for x, w in nu.atoms:
        net[x] = net[x] - w if x in net else -w
    xs = sorted(x for x, d in net.items() if d)
    scale, bs = _scaled_ints(xs)
    unit, ds = _scaled_ints([net[x] for x in xs])
    return scale, bs, unit, ds


def _signed_square(scale: int, bs: list[int], unit: int, ds: list[int]):
    """The signed measure (mu - nu)*(mu - nu) of the jumps ds/unit of H at
    the breakpoints bs/scale: the weights d_i d_j at b_i + b_j, as
    (scale, unit^2, kinks) with kinks[s] = w for the weight w/unit^2 at
    s/scale; sums whose weights cancel stay in ``kinks`` with weight 0.
    B^2 pairs past MAX_CONVOLUTION_WORK raise BadParameter before the first
    product."""
    breaks = len(bs)
    _check_pairs(breaks * breaks, bs + ds, f"the signed square of {breaks} breakpoints")
    row = list(zip(bs, ds))
    return scale, unit * unit, _product_row(row, row)


def _check_pairs(count: int, ints, what: str, noun: str = "pairs"):
    _check_work(count, ints, MAX_CONVOLUTION_WORK, lambda bits: (
        f"{what}: {count} {noun} on {bits}-bit ints exceed MAX_CONVOLUTION_WORK"
        f" = {MAX_CONVOLUTION_WORK} ({noun} x max(bits, 512)^2)"
    ), min_bits=512)


def _profile(scale: int, unit: int, kinks: dict[int, int]) -> tuple[PiecewiseLinear, list[int]]:
    """The profile (H*H) of the signed square ``kinks`` and its values on
    ints: the ramp sum over the kinks, sorted once and swept once, at every
    kink, in units of 1/(scale * unit)."""
    sums = sorted(kinks)
    values = _ramp_sums(sums, [kinks[s] for s in sums])
    denominator = scale * unit
    profile = PiecewiseLinear(
        tuple(Fraction(s, scale) for s in sums), tuple(Fraction(v, denominator) for v in values)
    )
    return profile, values


def step_self_convolution(h: StepFunction) -> PiecewiseLinear:
    """The exact profile (h*h), evaluated at every pairwise breakpoint sum
    (between which it is affine).

    With jumps d_i at the breakpoints b_i, (h*h)(A) is the ramp sum
    sum_{i,j} d_i d_j (A - b_i - b_j)+ over the kinks of ``_signed_square``,
    sorted once and swept once on ints, O(B^2 log B): the core of
    rasa_criterion, fed from h's own Fractions.  Sums whose weights cancel
    stay breakpoints of the profile.
    """
    levels = (0,) + h.values + (0,)
    scale, bs = _scaled_ints(h.breakpoints)
    unit, ds = _scaled_ints([after - before for before, after in zip(levels, levels[1:])])
    return _profile(*_signed_square(scale, bs, unit, ds))[0]


def rasa_criterion(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[OrderVerdict, PiecewiseLinear | None]:
    """Necessary-and-sufficient test for mu*nu <=_cx (mu*mu + nu*nu)/2.

    Returns the verdict together with the full profile (H*H) of
    H = F_mu - F_nu; the verdict holds exactly when the profile is
    nonnegative, and a failure reports the smallest minimising abscissa.
    Unequal masses m1 != m2 fail with no profile: the constant test
    functions give the gap m1 m2 - (m1^2 + m2^2)/2 = -(m1 - m2)^2/2.

    Builds no intermediate measure or step function: the jumps of H are
    read from the pair and scaled to ints (``_jump_row``), and the signed
    square, the ramp sweep and the argmin run on ints.  Fractions are built
    for the returned profile only, and the witness is read from it.  Of
    rasa_direct's code it shares only ``_scaled_ints``, ``_product_row``
    and ``_ramp_sums``, which the tests check against literal Fraction
    loops, and the work budget.
    """
    scale, bs, unit, ds = _jump_row(mu, nu)
    mass = sum(ds)
    if mass:
        return OrderVerdict(False, Witness("mass", None, Fraction(-mass * mass, 2 * unit * unit))), None
    profile, values = _profile(*_signed_square(scale, bs, unit, ds))
    low = min(values, default=0)
    if low < 0:
        i = values.index(low)
        return OrderVerdict(False, Witness("profile", profile.breakpoints[i], profile.values[i])), profile
    return OrderVerdict(True), profile


def rasa_direct(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Brute-force oracle: the three convolutions and the direct
    convex-order test of mu*nu against (mu*mu + nu*nu)/2.  A mass mismatch
    is a definite failure here (the constant test functions force equal
    masses), not an error.

    Builds no intermediate measure: the positions of both measures are
    scaled by one common denominator and the weights of each by its own
    unit, u and v; ``_product_row`` forms mu*mu, nu*nu and mu*nu on ints,
    and the net row nu*nu u^2 + mu*mu v^2 - 2 mu*nu u v over the unit
    2 u^2 v^2 goes to ``_cx_ints``, the kernel of leq_cx.  Of
    rasa_criterion's code it shares only ``_scaled_ints``, ``_product_row``
    and ``_ramp_sums``, which the tests check against literal Fraction
    loops, and the work budget, so the two can certify each other.  The
    n*m + n^2 + m^2 pairs of the three convolutions, on the widest of those
    ints, past MAX_CONVOLUTION_WORK raise BadParameter before the first
    product; the convex-order test counts nothing beyond them."""
    n, m = len(mu.atoms), len(nu.atoms)
    scale, xs = _scaled_ints([x for x, _ in mu.atoms + nu.atoms])
    u, a = _scaled_ints([w for _, w in mu.atoms])
    v, b = _scaled_ints([w for _, w in nu.atoms])
    _check_pairs(n * m + n * n + m * m, xs + a + b, f"the three convolutions of {n} and {m} atoms")
    mu_row, nu_row = list(zip(xs[:n], a)), list(zip(xs[n:], b))
    uu, vv, uv = u * u, v * v, 2 * u * v
    net = {s: w * uu for s, w in _product_row(nu_row, nu_row).items()}
    get = net.get
    for s, w in _product_row(mu_row, mu_row).items():
        net[s] = get(s, 0) + w * vv
    for s, w in _product_row(mu_row, nu_row).items():
        net[s] = get(s, 0) - w * uv
    return _cx_verdict(_cx_ints(net, scale, 2 * uu * vv))


def gap_functional(mu: DiscreteMeasure, nu: DiscreteMeasure, phi: ConvexTestFn) -> Fraction:
    """Exact value of integral phi d(mu*mu + nu*nu - 2 mu*nu).

    Requires equal masses so the affine part of phi cancels exactly.  The
    measure is the signed square (mu - nu)*(mu - nu) whose kinks the profile
    sweeps, read from the same ints as in rasa_criterion and paired with
    phi's int table at its kinks (ConvexTestFn._tabulate), so for a hinge at
    A this equals the rasa_criterion profile at A; for phi = x^2 it equals
    2 (mean mu - mean nu)^2 (raw means, any equal mass).
    """
    scale, bs, unit, ds = _jump_row(mu, nu)
    if sum(ds):
        raise MassMismatch(
            f"masses differ: {format_rational(mu.mass)} vs {format_rational(nu.mass)}"
        )
    phi = _test_fn(phi)
    scale, unit, kinks = _signed_square(scale, bs, unit, ds)
    phi_unit, values = phi._tabulate(list(kinks), scale)
    return Fraction(sum(map(mul, kinks.values(), values)), unit * phi_unit)
