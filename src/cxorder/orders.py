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
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .errors import NonConvexTestFn
from .measures import (
    DiscreteMeasure,
    StepFunction,
    _frozen,
    _product_row,
    _scaled_ints,
    as_rational,
    cdf_diff,
    convolve,
    format_rational,
    mix,
)

_HALF = Fraction(1, 2)


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
        if bps[i] == x:
            return self.values[i]
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
        out = self.const
        if self.slope:
            out += self.slope * x
        if self.curve:
            out += self.curve * x * x
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

    def scaled(self, factor) -> "ConvexTestFn":
        factor = as_rational(factor)
        if factor < 0:
            raise NonConvexTestFn("scaling by a negative factor breaks convexity")
        return ConvexTestFn(
            factor * self.const,
            factor * self.slope,
            factor * self.curve,
            tuple((a, factor * c) for a, c in self.hinges),
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
            # collecting slope plus all hinges already switched on
            ramp = self.slope
            for a, c in self.hinges:
                if a <= 0:
                    ramp += c
            for left, right in zip(kinks, kinks[1:]):
                vertex = -ramp / (2 * self.curve)
                if left < vertex < right:
                    candidates.append(vertex)
                for a, c in self.hinges:
                    if a == right:
                        ramp += c
        lo = min(self(t) for t in candidates)
        hi = max(self(Fraction(0)), self(Fraction(1)))
        return max(abs(lo), abs(hi))


def affine_fn(const, slope) -> ConvexTestFn:
    return ConvexTestFn(const=const, slope=slope)


def quad_fn(curve) -> ConvexTestFn:
    return ConvexTestFn(curve=curve)


def hinge_fn(threshold, coeff=1) -> ConvexTestFn:
    return ConvexTestFn(hinges=((as_rational(threshold), as_rational(coeff)),))


def leq_st(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Usual stochastic order: equal masses and F_mu >= F_nu everywhere.

    H = F_mu - F_nu is a step function that only moves at atom positions,
    so its values on the steps of cdf_diff decide the comparison on all of
    R.  The first step where H < 0 starts at the first atom position where
    it does (a canonical step function breaks wherever its value changes).
    """
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -abs(mu.mass - nu.mass)))
    h = cdf_diff(mu, nu)
    for x, gap in zip(h.breakpoints, h.values):
        if gap < 0:
            return OrderVerdict(False, Witness("cdf", x, gap))
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
    """
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -abs(mu.mass - nu.mass)))
    if mu.mean != nu.mean:
        return OrderVerdict(False, Witness("mean", None, -abs(mu.mean - nu.mean)))
    net = dict(nu.atoms)
    for x, w in mu.atoms:
        net[x] = net.get(x, 0) - w
    points = sorted(net)
    for a, gap in zip(points, _ramp_sums(points, [net[a] for a in points])):
        if gap < 0:
            return OrderVerdict(False, Witness("hinge", a, gap))
    return OrderVerdict(True)


def _signed_square(h: StepFunction) -> tuple[int, int, dict[int, int]]:
    """The signed measure (mu - nu)*(mu - nu), for h = cdf_diff(mu, nu) with
    jumps d_i at breakpoints b_i: the weights d_i d_j at b_i + b_j, as
    (scale, unit, kinks) with kinks[s] = w for the weight w/unit at s/scale.
    Both are scaled to ints, so the B^2 products run on ints; sums whose
    weights cancel stay in ``kinks`` with weight 0."""
    levels = (0,) + h.values + (0,)
    jumps = [after - before for before, after in zip(levels, levels[1:])]
    scale, bs = _scaled_ints(h.breakpoints)
    scale_d, ds = _scaled_ints(jumps)
    row = list(zip(bs, ds))
    return scale, scale_d * scale_d, _product_row(row, row)


def step_self_convolution(h: StepFunction) -> PiecewiseLinear:
    """The exact profile (h*h), evaluated at every pairwise breakpoint sum
    (between which it is affine).

    With jumps d_i at the breakpoints b_i, (h*h)(A) is the ramp sum
    sum_{i,j} d_i d_j (A - b_i - b_j)+ over the kinks of ``_signed_square``,
    sorted once and swept once on ints, O(B^2 log B).  Sums whose weights
    cancel stay breakpoints of the profile.
    """
    scale, unit, kinks = _signed_square(h)
    sums = sorted(kinks)
    values = _ramp_sums(sums, [kinks[s] for s in sums])
    return PiecewiseLinear(
        tuple(Fraction(s, scale) for s in sums), tuple(Fraction(v, scale * unit) for v in values)
    )


def rasa_criterion(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[OrderVerdict, PiecewiseLinear | None]:
    """Necessary-and-sufficient test for mu*nu <=_cx (mu*mu + nu*nu)/2.

    Returns the verdict together with the full profile (H*H) of
    H = cdf_diff(mu, nu); the verdict holds exactly when the profile is
    nonnegative, and a failure reports the smallest minimising abscissa.
    Unequal masses m1 != m2 fail with no profile: the constant test
    functions give the gap m1 m2 - (m1^2 + m2^2)/2 = -(m1 - m2)^2/2.
    """
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -((mu.mass - nu.mass) ** 2) / 2)), None
    profile = step_self_convolution(cdf_diff(mu, nu))
    arg, low = profile.minimum()
    if low < 0:
        return OrderVerdict(False, Witness("profile", arg, low)), profile
    return OrderVerdict(True), profile


def rasa_direct(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Brute-force oracle: build the three convolutions and run the direct
    convex-order test.  Of rasa_criterion's code it shares only the integer
    scaling of ``measures._scaled_ints`` (behind ``convolve`` here and the
    profile there), which the tests check against literal Fraction loops, so
    the two can certify each other.  A mass mismatch is a definite failure
    here (the constant test functions force equal masses), not an error."""
    left = convolve(mu, nu)
    right = mix((_HALF, _HALF), (convolve(mu, mu), convolve(nu, nu)))
    return leq_cx(left, right)


def gap_functional(mu: DiscreteMeasure, nu: DiscreteMeasure, phi: ConvexTestFn) -> Fraction:
    """Exact value of integral phi d(mu*mu + nu*nu - 2 mu*nu).

    Requires equal masses so the affine part of phi cancels exactly.  The
    measure is the signed square (mu - nu)*(mu - nu) whose kinks the profile
    sweeps, so for a hinge at A this equals the rasa_criterion profile at A;
    for phi = x^2 it equals 2 (mean mu - mean nu)^2 (raw means, any equal mass).
    """
    h = cdf_diff(mu, nu)
    if not isinstance(phi, ConvexTestFn):
        raise NonConvexTestFn("test function must be a ConvexTestFn")
    scale, unit, kinks = _signed_square(h)
    return sum((w * phi(Fraction(s, scale)) for s, w in kinks.items() if w), Fraction(0)) / unit
