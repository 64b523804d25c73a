"""Exact decisions for the usual stochastic order, the convex order, and the
self-convolution criterion.

The central object is the profile (H*H) where H = F_mu - F_nu is the CDF
difference of an equal-mass pair.  The comparison

    mu*nu  <=_cx  (mu*mu + nu*nu)/2

holds exactly when (H*H)(A) >= 0 for every A.  H is a compactly supported
step function, so H*H is continuous, piecewise linear, and kinked only at
pairwise sums of the breakpoints of H; finitely many exact evaluations
therefore decide the sign everywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import MassMismatch, NonConvexTestFn
from .measures import (
    DiscreteMeasure,
    StepFunction,
    as_rational,
    cdf_diff,
    convolve,
    integrate_hinge,
    mix,
)

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
            raise NonConvexTestFn(f"quadratic coefficient {self.curve} is negative")
        merged: dict[Fraction, Fraction] = {}
        for a, c in self.hinges:
            a, c = as_rational(a), as_rational(c)
            if c < 0:
                raise NonConvexTestFn(f"hinge coefficient {c} at {a} is negative")
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
    """
    if mu.mass != nu.mass:
        return OrderVerdict(False, Witness("mass", None, -abs(mu.mass - nu.mass)))
    if mu.mean != nu.mean:
        return OrderVerdict(False, Witness("mean", None, -abs(mu.mean - nu.mean)))
    for a in sorted(set(mu.positions()) | set(nu.positions())):
        gap = integrate_hinge(nu, a) - integrate_hinge(mu, a)
        if gap < 0:
            return OrderVerdict(False, Witness("hinge", a, gap))
    return OrderVerdict(True)


def _step_conv_value(h1: StepFunction, h2: StepFunction, at: Fraction) -> Fraction:
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


def step_self_convolution(h: StepFunction) -> PiecewiseLinear:
    """The exact profile (h*h), evaluated at every pairwise breakpoint sum
    (between which it is affine)."""
    if h.is_zero:
        return PiecewiseLinear((), ())
    sums = sorted({a + b for a in h.breakpoints for b in h.breakpoints})
    return PiecewiseLinear(tuple(sums), tuple(_step_conv_value(h, h, s) for s in sums))


def rasa_criterion(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[OrderVerdict, PiecewiseLinear]:
    """Necessary-and-sufficient test for mu*nu <=_cx (mu*mu + nu*nu)/2.

    Returns the verdict together with the full profile (H*H) of
    H = cdf_diff(mu, nu); the verdict holds exactly when the profile is
    nonnegative, and a failure reports the smallest minimising abscissa.
    """
    h = cdf_diff(mu, nu)  # raises MassMismatch when unrepresentable
    profile = step_self_convolution(h)
    arg, low = profile.minimum()
    if low < 0:
        return OrderVerdict(False, Witness("profile", arg, low)), profile
    return OrderVerdict(True), profile


def rasa_direct(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderVerdict:
    """Brute-force oracle: build the three convolutions and run the direct
    convex-order test.  Shares no code path with rasa_criterion, so the two
    can certify each other; a mass mismatch is a definite failure here (the
    constant test functions force equal masses), not an error."""
    left = convolve(mu, nu)
    right = mix((_HALF, _HALF), (convolve(mu, mu), convolve(nu, nu)))
    return leq_cx(left, right)


def gap_functional(mu: DiscreteMeasure, nu: DiscreteMeasure, phi: ConvexTestFn) -> Fraction:
    """Exact value of integral phi d(mu*mu + nu*nu - 2 mu*nu).

    Requires equal masses so the affine part of phi cancels exactly.  For a
    hinge at A this equals the rasa_criterion profile at A; for phi = x^2 it
    equals 2 (mean mu - mean nu)^2 (raw means, any equal mass).
    """
    if mu.mass != nu.mass:
        raise MassMismatch(f"masses differ: {mu.mass} vs {nu.mass}")
    if not isinstance(phi, ConvexTestFn):
        raise NonConvexTestFn("test function must be a ConvexTestFn")
    both = phi.integrate(convolve(mu, mu)) + phi.integrate(convolve(nu, nu))
    return both - 2 * phi.integrate(convolve(mu, nu))
