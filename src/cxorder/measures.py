"""Exact finite discrete measures on the rationals.

Positions, weights and everything derived from them are
`fractions.Fraction` values; no operation in this package touches floating
point, so equality and order comparisons are always exact.  All types are
immutable values and all operations are pure functions, safe to share
between threads without synchronisation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import MassMismatch, NegativeWeight, ParseError

def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and fraction strings like ``-3/4``.

    Floats are refused outright: admitting one would silently break the
    exactness guarantee of the whole pipeline.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int or string")
    return Fraction(value)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite non-negative measure with finitely many rational atoms.

    ``atoms`` is a tuple of (position, weight) pairs with strictly
    increasing positions and strictly positive weights.  The empty tuple is
    the zero measure.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        previous = None
        for x, w in self.atoms:
            if w <= 0:
                raise NegativeWeight(f"atom at {x} has non-positive weight {w}")
            if previous is not None and x <= previous:
                raise ValueError("atom positions must be strictly increasing")
            previous = x

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))

    @property
    def mean(self) -> Fraction:
        """Raw first moment, not normalised by the mass."""
        return sum((x * w for x, w in self.atoms), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def positions(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    def cdf(self, x) -> Fraction:
        """mu((-inf, x]), right-continuous."""
        x = as_rational(x)
        return sum((w for p, w in self.atoms if p <= x), Fraction(0))

    def scaled(self, factor) -> "DiscreteMeasure":
        factor = as_rational(factor)
        if factor < 0:
            raise NegativeWeight(f"scale factor {factor} is negative")
        if factor == 0:
            return DiscreteMeasure(())
        return DiscreteMeasure(tuple((x, factor * w) for x, w in self.atoms))


def make_measure(atoms: Iterable[tuple]) -> DiscreteMeasure:
    """Build a measure from (position, weight) pairs.

    Pairs sharing a position are merged by summing weights and zero-weight
    atoms are dropped, so equal measures always have equal atom tuples.
    Raises NegativeWeight if any single weight is negative.
    """
    merged: dict[Fraction, Fraction] = {}
    for x, w in atoms:
        x, w = as_rational(x), as_rational(w)
        if w < 0:
            raise NegativeWeight(f"weight {w} at position {x} is negative")
        merged[x] = merged.get(x, Fraction(0)) + w
    return DiscreteMeasure(tuple((x, w) for x, w in sorted(merged.items()) if w != 0))


def dirac(position) -> DiscreteMeasure:
    """The unit point mass at ``position``."""
    return DiscreteMeasure(((as_rational(position), Fraction(1)),))


@lru_cache(maxsize=4096)
def _convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    acc: dict[Fraction, Fraction] = {}
    for x, wx in mu.atoms:
        for y, wy in nu.atoms:
            s = x + y
            acc[s] = acc.get(s, Fraction(0)) + wx * wy
    return DiscreteMeasure(tuple(sorted(acc.items())))


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution: positions add, weights multiply (law of a sum of
    independent draws).  Masses multiply and means obey
    mean(mu*nu) = mass(nu)*mean(mu) + mass(mu)*mean(nu).

    Results are memoised in a process-wide ``lru_cache(maxsize=4096)``,
    which keeps up to 4096 argument pairs and their results alive for the
    life of the process.  Measures are immutable, so the cache never
    changes a result.
    """
    if nu.atoms < mu.atoms:  # commutative; normalise the cache key
        mu, nu = nu, mu
    return _convolve(mu, nu)


def mix(coeffs: Sequence, measures: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Non-negative linear combination sum_i coeffs[i] * measures[i]."""
    if len(coeffs) != len(measures):
        raise ValueError("coefficient and measure lists differ in length")
    acc: dict[Fraction, Fraction] = {}
    for c, m in zip(coeffs, measures):
        c = as_rational(c)
        if c < 0:
            raise NegativeWeight(f"mixture coefficient {c} is negative")
        if c == 0:
            continue
        for x, w in m.atoms:
            acc[x] = acc.get(x, Fraction(0)) + c * w
    return DiscreteMeasure(tuple((x, w) for x, w in sorted(acc.items()) if w != 0))


def integrate_hinge(mu: DiscreteMeasure, threshold) -> Fraction:
    """Exact integral of max(x - threshold, 0) against mu."""
    a = as_rational(threshold)
    return sum((w * (x - a) for x, w in mu.atoms if x > a), Fraction(0))


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function vanishing outside a compact interval.

    ``values[i]`` is the value on [breakpoints[i], breakpoints[i+1]); the
    function is 0 before the first breakpoint and from the last breakpoint
    on.  Stored canonically: no leading/trailing zero runs, no two adjacent
    intervals with equal values.  The zero function has no breakpoints.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != max(len(self.breakpoints) - 1, 0):
            raise ValueError("values must cover exactly the gaps between breakpoints")

    @property
    def is_zero(self) -> bool:
        return not self.breakpoints

    def value(self, x) -> Fraction:
        x = as_rational(x)
        i = bisect_right(self.breakpoints, x) - 1
        if 0 <= i < len(self.values):
            return self.values[i]
        return Fraction(0)


def step_function(breakpoints: Sequence, values: Sequence) -> StepFunction:
    """Canonicalising constructor: trims zero ends, merges equal neighbours."""
    pts = [as_rational(b) for b in breakpoints]
    vals = [as_rational(v) for v in values]
    if len(vals) != max(len(pts) - 1, 0):
        raise ValueError("values must cover exactly the gaps between breakpoints")
    while vals and vals[0] == 0:
        vals.pop(0)
        pts.pop(0)
    while vals and vals[-1] == 0:
        vals.pop()
        pts.pop()
    if not vals:
        return StepFunction((), ())
    out_pts = [pts[0]]
    out_vals = [vals[0]]
    for i in range(1, len(vals)):
        if vals[i] == out_vals[-1]:
            continue  # same value: the breakpoint between is not a jump
        out_pts.append(pts[i])
        out_vals.append(vals[i])
    out_pts.append(pts[-1])
    return StepFunction(tuple(out_pts), tuple(out_vals))


def cdf_diff(mu: DiscreteMeasure, nu: DiscreteMeasure) -> StepFunction:
    """H(x) = mu((-inf, x]) - nu((-inf, x]) as a compactly supported step.

    Needs equal masses: otherwise H does not return to 0 on the right and
    cannot be represented.
    """
    if mu.mass != nu.mass:
        raise MassMismatch(f"masses differ: {mu.mass} vs {nu.mass}")
    jumps: dict[Fraction, Fraction] = {}
    for x, w in mu.atoms:
        jumps[x] = jumps.get(x, Fraction(0)) + w
    for x, w in nu.atoms:
        jumps[x] = jumps.get(x, Fraction(0)) - w
    xs = sorted(jumps)
    running = Fraction(0)
    values = []
    for x in xs[:-1]:
        running += jumps[x]
        values.append(running)
    # equal masses force the level after the last jump back to 0
    return step_function(xs, values)


# -- measure file format ----------------------------------------------------
#
# {"atoms": [{"x": "<int>/<int>", "w": "<int>/<int>"}, ...]}
#
# Fraction strings also accept plain integers; JSON floats are rejected so a
# file can never smuggle inexact data into the pipeline.


def _reject_float(text: str):
    raise ParseError(f"floating-point literal {text!r} not allowed in measure files")


def format_rational(q: Fraction) -> str:
    q = as_rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def measure_to_json(mu: DiscreteMeasure) -> str:
    atoms = [{"x": format_rational(x), "w": format_rational(w)} for x, w in mu.atoms]
    return json.dumps({"atoms": atoms})


def measure_from_json(text: str) -> DiscreteMeasure:
    try:
        obj = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(obj, dict) or "atoms" not in obj:
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
