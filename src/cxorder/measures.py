"""Exact finite discrete measures on the rationals.

Positions, weights and everything derived from them are
`fractions.Fraction` values; no operation in this package touches floating
point, so equality and order comparisons are always exact.  All types are
immutable values and all operations are pure functions, safe to share
between threads without synchronisation.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .errors import BadParameter, MassMismatch, NegativeWeight, ParseError

# Budget on the exponent of a string like "1e-30": Fraction builds 10^|exp|
# before any other check.  4300 is Python's own cap on the digits of an
# integer read from a string, which bounds the other parts of the text.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls):
    """Class decorator for an immutable record, as @dataclass(frozen=True)
    would make it, without importing dataclasses (and with it inspect and
    ast) at every start-up.

    The annotated fields, in order, become the constructor's parameters,
    positional or keyword; a class attribute of the same name is the
    default.  ``__post_init__`` runs after the fields are set and may set
    them again through ``object.__setattr__``.  ``==`` compares instances
    of the same class field by field, ``hash`` hashes the field tuple,
    ``repr`` reads ``Name(field=value, ...)``, and assignment or deletion
    raises FrozenInstanceError.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_default_{name}": cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = "".join(
        f", {name}=_default_{name}" if name in cls.__dict__ else f", {name}" for name in fields
    )
    lines = [f"def __init__(self{params}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines += ["    return None", "def values(self):"]
    lines.append("    return (" + "".join(f"self.{name}, " for name in fields) + ")")
    # Generated code, as dataclasses does: a plain signature keeps
    # construction as fast as a hand-written __init__.
    namespace = {"_set": object.__setattr__, **defaults}
    exec("\n".join(lines), namespace)
    values = namespace["values"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({text})"

    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in a TypeError
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    return cls


def _int_text(n: int) -> str:
    """The decimal digits of an int of any size.

    str() refuses an int of more digits than sys.get_int_max_str_digits()
    (4300 by default, never below 640), so a long int is split in two at a
    power of ten until each piece is short enough."""
    bits = n.bit_length()
    if bits <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    low_digits = bits * 3 // 20  # fewer than half of the digits
    high, low = divmod(n, 10**low_digits)
    return _int_text(high) + _int_text(low).zfill(low_digits)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and fraction strings like ``-3/4`` or ``1e-3``.

    Floats are refused outright: admitting one would silently break the
    exactness guarantee of the whole pipeline.  A string whose exponent
    exceeds MAX_EXPONENT in size raises ValueError before Fraction sees it.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int or string")
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        exponent = match.group(1).replace("_", "").lstrip("0") if match else ""
        if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
    return Fraction(value)


@_frozen
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
                raise NegativeWeight(
                    f"atom at {format_rational(x)} has non-positive weight {format_rational(w)}"
                )
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
            raise NegativeWeight(f"scale factor {format_rational(factor)} is negative")
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
            raise NegativeWeight(
                f"weight {format_rational(w)} at position {format_rational(x)} is negative"
            )
        merged[x] = merged[x] + w if x in merged else w
    return DiscreteMeasure(tuple((x, w) for x, w in sorted(merged.items()) if w != 0))


def dirac(position) -> DiscreteMeasure:
    """The unit point mass at ``position``."""
    return DiscreteMeasure(((as_rational(position), Fraction(1)),))


def _scaled_ints(values) -> tuple[int, list[int]]:
    """(scale, [v * scale for v in values]) with scale the least common
    denominator of ``values``: exact rationals as ints in units of 1/scale,
    so a kernel can multiply and add on ints and build one Fraction per
    output.  Each distinct denominator costs one lcm step and one division,
    however often it repeats."""
    denominators = {v.denominator for v in values}
    scale = lcm(*denominators)
    factors = {d: scale // d for d in denominators}
    return scale, [v.numerator * factors[v.denominator] for v in values]


def _check_work(count: int, ints, budget: int, message, min_count=0, min_bits=0):
    """Refuse max(count, min_count) x max(bits, min_bits)^2 above ``budget``,
    bits the widest of ``ints``, with BadParameter(message(bits))."""
    bits = max(map(int.bit_length, ints), default=0)
    if max(count, min_count) * max(bits, min_bits) ** 2 > budget:
        raise BadParameter(message(bits))


def _product_row(
    left: Iterable[tuple[int, int]], right: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """The convolution of two rows of (position, weight) int pairs as a
    dict position -> weight: positions add, weights multiply.  ``right``
    is iterated once per entry of ``left``, so it must be re-iterable."""
    acc: dict[int, int] = {}
    get = acc.get
    for x, wx in left:
        for y, wy in right:
            s = x + y
            acc[s] = get(s, 0) + wx * wy
    return acc


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution: positions add, weights multiply (law of a sum of
    independent draws).  Masses multiply and means obey
    mean(mu*nu) = mass(nu)*mean(mu) + mass(mu)*mean(nu).

    The positions of both measures are scaled to ints by one common
    denominator and the weights of each by its own, so the n*m sums and
    products run on ints and each output atom is one pair of Fractions.
    """
    pos_scale, positions = _scaled_ints([x for x, _ in mu.atoms + nu.atoms])
    xs, ys = positions[: len(mu.atoms)], positions[len(mu.atoms) :]
    mu_scale, mu_ws = _scaled_ints([w for _, w in mu.atoms])
    nu_scale, nu_ws = _scaled_ints([w for _, w in nu.atoms])
    acc = _product_row(zip(xs, mu_ws), list(zip(ys, nu_ws)))
    unit = mu_scale * nu_scale
    return DiscreteMeasure(
        tuple((Fraction(s, pos_scale), Fraction(w, unit)) for s, w in sorted(acc.items()))
    )


def mix(coeffs: Sequence, measures: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """Non-negative linear combination sum_i coeffs[i] * measures[i]."""
    if len(coeffs) != len(measures):
        raise ValueError("coefficient and measure lists differ in length")
    acc: dict[Fraction, Fraction] = {}
    for c, m in zip(coeffs, measures):
        c = as_rational(c)
        if c < 0:
            raise NegativeWeight(f"mixture coefficient {format_rational(c)} is negative")
        if c == 0:
            continue
        for x, w in m.atoms:
            acc[x] = acc.get(x, Fraction(0)) + c * w
    return DiscreteMeasure(tuple((x, w) for x, w in sorted(acc.items()) if w != 0))


def integrate_hinge(mu: DiscreteMeasure, threshold) -> Fraction:
    """Exact integral of max(x - threshold, 0) against mu."""
    a = as_rational(threshold)
    return sum((w * (x - a) for x, w in mu.atoms if x > a), Fraction(0))


@_frozen
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
        raise MassMismatch(
            f"masses differ: {format_rational(mu.mass)} vs {format_rational(nu.mass)}"
        )
    net = dict(mu.atoms)
    for x, w in nu.atoms:
        net[x] = net.get(x, 0) - w
    xs = sorted(x for x, w in net.items() if w)
    # Already canonical: every kept jump is non-zero, so no two adjacent
    # levels are equal and the first is not 0, and equal masses bring the
    # level after the last jump back to 0; step_function would change nothing.
    return StepFunction(tuple(xs), tuple(accumulate(net[x] for x in xs[:-1])))


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
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def measure_to_json(mu: DiscreteMeasure) -> str:
    import json

    atoms = [{"x": format_rational(x), "w": format_rational(w)} for x, w in mu.atoms]
    return json.dumps({"atoms": atoms})


def measure_from_json(text: str) -> DiscreteMeasure:
    import json

    try:
        obj = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except RecursionError as exc:  # the reader recurses once per nested array or object
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
