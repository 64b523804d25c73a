"""Exact finite discrete measures on the rationals.

A measure holds its positions and weights as int rows over their least
common denominators, and every kernel of this package runs on such ints;
Fractions are built for a view, a result or a witness.  So ``fractions``
is imported by the functions that build or check a Fraction, when they
run, and reading and deciding on measure files loads it not at all.  No
float ever decides a verdict, so equality and order comparisons are always
exact.  All types are immutable values and all operations are pure
functions, safe to share between threads without synchronisation.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cached_property, partial
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import BadParameter, NegativeWeight, ParseError

# Budget on the exponent of a string like "1e-30": Fraction builds 10^|exp|
# before any other check.  4300 is Python's own cap on the digits of an
# integer read from a string, so it also bounds every run of digits.
MAX_EXPONENT = 4300
# patterns of as_rational, through re's own cache
_EXPONENT = r"[eE][-+]?([\d_]+)"
_DIGITS = r"\d[\d_]*"


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
    raises FrozenInstanceError.  The constructor is compiled on the class's
    first construction, so a command pays only for the records it builds.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    get = attrgetter(*fields)
    values = get if len(fields) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        cls.__init__ = _compile_init(cls, fields)
        cls.__init__(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({text})"

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    return cls


def _compile_init(cls, fields: tuple[str, ...]):
    """The constructor of a `_frozen` record over ``fields``.  Generated
    code, as dataclasses does: a plain signature keeps construction as fast
    as a hand-written __init__."""
    defaults = {f"_default_{name}": cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = "".join(
        f", {name}=_default_{name}" if name in cls.__dict__ else f", {name}" for name in fields
    )
    lines = [f"def __init__(self{params}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines.append("    return None")
    namespace = {"_set": object.__setattr__, **defaults}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in a TypeError
    return init


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
    exceeds MAX_EXPONENT in size, or with a run of more than MAX_EXPONENT
    digits (which Python's int() would refuse), raises ValueError before
    Fraction sees it.
    """
    from fractions import Fraction

    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int or string")
    if isinstance(value, str):
        match = re.search(_EXPONENT, value) if "e" in value or "E" in value else None
        exponent = match.group(1).replace("_", "").lstrip("0") if match else ""
        if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        if len(value) > MAX_EXPONENT:
            digits = max((len(run.replace("_", "")) for run in re.findall(_DIGITS, value)), default=0)
            if digits > MAX_EXPONENT:
                raise ValueError(
                    f"int literal of {digits} digits exceeds MAX_EXPONENT = {MAX_EXPONENT}"
                )
    return Fraction(value)


class DiscreteMeasure:
    """Finite non-negative measure with finitely many rational atoms.

    ``atoms`` is a tuple of (position, weight) pairs with strictly
    increasing positions and strictly positive weights.  The empty tuple is
    the zero measure.

    The measure also has one int form, ``_int_form()``: (scale, xs, unit,
    ws) with the positions xs[i] / scale and the weights ws[i] / unit, scale
    and unit their least common denominators.  A measure read from a file
    (``measure_from_json``), drawn by a sweep or built by
    ``_measure_of_ints`` holds only that form, and ``atoms``, its Fraction
    view, is built on first read, as ``LatticeSeq.coeffs`` is.  A measure
    built from atoms computes its int form the first time a kernel asks for
    it.  ``==``, ``hash`` and ``repr`` read as for a record of the one field
    atoms, and assignment raises FrozenInstanceError.
    """

    __setattr__, __delattr__ = _refuse_set, _refuse_delete

    def __init__(self, atoms):
        previous = None
        for x, w in atoms:
            if w <= 0:
                raise NegativeWeight(
                    f"atom at {format_rational(x)} has non-positive weight {format_rational(w)}"
                )
            if previous is not None and x <= previous:
                raise ValueError("atom positions must be strictly increasing")
            previous = x
        self.__dict__["atoms"] = atoms

    @classmethod
    def _of_ints(cls, scale: int, xs: tuple[int, ...], unit: int, ws: tuple[int, ...]):
        """The measure of the int form (scale, xs, unit, ws): xs strictly
        increasing, every ws[i] > 0, scale and unit least."""
        mu = cls.__new__(cls)
        mu.__dict__["_form"] = scale, xs, unit, ws
        return mu

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        from fractions import Fraction

        scale, xs, unit, ws = self._form
        return tuple((Fraction(x, scale), Fraction(w, unit)) for x, w in zip(xs, ws))

    def _int_form(self, check=None) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """(scale, xs, unit, ws), computed from the atoms when first asked
        for: each common denominator grows one distinct denominator at a
        time, and ``check(denominator)``, when given, sees it at each step,
        so a kernel's budget refuses wide coprime denominators before their
        full lcm."""
        form = self.__dict__.get("_form")
        if form is None:
            scale, xs = _common_ints([(x.denominator, (x.numerator,)) for x, _ in self.atoms], check)
            unit, ws = _common_ints([(w.denominator, (w.numerator,)) for _, w in self.atoms], check)
            form = self.__dict__["_form"] = scale, tuple(xs), unit, tuple(ws)
        return form

    @property
    def _size(self) -> int:
        """The number of atoms, read from whichever form the measure holds."""
        atoms = self.__dict__.get("atoms")
        return len(self._form[1]) if atoms is None else len(atoms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if "_form" in self.__dict__ and "_form" in other.__dict__:
            return self._form == other._form  # least forms are canonical
        return self.atoms == other.atoms

    def __hash__(self):
        return hash((self.atoms,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(atoms={self.atoms!r})"

    @property
    def mass(self) -> Fraction:
        from fractions import Fraction

        _, _, unit, ws = self._int_form()
        return Fraction(sum(ws), unit)

    @property
    def mean(self) -> Fraction:
        """Raw first moment, not normalised by the mass."""
        from fractions import Fraction

        scale, xs, unit, ws = self._int_form()
        return Fraction(sum(map(mul, xs, ws)), scale * unit)

    @property
    def is_zero(self) -> bool:
        return not self._size

    def positions(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    def cdf(self, x) -> Fraction:
        """mu((-inf, x]), right-continuous."""
        from fractions import Fraction

        x = as_rational(x)
        return sum((w for p, w in self.atoms if p <= x), Fraction(0))

    def scaled(self, factor) -> "DiscreteMeasure":
        factor = as_rational(factor)
        if factor < 0:
            raise NegativeWeight(f"scale factor {format_rational(factor)} is negative")
        if factor == 0:
            return DiscreteMeasure(())
        return self._times(factor.numerator, factor.denominator)

    def _times(self, num: int, den: int) -> "DiscreteMeasure":
        """The measure with every weight times num/den, for num, den > 0, on
        the int form: one gcd puts the weights back on their least unit."""
        scale, xs, unit, ws = self._int_form()
        unit *= den
        ws = [w * num for w in ws]
        common = gcd(unit, *ws)
        return DiscreteMeasure._of_ints(scale, xs, unit // common, tuple(w // common for w in ws))


def _common_ints(rows, check=None) -> tuple[int, list[int]]:
    """(unit, ints) for int rows given as (denominator, numerators) pairs,
    each denominator positive: unit their lcm, grown one distinct
    denominator at a time and passed to ``check``, when given, at each step
    that widens it, and ints every numerator over it, row after row, one
    division per distinct denominator.  The lcm of least denominators is
    least."""
    unit, seen = 1, {1}
    for den, _ in rows:
        if den not in seen:
            seen.add(den)
            grown = lcm(unit, den)
            if grown != unit:
                unit = grown
                if check is not None:
                    check(unit)
    factors = {den: unit // den for den in seen}
    return unit, [n * factors[den] for den, row in rows for n in row]


def _measure_of_ints(atoms, check=None) -> DiscreteMeasure:
    """The measure of the atoms (xn, xd, wn, wd), position xn/xd and weight
    wn/wd, denominators positive, merged as ``make_measure`` merges
    Fractions: NegativeWeight for the first negative weight, then positions
    that coincide summed and zero weights dropped.  Each number is put in
    lowest terms by one gcd of its own two ints, so the lcm of the
    denominators is least; ``check(what, denominator)``, when given, sees
    the common denominator of the "positions" and then of the "weights" at
    each lcm step.  On those ``_least_form`` merges the atoms as ints."""
    for xn, xd, wn, wd in atoms:
        if wn < 0:
            raise NegativeWeight(
                f"weight {_ratio_text(wn, wd)} at position {_ratio_text(xn, xd)} is negative"
            )
    scale, xs = _common_ints([_lowest(xn, xd) for xn, xd, _, _ in atoms],
                             check and partial(check, "positions"))
    unit, ws = _common_ints([_lowest(wn, wd) for _, _, wn, wd in atoms],
                            check and partial(check, "weights"))
    return DiscreteMeasure._of_ints(*_least_form(scale, xs, unit, ws))


def _least_form(scale: int, xs, unit: int, ws):
    """(scale, xs, unit, ws), tuples of ints, of the entries xs[i]/scale and
    ws[i]/unit, each row given on its least unit, merged as ``make_measure``
    merges atoms (weights at equal positions summed, zero weights dropped,
    positions sorted), each row on its least denominator: a row takes a gcd
    only where it may lose a factor, the positions after a drop and the
    weights after a sum (Knuth, TAOCP vol. 2, 4.5.1)."""
    merged: dict[int, int] = {}
    for x, w in zip(xs, ws):
        merged[x] = merged[x] + w if x in merged else w
    summed = len(merged) < len(xs)
    xs = sorted(x for x, w in merged.items() if w)
    ws = [merged[x] for x in xs]
    if len(xs) < len(merged):  # a position dropped
        common = gcd(scale, *xs)
        scale, xs = scale // common, [x // common for x in xs]
    if summed:
        common = gcd(unit, *ws)
        unit, ws = unit // common, [w // common for w in ws]
    return scale, tuple(xs), unit, tuple(ws)


def _lowest(n: int, d: int) -> tuple[int, tuple[int]]:
    """(denominator, (numerator,)) of n/d in lowest terms, for d > 0."""
    common = gcd(n, d)
    return (d, (n,)) if common == 1 else (d // common, (n // common,))


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
    from fractions import Fraction

    return DiscreteMeasure(((as_rational(position), Fraction(1)),))


def _scaled_ints(values) -> tuple[int, list[int]]:
    """(scale, [v * scale for v in values]) with scale the least common
    denominator of ``values``: exact rationals as ints in units of 1/scale,
    so a kernel can multiply and add on ints and build one Fraction per
    output; ``_common_ints`` of the one-entry rows of the values."""
    return _common_ints([(v.denominator, (v.numerator,)) for v in values])


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


def _pack(values: Iterable[int], size: int) -> int:
    """The row of ints ``values``, each in [0, 2^(8 size)), as one int with
    entry i at byte i·size (Kronecker substitution): a product of two
    packed rows is the packed convolution of the rows while no slot of it
    reaches 2^(8 size)."""
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _unpack(packed: int, size: int) -> list[int]:
    """The slots of a non-negative packed int, read back from one to_bytes
    and a slice per slot; the row ends at its highest non-zero slot."""
    data = packed.to_bytes(-(-packed.bit_length() // (8 * size)) * size, "little")
    return [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]


def _repack(packed: int, size: int, wider: int) -> int:
    """The packed int with ``size``-byte slots on ``wider``-byte slots:
    each byte of a slot is copied by one strided slice per byte offset."""
    if wider == size or packed.bit_length() <= 8 * size:  # one slot moves nowhere
        return packed
    slots = -(-packed.bit_length() // (8 * size))
    data = packed.to_bytes(slots * size, "little")
    out = bytearray(slots * wider)
    for j in range(size):
        out[j::wider] = data[j::size]
    return int.from_bytes(out, "little")


def integrate_hinge(mu: DiscreteMeasure, threshold) -> Fraction:
    """Exact integral of max(x - threshold, 0) against mu."""
    from fractions import Fraction

    a = as_rational(threshold)
    return sum((w * (x - a) for x, w in mu.atoms if x > a), Fraction(0))


# -- measure file format ----------------------------------------------------
#
# {"atoms": [{"x": "<int>/<int>", "w": "<int>/<int>"}, ...]}
#
# Fraction strings also accept plain integers; JSON floats are rejected so a
# file can never smuggle inexact data into the pipeline.


def _reject_float(text: str):
    raise ParseError(f"floating-point literal {text!r} not allowed in measure files")


def _read_int(text: str):
    """An int literal as an int, or as its text when longer than
    MAX_EXPONENT: as_rational then refuses it with the atom's index."""
    return int(text) if len(text) <= MAX_EXPONENT else text


class _ScanContext:
    """The settings that ``json.loads(text, parse_float=_reject_float,
    parse_int=_read_int)`` hands CPython's C scanner."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_int = staticmethod(_read_int)
    parse_float = staticmethod(_reject_float)
    parse_constant = {
        "NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf"),
    }.__getitem__


_JSON_SPACE = " \t\n\r"  # what json skips before and after the value
_UNSCANNED = object()


def _scan_json(text: str):
    """What json.loads with the settings above returns, read by the C
    scanner that json.loads runs, without importing json: its import
    compiles a dozen regular expressions that no well-formed file needs.
    _UNSCANNED where json.loads must decide: no C scanner, text that is not
    a str or starts with a BOM, a scanner error, or data after the value."""
    try:
        from _json import make_scanner
    except ImportError:
        return _UNSCANNED
    if not isinstance(text, str) or text.startswith("\ufeff"):
        return _UNSCANNED
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    try:
        obj, end = make_scanner(_ScanContext())(text, start)
    except Exception:  # StopIteration, a float's ParseError, RecursionError, ...
        return _UNSCANNED  # json.loads raises it again, with its message
    return _UNSCANNED if text[end:].strip(_JSON_SPACE) else obj


def _ratio_text(num: int, den: int) -> str:
    """num/den for any den > 0, in lowest terms: the text of every printed
    rational, built without a Fraction."""
    common = gcd(num, den)
    num, den = num // common, den // common
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def format_rational(q: Fraction) -> str:
    q = as_rational(q)
    return _ratio_text(q.numerator, q.denominator)


def measure_to_json(mu: DiscreteMeasure) -> str:
    import json

    atoms = [{"x": format_rational(x), "w": format_rational(w)} for x, w in mu.atoms]
    return json.dumps({"atoms": atoms})


def _int_pair(value) -> tuple[int, int]:
    """(numerator, denominator) of a position or weight of a measure file,
    the denominator positive but not necessarily least: an int, and a string
    of at most MAX_EXPONENT ASCII digits after an optional "-", with an
    optional "/" and as many digits not all 0, are split into ints; every
    other value is read by as_rational, which words any error."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if digits.isdigit() and len(digits) <= MAX_EXPONENT and (
            not slash or den.isdigit() and len(den) <= MAX_EXPONENT and den.strip("0")
        ):
            return int(num), (int(den) if slash else 1)
    q = as_rational(value)
    return q.numerator, q.denominator


def measure_from_json(text: str, check=None) -> DiscreteMeasure:
    """The measure of a measure file's text (the format above).

    Malformed JSON, a float literal, an entry that is not an atom object and
    a position or weight that `as_rational` refuses (an int literal of more
    than MAX_EXPONENT digits among them) raise ParseError; the atoms are
    merged as by `make_measure`, on ints (``_measure_of_ints``, which passes
    ``check`` each common denominator as it grows).  No Fraction is built
    for a plain number (``_int_pair``).  Well-formed text is read by
    CPython's C scanner alone (`_scan_json`); anything else goes to
    ``json.loads``, which gives the message."""
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
    atoms = []
    for i, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
            raise ParseError(f'atom #{i} must be an object {{"x": ..., "w": ...}}')
        try:
            atoms.append((*_int_pair(entry["x"]), *_int_pair(entry["w"])))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"atom #{i}: {exc}") from exc
    return _measure_of_ints(atoms, check)
