"""Command-line front end.

Verbs: order, rasa, genfun, major, poly, bernstein, reproduce.  Every number
is printed as an exact fraction (``--decimal K`` appends a K-digit rendering
for readability without ever affecting a verdict).  Exit codes: 0 the tested
inequality holds / reproduction matches, 1 it fails (a witness is printed),
2 usage or input error, 3 inconclusive (truncated input).

Textual grammars
----------------
convex test function (``--phi``):
    affine a b          a + b*x
    quad c              c*x^2           (c >= 0)
    hinge A c           c*max(x - A, 0) (c >= 0)
    sum(expr, expr, ...)

multivariate surface (``--g``):
    absdiff c           c*|u1 - u2|     (arity >= 2)
    term c e1,e2,...    c * u1^e1 u2^e2 ...
    hinge2 c a1,a2,... A    c*max(a1*u1 + a2*u2 + ... - A, 0)
    mid(<phi> ; w1,w2,...)  phi(w1*u1 + w2*u2 + ...)
    sum(expr; expr; ...)

polynomial (``--expr``):
    c * x1^3 x2 + c2 * x2^4 + c3      (fraction coefficients, 1-based vars)

A ``sum(...)`` or ``mid(...)`` call ends its expression: text after the
matching ``)`` is an error.

measure arguments: a JSON file path ({"atoms": [{"x": "1/2", "w": "1/4"}]})
or an inline ``binomial:n,x`` family.  Fraction strings accept plain
integers; floats are rejected.
"""

from __future__ import annotations

import os
import re
import sys
from functools import cached_property
from types import SimpleNamespace

# Every import at module level is paid by every command: a handler imports
# the modules its verb runs when it runs (and looks functions up on them
# then, so a patched module attribute is the one called).
from .errors import BadParameter, CxOrderError, Inconclusive, ParseError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


# -- textual parsers ---------------------------------------------------------


def _split_top(text: str, sep: str, base: int) -> list[tuple[str, int]]:
    """Split on a separator at parenthesis depth 0, keeping offsets."""
    parts, depth, begin = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append((text[begin:i], base + begin))
            begin = i + 1
    parts.append((text[begin:], base + begin))
    return parts


def _fraction(token: str, pos: int) -> Fraction:
    from .measures import as_rational

    try:
        return as_rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {token!r}: {exc}", pos) from exc


def _words(text: str, base: int) -> list[tuple[str, int]]:
    return [(m.group(), base + m.start()) for m in re.finditer(r"\S+", text)]


_CALL = r"\s*(\w+)\s*\("  # pattern strings go through re's own cache
# Budget: the parsers recurse once per nested call, so an expression whose
# parentheses nest deeper than MAX_NESTING is refused before any recursion
# (about 490 nested calls would exhaust Python's stack).
MAX_NESTING = 64


def _call_parts(text: str, base: int, sep: str):
    """Split a call ``name(part <sep> part ...)`` into (name, name position,
    [(part, offset), ...]) at parenthesis depth 0.

    Returns None when the first word is not followed by '('.  Text after the
    matching ')' is an error, not something to ignore."""
    head = "(" in text and re.match(_CALL, text)  # most terms are no call
    if not head:
        return None
    depth = 0
    for close_at in range(head.end() - 1, len(text)):
        if text[close_at] == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than MAX_NESTING = {MAX_NESTING}",
                                 base + close_at)
        elif text[close_at] == ")":
            depth -= 1
            if depth == 0:
                break
    else:
        raise ParseError("unbalanced parenthesis", head.end() - 1)
    rest = text[close_at + 1 :]
    if rest.strip():
        raise ParseError("unexpected text after ')'", base + len(text) - len(rest.lstrip()))
    parts = _split_top(text[head.end() : close_at], sep, base + head.end())
    return head.group(1), base + head.start(1), parts


def _integer(token: str, pos: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad integer {token!r}", pos) from exc


def _fraction_list(token: str, pos: int) -> list[Fraction]:
    return [_fraction(t, p) for t, p in _split_top(token, ",", pos)]


def _int_list(token: str, pos: int) -> list[int]:
    return [_integer(t, p) for t, p in _split_top(token, ",", pos)]


def _option(args, name: str, read):
    """Read option ``--name`` with one of the readers above; a malformed
    value is a ParseError that names the option."""
    try:
        return read(getattr(args, name), 0)
    except ParseError as exc:
        raise ParseError(f"--{name}: {exc}") from exc


def _sized_list(read, token: str, pos: int, head: str, arity: int | None) -> list:
    values = read(token, pos)
    if arity is not None and len(values) != arity:
        raise ParseError(f"{head} list must have {arity} entries, got {len(values)}", pos)
    return values


# atom name -> (argument readers, builder).  A builder takes the module
# that defines it (orders for --phi, bernstein for --g); surface builders
# take the arity next, and their list arguments must have one entry per
# variable.
_PHI_ATOMS = {
    "affine": ((_fraction, _fraction), lambda orders, a, b: orders.affine_fn(a, b)),
    "quad": ((_fraction,), lambda orders, c: orders.quad_fn(c)),
    "hinge": ((_fraction, _fraction), lambda orders, a, c: orders.hinge_fn(a, c)),
}
_SURFACE_ATOMS = {
    "absdiff": ((_fraction,), lambda bn, k, c: bn.absdiff_surface(c, arity=k)),
    "term": (
        (_fraction, _int_list),
        lambda bn, k, c, e: bn.poly_surface([(c, tuple(e))], len(e)),
    ),
    "hinge2": (
        (_fraction, _fraction_list, _fraction),
        lambda bn, k, *args: bn.hinge_surface(*args),
    ),
}


def _atom(text: str, base: int, table: dict, what: str, arity: int | None = None):
    """Read ``head arg arg ...`` against an atom table; returns the builder
    and the parsed arguments."""
    words = _words(text, base)
    if not words:
        raise ParseError(f"empty {what} expression", base + len(text) - len(text.lstrip()))
    (head, head_pos), args = words[0], words[1:]
    if head not in table:
        raise ParseError(f"unknown {what} atom {head!r}", head_pos)
    readers, build = table[head]
    if len(args) != len(readers):
        raise ParseError(f"{head} takes {len(readers)} parameter(s), got {len(args)}", head_pos)
    values = [
        read(tok, pos) if read is _fraction else _sized_list(read, tok, pos, head, arity)
        for read, (tok, pos) in zip(readers, args)
    ]
    return build, values


def parse_convex_fn(text: str, base: int = 0) -> ConvexTestFn:
    """Parse the ``affine a b | quad c | hinge A c | sum(...)`` grammar."""
    from . import orders

    call = _call_parts(text, base, ",")
    if call is None:
        build, values = _atom(text, base, _PHI_ATOMS, "test-function")
        return build(orders, *values)
    name, name_pos, parts = call
    if name != "sum":
        raise ParseError(f"unknown test-function call {name!r}", name_pos)
    total = orders.ConvexTestFn()
    for part, part_base in parts:
        total = total + parse_convex_fn(part, part_base)
    return total


def parse_surface(text: str, arity: int | None = None, base: int = 0) -> BivariateFn:
    """Parse the multivariate surface grammar (see module docstring)."""
    from . import bernstein as bn

    call = _call_parts(text, base, ";")
    if call is None:
        build, values = _atom(text, base, _SURFACE_ATOMS, "surface", arity)
        return build(bn, 2 if arity is None else arity, *values)
    name, name_pos, parts = call
    if name == "sum":
        pieces = [parse_surface(part, arity, part_base) for part, part_base in parts]
        return sum(pieces[1:], pieces[0])
    if name != "mid":
        raise ParseError(f"unknown surface call {name!r}", name_pos)
    if len(parts) != 2:
        raise ParseError("mid needs (<phi> ; w1,w2,...)", name_pos)
    (phi_text, phi_base), (w_text, w_base) = parts
    weights = _sized_list(_fraction_list, w_text.strip(), w_base, "mid", arity)
    return bn.compose_convex(parse_convex_fn(phi_text, phi_base), weights)


def parse_mvpoly(text: str, arity: int | None = None) -> MVPolynomial:
    """Parse ``c * x1^3 x2 + ...`` with fraction coefficients."""
    from fractions import Fraction

    from .polynomials import MVPolynomial

    terms: dict[tuple[int, ...], Fraction] = {}
    raw: list[tuple[Fraction, dict[int, int], int]] = []
    top = 0
    for part, part_base in _split_top(text, "+", 0):
        words = _words(part, part_base)
        if not words:
            raise ParseError("empty polynomial term", part_base)
        coeff = _fraction(*words[0])
        exps: dict[int, int] = {}
        rest = words[1:]
        if rest:
            if rest[0][0] != "*":
                raise ParseError("expected '*' after the coefficient", rest[0][1])
            rest = rest[1:]
            if not rest:
                raise ParseError("dangling '*'", words[0][1])
        for token, pos in rest:
            name, _, power = token.partition("^")
            if not name.startswith("x"):
                raise ParseError(f"expected a variable like x1, got {token!r}", pos)
            try:
                index = int(name[1:]) - 1
                exponent = int(power) if power else 1
            except ValueError as exc:
                raise ParseError(f"bad variable token {token!r}", pos) from exc
            if index < 0 or exponent < 0:
                raise ParseError(f"bad variable token {token!r}", pos)
            exps[index] = exps.get(index, 0) + exponent
        raw.append((coeff, exps, part_base))
        top = max([top] + [i + 1 for i in exps])
    if arity is None:
        arity = max(top, 1)
    for coeff, exps, pos in raw:
        if any(i >= arity for i in exps):
            raise ParseError(f"variable index exceeds arity {arity}", pos)
        key = tuple(exps.get(i, 0) for i in range(arity))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MVPolynomial.from_dict(arity, terms)


def parse_exponents(token: str, pos: int = 0) -> tuple[int, ...]:
    values = _int_list(token, pos)
    if any(v < 0 for v in values):
        raise ParseError(f"exponents must be non-negative: {token!r}", pos)
    return tuple(values)


# Budget: a measure file whose positions, or whose weights, have a common
# denominator (the lcm of their denominators in lowest terms) of more than
# MAX_MEASURE_BITS bits is refused while it is read, at the lcm step that
# passes the bound, before any product.  2^17 bits is the widest row that
# lattice.MAX_SQUARE_WORK admits (at its floor of 64 products), and
# orders.MAX_CONVOLUTION_WORK admits none wider than 92,681 bits.
MAX_MEASURE_BITS = 2**17


def _check_file_width(what: str, den: int):
    bits = den.bit_length()
    if bits > MAX_MEASURE_BITS:
        raise BadParameter(f"the {what} have a common denominator of {bits} bits, above"
                           f" MAX_MEASURE_BITS = {MAX_MEASURE_BITS}")


def load_measure(spec: str) -> DiscreteMeasure:
    """A measure argument: JSON file path or inline ``binomial:n,x``.  A
    file that does not read as a measure, or whose common denominators
    pass MAX_MEASURE_BITS, is a ParseError that names it."""
    from . import measures

    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                return measures.measure_from_json(handle.read(), _check_file_width)
        except (CxOrderError, UnicodeDecodeError) as exc:
            reason = exc if isinstance(exc, ParseError) else f"{exc.__class__.__name__}: {exc}"
            raise ParseError(f"{spec}: {reason}") from exc
    if spec.startswith("binomial:"):
        from . import bernstein

        args = spec.split(":", 1)[1]
        try:
            n_text, x_text = args.split(",")
            return bernstein.binomial_measure(int(n_text), measures.as_rational(x_text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad binomial spec {spec!r}: {exc}") from exc
    raise ParseError(f"measure {spec!r} is neither a file nor an inline family")


# -- output helpers ----------------------------------------------------------


class _Printer:
    def __init__(self):
        self.decimal: int | None = None
        self.lines: list[str] = []

    @cached_property
    def _num(self):
        """measures, bound on the first number printed: ``major compare``
        prints none and so never loads it."""
        from . import measures

        return measures

    def rat(self, q) -> str:
        """An int or Fraction as ``ratio`` prints it."""
        return self.ratio(q.numerator, q.denominator)

    def ratio(self, num: int, den: int) -> str:
        """num/den for any den > 0, printed in lowest terms, and with
        ``--decimal K`` its K-digit rendering: the one number formatter, on
        ints."""
        text = self._num._ratio_text(num, den)
        if self.decimal is not None:
            text += f" ({self._decimal_digits(num, den)})"
        return text

    def _decimal_digits(self, num: int, den: int) -> str:
        """num/den rounded half up to K digits; any positive den, in lowest
        terms or not, gives the same digits."""
        int_text, digits = self._num._int_text, self.decimal
        sign = "-" if num < 0 else ""
        n, d = abs(num), den
        scaled = (n * 10**digits + d // 2) // d  # round half up, integers only
        if digits == 0:
            return f"{sign}{int_text(scaled)}"
        whole, frac = divmod(scaled, 10**digits)
        return f"{sign}{int_text(whole)}.{int_text(frac).zfill(digits)}"

    def csv_gap(self, q: Fraction) -> str:
        """The num,den,sign fields of a CSV row; no field ever needs quoting."""
        int_text = self._num._int_text
        return f"{int_text(q.numerator)},{int_text(q.denominator)},{(q > 0) - (q < 0)}"

    def say(self, text: str = ""):
        self.lines.append(text)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _point_text(out: _Printer, point) -> str:
    """The point of a witness that a kernel building Fractions reports (a
    pair, a step, a quadruple), so the class it checks is loaded already."""
    from fractions import Fraction

    if isinstance(point, tuple):
        return "(" + ",".join(_point_text(out, p) for p in point) + ")"
    if isinstance(point, Fraction):
        return out.rat(point)
    return str(point)


def _witness_text(out: _Printer, witness) -> str:
    """The witness's fields as printed; its rationals are read as ints."""
    if witness is None:
        return ""
    kind, gap = witness.kind, out.ratio(*witness._ratio("gap"))
    if kind in ("profile", "hinge"):
        return f"A={out.ratio(*witness._ratio('point'))} gap={gap}"
    if kind == "cdf":
        return f"x={out.ratio(*witness._ratio('point'))} gap={gap}"
    if kind in ("mass", "mean"):
        return f"{kind} mismatch gap={gap}"
    if kind == "coefficient":
        return f"index={witness.point} gap={gap}"
    return f"{kind}={_point_text(out, witness.point)} gap={gap}"


def _verdict_exit(out: _Printer, verdict: OrderVerdict) -> int:
    if verdict.holds:
        out.say("holds")
        return EXIT_HOLDS
    if verdict.holds is None:
        out.say("inconclusive (certified prefix clean; tail unseen)")
        return EXIT_INCONCLUSIVE
    out.say("fails; " + _witness_text(out, verdict.witness))
    return EXIT_FAILS


def _sign_exit(out: _Printer, gap: Fraction) -> int:
    out.say(f"gap = {out.rat(gap)}")
    return EXIT_HOLDS if gap >= 0 else EXIT_FAILS


# -- random sweeps (the seeded property subcommands) -------------------------


# Each draw builds the measure's int form from the drawn numerators and
# denominators, in the order the rng gives them.


def _random_measure(rng: random.Random) -> DiscreteMeasure:
    from .measures import _measure_of_ints

    randint = rng.randint
    return _measure_of_ints([(randint(-8, 8), randint(1, 3), randint(1, 8), randint(1, 4))
                             for _ in range(randint(1, 5))])


def _random_lattice_measure(rng: random.Random) -> DiscreteMeasure:
    from .measures import _measure_of_ints

    randint = rng.randint
    return _measure_of_ints([(randint(0, 6), 1, randint(1, 8), 1) for _ in range(randint(1, 5))])


# Budget: a sweep draws and decides ``--trials`` pairs one after another,
# 0.2-0.3 ms each, so a count above MAX_TRIALS is refused before any draw.
MAX_TRIALS = 100_000


def _equivalence_sweep(out: _Printer, trials: int, seed: int, draw, oracle) -> int:
    """rasa_criterion against ``oracle(mu, nu)`` on seeded pairs: mu, then
    nu, from ``draw(rng)``, nu scaled to the mass of mu on the int forms."""
    import random

    from .measures import measure_to_json
    from .orders import rasa_criterion

    if trials < 0:
        raise ParseError(f"--trials: must be >= 0, got {trials}")
    if trials > MAX_TRIALS:
        raise ParseError(f"--trials: {trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    rng = random.Random(seed)
    for trial in range(trials):
        mu, nu = draw(rng), draw(rng)
        (_, _, mu_unit, mu_ws), (_, _, nu_unit, nu_ws) = mu._int_form(), nu._int_form()
        nu = nu._times(sum(mu_ws) * nu_unit, mu_unit * sum(nu_ws))
        verdict, _ = rasa_criterion(mu, nu)
        if verdict.holds != oracle(mu, nu).holds:
            out.say(f"disagreement at trial {trial}: {measure_to_json(mu)} {measure_to_json(nu)}")
            return EXIT_FAILS
    out.say(f"{trials} randomized pairs: criterion and oracle agree")
    return EXIT_HOLDS


# -- verb handlers -----------------------------------------------------------


def _cmd_order(args, out: _Printer) -> int:
    from .orders import leq_cx, leq_st

    mu, nu = load_measure(args.mu), load_measure(args.nu)
    verdict = leq_st(mu, nu) if args.relation == "st" else leq_cx(mu, nu)
    return _verdict_exit(out, verdict)


def _cmd_rasa(args, out: _Printer) -> int:
    from .orders import gap_functional, rasa_criterion, rasa_direct

    if args.action == "equivalence":
        return _equivalence_sweep(out, args.trials, args.seed, _random_measure, rasa_direct)
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    if args.action == "check":
        verdict, profile = rasa_criterion(mu, nu)
        if verdict.holds:
            out.say(f"holds; min {out.ratio(*profile._minimum_ints()[1])}")
            return EXIT_HOLDS
        return _verdict_exit(out, verdict)
    if args.action == "direct":
        return _verdict_exit(out, rasa_direct(mu, nu))
    phi = parse_convex_fn(args.phi)
    return _sign_exit(out, gap_functional(mu, nu, phi))


def _load_lattice_pair(args):
    from . import lattice as lat

    sequences = []
    for spec in args.family or []:
        sequences.append(lat.truncated_family(spec, _eps(args)))
    for spec in (args.mu, args.nu):
        if spec is not None:
            sequences.append(lat.as_lattice(load_measure(spec)))
    return sequences


def _cmd_genfun(args, out: _Printer) -> int:
    from . import lattice as lat

    if args.action == "equivalence":
        return _equivalence_sweep(
            out, args.trials, args.seed, _random_lattice_measure,
            lambda mu, nu: lat.genfun_test(lat.as_lattice(mu), lat.as_lattice(nu)),
        )
    sequences = _load_lattice_pair(args)
    if len(sequences) == 1:
        seq = sequences[0]
        out.say(
            f"coefficients 0..{seq.last_index}; boxed mass {out.rat(seq.boxed_mass)}; "
            f"tail bound {out.rat(seq.tail_bound)}"
        )
        return EXIT_HOLDS
    if len(sequences) != 2:
        raise ParseError("genfun check needs exactly two sequences (files or families)")
    first, second = sequences
    coeffs = None
    if args.csv and first.total_mass == second.total_mass:  # else a mass witness, no rows
        coeffs = lat.genfun_square_coeffs(first, second)  # may raise Inconclusive
        out.say("index,num,den,sign")
        for k, c in enumerate(coeffs):
            out.say(f"{k},{out.csv_gap(c)}")
    return _verdict_exit(out, lat.genfun_test(first, second, coeffs=coeffs))


def _exponent_pair(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _option(args, "p", parse_exponents), _option(args, "q", parse_exponents)


def _cmd_major(args, out: _Printer) -> int:
    from .majorization import majorizes, s_step_chain

    p, q = _exponent_pair(args)
    if args.action == "compare":
        if majorizes(p, q):
            out.say("majorized")
            return EXIT_HOLDS
        out.say("not majorized")
        return EXIT_FAILS
    chain = s_step_chain(p, q)
    if not chain:
        out.say("already equal (empty chain)")
        return EXIT_HOLDS
    for link in chain:
        out.say(",".join(str(e) for e in link))
    return EXIT_HOLDS


def _measure_line(out: _Printer, mu: DiscreteMeasure) -> str:
    return " ".join(f"{out.rat(x)}:{out.rat(w)}" for x, w in mu.atoms) or "(zero measure)"


def _cmd_poly(args, out: _Printer) -> int:
    from .polynomials import (
        muirhead_cx_check,
        poly_eval_measures,
        sos_step_decomposition,
        w_polynomial,
    )

    if args.action == "w":
        poly = w_polynomial(_option(args, "p", parse_exponents))
        out.say(_poly_text(out, poly))
        return EXIT_HOLDS
    if args.action == "sos":
        p, q = _exponent_pair(args)
        decomposition = sos_step_decomposition(p, q)
        if not decomposition.parts:
            out.say("zero difference (empty decomposition)")
            return EXIT_HOLDS
        for u, v, factor in decomposition.parts:
            out.say(f"(x{u + 1} - x{v + 1})^2 * [{_poly_text(out, factor)}]")
        return EXIT_HOLDS
    measures = [load_measure(spec) for spec in args.measure]
    if args.action == "eval":
        poly = parse_mvpoly(args.expr, arity=len(measures))
        result = poly_eval_measures(poly, measures)
        out.say(_measure_line(out, result))
        return EXIT_HOLDS
    p, q = _exponent_pair(args)
    verdict = muirhead_cx_check(p, q, measures)
    return _verdict_exit(out, verdict)


def _poly_text(out: _Printer, poly: MVPolynomial) -> str:
    if poly.is_zero:
        return "0"
    pieces = []
    for exps, coeff in poly.terms:
        vars_text = " ".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e
        )
        pieces.append(f"{out.rat(coeff)}" + (f" * {vars_text}" if vars_text else ""))
    return " + ".join(pieces)


def _scan_rows(out: _Printer, header: list[str], rows) -> int:
    format_rational = out._num.format_rational
    out.say(",".join(header))
    worst = EXIT_HOLDS
    for coords, gap in rows:
        out.say(",".join(map(format_rational, coords)) + "," + out.csv_gap(gap))
        if gap < 0:
            worst = EXIT_FAILS
    return worst


def _cmd_bernstein(args, out: _Printer) -> int:
    from . import bernstein as bn

    if args.action == "rasa":
        phi = parse_convex_fn(args.phi)
        x, y = _option(args, "x", _fraction), _option(args, "y", _fraction)
        return _sign_exit(out, bn.rasa_gap(args.n, x, y, phi))
    if args.action == "rasa-scan":
        phi = parse_convex_fn(args.phi)
        grid = bn.unit_grid(_option(args, "step", _fraction))
        return _scan_rows(out, ["x", "y", "num", "den", "sign"], bn.rasa_scan(args.n, grid, phi))
    if args.action == "gav":
        points = _option(args, "points", _fraction_list)
        ns = _option(args, "ns", _int_list)
        arity = 2 if args.mode in ("P1", "P1p") else len(points)
        g = parse_surface(args.g, arity=arity)
        return _sign_exit(out, bn.gav_gap(args.mode, g, ns, points))
    if args.action == "gav-scan":
        ns = _option(args, "ns", _int_list)
        k = 2 if args.mode in ("P1", "P1p") else len(ns)
        g = parse_surface(args.g, arity=k)
        grid = bn.unit_grid(_option(args, "step", _fraction))
        header = [f"x{i + 1}" for i in range(k)] + ["num", "den", "sign"]
        return _scan_rows(out, header, bn.gav_scan(args.mode, g, ns, grid))
    if args.action == "supermod":
        g = parse_surface(args.g, arity=2)
        verdict = bn.supermodularity_check(g, bn.unit_grid(_option(args, "step", _fraction)))
        return _verdict_exit(out, verdict)
    if args.action == "eq6":
        ns = _option(args, "ns", _int_list)
        points = _option(args, "points", _fraction_list)
        phi = parse_convex_fn(args.phi)
        return _sign_exit(out, bn.eq6prim_gap(ns, points, phi))
    if args.action == "multi":
        points = _option(args, "points", _fraction_list)
        phi = parse_convex_fn(args.phi)
        return _sign_exit(out, bn.multi_rasa_gap(args.n, points, phi))
    # p4
    phi = parse_convex_fn(args.phi)
    x, y = _option(args, "x", _fraction), _option(args, "y", _fraction)
    enclosure = bn.gavrea_p4_sum(args.n, x, y, phi, _eps(args))
    out.say(f"interval [{out.rat(enclosure.lo)}, {out.rat(enclosure.hi)}]")
    try:
        sign = enclosure.certified_sign()
    except Inconclusive:
        out.say("sign not certified; shrink --eps")
        return EXIT_INCONCLUSIVE
    out.say(f"certified sign {sign}")
    return EXIT_HOLDS if sign >= 0 else EXIT_FAILS


# -- bundled reference reproductions ------------------------------------------


def _reproduce_example3(out: _Printer, args) -> bool:
    from fractions import Fraction

    from .measures import make_measure
    from .orders import hinge_fn, leq_cx
    from .polynomials import poly_eval_measures

    mu = make_measure([(0, 1)])
    nu = make_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    poly_p = parse_mvpoly("1/2 * x1^3 x2 + 1/2 * x1 x2^3")
    poly_q = parse_mvpoly("1/8 * x1^4 + 3/4 * x1^2 x2^2 + 1/8 * x2^4")
    left = poly_eval_measures(poly_p, [mu, nu])
    right = poly_eval_measures(poly_q, [mu, nu])
    expected_left = make_measure(enumerate(Fraction(w, 16) for w in (5, 7, 3, 1)))
    expected_right = make_measure(enumerate(Fraction(w, 128) for w in (41, 52, 30, 4, 1)))
    out.say(f"P(mu,nu) atoms: {_measure_line(out, left)}")
    out.say(f"expected:       {_measure_line(out, expected_left)}")
    out.say(f"Q(mu,nu) atoms: {_measure_line(out, right)}")
    out.say(f"expected:       {_measure_line(out, expected_right)}")
    hinge2 = hinge_fn(2)
    p_integral, q_integral = hinge2.integrate(left), hinge2.integrate(right)
    out.say(
        f"hinge (x-2)+ integrals: P {out.rat(p_integral)} vs Q {out.rat(q_integral)} "
        f"(expected 1/16 vs 6/128)"
    )
    verdict = leq_cx(left, right)
    out.say("convex order: " + ("holds" if verdict.holds else "fails"))
    return (
        left == expected_left
        and right == expected_right
        and p_integral == Fraction(1, 16)
        and q_integral == Fraction(6, 128)
        and verdict.holds is False
    )


def _reproduce_absdiff(out: _Printer, args) -> bool:
    from . import bernstein as bn

    g = bn.absdiff_surface(1)
    corners = {
        (a, b): bn.tensor_bernstein(g, [1, 1], [a, b]) for a in (0, 1) for b in (0, 1)
    }
    lhs = corners[(0, 1)] + corners[(1, 0)]
    rhs = corners[(0, 0)] + corners[(1, 1)]
    gap = bn.gav_gap("P1p", g, [1, 1], [0, 1])
    out.say(
        f"E g(X,Y) + E g(Y,X) = {out.rat(lhs)}  vs  "
        f"E g(X1,X2) + E g(Y1,Y2) = {out.rat(rhs)}"
    )
    out.say(f"{out.rat(corners[(0, 1)])}+{out.rat(corners[(1, 0)])} > "
            f"{out.rat(corners[(0, 0)])}+{out.rat(corners[(1, 1)])}")
    out.say(f"gap = {out.rat(gap)} (expected -2): inequality fails for |u - v|")
    return gap == -2 and lhs == 2 and rhs == 0


def _reproduce_p4(out: _Printer, args) -> bool:
    from fractions import Fraction

    from . import bernstein as bn
    from .orders import ConvexTestFn, affine_fn

    eps = _eps(args)
    identity = affine_fn(0, 1)
    enclosure = bn.gavrea_p4_sum(1, Fraction(1, 4), Fraction(3, 4), identity, eps)
    out.say(f"phi(u) = u: interval [{out.rat(enclosure.lo)}, {out.rat(enclosure.hi)}]")
    negative = enclosure.hi < 0
    out.say(f"certified negative: {negative} (expected: negative)")
    decreasing = ConvexTestFn(const=1, slope=-2, curve=1)  # (1-u)^2
    check = bn.gavrea_p4_sum(1, Fraction(1, 4), Fraction(3, 4), decreasing, eps)
    out.say(
        f"phi(u) = (1-u)^2: interval [{out.rat(check.lo)}, {out.rat(check.hi)}] "
        f"(expected: consistent with >= 0)"
    )
    return negative and check.hi > 0


def _reproduce_rasa_binomial(out: _Printer, args) -> bool:
    from fractions import Fraction

    from . import bernstein as bn
    from . import lattice as lat
    from .orders import rasa_criterion, rasa_direct

    mu = bn.binomial_measure(2, Fraction(1, 4))
    nu = bn.binomial_measure(2, Fraction(3, 4))
    criterion, _ = rasa_criterion(mu, nu)
    oracle = rasa_direct(mu, nu)
    series = lat.genfun_test(lat.as_lattice(mu), lat.as_lattice(nu))
    out.say(f"criterion: {'holds' if criterion.holds else 'fails'}")
    out.say(f"direct convex-order oracle: {'holds' if oracle.holds else 'fails'}")
    out.say(f"generating-function test: {'holds' if series.holds else 'fails'}")
    return criterion.holds and oracle.holds and series.holds


# case -> script(out, args): prints its lines, returns whether every value
# matched the expected one
_REPRODUCTIONS = {
    "example-3": _reproduce_example3,
    "gavrea-p4": _reproduce_p4,
    "absdiff": _reproduce_absdiff,
    "rasa-binomial": _reproduce_rasa_binomial,
}


def _cmd_reproduce(args, out: _Printer) -> int:
    ok = _REPRODUCTIONS[args.case](out, args)
    out.say("REPRODUCED" if ok else "MISMATCH")
    return EXIT_HOLDS if ok else EXIT_FAILS


# -- argument plumbing --------------------------------------------------------

_REQUIRED = object()  # the default of an option that must be given
_HELP = ("-h", "--help")
_STR, _INT = ("str", _REQUIRED), ("int", _REQUIRED)
_PAIR = {"--mu": _STR, "--nu": _STR}
_PQ = {"--p": _STR, "--q": _STR}
_SWEEP = {"--trials": ("int", 200), "--seed": ("int", 0)}
_EPS = {"--eps": ("eps", None)}  # None: see _eps
_GAV_MODES = ("P1", "P1p", "P3", "P3p")  # bernstein.GAV_MODES, without loading bernstein
_GAV = {"--mode": (_GAV_MODES, _REQUIRED), "--g": _STR, "--ns": _STR}

# verb -> (help, handler, actions), actions: action (None for a verb without
# any) -> (positional, options).  A positional is (name, choices); an option
# --name maps to (kind, default or _REQUIRED) and sets the attribute name, its
# kind "str", "int", "append", "flag", "eps" (a fraction) or a tuple of choices.
_COMMANDS = {
    "order": ("usual stochastic / convex order", _cmd_order,
              {None: (("relation", ("st", "cx")), _PAIR)}),
    "rasa": ("self-convolution criterion and oracle", _cmd_rasa, {
        "check": (None, _PAIR),
        "direct": (None, _PAIR),
        "gap": (None, {**_PAIR, "--phi": _STR}),
        "equivalence": (None, _SWEEP),
    }),
    "genfun": ("lattice generating-function test", _cmd_genfun, {
        "check": (None, {"--mu": ("str", None), "--nu": ("str", None),
                         "--family": ("append", None), **_EPS, "--csv": ("flag", False)}),
        "equivalence": (None, _SWEEP),
    }),
    "major": ("majorization comparisons and chains", _cmd_major,
              {"compare": (None, _PQ), "chain": (None, _PQ)}),
    "poly": ("convolution polynomials", _cmd_poly, {
        "w": (None, {"--p": _STR}),
        "sos": (None, _PQ),
        "eval": (None, {"--expr": _STR, "--measure": ("append", _REQUIRED)}),
        "muirhead": (None, {**_PQ, "--measure": ("append", _REQUIRED)}),
    }),
    "bernstein": ("basis gap evaluators and scanners", _cmd_bernstein, {
        "rasa": (None, {"--n": _INT, "--x": _STR, "--y": _STR, "--phi": _STR}),
        "rasa-scan": (None, {"--n": _INT, "--phi": _STR, "--step": ("str", "1/16")}),
        "gav": (None, {**_GAV, "--points": _STR}),
        "gav-scan": (None, {**_GAV, "--step": ("str", "1/4")}),
        "supermod": (None, {"--g": _STR, "--step": ("str", "1/16")}),
        "eq6": (None, {"--ns": _STR, "--points": _STR, "--phi": _STR}),
        "multi": (None, {"--n": _INT, "--points": _STR, "--phi": _STR}),
        "p4": (None, {"--n": _INT, "--x": _STR, "--y": _STR, "--phi": _STR, **_EPS}),
    }),
    "reproduce": ("bundled reference scenarios", _cmd_reproduce,
                  {None: (("case", tuple(_REPRODUCTIONS)), _EPS)}),
}
# argparse's test for a negative number, which is a value, not an option
_NEGATIVE_NUMBER = r"-\d+$|-\d*\.\d+$"


class _Help(Exception):
    """-h/--help: carries the usage text, printed with exit 0."""


def _eps(args) -> Fraction:
    """--eps, else lattice.DEFAULT_EPS: only a command that reads its eps
    loads lattice for it."""
    from .lattice import DEFAULT_EPS

    return DEFAULT_EPS if args.eps is None else args.eps


def _level(path: list[str]):
    """(positional, options, descends) of the level reached by ``path``, the
    verb and action read so far; a descending positional starts the next."""
    if not path:
        return ("verb", tuple(_COMMANDS)), {"--decimal": ("int", None)}, True
    actions = _COMMANDS[path[0]][2]
    if None in actions or len(path) == 2:
        return (*actions[path[1] if len(path) == 2 else None], False)
    return ("action", tuple(actions)), {}, True


def _option_at(token: str, options: dict):
    """argparse's reading of ``token`` at a level: None for a value, else
    (option or None if unknown, text after "=" or None); prefixes allowed."""
    if token[:1] != "-" or token == "-":
        return None
    known, (name, eq, text) = (*_HELP, *options), token.partition("=")
    if token in known or (eq and name in known):
        return name, text if eq else None
    matches = [option for option in known if name[2:] and option.startswith(name)]
    if len(matches) > 1:
        raise ParseError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], text if eq else None
    # "--..." is never a negative number, and every option unknown at the
    # verb's level, such as --mu, comes here: skip compiling the pattern
    negative = token[1:2] != "-" and re.match(_NEGATIVE_NUMBER, token)
    return None if negative or " " in token else (None, None)


def _value(name: str, kind, text: str):
    """The text of an option or positional ``name`` read as its kind."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ParseError(f"argument {name}: invalid choice: {text!r}"
                             f" (choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return int(text) if kind == "int" else _fraction(text, None) if kind == "eps" else text
    except ValueError:
        raise ParseError(f"argument {name}: invalid int value: {text!r}") from None
    except ParseError as exc:
        raise ParseError(f"argument {name}: {exc}") from exc


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against _COMMANDS in one pass, to the namespace and the usage
    error line (a ParseError) that argparse gave; -h/--help raises _Help with
    the usage of its level.  It reads argv alone."""
    args, path, extras, i = SimpleNamespace(), [], [], 0
    while True:  # one level: cxorder, then its verb, then the verb's action
        positional, options, descends = _level(path)
        for option, (_, default) in options.items():
            setattr(args, option[2:], None if default is _REQUIRED else default)
        if positional:
            setattr(args, positional[0], None)
        # argparse reads every token of a level before it takes any
        reads, seen = [None] * i + [_option_at(token, options) for token in argv[i:]], set()
        while i < len(argv):
            token, read = argv[i], reads[i]
            i += 1
            if read is None and positional and getattr(args, positional[0]) is None:
                setattr(args, positional[0], _value(*positional, token))
                if descends:
                    path.append(token)
                    break
            elif read is None or read[0] is None:
                extras.append(token)
            else:
                option, text = read
                kind = options.get(option, ("flag",))[0]  # -h/--help is a flag too
                if kind == "flag" and text is not None:
                    name = "-h/--help" if option in _HELP else option
                    raise ParseError(f"argument {name}: ignored explicit argument {text!r}")
                if option in _HELP:
                    raise _Help(_usage(path))
                if kind != "flag" and text is None:
                    if i == len(argv) or reads[i] is not None:
                        raise ParseError(f"argument {option}: expected one argument")
                    text, i = argv[i], i + 1
                value = True if kind == "flag" else _value(option, kind, text)
                if kind == "append":
                    value = [*(getattr(args, option[2:]) or ()), value]
                setattr(args, option[2:], value)
                seen.add(option)
        else:
            break
    missing = [positional[0]] if positional and getattr(args, positional[0]) is None else []
    missing += [o for o, (_, default) in options.items() if default is _REQUIRED and o not in seen]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _usage(path: list[str]) -> str:
    """The -h/--help text of a level: its usage line, and at the top the
    module docstring and the verbs."""
    positional, options, descends = _level(path)
    words = ["usage: cxorder", *path, "[-h]"]
    for option, (kind, default) in options.items():
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else option[2:].upper()
        word = option if kind == "flag" else f"{option} {meta}"
        words.append((word if default is _REQUIRED else f"[{word}]") + "..." * (kind == "append"))
    if positional:
        words.append("{" + ",".join(positional[1]) + "}" + " ..." * descends)
    if path:
        return " ".join(words) + "\n"
    verbs = "".join(f"  {verb:<10} {text}\n" for verb, (text, _, _) in _COMMANDS.items())
    return f"{' '.join(words)}\n\n{__doc__}\nverbs:\n{verbs}"


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit code, stdout text)."""
    out = _Printer()
    try:
        args = parse_args(argv)
        if args.decimal is not None:
            from .measures import MAX_EXPONENT  # it also keeps 10**K out of fraction text

            if args.decimal < 0:
                raise ParseError(f"argument --decimal: K must be >= 0, got {args.decimal}")
            if args.decimal > MAX_EXPONENT:
                raise ParseError(f"argument --decimal: K = {args.decimal} exceeds"
                                 f" MAX_EXPONENT = {MAX_EXPONENT}")
            out.decimal = args.decimal
        code = _COMMANDS[args.verb][1](args, out)
    except _Help as exc:
        return EXIT_HOLDS, str(exc)
    except ParseError as exc:
        out.say(f"error: {exc}")
        return EXIT_USAGE, out.text()
    except Inconclusive as exc:
        out.say(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE, out.text()
    except (CxOrderError, OSError, ValueError, ZeroDivisionError) as exc:
        out.say(f"error: {exc.__class__.__name__}: {exc}")
        return EXIT_USAGE, out.text()
    return code, out.text()


def main():
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    if sys.flags.inspect:
        raise SystemExit(code)  # python -i: the prompt must still start
    # The process ends here, skipping the teardown of every module and object
    # that interpreter shutdown would run (about 1.4 ms of `major compare` as
    # a fresh process).  The steps of shutdown that can be seen still run, in
    # its order: the atexit handlers (the C routine shutdown calls, which
    # then clears them), then the flush of both streams.  A failed flush
    # leaves the exit to shutdown, which reports it as it always has.  run()
    # never exits: its caller's process is not ours.
    import atexit

    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
