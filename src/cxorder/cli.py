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
    absdiff c           c*|u1 - u2|
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

import argparse
import itertools
import os
import re
import random
import sys
from fractions import Fraction

from . import bernstein as bn
from . import lattice as lat
from .errors import CxOrderError, Inconclusive, ParseError
from .majorization import majorizes, s_step_chain
from .measures import (
    DiscreteMeasure,
    as_rational,
    format_rational,
    make_measure,
    measure_from_json,
    measure_to_json,
)
from .orders import (
    ConvexTestFn,
    OrderVerdict,
    affine_fn,
    gap_functional,
    hinge_fn,
    leq_cx,
    leq_st,
    quad_fn,
    rasa_criterion,
    rasa_direct,
)
from .polynomials import (
    MVPolynomial,
    muirhead_cx_check,
    poly_eval_measures,
    sos_step_decomposition,
    w_polynomial,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


# -- textual parsers ---------------------------------------------------------


def _find_close(text: str, start: int) -> int:
    """Index of the parenthesis matching the one at ``start``."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise ParseError("unbalanced parenthesis", start)


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
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {token!r}: {exc}", pos) from exc


def _words(text: str, base: int) -> list[tuple[str, int]]:
    return [(m.group(), base + m.start()) for m in re.finditer(r"\S+", text)]


_CALL = re.compile(r"\s*(\w+)\s*\(")


def _call_parts(text: str, base: int, sep: str):
    """Split a call ``name(part <sep> part ...)`` into (name, name position,
    [(part, offset), ...]) at parenthesis depth 0.

    Returns None when the first word is not followed by '('.  Text after the
    matching ')' is an error, not something to ignore."""
    head = _CALL.match(text)
    if head is None:
        return None
    close_at = _find_close(text, head.end() - 1)
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


# atom name -> (argument readers, builder).  Surface builders take the
# arity first, and their list arguments must have one entry per variable.
_PHI_ATOMS = {
    "affine": ((_fraction, _fraction), affine_fn),
    "quad": ((_fraction,), quad_fn),
    "hinge": ((_fraction, _fraction), hinge_fn),
}
_SURFACE_ATOMS = {
    "absdiff": ((_fraction,), lambda k, c: bn.absdiff_surface(c, arity=k)),
    "term": ((_fraction, _int_list), lambda k, c, e: bn.poly_surface([(c, tuple(e))], len(e))),
    "hinge2": ((_fraction, _fraction_list, _fraction), lambda k, *args: bn.hinge_surface(*args)),
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
    call = _call_parts(text, base, ",")
    if call is None:
        build, values = _atom(text, base, _PHI_ATOMS, "test-function")
        return build(*values)
    name, name_pos, parts = call
    if name != "sum":
        raise ParseError(f"unknown test-function call {name!r}", name_pos)
    total = ConvexTestFn()
    for part, part_base in parts:
        total = total + parse_convex_fn(part, part_base)
    return total


def parse_surface(text: str, arity: int | None = None, base: int = 0) -> bn.BivariateFn:
    """Parse the multivariate surface grammar (see module docstring)."""
    call = _call_parts(text, base, ";")
    if call is None:
        build, values = _atom(text, base, _SURFACE_ATOMS, "surface", arity)
        return build(2 if arity is None else arity, *values)
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


def parse_exponents(token: str) -> tuple[int, ...]:
    values = _int_list(token, 0)
    if any(v < 0 for v in values):
        raise ParseError(f"exponents must be non-negative: {token!r}", 0)
    return tuple(values)


def load_measure(spec: str) -> DiscreteMeasure:
    """A measure argument: JSON file path or inline ``binomial:n,x``."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return measure_from_json(handle.read())
    if spec.startswith("binomial:"):
        args = spec.split(":", 1)[1]
        try:
            n_text, x_text = args.split(",")
            return bn.binomial_measure(int(n_text), Fraction(x_text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad binomial spec {spec!r}: {exc}") from exc
    raise ParseError(f"measure {spec!r} is neither a file nor an inline family")


# -- output helpers ----------------------------------------------------------


def _decimal_digits(q: Fraction, digits: int) -> str:
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    scaled = (n * 10**digits + d // 2) // d  # round half up, integers only
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


class _Printer:
    def __init__(self, decimal: int | None):
        self.decimal = decimal
        self.lines: list[str] = []

    def rat(self, q) -> str:
        q = as_rational(q)
        text = format_rational(q)
        if self.decimal is not None:
            text += f" ({_decimal_digits(q, self.decimal)})"
        return text

    def say(self, text: str = ""):
        self.lines.append(text)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _point_text(out: _Printer, point) -> str:
    if isinstance(point, tuple):
        return "(" + ",".join(_point_text(out, p) for p in point) + ")"
    if isinstance(point, Fraction):
        return out.rat(point)
    return str(point)


def _witness_text(out: _Printer, witness) -> str:
    if witness is None:
        return ""
    kind, point, gap = witness.kind, witness.point, witness.gap
    if kind in ("profile", "hinge"):
        return f"A={out.rat(point)} gap={out.rat(gap)}"
    if kind == "cdf":
        return f"x={out.rat(point)} gap={out.rat(gap)}"
    if kind in ("mass", "mean"):
        return f"{kind} mismatch gap={out.rat(gap)}"
    if kind == "coefficient":
        return f"index={point} gap={out.rat(gap)}"
    return f"{kind}={_point_text(out, point)} gap={out.rat(gap)}"


def _verdict_exit(out: _Printer, verdict: OrderVerdict, prefix: str = "") -> int:
    if verdict.holds:
        out.say(prefix + "holds")
        return EXIT_HOLDS
    if verdict.holds is None:
        out.say(prefix + "inconclusive (certified prefix clean; tail unseen)")
        return EXIT_INCONCLUSIVE
    out.say(prefix + "fails; " + _witness_text(out, verdict.witness))
    return EXIT_FAILS


def _sign_exit(out: _Printer, gap: Fraction, label: str = "gap") -> int:
    out.say(f"{label} = {out.rat(gap)}")
    return EXIT_HOLDS if gap >= 0 else EXIT_FAILS


# -- random sweeps (the seeded property subcommands) -------------------------


def _random_measure(rng: random.Random, max_atoms: int = 5) -> DiscreteMeasure:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        position = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        weight = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        atoms.append((position, weight))
    return make_measure(atoms)


def _random_equal_mass_pair(rng: random.Random):
    mu = _random_measure(rng)
    nu = _random_measure(rng)
    return mu, nu.scaled(mu.mass / nu.mass)


def _equivalence_sweep(out: _Printer, trials: int, seed: int, lattice_only: bool) -> int:
    rng = random.Random(seed)
    for trial in range(trials):
        if lattice_only:
            mu = make_measure(
                (rng.randint(0, 6), Fraction(rng.randint(1, 8))) for _ in range(rng.randint(1, 5))
            )
            nu = make_measure(
                (rng.randint(0, 6), Fraction(rng.randint(1, 8))) for _ in range(rng.randint(1, 5))
            )
            nu = nu.scaled(mu.mass / nu.mass)
            expected = lat.genfun_test(lat.as_lattice(mu), lat.as_lattice(nu))
        else:
            mu, nu = _random_equal_mass_pair(rng)
            expected = rasa_direct(mu, nu)
        verdict, _ = rasa_criterion(mu, nu)
        if verdict.holds != expected.holds:
            out.say(f"disagreement at trial {trial}: {measure_to_json(mu)} {measure_to_json(nu)}")
            return EXIT_FAILS
    out.say(f"{trials} randomized pairs: criterion and oracle agree")
    return EXIT_HOLDS


# -- verb handlers -----------------------------------------------------------


def _cmd_order(args, out: _Printer) -> int:
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    verdict = leq_st(mu, nu) if args.relation == "st" else leq_cx(mu, nu)
    return _verdict_exit(out, verdict)


def _cmd_rasa(args, out: _Printer) -> int:
    if args.action == "equivalence":
        return _equivalence_sweep(out, args.trials, args.seed, lattice_only=False)
    mu, nu = load_measure(args.mu), load_measure(args.nu)
    if args.action == "check":
        verdict, profile = rasa_criterion(mu, nu)
        _, low = profile.minimum()
        if verdict.holds:
            out.say(f"holds; min {out.rat(low)}")
            return EXIT_HOLDS
        out.say("fails; " + _witness_text(out, verdict.witness))
        return EXIT_FAILS
    if args.action == "direct":
        return _verdict_exit(out, rasa_direct(mu, nu))
    phi = parse_convex_fn(args.phi)
    return _sign_exit(out, gap_functional(mu, nu, phi))


def _load_lattice_pair(args):
    sequences = []
    for spec in args.family or []:
        sequences.append(lat.truncated_family(spec, args.eps))
    for spec in (args.mu, args.nu):
        if spec is not None:
            sequences.append(lat.as_lattice(load_measure(spec)))
    return sequences


def _cmd_genfun(args, out: _Printer) -> int:
    if args.action == "equivalence":
        return _equivalence_sweep(out, args.trials, args.seed, lattice_only=True)
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
    verdict = lat.genfun_test(first, second)
    if args.csv:
        coeffs = lat.genfun_square_coeffs(first, second)  # may raise Inconclusive
        out.say("index,num,den,sign")
        for k, c in enumerate(coeffs):
            out.say(f"{k},{_csv_gap(c)}")
    return _verdict_exit(out, verdict)


def _csv_gap(q: Fraction) -> str:
    """The num,den,sign fields of a CSV row; no field ever needs quoting."""
    return f"{q.numerator},{q.denominator},{(q > 0) - (q < 0)}"


def _cmd_major(args, out: _Printer) -> int:
    p, q = parse_exponents(args.p), parse_exponents(args.q)
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
    if args.action == "w":
        poly = w_polynomial(parse_exponents(args.p))
        out.say(_poly_text(out, poly))
        return EXIT_HOLDS
    if args.action == "sos":
        decomposition = sos_step_decomposition(parse_exponents(args.p), parse_exponents(args.q))
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
    verdict = muirhead_cx_check(parse_exponents(args.p), parse_exponents(args.q), measures)
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
    out.say(",".join(header))
    worst = EXIT_HOLDS
    for coords, gap in rows:
        out.say(",".join(map(format_rational, coords)) + "," + _csv_gap(gap))
        if gap < 0:
            worst = EXIT_FAILS
    return worst


def _cmd_bernstein(args, out: _Printer) -> int:
    if args.action == "rasa":
        phi = parse_convex_fn(args.phi)
        x, y = _option(args, "x", _fraction), _option(args, "y", _fraction)
        return _sign_exit(out, bn.rasa_gap(args.n, x, y, phi))
    if args.action == "rasa-scan":
        phi = parse_convex_fn(args.phi)
        grid = bn.unit_grid(_option(args, "step", _fraction))
        rows = (
            ((x, y), bn.rasa_gap(args.n, x, y, phi)) for x in grid for y in grid
        )
        return _scan_rows(out, ["x", "y", "num", "den", "sign"], rows)
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
        rows = (
            (pt, bn.gav_gap(args.mode, g, ns, list(pt)))
            for pt in itertools.product(grid, repeat=k)
        )
        header = [f"x{i + 1}" for i in range(k)] + ["num", "den", "sign"]
        return _scan_rows(out, header, rows)
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
    enclosure = bn.gavrea_p4_sum(args.n, x, y, phi, args.eps)
    out.say(f"interval [{out.rat(enclosure.lo)}, {out.rat(enclosure.hi)}]")
    try:
        sign = enclosure.certified_sign()
    except Inconclusive:
        out.say("sign not certified; shrink --eps")
        return EXIT_INCONCLUSIVE
    out.say(f"certified sign {sign}")
    return EXIT_HOLDS if sign >= 0 else EXIT_FAILS


# -- bundled reference reproductions ------------------------------------------


def _reproduce_example3(out: _Printer) -> int:
    mu = make_measure([(0, 1)])
    nu = make_measure([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    poly_p = parse_mvpoly("1/2 * x1^3 x2 + 1/2 * x1 x2^3")
    poly_q = parse_mvpoly("1/8 * x1^4 + 3/4 * x1^2 x2^2 + 1/8 * x2^4")
    left = poly_eval_measures(poly_p, [mu, nu])
    right = poly_eval_measures(poly_q, [mu, nu])
    expected_left = make_measure(
        [(0, Fraction(5, 16)), (1, Fraction(7, 16)), (2, Fraction(3, 16)), (3, Fraction(1, 16))]
    )
    expected_right = make_measure(
        [
            (0, Fraction(41, 128)),
            (1, Fraction(52, 128)),
            (2, Fraction(30, 128)),
            (3, Fraction(4, 128)),
            (4, Fraction(1, 128)),
        ]
    )
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
    ok = (
        left == expected_left
        and right == expected_right
        and p_integral == Fraction(1, 16)
        and q_integral == Fraction(6, 128)
        and verdict.holds is False
    )
    out.say("REPRODUCED" if ok else "MISMATCH")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _reproduce_absdiff(out: _Printer) -> int:
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
    ok = gap == -2 and lhs == 2 and rhs == 0
    out.say("REPRODUCED" if ok else "MISMATCH")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _reproduce_p4(out: _Printer, eps: Fraction) -> int:
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
    ok = negative and check.hi > 0
    out.say("REPRODUCED" if ok else "MISMATCH")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _reproduce_rasa_binomial(out: _Printer) -> int:
    mu = bn.binomial_measure(2, Fraction(1, 4))
    nu = bn.binomial_measure(2, Fraction(3, 4))
    criterion, _ = rasa_criterion(mu, nu)
    oracle = rasa_direct(mu, nu)
    series = lat.genfun_test(lat.as_lattice(mu), lat.as_lattice(nu))
    out.say(f"criterion: {'holds' if criterion.holds else 'fails'}")
    out.say(f"direct convex-order oracle: {'holds' if oracle.holds else 'fails'}")
    out.say(f"generating-function test: {'holds' if series.holds else 'fails'}")
    ok = criterion.holds and oracle.holds and series.holds
    out.say("REPRODUCED" if ok else "MISMATCH")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _cmd_reproduce(args, out: _Printer) -> int:
    if args.case == "example-3":
        return _reproduce_example3(out)
    if args.case == "absdiff":
        return _reproduce_absdiff(out)
    if args.case == "gavrea-p4":
        return _reproduce_p4(out, args.eps)
    return _reproduce_rasa_binomial(out)


# -- argument plumbing --------------------------------------------------------


class _Abort(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep it testable
        raise _Abort(message)


def _default_eps() -> Fraction:
    text = os.environ.get("CXORDER_EPS")
    if not text:
        return lat.DEFAULT_EPS
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"CXORDER_EPS={text!r} is not a fraction: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="cxorder", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--decimal", type=int, default=None, metavar="K",
                        help="append a K-digit decimal rendering to every fraction")
    verbs = parser.add_subparsers(dest="verb", required=True)

    order = verbs.add_parser("order", help="usual stochastic / convex order")
    order.add_argument("relation", choices=["st", "cx"])
    order.add_argument("--mu", required=True)
    order.add_argument("--nu", required=True)

    rasa = verbs.add_parser("rasa", help="self-convolution criterion and oracle")
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

    genfun = verbs.add_parser("genfun", help="lattice generating-function test")
    genfun_actions = genfun.add_subparsers(dest="action", required=True)
    check = genfun_actions.add_parser("check")
    check.add_argument("--mu")
    check.add_argument("--nu")
    check.add_argument("--family", action="append",
                       help="negbinomial:n,x or poisson:lambda (repeatable)")
    check.add_argument("--eps", type=Fraction, default=_default_eps())
    check.add_argument("--csv", action="store_true")
    gequiv = genfun_actions.add_parser("equivalence")
    gequiv.add_argument("--trials", type=int, default=200)
    gequiv.add_argument("--seed", type=int, default=0)

    major = verbs.add_parser("major", help="majorization comparisons and chains")
    major_actions = major.add_subparsers(dest="action", required=True)
    for name in ("compare", "chain"):
        sub = major_actions.add_parser(name)
        sub.add_argument("--p", required=True)
        sub.add_argument("--q", required=True)

    poly = verbs.add_parser("poly", help="convolution polynomials")
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

    bern = verbs.add_parser("bernstein", help="basis gap evaluators and scanners")
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
    gav.add_argument("--mode", choices=list(bn.GAV_MODES), required=True)
    gav.add_argument("--g", required=True)
    gav.add_argument("--ns", required=True)
    gav.add_argument("--points", required=True)
    gscan = bern_actions.add_parser("gav-scan")
    gscan.add_argument("--mode", choices=list(bn.GAV_MODES), required=True)
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
    p4.add_argument("--eps", type=Fraction, default=_default_eps())

    repro = verbs.add_parser("reproduce", help="bundled reference scenarios")
    repro.add_argument("case", choices=["example-3", "gavrea-p4", "absdiff", "rasa-binomial"])
    repro.add_argument("--eps", type=Fraction, default=_default_eps())

    return parser


_HANDLERS = {
    "order": _cmd_order,
    "rasa": _cmd_rasa,
    "genfun": _cmd_genfun,
    "major": _cmd_major,
    "poly": _cmd_poly,
    "bernstein": _cmd_bernstein,
    "reproduce": _cmd_reproduce,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit code, stdout text)."""
    try:
        args = build_parser().parse_args(argv)
        if args.decimal is not None and args.decimal < 0:
            raise _Abort(f"argument --decimal: K must be >= 0, got {args.decimal}")
    except (_Abort, ParseError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    except SystemExit as exc:  # --help prints directly and exits 0
        return (exc.code or 0), ""
    out = _Printer(args.decimal)
    try:
        code = _HANDLERS[args.verb](args, out)
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
    raise SystemExit(code)


if __name__ == "__main__":
    main()
