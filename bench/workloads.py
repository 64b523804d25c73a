"""Seeded command lists for the four benchmark workloads.

``build(name, seed, workdir)`` writes the measure files a workload needs into
``workdir`` and returns its command list.  The program under test only ever
sees those files and the argv lists; the seed fixes both.  Sizes are fixed per
workload so that different seeds cost about the same: the seed moves atom
positions, weights and family parameters, not how much work there is.

This module must not import ``cxorder``: the benchmark drives the program only
through its command line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("decide", "compose", "scan", "series")

# Exit codes the CLI documents: 0 holds, 1 fails with a witness, 2 usage or
# input error (never expected here), 3 inconclusive (truncated input).
HOLDS_OR_FAILS = (0, 1)


@dataclass
class Command:
    """One fresh-process CLI invocation and what the checks need to know."""

    argv: list[str]
    kind: str  # e.g. "rasa-check"; the correctness checks key on it
    expect: tuple[int, ...] = HOLDS_OR_FAILS  # allowed exit codes
    pair: str | None = None  # measure pair id shared by related commands


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write_measure(path: str, atoms) -> str:
    merged: dict[Fraction, Fraction] = {}
    for x, w in atoms:
        merged[Fraction(x)] = merged.get(Fraction(x), Fraction(0)) + Fraction(w)
    body = {"atoms": [{"x": _fmt(x), "w": _fmt(w)} for x, w in sorted(merged.items())]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
    return path


# -- decide -------------------------------------------------------------------
#
# Why: nearly all the time goes to the order engine (step_self_convolution,
# leq_cx) and to convolve on inputs that never repeat, so the convolve cache
# gets no hits.  Half the pairs are stochastically comparable (the criterion
# holds and the oracle scans every hinge); the other half are independent
# random pairs that mostly fail, so the oracle exits early.

# Positions are multiples of 1/4 in [0, n) for the first measure of a pair
# and odd multiples of 1/8 for the second, so the two never share an atom and
# the pair has exactly 2n distinct positions: the size of the criterion's
# input is fixed by n, whatever the seed.
_GRID = 4


def _quarters(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(k, _GRID) for k in rng.sample(range(n * _GRID), n)]


def _odd_eighths(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(2 * k + 1, 2 * _GRID) for k in rng.sample(range(n * _GRID), n)]


def _comparable_pair(rng, n):
    """mu <=st nu with equal mass: every atom of mu moves right by an odd
    number of eighths to a position no other atom takes, so H = F_mu - F_nu
    has exactly 2n breakpoints."""
    lows = sorted(_quarters(rng, n))
    weights = [rng.randint(1, 6) for _ in range(n)]
    taken, highs = set(), []
    for x in lows:
        options = [x + Fraction(d, 2 * _GRID) for d in (1, 3, 5, 7)]
        free = [y for y in options if y not in taken] or [max(taken) + Fraction(1, _GRID)]
        highs.append(rng.choice(free))
        taken.add(highs[-1])
    return list(zip(lows, weights)), list(zip(highs, weights))


def _independent_pair(rng, n):
    """Two unrelated measures, the second rescaled to the first one's mass."""
    mu = [(x, rng.randint(1, 6)) for x in _quarters(rng, n)]
    nu = [(x, rng.randint(1, 6)) for x in _odd_eighths(rng, n)]
    ratio = Fraction(sum(w for _, w in mu), sum(w for _, w in nu))
    return mu, [(x, w * ratio) for x, w in nu]


def _spread_pair(rng, n):
    """mu <=cx nu: nu splits half of mu's atoms into two halves placed
    symmetrically about the atom, so the convex-order test holds and scans
    every hinge."""
    mu = [(x, rng.randint(1, 6)) for x in _quarters(rng, n)]
    split = set(rng.sample(range(n), n // 2))
    nu = []
    for i, (x, w) in enumerate(mu):
        if i in split:
            d = Fraction(rng.choice((1, 3, 5, 7)), 2 * _GRID)
            nu += [(x - d, Fraction(w, 2)), (x + d, Fraction(w, 2))]
        else:
            nu.append((x, w))
    return mu, nu


def _decide(rng, workdir, smoke):
    commands = []

    def pair_files(tag, make, n):
        mu, nu = make(rng, n)
        return (
            _write_measure(os.path.join(workdir, f"{tag}_mu.json"), mu),
            _write_measure(os.path.join(workdir, f"{tag}_nu.json"), nu),
        )

    # Sizes are atoms per pair (n per measure).  Comparable pairs sweep the
    # criterion's size (H has as many breakpoints as the pair has atoms); the
    # oracle grows like n^4 when it must scan every hinge, so at 64 atoms
    # only the criterion runs.
    for atoms in (8, 16) if smoke else (16, 32, 56, 64):
        tag = f"st{atoms}"
        mu, nu = pair_files(tag, _comparable_pair, atoms // 2)
        files = ["--mu", mu, "--nu", nu]
        commands.append(Command(["rasa", "check", *files], "rasa-check", pair=tag))
        if atoms <= 56:
            commands.append(Command(["rasa", "direct", *files], "rasa-direct", pair=tag))
        commands.append(Command(["order", "st", *files], "order-st", pair=tag))
        commands.append(Command(["order", "cx", *files], "order-cx", pair=tag))
    # Independent pairs stay smaller: where the oracle stops depends on the
    # draw, and at large sizes that would make the cost depend on the seed.
    for atoms in (8,) if smoke else (8, 16, 24, 32):
        tag = f"ind{atoms}"
        mu, nu = pair_files(tag, _independent_pair, atoms // 2)
        files = ["--mu", mu, "--nu", nu]
        commands.append(Command(["rasa", "check", *files], "rasa-check", pair=tag))
        commands.append(Command(["rasa", "direct", *files], "rasa-direct", pair=tag))
    for atoms in (8,) if smoke else (16, 64):
        tag = f"cx{atoms}"
        mu, nu = pair_files(tag, _spread_pair, atoms // 2)
        commands.append(Command(["order", "cx", "--mu", mu, "--nu", nu], "order-cx", pair=tag))
    # The sweeps draw their own trials, and what a draw costs varies, so
    # their --seed is fixed: the same work for every workload seed.  That
    # makes the rasa sweep the command cmd_tail_s lands on.  With three
    # passes the 64-atom criterion and the 56-atom check and oracle fill the
    # ten runs above it, and every other command costs well under it.
    trials = {"rasa": "20", "genfun": "20"} if smoke else {"rasa": "60", "genfun": "200"}
    for verb in ("rasa", "genfun"):
        commands.append(
            Command([verb, "equivalence", "--trials", trials[verb], "--seed", "1"], "equivalence", expect=(0,))
        )
    return commands


# -- compose ------------------------------------------------------------------
#
# Why: about 80 % of the time is in measures.convolve, and a third to a half
# of those calls repeat an earlier pair, which the global convolve cache
# answers.  This is the workload where that cache pays, and the only one that
# exercises polynomials and majorization.

# (p, q, binomial degree): three Muirhead chains of similar cost, and a
# fourth at about a third of it.  With three passes its three runs are the
# 10th to 12th slowest commands, so cmd_tail_s (ten commands above it) is the
# middle one of them rather than the slowest of the short commands.
_CHAINS = (
    ((2, 2, 2, 2), (8, 0, 0, 0), 8),
    ((3, 3, 3), (9, 0, 0), 12),
    ((2, 2, 2, 2, 2), (10, 0, 0, 0, 0), 4),
    ((2, 2, 2), (6, 0, 0), 12),
)


def _binomial_specs(rng, count, degree):
    # Parameters k/16 with odd k keep the operand sizes the same for every seed.
    return [f"binomial:{degree},{_fmt(Fraction(k, 16))}" for k in rng.sample(range(1, 16, 2), count)]


def _compose(rng, workdir, smoke):
    commands = []
    chains = _CHAINS[2:3] if smoke else _CHAINS
    for p, q, degree in chains:
        measures = []
        for spec in _binomial_specs(rng, len(p), degree):
            measures += ["--measure", spec]
        commands.append(
            Command(
                ["poly", "muirhead", "--p", _ints(p), "--q", _ints(q), *measures],
                "muirhead",
                expect=(0,),  # binomials of one degree are pairwise compatible
            )
        )
    # Short commands in the same layers, as a user would interleave them.
    for i in range(2):
        files = []
        for j in range(2):
            atoms = [(Fraction(rng.randint(0, 12), 2), rng.randint(1, 5)) for _ in range(6)]
            files.append(_write_measure(os.path.join(workdir, f"poly{i}{j}.json"), atoms))
        terms = [
            f"{_fmt(Fraction(rng.randint(1, 5), rng.randint(1, 4)))} * x1^{rng.randint(0, 3)} x2^{rng.randint(1, 3)}"
            for _ in range(3)
        ]
        commands.append(
            Command(["poly", "eval", "--expr", " + ".join(terms), "--measure", files[0], "--measure", files[1]],
                    "poly-eval", expect=(0,))
        )
        # One elementary transfer: raise the first entry, lower the last.
        base = sorted((rng.randint(2, 5) for _ in range(3)), reverse=True)
        step = [base[0] + 1, base[1], base[2] - 1]
        commands.append(Command(["poly", "sos", "--p", _ints(base), "--q", _ints(step)], "poly-sos", expect=(0,)))
        commands.append(Command(["poly", "w", "--p", _ints(rng.randint(0, 4) for _ in range(4))], "poly-w", expect=(0,)))
        total = rng.randint(8, 12)
        spread = _even_split(total, 4)
        commands.append(Command(["major", "chain", "--p", _ints(spread), "--q", f"{total},0,0,0"],
                                "major-chain", expect=(0,)))
        commands.append(Command(["major", "compare", "--p", _ints(spread), "--q", _ints(rng.sample(spread, 4))],
                                "major-compare"))
    commands.append(Command(["reproduce", "example-3"], "reproduce", expect=(0,)))
    return commands


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _even_split(total, parts):
    base, extra = divmod(total, parts)
    return [base + 1] * extra + [base] * (parts - extra)


# -- scan ---------------------------------------------------------------------
#
# Why: the time goes to bernstein surface evaluations and tensor_bernstein on
# small-denominator rationals.  orders and measures stay idle and
# cauchy_product only sees short rows.  This is where tabulating the Bernstein
# scanners shows; decide bypasses it.


def _small(rng, lo=1, hi=7, den=8):
    """A fraction k/den with odd k, so the denominator never shrinks and the
    operand sizes are the same for every seed."""
    return _fmt(Fraction(rng.choice(range(lo | 1, hi + 1, 2)), den))


def _scan(rng, workdir, smoke):
    commands = []
    # Supermodular surfaces pass, so the screen walks every quadruple; the
    # step sweep (G = 7, 11, 15 grid points) feeds the growth fit.
    surface = f"mid(quad {_small(rng)}; {_small(rng)},{_small(rng)})"
    for denom in ((6,) if smoke else (6, 10, 14)):
        commands.append(
            Command(["bernstein", "supermod", "--g", surface, "--step", f"1/{denom}"],
                    "supermod", expect=(0,))
        )
    threshold = _small(rng, 2, 6)
    commands.append(
        Command(["bernstein", "gav-scan", "--mode", "P3", "--g", f"mid(hinge {threshold} 1; 1/3,1/3,1/3)",
                 "--ns", "3,3,3", "--step", "1/2" if smoke else "1/4"], "scan")
    )
    # Step 1/12 puts this scan well below the 11-point screen and well above
    # every other command, so its middle run of three passes is cmd_tail_s.
    # Its cost moves by a fifth with the threshold, so the threshold is fixed.
    commands.append(
        Command(["bernstein", "gav-scan", "--mode", "P1p", "--g", "absdiff 3/8",
                 "--ns", "3,3", "--step", "1/4" if smoke else "1/12"], "scan")
    )
    phi = f"hinge {_small(rng)} 1"
    commands.append(
        Command(["bernstein", "rasa-scan", "--n", str(rng.randint(2, 4)), "--phi", phi, "--step", "1/16"],
                "scan", expect=(0,))  # convex phi: every gap is >= 0
    )
    # Single-point evaluations of the same gaps; convex phi keeps them >= 0.
    for _ in range(2):
        commands.append(
            Command(["bernstein", "rasa", "--n", str(rng.randint(2, 6)), "--x", _small(rng), "--y", _small(rng),
                     "--phi", phi], "gap", expect=(0,))
        )
        commands.append(
            Command(["bernstein", "gav", "--mode", "P1", "--g", f"mid(quad 1; {_small(rng)},{_small(rng)})",
                     "--ns", f"{rng.randint(2, 4)},{rng.randint(2, 4)}", "--points", f"{_small(rng)},{_small(rng)}"],
                    "gap")
        )
        commands.append(
            Command(["bernstein", "eq6", "--ns", f"{rng.randint(1, 3)},{rng.randint(1, 3)}",
                     "--points", f"{_small(rng)},{_small(rng)}", "--phi", phi], "gap", expect=(0,))
        )
        commands.append(
            Command(["bernstein", "multi", "--n", str(rng.randint(2, 4)),
                     "--points", f"{_small(rng)},{_small(rng)},{_small(rng)}", "--phi", phi], "gap", expect=(0,))
        )
    commands.append(Command(["reproduce", "absdiff"], "reproduce", expect=(0,)))
    return commands


# -- series -------------------------------------------------------------------
#
# Why: the same lattice.cauchy_product as in scan, but on rationals with
# hundreds to thousands of digits; most of the time is math.gcd inside
# Fraction.  An integer-scaled kernel shows its gain here, and scan shows
# whether it costs small operands anything.

# Negative-binomial parameter pairs by truncation cutoff K (the sweep for the
# cauchy_product growth fit).  Pairs of one row share K and denominators, so
# the seed changes the coefficients but not the work.
_NEGBIN_SWEEP = (
    ("1/2", "9/16"),  # K = 64
    ("5/8", "3/4"),  # K = 128
    ("13/16", "27/32"),  # K = 256
)


def _series(rng, workdir, smoke):
    commands = []
    for x, y in (_NEGBIN_SWEEP[:1] if smoke else _NEGBIN_SWEEP):
        n = rng.randint(1, 3)
        first, second = (x, y) if rng.random() < 0.5 else (y, x)
        commands.append(
            Command(["genfun", "check", "--family", f"negbinomial:{n},{first}",
                     "--family", f"negbinomial:{n},{second}"], "genfun-truncated", expect=(3,))
        )
    n = rng.randint(1, 3)
    commands.append(
        Command(["genfun", "check", "--csv", "--family", f"negbinomial:{n},3/4",
                 "--family", f"negbinomial:{n},{rng.choice(('5/8', '11/16'))}"],
                "genfun-truncated", expect=(3,))
    )
    # Single-family summaries: the truncation alone, K and the tail bound.
    for x in ("1/2", "5/8", "13/16"):
        commands.append(
            Command(["genfun", "check", "--family", f"negbinomial:{rng.randint(1, 3)},{x}"],
                    "genfun-summary", expect=(0,))
        )
    lam = [_fmt(Fraction(rng.choice(range(1, 10, 2)), 2)) for _ in range(5)]
    for value in lam[:3]:
        commands.append(Command(["genfun", "check", "--family", f"poisson:{value}"], "genfun-summary", expect=(0,)))
    commands.append(
        Command(["genfun", "check", "--family", f"poisson:{lam[3]}", "--family", f"poisson:{lam[4]}"],
                "genfun-truncated", expect=(3,))
    )
    # Complete lattice files get a definite verdict.
    for i in range(2):
        pair = []
        for j in range(2):
            atoms = [(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(12)]
            pair.append(atoms)
        ratio = Fraction(sum(w for _, w in pair[0]), sum(w for _, w in pair[1]))
        mu = _write_measure(os.path.join(workdir, f"lattice{i}_mu.json"), pair[0])
        nu = _write_measure(os.path.join(workdir, f"lattice{i}_nu.json"), [(x, w * ratio) for x, w in pair[1]])
        commands.append(Command(["genfun", "check", "--mu", mu, "--nu", nu], "genfun-complete"))
    # Enclosures of the negative-binomial double sum (Gavrea's P4).
    for n in (2, 3):
        commands.append(
            Command(["bernstein", "p4", "--n", str(n), "--x", _small(rng, 1, 3), "--y", "5/8",
                     "--phi", f"hinge {_small(rng, 2, 6)} 1"], "p4")
        )
    commands.append(Command(["reproduce", "gavrea-p4"], "reproduce", expect=(0,)))
    return commands


_GENERATORS = {"decide": _decide, "compose": _compose, "scan": _scan, "series": _series}


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> list[Command]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its command list.  ``smoke`` keeps only the smallest sizes."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return _GENERATORS[name](rng, workdir, smoke)
