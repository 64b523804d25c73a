"""Traced entry point: ``python bench/tracer.py TRACE_OUT ARGV...``.

Runs one cxorder command exactly as ``python -m cxorder ARGV...`` would (same
stdout, same exit code), with the public functions of the seven working
modules wrapped in timing spans.  A wrapper replaces the function in every
cxorder namespace that holds it, so calls through ``from .measures import
convolve`` are seen too.  At exit the spans are written to TRACE_OUT as JSON:
per function the call count, total time and self time (span time minus the
time covered by child spans), plus the counters and the per-call
(size, span time) samples that ``layers.py`` turns into per-layer metrics.
The samples keep the time of the functions a kernel calls (leq_cx's hinge
integrals, the surface evaluations of the supermodularity screen), so the
growth fits see the whole kernel.

The trace also holds ``run_s``, the time of ``cli.run`` with the spans in
place, and ``tracing_s``, the part of it the tracer spent on itself.  The
spans time their own bookkeeping and observers; the rest of a span's cost
(the extra call, one timer read) and of a counted call is measured on a
no-op in the same process and multiplied by the number of calls.  Both
measurements come from one process seconds apart, so a swing in the
machine's speed scales both alike; timing a plain run against a traced one
cannot resolve the tracer's few percent on a machine whose speed swings by
more than that within one command.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

from cxorder import bernstein, cli, lattice, majorization, measures, orders, polynomials

KERNEL_MODULES = (measures, orders, lattice, majorization, polynomials, bernstein)
# Per-value conversions called from inside every hot loop; a span around each
# would cost more than the work it measures.
UNTIMED = {"measures.as_rational", "measures.format_rational"}
# cli: the entry point and measure loading.  Parsing and formatting stay in
# cli.run's self time.
CLI_FUNCTIONS = ("run", "load_measure")


class Recorder:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}  # name -> [[size, span_s], ...]
        self.child_time = [0.0]  # stack: time covered by children of each open span
        self.seen_convolutions: set[int] = set()
        self.own_s = 0.0  # bookkeeping and observer time, measured inside the spans

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, value), value)

    def span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            self.child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.child_time.pop()
                self.child_time[-1] += elapsed
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
            if observe is not None:
                observe(self, elapsed, args, kwargs, result)
            # The parent's self time excludes this span's bookkeeping too.
            own = time.perf_counter() - entered - elapsed
            self.child_time[-1] += own
            self.own_s += own
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args):
            self.count(name)
            return fn(*args)

        return wrapper

    def tracing_s(self) -> float:
        """Time the tracer spent on itself during the run."""
        span_cost, count_cost = _unseen_costs()
        calls = sum(entry[0] for entry in self.spans.values())
        return self.own_s + calls * span_cost + self.counters.get("orders.phi_evals", 0) * count_cost

    def dump(self, run_s: float) -> dict:
        return {"spans": self.spans, "counters": self.counters, "samples": self.samples,
                "run_s": run_s, "tracing_s": self.tracing_s()}


def _per_call_s(fn, calls=2000, rounds=5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn(0)
        best = min(best, time.perf_counter() - start)
    return best / calls


def _unseen_costs() -> tuple[float, float]:
    """Per call, the cost of a span that its own timing does not see, and
    the cost of a counted call, both measured on a no-op."""

    def noop(x):
        return x

    scratch = Recorder()
    raw = _per_call_s(noop)
    spanned = _per_call_s(scratch.span("noop", noop))
    counted = _per_call_s(scratch.counted("noop", noop))
    seen = scratch.own_s / scratch.spans["noop"][0]
    return max(spanned - raw - seen, 0.0), max(counted - raw, 0.0)


# -- observers: counters and size samples for particular kernels ---------------


def _sample(rec: Recorder, name: str, size: int, elapsed: float):
    rec.samples.setdefault(name, []).append([size, elapsed])


def _convolve(rec, elapsed, args, kwargs, result):
    mu, nu = args
    if nu.atoms < mu.atoms:  # the same normalisation as measures.convolve
        mu, nu = nu, mu
    key = hash((mu, nu))
    if key in rec.seen_convolutions:
        rec.count("measures.convolve.repeats")
    rec.seen_convolutions.add(key)
    rec.count("measures.convolve.out_atoms", len(result.atoms))


def _step_self_convolution(rec, elapsed, args, kwargs, result):
    rec.count("orders.step_self_convolution.kinks", len(result.breakpoints))
    _sample(rec, "orders.step_self_convolution", len(args[0].breakpoints), elapsed)


def _leq_cx(rec, elapsed, args, kwargs, result):
    mu, nu = args
    points = sorted(set(mu.positions()) | set(nu.positions()))
    if result.holds:
        checked = len(points)
        # Only full scans enter the growth fit: where an early exit stops
        # depends on the input, not on its size.
        _sample(rec, "orders.leq_cx", len(mu.atoms) + len(nu.atoms), elapsed)
    elif result.witness.kind == "hinge":
        checked = points.index(result.witness.point) + 1
    else:  # mass or mean mismatch: no hinge evaluated
        checked = 0
    rec.count("orders.leq_cx.points", checked)


def _digits(q) -> float:
    return (q.numerator.bit_length() + q.denominator.bit_length()) * 0.30103


def _cauchy_product(rec, elapsed, args, kwargs, result):
    u, v = args
    nonzero_u = [a for a in u if a != 0]
    nonzero_v = [b for b in v if b != 0]
    products = len(nonzero_u) * len(nonzero_v)
    rec.count("lattice.cauchy_product.products", products)
    if products:
        operands = nonzero_u + nonzero_v
        mean_digits = sum(_digits(q) for q in operands) / len(operands)
        rec.count("lattice.cauchy_product.digit_products", mean_digits * products)
    _sample(rec, "lattice.cauchy_product", max(len(u), len(v)), elapsed)


def _cutoff(name):
    def observe(rec, elapsed, args, kwargs, result):
        rec.peak(name, result.last_index)

    return observe


def _supermodularity_check(rec, elapsed, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    pts = sorted(set(grid if grid is not None else bernstein.unit_grid()))
    pairs = list(itertools.combinations(pts, 2))
    if result.holds:
        checked = len(pairs) ** 2
        _sample(rec, "bernstein.supermodularity_check", len(pts), elapsed)
    else:
        x1, x2, y1, y2 = result.witness.point
        checked = pairs.index((x1, y1)) * len(pairs) + pairs.index((x2, y2)) + 1
    rec.count("bernstein.supermodularity_check.quadruples", checked)


def _s_step_chain(rec, elapsed, args, kwargs, result):
    rec.count("majorization.s_step_chain.steps", max(len(result) - 1, 0))


OBSERVERS = {
    "measures.convolve": _convolve,
    "orders.step_self_convolution": _step_self_convolution,
    "orders.leq_cx": _leq_cx,
    "lattice.cauchy_product": _cauchy_product,
    "lattice.truncate_negbinomial": _cutoff("lattice.truncate_negbinomial.cutoff"),
    "lattice.truncate_poisson": _cutoff("lattice.truncate_poisson.cutoff"),
    "bernstein.supermodularity_check": _supermodularity_check,
    "majorization.s_step_chain": _s_step_chain,
}


def install(rec: Recorder):
    """Wrap the public functions and point every cxorder namespace at the
    wrappers."""
    replacements = {}
    targets = [(mod, name) for mod in KERNEL_MODULES for name in vars(mod)]
    targets += [(cli, name) for name in CLI_FUNCTIONS]
    for mod, name in targets:
        fn = getattr(mod, name)
        short = mod.__name__.rsplit(".", 1)[-1]
        label = f"{short}.{name}"
        if (
            name.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != mod.__name__
            or label in UNTIMED
        ):
            continue
        replacements[id(fn)] = rec.span(label, fn, OBSERVERS.get(label))
    for mod in [m for n, m in sys.modules.items() if n == "cxorder" or n.startswith("cxorder.")]:
        for name, value in list(vars(mod).items()):
            if id(value) in replacements and inspect.isfunction(value):
                setattr(mod, name, replacements[id(value)])
    # Surface evaluations are timed (bernstein.g_*), convex test-function
    # calls only counted: they are too small to time without the spans
    # dominating the traced run.
    bernstein.BivariateFn.__call__ = rec.span("bernstein.g", bernstein.BivariateFn.__call__)
    orders.ConvexTestFn.__call__ = rec.counted("orders.phi_evals", orders.ConvexTestFn.__call__)


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    start = time.perf_counter()
    code, text = cli.run(argv)
    run_s = time.perf_counter() - start
    sys.stdout.write(text)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(rec.dump(run_s), handle)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
