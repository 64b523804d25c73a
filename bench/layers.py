"""Per-layer metrics from the traced run, and the layer-to-metric map.

``LAYERS`` records, for each module of the program, the metrics the traced
run reports, the end-to-end metrics a change to that layer should move, and
the workload that loads it (with the workloads that bypass it in brackets).
BENCHMARK.json's ``per_layer`` list is exactly ``metric_units()``.
"""

from __future__ import annotations

import math
import statistics

# (metric, unit) per layer; "moves" and "loaded_by" are documentation.
LAYERS = {
    "orders": {
        "metrics": [
            ("orders.step_self_convolution.self_s", "s"),
            ("orders.step_self_convolution.kinks", "count"),
            ("orders.step_self_convolution.slope", "exponent"),
            ("orders.leq_cx.self_s", "s"),
            ("orders.leq_cx.points", "count"),
            ("orders.leq_cx.slope", "exponent"),
            ("orders.leq_st.self_s", "s"),
            ("orders.rasa_criterion.self_s", "s"),
            ("orders.rasa_direct.self_s", "s"),
            ("orders.gap_functional.self_s", "s"),
            ("orders.phi_evals", "count"),
        ],
        "moves": ["wall_s", "cmd_tail_s"],
        "loaded_by": "decide; compose via the chain leq_cx (scan, series)",
    },
    "measures": {
        "metrics": [
            ("measures.convolve.calls", "count"),
            ("measures.convolve.self_s", "s"),
            ("measures.convolve.out_atoms", "count"),
            ("measures.convolve.repeat_share", "ratio"),
            ("measures.cdf_diff.self_s", "s"),
            ("measures.integrate_hinge.calls", "count"),
            ("measures.integrate_hinge.self_s", "s"),
            ("measures.mix.self_s", "s"),
            ("measures.make_measure.self_s", "s"),
            ("measures.measure_from_json.self_s", "s"),
        ],
        "moves": ["wall_s", "peak_rss_mb"],
        "loaded_by": "compose (cache hits) vs decide (no repeats) (scan)",
    },
    "lattice": {
        "metrics": [
            ("lattice.cauchy_product.calls", "count"),
            ("lattice.cauchy_product.self_s", "s"),
            ("lattice.cauchy_product.products", "count"),
            ("lattice.cauchy_product.operand_digits", "digits"),
            ("lattice.cauchy_product.slope", "exponent"),
            ("lattice.truncate_negbinomial.self_s", "s"),
            ("lattice.truncate_negbinomial.cutoff", "count"),
            ("lattice.truncate_poisson.self_s", "s"),
            ("lattice.truncate_poisson.cutoff", "count"),
            ("lattice.genfun_test.self_s", "s"),
        ],
        "moves": ["wall_s"],
        "loaded_by": "series (big operands) vs scan (small operands) (compose)",
    },
    "bernstein": {
        "metrics": [
            ("bernstein.g_evals", "count"),
            ("bernstein.g_self_s", "s"),
            ("bernstein.tensor_bernstein.calls", "count"),
            ("bernstein.tensor_bernstein.self_s", "s"),
            ("bernstein.binomial_weights.calls", "count"),
            ("bernstein.binomial_weights.self_s", "s"),
            ("bernstein.supermodularity_check.self_s", "s"),
            ("bernstein.supermodularity_check.quadruples", "count"),
            ("bernstein.supermodularity_check.slope", "exponent"),
            ("bernstein.gav_gap.self_s", "s"),
            ("bernstein.rasa_gap.self_s", "s"),
            ("bernstein.eq6prim_gap.self_s", "s"),
            ("bernstein.multi_rasa_gap.self_s", "s"),
            ("bernstein.gavrea_p4_sum.self_s", "s"),
        ],
        "moves": ["wall_s"],
        "loaded_by": "scan (decide, compose)",
    },
    "polynomials": {
        "metrics": [
            ("polynomials.poly_eval_measures.calls", "count"),
            ("polynomials.poly_eval_measures.self_s", "s"),
            ("polynomials.w_polynomial.self_s", "s"),
            ("polynomials.sos_step_decomposition.self_s", "s"),
            ("polynomials.muirhead_cx_check.self_s", "s"),
        ],
        "moves": ["wall_s"],
        "loaded_by": "compose (decide, scan, series)",
    },
    "majorization": {
        "metrics": [
            ("majorization.s_step_chain.self_s", "s"),
            ("majorization.s_step_chain.steps", "count"),
            ("majorization.majorizes.calls", "count"),
        ],
        "moves": ["wall_s"],
        "loaded_by": "compose",
    },
    "cli": {
        "metrics": [
            ("cli.run.self_s", "s"),
            ("cli.load_measure.self_s", "s"),
        ],
        "moves": ["setup_s", "cmd_p50_s"],
        "loaded_by": "all; most where commands are short",
    },
    "trace": {
        "metrics": [("trace.overhead_ratio", "ratio")],
        "moves": [],
        "loaded_by": "all",
    },
}

# Growth fits: kernel span -> what its size samples count.
SLOPES = {
    "orders.step_self_convolution": "H breakpoints",
    "orders.leq_cx": "atoms",
    "lattice.cauchy_product": "sequence length",
    "bernstein.supermodularity_check": "grid points",
}
# Sizes whose median span time is below this are dominated by span overhead
# and timer noise, so they stay out of the fit.
MIN_FIT_S = 1e-3

# Metric names that are not "<span>.<field>" of a wrapped function.
_SPAN_ALIASES = {"bernstein.g_evals": ("bernstein.g", 0), "bernstein.g_self_s": ("bernstein.g", 2)}


def metric_units() -> list[tuple[str, str]]:
    return [pair for layer in LAYERS.values() for pair in layer["metrics"]]


def merge(traces: list[dict]) -> dict:
    """Sum the per-command traces of one pass."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    run_s = tracing_s = 0.0
    for trace in traces:
        run_s += trace["run_s"]
        tracing_s += trace["tracing_s"]
        for name, (calls, total, self_s) in trace["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in trace["counters"].items():
            if name.endswith(".cutoff"):
                counters[name] = max(counters.get(name, value), value)
            else:
                counters[name] = counters.get(name, 0) + value
        for name, rows in trace["samples"].items():
            samples.setdefault(name, []).extend(rows)
    return {"spans": spans, "counters": counters, "samples": samples, "run_s": run_s, "tracing_s": tracing_s}


def fit_slope(rows: list[list]) -> tuple[float, tuple[int, int] | None, int]:
    """Least-squares slope of log(median span time) against log(size) over
    the sizes whose median is at least MIN_FIT_S.  Returns (slope,
    (smallest, largest) size used, number of sizes); with fewer than two
    sizes there is no fit and the slope is reported as 0."""
    by_size: dict[int, list[float]] = {}
    for size, elapsed in rows:
        by_size.setdefault(size, []).append(elapsed)
    points = [
        (math.log(size), math.log(med))
        for size, times in sorted(by_size.items())
        if size > 0 and (med := statistics.median(times)) >= MIN_FIT_S
    ]
    if len(points) < 2:
        return 0.0, None, len(points)
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    used = [round(math.exp(x)) for x, _ in points]
    return sxy / sxx, (used[0], used[-1]), len(points)


def layer_self_times(merged: dict) -> dict[str, float]:
    """Self time per module, over every wrapped function of the pass."""
    totals: dict[str, float] = {}
    for name, (_calls, _total, self_s) in merged["spans"].items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals


def pass_metrics(merged: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values of one traced pass, and a note per slope
    naming its size range."""
    spans, counters = merged["spans"], merged["counters"]
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name, _unit in metric_units():
        if name in _SPAN_ALIASES:
            span, field = _SPAN_ALIASES[name]
            values[name] = float(spans.get(span, [0, 0.0, 0.0])[field])
        elif name.endswith(".self_s"):
            values[name] = spans.get(name[: -len(".self_s")], [0, 0.0, 0.0])[2]
        elif name.endswith(".calls"):
            values[name] = float(spans.get(name[: -len(".calls")], [0, 0.0, 0.0])[0])
        elif name.endswith(".slope"):
            kernel = name[: -len(".slope")]
            slope, used, count = fit_slope(merged["samples"].get(kernel, []))
            values[name] = slope
            notes[name] = (
                f"{SLOPES[kernel]} {used[0]}..{used[1]} ({count} sizes)" if used
                else f"no fit: {count} size(s) above {MIN_FIT_S} s"
            )
        elif name == "measures.convolve.repeat_share":
            calls = spans.get("measures.convolve", [0])[0]
            values[name] = counters.get("measures.convolve.repeats", 0) / calls if calls else 0.0
        elif name == "lattice.cauchy_product.operand_digits":
            products = counters.get("lattice.cauchy_product.products", 0)
            weighted = counters.get("lattice.cauchy_product.digit_products", 0)
            values[name] = weighted / products if products else 0.0
        elif name == "trace.overhead_ratio":
            # cli.run's traced time over the same time without the tracer's own.
            values[name] = merged["run_s"] / (merged["run_s"] - merged["tracing_s"])
        else:
            values[name] = float(counters.get(name, 0))
    return values, notes
