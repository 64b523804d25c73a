"""Steadiness check: do two independent sets of runs of the same code agree?

    python3 bench/steady.py --runs 10 [--out FILE]

Each run is a fresh ``bench/run.py`` process with its own seed, from 1 up; no
seed is used twice.  For every workload and end-to-end metric the report
gives each set's median and quartiles, the spread (q3 - q1) / median, and
whether the sets agree: each set's spread stays within the metric's bound
from BENCHMARK.json, and the two medians differ by no more than the bound,
in either direction.  One traced run per workload adds its per-layer
figures, ``trace.overhead_ratio`` among them.  ``--out`` writes everything
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness
import workloads

BENCHMARK_JSON = os.path.join(harness.ROOT, "BENCHMARK.json")
RUN_PY = os.path.join(harness.BENCH_DIR, "run.py")
SETS = 2
FIRST_SEED = 1


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = harness.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # values[workload][set][metric] -> list of run values
    values = {w: [{m: [] for m in metrics} for _ in range(SETS)] for w in workloads.WORKLOADS}
    failures = []
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(args.runs):
            for w in workloads.WORKLOADS:
                result = bench_run(w, seed, seconds, 0)
                if not result["correct"]:
                    failures.append(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
                for m in metrics:
                    values[w][s][m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
            seed += 1

    report = {"run_seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    agree = not failures
    for w in workloads.WORKLOADS:
        entry = {"sets": [{m: summarize(values[w][s][m]) for m in metrics} for s in range(SETS)]}
        print(f"\n{w}")
        for m, spec_m in metrics.items():
            bound = spec_m["bound"]
            first, second = (entry["sets"][s][m] for s in range(SETS))
            worse = worse_share(first["median"], second["median"], spec_m["better"])
            ok = first["spread"] <= bound and second["spread"] <= bound and abs(worse) <= bound
            agree = agree and ok
            text = "  ".join(f"med {x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] spread {x['spread']:.3f}"
                             for x in (first, second))
            print(f"  {m:12s} bound {bound:.2f}  {text}  worse {worse:+.3f}  {'ok' if ok else 'NOT STEADY'}")
        traced = bench_run(w, FIRST_SEED, seconds, 1)
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        print(f"  trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.3f}")
        report["workloads"][w] = entry
    for line in failures:
        print(f"FAILED {line}")
    report["agree"] = agree
    print(f"\nsets agree within bounds: {agree}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
