"""Alternated parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --seed 2626 --pairs 10 \\
        --change "what the change does" --out BENCH_26.json

PARENT and CHANGE are two checkouts of the repository.  Each pair runs

    python3 bench/run.py --workload W --seed SEED --seconds SECONDS --trace 0

in both, SECONDS the run_seconds of BENCHMARK.json and every workload of it
in turn within a side: the parent side first in even-numbered pairs
(0, 2, ...), the change side first in odd-numbered ones.  Each checkout
runs its own bench/ on its own sources.

The output holds, per workload and end-to-end metric, each side's median,
quartiles (the inclusive method of `statistics.quantiles`) and minimum,
the number of pairs in which the change read lower, the change of the
medians in percent, and every run in pair order.  It is rewritten after
every pair, so an interrupted run keeps the pairs it finished.  One
line per metric on stdout compares the median gap with the parent's
interquartile range, the spread a claimed gain has to exceed.

Only the standard library: nothing is imported from either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def _head(checkout: Path) -> str:
    result = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or str(checkout)


def _machine() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
    except OSError:
        models = []
    cpus = f"{len(models)}-CPU " if models else ""
    model = f" ({models[0]})" if models else ""
    return f"{cpus}machine{model}; times normalized by bench/run.py"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "min": round(min(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: dict, bounds: dict) -> dict:
    """The workload entry of the output from its runs, side -> [result]."""
    pairs = min(len(runs[side]) for side in SIDES)
    entry = {
        "runs": {side: len(runs[side]) for side in SIDES},
        "correct": all(result["correct"] for side in SIDES for result in runs[side]),
        "failed": {side: sum(result["failed"] for result in runs[side]) for side in SIDES},
        "metrics": {},
    }
    for name, bound in bounds.items():
        values = {side: [result["metrics"][name]["value"] for result in runs[side]]
                  for side in SIDES}
        metric = {"unit": runs["parent"][0]["metrics"][name]["unit"], "bound": bound}
        if pairs >= 2:
            metric.update({side: _summary(values[side]) for side in SIDES})
            parent, change = metric["parent"]["median"], metric["change"]["median"]
            metric["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(values["parent"][:pairs], values["change"][:pairs]))
            metric["median_change_pct"] = round(100 * (change - parent) / parent, 2)
        metric["runs_in_pair_order"] = values
        entry["metrics"][name] = metric
    return entry


def report(workloads: dict) -> list[str]:
    """One line per workload and metric: the pairs the change won and the
    median gap against the parent's interquartile range."""
    lines = []
    for workload, entry in workloads.items():
        for name, metric in entry["metrics"].items():
            if "parent" not in metric:
                continue
            parent = metric["parent"]
            iqr_pct = 100 * (parent["q3"] - parent["q1"]) / parent["median"]
            lines.append(
                f"{workload} {name}: {parent['median']:g} -> {metric['change']['median']:g} "
                f"{metric['unit']} ({metric['median_change_pct']:+.2f} %, parent IQR "
                f"{iqr_pct:.2f} %), change lower in {metric['change_lower_in_pairs']} of "
                f"{min(entry['runs'].values())} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--change", dest="description", required=True,
                        help="one line on what the change does")
    parser.add_argument("--claim", default="none: the change claims no gain",
                        help="the gain the change claims, if any")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = _benchmark(args.change)
    seconds = benchmark["run_seconds"]
    names = [workload["name"] for workload in benchmark["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {name: {side: [] for side in SIDES} for name in names}
    output = {
        "command": f"python3 bench/run.py --workload <name> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "parent": _head(args.parent),
        "change": args.description,
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "alternated: parent first in even-numbered pairs, change first in odd-numbered "
                 f"ones; the {len(names)} workloads run in turn within each side",
        "machine": _machine(),
        "claim": args.claim,
    }
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            for name in names:
                runs[name][side].append(run_once(checkouts[side], name, args.seed, seconds))
        output["workloads"] = {name: summarize(runs[name], bounds) for name in names}
        args.out.write_text(json.dumps(output, indent=1) + "\n", encoding="utf-8")
        print(f"pair {pair + 1} of {args.pairs} done", flush=True)
    print("\n".join(report(output["workloads"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
