"""cxorder benchmark: one workload, fresh-process CLI commands, one client.

    python3 bench/run.py --workload decide --seed 0 --seconds 24 --trace 0

The workload's command list is built from the seed and run in passes, one
command at a time (a closed loop with a single client), each command in a
fresh ``python -m cxorder`` process.  The number of passes is fixed by
``--seconds`` and the workload's nominal pass time, so a run does the same
work on every commit.  Every command's output is checked (see checks.py).

Times are normalized to a nominal machine speed.  The fixed reference
program (reference.py) runs after every command, and each command's wall
time t is reported as t * REF_NOMINAL_S / r, with r the mean of the
reference times just before and after it.  On the shared two-vCPU virtual
machine where the baseline was taken, the machine's speed drifts by +-20 %
within a minute; the scaling cancels most of that.  The summary lines also
give the raw times and the reference's median.

With ``--trace 0`` the result line carries the end-to-end metrics:
  setup_s      median time of the trivial command (start, import, parse),
               sampled after every third command of every pass
  wall_s       median over passes of the summed command times
  cmd_p50_s    median command time
  cmd_tail_s   highest percentile of command time with ten commands above it
  peak_rss_mb  largest peak resident set (VmHWM) of any workload command's
               own process, not normalized; the summary names the command
               and the trivial command's peak beside it
With ``--trace 1`` the passes run every command through tracer.py, and the
result line carries the per-layer metrics of layers.py, each the median over
passes.  trace.overhead_ratio is cli.run's traced time over that time less
the tracer's own (see tracer.py).
``fail_frac`` (failed / attempted commands) is printed on the summary lines;
the result line carries the same counts as ``failed`` and ``attempted``.

The last line of stdout is the JSON result; everything before it is a
human-readable summary.  Exits 2 without a result when the checkout holds no
cxorder sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import checks
import harness
import layers
import workloads

# Nominal pass time per workload.  With --seconds it fixes the number of
# passes, so that number never depends on the program's speed: 24 s gives
# three passes of decide, compose and scan and four of series.  decide needs
# three: its cmd_tail_s rank then falls among commands whose cost does not
# depend on the seed.
NOMINAL_PASS_S = {"decide": 8.0, "compose": 8.0, "scan": 8.0, "series": 6.0}
# About the reference program's median wall time on that machine.
REF_NOMINAL_S = 0.080
# The trivial command runs after every SETUP_EVERY-th workload command.
SETUP_EVERY = 3
SETUP_WARMUP = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}


def pass_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


class Run:
    """The state of one benchmark run: inputs, timings and failures."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.env = harness.child_env()
        self.inputs = os.path.join(harness.WORK, f"run-{os.getpid()}")
        self.commands = workloads.build(workload, seed, self.inputs, smoke)
        self.golden = checks.load_golden(workload, seed, smoke)
        self.attempted = 0
        self.failures: list[str] = []
        self.last_results: list[harness.Result] = []
        self.setup_s: list[float] = []  # normalized
        self.setup_raw_s: list[float] = []
        self.setup_rss_mb: list[float] = []
        self.peak_rss: tuple[float, int] = (0.0, -1)  # (MB, command index)
        self.reference_s: list[float] = []
        self.previous_reference: float | None = None

    def warm_up(self):
        """The first run in a checkout compiles the byte code."""
        for _ in range(SETUP_WARMUP):
            self.check_setup(harness.run_command(harness.SETUP_ARGV, self.env))
        self.previous_reference = harness.run_reference(self.env)

    def timed(self, argv: list[str]) -> tuple[harness.Result, float]:
        """Run one command, then the reference; return the result and its
        wall time scaled to the nominal machine speed."""
        res = harness.run_command(argv, self.env)
        reference = harness.run_reference(self.env)
        self.reference_s.append(reference)
        scaled = res.wall_s * REF_NOMINAL_S * 2 / (self.previous_reference + reference)
        self.previous_reference = reference
        return res, scaled

    def check_setup(self, res: harness.Result):
        self.attempted += 1
        if res.code != 0 or res.stdout != harness.SETUP_STDOUT:
            self.failures.append(f"setup command: exit {res.code}, stdout {res.stdout!r}")
        self.setup_rss_mb.append(_rss(res))

    def check(self, results: list[harness.Result]):
        self.attempted += len(results)
        for i, reason in sorted(checks.verify(self.commands, results, self.golden).items()):
            self.failures.append(f"command {i} ({' '.join(self.commands[i].argv[:2])}): {reason}")
        self.last_results = results

    def one_pass(self) -> list[float]:
        """Run the command list once; return the normalized command times.
        The trivial set-up command runs after every SETUP_EVERY-th command,
        so that its samples spread over the whole run rather than one moment
        of it."""
        results, times = [], []
        for i, cmd in enumerate(self.commands):
            res, scaled = self.timed(cmd.argv)
            results.append(res)
            times.append(scaled)
            self.peak_rss = max(self.peak_rss, (_rss(res), i))
            if i % SETUP_EVERY == SETUP_EVERY - 1:
                res, scaled = self.timed(harness.SETUP_ARGV)
                self.check_setup(res)
                self.setup_s.append(scaled)
                self.setup_raw_s.append(res.wall_s)
        self.check(results)
        return times

    def traced_pass(self) -> list[dict]:
        """Run the command list once through tracer.py; return the traces."""
        results, traces = [], []
        for i, cmd in enumerate(self.commands):
            trace_out = os.path.join(self.inputs, f"trace-{i}.json")
            results.append(harness.run_command(cmd.argv, self.env, trace_out))
            if os.path.exists(trace_out):
                with open(trace_out, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
                os.remove(trace_out)
        self.check(results)
        return traces

    def close(self):
        shutil.rmtree(self.inputs, ignore_errors=True)


def _rss(res: harness.Result) -> float:
    if res.rss_mb is None:
        raise RuntimeError("a child process reported no peak resident set (needs /proc)")
    return res.rss_mb


def measure_end_to_end(run: Run, passes: int) -> tuple[dict, list[str]]:
    walls, cmd_times = [], []
    for _ in range(passes):
        times = run.one_pass()
        walls.append(sum(times))
        cmd_times += times
    tail, percentile = harness.tail_value(cmd_times)
    peak_mb, peak_index = run.peak_rss
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(cmd_times),
        "cmd_tail_s": tail,
        "peak_rss_mb": peak_mb,
    }
    lines = [
        f"passes {passes} x {len(run.commands)} commands: " + " ".join(f"{w:.3f}" for w in walls) + " s",
        f"raw: last pass {sum(res.wall_s for res in run.last_results):.3f} s, "
        f"set-up median {statistics.median(run.setup_raw_s):.4f} s, "
        f"reference median {statistics.median(run.reference_s):.4f} s (nominal {REF_NOMINAL_S})",
        f"setup_s is the median of {len(run.setup_s)} samples spread over the passes",
        f"cmd_tail_s is p{percentile:.0f} of {len(cmd_times)} commands",
        f"peak_rss_mb {peak_mb:.2f} MB is set by command {peak_index} "
        f"({' '.join(run.commands[peak_index].argv[:2])}); the trivial command peaks at "
        f"{max(run.setup_rss_mb):.2f} MB",
    ]
    share = checks.holds_share(run.commands, run.last_results)
    if share is not None:
        lines.append(f"input: share of rasa check pairs that hold {share:.3f}")
    return metrics, lines


def measure_per_layer(run: Run, passes: int) -> tuple[dict, list[str]]:
    per_pass, notes = [], {}
    for _ in range(passes):
        merged = layers.merge(run.traced_pass())
        values, notes = layers.pass_metrics(merged)
        per_pass.append(values)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    lines = [
        f"traced passes {passes} x {len(run.commands)} commands; times are raw seconds",
        f"last traced pass: cli.run {merged['run_s']:.3f} s, of which the tracer's own "
        f"{merged['tracing_s']:.3f} s; trace.overhead_ratio per pass "
        + " ".join(f"{p['trace.overhead_ratio']:.4f}" for p in per_pass),
    ]
    by_layer = sorted(layers.layer_self_times(merged).items(), key=lambda item: -item[1])
    lines.append("self time by layer (last traced pass): " + ", ".join(f"{k} {v:.3f} s" for k, v in by_layer))
    lines += [f"{name}: {note}" for name, note in notes.items()]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one pass: the smoke test")
    args = parser.parse_args(argv)
    try:
        harness.check_program()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = 1 if args.smoke else pass_count(args.workload, args.seconds)
    run = Run(args.workload, args.seed, args.smoke)
    try:
        run.warm_up()
        if args.trace:
            metrics, lines = measure_per_layer(run, passes)
            units = dict(layers.metric_units())
        else:
            metrics, lines = measure_end_to_end(run, passes)
            units = END_TO_END_UNITS
    finally:
        run.close()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines + run.failures:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_frac = {len(run.failures) / run.attempted:.6g} ratio ({len(run.failures)} of {run.attempted})")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
