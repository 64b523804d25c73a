"""Fresh-process execution of cxorder commands for the benchmark.

Every command runs as its own ``python -m cxorder`` process (or, when traced,
``python bench/tracer.py``), one at a time: a closed loop with one client.
Nothing here imports ``cxorder``.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.py")
# rss/sitecustomize.py reports each child's own peak resident set on stderr.
RSS_PROBE_DIR = os.path.join(BENCH_DIR, "rss")
RSS_MARKER = "cxorder-bench-vmhwm-kib"

# The trivial command whose wall time is the set-up cost every command pays:
# interpreter start, import and argument parsing.
SETUP_ARGV = ["major", "compare", "--p", "1,1", "--q", "2,0"]
SETUP_STDOUT = "majorized\n"

COMMAND_TIMEOUT_S = 120


class MissingProgram(RuntimeError):
    """The checkout has no cxorder sources to benchmark."""


def check_program():
    if not os.path.isfile(os.path.join(SRC, "cxorder", "__main__.py")):
        raise MissingProgram(f"no cxorder package under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    paths = [RSS_PROBE_DIR, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Byte code goes to the benchmark's own work area, not into src/.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CXORDER_EPS", None)  # the default truncation budget is part of the workload
    return env


@dataclass
class Result:
    code: int
    stdout: str
    wall_s: float
    rss_mb: float | None  # the process's own peak resident set (VmHWM)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()[:16]


def run_command(argv: list[str], env: dict, trace_out: str | None = None) -> Result:
    """Run one CLI command in a fresh interpreter and time it end to end."""
    if trace_out is None:
        full = [sys.executable, "-m", "cxorder", *argv]
    else:
        full = [sys.executable, TRACER, trace_out, *argv]
    start = time.perf_counter()
    proc = subprocess.run(full, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - start
    return Result(proc.returncode, proc.stdout, wall, _reported_rss_mb(proc.stderr))


def _reported_rss_mb(stderr: str) -> float | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(RSS_MARKER + " "):
            return int(line.split()[1]) / 1024
    return None


def run_reference(env: dict) -> float:
    """Wall time of one run of the fixed reference program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, REFERENCE], env=env, cwd=ROOT, capture_output=True, check=True,
                   timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


def tail_value(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile that still has ``beyond`` samples above it, as
    (value, percentile).  With too few samples it is the maximum."""
    ordered = sorted(values)
    rank = len(ordered) - beyond - 1 if len(ordered) > beyond else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
