"""Correctness gate of the benchmark.

Every command of a pass is checked; ``verify`` returns the indexes of the
commands that fail, with a reason, and those feed ``fail_frac``.

- Exit codes must be among those the workload expects for the command.
- For the pinned seeds (``golden.json``), each command's exit code and a
  digest of its stdout must equal the ones recorded at the seed commit:
  byte-identical CLI output is an invariant of the project.
- Checks that hold for any seed: ``rasa check`` and ``rasa direct`` agree on
  every pair; a pair that passes ``order st`` also passes ``rasa check``
  (stochastic comparability implies the criterion); every ``reproduce`` case
  prints REPRODUCED; both equivalence sweeps report agreement; truncated
  ``genfun`` verdicts exit 3 (their expected exit code).
"""

from __future__ import annotations

import json
import os

from harness import BENCH_DIR, Result
from workloads import Command

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")


def load_golden(workload: str, seed: int, smoke: bool) -> list[list] | None:
    """The pinned [exit code, stdout digest] list for this run, if any."""
    if smoke or not os.path.exists(GOLDEN_PATH):
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    return golden["workloads"].get(workload, {}).get(str(seed))


def verify(commands: list[Command], results: list[Result], golden: list[list] | None) -> dict[int, str]:
    failures: dict[int, str] = {}

    def fail(index: int, reason: str):
        failures.setdefault(index, reason)

    if golden is not None and len(golden) != len(commands):
        for i in range(len(commands)):
            fail(i, "pinned command list differs in length")
        golden = None
    by_pair: dict[str, dict[str, int]] = {}
    for i, (cmd, res) in enumerate(zip(commands, results)):
        if res.code not in cmd.expect:
            fail(i, f"exit {res.code}, expected one of {cmd.expect}")
        if golden is not None and [res.code, res.digest] != golden[i]:
            fail(i, f"output differs from the pinned run: {[res.code, res.digest]} != {golden[i]}")
        lines = res.stdout.splitlines()
        if cmd.kind == "reproduce" and (not lines or lines[-1] != "REPRODUCED"):
            fail(i, "reproduce case did not print REPRODUCED")
        if cmd.kind == "equivalence" and "criterion and oracle agree" not in res.stdout:
            fail(i, "equivalence sweep found a disagreement")
        if cmd.pair is not None:
            by_pair.setdefault(cmd.pair, {})[cmd.kind] = i
    for kinds in by_pair.values():
        check, direct, st = kinds.get("rasa-check"), kinds.get("rasa-direct"), kinds.get("order-st")
        if check is not None and direct is not None and results[check].code != results[direct].code:
            fail(direct, "rasa check and rasa direct disagree")
        if check is not None and st is not None and results[st].code == 0 and results[check].code != 0:
            fail(check, "pair passes order st but fails rasa check")
    return failures


def holds_share(commands: list[Command], results: list[Result]) -> float | None:
    """Share of ``rasa check`` pairs whose verdict holds (exit 0)."""
    codes = [res.code for cmd, res in zip(commands, results) if cmd.kind == "rasa-check"]
    return sum(1 for c in codes if c == 0) / len(codes) if codes else None
