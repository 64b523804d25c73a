"""Record the pinned outputs that checks.py compares against.

    python3 bench/golden.py

Runs every workload's full command list once per seed of SEEDS and writes
each command's exit code and stdout digest to bench/golden.json.  Recording
refuses a run that fails the seed-independent checks.  Re-record only when
the command lists change, never to accept a change in the program's output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import harness
import workloads

SEEDS = list(range(10))


def main() -> int:
    harness.check_program()
    env = harness.child_env()
    pinned: dict[str, dict[str, list]] = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            inputs = os.path.join(harness.WORK, f"golden-{os.getpid()}")
            try:
                commands = workloads.build(name, seed, inputs)
                results = [harness.run_command(cmd.argv, env) for cmd in commands]
            finally:
                shutil.rmtree(inputs, ignore_errors=True)
            failures = checks.verify(commands, results, None)
            if failures:
                print(f"{name} seed {seed} fails its checks: {failures}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = [[res.code, res.digest] for res in results]
            print(f"{name} seed {seed}: {len(results)} commands", flush=True)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seeds": SEEDS, "workloads": pinned}, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
