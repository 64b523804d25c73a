"""Peak-memory probe for the benchmark's child processes.

harness.py puts this directory first on the children's PYTHONPATH, so Python
imports this module at start-up, before ``-m cxorder`` runs.  At exit it
writes the process's own peak resident set (VmHWM) to stderr, where the
harness reads it.  VmHWM belongs to the process's own address space.  The
max-RSS that wait4 or getrusage report also holds the parent's peak at the
moment of exec, and the benchmark's own parent is larger than most cxorder
commands.
"""

import atexit
import sys

MARKER = "cxorder-bench-vmhwm-kib"  # harness.RSS_MARKER


def _report_peak():
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(f"\n{MARKER} {line.split()[1]}\n")
                    sys.stderr.flush()
                    return
    except OSError:
        pass  # no /proc: the harness reports the peak as missing


atexit.register(_report_peak)
