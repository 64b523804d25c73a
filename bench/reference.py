"""Fixed reference program that measures how fast the machine is right now.

run.py starts it after every workload command.  Its wall time, like a
cxorder command's, is interpreter start, imports and exact Fraction work, but
it never touches cxorder, so it does not change when the program does.
Every reported time is scaled by REF_NOMINAL_S / (the reference times just
before and after it), which cancels the machine's speed drift.

Do not change this file: every normalized figure is relative to it.
"""

import argparse  # noqa: F401  (imported for the start-up cost cxorder pays too)
import csv  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import random
from fractions import Fraction


def main():
    rng = random.Random(7)
    mu = {Fraction(rng.randint(0, 64), 4): Fraction(rng.randint(1, 6)) for _ in range(20)}
    nu = {Fraction(rng.randint(0, 64), 4): Fraction(rng.randint(1, 6), 5) for _ in range(20)}
    acc = {}
    for x, w in mu.items():
        for y, v in nu.items():
            acc[x + y] = acc.get(x + y, Fraction(0)) + w * v
    total = Fraction(0)
    for a in sorted(acc)[::8]:
        total += sum((w * (x - a) for x, w in acc.items() if x > a), Fraction(0))
    print(total.numerator % 1000)


if __name__ == "__main__":
    main()
