"""Host-speed probe: times one fixed cycle of small Python tasks, over and over.

    python3 perfbench/speed.py OUT_FILE

Runs until killed.  Each line of OUT_FILE is `<time.monotonic() at the end
of a cycle> <seconds the cycle took>`.  run.py starts it beside the
experiments, on the core they leave free, and scales their times by how
long a cycle took meanwhile: the shared host slows both cores together, so
the probe's cycle time tracks the speed the experiments ran at.  The cycle
mixes the kinds of work the experiments do (interpreter loops, Fraction
arithmetic, small and large numpy operations, dicts and sorting) and uses
no nhsq code, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

import numpy as np

BIG = np.random.default_rng(0).random(150_000)
SMALL = np.arange(32.0)


def cycle() -> None:
    s = 0
    for i in range(6000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i * (i + 1))
        s += f < Fraction(1, 2)
    a = BIG
    for _ in range(3):
        a = np.sqrt(a * a + 1.0)
    s += int(a.sum())
    for _ in range(150):
        s += int((SMALL * 2.0 + 1.0).sum())
    d = {(i, i % 13): str(i) for i in range(2000)}
    s += len(sorted(d.items()))


def main() -> None:
    os.nice(10)  # yield to the driver process when it needs the core
    with open(sys.argv[1], "w", buffering=1) as out:
        while True:
            t0 = time.monotonic()
            cycle()
            t1 = time.monotonic()
            out.write(f"{t1:.6f} {t1 - t0:.6f}\n")


if __name__ == "__main__":
    main()
