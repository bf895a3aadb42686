#!/usr/bin/env python3
"""Sweep `verify --suite all` over every family, a range of N and a list of
time pairs, and count the FAIL lines.

Usage:
    python3 scripts/verify_all.py [--pairs 0.4,1 2,5 ...] [--N 2 4]

For each time pair (t, t*) it prints the number of runs and of FAIL lines,
then one row per (suite line, kind) that fails somewhere, where the kind is
`inf` (a numerical engine refused the case) or `finite` (a residual past its
bound), with the count and the runs (family and N) it fails in:

    (t, t*) = (2, 5): 21 runs, 3 FAIL
      pinned-path proportionality                inf      2  A4 C4
      bridge density vs spectral density         finite   1  C2

Diff the output of two checkouts to see which verdicts a change moves.  The
default is the nine time pairs below, 7 families x N = 2..4 (189 runs, about
a minute on a 2-core machine).  Exit status 1 if any line fails.
"""

import argparse
import math
import sys
import time
from collections import defaultdict

from elliptic_dpp.dpp_kernels import KernelSpec
from elliptic_dpp.root_systems import FAMILIES
from elliptic_dpp.verification import run_suites

PAIRS = ((0.4, 1.0), (2.0, 5.0), (5.0, 10.0), (8.0, 20.0), (20.0, 50.0),
         (0.01, 1.0), (1e-3, 1.0), (0.1, 0.25), (1e-4, 1.0))


def _pair(text):
    t, t_star = (float(v) for v in text.split(","))
    return t, t_star


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=_pair, nargs="+", default=PAIRS, metavar="T,T_STAR")
    ap.add_argument("--N", type=int, nargs=2, default=(2, 4), metavar=("LO", "HI"))
    args = ap.parse_args()

    total, t0 = 0, time.time()
    for t, t_star in args.pairs:
        fails, runs = defaultdict(list), 0
        for tag in FAMILIES:
            for N in range(max(args.N[0], 2 if tag == "D" else 1), args.N[1] + 1):
                runs += 1
                for r in run_suites("all", KernelSpec((tag, N, 1.0), t, t_star)):
                    if not r.passed:
                        kind = "inf" if math.isinf(r.residual) else "finite"
                        fails[r.name, kind].append(f"{tag}{N}")
        n_fail = sum(map(len, fails.values()))
        total += n_fail
        print(f"(t, t*) = ({t:g}, {t_star:g}): {runs} runs, {n_fail} FAIL")
        for (name, kind), who in fails.items():
            print(f"  {name:<42} {kind:<6} {len(who):>3}  {' '.join(who)}")
    print(f"\n{total} FAIL in all; {time.time() - t0:.1f}s")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
