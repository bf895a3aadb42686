#!/usr/bin/env python3
"""Horizon sweep for the bulk (sine-kernel) limit of the infinite kernels.

For each boundary geometry, evaluates the time-inhomogeneous infinite kernel
at mid-time against the matching sine form and tracks the worst deviation
over a fixed set of bulk point pairs as the horizon t* rho^2 grows.  The
deviation falls off like C / (t* rho^2); the dev*horizon column should be
flat.  The last column checks the lambda rule itself away from mid-time: the
worst deviation of `infinite_kernel` at t = t*/10 from the same integral on
the same panels at 32 768 nodes in all (`_inf_quad`), over rho, or "refused"
where `infinite_kernel` refuses the spec.

Usage:
    python3 scripts/limit_sweep.py [--horizons 50,200,800,3200]
"""

import argparse

import numpy as np

from elliptic_dpp.dpp_kernels import (InfiniteKernelSpec, _inf_panels, _inf_quad,
                                      infinite_kernel, sine_kernel)
from elliptic_dpp.theta_core import AccuracyError
from elliptic_dpp.verification import SINE_OF

PAIRS = [(0.3, 0.3), (1.3, 0.6), (2.2, 0.9), (3.1, 2.4)]


def deviation(fam, horizon, rho=1.0):
    iks = InfiniteKernelSpec(fam, rho=rho, t=horizon / (2 * rho**2),
                             t_star=horizon / rho**2)
    return max(abs(infinite_kernel(iks, x / rho, y / rho)
                   - sine_kernel(SINE_OF[fam], x / rho, y / rho, rho))
               for x, y in PAIRS)


def rule_deviation(fam, horizon, rho=1.0):
    iks = InfiniteKernelSpec(fam, rho=rho, t=0.1 * horizon / rho**2, t_star=horizon / rho**2)
    x, y = np.array(PAIRS).T / rho
    try:
        rule = infinite_kernel(iks, x, y)
    except AccuracyError:
        return "refused"
    ref = _inf_quad(iks, x, y, 32768 // (len(_inf_panels(iks)) - 1))
    return f"{np.max(np.abs(rule - ref)) / rho:.2e}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--horizons", default="50,200,800",
                    help="comma-separated t*rho^2 values")
    ap.add_argument("--rho", type=float, default=1.0)
    args = ap.parse_args()
    horizons = [float(s) for s in args.horizons.split(",")]

    print(f"{'family':>6} {'horizon':>9} {'deviation':>12} {'dev*horizon':>12} "
          f"{'rule t*/10':>11}")
    for fam in ("A", "B", "C", "D"):
        consts = []
        for h in horizons:
            dev = deviation(fam, h, args.rho)
            consts.append(dev * h)
            print(f"{fam:>6} {h:>9g} {dev:>12.4e} {dev * h:>12.4f} "
                  f"{rule_deviation(fam, h, args.rho):>11}")
        spread = (max(consts) - min(consts)) / max(consts)
        print(f"{'':>6} law constant C = {np.mean(consts):.3f} "
              f"(spread {spread:.1%})")
    print("\nto reach |K - K_sine| < 1e-6 the horizon must exceed ~C/1e-6 "
          f"= {np.mean(consts) / 1e-6:.1e}")


if __name__ == "__main__":
    main()
