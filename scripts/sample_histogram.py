#!/usr/bin/env python3
"""Sampler cross-check: empirical one-point histogram vs exact intensity.

Draws i.i.d. states with the exact chain-rule sampler for one family, bins
all coordinates, and prints the per-bin pull (empirical - exact) / stderr,
where "exact" is the bin average of the intensity K(x, x) and the stderr
comes from the sampler's independent seed-blocks.  Healthy output has pulls
of order 1 with no bin beyond ~4.

Usage:
    python3 scripts/sample_histogram.py --type C --N 3 --steps 20000
"""

import argparse
import time

import numpy as np

from elliptic_dpp.dpp_kernels import (KernelSpec, bin_intensity,
                                      empirical_density, exact_sample)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--type", default="A", dest="tag")
    ap.add_argument("--N", type=int, default=4)
    ap.add_argument("--t-star", type=float, default=1.0, dest="t_star")
    ap.add_argument("--steps", type=int, default=20000, help="states to draw")
    ap.add_argument("--bins", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    ks = KernelSpec((args.tag, args.N, 1.0), t=args.t_star / 2,
                    t_star=args.t_star)
    t0 = time.time()
    res = exact_sample(ks, args.steps, seed=args.seed)
    print(f"{len(res.positions)} states in {time.time() - t0:.1f}s, "
          f"tabulation error {res.tabulation_error:.1e}")

    h = empirical_density(res, bins=args.bins)
    mid = 0.5 * (h.bin_left + h.bin_right)
    exact = bin_intensity(ks, np.append(h.bin_left, h.bin_right[-1]))
    pulls = (h.density - exact) / h.stderr
    print(f"\n{'bin':>10} {'empirical':>10} {'exact':>10} {'pull':>7}")
    for i in range(args.bins):
        print(f"{mid[i]:>10.4f} {h.density[i]:>10.4f} {exact[i]:>10.4f} "
              f"{pulls[i]:>7.2f}")
    print(f"\nworst |pull| = {np.max(np.abs(pulls)):.2f} over {args.bins} bins")


if __name__ == "__main__":
    main()
