#!/usr/bin/env python3
"""Time the transmission formula against the LP oracle on growing graphs.

The formula pipeline is one all-sources BFS; the LP pipeline solves one
minimax program per vertex. Both values must agree to 1e-6 wherever both
run; the script exits nonzero if any row disagrees. Example:

    python scripts/bench_formula_vs_lp.py --max-n 48 --step 8 --seed 7
"""

import argparse
import time

from gammaconn import gamma, gamma_via_lp
from gammaconn.random_graphs import gnm_connected


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=8)
    ap.add_argument("--max-n", type=int, default=48)
    ap.add_argument("--step", type=int, default=8)
    ap.add_argument("--avg-degree", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    disagreements = 0
    print(f"{'n':>6} {'m':>7} {'formula_s':>11} {'lp_s':>11} {'ratio':>8} {'agree':>6}")
    for n in range(args.min_n, args.max_n + 1, args.step):
        m = int(n * args.avg_degree / 2)
        g = gnm_connected(n, m, seed=args.seed + n)
        t0 = time.perf_counter()
        exact = float(gamma(g).gamma)
        t_formula = time.perf_counter() - t0
        t0 = time.perf_counter()
        via_lp = gamma_via_lp(g)
        t_lp = time.perf_counter() - t0
        ratio = t_lp / t_formula if t_formula else float("inf")
        agree = abs(exact - via_lp) <= 1e-6
        disagreements += not agree
        print(f"{n:>6} {m:>7} {t_formula:>11.5f} {t_lp:>11.5f} {ratio:>8.1f} {agree!s:>6}")
    if disagreements:
        raise SystemExit(f"{disagreements} rows disagree")


if __name__ == "__main__":
    main()
