#!/usr/bin/env python3
"""Empirical level and power of the non-private test across dependence strengths."""
import argparse
import sys

import numpy as np

from pitest.estimators import dcov_sq_closed_form, decide, s_hat


def rejection_rate(n, seeds, alpha, coupling):
    rejected = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        y = coupling * x + noise if coupling > 0 else rng.standard_normal(n)
        s = s_hat(x, y)
        if s <= 0:
            continue
        rejected += decide(n * dcov_sq_closed_form(x, y) / s, alpha).reject
    return rejected / seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    args = ap.parse_args()

    print(f"n = {args.n}, {args.seeds} seeds, alpha = {args.alpha}")
    print(f"{'coupling':>9} {'reject rate':>12}")
    for coupling in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5):
        rate = rejection_rate(args.n, args.seeds, args.alpha, coupling)
        label = "(level)" if coupling == 0.0 else ""
        print(f"{coupling:>9g} {rate:>12.3f} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
