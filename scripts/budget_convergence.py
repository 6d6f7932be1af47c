#!/usr/bin/env python3
"""How fast the private statistic approaches the non-private one as the budget grows.

For each epsilon the protocol runs a few times with fresh seeds on one fixed
dataset; the table reports the private statistic's relative error against the
non-private value, plus the closed-form ratio bounds evaluated at the
observed private ratio.
"""
import argparse
import sys

import numpy as np

from pitest.estimators import dcov_sq_closed_form, s_hat
from pitest.privacy import PrivacyParams
from pitest.protocol import alice_prepare, bob_evaluate


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--x-scale", type=float, default=100.0)
    ap.add_argument("--eta", type=float, default=0.01)
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--nu", type=float, default=0.05)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--data-seed", type=int, default=2026)
    args = ap.parse_args()

    rng = np.random.default_rng(args.data_seed)
    X = args.x_scale * rng.standard_normal((args.n, args.d))
    Y = rng.standard_normal((args.n, args.m))
    gamma_ref = args.n * dcov_sq_closed_form(X, Y) / s_hat(X, Y)
    print(f"non-private Gamma = {gamma_ref:.6g}  (n = {args.n})")
    print(f"{'epsilon':>10} {'mean rel err':>14} {'bound lower':>12} {'bound upper':>12}")

    for epsilon in (1e2, 1e3, 1e4, 1e5, 1e6):
        params = PrivacyParams(epsilon, args.delta, args.eta, args.nu)
        errs, last = [], None
        for rep in range(args.reps):
            seed = int(np.random.SeedSequence([args.data_seed, rep]).generate_state(1)[0])
            report = bob_evaluate(alice_prepare(X, params, seed), Y)
            if report.degenerate:
                continue
            errs.append(abs(report.statistic - gamma_ref) / gamma_ref)
            last = report
        if not errs:
            print(f"{epsilon:>10g} {'degenerate':>14}")
            continue
        b = last.bounds
        upper = f"{b.upper:>12.4g}" if np.isfinite(b.upper) else "         inf"
        print(f"{epsilon:>10g} {np.mean(errs):>14.4%} {b.lower:>12.4g} {upper}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
