#!/usr/bin/env python3
"""Rejection rate of the paper's private rule over n, epsilon, x scale, Y offset and dependence.

Every trial draws a fresh (X, Y) from ``synthetic_pair`` (d = 2, m = 1),
shifts Y by the row's offset in units of its sd, and draws Bob's
``(omega_bar_sq, s_bar)`` once per epsilon from ``pitest.laws``, all
epsilons of a trial from one batched law and one generator: the exact
law of what ``bob_evaluate(alice_prepare(X, p, seed), Y)`` reports, with no
package released, and judges each draw with ``pitest.estimators.decide``:
the rule rejects when ``n omega_bar_sq / s_bar`` exceeds the level-alpha
threshold.  Beside each row of independent data is the central 99.9% band
of Binomial(trials, alpha), the counts a rule of level alpha gives; a count
below or above it is marked.

Example:
    python3 scripts/level_power.py --ns 200,2000 --epsilons 1,1e4 --trials 500
"""
import argparse
import math
import sys
from itertools import product

import numpy as np

from pitest.data import synthetic_pair
from pitest.errors import InvalidInputError
from pitest.estimators import decide, rejection_threshold
from pitest.laws import statistics_laws
from pitest.privacy import PrivacyParams, jl_params


def binomial_band(trials, alpha, mass=0.999):
    """The central ``mass`` of Binomial(trials, alpha): its (1 - mass)/2 and (1 + mass)/2 quantiles."""
    log_comb = [math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                for k in range(trials + 1)]
    k = np.arange(trials + 1)
    cdf = np.cumsum(np.exp(np.array(log_comb) + k * math.log(alpha) + (trials - k) * math.log1p(-alpha)))
    tail = (1.0 - mass) / 2.0
    return int(np.searchsorted(cdf, tail)), int(np.searchsorted(cdf, 1.0 - tail))


def numbers(text):
    return [float(v) for v in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", default="200,2000")
    ap.add_argument("--epsilons", default="1,1e4")
    ap.add_argument("--x-scales", default="1,1e4")
    ap.add_argument("--offsets", default="0,3", help="Y offsets, in sd of Y")
    ap.add_argument("--dependences", default="0,0.3")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    epsilons = numbers(args.epsilons)
    if args.trials < 1:
        ap.error(f"--trials must be >= 1, got {args.trials}")
    try:  # refused by the owner of each rule before anything is drawn
        rejection_threshold(args.alpha)
        # pi-test's default delta, eta and nu
        params = [jl_params(PrivacyParams(e, 2e-4, 0.1, 0.05).half_budget()) for e in epsilons]
    except InvalidInputError as exc:
        ap.error(str(exc))
    low, high = binomial_band(args.trials, args.alpha)
    print(f"{args.trials} trials per row, alpha = {args.alpha}; band: 99.9% of Binomial("
          f"{args.trials}, {args.alpha}) for independent data")
    print(f"{'n':>6} {'epsilon':>8} {'x scale':>8} {'Y offset':>8} {'dependence':>10} "
          f"{'rejected':>10} {'rate':>6}  band")
    grid = product([int(n) for n in numbers(args.ns)], numbers(args.x_scales),
                   numbers(args.offsets), numbers(args.dependences))
    for n, x_scale, offset, dependence in grid:
        rejected = np.zeros(len(epsilons), dtype=int)
        for t in range(args.trials):
            X, Y = synthetic_pair(n, 2, 1, dependence=dependence, x_scale=x_scale,
                                  seed=args.seed + t)
            Y = Y + offset * Y.std(axis=0)
            rng = np.random.default_rng([args.seed, t])
            omega_bar_sq, s_bar = statistics_laws(X, Y, params).draws(rng, 1)
            for i, (omega_i, s_i) in enumerate(zip(omega_bar_sq[:, 0], s_bar[:, 0])):
                rejected[i] += bool(decide(omega_i, s_i, n, args.alpha).reject)
        for epsilon, count in zip(epsilons, rejected):
            mark = " below" if count < low else " above" if count > high else ""
            band = f"[{low}, {high}]{mark}" if dependence == 0.0 else ""
            print(f"{n:>6} {epsilon:>8g} {x_scale:>8g} {offset:>8g} {dependence:>10g} "
                  f"{f'{count}/{args.trials}':>10} {count / args.trials:>6.3f}  {band}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
