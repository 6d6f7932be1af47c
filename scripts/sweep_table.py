#!/usr/bin/env python3
"""Privacy-utility sweep on a synthetic dataset, printed as an aligned table.

Each trial draws the two private statistics from the exact law of what the
protocol would report (see ``pitest.sweep``), without releasing a package:
every column comes from one stream per cell, keyed by the master seed and
the cell's indices, as draws of the package's law.

Example:
    python3 scripts/sweep_table.py --n 100 --x-scale 3e4 --replications 50 \
        --epsilons 0.5,1,2,4,8 --out sweep.csv
"""
import argparse
import sys
import time

from pitest.data import synthetic_pair
from pitest.ioutil import atomic_write_text
from pitest.sweep import SweepConfig, run_sweep, sweep_rows_to_csv


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--dependence", type=float, default=0.3)
    ap.add_argument("--x-scale", type=float, default=3e4,
                    help="scale of the first dataset; larger scales shrink the "
                         "relative weight of the spectral floor")
    ap.add_argument("--epsilons", default="0.5,1,2,4,8")
    ap.add_argument("--etas", default="0.05,0.1")
    ap.add_argument("--replications", type=int, default=50)
    ap.add_argument("--delta", type=float, default=2e-4)
    ap.add_argument("--nu", type=float, default=0.05)
    ap.add_argument("--data-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7, help="sweep master seed")
    ap.add_argument("--out", default=None, help="also write the table as CSV")
    return ap.parse_args()


def main():
    args = parse_args()
    X, Y = synthetic_pair(n=args.n, d=args.d, m=args.m, dependence=args.dependence,
                          x_scale=args.x_scale, seed=args.data_seed)
    cfg = SweepConfig(
        epsilons=tuple(float(e) for e in args.epsilons.split(",")),
        replications=args.replications,
        eta_values=tuple(float(e) for e in args.etas.split(",")),
        delta=args.delta,
        nu=args.nu,
        master_seed=args.seed,
    )
    start = time.monotonic()
    rows = run_sweep(cfg, X, Y)
    elapsed = time.monotonic() - start

    print(f"{'eps':>6} {'eta':>5} | {'gamma err%':>12} {'(sd)':>9} | "
          f"{'s err%':>12} {'(sd)':>9} | {'omega err%':>12} {'(sd)':>9}")
    print("-" * 88)
    for r in rows:
        print(f"{r.epsilon:>6g} {r.eta:>5g} | {r.mean_rel_err_gamma:>12.3f} {r.sd_gamma:>9.3f} | "
              f"{r.mean_rel_err_s:>12.3f} {r.sd_s:>9.3f} | "
              f"{r.mean_rel_err_omega:>12.3f} {r.sd_omega:>9.3f}")
    print(f"\n{len(rows)} cells x {args.replications} replications in {elapsed:.1f}s; "
          f"{rows.degenerate_trials} trials had s_bar <= 0")

    if args.out:
        atomic_write_text(args.out, sweep_rows_to_csv(rows))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
