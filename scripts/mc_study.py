#!/usr/bin/env python3
"""Monte Carlo bias/variance/MSE study across the randomization threshold.

Runs the estimator replication study twice, with independent LFC p-values
and with a Gumbel-Hougaard copula (nu=2), and writes one summary CSV per
dependence setting.
"""

import argparse
from pathlib import Path

import numpy as np

from pi0rand.simkit import ModelSpec, SimulationPlan, run_mc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--m", type=int, default=1000)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--pi0", type=float, default=0.7)
    parser.add_argument("--reps", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    if args.workers < 1:
        parser.error(f"--workers must be a positive integer, got {args.workers}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_null = int(round(args.pi0 * args.m))
    groups = ((n_null, -1.0 / np.sqrt(args.n)), (args.m - n_null, 2.5 / np.sqrt(args.n)))
    grid = tuple(np.linspace(0.0, 1.0, 21))

    for dependence, nu in (("independent", 1.0), ("gumbel", 2.0)):
        spec = ModelSpec("z", groups, n=args.n, dependence=dependence, nu=nu)
        plan = SimulationPlan(
            spec=spec, lam=args.lam, c_grid=grid, replicates=args.reps, seed=args.seed,
        )
        summary = run_mc(plan, workers=args.workers)
        path = out_dir / f"mc_{dependence}.csv"
        summary.save(path)
        k = int(np.argmin(summary.mse))
        print(
            f"{dependence}: var(c=1)={summary.variance[-1]:.3e} "
            f"mse argmin c={summary.c_grid[k]:.2f} -> {path}"
        )


if __name__ == "__main__":
    main()
