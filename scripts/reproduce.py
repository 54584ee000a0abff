#!/usr/bin/env python3
"""Reproduce the paper's three experiments as CSV tables in --out-dir.

1. Bias, variance and MSE by Monte Carlo, with independent p-values and under a Gumbel copula
   (nu = 2): `pi0rand simulate`, which runs first and checks the flags before any file is written.
   For independent p-values, the exact MSE at c* and at c = 1 is printed beside the Monte Carlo one.
2. The exact curve h(lambda, c) and its minimizer c*, nulls below the LFC and at it: `curves`, `cstar`.
3. The data-driven c0 on one simulated dataset: the g curve and the ecdf of its p-values.
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from pi0rand import cli
from pi0rand.pi0 import CurveTable, EstimatorConfig, _estimator_variance, cstar_search, h_value, schweder_spjotvoll
from pi0rand.pvalues import RandomizationRule, randomize_vector
from pi0rand.simkit import ModelSpec, gen_lfc_pvalues
from pi0rand.statdist import RngStream
from pi0rand.tuning import candidate_set, g_values, select_c0

# The study, in Python floats: numpy 2 would write a scalar into the argv as np.float64(...).
M, N, PI0, LAM = 1000, 50, 0.7, 0.5
THETA_NULL, THETA_ALT = -1.0 / math.sqrt(N), 2.5 / math.sqrt(N)
STUDY = ["--m", M, "--n", N, "--pi0", PI0, "--lambda", LAM, f"--theta-alt={THETA_ALT!r}"]


def pi0rand(*argv):
    """Run one `pi0rand` command; exit with its code if it fails (it has printed why)."""
    code = cli.main([str(arg) for arg in argv])
    if code:
        raise SystemExit(code)


def _mse_line(spec, rows):
    """The exact MSE of the estimator at c* and at c = 1, each beside the Monte Carlo MSE at the nearest grid point."""
    pop, parts = spec.population(), []
    for name, c in (("c*", cstar_search(pop, LAM).c_star), ("c", 1.0)):
        mse = float(_estimator_variance(pop, LAM, c)) + (h_value(pop, LAM, c) - spec.pi0) ** 2
        row = min(rows, key=lambda r: abs(float(r["c"]) - c))
        parts.append(f"at {name}={c:.4f} {mse:.3e} (Monte Carlo at c={float(row['c']):.2f}: {float(row['mse']):.3e})")
    return "exact mse " + ", ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", dest="out", type=Path, default=Path("results"))
    parser.add_argument("--reps", type=int, default=10_000, help="Monte Carlo replicates")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir: {exc.strerror}")

    n_null = round(PI0 * M)
    spec = ModelSpec("z", ((n_null, THETA_NULL), (M - n_null, THETA_ALT)), n=N)
    for copula in ("independent", "gumbel"):
        path = out / f"mc_{copula}.csv"
        pi0rand("simulate", *STUDY, f"--theta-null={THETA_NULL!r}", "--copula", copula, "--nu", 2.0,
                "--reps", args.reps, "--seed", args.seed, "--workers", args.workers, "--out", path)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        best = min(rows, key=lambda row: float(row["mse"]))
        print(f"{copula}: var(c=1)={float(rows[-1]['variance']):.3e} mse argmin c={float(best['c']):.2f} -> {path}")
        if copula == "independent":  # the paper's MSE claim, exact: independent indicators make N a sum of binomials
            print(f"{copula}: {_mse_line(spec, rows)}")

    for name, theta_null in (("interior_null", THETA_NULL), ("lfc_null", 0.0)):
        path = out / f"h_curve_{name}.csv"
        model = [*STUDY, f"--theta-null={theta_null!r}"]
        pi0rand("curves", *model, "--c-grid", "0:0.001:1", "--out", path)
        print(f"{name} -> {path}")
        pi0rand("cstar", *model)

    p = gen_lfc_pvalues(spec, RngStream(args.seed, 0))
    cands = candidate_set(p, LAM)
    g_meta = {"quantity": "g", "lambda": repr(LAM), "seed": args.seed}
    CurveTable(cands, {"value": g_values(p, LAM, cands)}, metadata=g_meta).save(out / "g_curve.csv")
    sel = select_c0(p, LAM)
    prand = randomize_vector(p, RandomizationRule.constant(sel.c0), RngStream(args.seed, 1))
    for kind, values in (("lfc", p), ("randomized", prand)):
        xs, counts = np.unique(values, return_counts=True)
        ecdf = {"value": np.cumsum(counts) / values.size}
        CurveTable(xs, ecdf, metadata={"quantity": "ecdf", "kind": kind}, x_name="t").save(out / f"ecdf_{kind}.csv")

    cfg = EstimatorConfig(LAM, "plain")
    print(f"candidates = {cands.size}, c0 = {sel.c0:.4f} (g_max = {sel.g_max})")
    print(f"pi0_hat at c0 = {schweder_spjotvoll(prand, cfg):.4f}, "
          f"from the LFC p-values = {schweder_spjotvoll(p, cfg):.4f}, true pi0 = {spec.pi0}")


if __name__ == "__main__":
    main()
