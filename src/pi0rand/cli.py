"""Command-line front end.

Subcommands:

* ``analyze``  - read a p-value CSV (header ``p_lfc``), pick the data-driven
  threshold c0, and report the estimates.
* ``simulate`` - Monte Carlo bias/variance/MSE study over a threshold grid.
* ``curves``   - exact expectation curve h(lambda, .) or randomized-p-value
  cdf tables as CSV.
* ``cstar``    - exact bias-minimizing threshold for a model configuration.

Exit codes: 0 on success, 2 on usage or validation errors (a ``ValueError``
from the library included) and on an unreadable input or unwritable output
path, 1 on internal errors. Each input is checked once, where it enters: a
flag value that a library object checks is checked only there, and ``main``
names the flag in the library's message. A command reads its input and
checks its flags (a cdf table, which is cheap, is built to check its labels)
before it opens ``--out``, and opens ``--out`` before any other work or print:
a bad flag leaves an existing file as it was, and an unwritable path fails
before the work.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from ._tableio import _csv_text, _open_text, _read_pvalue_csv
from .pi0 import EstimatorConfig, _check_lambda, _estimate_from_count, cstar_search, h_curve, schweder_spjotvoll
from .pvalues import RandomizationRule, randomize_vector
from .simkit import ModelSpec, SimulationPlan, cdf_curves, run_mc
from .statdist import RngStream, _finite_array, _increasing_grid, _positive_int, _probability
from .tuning import select_c0

__all__ = ["main"]

# The flag of each library field the CLI passes through unchecked, by the first word of the library's message.
_FLAGS = {"lambda": "--lambda", "seed": "--seed", "replicates": "--reps", "workers": "--workers", "c_list": "--c-grid",
          "n": "--n", "n1": "--n1", "n2": "--n2", "sigma": "--sigma", "nu": "--nu"}


def _parse_grid(text):
    """Grid flag syntax: 'start:step:stop' or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--c-grid: expected start:step:stop, got {text!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"--c-grid: non-numeric bound in {text!r}") from exc
        steps = (stop - start) / step if step > 0.0 and stop > start else 0.0
        count = round(steps) if np.isfinite(steps) else 0
        if count == 0 or abs(steps - count) > 1e-9 * steps:
            raise ValueError(f"--c-grid: need step > 0, stop > start and a whole number of steps, got {text!r}")
        grid = np.linspace(start, stop, count + 1)
    else:
        try:
            grid = np.array([float(p) for p in text.split(",") if p.strip() != ""])
        except ValueError as exc:
            raise ValueError(f"--c-grid: non-numeric entry in {text!r}") from exc
    return _increasing_grid(grid, "--c-grid")


def _model_spec(args):
    """The ModelSpec of the model flags; it checks n, n1, n2, sigma and nu, which ``main`` names as flags."""
    _probability(args.pi0, "--pi0")
    if args.m < 2:  # ModelSpec would only see the groups
        raise ValueError(f"--m must be >= 2, got {args.m}")
    _finite_array(args.theta_null, "--theta-null")
    _finite_array(args.theta_alt, "--theta-alt")
    n_null = int(round(args.pi0 * args.m))
    groups = tuple(g for g in ((n_null, args.theta_null), (args.m - n_null, args.theta_alt)) if g[0] > 0)
    design = {"model": "z", "n": args.n} if args.model == "z" else {"model": "two_sample", "n1": args.n1, "n2": args.n2}
    return ModelSpec(groups=groups, sigma=args.sigma, dependence=args.copula, nu=args.nu, **design)


_DEFAULT_GRID = {"h": "0:0.05:1", "cdf": "0,0.25,0.5,0.75,1"}  # by --quantity; simulate takes h's


def _cmd_analyze(args):
    lam, variant = args.lam, args.variant.replace("-", "_")
    p = _read_pvalue_csv(args.input)  # checked here, once: at least two values, each in [0, 1]
    cfg = EstimatorConfig(lam, variant)
    rng = RngStream(args.seed, 0)
    with _open_text(args.out) if args.out else contextlib.nullcontext() as out:
        sel = select_c0(p, lam)
        prand = randomize_vector(p, RandomizationRule.constant(sel.c0), rng)
        pi0_rand = schweder_spjotvoll(prand, cfg)
        pi0_lfc = schweder_spjotvoll(p, cfg)
        cond = _estimate_from_count(sel.g_max, p.size, lam, variant)
        lines = [
            f"m = {p.size}",
            f"lambda = {lam!r}",
            f"variant = {variant}",
            f"candidates = {sel.candidates}",
            f"c0 = {sel.c0!r}",
            f"g_max = {sel.g_max!r}",
            f"conditional_expectation_at_c0 = {cond!r}",
            f"pi0_hat_at_c0 = {pi0_rand!r}",
            f"pi0_hat_lfc = {pi0_lfc!r}",
        ]
        print("\n".join(lines))
        if out:
            meta = {"kind": "randomized", "lambda": repr(lam), "c0": repr(sel.c0), "seed": args.seed}
            out.writelines(_csv_text(meta, ["p_lfc"], [prand]))
    return 0


def _cmd_simulate(args):
    plan = SimulationPlan(
        spec=_model_spec(args),
        lam=args.lam,
        c_grid=tuple(_parse_grid(args.c_grid)),
        replicates=args.reps,
        seed=args.seed,
        estimator_variant=args.variant.replace("-", "_"),
    )
    workers = _positive_int(args.workers, "workers")  # run_mc checks it too, but only once the output is open
    with _open_text(args.out) as out:
        out.write(run_mc(plan, workers=workers).to_csv_string())
    return 0


def _cmd_curves(args):
    lam = _check_lambda(args.lam)  # the cdf tables never read lambda, so only this check would catch it
    spec = _model_spec(args)
    cs = _parse_grid(_DEFAULT_GRID[args.quantity] if args.c_grid is None else args.c_grid)
    if args.quantity == "h":
        table = functools.partial(h_curve, spec.population(), lam, cs)
    else:
        t = np.linspace(0.0, 1.0, _positive_int(args.t_points, "--t-points"))
        built = cdf_curves(spec.marginal_law(args.theta_null), cs, t)  # cheap, and it checks the labels
        table = lambda: built
    with _open_text(args.out) as out:
        out.write(table().to_csv_string())
    return 0


def _cmd_cstar(args):
    result = cstar_search(_model_spec(args).population(), args.lam)
    print(f"c_star = {result.c_star!r}")
    print(f"h_min = {result.h_min!r}")
    return 0


def _add_model_flags(sub):
    sub.add_argument("--model", choices=("z", "two-sample"), default="z")
    sub.add_argument("--m", type=int, default=1000, help="number of hypotheses")
    sub.add_argument("--n", type=int, default=50, help="Z model sample size")
    sub.add_argument("--n1", type=int, default=10, help="two-sample model: size of the first sample")
    sub.add_argument("--n2", type=int, default=10, help="two-sample model: size of the second sample")
    sub.add_argument("--sigma", type=float, default=1.0, help="two-sample model: standard deviation (z model: 1 only)")
    sub.add_argument("--pi0", type=float, default=0.7, help="fraction of true nulls")
    sub.add_argument("--theta-null", type=float, default=0.0, help="effect of the null group")
    sub.add_argument("--theta-alt", type=float, default=0.5, help="effect of the alternative group")
    sub.add_argument("--copula", choices=("independent", "gumbel"), default="independent")
    sub.add_argument("--nu", type=float, default=2.0, help="Gumbel copula parameter")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pi0rand",
        description="Randomized p-values and tuning for the Schweder-Spjotvoll estimator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="select c0 from a p-value CSV and estimate pi0")
    analyze.add_argument("input", help="CSV with a p_lfc column")
    analyze.add_argument("--lambda", dest="lam", type=float, default=0.5)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--variant", choices=("plain", "storey-plus"), default="plain")
    analyze.add_argument("--out", help="write the randomized p-values to this CSV")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = subs.add_parser("simulate", help="Monte Carlo study over a threshold grid")
    _add_model_flags(simulate)
    simulate.add_argument("--lambda", dest="lam", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--variant", choices=("plain", "storey-plus"), default="plain")
    simulate.add_argument("--reps", type=int, default=10_000)
    simulate.add_argument("--c-grid", default=_DEFAULT_GRID["h"])
    simulate.add_argument("--workers", type=int, default=1)
    simulate.add_argument("--out", help="output CSV path (default stdout)")
    simulate.set_defaults(func=_cmd_simulate)

    curves = subs.add_parser("curves", help="exact h or cdf curve tables")
    _add_model_flags(curves)
    curves.add_argument("--lambda", dest="lam", type=float, default=0.5)
    curves.add_argument("--quantity", choices=("h", "cdf"), default="h")
    curves.add_argument("--c-grid", help=f"default {_DEFAULT_GRID['h']}, or {_DEFAULT_GRID['cdf']} for --quantity cdf")
    curves.add_argument("--t-points", type=int, default=1001)
    curves.add_argument("--out", help="output CSV path (default stdout)")
    curves.set_defaults(func=_cmd_curves)

    cstar = subs.add_parser("cstar", help="exact bias-minimizing threshold")
    _add_model_flags(cstar)
    cstar.add_argument("--lambda", dest="lam", type=float, default=0.5)
    cstar.set_defaults(func=_cmd_cstar)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:  # a check of the CLI, or of the library under its field name
        field, space, rest = str(exc).partition(" ")
        if rest.startswith("must "):
            field = _FLAGS.get(field, field)
        print(f"error: {field}{space}{rest}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # an unreadable input or unwritable output path
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
