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
import gzip  # noqa: F401  np.loadtxt's DataSource imports it on first use; loaded with the module instead
import os
import re
import stat
import sys

import numpy as np

from .pi0 import EstimatorConfig, _check_lambda, _csv_text, _estimate_from_count, _open_text, _part_count
from .pi0 import _schweder_spjotvoll, _workers
from .pi0 import cstar_search, h_curve
from .pvalues import RandomizationRule, _randomize_vector
from .simkit import ModelSpec, SimulationPlan, cdf_curves, run_mc
from .statdist import RngStream, _finite_array, _increasing_grid, _positive_int, _probability
from .tuning import _select_c0

__all__ = ["main"]

# The suffixes that numpy's DataSource opens through a decompressor rather than as text.
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# The flag of each library field the CLI passes through unchecked, by the first word of the library's message.
_FLAGS = {"lambda": "--lambda", "seed": "--seed", "replicates": "--reps", "workers": "--workers", "c_list": "--c-grid",
          "n": "--n", "n1": "--n1", "n2": "--n2", "sigma": "--sigma", "nu": "--nu"}


def _part_lines(raw, start):
    """The line, counted from ``start``, where each part of the rows of ``raw[start:]`` begins, then None: the parts
    of ``_part_count``, each ending at the first line end past its share of the text.

    One part when an empty line falls before the last part, since numpy's ``max_rows`` does not count it while
    ``skiprows`` does, or when the last part would begin with no row. Line ends are counted on the UTF-8 bytes.
    """
    if _part_count(len(raw) - start) == 1:  # a row takes at least one character
        return [0, None]
    text = np.frombuffer(raw.encode(), np.uint8)[len(raw[:start].encode()) - 1:]  # from the header's line end
    line_end = text == 10
    parts = _part_count(np.count_nonzero(line_end) - 1)
    ends = [at + int(np.argmax(line_end[at:])) for at in ((text.size - 1) * i // parts for i in range(1, parts))]
    if ends:
        cut = ends[-1] + 1  # where the last part begins
        empty = (line_end[:cut - 1] & line_end[1:cut]).any()  # "\n\n", or "\n\r\n" below
        empty = empty or "\r" in raw and (line_end[:cut - 2] & (text[1:cut - 1] == 13) & line_end[2:cut]).any()
        if empty or not line_end[ends].all() or len(set(ends)) < len(ends) or cut == text.size or text[cut] in (10, 13):
            ends = []
    return [0, *(int(np.count_nonzero(line_end[1:end + 1])) for end in ends), None]


def _read_pvalue_csv(path):
    """The p_lfc column of a CSV.

    numpy's C reader takes a plain file, in the parts of ``_part_lines``, one pass in Python any other, and only a fault
    walks the lines, to name its own.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            raw = fh.read().removeprefix("\ufeff")  # the byte-order mark of a spreadsheet's "CSV UTF-8"
        except UnicodeDecodeError as exc:  # read() decodes the whole file in one call, so exc.object is all of it
            row = exc.object.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: row {row}: not UTF-8 text") from None
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # a pipe could not be read a second time
    header_no, start, header = 0, 0, ""
    while not header or header[0] == "#":  # the header is the first line that strips to neither "" nor a comment
        if start > len(raw):
            raise ValueError(f"{path}: empty input")
        end = raw.find("\n", start)
        end = len(raw) if end < 0 else end
        header_no, header, start = header_no + 1, raw[start:end].strip(), end + 1
    columns = [col.strip() for col in header.split(",")]
    if "p_lfc" not in columns:
        raise ValueError(f"{path}: row {header_no}: header must contain a p_lfc column")
    col = columns.index("p_lfc")
    full_path = os.path.abspath(path)  # never read as a URL by numpy's DataSource
    plain = (regular and not full_path.endswith(_DECOMPRESSED)
             and ("\r" not in raw or raw.count("\r") == raw.count("\r\n"))  # numpy would end a line at a lone CR too
             and raw.find("#", start) < 0  # comment lines are Python's to skip
             and all(raw.find(ch, start) < 0 for ch in "\x1c\x1d\x1e\x1f")  # numpy strips them off a field, float() not
             and re.compile(r"[^\r\n]").search(raw, start) is not None)  # numpy warns on a file of no rows
    if plain:
        bounds = _part_lines(raw, start)
        load = functools.partial(np.loadtxt, full_path, delimiter=",", comments=None, encoding="utf-8", ndmin=2)
        parts = [functools.partial(load, skiprows=header_no + a, max_rows=None if b is None else b - a)
                 for a, b in zip(bounds, bounds[1:])]
        # Suppressed: numpy rejects the text, or cannot open the file again. Workers read parts 1 on, the caller part 0.
        with contextlib.suppress(ValueError, OSError), _workers(parts[1:]) as results:
            tables = [parts[0](), *(result() for result in results)]
            if all(table.shape[1] == len(columns) for table in tables):
                values = np.concatenate([table[:, col] for table in tables])
                if len(values) >= 2 and np.all((values >= 0.0) & (values <= 1.0)):
                    return values
    lines = raw.replace("\r\n", "\n").split("\n")  # numpy did not take the file: one pass in Python
    del lines[:header_no]
    rows = [s for s in map(str.strip, lines) if s and s[0] != "#"]
    with contextlib.suppress(ValueError):
        cells = rows
        if len(columns) > 1:  # a row with the wrong field count gets a cell that float() rejects
            cells = [fields[col] if len(fields) == len(columns) else "" for fields in (r.split(",") for r in rows)]
        values = np.fromiter(map(float, cells), float, len(cells))  # a one-column row with a comma fails too
        if len(values) >= 2 and np.all((values >= 0.0) & (values <= 1.0)):
            return values
    for line_no, row in enumerate(map(str.strip, lines), header_no + 1):  # a fault: walk the lines and raise the first
        if not row or row[0] == "#":
            continue
        fields = row.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"{path}: row {line_no}: expected {len(columns)} fields")
        try:
            v = float(fields[col])
        except ValueError as exc:
            raise ValueError(f"{path}: row {line_no}: p_lfc value {fields[col]!r} is not a number") from exc
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{path}: row {line_no}: p_lfc value {v!r} outside [0, 1]")
    raise ValueError(f"{path}: need at least two p-values, got {len(rows)}")


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
        sel = _select_c0(p, lam)
        prand = _randomize_vector(p, RandomizationRule.constant(sel.c0), rng)
        pi0_rand = _schweder_spjotvoll(prand, cfg)
        pi0_lfc = _schweder_spjotvoll(p, cfg)
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
    sub.add_argument("--n1", type=int, default=10)
    sub.add_argument("--n2", type=int, default=10)
    sub.add_argument("--sigma", type=float, default=1.0)
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
