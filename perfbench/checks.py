"""Seeded inputs and output checks for the pi0rand benchmark.

Everything here uses numpy and the standard library only, so the checks are
independent of the code they judge.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# |mean(c) - h(lambda, c)| / se_mean(c) above this fails a Monte Carlo run.
# Fixed before the first run; never widen it to get a pass.
ORACLE_Z_MAX = 5.0

# pi0_hat_lfc is a ratio of counts; allow only rounding from operation order.
PI0_REL_TOL = 1e-12


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def lfc_z_pvalues(seed: int, m: int, pi0: float, ncp_null: float, ncp_alt: float) -> np.ndarray:
    """Z-test LFC p-values ``1 - Phi(ncp + Z)``: round(pi0*m) nulls, then alternatives."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_null = int(round(pi0 * m))
    ncp = np.concatenate([np.full(n_null, ncp_null), np.full(m - n_null, ncp_alt)])
    x = (ncp + rng.standard_normal(m)) / math.sqrt(2.0)
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(x).astype(float)


def write_pvalue_csv(path, p: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("p_lfc\n")
        fh.write("\n".join(map(repr, p.tolist())))
        fh.write("\n")


def analyze_reference(p: np.ndarray, lam: float) -> dict:
    """Recompute what ``analyze`` must report for p at lambda.

    g(c) = lam * #{p >= c} + #{p <= lam * c} only changes at p_j and p_j / lam,
    so its smallest maximizer lies among {0, 1} U {p_j} U {p_j / lam <= 1}.
    """
    q = p / lam
    cands = np.unique(np.concatenate([[0.0, 1.0], p, q[q <= 1.0]]))
    ps = np.sort(p)
    g = lam * (ps.size - np.searchsorted(ps, cands, side="left")) + np.searchsorted(ps, lam * cands, side="right")
    i = int(np.argmax(g))
    n_le = int(np.count_nonzero(p <= lam))
    return {
        "m": int(p.size),
        "candidates": int(cands.size),
        "c0": float(cands[i]),
        "g_max": float(g[i]),
        "pi0_hat_lfc": (1.0 - n_le / p.size) / (1.0 - lam),
    }


def parse_report(stdout: str) -> dict:
    """The ``key = value`` lines that ``analyze`` prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_analyze_report(report: dict, ref: dict) -> list:
    """Compare the printed summary with the reference; returns failure reasons."""
    errors = []
    try:
        got = {
            "m": int(report["m"]),
            "candidates": int(report["candidates"]),
            "c0": float(report["c0"]),
            "g_max": float(report["g_max"]),
            "pi0_hat_lfc": float(report["pi0_hat_lfc"]),
        }
    except (KeyError, ValueError) as exc:
        return [f"analyze report unreadable: {exc!r}"]
    for key in ("m", "candidates", "c0", "g_max"):
        if got[key] != ref[key]:
            errors.append(f"{key} = {got[key]!r}, expected {ref[key]!r}")
    if not math.isclose(got["pi0_hat_lfc"], ref["pi0_hat_lfc"], rel_tol=PI0_REL_TOL):
        errors.append(f"pi0_hat_lfc = {got['pi0_hat_lfc']!r}, expected {ref['pi0_hat_lfc']!r}")
    return errors


def parse_pvalue_rows(text: str) -> np.ndarray:
    """Values of a ``p_lfc`` CSV: '#' lines and the header are skipped."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    if not lines or lines[0] != "p_lfc":
        raise ValueError("missing p_lfc header")
    return np.array(lines[1:], dtype=float)


def check_randomized_rows(p: np.ndarray, out: np.ndarray, c0: float) -> list:
    """Rows with p_j < c0 must be exactly p_j / c0; every row must lie in [0, 1]."""
    if out.shape != p.shape:
        return [f"output has {out.size} rows, expected {p.size}"]
    errors = []
    low = p < c0
    bad = np.flatnonzero(out[low] != p[low] / c0)
    if bad.size:
        j = int(np.flatnonzero(low)[bad[0]])
        errors.append(f"{bad.size} rows with p < c0 differ from p / c0, first at row {j}")
    outside = np.flatnonzero(~((out >= 0.0) & (out <= 1.0)))
    if outside.size:
        errors.append(f"{outside.size} rows outside [0, 1], first at row {int(outside[0])}")
    return errors


def parse_mc_csv(text: str) -> dict:
    """Columns of a ``simulate`` summary CSV as float arrays."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float).reshape(-1, len(header))
    return {name: rows[:, k] for k, name in enumerate(header)}


def check_oracle(c, mean, se_mean, c_expected, h) -> list:
    """Monte Carlo means must sit within ORACLE_Z_MAX standard errors of the exact h."""
    c, mean, se_mean = (np.asarray(a, dtype=float) for a in (c, mean, se_mean))
    if c.shape != np.shape(c_expected) or not np.allclose(c, c_expected, rtol=0.0, atol=1e-12):
        return [f"c grid {c.tolist()} differs from the requested grid"]
    dev = np.abs(mean - np.asarray(h))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se_mean > 0.0, dev / se_mean, np.where(dev == 0.0, 0.0, np.inf))
    k = int(np.argmax(z))
    if not z[k] <= ORACLE_Z_MAX:
        return [f"mean at c={float(c[k])!r} is {z[k]:.2f} standard errors from h (limit {ORACLE_Z_MAX})"]
    return []
