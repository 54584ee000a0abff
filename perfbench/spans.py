"""Self times and per-layer metrics from the spans of one traced invocation.

A span is (name, start, end, parent); ``parent`` is the index of the span
that was open when it started, or -1 at the root. ``n`` is the number of
items the call handled (array size for the law quantiles, 1 otherwise).
"""

from __future__ import annotations

import numpy as np

MODULES = ("statdist", "pvalues", "pi0", "tuning", "simkit", "cli")
ROOT = "cli.main"

# Metric -> span name; every count is divided by the replicates of the run.
PER_REP_COUNTS = {
    "statdist.RngStream.calls_per_rep": "statdist.RngStream",
    "pvalues.randomize_vector.calls_per_rep": "pvalues.randomize_vector",
    "pvalues.PValueVector.calls_per_rep": "pvalues.PValueVector",
    "pi0.schweder_spjotvoll.calls_per_rep": "pi0.schweder_spjotvoll",
}
SELF_TIMES = (
    "statdist.RngStream",
    "statdist.noncentral_t_quantile",
    "pvalues.randomize_vector",
    "pvalues.PValueVector",
    "pvalues.law_quantile",
    "pi0.schweder_spjotvoll",
    "tuning.candidate_set",
    "tuning.g_values",
    "tuning.select_c0",
    "simkit.gen_lfc_pvalues",
    "simkit.gumbel_uniforms",
    "simkit.run_mc",
)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children of one parent run one after another on one thread, so they
    never overlap each other; each is clipped to its parent's interval.
    """
    start, end, parent = np.asarray(start, float), np.asarray(end, float), np.asarray(parent, int)
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    covered = np.clip(np.minimum(end[child], end[up]) - np.maximum(start[child], start[up]), 0.0, None)
    return (end - start) - np.bincount(up, weights=covered, minlength=start.size)


def layer_metrics(names, name, start, end, parent, n, reps: int) -> dict:
    """Per-layer metrics of one invocation whose root span is ``cli.main``."""
    name, parent = np.asarray(name, int), np.asarray(parent, int)
    start, end = np.asarray(start, float), np.asarray(end, float)
    ids = {nm: i for i, nm in enumerate(names)}
    own = self_times(start, end, parent)
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    items = np.bincount(name, weights=np.asarray(n, float), minlength=k)

    def per_name(arr, nm):
        return float(arr[ids[nm]]) if nm in ids else 0.0

    roots = np.flatnonzero((parent < 0) & (name == ids.get(ROOT, -1)))
    if roots.size != 1:
        raise ValueError(f"expected one {ROOT} root span, found {roots.size}")
    root = int(roots[0])
    main_s = end[root] - start[root]
    kids = np.flatnonzero(parent == root)

    out = {metric: per_name(calls, nm) / reps for metric, nm in PER_REP_COUNTS.items()}
    out.update({f"{nm}.self_s": per_name(self_s, nm) for nm in SELF_TIMES})
    out["pvalues.law_quantile.values_per_rep"] = per_name(items, "pvalues.law_quantile") / reps
    out["tuning.candidate_set.calls"] = per_name(calls, "tuning.candidate_set")
    out["cli.parse_s"] = float(start[kids].min() - start[root]) if kids.size else main_s
    out["cli.write_s"] = float(end[root] - end[kids].max()) if kids.size else 0.0
    module_of = np.array([nm.split(".", 1)[0] for nm in names])
    for mod in MODULES:
        out[f"{mod}.self_frac"] = float(self_s[module_of == mod].sum() / main_s)
    return out
