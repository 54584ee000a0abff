"""Data-driven choice of the randomization threshold from realized p-values.

Given an observed LFC p-value vector, the conditional expectation of the
estimator over the randomization noise is

    E[pi0_hat(lambda, c) | x] = (1 - g(lambda, c) / m) / (1 - lambda),

where ``g(lambda, c) = sum_j (lambda * 1{p_j >= c} + 1{p_j <= lambda*c})``
and the second indicator is 0 at c = 0, where every p-value is replaced.
Minimizing the conditional expectation is therefore the same as maximizing
g. Since g only changes value at the points {p_j} and {p_j / lambda}, it
suffices to evaluate it on that finite candidate set (clipped to [0, 1] and
extended by the endpoints); on the open interval between two adjacent
candidates g never exceeds the value at the right one. ``select_c0`` cuts
the sorted candidates into blocks of isqrt(n) and evaluates g only in the
blocks, from a to b, whose bound lambda * #{p >= a} + #{p <= lambda*b} reaches
the largest g at a block's first point; this is exact, as g on [a, b] is at
most that bound, float64 rounding included, so no maximizer is skipped.

Each function takes the observed p-values as a 1-d array (or a list), which it
checks to be non-empty and in [0, 1].
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

import numpy as np

from .pi0 import EstimatorConfig, _check_lambda, _estimate_from_count, _grid_counts, _grid_thresholds
from .statdist import _probabilities, _probability, _pvalue_array

__all__ = [
    "SelectionResult",
    "g_values",
    "candidate_set",
    "select_c0",
    "conditional_expectation",
]


def g_values(p_lfc, lam: float, cs) -> np.ndarray:
    """Vectorized g over many thresholds via binary search on sorted p."""
    return _g_values(np.sort(_pvalue_array(p_lfc)), _check_lambda(lam), _probabilities(cs, "thresholds"))


def _g_values(x_sorted: np.ndarray, lam: float, cs) -> np.ndarray:
    """g for sorted p-values, lambda and thresholds that are already checked."""
    n_le, n_ge = _grid_counts(x_sorted, *_grid_thresholds(lam, cs))
    return lam * n_ge + n_le


def _candidate_points(x_sorted: np.ndarray, lam: float) -> np.ndarray:
    """Sorted, deduplicated {0, 1} U {p_j} U {p_j / lambda <= 1}, from the sorted p-values."""
    q = x_sorted / lam
    runs = [[0.0], x_sorted, [1.0], q[: q.searchsorted(1.0, side="right")]]
    points = np.sort(np.concatenate(runs), kind="stable")  # two sorted runs: one merge
    points = points[np.append(True, points[1:] != points[:-1])]  # the first of each run of equal points
    points[0] = 0.0  # the endpoint, even when some p_j is -0.0
    return points


def candidate_set(p_lfc, lam: float) -> np.ndarray:
    """Build {p_j} and {p_j / lambda} clipped to [0, 1], plus the endpoints, sorted and deduplicated."""
    return _candidate_points(np.sort(_pvalue_array(p_lfc)), _check_lambda(lam))


class SelectionResult(NamedTuple):
    c0: float
    g_max: float
    candidates: int


def select_c0(p_lfc, lam: float = 0.5) -> SelectionResult:
    """Pick the smallest maximizer of g over the candidate set.

    Pure function of ``(p_lfc, lambda)``; ``g_max`` is g at the selected
    threshold, and ``candidates`` is the size of the candidate set.
    """
    lam, x = _check_lambda(lam), np.sort(_pvalue_array(p_lfc))
    points = _candidate_points(x, lam)
    n, k = points.size, isqrt(points.size)
    # Blocks of k candidates, a first and b last: on [a, b], g <= lam * #{p >= a} + #{p <= lam*b} (in float64 too).
    n_le, n_ge = _grid_counts(x, *_grid_thresholds(lam, points[::k]))
    b_le, _ = _grid_counts(x, *_grid_thresholds(lam, np.append(points[k - 1 :: k], points[-1])[: n_ge.size]))
    kept = np.flatnonzero(lam * n_ge + b_le >= np.max(lam * n_ge + n_le))
    idx = (kept[:, None] * k + np.arange(k)).ravel()
    cs = points[idx[idx < n]]  # the kept blocks in ascending order, so argmax finds the smallest maximizer
    g = _g_values(x, lam, cs)
    i = int(np.argmax(g))
    return SelectionResult(float(cs[i]), float(g[i]), points.size)


def conditional_expectation(p_lfc, lam: float, c: float, variant: str = "plain") -> float:
    """Conditional expectation of the estimator given the observed p-values."""
    values = _pvalue_array(p_lfc)
    g = float(_g_values(np.sort(values), _check_lambda(lam), _probability(c, "c")))
    EstimatorConfig(lam, variant)  # reuse its validation
    return _estimate_from_count(g, values.size, lam, variant)
