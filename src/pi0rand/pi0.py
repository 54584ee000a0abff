"""Schweder-Spjotvoll estimation of the proportion of true nulls.

The plain estimator is ``(1 - Fhat(lambda)) / (1 - lambda)`` with ``Fhat``
the ecdf of the marginal p-values; the Storey-plus variant adds the
conservative correction ``1 / (m * (1 - lambda))``. Estimates may exceed
one and are deliberately not clipped, since that behavior is informative.

For a population of hypotheses with known marginal laws of the LFC
p-values, the expected ecdf of the randomized p-values at threshold c is

    E[Fhat(lambda)] = (1/m) * sum_j [ lambda * (1 - F_j(c)) + F_j(lambda*c) ],

from which the exact expectation curve ``h(lambda, c)`` of the estimator
and its minimizing threshold ``c_star`` follow. ``h`` depends on the
marginals only, never on the dependence structure. Under independence the
variance is exact too, since N = #{p_rand <= lambda} is then a sum of
binomials.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._tableio import _csv_text, _open_text
from .pvalues import _randomized_cdf
from .statdist import _increasing_grid, _positive_int, _probability, _pvalue_array

__all__ = [
    "EstimatorConfig",
    "PopulationSpec",
    "CurveTable",
    "CStarResult",
    "ecdf",
    "schweder_spjotvoll",
    "h_value",
    "h_curve",
    "cstar_search",
]

ESTIMATOR_VARIANTS = ("plain", "storey_plus")


def _check_lambda(lam):
    """``lam`` as a float in the open interval (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    return float(lam)


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning parameter lambda in (0, 1) and estimator variant."""

    lam: float = 0.5
    variant: str = "plain"

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.variant not in ESTIMATOR_VARIANTS:
            raise ValueError(f"variant must be one of {ESTIMATOR_VARIANTS}")


@dataclass(frozen=True)
class PopulationSpec:
    """Groups of hypotheses sharing a marginal law, ``(count, law)`` each."""

    groups: tuple

    def __post_init__(self):
        groups = tuple((_positive_int(count, "group count"), law) for count, law in self.groups)
        if not groups:
            raise ValueError("groups must be non-empty")
        if sum(count for count, _ in groups) < 2:
            raise ValueError("need m >= 2 hypotheses")
        object.__setattr__(self, "groups", groups)

    @property
    def m(self) -> int:
        return sum(count for count, _ in self.groups)

    def digest(self) -> str:
        return hashlib.sha1(repr(self.groups).encode()).hexdigest()[:12]


@dataclass
class CurveTable:
    """Tabulated curve(s) over a strictly increasing abscissa in [0, 1].

    Plain quantity tables (h, variance, mse) carry a single ``value``
    column and serialize with header ``c,value``; cdf tables use abscissa
    ``t`` with one column per randomization constant. Metadata goes into
    leading ``#`` comment lines.
    """

    x: np.ndarray
    values: dict
    metadata: dict = field(default_factory=dict)
    x_name: str = "c"

    def __post_init__(self):
        x = _increasing_grid(self.x, self.x_name)
        values = {}
        for name, col in self.values.items():
            col = np.asarray(col, dtype=float)
            if col.shape != x.shape:
                raise ValueError(f"column {name!r} does not match the abscissa")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {name!r} must be finite")
            values[name] = col
        self.x = x
        self.values = values

    def column(self, name: str = "value") -> np.ndarray:
        return self.values[name]

    def to_csv_string(self) -> str:
        return "".join(_csv_text(self.metadata, [self.x_name, *self.values], [self.x, *self.values.values()]))

    def save(self, path) -> None:
        with _open_text(path) as fh:
            fh.write(self.to_csv_string())


def ecdf(p, t) -> float:
    """Right-continuous empirical cdf of the p-values, ``#{p_j <= t} / m``."""
    if np.isnan(t := float(t)):
        raise ValueError("t must be a number, got nan")
    values = _pvalue_array(p)
    return int(np.count_nonzero(values <= t)) / values.size


def _estimate_from_count(k, m, lam, variant):
    """Estimator value when k of m p-values (k may be expected, or an array) are <= lambda."""
    est = (1.0 - k / m) / (1.0 - lam)
    if variant == "storey_plus":
        est += 1.0 / (m * (1.0 - lam))
    return est


def _grid_thresholds(lam: float, c: np.ndarray, cdf=lambda t: t):
    """The thresholds of ``_grid_counts`` for ``#{p <= lambda*c}`` (-inf at c = 0: nothing) and ``#{p >= c}``.

    Given the cdf F of p = Q(v), they are those on v instead: Q(v) <= t exactly when v <= F(t).
    """
    return np.where(c > 0.0, cdf(lam * c), -np.inf), cdf(c)


def _grid_counts(x_sorted: np.ndarray, low: np.ndarray, up: np.ndarray):
    """Per threshold pair, ``#{x <= low}`` and ``#{x >= up}``; a low of -inf counts nothing."""
    return x_sorted.searchsorted(low, side="right"), x_sorted.size - x_sorted.searchsorted(up, side="left")


def schweder_spjotvoll(p, cfg: EstimatorConfig) -> float:
    """Estimate the proportion of true nulls from marginal p-values."""
    values = _pvalue_array(p)
    if values.size < 2:
        raise ValueError("the estimator needs m >= 2 p-values")
    return _estimate_from_count(int(np.count_nonzero(values <= cfg.lam)), values.size, cfg.lam, cfg.variant)


def _expected_ecdf(spec: PopulationSpec, lam: float, c):
    """E[Fhat(lambda)] at each threshold of ``c`` (a float or an array), as in the module docstring."""
    ef = np.zeros_like(c, dtype=float)
    for count, law in spec.groups:
        ef += count * _randomized_cdf(lam, c, law)
    return ef / spec.m


def _estimator_variance(spec: PopulationSpec, lam: float, c):
    """Exact variance of the estimator (either variant) at each threshold of ``c`` under independence.

    The indicators ``1{p_rand <= lambda}`` are then independent, so N is a sum of Binomial(m_g, q_g) with q_g the
    randomized cdf at lambda of group g, and Var(N) = sum_g m_g q_g (1 - q_g).
    """
    var_n = np.zeros_like(c, dtype=float)
    for count, law in spec.groups:
        q = _randomized_cdf(lam, c, law)
        var_n += count * q * (1.0 - q)
    return var_n / (spec.m * (1.0 - lam)) ** 2


def h_value(spec: PopulationSpec, lam: float, c: float) -> float:
    """Exact expectation of the estimator at threshold c."""
    return (1.0 - float(_expected_ecdf(spec, _check_lambda(lam), _probability(c, "c")))) / (1.0 - lam)


def h_curve(spec: PopulationSpec, lam: float, c_grid) -> CurveTable:
    """Tabulate ``c -> h(lambda, c)`` over a strictly increasing grid."""
    grid, lam = _increasing_grid(c_grid, "c_grid"), _check_lambda(lam)
    h = (1.0 - _expected_ecdf(spec, lam, grid)) / (1.0 - lam)
    meta = {"quantity": "h", "lambda": repr(float(lam)), "spec": spec.digest()}
    return CurveTable(grid, {"value": h}, metadata=meta)


class CStarResult(NamedTuple):
    c_star: float
    h_min: float


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, xtol: float = 1e-9):
    """Golden-section minimum of f on [lo, hi]; ties drift left."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def cstar_search(spec: PopulationSpec, lam: float) -> CStarResult:
    """Minimize ``h(lambda, .)`` over [0, 1].

    A grid of step 1e-3 brackets the minimum; golden-section refinement
    then narrows it down to 1e-9. Ties resolve to the smallest minimizer,
    so flat stretches return their left end.
    """
    grid = np.linspace(0.0, 1.0, 1001)
    h = h_curve(spec, lam, grid).column()
    i = int(np.argmin(h))
    best_c, best_h = float(grid[i]), float(h[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    x, fx = _golden_section(lambda c: h_value(spec, lam, c), lo, hi)
    if fx < best_h or (fx == best_h and x < best_c):
        best_c, best_h = float(x), float(fx)
    return CStarResult(best_c, best_h)
