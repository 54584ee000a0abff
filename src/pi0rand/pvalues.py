"""LFC-based and randomized p-values with their exact marginal laws.

A marginal test calibrated at a least favorable configuration (LFC) yields
the p-value ``p_lfc = 1 - F0(T)``, where ``F0`` is the null cdf of the test
statistic. The randomized p-value mixes that with fresh uniform noise
through a threshold ``c`` in [0, 1]:

    p_rand = U            if p_lfc >= c,
    p_rand = p_lfc / c    if p_lfc <  c,

with ``c = 0`` returning ``U`` by convention and ``c = 1`` returning
``p_lfc`` almost surely. The threshold may itself be random (drawn once per
hypothesis, independently of the data), which generalizes the constant rule.

This module also carries the closed-form cdf of the randomized p-value

    P(p_rand <= t) = t * (1 - F(c)) + F(t * c),

where ``F`` is the marginal cdf of ``p_lfc`` under the true parameter, plus
numeric diagnostics for the validity and stochastic-order conditions that
the constant/random threshold rules satisfy under convex or concave ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as _special

from .statdist import (
    RngStream,
    _match_input,
    _nct_inverse,
    std_normal_cdf,
    std_normal_quantile,
    student_t_cdf,
    student_t_quantile,
)

__all__ = [
    "PValueVector",
    "RandomizationRule",
    "ZTestLaw",
    "TwoSampleTLaw",
    "MarginalLaw",
    "ValidityReport",
    "OrderReport",
    "lfc_pvalue_z",
    "lfc_pvalue_t",
    "randomize",
    "randomize_vector",
    "randomized_cdf",
    "validity_diagnostic",
    "stochastic_order_diagnostic",
]

P_VALUE_KINDS = ("lfc", "randomized", "external")
_TINY = np.finfo(float).tiny


def _unit_interval(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class PValueVector:
    """Ordered collection of m >= 2 p-values with a provenance tag."""

    values: np.ndarray
    kind: str = "external"

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a p-value vector needs at least two entries")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("p-values must lie in [0, 1]")
        if self.kind not in P_VALUE_KINDS:
            raise ValueError(f"kind must be one of {P_VALUE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class RandomizationRule:
    """Threshold rule deciding when the uniform replaces the LFC p-value.

    ``constant(c)`` is the basic rule with a fixed threshold. The random
    variants draw the threshold R once per hypothesis: ``point_mass(c)``
    is degenerate at c (its outputs are bitwise identical to the constant
    rule) and ``uniform(a, b)`` draws R from Uni[a, b] with
    0 <= a <= b <= 1.
    """

    variant: str
    low: float
    high: float

    def __post_init__(self):
        if self.variant not in ("constant", "point_mass", "uniform"):
            raise ValueError(f"unknown rule variant {self.variant!r}")
        if not (0.0 <= self.low <= self.high <= 1.0):
            raise ValueError("rule support must satisfy 0 <= low <= high <= 1")
        if self.variant in ("constant", "point_mass") and self.low != self.high:
            raise ValueError(f"{self.variant} rule needs low == high")

    @classmethod
    def constant(cls, c: float) -> "RandomizationRule":
        return cls("constant", c, c)

    @classmethod
    def point_mass(cls, c: float) -> "RandomizationRule":
        return cls("point_mass", c, c)

    @classmethod
    def uniform(cls, a: float, b: float) -> "RandomizationRule":
        return cls("uniform", a, b)

    @property
    def is_random(self) -> bool:
        return self.variant != "constant"

    def thresholds(self, rng: Union[RngStream, None], size):
        """Per-hypothesis thresholds; consumes ``size`` draws only if uniform."""
        if self.variant == "uniform":
            if rng is None:
                raise ValueError("the uniform rule needs an RngStream to draw R")
            span = self.high - self.low
            return self.low + span * rng.generator.random(size)
        if size is None:
            return self.low
        return np.full(size, self.low)


class MarginalLaw:
    """Law of an LFC p-value: its cdf and quantile on [0, 1].

    Both map 0 to 0 and 1 to 1 and are the identity at the LFC, where the
    subclass's ``_effect`` is 0; elsewhere the subclass supplies them on
    (0, 1) through ``_cdf_inner`` and ``_quantile_inner``. Scalars in give
    floats out.
    """

    @property
    def is_null(self) -> bool:
        return self._effect <= 0.0

    def cdf(self, u):
        return self._mapped(u, "u", self._cdf_inner)

    def quantile(self, v):
        return self._mapped(v, "v", self._quantile_inner)

    def _mapped(self, x, name, inner):
        arr = _unit_interval(x, name)
        if self._effect == 0.0:
            return _match_input(arr.astype(float, copy=True), x)
        out = np.where(arr >= 1.0, 1.0, 0.0)  # the endpoints, pinned to +0.0 and 1.0
        mid = (arr > 0.0) & (arr < 1.0)
        if np.any(mid):
            out[mid] = inner(arr[mid])
        return _match_input(out, x)


@dataclass(frozen=True)
class ZTestLaw(MarginalLaw):
    """Marginal law of the one-sided Z-test LFC p-value.

    The law depends on the effect and the sample size only through
    ``theta_scaled = theta * sqrt(n)``; its cdf is
    ``u -> Phi(Phi^{-1}(u) + theta_scaled)``.
    """

    theta_scaled: float

    def __post_init__(self):
        if not np.isfinite(self.theta_scaled):
            raise ValueError("theta_scaled must be finite")

    @property
    def _effect(self) -> float:
        return self.theta_scaled

    def _cdf_inner(self, u):
        return std_normal_cdf(std_normal_quantile(u) + self.theta_scaled)

    def _quantile_inner(self, v):
        return std_normal_cdf(std_normal_quantile(v) - self.theta_scaled)


@dataclass(frozen=True)
class TwoSampleTLaw(MarginalLaw):
    """Marginal law of the pooled two-sample t-test LFC p-value.

    Under the true parameter the statistic T is non-central t with
    ``ncp = sqrt(n1*n2/(n1+n2)) * theta / sigma``, and ``p = F_t(-T)``.
    Since -T is non-central t with ``-ncp``, the cdf is
    ``u -> F_nct(F_t^{-1}(u); -ncp)`` and the quantile
    ``v -> F_t(F_nct^{-1}(v; -ncp))``: neither forms ``1 - u``, so both
    keep their relative precision as u or v goes to 0.
    """

    ncp: float
    df: int

    def __post_init__(self):
        if not np.isfinite(self.ncp):
            raise ValueError("ncp must be finite")
        if int(self.df) != self.df or self.df < 1:
            raise ValueError("df must be a positive integer")
        object.__setattr__(self, "df", int(self.df))

    @property
    def _effect(self) -> float:
        return self.ncp

    # Subnormal u and v carry no relative precision; both read them as the smallest normal float.
    def _cdf_inner(self, u):
        x = student_t_quantile(np.maximum(u, _TINY), self.df)
        f = _special.nctdtr(self.df, -self.ncp, x)
        return np.where(np.isnan(f), x > 0.0, f)  # far in a tail nctdtr's series gives NaN for 0 or 1

    def _quantile_inner(self, v):
        return _special.stdtr(self.df, _nct_inverse(np.maximum(v, _TINY), self.df, -self.ncp))


def lfc_pvalue_z(t_stat, n):
    """LFC p-value of the one-sided Z-test, ``1 - Phi(sqrt(n) * t_stat)``."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    arr = np.asarray(t_stat, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t_stat must be finite")
    out = std_normal_cdf(-np.sqrt(float(n)) * arr)
    return _match_input(out, t_stat)


def lfc_pvalue_t(t_stat, df):
    """LFC p-value of the pooled two-sample t-test, ``1 - F_t(t_stat; df)``."""
    arr = np.asarray(t_stat, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t_stat must be finite")
    out = student_t_cdf(-arr, df)
    return _match_input(out, t_stat)


def randomize(p_lfc, u, rule: RandomizationRule, rng: Union[RngStream, None] = None):
    """Apply the randomization rule to a single (p_lfc, u) pair.

    The indicator is ``1{p_lfc >= r}`` for the uniform branch, so the
    boundary case ``p_lfc == r`` returns ``u``; with ``r == 0`` the
    comparison always fires, which is exactly the ``c = 0`` convention.
    """
    p = float(_unit_interval(p_lfc, "p_lfc"))
    uu = float(_unit_interval(u, "u"))
    r = float(rule.thresholds(rng, None))
    if p >= r:
        return uu
    return p / r


def randomize_vector(p_lfc: PValueVector, rule: RandomizationRule, rng: RngStream) -> PValueVector:
    """Randomize a whole p-value vector.

    Element j consumes uniform draw j from the stream; for the uniform-R
    rule the per-hypothesis thresholds are drawn after the uniforms, so the
    constant and point-mass rules produce bitwise identical output.
    """
    values = p_lfc.values
    m = values.size
    u = rng.generator.random(m)
    r = np.broadcast_to(np.asarray(rule.thresholds(rng, m), dtype=float), (m,))
    out = u.copy()
    lower = values < r
    if np.any(lower):
        out[lower] = values[lower] / r[lower]
    return PValueVector(out, kind="randomized")


def randomized_cdf(t, c, law: MarginalLaw):
    """Exact cdf of the randomized p-value at threshold ``c`` under ``law``."""
    t_arr = _unit_interval(t, "t")
    c_val = float(_unit_interval(c, "c"))
    f_c = float(law.cdf(c_val))
    out = t_arr * (1.0 - f_c) + law.cdf(t_arr * c_val)
    return _match_input(out, t)


def _ascending_grid(grid, name, lo_open=True):
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d grid")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    low_ok = np.all(arr > 0.0) if lo_open else np.all(arr >= 0.0)
    if not (low_ok and np.all(arr <= 1.0)):
        bounds = "(0, 1]" if lo_open else "[0, 1]"
        raise ValueError(f"{name} must lie in {bounds}")
    return arr


@dataclass(frozen=True)
class ValidityReport:
    """Maximal grid violations of the three sufficient validity conditions.

    ``subscaling``: F(t*c) - t*F(c) above 0 breaks the exact
    characterization of validity of the randomized p-value at threshold c.
    ``ratio_monotonicity``: a decrease of F(t)/t along the grid breaks the
    all-c sufficient condition. ``convexity``: a decrease of the difference
    quotients of F breaks convexity of the p-value cdf.
    """

    subscaling: float
    ratio_monotonicity: float
    convexity: float
    tol: float = 1e-12

    @property
    def subscaling_ok(self) -> bool:
        return self.subscaling <= self.tol

    @property
    def ratio_monotonicity_ok(self) -> bool:
        return self.ratio_monotonicity <= self.tol

    @property
    def convexity_ok(self) -> bool:
        return self.convexity <= self.tol

    @property
    def all_ok(self) -> bool:
        return self.subscaling_ok and self.ratio_monotonicity_ok and self.convexity_ok


def validity_diagnostic(law: MarginalLaw, t_grid, c_grid, tol: float = 1e-12) -> ValidityReport:
    """Evaluate the validity conditions of the marginal law on finite grids."""
    t = _ascending_grid(t_grid, "t_grid")
    c = _ascending_grid(c_grid, "c_grid")
    f_t = law.cdf(t)
    f_c = law.cdf(c)
    f_tc = law.cdf(np.outer(t, c))
    subscaling = float(np.max(f_tc - t[:, None] * f_c[None, :]))

    ratio = f_t / t
    ratio_viol = float(np.max(ratio[:-1] - ratio[1:])) if t.size > 1 else 0.0

    if t.size > 2:
        slopes = np.diff(f_t) / np.diff(t)
        conv_viol = float(np.max(slopes[:-1] - slopes[1:]))
    else:
        conv_viol = 0.0
    return ValidityReport(subscaling, ratio_viol, conv_viol, tol)


@dataclass(frozen=True)
class OrderReport:
    """Pointwise cdf comparison of randomized p-values at two thresholds.

    For thresholds c1 <= c2, ``max_cdf_increase`` is the largest amount by
    which the cdf at c2 exceeds the cdf at c1 anywhere on the grid; under a
    convex marginal law it stays within numerical tolerance of zero (the
    cdfs are pointwise non-increasing in c). ``max_cdf_decrease`` is the
    reverse and plays the same role under a concave law.
    """

    max_cdf_increase: float
    max_cdf_decrease: float
    tol: float = 1e-12

    @property
    def nonincreasing_in_c(self) -> bool:
        return self.max_cdf_increase <= self.tol

    @property
    def nondecreasing_in_c(self) -> bool:
        return self.max_cdf_decrease <= self.tol


def stochastic_order_diagnostic(law: MarginalLaw, c1, c2, t_grid, tol: float = 1e-12) -> OrderReport:
    """Compare the randomized-p-value cdfs at thresholds c1 <= c2."""
    c1 = float(_unit_interval(c1, "c1"))
    c2 = float(_unit_interval(c2, "c2"))
    if c1 > c2:
        raise ValueError("need c1 <= c2")
    t = _ascending_grid(t_grid, "t_grid", lo_open=False)
    diff = randomized_cdf(t, c2, law) - randomized_cdf(t, c1, law)
    return OrderReport(float(np.max(diff)), float(np.max(-diff)), tol)
