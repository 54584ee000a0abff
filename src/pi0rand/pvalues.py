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

from .statdist import RngStream, _finite_array, _increasing_grid, _match_input, _nct_search, _positive_int
from .statdist import _probabilities, _probability, _pvalue_array, _special, _t_quantile

__all__ = [
    "RandomizationRule",
    "ZTestLaw",
    "TwoSampleTLaw",
    "MarginalLaw",
    "ValidityReport",
    "OrderReport",
    "lfc_pvalue_z",
    "lfc_pvalue_t",
    "randomize_vector",
    "randomized_cdf",
    "validity_diagnostic",
    "stochastic_order_diagnostic",
]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RandomizationRule:
    """Threshold rule deciding when the uniform replaces the LFC p-value.

    The threshold R is drawn once per hypothesis from Uni[low, high] with
    0 <= low <= high <= 1. ``constant(c)``, the basic rule, is the
    degenerate low = high = c, which draws nothing.
    """

    low: float
    high: float

    def __post_init__(self):
        if not (0.0 <= self.low <= self.high <= 1.0):
            raise ValueError("rule support must satisfy 0 <= low <= high <= 1")

    @classmethod
    def constant(cls, c: float) -> "RandomizationRule":
        return cls(c, c)

    def thresholds(self, rng: Union[RngStream, None], size):
        """Per-hypothesis thresholds; consumes ``size`` draws only if low < high."""
        if self.low < self.high:
            if rng is None:
                raise ValueError("the uniform rule needs an RngStream to draw R")
            return self.low + (self.high - self.low) * rng.generator.random(size)
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
        arr = _probabilities(x, name)
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
        return _special.ndtr(_special.ndtri(u) + self.theta_scaled)

    def _quantile_inner(self, v):
        return _special.ndtr(_special.ndtri(v) - self.theta_scaled)


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
        object.__setattr__(self, "df", _positive_int(self.df, "df"))

    @property
    def _effect(self) -> float:
        return self.ncp

    # Subnormal u and v carry no relative precision; both read them as the smallest normal float.
    def _cdf_inner(self, u):
        x = _t_quantile(np.maximum(u, _TINY), self.df)
        f = _special.nctdtr(self.df, -self.ncp, x)
        # NaN from nctdtr reads as 0 below zero and 1 above. It comes far in a tail, but not only there: at df 1,
        # ncp -11.25 it comes at scattered u in (0.028, 0.26), e.g. cdf(0.03) is 0.0 for a true 7.6e-32.
        return np.where(np.isnan(f), x > 0.0, f)

    def _quantile_inner(self, v):
        return _special.stdtr(self.df, _nct_search(self.df, -self.ncp, np.maximum(v, _TINY)))


def lfc_pvalue_z(t_stat, n):
    """LFC p-value of the one-sided Z-test, ``1 - Phi(sqrt(n) * t_stat)``."""
    root_n = np.sqrt(_positive_int(n, "n"))
    with np.errstate(over="ignore"):  # a finite t whose scaled product overflows has p exactly 0 or 1
        return _match_input(_special.ndtr(-root_n * _finite_array(t_stat, "t_stat")), t_stat)


def lfc_pvalue_t(t_stat, df):
    """LFC p-value of the pooled two-sample t-test, ``1 - F_t(t_stat; df)``."""
    idf = _positive_int(df, "df")
    return _match_input(_special.stdtr(idf, -_finite_array(t_stat, "t_stat")), t_stat)


def randomize_vector(p_lfc, rule: RandomizationRule, rng: RngStream) -> np.ndarray:
    """Randomize a whole p-value array.

    Element j consumes uniform draw j from the stream; a rule with
    low < high draws its per-hypothesis thresholds after the uniforms.
    """
    return _randomize_vector(_pvalue_array(p_lfc), rule, rng)


def _randomize_vector(values: np.ndarray, rule: RandomizationRule, rng: RngStream) -> np.ndarray:
    """``randomize_vector`` for p-values that are already checked."""
    m = values.size
    u = rng.generator.random(m)  # fresh, so the replaced entries are written into it
    r = rule.thresholds(rng, m)
    lower = values < r
    if np.any(lower):
        u[lower] = values[lower] / r[lower]
    return u


def _randomized_cdf(t, c, law: MarginalLaw):
    """``t * (1 - F(c)) + F(t * c)`` for checked t and c, one of which may be an array."""
    return t * (1.0 - law.cdf(c)) + law.cdf(t * c)


def randomized_cdf(t, c, law: MarginalLaw):
    """Exact cdf of the randomized p-value at threshold ``c`` under ``law``."""
    return _match_input(_randomized_cdf(_probabilities(t, "t"), _probability(c, "c"), law), t)


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
    t, c = _increasing_grid(t_grid, "t_grid"), _increasing_grid(c_grid, "c_grid")
    if t[0] == 0.0 or c[0] == 0.0:  # F(t)/t is undefined at t = 0
        raise ValueError("t_grid and c_grid must lie in (0, 1]")
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
    c1, c2 = _probability(c1, "c1"), _probability(c2, "c2")
    if c1 > c2:
        raise ValueError("need c1 <= c2")
    t = _increasing_grid(t_grid, "t_grid")
    diff = randomized_cdf(t, c2, law) - randomized_cdf(t, c1, law)
    return OrderReport(float(np.max(diff)), float(np.max(-diff)), tol)
