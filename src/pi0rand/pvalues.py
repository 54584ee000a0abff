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

where ``F`` is the marginal cdf of ``p_lfc`` under the true parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statdist import RngStream, _finite_array, _match_input, _nct_search, _positive_int
from .statdist import _probabilities, _probability, _pvalue_array, _special, _t_quantile

__all__ = [
    "RandomizationRule",
    "ZTestLaw",
    "TwoSampleTLaw",
    "MarginalLaw",
    "lfc_pvalue_z",
    "lfc_pvalue_t",
    "randomize_vector",
    "randomized_cdf",
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

    def _thresholds(self, rng: RngStream, size):
        """Per-hypothesis thresholds; consumes ``size`` draws only if low < high."""
        if self.low < self.high:
            return self.low + (self.high - self.low) * rng.generator.random(size)
        return np.full(size, self.low)


class MarginalLaw:
    """Law of an LFC p-value: its cdf and quantile on [0, 1].

    Both map 0 to 0 and 1 to 1 and are the identity at the LFC, where the
    subclass's ``_effect`` is 0; elsewhere the subclass supplies them on
    (0, 1) through ``_cdf_inner`` and ``_quantile_inner``. Scalars in give
    floats out.
    """

    def cdf(self, u):
        return self._mapped(u, "u", self._cdf_inner)

    def quantile(self, v):
        return self._mapped(v, "v", self._quantile_inner)

    def _mapped(self, x, name, interior):
        arr = _probabilities(x, name)
        if self._effect == 0.0:
            return _match_input(arr.astype(float, copy=True), x)
        out = np.where(arr >= 1.0, 1.0, 0.0)  # the endpoints, pinned to +0.0 and 1.0
        mid = (arr > 0.0) & (arr < 1.0)
        if np.any(mid):
            out[mid] = interior(arr[mid])
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
        object.__setattr__(self, "theta_scaled", float(self.theta_scaled))  # a plain float repr, for the digest

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
        object.__setattr__(self, "ncp", float(self.ncp))
        object.__setattr__(self, "df", _positive_int(self.df, "df"))

    @property
    def _effect(self) -> float:
        return self.ncp

    # Subnormal u and v carry no relative precision; both read them as the smallest normal float.
    def _cdf_inner(self, u):
        x = _t_quantile(np.maximum(u, _TINY), self.df)
        f = _special.nctdtr(self.df, -self.ncp, x)
        # NaN from nctdtr reads as 0 below the law's location -ncp and 1 above. At |ncp| >~ 1e10 every x gives NaN, and
        # the reading is exact wherever |x| is small against |ncp|, as at every u but the most extreme. NaN also comes
        # at scattered u elsewhere: at df 1, ncp -11.25 in (0.028, 0.26), e.g. cdf(0.03) is 0.0 for a true 7.6e-32.
        return np.where(np.isnan(f), x > -self.ncp, f)

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
    values = _pvalue_array(p_lfc)
    m = values.size
    u = rng.generator.random(m)  # fresh, so the replaced entries are written into it
    r = rule._thresholds(rng, m)
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
