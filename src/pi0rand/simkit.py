"""Data generation and the Monte Carlo harness.

Two generating models are supported: one-sided Z-tests (per-hypothesis mean
of n unit-variance normals) and the pooled two-sample t-test. The LFC
p-values can be made dependent through a Gumbel-Hougaard copula, imposed at
the p-value level: copula uniforms v are pushed through each group's exact
marginal quantile Q_g, which preserves the marginals while installing the
copula.

``run_mc`` replays the estimator across a grid of randomization thresholds
with a fixed replicate budget. Given the LFC vector p, the estimator sees the
randomized vector only through N = #{p_rand <= lambda}, and exactly
N = #{p <= lambda*c} + Binomial(#{p >= c}, lambda) (first term 0 at c = 0),
so a replicate needs one binomial per grid point. Every model draws a row x
with p = P(x), P increasing: the statistic with P = ndtr (z) or the central
t cdf (two-sample), or the copula uniforms with P = Q_g on group g. With
P^-1 the inverse (the cdf F_g of Q_g; -inf at 0 and +inf at 1 for a statistic),

    #{P(x) <= t} = #{x <= P^-1(t)}    and    #{P(x) >= t} = #{x >= P^-1(t)},

so a replicate sorts its row (per group for the uniforms) and counts it
against P^-1(lambda*c) and P^-1(c), mapped once per block. It evaluates
neither P nor a quantile, and counts the exact p-values also where P(x)
rounds to 1.0 under a strongly conservative null.

Replicate r owns the streams ``(seed, 2r)`` for data and ``(seed, 2r + 1)``
for the binomials, so results are bitwise identical for any worker count.
Replicates run in chunks of ``CHUNK_VALUES`` drawn values on one generator
re-keyed to each stream in turn, with one transform and one sort per chunk;
the streams and output bytes are those of one replicate at a time. Under a
Gumbel copula each row draws its frailty in stream order, and log S and the
copula uniforms are formed once per chunk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pi0 import CurveTable, EstimatorConfig, PopulationSpec, _csv_text, _estimate_from_count, _grid_counts
from .pi0 import _grid_thresholds, _usable_cpus, _workers, _write_text
from .pvalues import MarginalLaw, TwoSampleTLaw, ZTestLaw, randomized_cdf
from .statdist import RngStream, _checked_uint64, _finite_array, _increasing_grid, _kanter_log_stable
from .statdist import _positive_finite, _positive_int, _special, _t_quantile

__all__ = [
    "ModelSpec",
    "SimulationPlan",
    "McSummary",
    "gen_lfc_pvalues",
    "gumbel_uniforms",
    "run_mc",
    "cdf_curves",
]

MODELS = ("z", "two_sample")
DEPENDENCE = ("independent", "gumbel")
CHUNK_VALUES = 8192  # random values drawn per chunk of replicates: 8 replicates at m = 1000


def _check_nu(nu):
    if not 1.0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and >= 1, got {nu!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Generating model, effect groups, and dependence structure.

    ``groups`` lists ``(count, theta)`` pairs; hypotheses with theta <= 0
    are true nulls. For the Z model ``n`` is the per-hypothesis sample
    size; for the two-sample model ``n1``/``n2``/``sigma`` parameterize the
    two normal samples. ``nu = 1`` makes the Gumbel copula the product
    copula.
    """

    model: str
    groups: tuple
    n: int = 50
    n1: int = 0
    n2: int = 0
    sigma: float = 1.0
    dependence: str = "independent"
    nu: float = 1.0
    _population: PopulationSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "z":
            object.__setattr__(self, "n", _positive_int(self.n, "n"))
        else:
            object.__setattr__(self, "n1", _positive_int(self.n1, "n1"))
            object.__setattr__(self, "n2", _positive_int(self.n2, "n2"))
            if self.n1 + self.n2 < 3:
                raise ValueError("need n1 + n2 - 2 >= 1")
        _positive_finite(self.sigma, "sigma")
        if self.dependence not in DEPENDENCE:
            raise ValueError(f"dependence must be one of {DEPENDENCE}")
        _check_nu(self.nu)
        thetas = _finite_array([float(theta) for _, theta in self.groups], "group effects").tolist()
        with np.errstate(over="ignore"):  # a finite effect can overflow once scaled; its law rejects the inf
            pop = PopulationSpec(tuple((count, self.marginal_law(t)) for (count, _), t in zip(self.groups, thetas)))
        object.__setattr__(self, "groups", tuple((count, t) for (count, _), t in zip(pop.groups, thetas)))
        object.__setattr__(self, "_population", pop)  # it checks the group counts, the non-empty groups and m

    @property
    def m(self) -> int:
        return self._population.m

    @property
    def pi0(self) -> float:  # from theta <= 0: a two-sample theta > 0 whose ncp underflows to 0 has a null law
        return sum(count for count, theta in self.groups if theta <= 0.0) / self.m

    def thetas(self) -> np.ndarray:
        return np.concatenate([np.full(count, theta) for count, theta in self.groups])

    def marginal_law(self, theta: float) -> MarginalLaw:
        if self.model == "z":
            return ZTestLaw(theta * np.sqrt(self.n))
        ncp = np.sqrt(self.n1 * self.n2 / (self.n1 + self.n2)) * theta / self.sigma
        return TwoSampleTLaw(ncp, self.n1 + self.n2 - 2)

    def population(self) -> PopulationSpec:
        return self._population


@dataclass(frozen=True)
class SimulationPlan:
    """Everything a Monte Carlo run needs, including its seed."""

    spec: ModelSpec
    lam: float = 0.5
    c_grid: tuple = tuple(np.linspace(0.0, 1.0, 21))
    replicates: int = 10_000
    seed: int = 0
    estimator_variant: str = "plain"

    def __post_init__(self):
        EstimatorConfig(self.lam, self.estimator_variant)  # reuse its validation
        object.__setattr__(self, "c_grid", tuple(_increasing_grid(self.c_grid, "c_grid").tolist()))
        object.__setattr__(self, "replicates", _positive_int(self.replicates, "replicates"))
        object.__setattr__(self, "seed", _checked_uint64(self.seed, "seed"))
        if 2 * (self.replicates - 1) + 1 >= 2**64:  # last randomization stream id
            raise ValueError("replicate budget exceeds the stream id space")


@dataclass
class McSummary:
    """Per-threshold moments of the estimator across replicates."""

    c_grid: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    bias: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    pi0_true: float
    metadata: dict = field(default_factory=dict)

    def to_csv_string(self) -> str:
        cols = [self.c_grid, self.mean, self.variance, self.mse, self.bias, self.se_mean]
        return "".join(_csv_text(self.metadata, ["c", "mean", "variance", "mse", "bias", "se_mean"], cols))

    def save(self, path) -> None:
        _write_text(path, self.to_csv_string())


def gumbel_uniforms(m: int, nu: float, rng: RngStream) -> np.ndarray:
    """Uniform marginals coupled by the Gumbel-Hougaard copula: one row of ``_gumbel_rows``.

    Frailty construction: with S positive stable of index 1/nu and E_j iid
    standard exponential, ``V_j = exp(-(E_j / S)**(1/nu))``, formed from log S
    as ``exp(-E_j**(1/nu) * exp(-log S / nu))``: S overflows at large nu.
    The frailty's U and W are drawn before the E_j; in a chunk each row draws
    its own in stream order, and log S and V are formed once for the chunk.
    """
    _check_nu(nu)
    return _gumbel_rows(_positive_int(m, "m"), nu, rng, (None,))[0]


def _gumbel_rows(m: int, nu: float, rng: RngStream, stream_ids) -> np.ndarray:
    """``gumbel_uniforms`` per stream id (``None``: ``rng`` as it stands), one vector pass for the chunk."""
    alpha, uw, e = 1.0 / nu, np.empty((2, len(stream_ids))), np.empty((len(stream_ids), m))
    for i, gen in enumerate(_streams(rng, stream_ids)):
        if alpha < 1.0:  # at nu = 1, S = 1 and no frailty is drawn
            uw[:, i] = gen.random(), gen.standard_exponential()
        gen.standard_exponential(out=e[i])
    log_s = _kanter_log_stable(alpha, *uw) if alpha < 1.0 else np.zeros(len(stream_ids))
    return np.exp(-(e**alpha) * np.exp(-log_s / nu)[:, None])


def _streams(rng: RngStream, stream_ids):
    """Re-key ``rng`` to each stream id in turn (``None``: leave it as it stands) and yield its generator."""
    for stream_id in stream_ids:
        if stream_id is not None:
            rng.rekey(stream_id)
        yield rng.generator


def gen_lfc_pvalues(spec: ModelSpec, rng: RngStream) -> np.ndarray:
    """Generate one LFC p-value vector from the model."""
    x = _counted_rows(spec, rng, (None,))[0]
    return np.hstack([to_p(x[a:b]) for a, b, to_p, _ in _count_maps(spec)])


def _draws_per_replicate(spec: ModelSpec) -> int:
    return spec.m * (spec.n1 + spec.n2 if spec.model == "two_sample" and spec.dependence == "independent" else 1)


def _counted_rows(spec: ModelSpec, rng: RngStream, stream_ids) -> np.ndarray:
    """One row per stream id (``None``: ``rng`` as it stands) of the values a replicate counts: a Gumbel
    model's copula uniforms, else x = -sqrt(n) * (theta + mean noise) for z and x = -T for two-sample."""
    if spec.dependence == "gumbel":
        return _gumbel_rows(spec.m, spec.nu, rng, stream_ids)
    raw = np.empty((len(stream_ids), _draws_per_replicate(spec)))
    for row, gen in zip(raw, _streams(rng, stream_ids)):
        gen.standard_normal(out=row)
    thetas = spec.thetas()
    rows, m = raw.shape[0], thetas.size
    if spec.model == "z":
        with np.errstate(over="ignore"):  # a finite theta whose scaled product overflows has p exactly 0 or 1
            return -np.sqrt(spec.n) * (thetas + raw / np.sqrt(spec.n))
    x = thetas[:, None] + spec.sigma * raw[:, : m * spec.n1].reshape(rows, m, spec.n1)
    y = spec.sigma * raw[:, m * spec.n1 :].reshape(rows, m, spec.n2)
    xbar, ybar, df = x.mean(axis=-1), y.mean(axis=-1), spec.n1 + spec.n2 - 2
    pooled = (((x - xbar[..., None]) ** 2).sum(axis=-1) + ((y - ybar[..., None]) ** 2).sum(axis=-1)) / df
    return -np.sqrt(spec.n1 * spec.n2 / (spec.n1 + spec.n2)) * (xbar - ybar) / np.sqrt(pooled)


def _count_maps(spec: ModelSpec) -> list:
    """``(start, stop, to_p, from_p)`` per column range of a counted row: ``to_p`` maps its values to their
    p-values, increasing, and ``from_p`` maps a p-value threshold back to the counted scale."""
    if spec.dependence == "gumbel":
        groups = spec.population().groups
        stops = np.cumsum([count for count, _ in groups])
        return [(int(b - count), int(b), law.quantile, law.cdf) for b, (count, law) in zip(stops, groups)]
    if spec.model == "z":
        return [(0, spec.m, _special.ndtr, _special.ndtri)]
    df = spec.n1 + spec.n2 - 2
    return [(0, spec.m, lambda x: _special.stdtr(df, x), lambda p: _t_quantile(p, df))]


def _replicate_block(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    c = np.asarray(plan.c_grid)
    ranges = [(a, b, *_grid_thresholds(plan.lam, c, from_p)) for a, b, _, from_p in _count_maps(plan.spec)]
    rows = max(1, CHUNK_VALUES // _draws_per_replicate(plan.spec))
    rng = RngStream(plan.seed, 2 * start)
    out = np.empty((stop - start, len(plan.c_grid)))
    for first in range(start, stop, rows):
        reps = range(first, min(first + rows, stop))
        x = _counted_rows(plan.spec, rng, [2 * r for r in reps])
        for a, b, _, _ in ranges:
            x[:, a:b].sort(axis=1)
        for i, r in enumerate(reps):
            n_low = n_up_trials = 0
            for a, b, low, up in ranges:
                d_low, d_up = _grid_counts(x[i, a:b], low, up)
                n_low, n_up_trials = n_low + d_low, n_up_trials + d_up
            rng.rekey(2 * r + 1)
            out[r - start] = n_low + rng.generator.binomial(n_up_trials, plan.lam)  # N, exact in a float
    return _estimate_from_count(out, plan.spec.m, plan.lam, plan.estimator_variant)


def _blocks(reps: int, workers: int) -> list:
    """Contiguous non-empty replicate ranges, one per worker and at most one per usable CPU."""
    n = min(workers, reps, _usable_cpus())
    bounds = np.linspace(0, reps, n + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def run_mc(plan: SimulationPlan, workers: int = 1) -> McSummary:
    """Replay the estimator across the threshold grid.

    Every replicate generates one LFC p-value vector (chunked, see the module
    docstring) and draws the count of randomized p-values at or below lambda
    for each grid point. The per-replicate estimates land in a matrix indexed
    by (replicate, grid point) in replicate order, so the aggregation (and
    hence the summary) does not depend on how replicates were scheduled.
    """
    reps = plan.replicates
    blocks = _blocks(reps, _positive_int(workers, "workers"))
    with _workers([functools.partial(_replicate_block, plan, a, b) for a, b in blocks[1:]]) as results:
        mat = np.concatenate([_replicate_block(plan, *blocks[0]), *(result() for result in results)])  # block 0 here
    pi0 = plan.spec.pi0
    mean = mat.mean(axis=0)
    variance = mat.var(axis=0)
    bias = mean - pi0
    mse = np.mean((mat - pi0) ** 2, axis=0)
    se_mean = np.sqrt(variance / reps)
    m4 = np.mean((mat - mean) ** 4, axis=0)
    se_variance = np.sqrt(np.maximum(m4 - variance**2, 0.0) / reps)
    meta = {
        "seed": plan.seed,
        "spec": plan.spec.population().digest(),
        "replicates": reps,
        "lambda": repr(float(plan.lam)),
        "variant": plan.estimator_variant,
        "pi0": repr(float(pi0)),
    }
    return McSummary(
        c_grid=np.asarray(plan.c_grid),
        mean=mean,
        variance=variance,
        mse=mse,
        bias=bias,
        se_mean=se_mean,
        se_variance=se_variance,
        pi0_true=pi0,
        metadata=meta,
    )


def cdf_curves(law: MarginalLaw, c_list, t_grid) -> CurveTable:
    """Exact cdfs of the randomized p-value, one column per threshold."""
    t = _increasing_grid(t_grid, "t_grid")
    if len(c_list) == 0:
        raise ValueError("c_list must be non-empty")
    labels = [f"c={float(c):g}" for c in c_list]
    clash = [float(c) for c, label in zip(c_list, labels) if labels.count(label) > 1]
    if clash:  # a later column would replace an earlier one under the same label
        raise ValueError(f"c_list must have distinct labels, but thresholds {clash} share one")
    values = {label: randomized_cdf(t, c, law) for label, c in zip(labels, c_list)}
    meta = {"quantity": "cdf", "law": repr(law)}
    return CurveTable(t, values, metadata=meta, x_name="t")
