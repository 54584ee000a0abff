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
so a replicate needs one binomial per grid point and these two counts. Every
model counts a row x with p = P(x), P increasing: uniforms with P = Q_g on
group g (the copula uniforms, or iid uniforms for an independent z model,
whose p-values are iid with cdf F_g within group g and so have the law of
Q_g(U)), or for an independent two-sample model its statistic with P the
central t cdf. With P^-1 the inverse (the cdf F_g of Q_g; -inf at 0 and +inf
at 1 for a statistic),

    #{P(x) <= t} = #{x <= P^-1(t)}    and    #{P(x) >= t} = #{x >= P^-1(t)},

so a replicate counts x against P^-1(lambda*c) and P^-1(c), mapped once per
block. It evaluates neither P nor a quantile, and counts the exact p-values
also where P(x) rounds to 1.0 under a strongly conservative null. A row of
iid uniforms (an independent z model) needs only the counts of each group's
uniforms in the cells between its sorted thresholds, which are one
Multinomial(m_g, cell widths) draw; any other row is drawn and sorted (per
group for the copula uniforms).

Replicates come in groups of ``GROUP`` = 32: group g = r // 32 draws its
rows from the stream ``(seed, 2g)``, in replicate order, and all its
binomials from ``(seed, 2g + 1)``, row after row, one per grid point. Worker
blocks are cut at multiples of 32, so results are bitwise identical for any
worker count, and the replicates of a shorter run are the first ones of a
longer run. One generator per block is re-keyed twice per group. The rows of
iid uniforms of a group of replicates are one ``multinomial`` call, drawn
row after row and, within a row, effect group after effect group. Other rows
run in chunks of ``CHUNK_VALUES`` counted values, each row's values drawn in
the order of one row drawn alone, with one sort per chunk. An independent
two-sample row is drawn from the sufficient statistics of its law: its m
standard normals Z, then its m chi-squares V = 2 * Gamma(df / 2), counted as
x = -T = -(Z + ncp) / sqrt(V / df), formed once per chunk. A Gumbel row
draws its frailty, then its exponentials, and log S and the copula uniforms
are formed once per chunk. Each group's binomials are one ``binomial`` call.
``gen_lfc_pvalues`` is the data-level sampler: it draws an independent z
model's statistics, not the counts the kernel draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _tableio
from .pi0 import CurveTable, EstimatorConfig, PopulationSpec, _estimate_from_count, _grid_counts, _grid_thresholds
from .pvalues import MarginalLaw, TwoSampleTLaw, ZTestLaw, lfc_pvalue_t, lfc_pvalue_z, randomized_cdf
from .statdist import RngStream, _checked_uint64, _finite_array, _increasing_grid, _kanter_log_stable
from .statdist import _positive_finite, _positive_int, _t_quantile

__all__ = [
    "ModelSpec",
    "SimulationPlan",
    "McSummary",
    "gen_lfc_pvalues",
    "run_mc",
    "cdf_curves",
]

MODELS = ("z", "two_sample")
DEPENDENCE = ("independent", "gumbel")
GROUP = 32  # consecutive replicates that share one data stream and one binomial stream
CHUNK_VALUES = 8192  # counted values per chunk of replicates: 8 replicates at m = 1000


@dataclass(frozen=True)
class ModelSpec:
    """Generating model, effect groups, and dependence structure.

    ``groups`` lists ``(count, theta)`` pairs; hypotheses with theta <= 0
    are true nulls. For the Z model ``n`` is the per-hypothesis sample
    size; for the two-sample model ``n1``/``n2``/``sigma`` parameterize the
    two normal samples. nu is checked; then an independent spec, or one at
    nu = 1 (the product copula), is stored as independent at nu = 1.
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
        if self.model == "z" and self.sigma != 1.0:
            raise ValueError(f"sigma must be 1 for the z model, got {self.sigma!r}")
        if self.dependence not in DEPENDENCE:
            raise ValueError(f"dependence must be one of {DEPENDENCE}")
        if not 1.0 <= self.nu < np.inf:
            raise ValueError(f"nu must be finite and >= 1, got {self.nu!r}")
        if self.dependence == "independent" or self.nu == 1.0:
            object.__setattr__(self, "dependence", "independent")
            object.__setattr__(self, "nu", 1.0)
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
        if 2 * ((self.replicates - 1) // GROUP) + 1 >= 2**64:  # the last group's binomial stream id
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
    metadata: dict = field(default_factory=dict)

    def to_csv_string(self) -> str:
        cols = [self.c_grid, self.mean, self.variance, self.mse, self.bias, self.se_mean]
        return "".join(_tableio._csv_text(self.metadata, ["c", "mean", "variance", "mse", "bias", "se_mean"], cols))


def _gumbel_rows(m: int, nu: float, gen: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` rows of m uniforms coupled by the Gumbel-Hougaard copula at nu > 1, drawn from ``gen`` row by row.

    Frailty construction: with S positive stable of index 1/nu and E_j iid
    standard exponential, ``V_j = exp(-(E_j / S)**(1/nu))``, formed from log S
    as ``exp(-E_j**(1/nu) * exp(-log S / nu))``: S overflows at large nu.
    Each row draws its frailty's U and W, then its E_j; log S and V are formed
    once for all the rows.
    """
    alpha, uw, e = 1.0 / nu, np.empty((2, rows)), np.empty((rows, m))
    for i in range(rows):
        uw[:, i] = gen.random(), gen.standard_exponential()
        gen.standard_exponential(out=e[i])
    return np.exp(-(e**alpha) * np.exp(-_kanter_log_stable(alpha, *uw) / nu)[:, None])


def gen_lfc_pvalues(spec: ModelSpec, rng: RngStream) -> np.ndarray:
    """Generate one LFC p-value vector from the model. An independent z model's comes from its statistics
    -sqrt(n) * (theta + mean noise), where the Monte Carlo kernel draws cell counts instead; every other model's
    maps one counted row to its p-values."""
    if spec.model == "z" and spec.dependence == "independent":
        counts, thetas = zip(*spec.groups)
        noise = rng.generator.standard_normal(spec.m) / np.sqrt(spec.n)
        return lfc_pvalue_z(np.repeat(thetas, counts) + noise, spec.n)
    x = _counted_rows(spec, rng.generator, 1)[0]
    return np.hstack([to_p(x[a:b]) for a, b, to_p, _ in _count_maps(spec)])


def _counted_rows(spec: ModelSpec, gen: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` rows, drawn from ``gen`` one after another, of the values a Gumbel or two-sample replicate counts: a
    Gumbel model's copula uniforms, and x = -T for an independent two-sample model. T is drawn from its sufficient
    statistics, T = (Z + ncp) / sqrt(V / df), with a row's m standard normals Z drawn first, then its m chi-squares
    V = 2 * Gamma(df / 2). An x that overflows is clipped to the largest double of its sign, beyond every finite
    threshold, so it counts as +-inf would while the +-inf thresholds count no x."""
    if spec.dependence == "gumbel":
        return _gumbel_rows(spec.m, spec.nu, gen, rows)
    counts, laws = zip(*spec.population().groups)
    ncp, df = np.repeat([law.ncp for law in laws], counts), laws[0].df
    z, v = np.empty((2, rows, spec.m))
    for i in range(rows):
        gen.standard_normal(out=z[i])
        gen.standard_gamma(df / 2.0, out=v[i])
    with np.errstate(over="ignore", divide="ignore"):
        x = -(z + ncp) / np.sqrt(2.0 * v / df)
    return np.clip(x, -np.finfo(float).max, np.finfo(float).max, out=x)


def _count_maps(spec: ModelSpec) -> list:
    """``(start, stop, to_p, from_p)`` per column range of a counted row: ``to_p`` maps its values to their
    p-values, increasing, and ``from_p`` maps a p-value threshold back to the counted scale."""
    groups = spec.population().groups
    if spec.model == "two_sample" and spec.dependence == "independent":
        df = groups[0][1].df
        return [(0, spec.m, lambda x: lfc_pvalue_t(-x, df), lambda p: _t_quantile(p, df))]
    stops = np.cumsum([count for count, _ in groups])
    return [(int(b - count), int(b), law.quantile, law.cdf) for b, (count, law) in zip(stops, groups)]


def _cell_counter(spec: ModelSpec, lam: float, c: np.ndarray):
    """Per row of m iid uniforms, #{V <= F_g(lambda*c)} and #{V >= F_g(c)} summed over the groups, drawn as one
    multinomial of each group's m_g uniforms over the cells between its sorted thresholds.

    A threshold's count is the cumulative cell count at its place in its group's order, so a cdf that is not
    monotone at the last bit still counts #{V <= F(t)}, and #{V >= F(1)} = #{V >= 1} is 0.
    """
    groups = spec.population().groups
    sizes = np.array([count for count, _ in groups])
    cuts = np.array([np.hstack([0.0, np.maximum(low, 0.0), up, 1.0])
                     for low, up in (_grid_thresholds(lam, c, law.cdf) for _, law in groups)])
    order = np.argsort(cuts, axis=1, kind="stable")
    cells = np.diff(np.take_along_axis(cuts, order, axis=1), axis=1)
    below = np.argsort(order, axis=1)[:, 1:-1] - 1  # per grid threshold, its last cell below: the 0 edge sorts first

    def count(gen: np.random.Generator, rows: int) -> np.ndarray:
        cum = gen.multinomial(sizes, np.broadcast_to(cells, (rows, *cells.shape))).cumsum(axis=-1)
        n = np.take_along_axis(cum, np.broadcast_to(below, (rows, *below.shape)), axis=-1).sum(axis=1)
        return np.stack([n[:, : c.size], spec.m - n[:, c.size :]], axis=1)

    return count


def _row_counter(spec: ModelSpec, lam: float, c: np.ndarray):
    """Per row of ``_counted_rows``, #{p <= lambda*c} and #{p >= c}: each column range sorted and counted against
    its mapped thresholds, in chunks of ``CHUNK_VALUES`` counted values."""
    ranges = [(a, b, *_grid_thresholds(lam, c, from_p)) for a, b, _, from_p in _count_maps(spec)]
    chunk = max(1, CHUNK_VALUES // spec.m)

    def count(gen: np.random.Generator, rows: int) -> np.ndarray:
        part = np.empty((len(ranges), rows, 2, c.size), dtype=np.int64)  # per range and row
        for lo in range(0, rows, chunk):
            x = _counted_rows(spec, gen, min(chunk, rows - lo))
            for j, (a, b, low, up) in enumerate(ranges):
                x[:, a:b].sort(axis=1)
                for i, row in enumerate(x[:, a:b], lo):
                    part[j, i] = _grid_counts(row, low, up)
        return part.sum(axis=0)

    return count


def _replicate_block(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    """Estimates of replicates start..stop - 1, a row each. A block that starts inside a group runs the group from
    its first row, since its streams are read in replicate order."""
    spec, c, first = plan.spec, np.asarray(plan.c_grid), start - start % GROUP
    iid = spec.model == "z" and spec.dependence == "independent"  # rows of iid uniforms
    count = (_cell_counter if iid else _row_counter)(spec, plan.lam, c)
    n = np.empty((stop - first, c.size), dtype=np.int64)  # N per replicate
    rng = RngStream(plan.seed)
    for g in range(first // GROUP, -(-stop // GROUP)):
        a0, b0 = GROUP * g - first, min(GROUP * (g + 1), stop) - first
        rng.rekey(2 * g)
        counts = count(rng.generator, b0 - a0)  # per row, #{p <= lambda*c} and #{p >= c}
        rng.rekey(2 * g + 1)
        n[a0:b0] = counts[:, 0] + rng.generator.binomial(counts[:, 1], plan.lam)
    return _estimate_from_count(n[start - first :], spec.m, plan.lam, plan.estimator_variant)


def _blocks(reps: int, workers: int) -> list:
    """Contiguous non-empty replicate ranges cut at multiples of ``GROUP``, one per worker and at most one per
    usable CPU."""
    groups = -(-reps // GROUP)
    n = min(workers, groups, _tableio._usable_cpus())
    bounds = [min(GROUP * (groups * k // n), reps) for k in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


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
    with _tableio._workers([functools.partial(_replicate_block, plan, a, b) for a, b in blocks[1:]]) as results:
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
        "model": plan.spec.model,
        "dependence": plan.spec.dependence,
        "nu": repr(float(plan.spec.nu)),
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
