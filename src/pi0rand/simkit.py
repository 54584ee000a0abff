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
model counts uniforms v with p = Q_g(v) on effect group g: the copula
uniforms under a Gumbel copula, and iid uniforms under independence, where
the p-values of group g are iid with cdf F_g and so have the law of Q_g(U).
With F_g the inverse of Q_g,

    #{Q_g(v) <= t} = #{v <= F_g(t)}    and    #{Q_g(v) >= t} = #{v >= F_g(t)},

so a replicate counts v against F_g(lambda*c) and F_g(c), mapped once per
block. It evaluates no quantile, and counts the exact p-values also where
Q_g(v) rounds to 1.0 under a strongly conservative null. A row of iid
uniforms needs only the counts of each group's uniforms in the cells between
its sorted thresholds, which are one Multinomial(m_g, cell widths) draw; a
threshold's count is the cumulative cell count at its place, and the places
of all groups, laid end to end, are one flat index gathered once per group of
rows. A row of copula uniforms is drawn, sorted per group and counted by one
binary search per row and group, on the left side, at
nextafter(F_g(lambda*c), +inf) and F_g(c): for doubles, v <= t exactly when
v < nextafter(t, +inf). Both counters take the column ranges
(start, stop, low, up) and return per row #{v <= low} and then #{v < up},
summed over the ranges; ``_replicate_block`` alone maps a plan to those
ranges and forms the binomial's trials m - #{v < up}.

Replicates come in groups of ``GROUP`` = 32: group g = r // 32 draws its
rows from the stream ``(seed, 2g)``, in replicate order, and all its
binomials from ``(seed, 2g + 1)``, row after row, one per grid point. Worker
blocks are cut at multiples of 32, so results are bitwise identical for any
worker count, and the replicates of a shorter run are the first ones of a
longer run. One generator per block is re-keyed twice per group. The rows of
iid uniforms of a group of replicates are one ``multinomial`` call, drawn
row after row and, within a row, effect group after effect group. Rows of
copula uniforms run in chunks of ``CHUNK_VALUES`` counted values, each row's
values drawn in the order of one row drawn alone, with one sort per chunk: a
row draws its frailty, then its exponentials, and log S and the copula
uniforms are formed once per chunk. Each group's binomials are one
``binomial`` call. ``gen_lfc_pvalues`` is the data-level sampler: it draws an
independent model's statistics, not the counts the kernel draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _tableio
from .pi0 import CurveTable, EstimatorConfig, PopulationSpec, _estimate_from_count, _grid_thresholds
from .pvalues import MarginalLaw, TwoSampleTLaw, ZTestLaw, lfc_pvalue_t, lfc_pvalue_z, randomized_cdf
from .statdist import RngStream, _checked_uint64, _finite_array, _increasing_grid, _kanter_log_stable
from .statdist import _positive_int

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
    size, and ``n1`` and ``n2`` must keep their default 0; for the
    two-sample model they are the sizes of the two normal samples, and
    theta is their mean difference in units of the common standard
    deviation, which the t statistic does not see. A two-sample spec keeps
    ``n`` unread and unchecked: a 50 passed on purpose cannot be told apart
    from its default of 50.
    nu is checked; then an independent spec, or one at nu = 1 (the product
    copula), is stored as independent at nu = 1.
    """

    model: str
    groups: tuple
    n: int = 50
    n1: int = 0
    n2: int = 0
    dependence: str = "independent"
    nu: float = 1.0
    _population: PopulationSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "z":
            object.__setattr__(self, "n", _positive_int(self.n, "n"))
            if (self.n1, self.n2) != (0, 0):
                raise ValueError(f"n1 and n2 must be 0 for the z model, got {self.n1!r} and {self.n2!r}")
        else:
            object.__setattr__(self, "n1", _positive_int(self.n1, "n1"))
            object.__setattr__(self, "n2", _positive_int(self.n2, "n2"))
            _positive_int(self.n1 + self.n2 - 2, "n1+n2-2")  # the df of the laws
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
    def pi0(self) -> float:
        return sum(count for count, theta in self.groups if theta <= 0.0) / self.m

    def marginal_law(self, theta: float) -> MarginalLaw:
        if self.model == "z":
            return ZTestLaw(theta * np.sqrt(self.n))
        ncp = np.sqrt(self.n1 * self.n2 / (self.n1 + self.n2)) * theta
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
    """Generate one LFC p-value vector from the model. An independent model's comes from its statistics, where the
    Monte Carlo kernel draws cell counts instead: for the z model -sqrt(n) * (theta + mean noise), for the two-sample
    model T = (Z + ncp) / sqrt(V / df) from m standard normals Z and then m chi-squares V = 2 * Gamma(df / 2), a T
    that overflows clipped to the largest double of its sign. A Gumbel model maps one row of copula uniforms through
    each group's quantile."""
    gen, (counts, laws) = rng.generator, zip(*spec.population().groups)
    if spec.dependence == "gumbel":
        v = _gumbel_rows(spec.m, spec.nu, gen, 1)[0]
        return np.hstack([law.quantile(v[a:b]) for a, b, law in _group_ranges(spec)])
    if spec.model == "z":
        noise = gen.standard_normal(spec.m) / np.sqrt(spec.n)
        return lfc_pvalue_z(np.repeat([theta for _, theta in spec.groups], counts) + noise, spec.n)
    df = laws[0].df
    z, v = gen.standard_normal(spec.m), gen.standard_gamma(df / 2.0, spec.m)
    with np.errstate(over="ignore", divide="ignore"):
        t = (z + np.repeat([law.ncp for law in laws], counts)) / np.sqrt(2.0 * v / df)
    return lfc_pvalue_t(np.clip(t, -np.finfo(float).max, np.finfo(float).max, out=t), df)


def _group_ranges(spec: ModelSpec) -> list:
    """``(start, stop, law)`` per effect group: its columns of a row and its marginal law."""
    groups = spec.population().groups
    stops = np.cumsum([count for count, _ in groups])
    return [(int(b - count), int(b), law) for b, (count, law) in zip(stops, groups)]


def _cell_counter(ranges: list):
    """Per row of iid uniforms, #{V <= low} and then #{V < up} summed over the ranges: one multinomial of each
    range's b - a uniforms over the cells between its sorted thresholds, a threshold's count being the cumulative cell
    count at its place in its range's order (so a cdf not monotone at the last bit still counts #{V <= F(t)}). The
    places are one flat index into a row's cumulative cells, the ranges laid end to end: one gather and one sum.
    """
    sizes = np.array([b - a for a, b, _, _ in ranges])
    cuts = np.array([np.hstack([0.0, np.maximum(low, 0.0), up, 1.0]) for _, _, low, up in ranges])
    order = np.argsort(cuts, axis=1, kind="stable")
    cells = np.diff(np.take_along_axis(cuts, order, axis=1), axis=1)
    below = np.argsort(order, axis=1)[:, 1:-1] - 1  # per threshold, its last cell below: the 0 edge sorts first
    flat = below + cells.shape[1] * np.arange(len(ranges))[:, None]  # its place in a row's flattened cells

    def count(gen: np.random.Generator, rows: int) -> np.ndarray:
        cum = gen.multinomial(sizes, np.broadcast_to(cells, (rows, *cells.shape))).cumsum(axis=-1)
        return cum.reshape(rows, -1)[:, flat].sum(axis=1)

    return count


def _row_counter(spec: ModelSpec, ranges: list):
    """Per row of Gumbel copula uniforms, #{v <= low} and then #{v < up} summed over the column ranges: each range
    sorted and counted against its thresholds, in chunks of ``CHUNK_VALUES`` counted values.

    A row and range take one binary search for keys built once per block: for doubles, v <= t exactly when
    v < nextafter(t, +inf), also at a low of -inf, so a search on the left side counts #{v <= low} at
    nextafter(low, +inf) and #{v < up} at up.
    """
    keys = [(a, b, np.concatenate([np.nextafter(low, np.inf), up])) for a, b, low, up in ranges]
    chunk = max(1, CHUNK_VALUES // spec.m)

    def count(gen: np.random.Generator, rows: int) -> np.ndarray:
        n = np.zeros((rows, keys[0][2].size), dtype=np.int64)  # per row, #{v <= low} then #{v < up}
        for lo in range(0, rows, chunk):
            v = _gumbel_rows(spec.m, spec.nu, gen, min(chunk, rows - lo))
            for a, b, k in keys:
                v[:, a:b].sort(axis=1)
                for i, row in enumerate(v[:, a:b], lo):
                    n[i] += row.searchsorted(k)
        return n

    return count


def _replicate_block(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    """Estimates of replicates start..stop - 1, a row each. A block that starts inside a group runs the group from
    its first row, since its streams are read in replicate order. Only here does the plan become counting inputs:
    ``ranges`` of ``(start, stop, low, up)``, and per row N = #{v <= low} + Binomial(m - #{v < up}, lambda)."""
    spec, c, first = plan.spec, np.asarray(plan.c_grid), start - start % GROUP
    ranges = [(a, b, *_grid_thresholds(plan.lam, c, law.cdf)) for a, b, law in _group_ranges(spec)]
    count = _cell_counter(ranges) if spec.dependence == "independent" else _row_counter(spec, ranges)
    n = np.empty((stop - first, c.size), dtype=np.int64)  # N per replicate
    rng = RngStream(plan.seed)
    for g in range(first // GROUP, -(-stop // GROUP)):
        a0, b0 = GROUP * g - first, min(GROUP * (g + 1), stop) - first
        rng.rekey(2 * g)
        below = count(rng.generator, b0 - a0)  # per row, #{v <= low} then #{v < up}
        rng.rekey(2 * g + 1)
        n[a0:b0] = below[:, : c.size] + rng.generator.binomial(spec.m - below[:, c.size :], plan.lam)
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

    Every replicate draws the counts of its LFC p-values below each grid
    point's two thresholds (the cell counts of iid uniforms under
    independence, else a row of copula uniforms; see the module docstring)
    and then the count of randomized p-values at or below lambda for each
    grid point. The per-replicate estimates land in a matrix indexed
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
    d2 = (mat - mean) ** 2
    m4 = np.mean(d2 * d2, axis=0)  # the fourth central moment; ** 4 would take a pow per element
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
