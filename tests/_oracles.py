"""Independent numerical oracles used to derive frozen expected values.

The oracles deliberately avoid the library's own code paths: the normal
cdf comes from the erf power series, the t cdf from a Lentz continued
fraction for the regularized incomplete beta, quantiles from bisection on
those cdfs, and g from direct indicator counting. Three helpers read the
library's marginal laws instead, since what they check is a property of
those laws: ``validity_diagnostic`` and ``stochastic_order_diagnostic``
(the paper's validity and stochastic-order conditions, on grids),
``replicate_block_per_replicate`` (its cdfs, quantiles and copula uniforms) and
``count_pmf_under_independence`` (its cdfs).
"""

import math
from dataclasses import dataclass

import numpy as np


def erf_series(x: float, terms: int = 60) -> float:
    """Maclaurin series of erf; 60 terms is plenty for |x| <= 4."""
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def normal_quantile(p: float, tol: float = 1e-13) -> float:
    """Bisection on the series cdf; independent of any library quantile."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _betacf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta."""
    max_iter, eps, fpmin = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via the continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(x: float, df: int) -> float:
    ib = betainc_reg(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - 0.5 * ib if x > 0 else 0.5 * ib


def randomize(p_lfc: float, u: float, c: float) -> float:
    """The constant-threshold rule on one (p_lfc, u) pair, written out scalar by scalar.

    The indicator is ``1{p_lfc >= c}`` for the uniform branch, so the
    boundary case ``p_lfc == c`` returns ``u``; with ``c == 0`` the
    comparison always fires, which is exactly the ``c = 0`` convention.
    """
    return u if p_lfc >= c else p_lfc / c


def g_brute(values: np.ndarray, lam: float, c: float) -> float:
    """Direct indicator count of g (second term 0 at c = 0), no sorting or binary search."""
    values = np.asarray(values, dtype=float)
    return lam * int(np.sum(values >= c)) + (int(np.sum(values <= lam * c)) if c > 0.0 else 0)


def g_brute_max(values: np.ndarray, lam: float, grid: np.ndarray):
    """Max of g over an arbitrary grid by direct counting, chunked."""
    values = np.asarray(values, dtype=float)
    best_g, best_c = -np.inf, None
    for chunk in np.array_split(np.asarray(grid, dtype=float), max(1, grid.size // 4096)):
        ge = (values[None, :] >= chunk[:, None]).sum(axis=1)
        le = ((values[None, :] <= lam * chunk[:, None]) & (chunk[:, None] > 0.0)).sum(axis=1)
        g = lam * ge + le
        k = int(np.argmax(g))
        if g[k] > best_g:
            best_g, best_c = float(g[k]), float(chunk[k])
    return best_g, best_c


def csv_text_row_first(metadata: dict, header, columns) -> str:
    """Row-first reference for ``_tableio._csv_text``: one tuple of floats, then one join, per row."""
    lines = [f"# {key}={val}" for key, val in metadata.items()] + [",".join(header)]
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def dkw_band(n: int, alpha: float = 0.01) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz confidence band."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_critical(n: int) -> float:
    """99% critical value of the one-sample Kolmogorov-Smirnov statistic."""
    return 1.63 / math.sqrt(n)


def gumbel_uniforms_reference(m: int, nu: float, seed: int, stream_id: int) -> np.ndarray:
    """Gumbel-Hougaard copula uniforms written out from a plain Philox generator keyed ``[seed, stream_id]``.

    For nu > 1 it draws U and then W for the Kanter frailty S of index 1/nu
    and writes log S out scalar by scalar; then it draws the m exponentials
    E_j and forms V_j = exp(-exp((log E_j - log S) / nu)).
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
    log_s = 0.0
    if nu > 1.0:
        a = 1.0 / nu
        u, w = gen.random(), gen.standard_exponential()
        log_s = (math.log(math.sin(a * math.pi * u)) + (1.0 - a) / a * math.log(math.sin((1.0 - a) * math.pi * u))
                 - math.log(math.sin(math.pi * u)) / a - (1.0 - a) / a * math.log(w))
    e = gen.standard_exponential(m)
    return np.exp(-np.exp((np.log(e) - log_s) / nu))


def replicate_block_per_replicate(plan, start: int, stop: int) -> np.ndarray:
    """The Monte Carlo kernel as one loop over replicates, with fresh streams per group of 32.

    Group g = r // 32 builds its own Philox streams: ``(seed, 2g)`` generates
    the counts of its replicates one after another (each replicate alone, no
    chunking) and ``(seed, 2g + 1)`` draws one binomial per threshold, a call
    per replicate, in the same order. A group is run from its first
    replicate, whether or not ``start`` is.

    A replicate of iid uniforms (an independent z model, or a Gumbel model at
    nu = 1) draws, group after group, one multinomial of the group's m_g
    uniforms over the cells between its sorted thresholds
    {0, F_g(lambda c) for c > 0, F_g(c), 1}; #{V <= F_g(t)} is then the count
    of the cells whose upper edge is at most F_g(t). A Gumbel vector at nu > 1
    maps its copula uniforms through each group's quantile, and a two-sample
    vector without a copula comes from its raw data; both are counted as
    p-values. The marginal cdfs and quantiles and the copula uniforms are the
    library's; everything else is written out here.
    """
    from scipy import special

    from pi0rand.simkit import _gumbel_rows

    def stream(stream_id):
        return np.random.Generator(np.random.Philox(key=np.array([plan.seed, stream_id], dtype=np.uint64)))

    spec, c, lam = plan.spec, np.asarray(plan.c_grid), plan.lam
    thetas = np.concatenate([np.full(count, theta) for count, theta in spec.groups])
    m = thetas.size
    iid = spec.nu == 1.0 if spec.dependence == "gumbel" else spec.model == "z"
    laws = [law for _, law in spec.population().groups]
    low, up = [law.cdf(lam * c) for law in laws], [law.cdf(c) for law in laws]
    cuts = [np.sort(np.concatenate([[0.0], lo[c > 0.0], hi, [1.0]])) for lo, hi in zip(low, up)]
    out = np.empty((stop - start, c.size))
    for r in range(start - start % 32, stop):
        if r % 32 == 0:
            gen, binomials = stream(2 * (r // 32)), stream(2 * (r // 32) + 1)
        if iid:
            n_low, n_up_trials = np.zeros(c.size, dtype=np.int64), np.full(c.size, m)
            for (count, _), lo, hi, edges in zip(spec.groups, low, up, cuts):
                cells = gen.multinomial(count, np.diff(edges))
                for k in range(c.size):
                    if c[k] > 0.0:
                        n_low[k] += cells[edges[1:] <= lo[k]].sum()
                    n_up_trials[k] -= cells[edges[1:] <= hi[k]].sum()
        else:
            if spec.dependence == "gumbel":
                v = _gumbel_rows(m, spec.nu, gen, 1)[0]
                p = np.empty(m)
                offset = 0
                for count, theta in spec.groups:
                    p[offset : offset + count] = spec.marginal_law(theta).quantile(v[offset : offset + count])
                    offset += count
            else:
                x = thetas[:, None] + spec.sigma * gen.standard_normal((m, spec.n1))
                y = spec.sigma * gen.standard_normal((m, spec.n2))
                xbar = x.mean(axis=1)
                ybar = y.mean(axis=1)
                df = spec.n1 + spec.n2 - 2
                pooled = (((x - xbar[:, None]) ** 2).sum(axis=1) + ((y - ybar[:, None]) ** 2).sum(axis=1)) / df
                tstat = np.sqrt(spec.n1 * spec.n2 / (spec.n1 + spec.n2)) * (xbar - ybar) / np.sqrt(pooled)
                p = special.stdtr(df, -tstat)
            p = np.sort(p)
            n_low = np.where(c > 0.0, np.searchsorted(p, lam * c, side="right"), 0)
            n_up_trials = m - np.searchsorted(p, c, side="left")
        n_up = binomials.binomial(n_up_trials, lam)
        est = (1.0 - (n_low + n_up) / m) / (1.0 - lam)
        if plan.estimator_variant == "storey_plus":
            est += 1.0 / (m * (1.0 - lam))
        if r >= start:
            out[r - start] = est
    return out


def count_pmf_under_independence(pop, lam: float, c) -> np.ndarray:
    """The exact pmf of N = #{p_rand <= lambda} under independence, one row over 0..m per threshold of ``c``.

    The randomized indicators are then independent, with P(p_rand <= lambda) = F_g(lambda c) + lambda (1 - F_g(c))
    in group g, so N is the convolution over groups of Binomial(m_g, q_g) pmfs.
    """
    from scipy.stats import binom

    out = np.empty((len(c), pop.m + 1))
    for k, ck in enumerate(c):
        pmf = np.ones(1)
        for count, law in pop.groups:
            q = law.cdf(lam * ck) + lam * (1.0 - law.cdf(ck))
            pmf = np.convolve(pmf, binom.pmf(np.arange(count + 1), count, q))
        out[k] = pmf
    return out


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


def validity_diagnostic(law, t_grid, c_grid, tol: float = 1e-12) -> ValidityReport:
    """Evaluate the validity conditions of the marginal law on finite grids."""
    from pi0rand.statdist import _increasing_grid

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


def stochastic_order_diagnostic(law, c1, c2, t_grid, tol: float = 1e-12) -> OrderReport:
    """Compare the randomized-p-value cdfs at thresholds c1 <= c2."""
    from pi0rand.pvalues import randomized_cdf
    from pi0rand.statdist import _increasing_grid, _probability

    c1, c2 = _probability(c1, "c1"), _probability(c2, "c2")
    if c1 > c2:
        raise ValueError("need c1 <= c2")
    t = _increasing_grid(t_grid, "t_grid")
    diff = randomized_cdf(t, c2, law) - randomized_cdf(t, c1, law)
    return OrderReport(float(np.max(diff)), float(np.max(-diff)), tol)
