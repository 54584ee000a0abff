"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (visible with
``pytest -s``). The two Monte Carlo studies (independent and Gumbel nu=2,
10,000 replicates at m=1000) are shared module-scoped fixtures.
"""

import functools
import hashlib
import time

import numpy as np
import pytest

from _oracles import dkw_band
from pi0rand.pi0 import (
    EstimatorConfig,
    PopulationSpec,
    cstar_search,
    h_curve,
    h_value,
    schweder_spjotvoll,
)
from pi0rand.pvalues import (
    RandomizationRule,
    TwoSampleTLaw,
    ZTestLaw,
    randomize_vector,
    randomized_cdf,
)
from pi0rand.simkit import ModelSpec, SimulationPlan, gen_lfc_pvalues, run_mc
from pi0rand.statdist import RngStream
from pi0rand.tuning import candidate_set, conditional_expectation, g_values, select_c0

LAM = 0.5
SEED_DATASETS = 1234  # base seed of the 20 practical-selection datasets
SEED_MC = 20240601

STUDY_SPEC = ModelSpec("z", ((700, -1 / np.sqrt(50)), (300, 2.5 / np.sqrt(50))), n=50)
STUDY_SPEC_GUMBEL = ModelSpec(
    "z", ((700, -1 / np.sqrt(50)), (300, 2.5 / np.sqrt(50))), n=50,
    dependence="gumbel", nu=2.0,
)
LFC_NULL_POP = PopulationSpec(((700, ZTestLaw(0.0)), (300, ZTestLaw(2.5))))


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{label}]: PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def cstar_study():
    return cstar_search(STUDY_SPEC.population(), LAM)


@pytest.fixture(scope="module")
def mc_independent():
    plan = SimulationPlan(
        spec=STUDY_SPEC, lam=LAM, c_grid=tuple(np.linspace(0.0, 1.0, 21)),
        replicates=10_000, seed=SEED_MC,
    )
    start = time.monotonic()
    summary = run_mc(plan)
    elapsed = time.monotonic() - start
    return summary, elapsed


@pytest.fixture(scope="module")
def mc_gumbel(cstar_study):
    grid = tuple(sorted(set(np.linspace(0.0, 1.0, 21).tolist()) | {cstar_study.c_star}))
    plan = SimulationPlan(
        spec=STUDY_SPEC_GUMBEL, lam=LAM, c_grid=grid, replicates=10_000, seed=SEED_MC + 1,
    )
    return run_mc(plan), grid


@pytest.fixture(scope="module")
def practical_datasets():
    return [gen_lfc_pvalues(STUDY_SPEC, RngStream(SEED_DATASETS, i)) for i in range(20)]


def test_practical_datasets_keep_their_bytes(practical_datasets):
    # Criteria 8-10 read these datasets; an independent z model draws them from its statistics (x86-64, numpy 2.4,
    # scipy 1.17), not from the uniforms the Monte Carlo kernel counts.
    digest = hashlib.sha256(b"".join(p.tobytes() for p in practical_datasets)).hexdigest()
    assert digest == "c141aa631ca4ab839e55e068a5b6fe9e1e448ea13183d7841e4f2ff2de395471"


@criterion(1, "exact bias minimum")
def test_criterion_1_exact_bias_minimum():
    pop = STUDY_SPEC.population()
    start = time.monotonic()
    result = cstar_search(pop, LAM)
    elapsed = time.monotonic() - start
    assert abs(result.c_star - 0.3276) <= 0.005
    assert abs(result.h_min - 0.7508) <= 0.001
    assert elapsed < 1.0


@criterion(2, "h(lambda, 0) = 1")
def test_criterion_2_boundary_law():
    specs = (
        STUDY_SPEC.population(),
        LFC_NULL_POP,
        PopulationSpec(((10, TwoSampleTLaw(-0.5, 18)), (5, TwoSampleTLaw(1.5, 18)))),
        PopulationSpec(((50, ZTestLaw(0.0)),)),
    )
    for spec in specs:
        for lam in (0.25, 0.5, 0.75):
            assert abs(h_value(spec, lam, 0.0) - 1.0) <= 1e-12


@criterion(3, "LFC-null optimum at c = 1")
def test_criterion_3_lfc_null_optimum():
    result = cstar_search(LFC_NULL_POP, LAM)
    assert result.c_star == 1.0
    grid = np.linspace(0.0, 1.0, 1001)
    h = h_curve(LFC_NULL_POP, LAM, grid).column()
    assert np.all(np.diff(h) <= 1e-12)


@criterion(4, "uniformity under the LFC")
def test_criterion_4_lfc_uniformity():
    law = ZTestLaw(0.0)
    t = np.linspace(0.0, 1.0, 1000)
    n = 100_000
    for k, c in enumerate((0.0, 0.3, 0.7, 1.0)):
        assert np.max(np.abs(randomized_cdf(t, c, law) - t)) <= 1e-12
        rng = RngStream(SEED_MC + 10, k)
        p_lfc = law.quantile(rng.generator.random(n))
        draws = randomize_vector(p_lfc, RandomizationRule.constant(c), rng)
        grid = np.linspace(0.005, 0.995, 199)
        emp = np.searchsorted(np.sort(draws), grid, side="right") / n
        assert np.max(np.abs(emp - grid)) <= dkw_band(n)


@criterion(5, "validity and stochastic ordering")
def test_criterion_5_validity_and_ordering():
    t = np.linspace(0.0, 1.0, 1000)
    cs = np.linspace(0.0, 1.0, 11)
    null_law = ZTestLaw(-1.0)
    cdfs = [randomized_cdf(t, c, null_law) for c in cs]
    for vals in cdfs:
        assert np.max(vals - t) <= 1e-12
    for lo, hi in zip(cdfs[1:], cdfs[:-1]):
        assert np.all(lo <= hi + 1e-12)
    alt_law = ZTestLaw(1.0)
    cdfs_alt = [randomized_cdf(t, c, alt_law) for c in cs]
    for lo, hi in zip(cdfs_alt[:-1], cdfs_alt[1:]):
        assert np.all(lo <= hi + 1e-12)


@criterion(6, "MC agrees with the exact curve")
def test_criterion_6_mc_exact_agreement(mc_independent):
    summary, elapsed = mc_independent
    h = h_curve(STUDY_SPEC.population(), LAM, summary.c_grid).column()
    assert summary.c_grid.size == 21
    assert np.all(np.abs(summary.mean - h) <= 3.0 * summary.se_mean)
    assert elapsed < 60.0


@criterion(7, "variance and MSE qualitatives")
def test_criterion_7_variance_qualitatives(mc_independent, mc_gumbel, cstar_study):
    indep, _ = mc_independent
    gumbel, grid = mc_gumbel
    # (a) independent: variance non-increasing in c up to 2 SE noise.
    se_diff = np.sqrt(indep.se_variance[1:] ** 2 + indep.se_variance[:-1] ** 2)
    assert np.all(indep.variance[1:] <= indep.variance[:-1] + 2.0 * se_diff)
    # (b) dependence inflates the un-randomized variance; randomizing at
    # c_star deflates it again.
    margin = 3.0 * np.sqrt(gumbel.se_variance[-1] ** 2 + indep.se_variance[-1] ** 2)
    assert gumbel.variance[-1] > indep.variance[-1] + margin
    k_star = grid.index(cstar_study.c_star)
    margin = 3.0 * np.sqrt(gumbel.se_variance[-1] ** 2 + gumbel.se_variance[k_star] ** 2)
    assert gumbel.variance[k_star] < gumbel.variance[-1] - margin
    # (c) the MSE curves dip where the exact bias curve does.
    for summary in (indep, gumbel):
        c_at_min = summary.c_grid[int(np.argmin(summary.mse))]
        assert abs(c_at_min - cstar_study.c_star) <= 0.1


@criterion(8, "practical c0 selection")
def test_criterion_8_practical_c0(practical_datasets):
    dense = np.linspace(0.0, 1.0, 100_000)
    deviations = []
    for p in practical_datasets:
        sel = select_c0(p, LAM)
        deviations.append(abs(sel.c0 - 0.3276))
        dense_max = float(np.max(g_values(p, LAM, dense)))
        assert sel.g_max == dense_max
    assert float(np.median(deviations)) <= 0.05


@criterion(9, "estimator improvement at c0")
def test_criterion_9_estimator_improvement(practical_datasets):
    cfg = EstimatorConfig(LAM, "plain")
    wins = 0
    for i, p in enumerate(practical_datasets):
        sel = select_c0(p, LAM)
        rng = RngStream(SEED_DATASETS, 1000 + i)
        prand = randomize_vector(p, RandomizationRule.constant(sel.c0), rng)
        est_rand = schweder_spjotvoll(prand, cfg)
        est_lfc = schweder_spjotvoll(p, cfg)
        wins += abs(est_rand - 0.7) < abs(est_lfc - 0.7)
    assert wins >= 16


@criterion(10, "Storey-plus coherence")
def test_criterion_10_storey_plus(practical_datasets):
    p = practical_datasets[0]
    for lam in (0.25, 0.5, 0.75):
        plain = schweder_spjotvoll(p, EstimatorConfig(lam, "plain"))
        plus = schweder_spjotvoll(p, EstimatorConfig(lam, "storey_plus"))
        assert plus == plain + 1.0 / (p.size * (1.0 - lam))
    cands = candidate_set(p, LAM)
    plain_curve = np.array([conditional_expectation(p, LAM, c, "plain") for c in cands])
    plus_curve = np.array([conditional_expectation(p, LAM, c, "storey_plus") for c in cands])
    assert int(np.argmin(plain_curve)) == int(np.argmin(plus_curve))


@criterion(11, "doubly-randomized generalization")
def test_criterion_11_doubly_randomized():
    n = 100_000
    law = ZTestLaw(-1.0)
    p = law.quantile(RngStream(SEED_MC + 20, 0).generator.random(n))
    lo = randomize_vector(p, RandomizationRule(0.2, 0.4), RngStream(SEED_MC + 20, 1))
    hi = randomize_vector(p, RandomizationRule(0.5, 0.7), RngStream(SEED_MC + 20, 2))
    t = np.linspace(0.02, 0.98, 49)
    f_lo = np.searchsorted(np.sort(lo), t, side="right") / n
    f_hi = np.searchsorted(np.sort(hi), t, side="right") / n
    se = np.sqrt(f_lo * (1.0 - f_lo) / n + f_hi * (1.0 - f_hi) / n)
    assert np.all(f_lo - f_hi >= -3.0 * se)
    # Constant-threshold R reproduces the basic rule bitwise.
    p_small = RngStream(SEED_MC + 21, 0).generator.random(1000)
    for c in (0.0, 0.3276, 0.9, 1.0):
        a = randomize_vector(p_small, RandomizationRule.constant(c), RngStream(SEED_MC + 22, 3))
        b = randomize_vector(p_small, RandomizationRule(c, c), RngStream(SEED_MC + 22, 3))
        assert np.array_equal(a, b)
