"""The two-sample t marginal law in its tails.

``TwoSampleTLaw.quantile`` is scipy's ``nctdtrit`` on the reflected law,
continued by a power law past its search range; its cdf and quantile
reflect the statistic instead of forming ``1 - u``. The references below
are scipy's own routines on the reflected law and frozen mpmath values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from _oracles import ks_critical
from pi0rand import statdist
from pi0rand.pvalues import TwoSampleTLaw
from pi0rand.simkit import ModelSpec, SimulationPlan, gen_lfc_pvalues, run_mc
from pi0rand.statdist import RngStream
from pi0rand.tuning import g_values

LAWS = ((1, 0.5), (1, -0.5), (2, 3.0), (18, -1.0), (18, 2.5), (60, 8.0))  # (df, ncp)
EDGES = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-18, 0.5, 1.0 - 1e-16, 1.0])
TINY = np.finfo(float).tiny


def reflected_reference(v, df, ncp):
    """The quantile as scipy's bracketing search gives it: F_t(F_nct^{-1}(v; -ncp))."""
    return special.stdtr(df, special.nctdtrit(df, -ncp, v))


@pytest.mark.parametrize("df, ncp", LAWS)
def test_quantile_agrees_with_reflected_nctdtrit(df, ncp):
    v = np.concatenate([RngStream(4400, df).generator.random(10_000), np.logspace(-300, -1, 600)])
    # nctdtrit searches |y| <= 2**512 only; past that (v below ~1e-154 at df 1)
    # the reference is wrong and test_search_continues_past_its_range applies.
    v = v[np.abs(special.nctdtrit(df, -ncp, v)) < 2.0**511]
    assert_allclose(TwoSampleTLaw(ncp, df).quantile(v), reflected_reference(v, df, ncp), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("df, ncp", LAWS)
def test_upper_tail_round_trip(df, ncp):
    # As v -> 1 the quantile's slope grows without bound (at df 60, ncp 8 a
    # change of 1e-16 in v moves p by 1e-2), so p itself is ill-conditioned
    # there; what can be asked is that the cdf maps it back to v.
    law = TwoSampleTLaw(ncp, df)
    v = 1.0 - np.logspace(-16, -1, 300)
    assert np.max(np.abs(law.cdf(law.quantile(v)) - v)) <= 1e-14


@pytest.mark.parametrize("df, ncp", LAWS)
def test_edges_are_finite_and_ordered(df, ncp):
    law = TwoSampleTLaw(ncp, df)
    for f in (law.cdf, law.quantile):
        out = f(EDGES)
        assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out) >= 0.0)
        assert out[0] == 0.0 and out[-1] == 1.0
        assert all(isinstance(f(float(u)), float) for u in EDGES)


@pytest.mark.parametrize("df", [1, 2, 4, 18, 200])
@pytest.mark.parametrize("ncp", [-8.0, -1.0, 0.5, 8.0, 40.0])
def test_no_u_raises_or_leaves_the_unit_interval(df, ncp):
    # Far in the lower tail of a strongly null law scipy's nctdtr and
    # nctdtrit lose their relative precision, so this asks for values in
    # [0, 1] and, from 0 through the subnormals to the smallest normal
    # float, for order; not for the round trip.
    u = np.concatenate([[0.0, 5e-324, 1e-310, TINY], np.logspace(-300, -1, 100), 1.0 - np.logspace(-16, -1, 20), [1.0]])
    law = TwoSampleTLaw(ncp, df)
    for out in (law.cdf(u), law.quantile(u)):
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out[:4]) >= 0.0)


def test_cdf_at_1e_18_no_longer_raises():
    law = TwoSampleTLaw(1.0, 18)
    assert 0.0 < law.cdf(1e-18) < 1e-15
    assert 0.0 < law.quantile(1e-18) < 1e-18


# (ncp, df): (cdf(1e-18), quantile(1e-18)), derived offline with mpmath at 40
# digits: the t quantile by bisection on the incomplete-beta cdf, and
# F_nct(y; df, d) = int_{z < -d} phi(z) P(chi2_df <= df (z + d)^2 / y^2) dz,
# which matched the chi-square mixture int Phi(y sqrt(s / df) - d) f(s) ds to
# better than 1e-20 at every point used.
FROZEN_1E_18 = {
    (1.0, 18): (5.6256551407010611e-17, 1.7594298530804685e-20),
    (2.5, 18): (1.0276437996403831e-14, 9.2195674208269542e-23),
    (-1.0, 18): (1.0647862859051713e-20, 9.253441174733056e-17),
    (3.0, 2): (1.9999593129839026e-17, 5.0001017196095772e-20),
}


@pytest.mark.parametrize("law", FROZEN_1E_18)
def test_tails_match_frozen_mpmath_values(law):
    cdf, quantile = FROZEN_1E_18[law]
    assert_allclose(TwoSampleTLaw(*law).cdf(1e-18), cdf, rtol=1e-10, atol=0.0)
    assert_allclose(TwoSampleTLaw(*law).quantile(1e-18), quantile, rtol=1e-10, atol=0.0)


def test_reflected_cdf_matches_the_complement_form_in_the_bulk():
    u = np.linspace(0.001, 0.999, 999)
    for df, ncp in LAWS:
        new = TwoSampleTLaw(ncp, df).cdf(u)
        old = 1.0 - special.nctdtr(df, ncp, special.stdtrit(df, 1.0 - u))
        # nctdtr gives NaN far in the lower tail of a large ncp (df 60, ncp 8,
        # u >= 0.98); the reflected form reads that tail as 1 - 0.
        valid = np.isfinite(old)
        assert np.all(np.isfinite(new)) and np.all(new[~valid] == 1.0)
        assert np.max(np.abs(new[valid] - old[valid])) <= 4e-14


@given(
    df=st.sampled_from([1, 2, 5, 18, 60]),
    ncp=st.floats(-0.5, 8.0).filter(lambda x: abs(x) >= 1e-12),
    lo=st.floats(-300.0, -1.0),
)
@settings(max_examples=60, deadline=None)
def test_cdf_inverts_quantile_down_to_1e_300(df, ncp, lo):
    # Stops at ncp = -0.5: below it scipy's nctdtr is only good to about 1e-8
    # relative in the lower tail of the reflected law; and for |ncp| under
    # about 3e-14 nctdtr returns 0 for its whole lower tail past y ~ -1e3
    # (both in CHANGES.md).
    law = TwoSampleTLaw(ncp, df)
    u = np.logspace(lo, np.log10(0.999), 80)
    q = law.quantile(u)
    assert np.all(np.isfinite(q)) and np.all((q >= 0.0) & (q <= 1.0))
    assert np.all(np.diff(q) >= 0.0)
    normal = q >= TINY  # a quantile that underflows keeps no relative precision
    assert_allclose(law.cdf(q[normal]), u[normal], rtol=1e-9, atol=0.0)


def test_student_t_quantile_repairs_the_far_lower_tail():
    # The central t quantile inside TwoSampleTLaw.cdf: stdtrit(3, 1e-200) is
    # off by a factor of 7 and stdtrit(3, 1e-250) is +inf.
    p = np.logspace(-300, -150, 31)
    for df in (3, 5, 18):
        x = statdist._t_quantile(p, df)
        assert np.all(x < 0.0)
        assert_allclose(special.stdtr(df, x), p, rtol=1e-12, atol=0.0)


def test_search_continues_past_its_range():
    # At df 1 the quantile of 1e-200 is near -1e200, beyond nctdtrit's 2**512.
    # There F(y) = C / |y| with C = sqrt(2/pi) (phi(ncp) - ncp Phi(-ncp)),
    # since T = (Z + ncp) / |W| for standard normals Z and W.
    v = np.logspace(-300, -160, 15)
    for ncp in (-0.5, 0.0, 0.5, 4.0):
        c = np.sqrt(2.0 / np.pi) * (np.exp(-0.5 * ncp**2) / np.sqrt(2.0 * np.pi) - ncp * special.ndtr(-ncp))
        assert_allclose(statdist._nct_search(1, ncp, v), -c / v, rtol=1e-10, atol=0.0)


def two_sample_gumbel():
    # The benchmark's laws: ncp -1 and 2.5 at n1 = n2 = 10.
    return ModelSpec("two_sample", ((70, -0.4472135954999579), (30, 1.118033988749895)),
                     n1=10, n2=10, dependence="gumbel", nu=2.0)


def test_gumbel_two_sample_groups_follow_their_laws():
    # One vector shares one frailty, so only a fixed coordinate across
    # independent vectors is iid; test one coordinate of each group.
    spec = two_sample_gumbel()
    reps = 2000
    draws = np.array([gen_lfc_pvalues(spec, RngStream(4403, i)) for i in range(reps)])
    for coord, (_, theta) in ((0, spec.groups[0]), (99, spec.groups[1])):
        law = spec.marginal_law(theta)
        col = np.sort(draws[:, coord])
        cdf = law.cdf(col)
        ks = max(np.max(np.arange(1, reps + 1) / reps - cdf), np.max(cdf - np.arange(reps) / reps))
        assert ks <= ks_critical(reps)


def test_gumbel_two_sample_run_is_worker_count_invariant():
    plan = SimulationPlan(spec=two_sample_gumbel(), c_grid=(0.0, 0.5, 1.0), replicates=40, seed=4404)
    serial = run_mc(plan, workers=1)
    parallel = run_mc(plan, workers=2)
    for name in ("mean", "variance", "mse"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


@pytest.mark.xfail(strict=True, reason="scipy's nctdtr loses the lower tail of a positive non-centrality (see ROADMAP.md)")
def test_cdf_is_monotone_in_the_lower_tail_at_the_study_df():
    # At df 18, ncp -4 the cdf near u = 1e-9 is about 1e-19 and 2-16% off an
    # mpmath quadrature (two forms agree), and it decreases at places on this grid.
    u = np.logspace(-12, -6, 601)
    assert np.all(np.diff(TwoSampleTLaw(-4.0, 18).cdf(u)) >= 0.0)


@pytest.mark.xfail(strict=True, reason="scipy's nctdtr is NaN in a band around a large non-centrality's location, "
                   "where TwoSampleTLaw.cdf reads it as 0 or 1 (ROADMAP item 3)")
def test_independent_two_sample_kernel_meets_its_data_in_the_df_1_band():
    # At df 1 and ncp 1e8 an alternative p-value is about |N| / (pi ncp) for a standard normal N, so the grid points
    # u = 1 / (pi ncp) and 2u lie in the band where nctdtr is NaN: the cdf reads 0, 0 and 1 at u / 2, u and 2u, where
    # the true values are about 0.38, 0.68 and 0.95. run_mc counts uniforms against that cdf;
    # gen_lfc_pvalues draws T and stays exact. The reference is the estimator's expectation given each of 2000
    # generated vectors, counted directly, and the gate is 4 SE of the difference of the two means.
    ncp, reps = 1e8, 2000
    spec = ModelSpec("two_sample", ((500, -0.5), (500, ncp * np.sqrt(1.5))), n1=1, n2=2)
    u = 1.0 / (np.pi * ncp)
    plan = SimulationPlan(spec=spec, c_grid=(u, 2.0 * u), replicates=reps, seed=3)
    summary = run_mc(plan)
    c = np.asarray(plan.c_grid)
    g = np.array([g_values(gen_lfc_pvalues(spec, RngStream(4, i)), plan.lam, c) for i in range(reps)])
    ref = (1.0 - g / spec.m) / (1.0 - plan.lam)
    se = np.sqrt(summary.se_mean**2 + ref.var(axis=0) / reps)
    assert np.all(np.abs(summary.mean - ref.mean(axis=0)) <= 4.0 * se)
