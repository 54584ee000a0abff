import multiprocessing
import os
import warnings

import numpy as np
import pytest
from scipy.stats import binom, chi2_contingency, chisquare, kendalltau

from _oracles import dkw_band, gumbel_uniforms_reference, ks_critical, replicate_block_per_replicate
from pi0rand import pi0, simkit
from pi0rand.pi0 import _csv_text, _estimate_from_count, _grid_thresholds, _usable_cpus, h_curve
from pi0rand.pvalues import MarginalLaw, RandomizationRule, ZTestLaw, randomize_vector
from pi0rand.simkit import (
    McSummary,
    ModelSpec,
    SimulationPlan,
    _blocks,
    _grid_counts,
    _replicate_block,
    cdf_curves,
    gen_lfc_pvalues,
    gumbel_uniforms,
    run_mc,
)
from pi0rand.statdist import RngStream
from pi0rand.tuning import conditional_expectation, g_values


def _ks_uniform(sample):
    s = np.sort(sample)
    n = s.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return max(np.max(np.abs(hi - s)), np.max(np.abs(s - lo)))


def study_spec(dependence="independent", nu=1.0, m=1000):
    n_null = int(round(0.7 * m))
    return ModelSpec(
        "z",
        ((n_null, -1 / np.sqrt(50)), (m - n_null, 2.5 / np.sqrt(50))),
        n=50,
        dependence=dependence,
        nu=nu,
    )


class TestModelSpec:
    def test_pi0_and_m(self):
        spec = study_spec()
        assert spec.m == 1000 and spec.pi0 == 0.7

    def test_marginal_laws(self):
        spec = study_spec()
        pop = spec.population()
        assert pop.groups[0][1] == ZTestLaw(-1 / np.sqrt(50) * np.sqrt(50))
        assert pop.groups[1][1].theta_scaled == pytest.approx(2.5)

    def test_two_sample_ncp(self):
        spec = ModelSpec("two_sample", ((5, 0.5),), n1=10, n2=15, sigma=2.0)
        law = spec.population().groups[0][1]
        assert law.df == 23
        assert law.ncp == pytest.approx(np.sqrt(10 * 15 / 25) * 0.5 / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("z", ((5, 0.0),), n=0)
        with pytest.raises(ValueError):
            ModelSpec("two_sample", ((5, 0.0),), n1=1, n2=1)
        with pytest.raises(ValueError):
            ModelSpec("z", ((5, 0.0),), dependence="gumbel", nu=0.5)
        with pytest.raises(ValueError):
            ModelSpec("z", ((1, 0.0),))
        for bad in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="sigma"):
                ModelSpec("two_sample", ((5, 0.0),), n1=5, n2=5, sigma=bad)
        with pytest.raises(ValueError, match="nu"):
            ModelSpec("z", ((5, 0.0),), dependence="gumbel", nu=np.inf)
        with pytest.raises(ValueError, match="model"):
            ModelSpec("t", ((5, 0.0),))
        with pytest.raises(ValueError, match="dependence"):
            ModelSpec("z", ((5, 0.0),), dependence="clayton")
        with pytest.raises(ValueError, match="non-empty"):
            ModelSpec("z", ())
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                ModelSpec("z", ((5, 0.0), (5, bad)))

    def test_effect_that_overflows_once_scaled_rejected_at_construction(self):
        # A finite theta whose theta * sqrt(n), or sqrt(n1 n2 / (n1 + n2)) theta / sigma, overflows used to pass
        # here and fail only after every replicate had run.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta_scaled must be finite"):
                ModelSpec("z", ((5, 0.0), (5, 1e308)), n=50)
            with pytest.raises(ValueError, match="ncp must be finite"):
                ModelSpec("two_sample", ((5, -1e308), (5, 0.5)), n1=10, n2=10)
            with pytest.raises(ValueError, match="ncp must be finite"):
                ModelSpec("two_sample", ((5, 0.0), (5, 1.0)), n1=10, n2=10, sigma=1e-308)

    def test_population_is_built_once(self, monkeypatch):
        # The laws are built and the groups checked at construction; run_mc reads them and builds no law.
        spec = ModelSpec("two_sample", ((6, -0.2), (4, 0.7)), n1=4, n2=5, dependence="gumbel", nu=2.0)
        assert spec.population() is spec.population() and spec.m == spec.population().m == 10

        def no_law(self, theta):
            raise AssertionError("called ModelSpec.marginal_law")

        monkeypatch.setattr(ModelSpec, "marginal_law", no_law)
        for name in sorted(_KERNEL_SPECS):
            summary = run_mc(SimulationPlan(spec=_KERNEL_SPECS[name], replicates=9, seed=3))
            assert summary.metadata["spec"] == _KERNEL_SPECS[name].population().digest()
        summary = run_mc(SimulationPlan(spec=spec, replicates=9, seed=3))
        assert summary.metadata["spec"] == spec.population().digest()

    def test_pi0_counts_nonpositive_effects(self):
        # An effect of 5e-324 is an alternative, though its ncp underflows to 0 and its law is the null law.
        spec = ModelSpec("two_sample", ((6, 0.0), (4, 5e-324)), n1=5, n2=5, sigma=4.0)
        assert spec.population().groups[1][1].ncp == 0.0 and spec.population().pi0 == 1.0
        assert spec.pi0 == 0.6

    def test_fractional_group_count_rejected(self):
        # A count of 2.5 used to be truncated to 2 without a word.
        for groups in (((2.5, 0.0), (3, 1.0)), ((3, 0.0), (np.nan, 1.0))):
            with pytest.raises(ValueError, match="group count"):
                ModelSpec("z", groups)
        assert ModelSpec("z", ((2.0, 0.0), (3, 1.0))).m == 5


class TestGenLfcPvalues:
    def test_lfc_z_is_uniform(self):
        # 100 vectors of m=1000 pooled: N = 1e5 draws under the LFC.
        spec = ModelSpec("z", ((1000, 0.0),), n=50)
        pooled = np.concatenate(
            [gen_lfc_pvalues(spec, RngStream(31, i)) for i in range(100)]
        )
        assert _ks_uniform(pooled) <= ks_critical(pooled.size)

    def test_alternative_matches_closed_form_law(self):
        spec = ModelSpec("z", ((1000, 2.5 / np.sqrt(50)),), n=50)
        pooled = np.concatenate(
            [gen_lfc_pvalues(spec, RngStream(32, i)) for i in range(100)]
        )
        t = np.linspace(0.001, 0.999, 200)
        emp = np.searchsorted(np.sort(pooled), t, side="right") / pooled.size
        law = ZTestLaw(2.5)
        assert np.max(np.abs(emp - law.cdf(t))) <= dkw_band(pooled.size)

    def test_lfc_two_sample_is_uniform(self):
        spec = ModelSpec("two_sample", ((200, 0.0),), n1=6, n2=8, sigma=1.7)
        pooled = np.concatenate(
            [gen_lfc_pvalues(spec, RngStream(33, i)) for i in range(100)]
        )
        assert _ks_uniform(pooled) <= ks_critical(pooled.size)

    def test_dependent_marginals_match_laws(self):
        # The copula construction must preserve the exact marginals. A whole
        # vector shares one frailty draw, so only values of a fixed
        # coordinate across independent calls are iid; pool those.
        spec = study_spec(dependence="gumbel", nu=2.0, m=100)
        reps = 3000
        draws = np.array([gen_lfc_pvalues(spec, RngStream(34, i)) for i in range(reps)])
        t = np.linspace(0.001, 0.999, 200)
        for coord, law in ((0, ZTestLaw(-1.0)), (99, ZTestLaw(2.5))):
            col = np.sort(draws[:, coord])
            emp = np.searchsorted(col, t, side="right") / reps
            assert np.max(np.abs(emp - law.cdf(t))) <= dkw_band(reps)

    def test_reproducible(self):
        spec = study_spec()
        a = gen_lfc_pvalues(spec, RngStream(35, 0))
        b = gen_lfc_pvalues(spec, RngStream(35, 0))
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def gumbel_pairs():
    """1e5 independent bivariate draws of the nu=2 copula (one frailty each)."""
    n = 100_000
    out = np.empty((n, 2))
    for i in range(n):
        out[i] = gumbel_uniforms(2, 2.0, RngStream(4100, i))
    return out


class TestGumbelUniforms:
    def test_nu_one_is_independent(self):
        # At nu = 1 the copula is the product copula, so a single vector is
        # already iid uniform and within-vector pairs are independent.
        v = gumbel_uniforms(2 * 100_000, 1.0, RngStream(41, 0)).reshape(-1, 2)
        tau = kendalltau(v[:, 0], v[:, 1]).statistic
        # 3 sigma of the null Kendall tau for this sample size.
        se = np.sqrt(2.0 * (2 * v.shape[0] + 5) / (9.0 * v.shape[0] * (v.shape[0] - 1)))
        assert abs(tau) <= 3.0 * se

    def test_nu_two_kendall_tau(self, gumbel_pairs):
        tau = kendalltau(gumbel_pairs[:, 0], gumbel_pairs[:, 1]).statistic
        assert abs(tau - 0.5) <= 0.01

    def test_marginal_uniformity(self, gumbel_pairs):
        for coord in (0, 1):
            assert _ks_uniform(gumbel_pairs[:, coord]) <= ks_critical(gumbel_pairs.shape[0])

    def test_no_frailty_overflow_at_large_nu(self):
        # At nu = 200 the frailty S overflowed for these streams, and each whole vector was exactly 1.0 with
        # an overflow warning only.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream_id in (2, 24, 57):
                assert np.all(gumbel_uniforms(100, 200.0, RngStream(9, stream_id)) < 1.0)

    @pytest.mark.parametrize("nu", [1.0, 1.001, 2.0, 5.0, 200.0, 1000.0])
    def test_matches_the_written_out_reference(self, nu):
        # The reference draws from a plain Philox generator and writes the Kanter log S out in scalar math.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream_id in range(200):
                want = gumbel_uniforms_reference(50, nu, 2**63 + 11, stream_id)
                got = gumbel_uniforms(50, nu, RngStream(2**63 + 11, stream_id))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gumbel_uniforms(10, 0.9, RngStream(0, 0))
        with pytest.raises(ValueError):
            gumbel_uniforms(0, 2.0, RngStream(0, 0))
        for bad_nu in (np.inf, np.nan):
            with pytest.raises(ValueError, match="nu"):
                gumbel_uniforms(10, bad_nu, RngStream(0, 0))


class TestRunMc:
    def small_plan(self, **kw):
        spec = study_spec(m=100, **kw.pop("spec_kw", {}))
        defaults = dict(spec=spec, lam=0.5, c_grid=tuple(np.linspace(0, 1, 6)),
                        replicates=800, seed=51)
        defaults.update(kw)
        return SimulationPlan(**defaults)

    def test_zero_threshold_mean_is_one(self):
        summary = run_mc(self.small_plan())
        assert abs(summary.mean[0] - 1.0) <= 3.0 * summary.se_mean[0]

    def test_mean_matches_exact_curve(self):
        plan = self.small_plan()
        summary = run_mc(plan)
        h = h_curve(plan.spec.population(), plan.lam, np.asarray(plan.c_grid)).column()
        assert np.all(np.abs(summary.mean - h) <= 3.0 * summary.se_mean)

    def test_mse_identity(self):
        summary = run_mc(self.small_plan())
        recomposed = summary.variance + summary.bias**2
        assert np.max(np.abs(summary.mse - recomposed) / summary.mse) <= 1e-10

    def test_bitwise_determinism(self):
        a = run_mc(self.small_plan())
        b = run_mc(self.small_plan())
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    def test_worker_count_invariance(self):
        plan = self.small_plan(replicates=120)
        serial = run_mc(plan, workers=1)
        parallel = run_mc(plan, workers=3)
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.mse, parallel.mse)

    def test_copula_leaves_mean_alone(self):
        indep = run_mc(self.small_plan())
        dep = run_mc(self.small_plan(spec_kw=dict(dependence="gumbel", nu=2.0)))
        joint_se = np.sqrt(indep.se_mean**2 + dep.se_mean**2)
        assert np.all(np.abs(indep.mean - dep.mean) <= 3.0 * joint_se)

    def test_dependence_inflates_variance_at_one(self):
        indep = run_mc(self.small_plan())
        dep = run_mc(self.small_plan(spec_kw=dict(dependence="gumbel", nu=2.0)))
        margin = 3.0 * np.sqrt(indep.se_variance[-1] ** 2 + dep.se_variance[-1] ** 2)
        assert dep.variance[-1] > indep.variance[-1] + margin

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            self.small_plan(replicates=0)
        with pytest.raises(ValueError):
            self.small_plan(c_grid=(0.5, 0.2))
        with pytest.raises(ValueError):
            self.small_plan(lam=1.0)
        with pytest.raises(ValueError, match="stream id space"):
            self.small_plan(replicates=2**63 + 1)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_plan_rejects_bad_seed(self, bad):
        # Checked when the plan is made, not when a (possibly pooled) replicate block first keys a stream.
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer"):
            self.small_plan(seed=bad)

    def test_plan_keeps_the_seed_as_an_int(self):
        assert type(self.small_plan(seed=np.uint64(2**64 - 1)).seed) is int

    def test_workers_validation(self):
        for bad in (0, -5, 1.5):
            with pytest.raises(ValueError):
                run_mc(self.small_plan(replicates=2), workers=bad)

    def test_block_bounds(self):
        # The pool size is capped at the usable CPU count; only the bounds are
        # computed here, no pool is started.
        cpus = _usable_cpus()
        for reps, workers in ((1, 1), (1, 8), (120, 3), (7, 10**6), (10_000, 10**6)):
            blocks = _blocks(reps, workers)
            assert len(blocks) == min(workers, reps, cpus)
            assert blocks[0][0] == 0 and blocks[-1][1] == reps
            assert all(b > a for a, b in blocks)
            assert all(x[1] == y[0] for x, y in zip(blocks, blocks[1:]))

    def test_usable_cpus_are_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    def test_one_usable_cpu_gives_one_block_and_no_pool(self, monkeypatch):
        # As under `taskset -c 0`: two workers asked for, one CPU to run them on.
        def no_start(*args, **kwargs):
            raise AssertionError("a worker process started on one CPU")

        plan = self.small_plan(replicates=40)
        serial = run_mc(plan).to_csv_string()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
        monkeypatch.setattr(pi0, "_CSV_PART_ROWS", 64)
        assert _blocks(40, 2) == [(0, 40)]
        assert run_mc(plan, workers=2).to_csv_string() == serial
        rows = np.linspace(0.0, 1.0, 1001)
        assert "".join(_csv_text({}, ["x"], [rows])) == "x\n" + "".join(f"{v!r}\n" for v in rows.tolist())

    def test_a_failing_block_worker_raises_its_exception(self, monkeypatch):
        # Block 0 runs in the caller, block 1 in a worker, which raises; the caller raises it again.
        real = simkit._replicate_block

        def block(plan, start, stop):
            if start > 0:
                raise LookupError(f"block from {start} failed")
            return real(plan, start, stop)

        monkeypatch.setattr(simkit, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simkit, "_replicate_block", block)
        with pytest.raises(LookupError, match="^block from 20 failed$"):
            run_mc(self.small_plan(replicates=40), workers=2)
        assert multiprocessing.active_children() == []

    def test_long_grid(self):
        plan = self.small_plan(c_grid=tuple(np.linspace(0.0, 1.0, 70_000)), replicates=2)
        assert run_mc(plan).mean.shape == (70_000,)

    def test_csv_schema(self):
        summary = run_mc(self.small_plan(replicates=50))
        lines = summary.to_csv_string().strip().split("\n")
        header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_at] == "c,mean,variance,mse,bias,se_mean"
        assert len(lines) == header_at + 1 + 6
        assert any(ln.startswith("# seed=") for ln in lines[:header_at])

    def test_save_writes_the_csv_string(self, tmp_path):
        summary = run_mc(self.small_plan(replicates=5))
        summary.save(tmp_path / "mc.csv")
        assert (tmp_path / "mc.csv").read_bytes() == summary.to_csv_string().encode()


_KERNEL_SPECS = {
    "z-independent": study_spec(),
    "z-gumbel": study_spec(dependence="gumbel", nu=2.0),
    "two_sample-independent": ModelSpec("two_sample", ((70, -0.3), (30, 0.8)), n1=5, n2=6),
    "two_sample-gumbel": ModelSpec("two_sample", ((700, -0.3), (300, 0.8)), n1=5, n2=6,
                                   dependence="gumbel", nu=2.0),
}
# Every frailty branch of the chunked Gumbel rows: nothing drawn (nu = 1), alpha just below 1, and a
# frailty S that overflows the doubles for a share of the draws (nu = 200).
_FRAILTY_SPECS = {f"z-gumbel-nu{nu:g}": study_spec(dependence="gumbel", nu=nu) for nu in (1.0, 1.001, 200.0)}


class TestChunkedKernel:
    """Chunked generation on one re-keyed stream reproduces the per-replicate kernel."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS) + sorted(_FRAILTY_SPECS))
    @pytest.mark.parametrize("chunk_values", [1, 3000, simkit.CHUNK_VALUES])
    def test_bitwise_equal_to_per_replicate_oracle(self, name, chunk_values, monkeypatch):
        # Replicates 5..42 start and end inside a chunk for every chunk size
        # above one row (3 or 8 rows at m = 1000, 2 or 7 at m*(n1 + n2) = 1100).
        monkeypatch.setattr(simkit, "CHUNK_VALUES", chunk_values)
        plan = SimulationPlan(spec={**_KERNEL_SPECS, **_FRAILTY_SPECS}[name], replicates=42, seed=2**63 + 5,
                              estimator_variant="storey_plus" if "gumbel" in name else "plain")
        expected = replicate_block_per_replicate(plan, 5, 42)
        assert np.array_equal(_replicate_block(plan, 5, 42), expected)

    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
    def test_run_mc_workers_one_and_two(self, name):
        plan = SimulationPlan(spec=_KERNEL_SPECS[name], replicates=21, seed=77)
        serial, parallel = run_mc(plan, workers=1), run_mc(plan, workers=2)
        for field in ("mean", "variance", "mse", "se_mean", "se_variance"):
            assert np.array_equal(getattr(serial, field), getattr(parallel, field))
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_gen_lfc_pvalues_is_one_row(self):
        # The public generator maps one counted row of a chunk to its p-values, drawn from the stream as it stands.
        for spec in _KERNEL_SPECS.values():
            chunk = simkit._counted_rows(spec, RngStream(81, 0), [4, 6, 8])
            assert np.array_equal(simkit._counted_rows(spec, RngStream(81, 6), [None])[0], chunk[1])
            p = gen_lfc_pvalues(spec, RngStream(81, 6))
            assert all(np.array_equal(p[a:b], to_p(chunk[1, a:b])) for a, b, to_p, _ in simkit._count_maps(spec))
            advanced = RngStream(81, 6)
            advanced.generator.random(3)
            assert not np.array_equal(gen_lfc_pvalues(spec, advanced), p)


def _two_sample_gumbel(df, ncps, count=200):
    """Two-sample Gumbel groups of ``count`` hypotheses each, at df = n1 + n2 - 2 and the given ncps."""
    n1, n2 = {1: (1, 2), 5: (3, 4), 18: (10, 10)}[df]
    scale = np.sqrt(n1 * n2 / (n1 + n2))
    return ModelSpec("two_sample", tuple((count, ncp / scale) for ncp in ncps), n1=n1, n2=n2,
                     dependence="gumbel", nu=2.0)


class TestThresholdKernel:
    """Gumbel replicates count their copula uniforms against thresholds mapped by each group's cdf."""

    GRID = (0.0, 1e-9, 1e-6, 0.05, 0.3276, 0.5, 0.9, 0.999999, 1.0)

    @pytest.mark.parametrize("df, ncps", [(1, (-11.25, 0.0, 4.0)), (5, (-6.0, -1.0, 0.0, 2.5)),
                                          (18, (-4.0, -1.0, 0.0, 2.5, 4.0))])
    def test_bitwise_equal_to_the_quantile_oracle(self, df, ncps):
        # The oracle maps every uniform through its group's quantile and counts the p-values.
        plan = SimulationPlan(spec=_two_sample_gumbel(df, ncps), c_grid=self.GRID, replicates=300, seed=2**40 + df)
        assert np.array_equal(_replicate_block(plan, 0, 300), replicate_block_per_replicate(plan, 0, 300))

    def test_run_mc_never_calls_the_quantile(self, monkeypatch):
        def no_quantile(law, v):
            raise AssertionError("run_mc called MarginalLaw.quantile")

        monkeypatch.setattr(MarginalLaw, "quantile", no_quantile)
        for name in ("z-gumbel", "two_sample-gumbel"):
            run_mc(SimulationPlan(spec=_KERNEL_SPECS[name], replicates=20, seed=5))
        with pytest.raises(AssertionError):
            gen_lfc_pvalues(_KERNEL_SPECS["z-gumbel"], RngStream(5, 0))

    def test_a_quantile_rounded_to_one_is_not_replaced_at_c_one(self):
        # At theta*sqrt(n) = -7.07 the null quantile Q(v) rounds to exactly 1.0 for v above ~0.89, so counting
        # p-values would randomize about a tenth of the nulls at c = 1. The uniforms below 1 stay below
        # F(1) = 1, as for the exact p-values, and the mean meets the exact curve; the other columns are the
        # quantile oracle's.
        spec = ModelSpec("z", ((700, -1.0), (300, 0.5)), n=50, dependence="gumbel", nu=2.0)
        plan = SimulationPlan(spec=spec, c_grid=(0.5, 0.9, 1.0), replicates=2000, seed=3)
        kernel, oracle = _replicate_block(plan, 0, 200), replicate_block_per_replicate(plan, 0, 200)
        assert np.array_equal(kernel[:, :2], oracle[:, :2]) and not np.array_equal(kernel[:, 2], oracle[:, 2])
        summary = run_mc(plan)
        exact = h_curve(spec.population(), plan.lam, plan.c_grid).values["value"]
        assert np.all(np.abs(summary.mean - exact) <= 4.0 * summary.se_mean)

    @pytest.mark.parametrize("spec", [
        ModelSpec("z", ((700, -1.0), (300, 0.5)), n=50),
        ModelSpec("two_sample", ((700, -32.0 / np.sqrt(5.0)), (300, 2.5 / np.sqrt(5.0))), n1=10, n2=10),
    ], ids=["z", "two_sample"])
    def test_an_independent_quantile_rounded_to_one_is_not_replaced_at_c_one(self, spec):
        # The case above without the copula, and its two-sample analogue at ncp -32: ndtr rounds about a tenth
        # of the null p-values to exactly 1.0, stdtr about three quarters. Counted as p-values, the c = 1 column
        # randomized them and its mean was ~285 (z) and ~440 (two-sample) SE below h(0.5, 1).
        replicates = 2000 if spec.model == "z" else 500
        plan = SimulationPlan(spec=spec, c_grid=(0.5, 0.9, 1.0), replicates=replicates, seed=3)
        summary = run_mc(plan)
        exact = h_curve(spec.population(), plan.lam, plan.c_grid).values["value"]
        assert np.all(np.abs(summary.mean - exact) <= 4.0 * summary.se_mean)

    def test_gumbel_frailties_stay_finite_as_nu_nears_one(self):
        # At nu = 1.001 the direct positive-stable formula gave NaN frailties, with RuntimeWarnings only,
        # and a c = 0.5 mean 28 SE off the exact curve.
        spec = ModelSpec("z", ((700, -0.1), (300, 0.5)), n=50, dependence="gumbel", nu=1.001)
        plan = SimulationPlan(spec=spec, c_grid=(0.0, 0.5, 1.0), replicates=2000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_mc(plan)
        exact = h_curve(spec.population(), plan.lam, plan.c_grid).values["value"]
        assert np.all(np.abs(summary.mean - exact) <= 4.0 * summary.se_mean)

def _merged_histograms(a, b, m, min_count=10):
    """Two count samples histogrammed over 0..m, sparse adjacent bins merged."""
    rows, acc = [], np.zeros(2)
    for cell in zip(np.bincount(a, minlength=m + 1), np.bincount(b, minlength=m + 1)):
        acc = acc + cell
        if acc.sum() >= min_count:
            rows.append(acc)
            acc = np.zeros(2)
    rows[-1] = rows[-1] + acc
    return np.array(rows).T


class TestCountingKernel:
    """N = #{p_rand <= lambda} drawn as #{p <= lambda*c} + Binomial(#{p >= c}, lambda)."""

    def test_counts_match_explicit_randomization(self):
        # At m = 20 the kernel's N and the N of an explicitly randomized
        # vector, on the same LFC vectors, agree in law at every threshold.
        spec = study_spec(m=20)
        plan = SimulationPlan(spec=spec, lam=0.5, c_grid=(0.0, 0.2, 0.3276, 0.6, 1.0),
                              replicates=3000, seed=61)
        est = _replicate_block(plan, 0, plan.replicates)
        n_kernel = np.rint(spec.m * (1.0 - est * (1.0 - plan.lam))).astype(int)
        n_explicit = np.empty_like(n_kernel)
        rng = RngStream(62, 0)
        for r in range(plan.replicates):
            p = gen_lfc_pvalues(spec, RngStream(plan.seed, 2 * r))
            for k, c in enumerate(plan.c_grid):
                prand = randomize_vector(p, RandomizationRule.constant(c), rng)
                n_explicit[r, k] = np.count_nonzero(prand <= plan.lam)
        for k in range(len(plan.c_grid)):
            table = _merged_histograms(n_kernel[:, k], n_explicit[:, k], spec.m)
            assert chi2_contingency(table).pvalue > 1e-3

    def test_rao_blackwell_identity(self):
        # Averaging N over the binomial draw gives g(lambda, c), hence the
        # conditional expectation of the estimator given p.
        lam, c = 0.5, np.linspace(0.0, 1.0, 21)
        spec = study_spec()
        for i in range(5):
            p = gen_lfc_pvalues(spec, RngStream(63, i))
            n_low, n_up_trials = _grid_counts(np.sort(p), *_grid_thresholds(lam, c))
            mean_n = n_low + lam * n_up_trials
            np.testing.assert_allclose(mean_n, g_values(p, lam, c), rtol=1e-12, atol=0.0)
            cond = np.array([conditional_expectation(p, lam, ck) for ck in c])
            np.testing.assert_allclose(_estimate_from_count(mean_n, p.size, lam, "plain"), cond,
                                       rtol=1e-12, atol=0.0)

    def test_exact_zeros_and_ones(self):
        values = np.array([0.0, 0.0, 0.2, 0.5, 0.7, 1.0, 1.0, 1.0])
        lam, m = 0.5, values.size
        n_low, n_up_trials = _grid_counts(values, *_grid_thresholds(lam, np.array([0.0, 1.0])))
        # c = 0 replaces every p-value, so N is a pure Binomial(m, lambda);
        # c = 1 keeps all p-values below one and replaces the exact ones.
        assert (n_low[0], n_up_trials[0]) == (0, m)
        assert (n_low[1], n_up_trials[1]) == (4, 3)
        draws = 4000
        for k, c in enumerate((0.0, 1.0)):
            rng = RngStream(64, k)
            n = np.array([
                np.count_nonzero(randomize_vector(values, RandomizationRule.constant(c), rng) <= lam)
                for _ in range(draws)
            ])
            extra = n - n_low[k]
            assert extra.min() >= 0 and extra.max() <= n_up_trials[k]
            expected = draws * binom.pmf(np.arange(n_up_trials[k] + 1), n_up_trials[k], lam)
            observed = np.bincount(extra, minlength=n_up_trials[k] + 1)
            assert chisquare(observed, expected).pvalue > 1e-3


class TestCdfCurves:
    def test_boundary_columns(self):
        law = ZTestLaw(-1.0)
        t = np.linspace(0.0, 1.0, 101)
        table = cdf_curves(law, [0.0, 0.25, 0.5, 0.75, 1.0], t)
        assert table.x_name == "t"
        np.testing.assert_allclose(table.column("c=0"), t, atol=1e-15)
        np.testing.assert_allclose(table.column("c=1"), law.cdf(t), atol=1e-15)

    def test_null_ordering_downward_in_c(self):
        law = ZTestLaw(-1.0)  # theta = -1/sqrt(50) with n = 50
        t = np.linspace(0.0, 1.0, 501)
        table = cdf_curves(law, [0.0, 0.25, 0.5, 0.75, 1.0], t)
        cols = list(table.values.values())
        for lo, hi in zip(cols[1:], cols[:-1]):
            assert np.all(lo <= hi + 1e-12)

    def test_alternative_ordering_upward_in_c(self):
        law = ZTestLaw(1.0)
        t = np.linspace(0.0, 1.0, 501)
        table = cdf_curves(law, [0.0, 0.25, 0.5, 0.75, 1.0], t)
        cols = list(table.values.values())
        for lo, hi in zip(cols[:-1], cols[1:]):
            assert np.all(lo <= hi + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cdf_curves(ZTestLaw(0.0), [], np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            cdf_curves(ZTestLaw(0.0), [0.5], np.array([0.5, 0.2]))

    @pytest.mark.parametrize("c_list", [[0.1, 0.1000001, 0.5], [0.5, 0.25, 0.5]])
    def test_thresholds_sharing_a_label_rejected(self, c_list):
        # Columns are labelled c=%g: a second threshold with the first one's label used to replace its column.
        with pytest.raises(ValueError, match=r"distinct labels, but thresholds \[(0.1, 0.1000001|0.5, 0.5)\]"):
            cdf_curves(ZTestLaw(0.0), c_list, np.linspace(0, 1, 5))
