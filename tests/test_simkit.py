import multiprocessing
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, chi2_contingency, chisquare, kendalltau, ks_2samp

from _oracles import count_pmf_under_independence, dkw_band, gumbel_uniforms_reference, ks_critical
from _oracles import replicate_block_per_replicate, two_sample_t_per_observation
from pi0rand import _tableio, cli, pi0, simkit
from pi0rand._tableio import _csv_text, _usable_cpus
from pi0rand.pi0 import _estimate_from_count, _grid_thresholds, h_curve
from pi0rand.pvalues import MarginalLaw, RandomizationRule, ZTestLaw, randomize_vector
from pi0rand.simkit import (
    ModelSpec,
    SimulationPlan,
    _blocks,
    _grid_counts,
    _gumbel_rows,
    _replicate_block,
    cdf_curves,
    gen_lfc_pvalues,
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

    def test_gumbel_at_nu_one_is_the_independent_spec(self):
        # At nu = 1 the Gumbel copula is the product copula: one law, one spec, one kernel and one stream layout.
        for model, design in (("z", dict(n=40)), ("two_sample", dict(n1=4, n2=7, sigma=1.5))):
            indep = ModelSpec(model, ((6, -0.2), (4, 0.7)), **design)
            for nu in (1, 1.0, np.float64(1.0)):
                gumbel = ModelSpec(model, ((6, -0.2), (4, 0.7)), **design, dependence="gumbel", nu=nu)
                assert gumbel == indep and (gumbel.dependence, gumbel.nu) == ("independent", 1.0)
            assert ModelSpec(model, ((6, -0.2), (4, 0.7)), **design, dependence="gumbel", nu=1.001) != indep

    def test_pi0_counts_nonpositive_effects(self):
        # An effect of 5e-324 is an alternative, though its ncp underflows to 0 and its law is the null law.
        spec = ModelSpec("two_sample", ((6, 0.0), (4, 5e-324)), n1=5, n2=5, sigma=4.0)
        assert spec.population().groups[1][1].ncp == 0.0
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
        # And the interior null at theta*sqrt(n) = -1, the law behind the paper's bias. run_mc counts uniforms
        # against the cdf of an independent z model and never draws its statistics, so this is their check.
        t = np.linspace(0.001, 0.999, 200)
        for theta_scaled, seed in ((2.5, 32), (-1.0, 36)):
            spec = ModelSpec("z", ((1000, theta_scaled / np.sqrt(50)),), n=50)
            pooled = np.concatenate([gen_lfc_pvalues(spec, RngStream(seed, i)) for i in range(100)])
            emp = np.searchsorted(np.sort(pooled), t, side="right") / pooled.size
            assert np.max(np.abs(emp - ZTestLaw(theta_scaled).cdf(t))) <= dkw_band(pooled.size)

    def test_lfc_two_sample_is_uniform(self):
        spec = ModelSpec("two_sample", ((200, 0.0),), n1=6, n2=8, sigma=1.7)
        pooled = np.concatenate(
            [gen_lfc_pvalues(spec, RngStream(33, i)) for i in range(100)]
        )
        assert _ks_uniform(pooled) <= ks_critical(pooled.size)

    @pytest.mark.parametrize("n1, n2", [(1, 2), (10, 10), (51, 51)], ids=["df1", "df18", "df100"])
    def test_two_sample_t_has_the_law_of_its_raw_data_statistic(self, n1, n2):
        # The kernel draws T from its sufficient statistics (Z, V) and the ncp of its law; the oracle draws it from
        # n1 + n2 normals of standard deviation sigma. A two-sample KS test of 10^6 draws each, at a false-alarm
        # rate of 1e-3 over the three dfs, drawn in chunks.
        theta, sigma, size = 1.5, 1.3, 10**6
        spec = ModelSpec("two_sample", ((10_000, theta),), n1=n1, n2=n2, sigma=sigma)
        new = -simkit._counted_rows(spec, RngStream(606, n1).generator, size // spec.m).ravel()
        gen = np.random.default_rng([606, n1])
        old = np.concatenate([two_sample_t_per_observation(gen, theta, n1, n2, sigma, 20_000) for _ in range(50)])
        assert ks_2samp(new, old).pvalue > 1e-3 / 3

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
    """1e5 independent bivariate draws of the nu=2 copula (one frailty each), row i from stream (4100, i)."""
    rng = RngStream(4100, 0)

    def row(stream_id):
        rng.rekey(stream_id)
        return _gumbel_rows(2, 2.0, rng.generator, 1)[0]

    return np.array([row(i) for i in range(100_000)])


class TestGumbelUniforms:
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
                assert np.all(_gumbel_rows(100, 200.0, RngStream(9, stream_id).generator, 1)[0] < 1.0)

    @pytest.mark.parametrize("nu", [1.001, 2.0, 5.0, 200.0, 1000.0])
    def test_matches_the_written_out_reference(self, nu):
        # The reference draws from a plain Philox generator and writes the Kanter log S out in scalar math.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream_id in range(200):
                want = gumbel_uniforms_reference(50, nu, 2**63 + 11, stream_id)
                got = _gumbel_rows(50, nu, RngStream(2**63 + 11, stream_id).generator, 1)[0]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestRunMc:
    def small_plan(self, **kw):
        spec = study_spec(m=100, **kw.pop("spec_kw", {}))
        defaults = dict(spec=spec, lam=0.5, c_grid=tuple(np.linspace(0, 1, 6)),
                        replicates=800, seed=51)
        defaults.update(kw)
        return SimulationPlan(**defaults)

    @pytest.fixture(scope="class")
    def exact_gate(self):
        # h(lambda, 0) = 1, and the c = 0 column is pure Binomial(m, lambda) draws. Per threshold the bound is
        # z* sqrt(Var_exact(c) / reps), z* = 4.305 from a Sidak family false-alarm rate of 1e-4 over the six.
        plan = self.small_plan(replicates=20_000)
        pop, c = plan.spec.population(), np.asarray(plan.c_grid)
        h = h_curve(pop, plan.lam, c).column()
        bound = 4.305 * np.sqrt(pi0._estimator_variance(pop, plan.lam, c) / plan.replicates)
        return run_mc(plan).mean, h, bound

    def test_zero_threshold_mean_is_one(self, exact_gate):
        mean, h, bound = exact_gate
        assert h[0] == 1.0
        assert abs(mean[0] - 1.0) <= bound[0]

    def test_mean_matches_exact_curve(self, exact_gate):
        mean, h, bound = exact_gate
        assert np.all(np.abs(mean - h) <= bound)

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

    def test_independent_z_is_gumbel_at_nu_one(self):
        # At nu = 1 the copula is the product copula, stored as the independent spec: the CSVs are identical.
        indep = run_mc(self.small_plan(replicates=100))
        gumbel = run_mc(self.small_plan(replicates=100, spec_kw=dict(dependence="gumbel", nu=1.0)))
        for name in ("mean", "variance", "mse", "se_mean", "se_variance"):
            assert np.array_equal(getattr(indep, name), getattr(gumbel, name))
        assert indep.to_csv_string() == gumbel.to_csv_string()

    def test_two_sample_statistic_that_overflows_counts_exactly(self):
        # At ncp -+8.2e306 and df 1, about one x in 28 overflows the doubles. It used to raise an overflow warning,
        # and without it an x of -inf counted at the -inf threshold: the c = 0 mean read 0.9666 (se 0.0072) and the
        # c = 1 mean 0.9847, where both are exactly 1. The null p-values are 1 and the alternative ones 0.
        spec = ModelSpec("two_sample", ((5, -1e307), (5, 1e307)), n1=1, n2=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_mc(SimulationPlan(spec=spec, c_grid=(0.0, 0.5, 1.0), replicates=2000, seed=1))
            p = np.concatenate([gen_lfc_pvalues(spec, RngStream(1, k)) for k in range(200)])
        # At c = 0, N is Binomial(m, lambda) whatever the p-values: the estimate has variance 1 / m at lambda = 1/2.
        assert abs(summary.mean[0] - 1.0) <= 4.0 * np.sqrt(1.0 / spec.m / summary.metadata["replicates"])
        assert (summary.mean[2], summary.variance[2]) == (1.0, 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_an_independent_spec_keeps_the_product_copula(self):
        # A nu given with independence is checked, then replaced by 1, so the CSV names the copula that ran.
        with pytest.raises(ValueError, match="^nu must be finite and >= 1, got 0.5$"):
            study_spec(nu=0.5)
        plan = self.small_plan(replicates=40, spec_kw=dict(nu=2.0))
        assert plan.spec.nu == 1.0 and study_spec(dependence="gumbel", nu=2.0).nu == 2.0
        assert "\n# nu=1.0\n" in run_mc(plan).to_csv_string()

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
        # The last group, (reps - 1) // 32, draws its binomials from stream 2 * group + 1 < 2^64.
        assert self.small_plan(replicates=2**68).replicates == 2**68
        with pytest.raises(ValueError, match="stream id space"):
            self.small_plan(replicates=2**68 + 1)

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
            assert len(blocks) == min(workers, -(-reps // simkit.GROUP), cpus)
            assert blocks[0][0] == 0 and blocks[-1][1] == reps
            assert all(b > a for a, b in blocks)
            assert all(x[1] == y[0] for x, y in zip(blocks, blocks[1:]))

    def test_blocks_are_cut_at_multiples_of_the_group(self, monkeypatch):
        # Each group's streams are read from its first row, so a block that starts inside a group would
        # draw that group's rows twice.
        assert simkit.GROUP == 32
        for cpus in (2, 3, 7, 64):
            monkeypatch.setattr(_tableio, "_usable_cpus", lambda: cpus)
            for reps in (1, 31, 32, 33, 100, 1000, 10_000):
                blocks = _blocks(reps, 10**6)
                assert len(blocks) == min(cpus, -(-reps // 32))
                assert all(a % 32 == 0 for a, _ in blocks)
                assert blocks[0][0] == 0 and blocks[-1][1] == reps
                assert all(b > a for a, b in blocks) and all(x[1] == y[0] for x, y in zip(blocks, blocks[1:]))

    def test_usable_cpus_are_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    def test_one_usable_cpu_gives_one_block_and_no_pool(self, monkeypatch, tmp_path, capsys):
        # As under `taskset -c 0`: two workers asked for, one CPU to run them on. One patch of the usable CPUs
        # reaches run_mc's blocks and the writer's and the reader's parts.
        def no_start(*args, **kwargs):
            raise AssertionError("a worker process started on one CPU")

        plan = self.small_plan(replicates=40)
        serial = run_mc(plan).to_csv_string()
        monkeypatch.setattr(_tableio, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
        monkeypatch.setattr(_tableio, "_CSV_PART_ROWS", 64)
        assert _blocks(40, 2) == [(0, 40)]
        assert run_mc(plan, workers=2).to_csv_string() == serial
        rows = np.linspace(0.0, 1.0, 1001)
        assert "".join(_csv_text({}, ["x"], [rows])) == "x\n" + "".join(f"{v!r}\n" for v in rows.tolist())
        src, out = tmp_path / "p.csv", tmp_path / "out.csv"  # two parts' worth of rows, read and written in one
        src.write_text("p_lfc\n" + "".join(f"{v!r}\n" for v in rows[1:2 * 64 + 2].tolist()))
        assert cli.main(["analyze", str(src), "--out", str(out)]) == 0, capsys.readouterr().err
        assert out.read_text().count("\n") == 4 + 1 + 2 * 64 + 1  # metadata, header and rows

    def test_a_failing_block_worker_raises_its_exception(self, monkeypatch):
        # Block 0 runs in the caller, block 1 in a worker, which raises; the caller raises it again.
        real = simkit._replicate_block

        def block(plan, start, stop):
            if start > 0:
                raise LookupError(f"block from {start} failed")
            return real(plan, start, stop)

        monkeypatch.setattr(_tableio, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simkit, "_replicate_block", block)
        with pytest.raises(LookupError, match="^block from 32 failed$"):
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

    def test_csv_names_its_configuration(self):
        # The spec digest covers the marginals only; the model, the copula and nu have lines of their own.
        for kw, want in ((dict(), ["# model=z", "# dependence=independent", "# nu=1.0"]),
                         (dict(dependence="gumbel", nu=2.0), ["# model=z", "# dependence=gumbel", "# nu=2.0"])):
            header = run_mc(self.small_plan(replicates=5, spec_kw=kw)).to_csv_string().split("\n")[:9]
            assert header[:2] == ["# seed=51", f"# spec={study_spec(m=100).population().digest()}"]
            assert header[2:5] == want


_KERNEL_SPECS = {
    "z-independent": study_spec(),
    "z-gumbel": study_spec(dependence="gumbel", nu=2.0),
    "two_sample-independent": ModelSpec("two_sample", ((70, -0.3), (30, 0.8)), n1=5, n2=6),
    "two_sample-gumbel": ModelSpec("two_sample", ((700, -0.3), (300, 0.8)), n1=5, n2=6,
                                   dependence="gumbel", nu=2.0),
}
# The chunked Gumbel rows near and far from the product copula: nu = 1, which is stored as the independent spec
# and counts cells, alpha just below 1, and a frailty S that overflows the doubles for a share of the draws (nu = 200).
_FRAILTY_SPECS = {f"z-gumbel-nu{nu:g}": study_spec(dependence="gumbel", nu=nu) for nu in (1.0, 1.001, 200.0)}


class TestChunkedKernel:
    """The group kernel on one re-keyed stream reproduces the per-replicate kernel."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS) + sorted(_FRAILTY_SPECS))
    @pytest.mark.parametrize("chunk_values", [1, 3000, simkit.CHUNK_VALUES])
    def test_bitwise_equal_to_per_replicate_oracle(self, name, chunk_values, monkeypatch):
        # Gumbel rows at nu > 1 and two-sample independent rows come in chunks: replicates 5..42 start and end
        # inside a chunk for every chunk size above one row (3 or 8 rows at m = 1000, 30 or 81 at m = 100).
        # Rows of iid uniforms (z independent, so Gumbel at nu = 1) draw one multinomial per group of replicates,
        # which no chunk size may change.
        monkeypatch.setattr(simkit, "CHUNK_VALUES", chunk_values)
        plan = SimulationPlan(spec={**_KERNEL_SPECS, **_FRAILTY_SPECS}[name], replicates=42, seed=2**63 + 5,
                              estimator_variant="storey_plus" if "gumbel" in name else "plain")
        expected = replicate_block_per_replicate(plan, 5, 42)
        assert np.array_equal(_replicate_block(plan, 5, 42), expected)

    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, name):
        # 40 replicates end 8 rows into the second group; they are the first 40 of a 100-replicate run.
        plan = SimulationPlan(spec=_KERNEL_SPECS[name], c_grid=(0.0, 0.3, 0.7, 1.0), replicates=100, seed=91)
        longer = _replicate_block(plan, 0, 100)
        assert np.array_equal(_replicate_block(replace(plan, replicates=40), 0, 40), longer[:40])
        assert np.array_equal(np.concatenate([_replicate_block(plan, 0, 37), _replicate_block(plan, 37, 100)]), longer)

    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
    def test_run_mc_workers_one_and_two(self, name):
        plan = SimulationPlan(spec=_KERNEL_SPECS[name], replicates=40, seed=77)  # two groups: two blocks
        serial, parallel = run_mc(plan, workers=1), run_mc(plan, workers=2)
        for field in ("mean", "variance", "mse", "se_mean", "se_variance"):
            assert np.array_equal(getattr(serial, field), getattr(parallel, field))
        assert serial.to_csv_string() == parallel.to_csv_string()

    def test_gen_lfc_pvalues_is_one_row(self):
        # The public generator maps one counted row of a chunk to its p-values, drawn from the stream as it stands:
        # the copula uniforms of both Gumbel specs and the -T of two-sample independent. Not z independent, whose
        # kernel draws cell counts while the generator draws its z statistics (pinned in test_acceptance.py).
        for spec in (spec for name, spec in _KERNEL_SPECS.items() if name != "z-independent"):
            # A chunk's rows are the rows that calls on the same stream draw one at a time.
            chunk = simkit._counted_rows(spec, RngStream(81, 6).generator, 3)
            rng = RngStream(81, 6)
            p = [gen_lfc_pvalues(spec, rng) for _ in chunk]
            for row, p_row in zip(chunk, p):
                assert all(np.array_equal(p_row[a:b], to_p(row[a:b])) for a, b, to_p, _ in simkit._count_maps(spec))
            advanced = RngStream(81, 6)
            advanced.generator.random(3)
            assert not np.array_equal(gen_lfc_pvalues(spec, advanced), p[0])


def _two_sample_gumbel(df, ncps, count=200):
    """Two-sample Gumbel groups of ``count`` hypotheses each, at df = n1 + n2 - 2 and the given ncps."""
    n1, n2 = {1: (1, 2), 5: (3, 4), 18: (10, 10)}[df]
    scale = np.sqrt(n1 * n2 / (n1 + n2))
    return ModelSpec("two_sample", tuple((count, ncp / scale) for ncp in ncps), n1=n1, n2=n2,
                     dependence="gumbel", nu=2.0)


class TestThresholdKernel:
    """Replicates count their copula or iid uniforms against thresholds mapped by each group's cdf."""

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
        for name in ("z-independent", "z-gumbel", "two_sample-gumbel"):
            run_mc(SimulationPlan(spec=_KERNEL_SPECS[name], replicates=20, seed=5))
        with pytest.raises(AssertionError):
            gen_lfc_pvalues(_KERNEL_SPECS["z-gumbel"], RngStream(5, 0))

    def test_a_quantile_rounded_to_one_is_not_replaced_at_c_one(self):
        # At theta*sqrt(n) = -7.07 the null quantile Q(v) rounds to exactly 1.0 for v above ~0.89, so counting
        # p-values would randomize about a tenth of the nulls at c = 1. The uniforms below 1 stay below
        # F(1) = 1, as for the exact p-values, and the mean meets the exact curve. Without c = 1 the kernel is the
        # quantile oracle; with it, the oracle's c = 1 column differs (and, since a group draws its binomials row
        # after row, so do its later draws).
        spec = ModelSpec("z", ((700, -1.0), (300, 0.5)), n=50, dependence="gumbel", nu=2.0)
        plan = SimulationPlan(spec=spec, c_grid=(0.5, 0.9, 1.0), replicates=2000, seed=3)
        below_one = replace(plan, c_grid=(0.5, 0.9))
        assert np.array_equal(_replicate_block(below_one, 0, 200), replicate_block_per_replicate(below_one, 0, 200))
        assert not np.array_equal(_replicate_block(plan, 0, 200)[:, 2], replicate_block_per_replicate(plan, 0, 200)[:, 2])
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

    def test_a_cdf_not_monotone_at_the_last_bit_counts_each_threshold(self, monkeypatch):
        # The patched cdf gives t = 0.1 and t = 0.2 a value above that of the next double up, a nextafter swap, so
        # a group's thresholds are not in the order of t. The kernel raises nothing and still counts #{V <= F(t)}
        # at each t: it equals the oracle, which counts the cells whose upper edge is at most F(t).
        real = ZTestLaw.cdf

        def cdf(law, t):
            out = real(law, t)
            for lo in (0.1, 0.2):  # lambda * 0.2 = 0.1: a low and an up threshold of the grid
                hi = np.nextafter(lo, 1.0)
                out = np.where(t == lo, np.nextafter(real(law, hi), 1.0), np.where(t == hi, real(law, lo), out))
            return out

        monkeypatch.setattr(ZTestLaw, "cdf", cdf)
        law = ZTestLaw(-1.0)
        assert law.cdf(0.1) > law.cdf(np.nextafter(0.1, 1.0)) and law.cdf(0.2) > law.cdf(np.nextafter(0.2, 1.0))
        plan = SimulationPlan(spec=study_spec(), c_grid=(0.0, 0.2, np.nextafter(0.2, 1.0), 0.5, 1.0), replicates=70,
                              seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_replicate_block(plan, 3, 70), replicate_block_per_replicate(plan, 3, 70))

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


class TestExactCountLaw:
    """Under independence the replicate histogram of N = #{p_rand <= lambda} follows the exact pmf of N."""

    @pytest.mark.parametrize("spec, replicates, seed", [
        (study_spec(), 20_000, 2718),
        (ModelSpec("two_sample", ((70, -1.0 / np.sqrt(5.0)), (30, 2.5 / np.sqrt(5.0))), n1=10, n2=10), 10_000, 2719),
    ], ids=["z", "two_sample-df18"])
    def test_replicate_histogram_fits_the_exact_pmf(self, spec, replicates, seed):
        # z counts uniforms against each group's cdf; two-sample counts its raw-data statistics, so its histogram
        # is checked against TwoSampleTLaw.cdf. Per threshold a Pearson chi-square over cells pooled to >= 5
        # expected, at the Sidak level of a family false-alarm rate of 1e-4 over the 21 thresholds.
        plan = SimulationPlan(spec=spec, replicates=replicates, seed=seed)
        c = np.asarray(plan.c_grid)
        n = np.rint(spec.m * (1.0 - (1.0 - plan.lam) * _replicate_block(plan, 0, plan.replicates))).astype(int)
        pmf = count_pmf_under_independence(spec.population(), plan.lam, c)
        level = 1.0 - (1.0 - 1e-4) ** (1.0 / c.size)
        for k in range(c.size):
            cells = np.array([np.bincount(n[:, k], minlength=spec.m + 1), replicates * pmf[k]])
            observed, expected = _merged_cells(cells, lambda col: col[1] >= 5.0)
            assert chisquare(observed, expected).pvalue > level, c[k]


def _merged_cells(table, full):
    """The columns of a two-row histogram table merged, from the left, until ``full`` holds for the merged column;
    a last column that never gets full joins the one before it."""
    cols, acc = [], np.zeros(2)
    for col in table.T:
        acc = acc + col
        if full(acc):
            cols.append(acc)
            acc = np.zeros(2)
    cols[-1] = cols[-1] + acc
    return np.array(cols).T


class TestCountingKernel:
    """N = #{p_rand <= lambda} drawn as #{p <= lambda*c} + Binomial(#{p >= c}, lambda)."""

    def test_counts_match_explicit_randomization(self):
        # At m = 20 the kernel's N and the N of an explicitly randomized
        # vector agree in law at every threshold. On each group's data stream the
        # kernel counts uniforms and gen_lfc_pvalues draws the z statistics.
        spec = study_spec(m=20)
        plan = SimulationPlan(spec=spec, lam=0.5, c_grid=(0.0, 0.2, 0.3276, 0.6, 1.0),
                              replicates=3000, seed=61)
        est = _replicate_block(plan, 0, plan.replicates)
        n_kernel = np.rint(spec.m * (1.0 - est * (1.0 - plan.lam))).astype(int)
        n_explicit = np.empty_like(n_kernel)
        rng = RngStream(62, 0)
        for r in range(plan.replicates):
            if r % simkit.GROUP == 0:  # the group's data stream; each call draws the next replicate's vector
                data = RngStream(plan.seed, 2 * (r // simkit.GROUP))
            p = gen_lfc_pvalues(spec, data)
            for k, c in enumerate(plan.c_grid):
                prand = randomize_vector(p, RandomizationRule.constant(c), rng)
                n_explicit[r, k] = np.count_nonzero(prand <= plan.lam)
        for k in range(len(plan.c_grid)):
            counts = np.array([np.bincount(n[:, k], minlength=spec.m + 1) for n in (n_kernel, n_explicit)])
            table = _merged_cells(counts, lambda col: col.sum() >= 10)
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
