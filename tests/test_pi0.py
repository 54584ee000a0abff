import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import binom

from _oracles import csv_text_row_first
from pi0rand import _tableio, pi0
from pi0rand._tableio import _csv_text
from pi0rand.pi0 import (
    CurveTable,
    EstimatorConfig,
    PopulationSpec,
    cstar_search,
    ecdf,
    h_curve,
    h_value,
    schweder_spjotvoll,
)
from pi0rand.pvalues import RandomizationRule, TwoSampleTLaw, ZTestLaw, randomize_vector
from pi0rand.simkit import ModelSpec, SimulationPlan, run_mc
from pi0rand.statdist import RngStream


def interior_null_population():
    """m=1000, 70% nulls at theta*sqrt(n) = -1, 30% alternatives at 2.5."""
    return PopulationSpec(((700, ZTestLaw(-1.0)), (300, ZTestLaw(2.5))))


def lfc_null_population():
    """Same split, but the nulls sit exactly at the LFC."""
    return PopulationSpec(((700, ZTestLaw(0.0)), (300, ZTestLaw(2.5))))


class TestEcdf:
    def test_at_one(self):
        assert ecdf(np.array([0.2, 0.7, 1.0]), 1.0) == 1.0

    def test_direct_count(self):
        assert ecdf(np.array([0.1, 0.5, 0.9]), 0.5) == pytest.approx(2.0 / 3.0)

    def test_at_zero(self):
        assert ecdf(np.array([0.1, 0.5, 0.9]), 0.0) == 0.0

    def test_right_continuity(self):
        p = np.array([0.25, 0.25, 0.8])
        assert ecdf(p, 0.25) == pytest.approx(2.0 / 3.0)

    def test_nan_threshold_rejected(self):
        # A NaN t compared false everywhere, so the ecdf read 0.0.
        for p in ([0.1, 0.5], np.array([0.1, 0.5])):
            with pytest.raises(ValueError, match="t must be a number"):
                ecdf(p, float("nan"))


class TestSchwederSpjotvoll:
    CFG = EstimatorConfig(0.5, "plain")

    def test_all_above_lambda(self):
        # ecdf(lambda) = 0, so the estimate is 1 / (1 - lambda).
        assert schweder_spjotvoll(np.array([0.6, 0.7, 0.9]), self.CFG) == 2.0

    def test_all_below_lambda(self):
        assert schweder_spjotvoll(np.array([0.1, 0.2, 0.3]), self.CFG) == 0.0

    def test_direct_arithmetic(self):
        p = np.array([0.1, 0.2, 0.6, 0.8])
        assert schweder_spjotvoll(p, self.CFG) == 1.0

    def test_not_clipped_above_one(self):
        p = np.array([0.9, 0.95, 0.99, 0.7])
        cfg = EstimatorConfig(0.6, "plain")
        assert schweder_spjotvoll(p, cfg) == pytest.approx(2.5)

    def test_storey_plus_shift(self):
        p = np.array([0.1, 0.2, 0.6, 0.8])
        for lam in (0.25, 0.5, 0.75):
            plain = schweder_spjotvoll(p, EstimatorConfig(lam, "plain"))
            plus = schweder_spjotvoll(p, EstimatorConfig(lam, "storey_plus"))
            assert plus == plain + 1.0 / (4 * (1.0 - lam))

    def test_oracle_equivalence_m3(self):
        # Direct count-based recomputation for a small fixed vector.
        values = np.array([0.12, 0.48, 0.93])
        lam = 0.37
        count = sum(1 for v in values if v <= lam)
        expect = (1.0 - count / 3.0) / (1.0 - lam)
        assert schweder_spjotvoll(values, EstimatorConfig(lam)) == expect

    @pytest.mark.parametrize("values", [[0.1, np.nan], [0.1, 1.5], [0.1, np.nan, 3.0], [-0.2, 0.4], [0.3, np.inf]])
    def test_raw_array_outside_unit_interval_rejected(self, values):
        # A plain array once skipped the range check: NaN and 1.5 counted as above lambda.
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            schweder_spjotvoll(np.array(values), self.CFG)
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            ecdf(np.array(values), 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(0.5, "fancy")


class TestExpectedEcdf:
    def test_zero_threshold_gives_lambda(self):
        spec = interior_null_population()
        for lam in (0.25, 0.5, 0.75):
            assert pi0._expected_ecdf(spec, lam, 0.0) == pytest.approx(lam, abs=1e-15)

    def test_unit_threshold_gives_mean_cdf(self):
        spec = interior_null_population()
        lam = 0.5
        expect = 0.7 * float(ZTestLaw(-1.0).cdf(lam)) + 0.3 * float(ZTestLaw(2.5).cdf(lam))
        assert pi0._expected_ecdf(spec, lam, 1.0) == pytest.approx(expect, abs=1e-15)

    def test_consistent_with_reference_minimum(self):
        # At the reference minimizer the curve value sits at its reference level.
        spec = interior_null_population()
        ef = pi0._expected_ecdf(spec, 0.5, 0.3276)
        assert (1.0 - ef) / 0.5 == pytest.approx(0.7508, abs=1e-3)


class TestEstimatorVariance:
    """The exact variance of the estimator under independence, Var(N) / (m (1 - lambda))^2."""

    LAWS = (ZTestLaw(-1.0), ZTestLaw(2.5), TwoSampleTLaw(1.5, 18))
    GRID = np.array([0.0, 0.05, 0.3276, 0.5, 0.9, 1.0])

    @staticmethod
    def q(law, lam, c):
        """The randomized cdf at lambda, written out from the law's cdf."""
        return lam * (1.0 - law.cdf(c)) + law.cdf(lam * c)

    def test_one_group_is_the_binomial_closed_form(self):
        for law in self.LAWS:
            for lam in (0.3, 0.5, 0.8):
                got = pi0._estimator_variance(PopulationSpec(((37, law),)), lam, self.GRID)
                want = binom.var(37, self.q(law, lam, self.GRID)) / (37 * (1.0 - lam)) ** 2
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_two_groups_are_the_variance_of_the_convolved_pmf(self):
        lam, (m1, m2) = 0.5, (23, 14)
        spec = PopulationSpec(((m1, self.LAWS[0]), (m2, self.LAWS[1])))
        k = np.arange(m1 + m2 + 1)
        for c in self.GRID:
            pmf = np.convolve(binom.pmf(np.arange(m1 + 1), m1, self.q(self.LAWS[0], lam, c)),
                              binom.pmf(np.arange(m2 + 1), m2, self.q(self.LAWS[1], lam, c)))
            var_n = np.sum(k**2 * pmf) - np.sum(k * pmf) ** 2
            assert pi0._estimator_variance(spec, lam, c) == pytest.approx(var_n / ((m1 + m2) * (1.0 - lam)) ** 2,
                                                                          rel=1e-9)

    def test_zero_threshold_is_lambda_over_m_one_minus_lambda(self):
        # Every p-value is replaced at c = 0, so N is Binomial(m, lambda) whatever the laws.
        for spec in (interior_null_population(), lfc_null_population(),
                     PopulationSpec(((10, TwoSampleTLaw(-0.5, 18)), (5, TwoSampleTLaw(1.5, 18))))):
            for lam in (0.25, 0.5, 0.75):
                want = lam / (spec.m * (1.0 - lam))
                assert pi0._estimator_variance(spec, lam, 0.0) == pytest.approx(want, rel=1e-12)

    def test_exact_mse_is_smaller_at_c_star_than_at_one(self):
        # The paper's MSE claim for the study population, exact: randomizing at c* beats the LFC p-values (c = 1).
        spec, pi0_true = interior_null_population(), 0.7
        c_star = cstar_search(spec, 0.5).c_star
        mse = [pi0._estimator_variance(spec, 0.5, c) + (h_value(spec, 0.5, c) - pi0_true) ** 2 for c in (c_star, 1.0)]
        assert mse[0] < mse[1]

    def test_run_mc_variance_agrees_at_the_acceptance_study(self):
        # The acceptance suite's independent study (10,000 replicates at m = 1000, 21 thresholds, its seed). The
        # bound is z* se_variance per threshold, z* = 4.575 from a Sidak family false-alarm rate of 1e-4 over 21.
        spec = ModelSpec("z", ((700, -1 / np.sqrt(50)), (300, 2.5 / np.sqrt(50))), n=50)
        plan = SimulationPlan(spec=spec, lam=0.5, c_grid=tuple(np.linspace(0.0, 1.0, 21)), replicates=10_000,
                              seed=20240601)
        summary = run_mc(plan)
        exact = pi0._estimator_variance(spec.population(), plan.lam, summary.c_grid)
        assert np.all(np.abs(summary.variance - exact) <= 4.575 * summary.se_variance)


class TestHCurve:
    def test_h_at_zero_is_one(self):
        specs = (interior_null_population(), lfc_null_population(),
                 PopulationSpec(((5, TwoSampleTLaw(-0.5, 18)), (5, TwoSampleTLaw(1.5, 18)))))
        for spec in specs:
            for lam in (0.25, 0.5, 0.75):
                assert abs(h_value(spec, lam, 0.0) - 1.0) <= 1e-12

    def test_reference_minimum_on_fine_grid(self):
        spec = interior_null_population()
        grid = np.linspace(0.0, 1.0, 10_001)
        h = h_curve(spec, 0.5, grid).column()
        i = int(np.argmin(h))
        assert abs(grid[i] - 0.3276) <= 5e-4
        assert abs(h[i] - 0.7508) <= 1e-4

    def test_lfc_null_spec_minimized_at_one(self):
        spec = lfc_null_population()
        grid = np.linspace(0.0, 1.0, 1001)
        h = h_curve(spec, 0.5, grid).column()
        assert int(np.argmin(h)) == grid.size - 1
        assert np.all(np.diff(h) <= 1e-12)

    def test_nonnegative_bias_for_valid_nulls(self):
        # Using valid p-values keeps the expectation at or above pi0, which is 0.7 in each population.
        specs = (interior_null_population(), lfc_null_population(),
                 PopulationSpec(((7, ZTestLaw(-0.3)), (3, ZTestLaw(1.0)))))
        grid = np.linspace(0.0, 1.0, 501)
        for spec in specs:
            h = h_curve(spec, 0.5, grid).column()
            assert np.all(h >= 0.7 - 1e-9)

    def test_depends_on_marginals_only(self):
        # Declared dependence never reaches the exact curve.
        base = dict(groups=((70, -1 / np.sqrt(50)), (30, 2.5 / np.sqrt(50))), n=50)
        indep = ModelSpec("z", dependence="independent", **base)
        dep = ModelSpec("z", dependence="gumbel", nu=2.0, **base)
        grid = np.linspace(0.0, 1.0, 101)
        hi = h_curve(indep.population(), 0.5, grid).column()
        hd = h_curve(dep.population(), 0.5, grid).column()
        assert np.array_equal(hi, hd)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            h_curve(interior_null_population(), 0.5, [0.5, 0.2])
        with pytest.raises(ValueError):
            h_curve(interior_null_population(), 1.5, [0.1, 0.2])


class TestCstarSearch:
    def test_reference_values(self):
        result = cstar_search(interior_null_population(), 0.5)
        assert abs(result.c_star - 0.3276) <= 0.005
        assert abs(result.h_min - 0.7508) <= 0.001

    def test_lfc_null_spec(self):
        result = cstar_search(lfc_null_population(), 0.5)
        assert result.c_star == 1.0

    def test_flat_curve_tie_rule(self):
        # All nulls at the LFC: h is identically one, smallest c wins.
        spec = PopulationSpec(((10, ZTestLaw(0.0)),))
        result = cstar_search(spec, 0.5)
        assert result.c_star == 0.0
        assert result.h_min == 1.0

    def test_refinement_beats_grid(self):
        coarse = cstar_search(interior_null_population(), 0.5)
        grid = np.linspace(0.0, 1.0, 1001)
        h = h_curve(interior_null_population(), 0.5, grid).column()
        assert coarse.h_min <= float(np.min(h))


class TestMcConsistency:
    def test_mean_matches_exact_curve(self):
        # Independent replicates against the exact expectation curve.
        spec = ModelSpec("z", ((70, -1 / np.sqrt(50)), (30, 2.5 / np.sqrt(50))), n=50)
        pop = spec.population()
        lam = 0.5
        cfg = EstimatorConfig(lam)
        c_grid = np.linspace(0.0, 1.0, 6)
        reps = 3000
        from pi0rand.simkit import gen_lfc_pvalues

        estimates = np.empty((reps, c_grid.size))
        for r in range(reps):
            p = gen_lfc_pvalues(spec, RngStream(4242, 2 * r))
            for k, c in enumerate(c_grid):
                prand = randomize_vector(p, RandomizationRule.constant(c), RngStream(4242, 2 * r + 1))
                estimates[r, k] = schweder_spjotvoll(prand, cfg)
        h = h_curve(pop, lam, c_grid).column()
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(mean - h) <= 3.0 * np.maximum(se, 1e-12))


class TestPopulationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(())
        with pytest.raises(ValueError):
            PopulationSpec(((0, ZTestLaw(0.0)),))
        with pytest.raises(ValueError):
            PopulationSpec(((1, ZTestLaw(0.0)),))
        with pytest.raises(ValueError, match="group count"):
            PopulationSpec(((2.5, ZTestLaw(0.0)), (3, ZTestLaw(1.0))))

    def test_digest_stable(self):
        assert interior_null_population().digest() == interior_null_population().digest()
        assert interior_null_population().digest() != lfc_null_population().digest()


class TestCurveTable:
    def test_csv_schema(self):
        table = CurveTable(np.array([0.0, 0.5, 1.0]), {"value": np.array([1.0, 0.8, 0.9])},
                           metadata={"quantity": "h", "lambda": "0.5"})
        text = table.to_csv_string()
        lines = text.strip().split("\n")
        assert lines[0] == "# quantity=h"
        assert lines[1] == "# lambda=0.5"
        assert lines[2] == "c,value"
        assert lines[3] == "0.0,1.0"

    def test_save_round_trip(self, tmp_path):
        table = CurveTable(np.array([0.1, 0.2]), {"value": np.array([0.5, 0.25])})
        path = tmp_path / "curve.csv"
        table.save(path)
        body = path.read_text()
        assert body == table.to_csv_string()

    def test_validation(self):
        with pytest.raises(ValueError):
            CurveTable(np.array([0.2, 0.1]), {"value": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            CurveTable(np.array([0.1, 0.2]), {"value": np.array([np.nan, 2.0])})
        with pytest.raises(ValueError):
            CurveTable(np.array([0.1, 0.2]), {"value": np.array([1.0])})


@pytest.mark.parametrize("columns,rows", [(1, 0), (1, 1001), (2, 7), (6, 1001), (2, (1 << 15) + 1)])
def test_csv_text_matches_row_first_oracle(columns, rows):
    # The blocks of text, joined, are the row-first text; the last case spans two blocks.
    gen = RngStream(41, columns).generator
    cols = [gen.standard_normal(rows) * 10.0 ** gen.integers(-320, 300, rows) for _ in range(columns)]
    if rows:
        cols[0][0], cols[-1][-1] = -0.0, 5e-324
    cols[-1] = cols[-1].tolist()  # a list column is read as floats too
    meta, header = {"quantity": "x", "seed": 3}, [f"k{i}" for i in range(columns)]
    assert "".join(_csv_text(meta, header, cols)) == csv_text_row_first(meta, header, cols)


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_csv_text_is_the_one_part_text(split_writer, cpus, columns):
    # One row either side of, and at, each part boundary, and an odd count: the bytes of one part, from
    # min(rows // part, cpus) parts, that is a pool of one process fewer.
    use_cpus, started = split_writer
    use_cpus(cpus)
    gen, part = RngStream(43, columns).generator, _tableio._CSV_PART_ROWS
    counts = [k * part + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [1001]
    for rows in counts:
        cols = [gen.standard_normal(rows) * 10.0 ** gen.integers(-320, 300, rows) for _ in range(columns)]
        meta, header = {"rows": rows}, [f"k{i}" for i in range(columns)]
        assert "".join(_csv_text(meta, header, cols)) == csv_text_row_first(meta, header, cols)
    assert started["write"] == [max(1, min(rows // part, cpus)) - 1 for rows in counts]


def test_a_writer_left_early_shuts_its_pool_down(split_writer):
    # As when writing a part fails: the caller stops reading, and closing the writer joins its workers.
    use_cpus, started = split_writer
    use_cpus(3)
    text = _csv_text({}, ["x"], [np.linspace(0.0, 1.0, 1001)])
    assert next(text) == "x\n" and started["write"] == [2]
    text.close()
    assert multiprocessing.active_children() == []


def _repr_rows(cells, columns=1):
    """The oracle of ``_tableio._repr_cells``: one ``repr`` per cell, a comma between cells and a line end after each row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in np.reshape(cells, (-1, columns)).tolist())


def _assert_repr_cells(cells, columns=1):
    # In blocks of 2^15 cells, as _csv_rows calls it; a failure names the first row that differs.
    cells = np.asarray(cells, dtype=float)
    for a in range(0, cells.size, 1 << 15):
        block = cells[a:a + (1 << 15)]
        got, want = _tableio._repr_cells(block, columns), _repr_rows(block, columns)
        if got != want:
            pairs = enumerate(zip(got.split("\n"), want.split("\n")))
            pytest.fail("row %d: %r, not %r" % next((a + i, g, w) for i, (g, w) in pairs if g != w))


def _power_neighbours(gen, m):
    # 2^-1 ... 2^-14, 10^-1 ... 10^-4 and 1, each with the floats up to 2^15 steps either side of it.
    powers = np.array([*(2.0**-j for j in range(1, 15)), *(10.0**-j for j in range(1, 5)), 1.0])
    return (powers.view(np.int64)[:, None] + np.arange(-(1 << 15), 1 << 15)).view(np.float64).ravel()


def _quotients(gen, m):
    # p / c for p < c, as analyze randomizes p below c0.
    c = gen.random(m)
    return c * gen.random(m) / c


_KERNEL_KINDS = {
    "uniform": lambda gen, m: gen.random(m),
    "bit_patterns": lambda gen, m: gen.integers(*np.array([1e-4, 1.0]).view(np.int64), m).view(np.float64),
    "short_decimals": lambda gen, m: np.concatenate([np.round(part, d) for d, part in
                                                     enumerate(np.array_split(gen.random(m), 15), 1)]),
    "quotients": _quotients,
    "z_pvalues": lambda gen, m: special.ndtr(np.where(gen.random(m) < 0.7, 1.0, -2.5) - gen.standard_normal(m)),
    "power_neighbours": _power_neighbours,
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_KINDS))
def test_repr_cells_matches_repr(kind):
    # 2^20 cells of each kind (power_neighbours: 19 * 2^16). The cells outside [1e-4, 1) among them, around 2^-14
    # and 1 and the zeros among the short decimals, go to repr.
    gen = RngStream(2501, sorted(_KERNEL_KINDS).index(kind)).generator
    _assert_repr_cells(_KERNEL_KINDS[kind](gen, 1 << 20))


def test_repr_cells_at_dyadic_ties_and_edges():
    # q / 2^j, q odd, has j decimal places: for j = 17 and x >= 1/2, N + D is a whole N ending in 5 with the two
    # 16-digit numbers beside it at the same distance within half an ulp, an exact tie. 0.602281868751045 is written
    # as 0.6022818687510449 when N is rounded in place from one s to the next.
    gen = RngStream(2502, 0).generator
    dyadic = [np.ldexp(gen.integers(0, 1 << (j - 1), 1 << 13) * 2 + 1, -j) for j in range(14, 30)]
    edges = [1.0 - 2.0**-53, *(2.0**-j for j in range(1, 15)), 0.602281868751045, 1e-4]
    edges += [np.nextafter(10.0**-j, toward) for j in range(1, 5) for toward in (0.0, 1.0)]
    _assert_repr_cells(np.concatenate([*dyadic, edges]))


@given(cells=st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=6), one_row=st.booleans())
@settings(max_examples=500, deadline=None)
def test_repr_cells_property(cells, one_row):
    columns = len(cells) if one_row else 1
    assert _tableio._repr_cells(np.array(cells), columns) == _repr_rows(cells, columns)


def test_csv_text_formats_special_cells_by_repr():
    # Among in-domain cells: the cells that _repr_cells sends to repr.
    gen = RngStream(2503, 0).generator
    rows = 1024
    cols = [gen.random(rows), gen.random(rows)]
    odd = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.0**-1022, -0.25, -0.5, -1e-300, 1e300, 1.0, 1.5, 9.999e-05]
    for col in cols:
        col[gen.choice(rows, len(odd), replace=False)] = odd
    meta, header = {"rows": rows}, ["a", "b"]
    assert "".join(_csv_text(meta, header, cols)) == csv_text_row_first(meta, header, cols)


@given(
    lam=st.floats(0.05, 0.95),
    values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_estimator_matches_count_oracle(lam, values):
    arr = np.array(values)
    count = int(np.sum(arr <= lam))
    expect = (1.0 - count / arr.size) / (1.0 - lam)
    assert schweder_spjotvoll(arr, EstimatorConfig(lam)) == expect
