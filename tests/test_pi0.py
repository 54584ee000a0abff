import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import csv_text_row_first
from pi0rand import pi0
from pi0rand.pi0 import (
    CurveTable,
    EstimatorConfig,
    PopulationSpec,
    _csv_text,
    cstar_search,
    ecdf,
    expected_ecdf,
    h_curve,
    h_value,
    schweder_spjotvoll,
)
from pi0rand.pvalues import RandomizationRule, TwoSampleTLaw, ZTestLaw, randomize_vector
from pi0rand.simkit import ModelSpec
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
            assert expected_ecdf(spec, lam, 0.0) == pytest.approx(lam, abs=1e-15)

    def test_unit_threshold_gives_mean_cdf(self):
        spec = interior_null_population()
        lam = 0.5
        expect = 0.7 * float(ZTestLaw(-1.0).cdf(lam)) + 0.3 * float(ZTestLaw(2.5).cdf(lam))
        assert expected_ecdf(spec, lam, 1.0) == pytest.approx(expect, abs=1e-15)

    def test_consistent_with_reference_minimum(self):
        # At the reference minimizer the curve value sits at its reference level.
        spec = interior_null_population()
        ef = expected_ecdf(spec, 0.5, 0.3276)
        assert (1.0 - ef) / 0.5 == pytest.approx(0.7508, abs=1e-3)


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
        # Using valid p-values keeps the expectation at or above pi0.
        specs = (interior_null_population(), lfc_null_population(),
                 PopulationSpec(((7, ZTestLaw(-0.3)), (3, ZTestLaw(1.0)))))
        grid = np.linspace(0.0, 1.0, 501)
        for spec in specs:
            h = h_curve(spec, 0.5, grid).column()
            assert np.all(h >= spec.pi0 - 1e-9)

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
    def test_pi0(self):
        assert interior_null_population().pi0 == 0.7
        assert PopulationSpec(((4, ZTestLaw(0.0)),)).pi0 == 1.0

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
    gen, part = RngStream(43, columns).generator, pi0._CSV_PART_ROWS
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
