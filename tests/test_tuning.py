import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import g_brute, g_brute_max
from pi0rand.pi0 import EstimatorConfig, _estimate_from_count, _grid_counts, _grid_thresholds, schweder_spjotvoll
from pi0rand.pvalues import RandomizationRule, randomize_vector
from pi0rand.statdist import RngStream
from pi0rand.tuning import (
    candidate_set,
    conditional_expectation,
    g_values,
    select_c0,
)

HAND_P3 = np.array([0.1, 0.4, 0.9])


class TestGValue:
    def test_zero_threshold(self):
        # All 1{p >= 0} fire and no positive p-value is <= 0.
        p = np.array([0.2, 0.5, 0.8, 0.9])
        assert g_values(p, 0.5, [0.0]).tolist() == [0.5 * 4]

    def test_unit_threshold_all_small(self):
        p = np.array([0.1, 0.2, 0.3])
        assert g_values(p, 0.5, [1.0]).tolist() == [3.0]

    def test_hand_count(self):
        assert g_values(HAND_P3, 0.5, [0.3]).tolist() == [2.0]

    def test_matches_brute_oracle(self):
        rng = RngStream(11, 0)
        p = rng.generator.random(50)
        for c in np.linspace(0.0, 1.0, 23):
            assert g_values(p, 0.5, [c]).tolist() == [g_brute(p, 0.5, c)]

    def test_vectorized_matches_scalar(self):
        rng = RngStream(12, 0)
        p = rng.generator.random(40)
        cs = np.linspace(0.0, 1.0, 101)
        vec = g_values(p, 0.3, cs)
        assert np.array_equal(vec, np.concatenate([g_values(p, 0.3, [c]) for c in cs]))

    def test_exact_zeros_at_zero_threshold(self):
        # c = 0 replaces every p-value, so exact zeros (of either sign) do not
        # count in #{p <= lambda*c}: g(lambda, 0) = lambda*m, as in the kernel.
        values = np.array([0.0, -0.0, 0.0, 0.2, 0.5, 1.0])
        lam, m = 0.5, values.size
        cs = np.array([0.0, -0.0, 1e-300, 0.2, 0.5, 1.0])
        g = g_values(values, lam, cs)
        assert g[0] == g[1] == lam * m
        assert np.array_equal(g, np.concatenate([g_values(values, lam, [c]) for c in cs]))
        assert np.array_equal(g, [g_brute(values, lam, c) for c in cs])
        n_low, n_up_trials = _grid_counts(np.sort(values), *_grid_thresholds(lam, cs))
        assert np.array_equal(n_low + lam * n_up_trials, g)
        for variant in ("plain", "storey_plus"):
            assert conditional_expectation(values, lam, 0.0, variant) == _estimate_from_count(lam * m, m, lam, variant)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_values(HAND_P3, 0.0, [0.5])
        with pytest.raises(ValueError):
            g_values(HAND_P3, 0.5, [1.5])


# Exact zeros of either sign, ties, and thresholds with p = lambda * c (0.1 = 0.25 * 0.4, 0.2 = 0.5 * 0.4).
_EDGE_P = [0.0, -0.0, 0.1, 0.2, 0.2, 0.4, 0.5, 1.0]
_EDGE_C = [0.0, -0.0, 0.2, 0.4, 0.8, 1.0]


@given(
    values=st.lists(st.sampled_from(_EDGE_P) | st.floats(0.0, 1.0), min_size=2, max_size=30),
    cs=st.lists(st.sampled_from(_EDGE_C) | st.floats(0.0, 1.0), min_size=1, max_size=10),
    lam=st.sampled_from([0.25, 0.5, 0.75, 0.3]),
)
@settings(max_examples=200, deadline=None)
def test_g_values_matches_brute_oracle_on_edges(values, cs, lam):
    cs = np.array(cs + [v / lam for v in values if v / lam <= 1.0])
    assert np.array_equal(g_values(values, lam, cs), [g_brute(values, lam, c) for c in cs])


class TestCandidateSet:
    def test_construction_m2(self):
        p = np.array([0.3, 0.8])
        cands = candidate_set(p, 0.5)
        assert np.array_equal(cands, [0.0, 0.3, 0.6, 0.8, 1.0])

    def test_all_above_lambda(self):
        # Every p/lambda exceeds one, so only the p's and endpoints remain.
        p = np.array([0.6, 0.9])
        cands = candidate_set(p, 0.5)
        assert np.array_equal(cands, [0.0, 0.6, 0.9, 1.0])

    def test_sorted_and_deduplicated(self):
        p = np.array([0.2, 0.4, 0.2])
        cands = candidate_set(p, 0.5)
        assert np.array_equal(cands, [0.0, 0.2, 0.4, 0.8, 1.0])
        assert np.all(np.diff(cands) > 0.0)

    def test_count_at_scale(self):
        # m p-values contribute at most 2m + 2 candidates after clipping.
        rng = RngStream(13, 0)
        p = rng.generator.random(1000)
        cands = candidate_set(p, 0.5)
        assert len(cands) <= 2002

    def test_count_for_study_configuration(self):
        # With m=1000 at lambda=1/2, about m + #{p <= 1/2} + 2 ~ 1.41e3
        # candidates survive the clipping; the count is a distributional
        # quantity, so only its ballpark is pinned.
        from pi0rand.simkit import ModelSpec, gen_lfc_pvalues

        spec = ModelSpec("z", ((700, -1 / np.sqrt(50)), (300, 2.5 / np.sqrt(50))), n=50)
        counts = [
            len(candidate_set(gen_lfc_pvalues(spec, RngStream(14, i)), 0.5))
            for i in range(5)
        ]
        assert all(1300 <= c <= 1500 for c in counts)


class TestSelectC0:
    def test_hand_enumeration(self):
        # Candidates {0, 0.1, 0.2, 0.4, 0.8, 0.9, 1}; g maxes at 0.8 and 0.9
        # with value 2.5, so the smallest maximizer 0.8 wins.
        result = select_c0(HAND_P3, 0.5)
        assert result.c0 == 0.8
        assert result.g_max == 2.5
        assert conditional_expectation(HAND_P3, 0.5, result.c0) == pytest.approx((1 - 2.5 / 3) / 0.5)

    def test_earlier_block_wins_a_tie(self):
        # Candidates 0, 0.1 | 0.2, 0.4 | 0.6, 0.8 | 1 in blocks of isqrt(7) = 2, with g 1.5, 1.5 | 2, 2 | 1.5, 2 | 2.
        # The best first-point g is 2, and the block bounds 0.5 * #{p >= a} + #{p <= 0.5 * b} are 1.5 | 2 | 2.5 | 2:
        # the second block's bound only equals 2, yet it holds the smallest maximizer, which the third block ties.
        result = select_c0(np.array([0.1, 0.4, 0.6]), 0.5)
        assert (result.c0, result.g_max, result.candidates) == (0.2, 2.0, 7)
        assert g_values([0.1, 0.4, 0.6], 0.5, candidate_set([0.1, 0.4, 0.6], 0.5)).tolist() == [1.5, 1.5, 2, 2, 1.5, 2, 2]

    def test_brute_grid_agreement_small_pvalues(self):
        # Everything far below lambda: both indicator families saturate early.
        p = np.array([0.01, 0.02, 0.03, 0.05, 0.08])
        result = select_c0(p, 0.5)
        grid = np.linspace(0.0, 1.0, 10_001)
        g_grid, _ = g_brute_max(p, 0.5, grid)
        assert result.g_max == g_grid

    def test_brute_grid_agreement_uniform(self):
        for i in range(5):
            p = RngStream(21, i).generator.random(60)
            result = select_c0(p, 0.5)
            grid = np.linspace(0.0, 1.0, 10_001)
            g_grid, _ = g_brute_max(p, 0.5, grid)
            assert result.g_max == g_grid

    def test_candidate_max_equals_dense_grid_max(self):
        # g only changes value at candidate points, so a 1e5-point grid
        # cannot beat the candidate maximum; 20 seeded vectors.
        grid = np.linspace(0.0, 1.0, 100_000)
        for i in range(20):
            p = RngStream(1234, 100 + i).generator.random(200)
            result = select_c0(p, 0.5)
            g_grid = float(np.max(g_values(p, 0.5, grid)))
            assert result.g_max == g_grid

    def test_monotone_link_to_conditional_expectation(self):
        # Minimizing the conditional expectation over the candidates picks
        # the same threshold as maximizing g.
        p = RngStream(22, 0).generator.random(80)
        lam = 0.5
        cands = candidate_set(p, lam)
        cond = [conditional_expectation(p, lam, c) for c in cands]
        g = g_values(p, lam, cands)
        assert int(np.argmin(cond)) == int(np.argmax(g))
        assert select_c0(p, lam).c0 == cands[int(np.argmax(g))]

    def test_duplication_invariance(self):
        p = RngStream(23, 0).generator.random(30)
        doubled = np.concatenate([p, p])
        assert select_c0(p, 0.5).c0 == select_c0(doubled, 0.5).c0

    def test_pure_function(self):
        p = RngStream(24, 0).generator.random(30)
        assert select_c0(p, 0.5) == select_c0(p, 0.5)


def _full_evaluation(p, lam):
    """select_c0's result from g at every candidate: the first argmax over the whole set."""
    cands = candidate_set(p, lam)
    g = g_values(p, lam, cands)
    i = int(np.argmax(g))
    return cands[i], g[i], cands.size


_BLOCK_LAMS = [0.1, 0.3, 0.5, 0.7, 0.95]


@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 0.05, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=300),
    lam=st.sampled_from(_BLOCK_LAMS),
)
@settings(max_examples=300, deadline=None)
def test_select_c0_matches_full_evaluation(values, lam):
    # select_c0 evaluates g only in the blocks of isqrt(n) candidates whose bound reaches the best first-point g;
    # ties and exact zeros make equal g values in different blocks, and 300 values span up to ~25 blocks.
    p = np.array(values)
    result = select_c0(p, lam)
    assert (result.c0, result.g_max, result.candidates) == _full_evaluation(p, lam)


def _z_mixture(m):
    """m LFC z-test p-values, pi0 = 0.7."""
    from pi0rand.simkit import ModelSpec, gen_lfc_pvalues

    spec = ModelSpec("z", ((7 * m // 10, 0.0), (m - 7 * m // 10, 2.5 / np.sqrt(50))), n=50)
    return gen_lfc_pvalues(spec, RngStream(27, m))


@pytest.mark.parametrize("lam", _BLOCK_LAMS)
@pytest.mark.parametrize("m", [10_000, 100_000])
@pytest.mark.parametrize("draw", [_z_mixture, lambda m: RngStream(28, m).generator.random(m)], ids=["pi0_0.7", "uniform"])
def test_select_c0_matches_full_evaluation_at_scale(draw, m, lam):
    # The mixture keeps a few of the ~sqrt(1.4m) blocks of candidates; uniform p (pi0 = 1) keeps the most.
    p = draw(m)
    result = select_c0(p, lam)
    assert (result.c0, result.g_max, result.candidates) == _full_evaluation(p, lam)


class TestConditionalExpectation:
    def test_matches_definition(self):
        p = np.array([0.1, 0.2, 0.6, 0.8])
        lam, c = 0.5, 0.4
        [g] = g_values(p, lam, [c])
        assert conditional_expectation(p, lam, c) == (1.0 - g / 4) / (1.0 - lam)

    def test_storey_plus_constant_shift(self):
        p = np.array([0.1, 0.2, 0.6, 0.8])
        for c in (0.0, 0.3, 1.0):
            plain = conditional_expectation(p, 0.5, c, "plain")
            plus = conditional_expectation(p, 0.5, c, "storey_plus")
            assert plus == plain + 1.0 / (4 * 0.5)

    def test_shared_argmin_across_variants(self):
        p = RngStream(25, 0).generator.random(100)
        cands = candidate_set(p, 0.5)
        plain = np.array([conditional_expectation(p, 0.5, c, "plain") for c in cands])
        plus = np.array([conditional_expectation(p, 0.5, c, "storey_plus") for c in cands])
        assert int(np.argmin(plain)) == int(np.argmin(plus))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            conditional_expectation(HAND_P3, 0.5, 0.5, "bogus")


@given(
    values=st.lists(st.floats(0.001, 1.0), min_size=2, max_size=30),
    lam=st.sampled_from([0.25, 0.5, 0.75]),
)
@settings(max_examples=100, deadline=None)
def test_candidate_max_dominates_any_grid(values, lam):
    # The candidate maximum can never fall below g evaluated anywhere.
    p = np.array(values)
    result = select_c0(p, lam)
    probe = np.linspace(0.0, 1.0, 257)
    assert result.g_max >= float(np.max(g_values(p, lam, probe))) - 1e-12
    assert [result.g_max] == g_values(p, lam, [result.c0]).tolist()


@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0), min_size=2, max_size=30),
    lam=st.sampled_from([0.25, 0.5, 0.75]),
)
@settings(max_examples=100, deadline=None)
def test_candidate_max_dominates_with_exact_zeros(values, lam):
    # g(0) no longer counts the zeros, yet g is constant between adjacent
    # candidates and never above its value at the right one.
    p = np.array(values)
    result = select_c0(p, lam)
    probe = np.concatenate([np.linspace(0.0, 1.0, 257), [1e-300, 1e-12], p, p / lam])
    probe = probe[probe <= 1.0]
    assert result.g_max == float(np.max(g_values(p, lam, probe)))
    assert [result.g_max] == g_values(p, lam, [result.c0]).tolist()


def _candidate_oracle(values, lam):
    """The original dict loop: a key keeps its first insertion, so the endpoint 0.0 stays +0.0."""
    keys = dict.fromkeys([0.0, 1.0])
    for v in values / lam:
        if v <= 1.0:
            keys[float(v)] = None
    for v in values:
        keys[float(v)] = None
    return np.array(sorted(keys), dtype=float)


# Grid values make duplicates, exact 0 (of either sign) and 1, p = lambda (so p/lambda = 1)
# and p_i / lambda == p_j likely; the floats in between cover the rest.
_LAMS = [0.25, 0.5, 0.75, 0.3]
_GRID_P = [0.0, -0.0, 1.0, 0.1, 0.2, 0.4, 0.8, 0.0625, 0.125, 0.1875, 0.25, 0.5, 0.75, 0.3, 0.09, 0.9]


@given(
    values=st.lists(st.one_of(st.sampled_from(_GRID_P), st.floats(0.0, 1.0)), min_size=2, max_size=40),
    lam=st.sampled_from(_LAMS),
)
@settings(max_examples=300, deadline=None)
def test_candidate_set_matches_dict_oracle(values, lam):
    p = np.array(values)
    points = _candidate_oracle(p, lam)
    cands = candidate_set(p, lam)
    assert np.array_equal(cands, points)
    assert np.array_equal(np.signbit(cands), np.signbit(points))
    assert select_c0(p, lam).candidates == len(cands)


class TestCandidateEdgeCases:
    def test_p_equal_lambda_maps_to_one(self):
        # 0.5 / 0.5 == 1.0 is the endpoint, and so is a p-value of exactly 1: one point each time.
        for values in ([0.5, 0.2], [0.5, 1.0, 0.2]):
            cands = candidate_set(np.asarray(values, float), 0.5)
            assert np.array_equal(cands, [0.0, 0.2, 0.4, 0.5, 1.0])

    def test_zero_p_value_and_negative_zero(self):
        # -0.0 passes the [0, 1] check; the endpoint 0.0 keeps its sign.
        for zero in (0.0, -0.0):
            values = np.array([0.3, 0.7, zero, zero])
            cands = candidate_set(np.asarray(values, float), 0.5)
            assert cands[0] == 0.0 and not np.signbit(cands[0])
            # At c = 0 every p-value is replaced, so the zeros leave g(0) = 0.5 * 4
            # and g(0.6) = 0.5 * 1 + 3 wins.
            assert select_c0(np.asarray(values, float), 0.5)[:2] == (0.6, 3.5)

    def test_p_over_lambda_equals_other_p(self):
        p = np.array([0.1, 0.2, 0.2, 0.6])
        cands = candidate_set(p, 0.5)
        assert cands.tolist() == [0.0, 0.1, 0.2, 0.4, 0.6, 1.0]

    def test_subnormal_lambda_drops_the_overflowing_quotients(self):
        # At lambda = 5e-324 every p above ~8.9e-16 gives p / lambda = inf, past 1 and so no candidate; the overflow
        # used to raise under warnings-as-errors, and `analyze --lambda=5e-324` exited 1.
        p = np.array([1.0, 0.5, 1e-320, 5e-324, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert candidate_set(p, 5e-324).tolist() == [0.0, 5e-324, 1e-320, 0.5, 1.0]
            assert select_c0(p, 5e-324).candidates == 5

    def test_selection_counts_candidates_at_scale(self):
        p = RngStream(26, 0).generator.random(5000)
        sel = select_c0(p, 0.5)
        assert sel.candidates == len(candidate_set(p, 0.5)) == len(_candidate_oracle(p, 0.5))


# Each public function that takes p-values, at fixed other arguments, as a function of the p-values alone.
_ENTRY_POINTS = {
    "randomize_vector": lambda p: randomize_vector(p, RandomizationRule.constant(0.3), RngStream(5, 1)),
    "schweder_spjotvoll": lambda p: schweder_spjotvoll(p, EstimatorConfig(0.5, "storey_plus")),
    "g_values": lambda p: g_values(p, 0.5, np.array([0.0, 0.3, 0.5, 1.0])),
    "candidate_set": lambda p: candidate_set(p, 0.5),
    "select_c0": lambda p: select_c0(p, 0.5),
    "conditional_expectation": lambda p: conditional_expectation(p, 0.5, 0.3, "storey_plus"),
}


class TestPlainArrays:
    """Every function that takes p-values checks them as a 1-d array in [0, 1], and reads a list as its array."""

    @pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.1, 1.2, -0.01])
    def test_non_finite_or_out_of_range_is_rejected(self, call, bad):
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            call(np.array([0.1, bad, 0.3]))

    @pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("shape", [(0,), (1, 3)])
    def test_empty_or_two_dimensional_is_rejected(self, call, shape):
        with pytest.raises(ValueError, match="expected a non-empty 1-d p-value array"):
            call(np.full(shape, 0.25))

    @pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
    def test_array_matches_its_pvalue_vector(self, call):
        values = RngStream(5, 0).generator.random(200)
        values[:4] = (0.0, 1.0, 0.5, 0.15)
        got, want = call(values.tolist()), call(values)
        assert np.array_equal(got, want) and type(got) is type(want)
