import hashlib
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import ks_critical, normal_quantile, student_t_cdf as t_cdf_oracle
from _oracles import normal_cdf as normal_cdf_oracle
from pi0rand.pvalues import TwoSampleTLaw, ZTestLaw, lfc_pvalue_t, lfc_pvalue_z
from pi0rand.statdist import RngStream, _kanter_log_stable, _t_quantile


# The normal and Student-t cdfs the laws use, read off the API: Phi(x) is the
# Z-test p-value of -x at n = 1, and F_t(x; df) the t-test p-value of -x.
def phi(x):
    return lfc_pvalue_z(-np.asarray(x, dtype=float), 1)


def t_cdf(x, df):
    return lfc_pvalue_t(-np.asarray(x, dtype=float), df)


def npdf(x):
    """Slope of Phi: an error e in Phi^{-1} moves Phi(Phi^{-1}(u) + theta) by about npdf(...) * e."""
    return np.exp(-0.5 * np.square(x)) / np.sqrt(2.0 * np.pi)


# Frozen from the erf power series oracle (60 terms), evaluated pre-build.
PHI_AT_ONE = 0.8413447460685429
# Frozen from the incomplete-beta continued fraction oracle.
T_CDF_2_10 = 0.9633059826146297
# Frozen Monte Carlo oracle for the non-central t cdf at (1.5, df=8, ncp=1):
# 1e7 draws of (Z + 1) / sqrt(chi2_8 / 8), estimate with its 3-sigma band.
NCT_MC_VALUE = 0.6644754
NCT_MC_3SE = 0.00045


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert phi(0.0) == 0.5

    def test_at_one_matches_series_oracle(self):
        oracle = normal_cdf_oracle(1.0)
        assert abs(oracle - PHI_AT_ONE) < 1e-12
        assert abs(phi(1.0) - oracle) <= 1e-12

    def test_series_oracle_on_grid(self):
        for x in np.linspace(-3.5, 3.5, 29):
            assert abs(phi(x) - normal_cdf_oracle(x)) <= 1e-12

    @pytest.mark.parametrize("x", [0.3, 1.7, 2.9])
    def test_symmetry(self, x):
        assert_allclose(phi(-x), 1.0 - phi(x), atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            phi(np.nan)
        with pytest.raises(ValueError):
            phi(np.inf)

    def test_monotone_and_in_unit_interval(self):
        grid = np.linspace(-8.0, 8.0, 400)
        vals = phi(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= 0.0)


class TestStdNormalQuantile:
    """Phi^{-1} inside ``ZTestLaw``, whose cdf is u -> Phi(Phi^{-1}(u) + theta) and quantile v -> Phi(Phi^{-1}(v) - theta)."""

    def test_median(self):
        assert ZTestLaw(1.0).cdf(0.5) == phi(1.0)
        assert ZTestLaw(-0.7).quantile(0.5) == phi(0.7)

    def test_roundtrip_on_grid(self):
        grid = np.arange(0.01, 1.0, 0.01)
        law = ZTestLaw(0.7)
        assert np.max(np.abs(law.quantile(law.cdf(grid)) - grid)) <= 1e-10

    def test_inverse_of_series_value(self):
        # Phi^{-1}(PHI_AT_ONE) = 1, so shifting it back by 1 lands on Phi(0).
        assert abs(ZTestLaw(1.0).quantile(PHI_AT_ONE) - 0.5) <= 1e-9 * npdf(0.0)

    def test_bisection_oracle(self):
        # Independent inversion of the series cdf.
        z = normal_quantile(0.95) - 1.0
        assert abs(ZTestLaw(1.0).quantile(0.95) - normal_cdf_oracle(z)) <= 1e-9 * npdf(z)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary(self, p):
        # Phi^{-1} never sees a boundary: 0 and 1 are pinned, and values outside [0, 1] are rejected.
        law = ZTestLaw(1.0)
        if 0.0 <= p <= 1.0:
            assert law.quantile(p) == p and law.cdf(p) == p
        else:
            with pytest.raises(ValueError):
                law.quantile(p)

    def test_identity_both_ways(self):
        grid = np.linspace(0.001, 0.999, 101)
        law = ZTestLaw(-1.3)
        assert np.max(np.abs(law.cdf(law.quantile(grid)) - grid)) <= 1e-9
        x = np.linspace(-3.0, 3.0, 101)
        assert np.all(np.abs(law.cdf(phi(x)) - phi(x - 1.3)) <= 1e-9 * npdf(x - 1.3))


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 10, 48])
    def test_zero_is_half(self, df):
        assert t_cdf(0.0, df) == 0.5

    def test_cauchy_closed_form(self):
        for x in (-2.0, -0.3, 0.7, 1.9):
            assert_allclose(t_cdf(x, 1), 0.5 + np.arctan(x) / np.pi, atol=1e-12)

    def test_against_incomplete_beta_oracle(self):
        oracle = t_cdf_oracle(2.0, 10)
        assert abs(oracle - T_CDF_2_10) < 1e-13
        assert abs(t_cdf(2.0, 10) - oracle) <= 1e-10

    def test_oracle_grid(self):
        for df in (3, 7, 25):
            for x in (-2.5, -0.5, 0.1, 1.2, 3.0):
                assert abs(t_cdf(x, df) - t_cdf_oracle(x, df)) <= 1e-10

    @pytest.mark.parametrize("df", [0, -3, 2.5])
    def test_rejects_bad_df(self, df):
        with pytest.raises(ValueError):
            t_cdf(1.0, df)

    def test_quantile_roundtrip(self):
        p = np.linspace(0.01, 0.99, 25)
        assert np.max(np.abs(t_cdf(_t_quantile(p, 7), 7) - p)) <= 1e-10

    @pytest.mark.parametrize("df", [1, 3, 18])
    def test_quantile_endpoints(self, df):
        # stdtrit gives +inf at p = 0 as at p = 1.
        assert np.array_equal(_t_quantile(np.array([0.0, 0.5, 1.0]), df), [-np.inf, 0.0, np.inf])


class TestNoncentralT:
    """The non-central t cdf through the two-sample law: ``TwoSampleTLaw(-ncp, df).cdf(F_t(x)) = F_nct(x; df, ncp)``."""

    def test_zero_ncp_reduces_to_central(self):
        # Off the ncp = 0 short-cut, a tiny ncp gives the central (uniform) law.
        u = t_cdf(np.linspace(-4.0, 4.0, 100), 12)
        assert np.max(np.abs(TwoSampleTLaw(1e-9, 12).cdf(u) - u)) <= 1e-8

    def test_monotone_in_ncp(self):
        ncps = np.linspace(-3.0, 3.0, 25)
        vals = [TwoSampleTLaw(ncp, 9).cdf(0.3) for ncp in ncps]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_against_mc_oracle(self):
        assert abs(TwoSampleTLaw(-1.0, 8).cdf(t_cdf(1.5, 8)) - NCT_MC_VALUE) <= NCT_MC_3SE

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TwoSampleTLaw(1.0, 0)
        with pytest.raises(ValueError):
            TwoSampleTLaw(np.inf, 5)

    def test_quantile_roundtrip(self):
        p = np.linspace(0.05, 0.95, 19)
        law = TwoSampleTLaw(-1.0, 8)
        assert np.max(np.abs(law.cdf(law.quantile(p)) - p)) <= 1e-8


def log_stable(alpha, rng, size=None):
    """log S of positive-stable draws: U, then W, from ``rng``, as each Gumbel row in ``simkit`` draws its frailty."""
    return _kanter_log_stable(alpha, rng.generator.random(size), rng.generator.standard_exponential(size))


class TestPositiveStable:
    def test_draws_are_frozen(self):
        # The bytes of scalar and sized draws of log S are pinned for alpha from 1/1.001 to 1e-3.
        digest = hashlib.sha256()
        for alpha in (1 / 1.001, 0.9, 0.5, 0.1, 0.01, 1e-3):
            rng = RngStream(2024, 5)
            draws = [log_stable(alpha, rng) for _ in range(3)]
            digest.update(np.array(draws).tobytes() + log_stable(alpha, rng, size=(2, 5)).tobytes())
        assert digest.hexdigest()[:16] == "452310bc7a348171"

    def test_laplace_transform_alpha_half(self):
        # E exp(-s S) = exp(-sqrt(s)) for alpha = 1/2.
        rng = RngStream(2024, 17)
        s = np.exp(log_stable(0.5, rng, size=1_000_000))
        for t in (0.5, 1.0, 2.0):
            x = np.exp(-t * s)
            se = x.std() / np.sqrt(x.size)
            assert abs(x.mean() - np.exp(-np.sqrt(t))) <= 3.0 * se

    @pytest.mark.parametrize("alpha", [1 / 1.01, 1 / 1.001])
    def test_laplace_transform_near_alpha_one(self, alpha):
        # E exp(-s S) = exp(-s**alpha); the direct Kanter form gave NaN for a third of the draws at 1/1.001.
        rng = RngStream(2024, 17)
        s = np.exp(log_stable(alpha, rng, size=1_000_000))
        for t in (0.5, 1.0, 2.0):
            x = np.exp(-t * s)
            se = x.std() / np.sqrt(x.size)
            assert abs(x.mean() - np.exp(-t**alpha)) <= 3.0 * se

    def test_levy_closed_form(self):
        # alpha = 1/2 is the Levy law with scale 1/2: P(S <= x) = 2 Phi(-sqrt(0.5/x)).
        from scipy.stats import kstest

        rng = RngStream(2024, 18)
        s = np.exp(log_stable(0.5, rng, size=100_000))
        stat = kstest(s, lambda x: 2.0 * phi(-np.sqrt(0.5 / x))).statistic
        assert stat <= ks_critical(100_000)


class TestStreams:
    def test_determinism(self):
        a = RngStream(123, 45).generator.random(64)
        b = RngStream(123, 45).generator.random(64)
        assert np.array_equal(a, b)
        ea = RngStream(9, 1).generator.standard_exponential(64)
        eb = RngStream(9, 1).generator.standard_exponential(64)
        assert np.array_equal(ea, eb)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator.random(16)
        b = RngStream(123, 1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        u = RngStream(7, 0).generator.random(1_000_000)
        assert abs(u.mean() - 0.5) <= 0.002  # 3 sigma of 1/sqrt(12)/1e3

    def test_uniform_ks(self):
        u = RngStream(7, 1).generator.random(100_000)
        grid = np.sort(u)
        emp_hi = np.arange(1, u.size + 1) / u.size
        emp_lo = np.arange(0, u.size) / u.size
        stat = max(np.max(np.abs(emp_hi - grid)), np.max(np.abs(grid - emp_lo)))
        assert stat <= ks_critical(100_000)

    def test_exponential_mean(self):
        e = RngStream(11, 4).generator.standard_exponential(1_000_000)
        assert abs(e.mean() - 1.0) <= 0.003  # 3 sigma of 1/1e3

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, np.inf, np.nan])
    def test_rejects_bad_seed(self, bad):
        with pytest.raises(ValueError):
            RngStream(bad, 0)

    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_key(self, seed, stream):
        a = RngStream(seed, stream).generator.random(8)
        b = RngStream(seed, stream).generator.random(8)
        assert np.array_equal(a, b)


def _draws(gen):
    return [gen.random(5), gen.standard_normal(7), gen.standard_exponential(3),
            gen.binomial([0, 3, 1000], 0.5), gen.integers(0, 10, 3, dtype=np.uint32), gen.random(3)]


# Earlier draws leave the generator fresh, mid-buffer, holding a spare 32-bit
# word, or with a cached binomial setup.
_LEFTOVERS = {
    "fresh": lambda gen: None,
    "mid_buffer": lambda gen: gen.random(3),
    "spare_uint32": lambda gen: gen.integers(0, 10, 1, dtype=np.uint32),
    "binomial_cache": lambda gen: gen.binomial(1000, 0.5),
}
_KEYS = [0, 1, 2**63, 2**64 - 1]


def _philox(seed, stream_id):
    """The stream ``(seed, stream_id)`` built by numpy alone, without ``RngStream``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], np.uint64)))


class TestRekey:
    @pytest.mark.parametrize("leftover", sorted(_LEFTOVERS))
    @pytest.mark.parametrize("seed", _KEYS)
    def test_matches_fresh_stream(self, seed, leftover):
        rng = RngStream(seed, 5)
        for stream_id in _KEYS:
            _LEFTOVERS[leftover](rng.generator)
            rng.rekey(stream_id)
            assert (rng.seed, rng.stream_id) == (seed, stream_id)
            for got, want in zip(_draws(rng.generator), _draws(_philox(seed, stream_id))):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("leftover", sorted(_LEFTOVERS))
    def test_two_streams_rekeyed_and_drawn_alternately(self, leftover):
        # Each stream re-keys from its own state dict: one's re-key or draws never reach the other.
        a, b = RngStream(11, 0), RngStream(2**64 - 1, 0)
        for stream_id in _KEYS:
            a.rekey(stream_id)
            b.rekey(stream_id ^ 1)
            want_a, want_b = _philox(11, stream_id), _philox(2**64 - 1, stream_id ^ 1)
            for gen in (a.generator, b.generator, want_a, want_b):
                _LEFTOVERS[leftover](gen)
            assert all(np.array_equal(got, want) for got, want in zip(_draws(a.generator), _draws(want_a)))
            assert all(np.array_equal(got, want) for got, want in zip(_draws(b.generator), _draws(want_b)))

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_rejects_bad_id(self, bad):
        rng = RngStream(3, 0)
        with pytest.raises(ValueError, match="stream_id"):
            rng.rekey(bad)


@given(x=st.floats(-6.0, 6.0), y=st.floats(-6.0, 6.0))
@settings(max_examples=100, deadline=None)
def test_cdf_monotonicity_property(x, y):
    lo, hi = min(x, y), max(x, y)
    assert phi(lo) <= phi(hi)
    assert t_cdf(lo, 5) <= t_cdf(hi, 5)
