"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import time

import numpy as np
import pytest

import calib
import checks
import spans


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [5, 6], b2 [7, 9]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_self_times_clip_children_to_parent():
    # A child stamped past its parent's end only covers the overlap.
    assert spans.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0]) == pytest.approx([1.0, 2.0])


def test_layer_metrics_on_synthetic_invocation():
    names = ["cli.main", "simkit.run_mc", "statdist.RngStream", "pvalues.law_quantile"]
    # main [0, 10]: run_mc [2, 9] > RngStream [3, 4], [5, 6] > law_quantile [5.5, 6]
    name = [0, 1, 2, 2, 3]
    start = [0.0, 2.0, 3.0, 5.0, 5.5]
    end = [10.0, 9.0, 4.0, 6.0, 6.0]
    parent = [-1, 0, 1, 1, 3]
    n = [1, 1, 1, 1, 500]
    out = spans.layer_metrics(names, name, start, end, parent, n, reps=2)
    assert out["statdist.RngStream.calls_per_rep"] == 1.0
    assert out["statdist.RngStream.self_s"] == pytest.approx(1.5)
    assert out["pvalues.law_quantile.values_per_rep"] == 250.0
    assert out["simkit.run_mc.self_s"] == pytest.approx(5.0)
    assert out["cli.parse_s"] == pytest.approx(2.0)
    assert out["cli.write_s"] == pytest.approx(1.0)
    assert out["cli.self_frac"] == pytest.approx(0.3)
    assert sum(out[f"{m}.self_frac"] for m in spans.MODULES) == pytest.approx(1.0)


def _brute_force_c0(p, lam):
    cands = sorted({0.0, 1.0, *p, *(v / lam for v in p if v / lam <= 1.0)})
    g = [lam * sum(v >= c for v in p) + sum(v <= lam * c for v in p) for c in cands]
    best = max(g)
    return len(cands), cands[g.index(best)], best


def _report(ref, **changes):
    return {k: repr(v) for k, v in {**ref, **changes}.items()}


def test_analyze_reference_matches_brute_force():
    p = np.array([0.1, 0.3, 0.35, 0.8, 0.6, 0.05])
    ref = checks.analyze_reference(p, 0.5)
    assert (ref["candidates"], ref["c0"], ref["g_max"]) == _brute_force_c0(p.tolist(), 0.5)
    assert checks.check_analyze_report(_report(ref), ref) == []


def test_analyze_checker_rejects_wrong_c0():
    p = np.array([0.1, 0.3, 0.35, 0.8, 0.6, 0.05])
    ref = checks.analyze_reference(p, 0.5)
    wrong = 0.6 if ref["c0"] != 0.6 else 0.3
    errors = checks.check_analyze_report(_report(ref, c0=wrong), ref)
    assert len(errors) == 1 and errors[0].startswith("c0 = ")


def test_randomized_rows_must_be_p_over_c0_and_in_unit_interval():
    p = np.array([0.1, 0.3, 0.35, 0.8])
    c0 = 0.4
    good = np.array([0.1 / c0, 0.3 / c0, 0.35 / c0, 0.25])
    assert checks.check_randomized_rows(p, good, c0) == []
    shifted = good.copy()
    shifted[1] = np.nextafter(shifted[1], 0.0)
    assert "differ from p / c0" in checks.check_randomized_rows(p, shifted, c0)[0]
    outside = good.copy()
    outside[3] = 1.5
    assert "outside [0, 1]" in checks.check_randomized_rows(p, outside, c0)[0]


def test_oracle_accepts_noise_and_rejects_ten_standard_errors():
    c = np.linspace(0.0, 1.0, 21)
    h = 1.0 - 0.3 * c
    se = np.full(21, 0.01)
    assert checks.check_oracle(c, h + 2.0 * se, se, c, h) == []
    mean = h.copy()
    mean[7] += 10.0 * se[7]
    assert "10.00 standard errors" in checks.check_oracle(c, mean, se, c, h)[0]


def test_oracle_rejects_wrong_grid():
    c = np.linspace(0.0, 1.0, 21)
    assert checks.check_oracle(c[:-1], c[:-1], np.ones(20), c, c) != []


def test_mc_csv_and_pvalue_csv_round_trip(tmp_path):
    p = checks.lfc_z_pvalues(5, 1000, pi0=0.7, ncp_null=-1.0, ncp_alt=2.5)
    assert np.array_equal(p, checks.lfc_z_pvalues(5, 1000, pi0=0.7, ncp_null=-1.0, ncp_alt=2.5))
    assert np.all((p > 0.0) & (p < 1.0))
    path = tmp_path / "p.csv"
    checks.write_pvalue_csv(path, p)
    assert np.array_equal(checks.parse_pvalue_rows(path.read_text()), p)
    cols = checks.parse_mc_csv("# seed=1\nc,mean,se_mean\n0.0,1.0,0.5\n1.0,0.75,0.25\n")
    assert cols["mean"].tolist() == [1.0, 0.75]


def test_calibration_drops_probe_time_and_scales_by_probe_speed():
    nominal = calib.NOMINAL_PROBE_S
    # Probes at half nominal speed inside [10, 20]; the one at 25 lies outside.
    start, took = [11.0, 15.0, 25.0], [2 * nominal, 2 * nominal, nominal]
    assert calib.in_window(start, took, 10.0, 20.0) == [2 * nominal, 2 * nominal]
    assert calib.calibrated(start, took, 10.0, 20.0) == pytest.approx((10.0 - 4 * nominal) * 0.5)
    assert calib.calibrated(start, took, 30.0, 31.0) == pytest.approx(1.0)


def test_sampler_probes_a_busy_process():
    sampler = calib.Sampler()
    t_end = time.monotonic() + 5 * calib.INTERVAL_S
    while time.monotonic() < t_end or len(sampler.took) < 2:
        pass
    sampler.stop()
    assert len(sampler.start) == len(sampler.took) >= 2
    assert all(d > 0.0 for d in sampler.took)
