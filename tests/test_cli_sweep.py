"""An edge sweep of `curves` (h and cdf), `cstar` and `simulate` over each flag's valid range and its extremes.

Each flag is left at its default or set to a value drawn from its valid range, its extremes, or just past them;
the effects and --sigma lie on a signed log scale up to 1e300. Flags are passed as --flag=value, since argparse
reads a value such as -1e6 as a flag. The properties: exit 0 or 2; on 2, one `error:` line on stderr and nothing
on stdout; on 0, every printed number finite; `cstar`'s h_min at most the smallest h of the 1001-point grid that
`curves` prints for the same flags, and that grid's h(lambda, 0) within 3 eps / (1 - lambda) of 1; `simulate`'s
variance, mse and se_mean at least 0.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi0rand.cli import main

_EPS = float(np.finfo(float).eps)  # a float, whose repr in a --c-grid list is a number
_SIGNED_LOG = st.just(0.0) | st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                                       st.floats(-300.0, 300.0))
# Integer flags are counts, at most 2**53; the values past it, up to one beyond a double, exit 2.
_INT_EXTREMES = [1, 2, 3, 2**31 - 1, 2**53 + 1, 2**63 - 1, 2**64, 10**400, 0, -1]
_MODEL_FLAGS = {
    "--model": st.sampled_from(["z", "two-sample"]),
    "--m": st.integers(2, 10**6) | st.sampled_from(_INT_EXTREMES),
    "--n": st.integers(1, 10**6) | st.sampled_from(_INT_EXTREMES),
    "--n1": st.integers(1, 100) | st.sampled_from(_INT_EXTREMES),
    "--n2": st.integers(1, 100) | st.sampled_from(_INT_EXTREMES),
    "--sigma": _SIGNED_LOG,
    "--pi0": st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1.0 - _EPS / 2, -0.1, 1.5]),
    "--theta-null": _SIGNED_LOG,
    "--theta-alt": _SIGNED_LOG,
    "--lambda": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([5e-324, 1e-300, 1.0 - 1e-9, 1.0 - _EPS / 2, 0.0, 1.0]),
}
_C = st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1.0 - _EPS / 2, 1.0])
_GRIDS = st.one_of(
    st.lists(_C, min_size=1, max_size=6, unique=True).map(lambda cs: ",".join(map(repr, sorted(cs)))),
    st.sampled_from(["0:0.05:1", "0:0.25:1", "0.1:0.1:0.3", "0:0.3:1", "0.5,0.2", "1,1"]),
)


@st.composite
def _flags(draw, extra=()):
    flags = dict(_MODEL_FLAGS, **dict(extra))
    return [f"{name}={draw(values)}" for name, values in flags.items() if draw(st.booleans())]


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    return code, out


def _table(out):
    """The numbers of a CSV table, below its `#` lines and its header."""
    lines = [ln for ln in out.split("\n") if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


@given(flags=_flags({"--c-grid": _GRIDS}))
@settings(max_examples=150, deadline=None)
def test_curves_h_exits_0_or_2_and_prints_finite_numbers(flags):
    code, out = _run("curves", *flags)
    if code == 0:
        assert np.all(np.isfinite(_table(out)))


@given(flags=_flags({"--c-grid": _GRIDS, "--t-points": st.integers(-1, 50) | st.just(1001)}))
@settings(max_examples=150, deadline=None)
def test_curves_cdf_exits_0_or_2_and_prints_finite_numbers(flags):
    code, out = _run("curves", "--quantity=cdf", *flags)
    if code == 0:
        assert np.all(np.isfinite(_table(out)))


@given(flags=_flags())
@settings(max_examples=150, deadline=None)
def test_cstar_is_at_most_the_grid_minimum(flags):
    code, out = _run("cstar", *flags)
    code_h, out_h = _run("curves", *flags, "--c-grid=0:0.001:1")
    assert code_h == code  # the same flags pass the same checks
    if code == 0:
        report = dict(line.split(" = ") for line in out.strip().split("\n"))
        c_star, h_min = float(report["c_star"]), float(report["h_min"])
        c, h = _table(out_h).T
        assert np.isfinite(c_star) and np.all(np.isfinite(h)) and h_min <= h.min()
        # At c = 0 every group's randomized cdf at lambda is lambda exactly, so E[Fhat] = lambda (1 + eta) with
        # |eta| <= 5u (u = eps/2: one product per group, the sum of at most two groups, the division by m, and the
        # group counts and m rounded to doubles). (1 - E[Fhat]) / (1 - lambda) then lies within
        # 5u lambda / (1 - lambda) + 3u <= 5u / (1 - lambda) of 1; 3 eps covers the second-order terms.
        lam = float(next(ln for ln in out_h.split("\n") if ln.startswith("# lambda=")).partition("=")[2])
        assert c[0] == 0.0 and abs(h[0] - 1.0) <= 3.0 * _EPS / (1.0 - lam)


@pytest.mark.parametrize("flag", [f"--n={2**64}", f"--m={10**400}"])
def test_integer_flag_beyond_a_double_exits_2(flag):
    _run("cstar", flag)


# simulate allocates and draws what --m and --reps ask for, so both stop near 10**4 and 64 (a row kernel holds m
# doubles per row, and the sweep's time grows with both); the extremes past 2**53 still exit 2 before any work.
# --reps is always set: its default of 10,000 replicates would take most of a second a run.
_SMALL_OR_REJECTED = [v for v in _INT_EXTREMES if v <= 64 or v > 2**53]
_SIMULATE_FLAGS = {
    "--m": st.integers(2, 10**4) | st.sampled_from(_SMALL_OR_REJECTED),
    "--nu": st.sampled_from([1.0, 1.0 + _EPS, 2.0, 200.0, 1e300, 0.5, np.inf, np.nan]),
    "--seed": st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64]),
    "--variant": st.sampled_from(["plain", "storey-plus"]),
    "--c-grid": _GRIDS,
}


@pytest.mark.parametrize("model", ["z", "two-sample"])
@pytest.mark.parametrize("copula", ["independent", "gumbel"])
@given(flags=_flags(_SIMULATE_FLAGS), reps=st.integers(1, 64) | st.sampled_from(_SMALL_OR_REJECTED))
@settings(max_examples=60, deadline=None)
def test_simulate_exits_0_or_2_and_prints_finite_moments(model, copula, flags, reps):
    code, out = _run("simulate", f"--reps={reps}", *flags, f"--model={model}", f"--copula={copula}")  # the last wins
    if code == 0:
        table = _table(out)
        assert np.all(np.isfinite(table)) and np.all(table[:, [2, 3, 5]] >= 0.0)  # variance, mse, se_mean
