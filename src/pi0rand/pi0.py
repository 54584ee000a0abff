"""Schweder-Spjotvoll estimation of the proportion of true nulls.

The plain estimator is ``(1 - Fhat(lambda)) / (1 - lambda)`` with ``Fhat``
the ecdf of the marginal p-values; the Storey-plus variant adds the
conservative correction ``1 / (m * (1 - lambda))``. Estimates may exceed
one and are deliberately not clipped, since that behavior is informative.

For a population of hypotheses with known marginal laws of the LFC
p-values, the expected ecdf of the randomized p-values at threshold c is

    E[Fhat(lambda)] = (1/m) * sum_j [ lambda * (1 - F_j(c)) + F_j(lambda*c) ],

from which the exact expectation curve ``h(lambda, c)`` of the estimator
and its minimizing threshold ``c_star`` follow. ``h`` depends on the
marginals only, never on the dependence structure. Under independence the
variance is exact too, since N = #{p_rand <= lambda} is then a sum of
binomials.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .pvalues import _randomized_cdf
from .statdist import _increasing_grid, _positive_int, _probability, _pvalue_array

__all__ = [
    "EstimatorConfig",
    "PopulationSpec",
    "CurveTable",
    "CStarResult",
    "ecdf",
    "schweder_spjotvoll",
    "h_value",
    "h_curve",
    "cstar_search",
]

ESTIMATOR_VARIANTS = ("plain", "storey_plus")


def _check_lambda(lam):
    """``lam`` as a float in the open interval (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    return float(lam)


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning parameter lambda in (0, 1) and estimator variant."""

    lam: float = 0.5
    variant: str = "plain"

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.variant not in ESTIMATOR_VARIANTS:
            raise ValueError(f"variant must be one of {ESTIMATOR_VARIANTS}")


@dataclass(frozen=True)
class PopulationSpec:
    """Groups of hypotheses sharing a marginal law, ``(count, law)`` each."""

    groups: tuple

    def __post_init__(self):
        groups = tuple((_positive_int(count, "group count"), law) for count, law in self.groups)
        if not groups:
            raise ValueError("groups must be non-empty")
        if sum(count for count, _ in groups) < 2:
            raise ValueError("need m >= 2 hypotheses")
        object.__setattr__(self, "groups", groups)

    @property
    def m(self) -> int:
        return sum(count for count, _ in self.groups)

    def digest(self) -> str:
        return hashlib.sha1(repr(self.groups).encode()).hexdigest()[:12]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _workers(calls):
    """Run each callable of ``calls`` in a process of its own; yield, per call, a function that returns its value.

    On Linux the workers fork, whatever the platform's default method: they inherit their inputs, so nothing is
    pickled on the way in, and a spawned or forkserver worker would first import numpy and pi0rand (about 0.2 s).
    Each worker sends back its value, or the exception it raised, over a one-way pipe whose send end the parent does
    not keep, so a worker that dies gives an error instead of a hang. Leaving the block joins every worker, after
    terminating those whose value was not asked for. An empty ``calls`` starts no process and imports nothing.
    multiprocessing flushes stdout and stderr before it forks, so a worker does not print their buffered text again.
    The parent forks with one OS thread (``pi0rand/__init__.py`` loads OpenBLAS without its pool): a thread alive at
    the fork is missing in the child, with any lock it holds, and Python 3.12 warns on such a fork. Start no thread
    before this forks.
    """
    if not calls:
        yield []
        return
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)
    started = []
    try:
        for call in calls:
            receive, send = context.Pipe(duplex=False)
            proc = context.Process(target=_send_result, args=(send, call))
            proc.start()
            started.append((proc, receive))
            send.close()
        yield [functools.partial(_receive_result, proc, receive) for proc, receive in started]
    finally:
        for proc, receive in started:
            if not receive.closed:  # left early: its value is no longer wanted
                proc.terminate()
                receive.close()
            proc.join()


def _send_result(send, call) -> None:
    """In a worker: send ``(True, call())``, or ``(False, exc)`` for the exception ``call`` raised."""
    try:
        result = True, call()
    except Exception as exc:
        result = False, exc
    send.send(result)


def _receive_result(proc, receive):
    """The value a worker sent, or the exception it raised, raised again."""
    with receive:
        try:
            ok, value = receive.recv()
        except EOFError:  # the worker ended without sending
            proc.join()
            raise RuntimeError(f"a worker process exited with code {proc.exitcode} before sending its result") from None
    if not ok:
        raise value
    return value


_CSV_BLOCK_ROWS = 1 << 15
_CSV_PART_ROWS = 1 << 16  # the fewest rows per part: two parts gained from 2^17 rows on, measured (README)


def _part_count(rows: int) -> int:
    """Parts of at least ``_CSV_PART_ROWS`` rows each, at most one per usable CPU: how a CSV is written or read."""
    return max(1, min(rows // _CSV_PART_ROWS, _usable_cpus()))


_POW10 = np.array([1e17, 1e18, 1e19, 1e20])  # exact doubles: 5^20 < 2^53
_SEP_WORDS = np.frombuffer(b",".ljust(8, b"\0") + b"\n".ljust(8, b"\0"), np.uint64)
# At 10 * z + d: "0.", z zeros and the digit d, right-aligned after NUL bytes in one uint64.
_LEAD_WORDS = np.frombuffer(b"".join((b"0." + b"0" * z + b"%d" % d).rjust(8, b"\0") for z in range(4)
                                     for d in range(10)), np.uint64)


# "0000" to "9999" as one uint32 of ASCII each, then at 10000 on the same with their trailing "0"s as NUL bytes.
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + 48  # row j: digit j of 0000 ... 9999, in ASCII
_KEPT = np.logical_or.accumulate(_DIGITS[::-1] > 48)[::-1]  # row j: a digit other than "0" at or after j
_DIGIT_WORDS = np.concatenate([_DIGITS, _DIGITS * _KEPT], axis=1).T.copy().view(np.uint32).ravel()


def _split(v):
    """Veltkamp's split of ``v`` into ``hi + lo``, each of at most 26 significant bits."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _repr_cells(cells: np.ndarray, columns: int) -> str:
    """The float64 ``cells``, in row order, as rows of ``columns`` comma-separated ``repr(float)`` texts.

    numpy formats each cell x with 1e-4 <= x < 1 and a mantissa other than 1/2, as Ryu does (Adams, PLDI 2018): with
    e10 = floor(log10 x), x * 10^(16 - e10) = N + D exactly, N a 17-digit integer and |D| <= 1/2. In those units the
    numbers that read back as x lie strictly within hw, half an ulp of x, of N + D (below a power of two, within hw/2),
    and 0.555 < hw < 11.1. ``repr`` is the shortest decimal among them, the nearer of two: a multiple of 10^s below or
    above N + D within hw at the largest s that has one (one at s is one at s - 1 too). No multiple lies on a bound:
    a bound has 54 or more binary fraction digits, a multiple at most 20 decimal places, so the strict comparisons
    decide exactly. Where they decide, each float result is below 64 and a multiple of 2^-47, so exact too. ``repr``
    formats every other cell, an exact tie of two multiples and a carry to 10^17.
    """
    n = cells.size
    domain = (cells >= 1e-4) & (cells < 1.0)  # False at nan; other cells are replaced before any arithmetic
    x = np.where(domain, cells, 0.3)
    mantissa, exponent = np.frexp(x)
    z = np.clip(-1 - np.floor(np.log10(x)).astype(np.int64), 0, 3)  # -1 - e10, the zeros after "0."
    scale = _POW10[z]
    p = x * scale
    (xh, xl), (sh, sl) = _split(x), _split(scale)
    e = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl  # x * scale = p + e exactly: Dekker's product
    whole = np.rint(e)
    N, D = p.astype(np.int64) + whole.astype(np.int64), e - whole  # p >= 2^53 is a whole number
    hw = np.ldexp(scale, exponent - 54)
    run = domain & (mantissa != 0.5) & (N >= 10**16) & (N < 10**17)  # N has 17 digits unless floor(log10 x) is one off
    s, at = np.zeros(n, np.int64), np.flatnonzero(run)  # s: the last s with a multiple of 10^s within hw so far
    n_at, d_at, hw_at = N[at], D[at], hw[at]  # of the cells with one at every s so far
    for step in range(1, 17):
        r = n_at % 10**step
        hit = np.flatnonzero((d_at < hw_at - r) | (d_at > (10**step - r) - hw_at))  # N - r or N - r + 10^s
        if not hit.size:
            break
        at, n_at, d_at, hw_at = at[hit], n_at[hit], d_at[hit], hw_at[hit]
        s[at] = step
    unit = 10**s
    r = N % unit
    down, up = D < hw - r, D > (unit - r) - hw  # N - r, N - r + 10^s lie within hw
    near = 2.0 * D - (unit - 2 * r)  # below 0 where N - r is the nearer
    best = N - r + np.where(up & ~(down & (near < 0)), unit, 0)
    back = ~run | (down & up & (near == 0)) | (best >= 10**17)
    best[back] = 10**16
    lead = best // 10**16
    hi, lo = np.divmod(best - lead * 10**16, 10**8)
    last = (15 - s) // 4  # the 4-digit group of the last significant digit: NUL from its trailing "0"s on
    words = np.empty((n, 4), np.uint64)  # per cell, text and separator among NUL bytes
    words[:, 0] = _LEAD_WORDS[10 * z + lead]
    for j, group in enumerate((hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)):
        words.view(np.uint32)[:, 2 + j] = _DIGIT_WORDS[group + 10000 * (last <= j)]
    words[:, 3] = _SEP_WORDS[0]
    words[columns - 1 :: columns, 3] = _SEP_WORDS[1]
    if (fall := np.flatnonzero(back)).size:  # a repr has at most 24 characters
        words[fall, :3] = np.array([repr(v) for v in cells[fall].tolist()], "S24").view(np.uint64).reshape(-1, 3)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _csv_rows(columns, lo: int, hi: int):
    """Rows ``lo:hi`` of float columns as ``repr`` text, one ``_repr_cells`` call per ``_CSV_BLOCK_ROWS`` rows."""
    for a in range(lo, hi, _CSV_BLOCK_ROWS):
        cells = np.column_stack([col[a:min(a + _CSV_BLOCK_ROWS, hi)] for col in columns]).ravel()  # in row order
        yield _repr_cells(cells, len(columns))


def _csv_part(columns) -> str:
    """Every row of float columns as one text: the part a worker formats."""
    return "".join(_csv_rows(columns, 0, len(columns[0])))


def _csv_text(metadata: dict, header, columns):
    """``# key=value`` lines, the header row, then the columns row by row as ``repr(float)``, as blocks of text.

    The rows are cut into ``_part_count`` parts. Workers format parts 1 on, one each, while the caller formats part 0
    block by block; their texts follow it in order. Every row's text depends on its values alone, so the bytes do not
    depend on the parts. One part starts no worker.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    rows = len(columns[0])
    bounds = np.linspace(0, rows, _part_count(rows) + 1).astype(int).tolist()
    parts = [functools.partial(_csv_part, [col[a:b] for col in columns]) for a, b in zip(bounds[1:-1], bounds[2:])]
    with _workers(parts) as results:
        yield "".join(f"# {key}={val}\n" for key, val in metadata.items()) + ",".join(header) + "\n"
        yield from _csv_rows(columns, 0, bounds[1])
        for result in results:
            yield result()


def _open_text(path):
    """``path`` opened to write text with LF line ends, or stdout (left open on exit) when ``path`` is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path, text) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None."""
    with _open_text(path) as fh:
        fh.write(text)


@dataclass
class CurveTable:
    """Tabulated curve(s) over a strictly increasing abscissa in [0, 1].

    Plain quantity tables (h, variance, mse) carry a single ``value``
    column and serialize with header ``c,value``; cdf tables use abscissa
    ``t`` with one column per randomization constant. Metadata goes into
    leading ``#`` comment lines.
    """

    x: np.ndarray
    values: dict
    metadata: dict = field(default_factory=dict)
    x_name: str = "c"

    def __post_init__(self):
        x = _increasing_grid(self.x, self.x_name)
        values = {}
        for name, col in self.values.items():
            col = np.asarray(col, dtype=float)
            if col.shape != x.shape:
                raise ValueError(f"column {name!r} does not match the abscissa")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {name!r} must be finite")
            values[name] = col
        self.x = x
        self.values = values

    def column(self, name: str = "value") -> np.ndarray:
        return self.values[name]

    def to_csv_string(self) -> str:
        return "".join(_csv_text(self.metadata, [self.x_name, *self.values], [self.x, *self.values.values()]))

    def save(self, path) -> None:
        _write_text(path, self.to_csv_string())


def ecdf(p, t) -> float:
    """Right-continuous empirical cdf of the p-values, ``#{p_j <= t} / m``."""
    if np.isnan(t := float(t)):
        raise ValueError("t must be a number, got nan")
    values = _pvalue_array(p)
    return int(np.count_nonzero(values <= t)) / values.size


def _estimate_from_count(k, m, lam, variant):
    """Estimator value when k of m p-values (k may be expected, or an array) are <= lambda."""
    est = (1.0 - k / m) / (1.0 - lam)
    if variant == "storey_plus":
        est += 1.0 / (m * (1.0 - lam))
    return est


def _grid_thresholds(lam: float, c: np.ndarray, cdf=lambda t: t):
    """The thresholds of ``_grid_counts`` for ``#{p <= lambda*c}`` (-inf at c = 0: nothing) and ``#{p >= c}``.

    Given the cdf F of p = Q(v), they are those on v instead: Q(v) <= t exactly when v <= F(t).
    """
    return np.where(c > 0.0, cdf(lam * c), -np.inf), cdf(c)


def _grid_counts(x_sorted: np.ndarray, low: np.ndarray, up: np.ndarray):
    """Per threshold pair, ``#{x <= low}`` and ``#{x >= up}``; a low of -inf counts nothing."""
    return x_sorted.searchsorted(low, side="right"), x_sorted.size - x_sorted.searchsorted(up, side="left")


def schweder_spjotvoll(p, cfg: EstimatorConfig) -> float:
    """Estimate the proportion of true nulls from marginal p-values."""
    values = _pvalue_array(p)
    if values.size < 2:
        raise ValueError("the estimator needs m >= 2 p-values")
    return _estimate_from_count(int(np.count_nonzero(values <= cfg.lam)), values.size, cfg.lam, cfg.variant)


def _expected_ecdf(spec: PopulationSpec, lam: float, c):
    """E[Fhat(lambda)] at each threshold of ``c`` (a float or an array), as in the module docstring."""
    ef = np.zeros_like(c, dtype=float)
    for count, law in spec.groups:
        ef += count * _randomized_cdf(lam, c, law)
    return ef / spec.m


def _estimator_variance(spec: PopulationSpec, lam: float, c):
    """Exact variance of the estimator (either variant) at each threshold of ``c`` under independence.

    The indicators ``1{p_rand <= lambda}`` are then independent, so N is a sum of Binomial(m_g, q_g) with q_g the
    randomized cdf at lambda of group g, and Var(N) = sum_g m_g q_g (1 - q_g).
    """
    var_n = np.zeros_like(c, dtype=float)
    for count, law in spec.groups:
        q = _randomized_cdf(lam, c, law)
        var_n += count * q * (1.0 - q)
    return var_n / (spec.m * (1.0 - lam)) ** 2


def h_value(spec: PopulationSpec, lam: float, c: float) -> float:
    """Exact expectation of the estimator at threshold c."""
    return (1.0 - float(_expected_ecdf(spec, _check_lambda(lam), _probability(c, "c")))) / (1.0 - lam)


def h_curve(spec: PopulationSpec, lam: float, c_grid) -> CurveTable:
    """Tabulate ``c -> h(lambda, c)`` over a strictly increasing grid."""
    grid, lam = _increasing_grid(c_grid, "c_grid"), _check_lambda(lam)
    h = (1.0 - _expected_ecdf(spec, lam, grid)) / (1.0 - lam)
    meta = {"quantity": "h", "lambda": repr(float(lam)), "spec": spec.digest()}
    return CurveTable(grid, {"value": h}, metadata=meta)


class CStarResult(NamedTuple):
    c_star: float
    h_min: float


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, xtol: float = 1e-9):
    """Golden-section minimum of f on [lo, hi]; ties drift left."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def cstar_search(spec: PopulationSpec, lam: float) -> CStarResult:
    """Minimize ``h(lambda, .)`` over [0, 1].

    A grid of step 1e-3 brackets the minimum; golden-section refinement
    then narrows it down to 1e-9. Ties resolve to the smallest minimizer,
    so flat stretches return their left end.
    """
    grid = np.linspace(0.0, 1.0, 1001)
    h = h_curve(spec, lam, grid).column()
    i = int(np.argmin(h))
    best_c, best_h = float(grid[i]), float(h[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    x, fx = _golden_section(lambda c: h_value(spec, lam, c), lo, hi)
    if fx < best_h or (fx == best_h and x < best_c):
        best_c, best_h = float(x), float(fx)
    return CStarResult(best_c, best_h)
