"""Benchmark of the pi0rand CLI as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ``src/`` as is
(pure Python, nothing to build). One parent process starts one child at a
time (a closed loop with one client): each child is ``perfbench/child.py``,
which imports ``pi0rand.cli`` and calls ``cli.main`` with ``--workers 1``.
The loop starts invocations while one as long as the last still fits in S
seconds, and at least one (one of each kind when traced).

Workloads, and why each was chosen:

* ``mc_z_indep`` - ``simulate`` at the paper's study configuration with
  independent Z-test p-values. The per-grid-point loop of 21 x (RngStream +
  randomize_vector + PValueVector + schweder_spjotvoll) dominates; arrays of
  m = 1000 stay in L1/L2.
* ``mc_t_gumbel`` - the same study with the pooled two-sample t-test (df 18)
  under a Gumbel copula; the non-central t quantile dominates.
* ``analyze_1e6`` - ``analyze`` on m = 10^6 seeded p-values (8 MB arrays, more
  than L2): candidate-set construction and CSV parsing/writing dominate, one
  large ``randomize_vector`` call instead of many small ones, no ``simkit``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (spawn until ``import pi0rand.cli`` returns, median over every
child including ``--help`` spawns), ``wall_s`` (spawn to exit), ``reps_per_s``
and ``pvalues_per_s`` (replicates and p-values over the time inside
``cli.main``; one ``analyze`` call counts as one replicate of m p-values) and
``peak_rss_mb`` (the child's ``ru_maxrss``), each a median over invocations.
Every time is calibrated to a nominal host speed (see calib.py): the child
samples the speed of its CPU with a small fixed probe every 25 ms, and its
times, less the probes' own, are scaled by how much faster or slower than
nominal the probes ran. The uncalibrated medians are printed on their own
line.
With ``--trace 1`` untraced and traced invocations alternate, and the line
reports the per-layer metrics derived from the traced invocations' spans
(see spans.py) plus ``trace_overhead_frac``. Every output is checked (see
checks.py); ``failed`` counts the invocations that fail a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

LAM = 0.5
PI0 = 0.7
C_GRID = np.linspace(0.0, 1.0, 21)
M_MC = 1000
M_ANALYZE = 10**6
SETUP_SPAWNS = 3  # extra `--help` children per untraced run, for setup_s samples
CHILD_TIMEOUT_S = 120

_MC_COMMON = ["--m", str(M_MC), "--pi0", repr(PI0), "--lambda", repr(LAM), "--c-grid", "0:0.05:1", "--workers", "1"]
_Z_THETA = (-0.1414213562373095, 0.3535533905932738)  # ncp -1 and 2.5 at n = 50
_T_THETA = (-0.4472135954999579, 1.118033988749895)  # ncp -1 and 2.5 at n1 = n2 = 10

WORKLOADS = {
    "mc_z_indep": {
        "reps": 1000,
        "flags": ["--model", "z", "--n", "50"],
        "theta": _Z_THETA,
        "spec": {"model": "z", "n": 50},
    },
    "mc_t_gumbel": {
        "reps": 100,
        "flags": ["--model", "two-sample", "--n1", "10", "--n2", "10", "--copula", "gumbel", "--nu", "2"],
        "theta": _T_THETA,
        "spec": {"model": "two_sample", "n1": 10, "n2": 10, "dependence": "gumbel", "nu": 2.0},
    },
    "analyze_1e6": {"reps": 1},
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s", "pvalues_per_s": "1/s", "peak_rss_mb": "MB"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Workload:
    """Seeded inputs, the CLI arguments, and the output check of one workload."""

    def __init__(self, name, seed, work: Path):
        self.name, self.seed, self.work = name, seed, work
        cfg = WORKLOADS[name]
        self.reps = cfg["reps"]
        self.out = work / "out.csv"
        self.input = None
        if name == "analyze_1e6":
            self.m = M_ANALYZE
            self.p = checks.lfc_z_pvalues(seed, M_ANALYZE, pi0=PI0, ncp_null=-1.0, ncp_alt=2.5)
            self.input = work / "pvalues.csv"
            checks.write_pvalue_csv(self.input, self.p)
            self.input_sha256 = checks.sha256_file(self.input)
            self.ref = checks.analyze_reference(self.p, LAM)
            self.argv = ["analyze", str(self.input), "--lambda", repr(LAM), "--seed", str(seed), "--out", str(self.out)]
        else:
            self.m = M_MC
            theta_null, theta_alt = cfg["theta"]
            self.h = _exact_h(cfg["spec"], theta_null, theta_alt)
            self.argv = [
                "simulate",
                *cfg["flags"],
                *_MC_COMMON,
                "--theta-null",
                repr(theta_null),
                "--theta-alt",
                repr(theta_alt),
                "--reps",
                str(self.reps),
                "--seed",
                str(seed),
                "--out",
                str(self.out),
            ]
        self._verdicts = {}

    def check(self, stdout: str, digest: str) -> list:
        """Failure reasons for one finished invocation; the file check is cached by digest."""
        errors = []
        if self.input is not None:
            errors += checks.check_analyze_report(checks.parse_report(stdout), self.ref)
        if digest not in self._verdicts:
            self._verdicts[digest] = self._check_file()
        return errors + self._verdicts[digest]

    def _check_file(self) -> list:
        try:
            text = self.out.read_text(encoding="utf-8")
            if self.input is not None:
                return checks.check_randomized_rows(self.p, checks.parse_pvalue_rows(text), self.ref["c0"])
            cols = checks.parse_mc_csv(text)
            return checks.check_oracle(cols["c"], cols["mean"], cols["se_mean"], C_GRID, self.h)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"output unreadable: {exc!r}"]


def _exact_h(spec_kwargs, theta_null, theta_alt):
    """h(lambda, c) on C_GRID from pi0.h_curve, for the oracle check."""
    sys.path.insert(0, str(SRC))
    from pi0rand.pi0 import h_curve
    from pi0rand.simkit import ModelSpec

    n_null = int(round(PI0 * M_MC))
    spec = ModelSpec(groups=((n_null, theta_null), (M_MC - n_null, theta_alt)), **spec_kwargs)
    return h_curve(spec.population(), LAM, C_GRID).column()


def spawn(work: Path, tag: str, argv, trace: bool) -> dict:
    """Run one child to completion; returns its timings, rusage and captured output."""
    sidecar = work / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), "1" if trace else "0", "--", *argv]
    with open(work / f"{tag}.stdout", "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    rec = {
        "rc": proc.returncode,
        "wall_raw_s": t1 - t0,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": (work / f"{tag}.stdout").read_text(encoding="utf-8", errors="replace"),
        "stderr": (work / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace"),
        "trace": trace,
    }
    try:
        info = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        info = None
    if info is not None:
        # Raw times, and times calibrated to nominal host speed (see calib.py).
        pstart, took = info["probe_start"], info["probe_took"]
        imported, (m0, m1) = info["imported"], info["main"]
        rec.update(
            setup_raw_s=imported - t0,
            setup_s=calib.calibrated(pstart, took, t0, imported),
            main_s=calib.calibrated(pstart, took, m0, m1),
            wall_s=calib.calibrated(pstart, took, t0, t1),
            speed=calib.speed(took),
            probes=len(took),
            versions=info["versions"],
        )
        if trace:
            with np.load(str(sidecar) + ".npz") as z:
                rec["spans"] = (info["span_names"], *(z[k] for k in ("name", "start", "end", "parent", "n")))
    return rec


def _basic_errors(rec) -> list:
    errors = []
    if rec["rc"] != 0:
        errors.append(f"exit code {rec['rc']}")
    if "Traceback" in rec["stderr"]:
        errors.append("traceback on stderr")
    if "main_s" not in rec:
        errors.append("no timing sidecar")
    return errors


def run(wl: Workload, seconds: float, trace: bool):
    """The closed loop; returns (help children, invocations, failures).

    A first ``--help`` child compiles bytecode and fills the page cache; it is
    checked but gives no setup sample. Untraced runs add SETUP_SPAWNS more
    ``--help`` children; traced runs alternate untraced and traced invocations.
    """
    failures, helps, calls, digests = [], [], [], set()
    for i in range(1 + (0 if trace else SETUP_SPAWNS)):
        rec = spawn(wl.work, f"c{i}", ["--help"], False)
        rec["ok"] = not _basic_errors(rec)
        if not rec["ok"]:
            failures.append(("--help", _basic_errors(rec)))
        if i > 0:
            helps.append(rec)
    t_begin = _now()
    while True:
        traced = trace and len(calls) % 2 == 1
        wl.out.unlink(missing_ok=True)
        rec = spawn(wl.work, f"c{len(helps) + 1 + len(calls)}", wl.argv, traced)
        errors = _basic_errors(rec) or ([] if wl.out.is_file() else ["no output file"])
        if not errors:
            rec["digest"] = checks.sha256_file(wl.out)
            rec["bytes_out"] = wl.out.stat().st_size
            digests.add(rec["digest"])
            errors = wl.check(rec["stdout"], rec["digest"])
            if len(digests) > 1:
                errors.append("output differs from an earlier invocation at the same seed")
        rec["ok"] = not errors
        if errors:
            failures.append((wl.name, errors))
        calls.append(rec)
        # Start another invocation only if one as long as the last still fits.
        if _now() - t_begin + rec["wall_raw_s"] > seconds and (not trace or len(calls) >= 2):
            return helps, calls, failures


def _report(values: dict, units: dict, samples=None):
    for name, value in values.items():
        extra = f" n={len(samples[name])} samples {json.dumps(samples[name])}" if samples else ""
        print(f"{name:<40} {value:>14.6g} {units[name]}{extra}")


def end_to_end(wl, helps, calls) -> dict:
    """Medians over the children that passed their checks; times calibrated.

    setup_s takes every passing child, ``--help`` ones included.
    """
    good = [r for r in calls if r["ok"]]
    setup = [r for r in helps + good if r["ok"]]
    samples = {
        "setup_s": [r["setup_s"] for r in setup],
        "wall_s": [r["wall_s"] for r in good],
        "reps_per_s": [wl.reps / r["main_s"] for r in good],
        "pvalues_per_s": [wl.m * wl.reps / r["main_s"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
    }
    values = {name: statistics.median(vals) for name, vals in samples.items()}
    _report(values, END_TO_END, samples)
    raw = {
        "setup_s": statistics.median(r["setup_raw_s"] for r in setup),
        "wall_s": statistics.median(r["wall_raw_s"] for r in good),
        "speed": statistics.median(r["speed"] for r in setup),
        "probes": statistics.median(r["probes"] for r in good),
    }
    print("uncalibrated medians " + json.dumps(raw))
    return values


def per_layer(wl, calls) -> dict:
    """Medians over the traced invocations that passed their checks; times calibrated."""
    traced = [r for r in calls if r["trace"] and r["ok"]]
    plain = [r for r in calls if not r["trace"] and r["ok"]]
    rows = []
    for r in traced:
        row = spans.layer_metrics(*r["spans"], reps=wl.reps)
        rows.append({k: v * r["speed"] if k.endswith("_s") else v for k, v in row.items()})
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["tuning.candidates"] = float(checks.parse_report(traced[0]["stdout"]).get("candidates", 0))
    out["cli.bytes_in"] = float(wl.input.stat().st_size) if wl.input else 0.0
    out["cli.bytes_out"] = float(traced[0]["bytes_out"])
    wall = [statistics.median(r["wall_s"] for r in group) for group in (traced, plain)]
    out["trace_overhead_frac"] = wall[0] / wall[1] - 1.0
    print(f"traced invocations: {len(traced)}, untraced: {len(plain)}")
    _report(out, {k: _unit(k) for k in out})
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("cli.bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "pi0rand").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pi0rand" / "cli.py").is_file():
        print(f"error: no pi0rand sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_start = os.getloadavg()[0]
    work = Path(tempfile.mkdtemp(prefix="_work_", dir=HERE))
    try:
        wl = Workload(args.workload, args.seed, work)
        helps, calls, failures = run(wl, args.seconds, bool(args.trace))
        attempted = 1 + len(helps) + len(calls)
        print(f"perfbench {wl.name} seed={wl.seed} trace={args.trace} reps/invocation={wl.reps}")
        failed = len(failures)
        for what, errors in failures[:5]:
            print(f"FAILED {what}: {'; '.join(errors)}", file=sys.stderr)
        if not all(any(r["ok"] and r["trace"] == t for r in calls) for t in {False, bool(args.trace)}):
            print("error: too few invocations passed their checks to report", file=sys.stderr)
            return 1
        if args.trace:
            values = per_layer(wl, calls)
            units = {k: _unit(k) for k in values}
        else:
            values = end_to_end(wl, helps, calls)
            units = END_TO_END
        print(f"{'fail_frac':<40} {failed / attempted:>14.6g} ({failed}/{attempted})")
        first = next(r for r in calls if r["ok"])
        meta = {
            "workload": wl.name,
            "seed": wl.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "versions": first["versions"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
            "input_sha256": getattr(wl, "input_sha256", None),
            "output_sha256": first["digest"],
        }
        print("meta " + json.dumps(meta, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
