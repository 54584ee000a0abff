"""What importing pi0rand loads, each check in a fresh interpreter.

``statdist`` loads scipy.special's compiled ufuncs without running the
package ``__init__`` (see ``statdist._load_ufuncs``), and ``run_mc``, the
CSV writer and the ``analyze`` reader import ``multiprocessing`` only when a
worker starts. These checks pin down what the CLI loads at start-up, that the
rest of the interpreter still sees an ordinary ``scipy.special``, that
workers give the same bytes in a process where nothing else has imported
``multiprocessing``, and that OpenBLAS loads with one thread, so that the
process forks its workers with one thread, unless the caller set a thread
count of its own.
"""

import os
import subprocess
import sys

import pytest

from pi0rand.pi0 import _CSV_PART_ROWS, _usable_cpus

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
UFUNCS = ("ndtr", "ndtri", "stdtr", "stdtrit", "nctdtr", "nctdtrit", "_nct_pdf")
LAW_VALUES = ("from pi0rand.pvalues import TwoSampleTLaw, ZTestLaw; "
              "print(repr(ZTestLaw(1.5).quantile(0.05)), repr(TwoSampleTLaw(2.5, 18).quantile(1e-300)), "
              "repr(TwoSampleTLaw(-1.0, 8).cdf(0.3)))")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
LINUX_ONLY = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
THREADS = "int(open('/proc/self/status').read().split('Threads:')[1].split()[0])"


def _run(code, *args, env=os.environ):
    """Run ``code`` in a fresh interpreter, in ``env`` with ``src`` first on the path; return its stdout."""
    path = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=dict(env, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes most of the CLI's start-up time and is not needed.
    _run("import pi0rand.cli, sys; assert 'scipy.stats' not in sys.modules")


def test_quantile_leaves_scipy_stats_unloaded():
    _run("import sys; from pi0rand.pvalues import TwoSampleTLaw; TwoSampleTLaw(2.5, 18).quantile([1e-300, 0.5]); "
         "assert 'scipy.stats' not in sys.modules")


def test_cli_import_leaves_no_stand_in_package():
    # Either no scipy.special at all, or the complete one; never the bare stand-in.
    _run("import sys, pi0rand.cli; mod = sys.modules.get('scipy.special'); "
         "assert mod is None or hasattr(mod, 'gamma'), mod; assert 'special' not in vars(sys.modules['scipy'])")


def test_cli_import_skips_unused_machinery():
    out = _run("import sys, pi0rand.cli; print(' '.join(sorted(set(sys.argv[1:]) & set(sys.modules))))",
               "numpy.f2py", "numpy.testing", "numpy.ma", "scipy._lib._array_api", "concurrent.futures", "scipy.stats",
               "multiprocessing")
    assert out.split() == []


def test_cli_import_loads_numpy_random():
    # RngStream draws from numpy.random; it loads with the package, not on the first stream.
    _run("import sys, pi0rand.cli; assert 'numpy.random' in sys.modules")


def test_later_scipy_special_import_hands_back_the_same_ufuncs():
    _run("import sys, pi0rand.cli, scipy, scipy.special, scipy.stats; from pi0rand import statdist; "
         "assert scipy.special is sys.modules['scipy.special'] and scipy.special._ufuncs is statdist._special; "
         f"assert all(getattr(scipy.special._ufuncs, n) is getattr(statdist._special, n) for n in {UFUNCS!r}); "
         "assert scipy.special.ndtr is statdist._special.ndtr and scipy.special.gamma(4.0) == 6.0; "
         "assert scipy.stats.norm.cdf(0.0) == 0.5")


def test_scipy_special_imported_first():
    before = _run("import scipy.special, sys; from pi0rand import statdist; "
                  "assert statdist._special is scipy.special._ufuncs is sys.modules['scipy.special._ufuncs']; "
                  + LAW_VALUES)
    assert before == _run(LAW_VALUES)


def test_failed_stand_in_import_falls_back_to_the_plain_one():
    # A finder that refuses scipy.special._ufuncs on its first request only: the
    # loader's own import fails, and the plain import of scipy.special succeeds.
    refuse_once = (
        "import sys\n"
        "class RefuseOnce:\n"
        "    refused = False\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy.special._ufuncs' and not RefuseOnce.refused:\n"
        "            RefuseOnce.refused = True\n"
        "            raise ImportError('refused once')\n"
        "sys.meta_path.insert(0, RefuseOnce())\n"
        "from pi0rand import statdist\n"
        "assert RefuseOnce.refused and hasattr(sys.modules['scipy.special'], 'gamma')\n"
        "assert statdist._special is sys.modules['scipy.special']._ufuncs\n"
    )
    assert _run(refuse_once + LAW_VALUES) == _run(LAW_VALUES)


def _simulate(out, workers):
    """``pi0rand simulate`` in a fresh process: the CSV bytes, and whether ``multiprocessing`` was imported."""
    stdout = _run("import sys; from pi0rand.cli import main; code = main(sys.argv[1:]); "
                  "print('multiprocessing' in sys.modules); sys.exit(code)",
                  "simulate", "--model", "z", "--m", "200", "--n", "50", "--pi0", "0.7", "--theta-null", "-0.1414",
                  "--theta-alt", "0.3536", "--copula", "gumbel", "--nu", "2", "--reps", "60", "--seed", "88",
                  "--workers", str(workers), "--out", str(out))
    return out.read_bytes(), stdout.split()[-1] == "True"


def test_fresh_process_pool_writes_the_serial_bytes(tmp_path):
    serial, serial_pooled = _simulate(tmp_path / "serial.csv", 1)
    parallel, pooled = _simulate(tmp_path / "parallel.csv", 2)
    assert serial == parallel
    assert not serial_pooled and pooled == (_usable_cpus() >= 2)  # imported only when a worker starts


def _analyze(src, out, one_cpu):
    """``pi0rand analyze --out`` in a fresh process, pinned to one CPU or not: the CSV bytes, and whether
    ``multiprocessing`` was imported."""
    stdout = _run("import os, sys\n"
                  "if sys.argv[1] == 'one': os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "from pi0rand.cli import main\ncode = main(sys.argv[2:])\n"
                  "print('multiprocessing' in sys.modules)\nsys.exit(code)",
                  "one" if one_cpu else "all", "analyze", str(src), "--seed", "9", "--out", str(out))
    return out.read_bytes(), stdout.split()[-1] == "True"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
def test_analyze_starts_a_pool_only_on_more_than_one_cpu(tmp_path):
    # Two parts' worth of rows: the reader and the writer split them over the usable CPUs, and import
    # multiprocessing only to do so.
    rows = 2 * _CSV_PART_ROWS + 1
    src = tmp_path / "p.csv"
    src.write_text("p_lfc\n" + "".join(f"{(7 * j % 997) / 997}\n" for j in range(1, rows + 1)))
    one, one_pooled = _analyze(src, tmp_path / "one.csv", one_cpu=True)
    every, pooled = _analyze(src, tmp_path / "every.csv", one_cpu=False)
    assert one == every
    assert not one_pooled and pooled == (_usable_cpus() >= 2)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork on Linux only")
def test_workers_fork_on_linux_whatever_the_default():
    # A spawned or forkserver worker would import numpy and pi0rand again, and take its inputs pickled.
    out = _run("import multiprocessing, os\nfrom pi0rand import pi0\nmultiprocessing.set_start_method('spawn')\n"
               "method = lambda: multiprocessing.current_process()._start_method\n"
               "with pi0._workers([method, os.getppid]) as results:\n"
               "    print(*[result() for result in results], os.getpid())")
    method, parent, pid = out.split()
    assert method == "fork" and parent == pid


def test_cli_main_imports_nothing_at_run_time(tmp_path):
    # Every module a serial run needs is loaded with pi0rand.cli, so no import lands inside main. The first
    # p-value file is numpy's to parse; the indented comment in the middle of the second sends it through the walk,
    # which returns its values, and the bad cell in the third through the walk that names it.
    pvalues, commented, faulty = tmp_path / "p.csv", tmp_path / "commented.csv", tmp_path / "faulty.csv"
    rows = [f"{(7 * j % 997) / 997}\n" for j in range(1, 500)]
    pvalues.write_text("p_lfc\n" + "".join(rows))
    commented.write_text("p_lfc\n" + "".join(rows[:250]) + "  # a comment\n" + "".join(rows[250:]))
    faulty.write_text("p_lfc\n" + "".join(rows[:250]) + "abc\n" + "".join(rows[250:]))
    code = ("import sys; from pi0rand.cli import main; before = set(sys.modules); out = sys.argv[1]; "
            "assert main(['analyze', sys.argv[2], '--lambda', '0.5', '--seed', '3', '--out', out]) == 0; "
            "assert main(['analyze', sys.argv[3], '--lambda', '0.5', '--seed', '3', '--out', out]) == 0; "
            "assert main(['analyze', sys.argv[4], '--lambda', '0.5', '--seed', '3']) == 2; "
            "assert main(['simulate', '--model', 'z', '--m', '100', '--reps', '3', '--out', out]) == 0; "
            "assert main(['simulate', '--model', 'two-sample', '--m', '100', '--copula', 'gumbel', '--nu', '2', "
            "'--reps', '3', '--out', out]) == 0; "
            "assert main(['cstar', '--model', 'two-sample']) == 0; "
            "assert main(['curves', '--out', out]) == 0; "
            "print('new:', *sorted(set(sys.modules) - before))")
    assert _run(code, str(tmp_path / "out.csv"), str(pvalues), str(commented), str(faulty)).splitlines()[-1] == "new:"


def _blas_env(**caller_set):
    """This environment without the variables OpenBLAS reads its thread count from, plus ``caller_set``."""
    env = {key: val for key, val in os.environ.items() if key not in BLAS_THREAD_VARS}
    return dict(env, **caller_set)


# Records each write and removal of an OpenBLAS thread variable in a child process: os.environ calls os.putenv and
# os.unsetenv. (numpy sets and removes OPENBLAS_MAIN_FREE itself.)
SPY_ON_ENV = (f"import os\nnames, written = {BLAS_THREAD_VARS!r}, []\nput, unset = os.putenv, os.unsetenv\n"
              "os.putenv = lambda key, val: (os.fsdecode(key) in names and written.append(('set', os.fsdecode(key), "
              "os.fsdecode(val))), put(key, val))[1]\n"
              "os.unsetenv = lambda key: (os.fsdecode(key) in names and written.append(('unset', os.fsdecode(key))), "
              "unset(key))[1]\n")


def test_cli_import_caps_openblas_and_restores_the_environment():
    # numpy's and scipy's OpenBLAS each load with one thread; the cap is set only while they load.
    out = _run(SPY_ON_ENV + "before = dict(os.environ)\nimport pi0rand.cli\n"
               "assert os.environ == before, set(os.environ.items()) ^ set(before.items())\n"
               "print(written)", env=_blas_env())
    assert eval(out) == [("set", "OPENBLAS_NUM_THREADS", "1"), ("unset", "OPENBLAS_NUM_THREADS")]


@LINUX_ONLY
def test_cli_import_leaves_one_thread():
    assert _run(f"import os, pi0rand.cli; print({THREADS}, 'OPENBLAS_NUM_THREADS' in os.environ)",
                env=_blas_env()).split() == ["1", "False"]


@pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_a_thread_count_the_caller_set_is_left_alone(name):
    out = _run(SPY_ON_ENV + "before = dict(os.environ)\nimport pi0rand.cli\n"
               f"assert os.environ == before and os.environ[{name!r}] == '2'\nprint(written)",
               env=_blas_env(**{name: "2"}))
    assert eval(out) == []


def test_numpy_imported_first_leaves_the_environment_as_it_was():
    # numpy's OpenBLAS has started its pool by then; pi0rand still caps scipy's and restores the environment.
    _run("import os, numpy\nbefore = dict(os.environ)\nimport pi0rand.cli\nassert os.environ == before",
         env=_blas_env())


@LINUX_ONLY
def test_workers_fork_from_a_one_thread_parent(tmp_path):
    # From Python 3.12, os.fork in a process with more than one thread warns (DeprecationWarning). Every fork of
    # a two-part analyze (one for its reader, one for its writer) and of a two-worker simulate happens with one
    # thread.
    src = tmp_path / "p.csv"
    src.write_text("p_lfc\n" + "".join(f"{(7 * j % 997) / 997}\n" for j in range(1, 201)))
    code = ("import os, sys\nfrom pi0rand import cli, pi0, simkit\n"
            "pi0._CSV_PART_ROWS, pi0._CSV_BLOCK_ROWS = 64, 16\n"
            "pi0._usable_cpus = simkit._usable_cpus = lambda: 2\n"
            "threads, fork = [], os.fork\n"
            f"os.fork = lambda: (threads.append({THREADS}), fork())[1]\n"
            "assert cli.main(['analyze', sys.argv[1], '--seed', '9', '--out', sys.argv[2]]) == 0\n"
            "assert cli.main(['simulate', '--model', 'z', '--m', '100', '--reps', '40', '--workers', '2', "
            "'--out', sys.argv[2]]) == 0\n"
            "print('threads at each fork:', *threads)")
    out = _run(code, str(src), str(tmp_path / "out.csv"), env=_blas_env())
    assert out.splitlines()[-1] == "threads at each fork: 1 1 1"
