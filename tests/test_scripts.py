"""The experiment script runs end to end and rejects a bad flag before it writes a table."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# sha256 prefixes of the tables at --reps 20 --seed 5, as written by the three scripts the one script replaced
# (bias_curves.py, mc_study.py and practical_selection.py); mc_independent.csv since independent z replicates
# draw the counts of their uniforms as one multinomial of the threshold cells, and since its "# nu=" line names
# the product copula that ran, 1.0.
TABLES = {
    "mc_independent.csv": "afa5dcbed22b405d",
    "mc_gumbel.csv": "a62ba3e5ab36fb1e",
    "h_curve_interior_null.csv": "10690cc951dce2bc",
    "h_curve_lfc_null.csv": "811ab62e81a284de",
    "g_curve.csv": "23318e09566b5eba",
    "ecdf_lfc.csv": "d3c47d7517b7520f",
    "ecdf_randomized.csv": "04b2f3933201e6a5",
}


def reproduce(out_dir, *args):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "reproduce.py"), "--out-dir", str(out_dir),
                           *args], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)


def test_reproduce_writes_the_seven_tables(tmp_path):
    proc = reproduce(tmp_path, "--reps", "20", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert digests == TABLES
    assert "c_star = 0.3275" in proc.stdout and "c_star = 1.0\n" in proc.stdout
    assert "independent: exact mse at c*=0.3276 " in proc.stdout and ", at c=1.0000 " in proc.stdout


@pytest.mark.parametrize("script,args,outputs", [
    ("bias_curves.py", ["--reps", "20", "--seed", "5"], ["h_curve_interior_null.csv", "h_curve_lfc_null.csv"]),
    ("mc_study.py", ["--reps", "20", "--seed", "5"], ["mc_independent.csv", "mc_gumbel.csv"]),
    ("practical_selection.py", ["--reps", "20", "--seed", "5"], ["g_curve.csv", "ecdf_lfc.csv", "ecdf_randomized.csv"]),
])
def test_script_writes_its_tables(tmp_path, script, args, outputs):
    """Each replaced script's tables (named by `script`) are still written, byte for byte, with a header and rows."""
    proc = reproduce(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        table = tmp_path / name
        assert hashlib.sha256(table.read_bytes()).hexdigest()[:16] == TABLES[name], (script, name)
        lines = table.read_text().split("\n")
        assert len([ln for ln in lines if ln and not ln.startswith("#")]) >= 3  # a header and rows


@pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--seed", "-1"), ("--workers", "0"), ("--reps", "x")])
def test_bad_flag_exits_2_before_any_table(tmp_path, flag, value):
    proc = reproduce(tmp_path, flag, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("error:") == 1 and flag in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
