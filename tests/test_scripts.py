"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script,args,outputs", [
    ("bias_curves.py", [], ["h_curve_interior_null.csv", "h_curve_lfc_null.csv"]),
    ("mc_study.py", ["--reps", "20", "--m", "100"], ["mc_independent.csv", "mc_gumbel.csv"]),
    ("practical_selection.py", [], ["g_curve.csv", "ecdf_lfc.csv", "ecdf_randomized.csv"]),
])
def test_script_writes_its_tables(tmp_path, script, args, outputs):
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), "--out-dir", str(tmp_path), *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().split("\n")
        assert len([ln for ln in lines if ln and not ln.startswith("#")]) >= 3  # a header and rows
