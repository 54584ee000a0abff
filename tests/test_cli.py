import numpy as np
import pytest

from pi0rand.cli import main

HAND_CSV = "p_lfc\n0.1\n0.2\n0.6\n0.8\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def hand_file(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text(HAND_CSV)
    return str(path)


class TestAnalyze:
    def test_hand_example(self, capsys, hand_file):
        # Candidates {0, 0.1, 0.2, 0.4, 0.6, 0.8, 1}; g peaks at 0.4 and 0.6
        # with value 3.0, so c0 = 0.4; the LFC-based estimate is exactly 1.
        code, out, err = run_cli(capsys, "analyze", hand_file, "--lambda", "0.5", "--seed", "7")
        assert code == 0 and err == ""
        report = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert report["m"] == "4"
        assert float(report["c0"]) == 0.4
        assert float(report["g_max"]) == 3.0
        assert float(report["pi0_hat_lfc"]) == 1.0
        assert float(report["conditional_expectation_at_c0"]) == 0.5

    def test_deterministic_output(self, capsys, hand_file, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        code1, text1, _ = run_cli(capsys, "analyze", hand_file, "--seed", "3", "--out", str(out1))
        code2, text2, _ = run_cli(capsys, "analyze", hand_file, "--seed", "3", "--out", str(out2))
        assert code1 == code2 == 0
        assert text1 == text2
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_randomization(self, capsys, hand_file, tmp_path):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "analyze", hand_file, "--seed", "1", "--out", str(o1))
        run_cli(capsys, "analyze", hand_file, "--seed", "2", "--out", str(o2))
        assert o1.read_bytes() != o2.read_bytes()

    def test_out_of_range_value_names_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p_lfc\n0.4\n1.2\n0.3\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "row 3" in err and "1.2" in err

    def test_too_few_rows(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("p_lfc\n0.4\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "two" in err

    def test_missing_header(self, capsys, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("value\n0.4\n0.5\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "p_lfc" in err

    def test_not_a_number(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("p_lfc\n0.4\nabc\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "row 3" in err

    def test_crlf_accepted(self, capsys, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(HAND_CSV.replace("\n", "\r\n").encode())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and "m = 4" in out

    def test_round_trip(self, capsys, hand_file, tmp_path):
        # The randomized output re-ingests as a fresh p_lfc column.
        out = tmp_path / "rand.csv"
        code, _, _ = run_cli(capsys, "analyze", hand_file, "--seed", "5", "--out", str(out))
        assert code == 0
        code2, text, _ = run_cli(capsys, "analyze", str(out), "--seed", "5")
        assert code2 == 0 and "m = 4" in text

    def test_bad_lambda(self, capsys, hand_file):
        code, _, err = run_cli(capsys, "analyze", hand_file, "--lambda", "1.0")
        assert code == 2 and "--lambda" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"))
        assert code == 2


class TestSimulate:
    ARGS = (
        "simulate", "--model", "z", "--m", "100", "--n", "50", "--pi0", "0.7",
        "--theta-null", "-0.1414", "--theta-alt", "0.3536", "--lambda", "0.5",
        "--reps", "1000", "--seed", "7",
    )

    def test_grid_and_boundary_mean(self, capsys, tmp_path):
        out = tmp_path / "mc.csv"
        code, _, err = run_cli(capsys, *self.ARGS, "--out", str(out))
        assert code == 0, err
        lines = [ln for ln in out.read_text().strip().split("\n") if not ln.startswith("#")]
        assert lines[0] == "c,mean,variance,mse,bias,se_mean"
        assert len(lines) == 22  # header + 21 grid rows
        first = [float(v) for v in lines[1].split(",")]
        c0_mean, c0_se = first[1], first[5]
        assert first[0] == 0.0
        assert abs(c0_mean - 1.0) <= 3.0 * c0_se

    def test_copula_means_agree(self, capsys, tmp_path):
        base = ("simulate", "--model", "z", "--m", "80", "--pi0", "0.7",
                "--theta-null", "-0.1414", "--theta-alt", "0.3536",
                "--reps", "600", "--seed", "11", "--c-grid", "0,0.5,1")

        def col(path):
            rows = [ln.split(",") for ln in path.read_text().strip().split("\n")
                    if not ln.startswith("#") and not ln.startswith("c,")]
            return np.array([[float(r[1]), float(r[5])] for r in rows])

        oi, og = tmp_path / "i.csv", tmp_path / "g.csv"
        assert run_cli(capsys, *base, "--copula", "independent", "--out", str(oi))[0] == 0
        assert run_cli(capsys, *base, "--copula", "gumbel", "--nu", "2", "--out", str(og))[0] == 0
        mi, mg = col(oi), col(og)
        joint = np.sqrt(mi[:, 1] ** 2 + mg[:, 1] ** 2)
        assert np.all(np.abs(mi[:, 0] - mg[:, 0]) <= 3.0 * joint)

    def test_zero_reps_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS[:-4], "--reps", "0")
        assert code == 2 and "--reps" in err

    def test_deterministic_csv_bytes(self, capsys, tmp_path):
        o1, o2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        args = self.ARGS[:-2] + ("--reps", "50", "--seed", "9")
        run_cli(capsys, *args, "--out", str(o1))
        run_cli(capsys, *args, "--out", str(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_bad_workers_rejected(self, capsys):
        for bad in ("0", "-5"):
            code, _, err = run_cli(capsys, *self.ARGS[:-4], "--reps", "10", "--workers", bad)
            assert code == 2 and "--workers" in err and err.count("\n") == 1

    def test_bad_pi0(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--pi0", "1.4", "--reps", "10")
        assert code == 2 and "--pi0" in err


class TestCurvesAndCstar:
    STUDY = ("--model", "z", "--m", "1000", "--n", "50", "--pi0", "0.7",
            "--theta-null", "-0.14142135623730951", "--theta-alt", "0.35355339059327373")

    def test_cstar_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "cstar", *self.STUDY, "--lambda", "0.5")
        assert code == 0
        report = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert abs(float(report["c_star"]) - 0.3276) <= 0.005
        assert abs(float(report["h_min"]) - 0.7508) <= 0.001

    def test_cstar_lfc_null(self, capsys):
        args = list(self.STUDY)
        args[args.index("--theta-null") + 1] = "0"
        code, out, _ = run_cli(capsys, "cstar", *args)
        assert code == 0
        report = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert float(report["c_star"]) == 1.0

    def test_flat_curve_all_null(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _, _ = run_cli(
            capsys, "curves", "--model", "z", "--m", "100", "--pi0", "1",
            "--theta-null", "0", "--out", str(out_path),
        )
        assert code == 0
        rows = [
            ln for ln in out_path.read_text().strip().split("\n")
            if not ln.startswith("#") and not ln.startswith("c,")
        ]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(values - 1.0)) <= 1e-12

    def test_h_curve_header(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "curves", *self.STUDY, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "c,value"

    def test_cdf_curves(self, capsys, tmp_path):
        out_path = tmp_path / "cdf.csv"
        code, _, _ = run_cli(
            capsys, "curves", "--quantity", "cdf", "--model", "z", "--m", "10",
            "--n", "50", "--theta-null", "-0.14142135623730951",
            "--t-points", "101", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.startswith("t,c=0")

    def test_bad_grid_rejected(self, capsys):
        for grid in ("0,2", "0.5,0.2"):
            code, _, err = run_cli(capsys, "curves", *self.STUDY, "--c-grid", grid)
            assert code == 2 and "--c-grid" in err and err.count("\n") == 1

    def test_cdf_zero_t_points_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--quantity", "cdf", "--t-points", "0")
        assert code == 2 and "--t-points" in err and err.count("\n") == 1

    def test_bad_resolution(self, capsys):
        code, _, err = run_cli(capsys, "cstar", *self.STUDY, "--resolution", "0.1")
        assert code == 2 and "--resolution" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["cstar", "--bogus", "1"]) == 2
