import argparse
import hashlib
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pi0rand
from pi0rand import _tableio, cli, pi0, pvalues, simkit, statdist, tuning
from pi0rand.cli import main
from pi0rand.statdist import RngStream
from pi0rand.tuning import conditional_expectation

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

    def test_subnormal_lambda(self, capsys, tmp_path):
        # p / lambda overflows at lambda = 5e-324; under warnings-as-errors that exited 1 with "internal error".
        path = tmp_path / "p.csv"
        path.write_text("p_lfc\n0.1\n1\n0.5\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--lambda=5e-324")
        assert (code, err) == (0, "") and "\nlambda = 5e-324\n" in out

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



class TestAnalyzeParsing:
    """The bulk parse and the row-by-row fallback report the same first error."""

    @staticmethod
    def analyze_text(capsys, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return run_cli(capsys, "analyze", str(path))

    def test_deep_bad_value_names_physical_line(self, capsys, tmp_path):
        rows = [repr(v) for v in np.linspace(0.0, 1.0, 2000).tolist()]
        rows[1700] = "0.3x"
        code, _, err = self.analyze_text(capsys, tmp_path, "p_lfc\n" + "\n".join(rows) + "\n")
        assert code == 2 and err.count("\n") == 1
        assert "row 1702: p_lfc value '0.3x' is not a number" in err

    def test_comments_and_blanks_count_in_line_number(self, capsys, tmp_path):
        text = "# produced by a test\n\np_lfc\n0.1\n\n   \n# mid-file comment\n0.2\n1.5\n0.3\n"
        code, _, err = self.analyze_text(capsys, tmp_path, text)
        assert code == 2 and "row 9: p_lfc value 1.5 outside [0, 1]" in err

    @pytest.mark.parametrize("data,row", [
        (b"p_\xfflfc\n0.1\n0.2\n", 1),
        (b"# caf\xe9\np_lfc\n0.1\n0.2\n", 1),
        (b"p_lfc\r\n0.1\r\n\xff\r\n0.2\r\n", 3),
        (b"\xef\xbb\xbfp_lfc\n" + b"0.5\n" * 30_000 + b"0.\xe9\n0.5\n", 30_002),  # past any read-ahead chunk
    ], ids=["header", "comment", "crlf", "deep"])
    def test_non_utf8_byte_names_file_and_row(self, capsys, tmp_path, data, row):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: row {row}: not UTF-8 text\n")

    def test_nan_and_inf_out_of_range(self, capsys, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            code, _, err = self.analyze_text(capsys, tmp_path, f"p_lfc\n0.1\n{bad}\n0.3\n")
            assert code == 2 and "row 3" in err and "outside [0, 1]" in err

    def test_multi_column_with_p_lfc_second(self, capsys, tmp_path):
        single = self.analyze_text(capsys, tmp_path, HAND_CSV)
        # A numeric first column must not be mistaken for p_lfc.
        rows = "".join(f"0.5, {v} ,x\n" for v in HAND_CSV.split()[1:])
        multi = self.analyze_text(capsys, tmp_path, "decoy,p_lfc,note\n" + rows)
        assert multi == single and multi[0] == 0 and "m = 4" in multi[1]

    def test_field_count_error_precedes_later_bad_number(self, capsys, tmp_path):
        code, _, err = self.analyze_text(capsys, tmp_path, "p_lfc\n0.1\n0.2,0.3\n0.4\nabc\n")
        assert code == 2 and "row 3: expected 1 fields" in err
        code, _, err = self.analyze_text(capsys, tmp_path, "id,p_lfc\na,0.1\nb\nc,abc\n")
        assert code == 2 and "row 3: expected 2 fields" in err
        code, _, err = self.analyze_text(capsys, tmp_path, "id,p_lfc\na,0.1\nb,0.2,x\nc,0.3\n")
        assert code == 2 and "row 3: expected 2 fields" in err  # an extra field, though p_lfc reads


def _parse_oracle(path, text):
    """The original row-by-row parser: the values, or the message of the error it raises."""
    lines = text.replace("\r\n", "\n").split("\n")
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        return f"{path}: empty input"
    header_no, header = rows[0]
    columns = [col.strip() for col in header.split(",")]
    if "p_lfc" not in columns:
        return f"{path}: row {header_no}: header must contain a p_lfc column"
    col = columns.index("p_lfc")
    values = []
    for line_no, line in rows[1:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            return f"{path}: row {line_no}: expected {len(columns)} fields"
        try:
            v = float(fields[col])
        except ValueError:
            return f"{path}: row {line_no}: p_lfc value {fields[col]!r} is not a number"
        if not 0.0 <= v <= 1.0:
            return f"{path}: row {line_no}: p_lfc value {v!r} outside [0, 1]"
        values.append(v)
    if len(values) < 2:
        return f"{path}: need at least two p-values, got {len(values)}"
    return np.array(values)


_CELLS = ["0.5", " 0.25 ", "1", "0", "-0.0", "1e-5", "1_0", "0x1", "abc", "nan", "inf", "1.5", "0.1,0.2", "", "  ",
          "# c", "0.1\r0.2", "0.5\r", "0.5#x", "0_5", "\t0.5", " 0.5", "\u0660.\u0665", "0.5\x00", "0.5 0.6", "1e5000",
          "infinity", "\x1c0.5", "0.5\x1f", "\xa00.5"]


@given(
    header=st.sampled_from(["p_lfc", "id,p_lfc", "id,p_lfc,note", "value", "# only a comment"]),
    cells=st.lists(st.sampled_from(_CELLS), max_size=8),
    filler=st.sampled_from([("k", "x"), ("7", "-1e9")]),  # numeric neighbours let numpy read a multi-column file
    crlf=st.booleans(),
    preamble=st.sampled_from([[], ["# made by a tool"], ["", "  # note", ""]]),
    bom=st.booleans(),
    name=st.sampled_from(["in.csv", "in.csv.gz", "in.xz"]),  # numpy would open these two through a decompressor
)
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_row_by_row_oracle(header, cells, filler, crlf, preamble, bom, name):
    # Same values bit for bit, or the same first-error diagnostic; a byte-order mark changes neither.
    ncols = header.count(",") + 1
    lines = [c if ncols == 1 or c.strip() in ("", "#") else ",".join([filler[0], c, filler[1]][:ncols]) for c in cells]
    lines = preamble + [header] + lines
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\ufeff" * bom + text)
        want = _parse_oracle(path, text)
        try:
            got = _tableio._read_pvalue_csv(path)
        except ValueError as exc:
            got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(
    header=st.sampled_from(["p_lfc,id", "p_lfc,", "p_lfc,id,note", "id,p_lfc", "p_lfc"]),
    cells=st.lists(st.sampled_from(["0.5", "0.25", "1e-5", "abc", "1.5"]), max_size=6),
    extra=st.integers(0, 3),
    odd=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 3)),
)
@settings(max_examples=200, deadline=None)
def test_reader_checks_field_count_wherever_p_lfc_is(header, cells, extra, odd):
    # A row of too few or too many fields is the walk's fault, also where p_lfc comes first and no row has a comma.
    fields = [extra] * len(cells)
    if odd and odd[0] < len(cells):
        fields[odd[0]] = odd[1]
    lines = [",".join([cell] + ["7"] * n) for cell, n in zip(cells, fields)]
    text = header + "\n" + "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = _parse_oracle(path, text)
        try:
            got = _tableio._read_pvalue_csv(path)
        except ValueError as exc:
            got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_reader_is_bitwise_float_at_scale(tmp_path):
    # 300,000 rows in the spellings a tool may write, shortest repr or not; numpy's parse is float()'s, bit for bit.
    gen = RngStream(7, 0).generator
    values = gen.random(300_000) ** gen.integers(1, 60, 300_000)  # down into the subnormals
    values[:6] = (0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 0.5)
    spellings = ("{!r}", "{:.17g}", "{:.25f}", "{:.3e}", "{:.20E}", " {!r} ", "+{!r}", "{:.0f}")
    cells = [spellings[k].format(v) for k, v in zip(gen.integers(0, len(spellings), values.size), values.tolist())]
    path = tmp_path / "in.csv"
    path.write_text("p_lfc\n" + "\n".join(cells) + "\n")
    want = np.fromiter(map(float, cells), float, len(cells))
    assert np.array_equal(_tableio._read_pvalue_csv(str(path)).view(np.uint64), want.view(np.uint64))


_NUMPY_TAKES = [
    ("in.csv", "p_lfc\n0.1\n0.2\n", True),
    ("in.csv", "\ufeff# made by a tool\n\np_lfc\r\n0.1\r\n\r\n0.2\r\n", True),  # a preamble, CRLF, a blank row
    ("in.csv", "id,p_lfc\n1,0.1\n2, 0.2\n", True),
    ("in.csv", "id,p_lfc\ngene1,0.1\ngene2,0.2\n", True),  # numpy reads the p_lfc column alone
    ("in.csv", "id,p_lfc\ngene#1,0.1\ngene#2,0.2\n", False),  # a "#" inside an id
    ("in.csv", "p_lfc\n0.1\n0.2 # note\n", False),  # numpy would read 0.2 and drop the rest as a comment
    ("in.csv", "id,p_lfc\ngene1,0.1,x\ngene2,0.2\n", False),  # numpy would read p_lfc and not see the extra field
    ("in.csv", "p_lfc\n0.1,0.2\n0.3,0.4\n", False),  # a comma in a one-column file
    ("in.csv", "p_lfc,id\n0.1\n0.2\n", False),  # numpy would read p_lfc from rows with no id field
    ("in.csv", "p_lfc,\n0.1\n0.2\n", False),  # a trailing comma makes a second, unnamed column
    ("in.csv", "p_lfc\n0.1\n# mid-file comment\n0.2\n", True),
    ("in.csv", "p_lfc\n0.1\n  # note\n0.2\n", False),  # a "#" that does not begin its line
    ("in.csv", "p_lfc\n0.1\n0.2\r0.3\n", False),  # a lone CR
    ("in.csv", "id,p_lfc\n1,\x1c0.1\n2,0.2\n", False),  # float() keeps \x1c-\x1f inside a field
    ("in.csv", "p_lfc\n\n\r\n", False),  # no rows
    ("in.csv", "p_lfc\n# only a comment\n", False),  # no rows
    ("in.csv.gz", "p_lfc\n0.1\n0.2\n", False),
]


@pytest.mark.parametrize("name,text,parsed_by_numpy", _NUMPY_TAKES)
def test_reader_gives_numpy_only_a_plain_file(tmp_path, monkeypatch, name, text, parsed_by_numpy):
    # numpy sees only files it reads as the walk does; the rest, like its own rejects, go to the walk.
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(args) or loadtxt(*args, **kwargs))
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    want = _parse_oracle(str(path), text.removeprefix("\ufeff"))
    try:
        got = _tableio._read_pvalue_csv(str(path))
    except ValueError as exc:
        got = str(exc)
    assert len(calls) == parsed_by_numpy
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_reader_reads_a_pipe_once(recwarn):
    # A pipe cannot be read a second time, so numpy never reopens one; the walk reads the text already read.
    read, write = os.pipe()
    os.write(write, b"p_lfc\n0.25\n0.5\n")
    os.close(write)
    try:
        got = _tableio._read_pvalue_csv(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert got.tolist() == [0.25, 0.5] and not recwarn.list


# sha256 of `analyze --out` written before the randomized CSV was written in blocks of 2^15 rows
# (x86-64, numpy 2.4): one block less one row, one block, one block and a row, and four blocks.
_FROZEN_ANALYZE_SHA256 = {
    2**15 - 1: "5f9cece8da21c36977ea9e96a0aedba1a248325e8a13c37be6b1fa9ed3ced146",
    2**15: "97450b1f05910a32e15cf8e6f7b37256e03b4d618bf11f72dc0189ce4afa3403",
    2**15 + 1: "4dd89a1b5712dc226c38afde7cad290f7116c6c71077e8d6a02b57e83391c61f",
    10**5: "fba52bbf53516befeeceb61b39701c196ddaa4ceb003ce5691a464e0ef703098",
}


@pytest.mark.parametrize("m", sorted(_FROZEN_ANALYZE_SHA256))
def test_analyze_csv_bytes_are_frozen(capsys, tmp_path, m):
    p = np.random.Generator(np.random.PCG64(m)).beta(0.5, 1.5, m)
    src, out = tmp_path / "p.csv", tmp_path / "out.csv"
    src.write_text("p_lfc\n" + "".join(repr(v) + "\n" for v in p.tolist()))
    code, _, err = run_cli(capsys, "analyze", str(src), "--seed", "7", "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FROZEN_ANALYZE_SHA256[m]


def test_analyze_end_to_end_at_1e5(capsys, tmp_path):
    # Independent numpy reference for the report; the output rows below c0
    # must be exactly p / c0, and the file keeps the one-repr-per-row layout.
    lam, seed, m = 0.5, 4, 100_000
    rng = np.random.Generator(np.random.PCG64(2024))
    p = np.concatenate([rng.beta(2.0, 1.0, 70_000), rng.beta(0.3, 4.0, m - 70_000)])
    p[:3] = (0.0, 1.0, lam)
    src, out = tmp_path / "p.csv", tmp_path / "out.csv"
    src.write_text("p_lfc\n" + "".join(repr(v) + "\n" for v in p.tolist()))
    code, text, err = run_cli(capsys, "analyze", str(src), "--lambda", repr(lam), "--seed", str(seed), "--out", str(out))
    assert code == 0 and err == ""
    report = dict(line.split(" = ") for line in text.strip().split("\n"))

    q = p / lam
    cands = np.unique(np.concatenate([[0.0, 1.0], p, q[q <= 1.0]]))
    ps = np.sort(p)
    g = lam * (m - np.searchsorted(ps, cands, side="left")) + np.searchsorted(ps, lam * cands, side="right")
    i = int(np.argmax(g))
    c0 = float(cands[i])
    assert int(report["m"]) == m
    assert int(report["candidates"]) == cands.size
    assert float(report["c0"]) == c0
    assert float(report["g_max"]) == float(g[i])
    pi0_lfc = (1.0 - np.count_nonzero(p <= lam) / m) / (1.0 - lam)
    assert float(report["pi0_hat_lfc"]) == pytest.approx(pi0_lfc, rel=1e-12)

    body = out.read_text().split("\n")
    assert body[:5] == ["# kind=randomized", f"# lambda={lam!r}", f"# c0={c0!r}", f"# seed={seed}", "p_lfc"]
    rand = np.array([float(v) for v in body[5:-1]])
    low = p < c0
    assert rand.size == m and np.array_equal(rand[low], p[low] / c0)
    assert np.all((rand >= 0.0) & (rand <= 1.0))
    layout = "\n".join(body[:5]) + "\n" + "".join(repr(float(v)) + "\n" for v in rand)
    assert out.read_bytes() == layout.encode()


@pytest.mark.parametrize("rows", [127, 128, 129, 1001])
def test_split_analyze_out_is_the_one_part_file(capsys, tmp_path, split_writer, rows):
    # The part boundary at 2 x 64 rows, one row either side of it, and an odd count; 1, 2 and 3 parts.
    use_cpus, started = split_writer
    src = tmp_path / "p.csv"
    src.write_text("p_lfc\n" + "".join(f"{v!r}\n" for v in RngStream(47, rows).generator.random(rows).tolist()))
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        out = tmp_path / f"out{cpus}.csv"
        code, report, err = run_cli(capsys, "analyze", str(src), "--seed", "5", "--out", str(out))
        assert (code, err) == (0, "")
        assert multiprocessing.active_children() == []  # every worker is joined before main returns
        runs.append((report, out.read_bytes()))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    workers = [min(rows // _tableio._CSV_PART_ROWS, cpus) - 1 for cpus in (1, 2, 3)]
    assert started == {"read": workers, "write": workers}


def test_split_cdf_table_is_the_one_part_table(capsys, split_writer):
    use_cpus, started = split_writer
    texts = []
    for cpus in (1, 3):
        use_cpus(cpus)
        code, out, err = run_cli(capsys, "curves", "--quantity", "cdf", "--t-points", "1001")
        assert (code, err) == (0, "")
        texts.append(out)
    assert texts[1] == texts[0] and started == {"read": [], "write": [0, 2]}
    assert multiprocessing.active_children() == []


_SPLIT_CELLS = [repr(v) for v in RngStream(59, 0).generator.random(200).tolist()]
_SPLIT_IDS = [f"{j},{cell}" for j, cell in enumerate(_SPLIT_CELLS)]
_FLOOR_CELLS = [f"0.{j:03d}" for j in range(128)]  # 6 bytes a row: two parts cut after row 64


def _csv(cells, header="p_lfc", end="\n", preamble=""):
    return preamble + end.join([header, *cells]) + end


def _with(cells, at, cell):
    return cells[:at] + [cell] + cells[at:]


# name: (text, whether the reader cuts it into parts, or None where numpy does not read it). With parts of 64 rows,
# row 10 is in part 0 and row 190 in the last part at two and at three parts; whitespace fails numpy in a part, after
# the cut, and the walk reads the file.
_SPLIT_FILES = {
    "plain": (_csv(_SPLIT_CELLS), True),
    "crlf": (_csv(_SPLIT_CELLS, end="\r\n"), True),
    "no final newline": (_csv(_SPLIT_CELLS)[:-1], True),
    "bom": ("\ufeff" + _csv(_SPLIT_CELLS), True),
    "comments before the header": (_csv(_SPLIT_CELLS, preamble="# made by a tool\n\n# seed=3\n"), True),
    "id column": (_csv(_SPLIT_IDS, "id,p_lfc"), True),
    "text id column": (_csv([f"gene{cells}" for cells in _SPLIT_IDS], "id,p_lfc"), True),
    "blank line in part 0": (_csv(_with(_SPLIT_CELLS, 10, "")), False),
    "blank crlf line in part 0": (_csv(_with(_SPLIT_CELLS, 10, ""), end="\r\n"), False),
    "blank line in the last part": (_csv(_with(_SPLIT_CELLS, 190, "")), True),
    "blank line first in the last part": (_csv(_with(_FLOOR_CELLS, 64, "")), False),
    "whitespace line in part 0": (_csv(_with(_SPLIT_CELLS, 10, " \t")), True),
    "whitespace line in the last part": (_csv(_with(_SPLIT_CELLS, 190, " \t")), True),
    "bad cell in the last part": (_csv(_with(_SPLIT_CELLS, 190, "abc")), True),
    "out of range in the last part": (_csv(_with(_SPLIT_CELLS, 190, "1.5")), True),
    "wrong field count in the last part": (_csv(_with(_SPLIT_IDS, 190, "7,0.5,1"), "id,p_lfc"), None),
    "extra field in a text id file": (_csv(_with([f"gene{cells}" for cells in _SPLIT_IDS], 190, "g,0.5,1"), "id,p_lfc"),
                                      None),
    "comment line in part 0": (_csv(_with(_SPLIT_CELLS, 10, "# note")), False),
    "comment line in the last part": (_csv(_with(_SPLIT_CELLS, 190, "# note")), True),
    "cut on the part floor": (_csv(_FLOOR_CELLS), True),
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", list(_SPLIT_FILES))
def test_split_parse_is_the_one_part_parse(tmp_path, split_writer, name, cpus):
    # The same array bit for bit, or the same row N message, from one part and from the parts of the usable CPUs.
    use_cpus, started = split_writer
    text, splits = _SPLIT_FILES[name]
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _parse_oracle(str(path), text.removeprefix("\ufeff"))
    for parts in (1, cpus):
        use_cpus(parts)
        try:
            got = _tableio._read_pvalue_csv(str(path))
        except ValueError as exc:
            got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    rows = text.split("p_lfc", 1)[1].count("\n") - 1
    workers = min(rows // _tableio._CSV_PART_ROWS, cpus) - 1 if splits else 0
    assert started["read"] == ([] if splits is None else [0, workers])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3])
def test_part_lines_at_the_part_floor(split_writer, cpus):
    # 128 rows of 6 bytes: the text's middle is the line end of row 64, and two parts of 64 rows is all they make.
    # An empty first row keeps them in one part, and so do as many bytes of empty lines after them, which would
    # make a last part with no row, where numpy warns.
    use_cpus, _ = split_writer
    use_cpus(cpus)
    raw = _SPLIT_FILES["cut on the part floor"][0]
    assert _tableio._part_lines(raw.encode(), len("p_lfc\n")) == [0, 64, None]
    assert _tableio._part_lines(("p_lfc\n\n" + raw[6:]).encode(), len("p_lfc\n")) == [0, None]
    assert _tableio._part_lines((raw + "\n" * 768).encode(), len("p_lfc\n")) == [0, None]


def _split_analyze(tmp_path, prelude=""):
    """``analyze --out`` on 1001 rows in a fresh interpreter, with parts of 64 rows and two usable CPUs, stdout
    redirected to a file; returns the exit code and the stdout and stderr texts. Its workers start and are gone
    when ``main`` returns."""
    src, out, stdout = tmp_path / "p.csv", tmp_path / "out.csv", tmp_path / "stdout.txt"
    src.write_text("p_lfc\n" + "".join(f"{v!r}\n" for v in RngStream(53, 0).generator.random(1001).tolist()))
    code = ("import multiprocessing, sys\nfrom pi0rand import _tableio, cli\n" + prelude +
            "_tableio._CSV_PART_ROWS = 64\n_tableio._usable_cpus = lambda: 2\ncode = cli.main(sys.argv[1:])\n"
            "assert multiprocessing.active_children() == [] and 'multiprocessing' in sys.modules\n"
            "sys.exit(code)\n")
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # with a file, the child's stdout is then block-buffered
    with open(stdout, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", code, "analyze", str(src), "--seed", "2", "--out", str(out)],
                              stdout=fh, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return proc.returncode, stdout.read_text(), proc.stderr


def test_report_is_printed_once_when_a_pool_starts(tmp_path):
    # A worker forked with the report still in the stdout buffer would print it again as it exits.
    code, report, err = _split_analyze(tmp_path)
    assert (code, err) == (0, "")
    assert report.count("m = 1001\n") == 1 and len(report.splitlines()) == 9


def test_a_failing_worker_exits_1_without_a_traceback(tmp_path):
    fail = "def fail(columns):\n    raise RuntimeError('a part failed')\n_tableio._csv_part = fail\n"
    code, _, err = _split_analyze(tmp_path, fail)
    assert (code, err) == (1, "internal error: a part failed\n")


@pytest.mark.parametrize("kind", ["read", "write"])
def test_a_dying_worker_exits_1_without_a_hang(tmp_path, kind):
    # A worker that ends without sending its part: the caller sees the end of its pipe, not a wait for ever.
    parent = "import os\nparent = os.getpid()\n"
    die = {"read": "load = cli.np.loadtxt\n"
                   "cli.np.loadtxt = lambda *a, **k: os._exit(3) if os.getpid() != parent else load(*a, **k)\n",
           "write": "_tableio._csv_part = lambda columns: os._exit(3)\n"}[kind]
    code, _, err = _split_analyze(tmp_path, parent + die)
    assert (code, err) == (1, "internal error: a worker process exited with code 3 before sending its result\n")


@pytest.mark.parametrize("variant", ["plain", "storey-plus"])
def test_analyze_reports_the_library_conditional_expectation(capsys, tmp_path, variant):
    lam, values = 0.3, RngStream(31, 0).generator.random(2000)
    values[:4] = (0.0, 1.0, lam, 0.09)
    src = tmp_path / "p.csv"
    src.write_text("p_lfc\n" + "".join(repr(v) + "\n" for v in values.tolist()))
    code, out, err = run_cli(capsys, "analyze", str(src), "--lambda", repr(lam), "--variant", variant)
    assert code == 0 and err == ""
    report = dict(line.split(" = ") for line in out.strip().split("\n"))
    want = conditional_expectation(values, lam, float(report["c0"]), variant.replace("-", "_"))
    assert report["conditional_expectation_at_c0"] == repr(want)


def test_analyze_calls_the_public_functions(capsys, hand_file, monkeypatch):
    # Counted as the benchmark's tracer (perfbench/child.py) sees them: each public function is replaced in every
    # pi0rand namespace that binds it, so a call through a private copy would count nothing.
    calls = {}
    for fn in (tuning.select_c0, pvalues.randomize_vector, pi0.schweder_spjotvoll):
        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        calls[fn.__name__] = 0
        for ns in (pi0rand, statdist, pvalues, pi0, tuning, simkit, cli):
            for key, value in list(vars(ns).items()):
                if value is fn:
                    monkeypatch.setattr(ns, key, counted)
    assert run_cli(capsys, "analyze", hand_file, "--seed", "7")[0] == 0
    assert calls == {"select_c0": 1, "randomize_vector": 1, "schweder_spjotvoll": 2}


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

    @pytest.mark.parametrize("copula", [[], ["--copula", "gumbel", "--nu", "1"], ["--copula", "gumbel", "--nu", "2"]],
                             ids=["independent", "gumbel-nu1", "gumbel-nu2"])
    def test_two_sample_is_exact_at_extreme_ncp(self, capsys, tmp_path, copula):
        # At theta -+1e10 the ncps are -+2.2e10: the null p-values are 1 and the alternative ones 0 to the last bit,
        # so the means at c = 0, 0.5 and 1 are 1, 0.7 and 1.4, the last with zero variance. Both kernels count
        # against the law's cdf, the independent one its multinomial cells and the Gumbel one its copula uniforms,
        # and scipy's nctdtr gives NaN at every threshold. Read as the side of 0 rather than of the law's location,
        # that NaN inverted the law, and the Gumbel copula printed 1, 1, 2.
        out = tmp_path / "mc.csv"
        code, _, err = run_cli(capsys, "simulate", "--model", "two-sample", "--theta-null=-1e10", "--theta-alt=1e10",
                               "--c-grid", "0,0.5,1", "--reps", "2000", "--seed", "4", *copula, "--out", str(out))
        assert code == 0, err
        rows = np.array([[float(v) for v in ln.split(",")] for ln in out.read_text().strip().split("\n")
                         if not ln.startswith(("#", "c,"))])
        mean, variance, se = rows[:, 1], rows[:, 2], rows[:, 5]
        assert np.all(np.abs(mean - [1.0, 0.7, 1.4]) <= 4.0 * se + 1e-12)
        assert variance[2] <= 1e-24

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("model", ["z", "two-sample"])
    def test_gumbel_at_nu_one_writes_the_independent_csv(self, capsys, tmp_path, model, workers):
        # The product copula is stored as the independent model, so both spellings run one kernel on one layout.
        outs = [tmp_path / "i.csv", tmp_path / "g.csv"]
        for out, copula in zip(outs, (["--copula", "independent"], ["--copula", "gumbel", "--nu", "1"])):
            code, _, err = run_cli(capsys, "simulate", "--model", model, "--m", "90", "--reps", "70", "--seed", "31",
                                   "--c-grid", "0:0.25:1", "--workers", workers, *copula, "--out", str(out))
            assert code == 0, err
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "# dependence=independent\n# nu=1.0\n" in outs[0].read_text()

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

    @pytest.mark.parametrize("model, message", [("z", "theta_scaled"), ("two-sample", "ncp")])
    def test_effect_that_overflows_once_scaled_exits_2_before_the_work(self, capsys, monkeypatch, model, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a replicate ran before the model was checked")

        monkeypatch.setattr(simkit, "_replicate_block", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--model", model, "--theta-alt", "1e308", "--reps", "3000")
        assert (code, out, err) == (2, "", f"error: {message} must be finite\n")

    @pytest.mark.parametrize("grid", ["0.5,0.2", "0:0.3:1", "0:2:1", "0.3:0.1:0.2", "-inf:0.1:1", "0:1", "a:0.1:1", "0,x"])
    def test_bad_grid_names_the_flag(self, capsys, grid):
        # A start:step:stop grid needs a whole number of steps; it is never rounded to another step.
        code, _, err = run_cli(capsys, *self.ARGS[:-4], "--reps", "2", f"--c-grid={grid}")
        assert code == 2 and err.startswith("error: --c-grid") and err.count("\n") == 1


@pytest.mark.parametrize("text,grid", [
    ("0:0.05:1", np.linspace(0.0, 1.0, 21)),
    ("0:0.25:1", [0.0, 0.25, 0.5, 0.75, 1.0]),
    ("0.1:0.1:0.3", np.linspace(0.1, 0.3, 3)),
    ("0,0.5,1", [0.0, 0.5, 1.0]),
])
def test_grid_flag_values(text, grid):
    got = cli._parse_grid(text)
    assert np.array_equal(got.view(np.uint64), np.asarray(grid, dtype=float).view(np.uint64))


@pytest.mark.parametrize("flags", [["--pi0", "nan"], ["--model", "two-sample", "--theta-alt", "nan"],
                                   ["--copula", "gumbel", "--nu", "inf"], ["--nu", "nan"],
                                   ["--theta-null", "nan"], ["--theta-alt", "inf"],
                                   ["--model", "two-sample", "--n2", "0"], ["--n", "0"],
                                   ["--model", "two-sample", "--n1", "0"], ["--m", "1"]])
@pytest.mark.parametrize("command", ["simulate", "curves", "cstar"])
def test_non_finite_model_flag_exits_2(capsys, command, flags):
    # Non-finite and out-of-range model flags alike are named with their dashes; curves and cstar take no
    # dependence flag, so argparse refuses --copula and --nu there.
    extra = ["--reps", "2"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, "--m", "10", *extra, *flags)
    assert (code, out) == (2, "")
    if command != "simulate" and flags[0] in ("--copula", "--nu"):
        assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"
    else:
        assert err.startswith(f"error: {flags[-2]} ") and err.count("\n") == 1


# sha256 of `simulate` CSVs written before replicates were generated in chunks
# on one re-keyed stream (x86-64, numpy 2.4, scipy 1.17); z independent since
# its replicates draw the counts of their uniforms as one multinomial of the
# threshold cells; both independent models since their `# nu=` line names the
# product copula that ran, 1.0, not the --nu given; two-sample independent
# since its rows draw T from its sufficient statistics, and again since they
# draw the cell counts of its uniforms, as z independent does. Any change to the
# stream layout or to the p-value arithmetic shows up here. All four since
# the laws keep their effects as plain floats, which changed the `# spec=`
# line only.
_FROZEN_SIMULATE_SHA256 = {
    ("z", "independent"): "5f4a657a587c66a334f28a8a457714df749f91302bbb6e03c392cfe0a0a0a4d6",
    ("z", "gumbel"): "46f1a21b7310070cb895501775193cee0b0f327de6067a9a54efff3f2af13d3b",
    ("two-sample", "independent"): "e22dd96848371ac7664352322d844d0e23829db6348e79dc04a077e4fe949590",
    ("two-sample", "gumbel"): "37e5d430e606f00372f5e8aeb90faf8d06767c64601248aafda8d2524df071ec",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("model,copula", sorted(_FROZEN_SIMULATE_SHA256))
def test_simulate_csv_bytes_are_frozen(capsys, tmp_path, model, copula, workers):
    out = tmp_path / "mc.csv"
    sample = ["--n", "50"] if model == "z" else ["--n1", "10", "--n2", "10"]
    code, _, err = run_cli(capsys, "simulate", "--model", model, *sample, "--copula", copula, "--nu", "2",
                           "--m", "200", "--pi0", "0.7", "--theta-null", "-0.2", "--theta-alt", "0.5",
                           "--reps", "64", "--seed", "20201", "--workers", workers, "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FROZEN_SIMULATE_SHA256[model, copula]


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

    def test_two_sample_is_exact_at_extreme_ncp(self, capsys):
        # As for simulate: at theta -+1e10 the p-values are 1 and 0 to the last bit, so h is 1, 0.7 and 1.4 at
        # c = 0, 0.5 and 1, and its minimum over c is 0.7 (an inverted law gave 1, 1, 2 and h_min 1).
        extreme = ("--model", "two-sample", "--theta-null=-1e10", "--theta-alt=1e10")
        rows = ["0.0,1.0", "0.5,0.7", "1.0,1.4"]
        code, out, err = run_cli(capsys, "curves", *extreme, "--c-grid", "0,0.5,1")
        assert (code, err) == (0, "")
        assert [ln for ln in out.split("\n") if ln and not ln.startswith("#")] == ["c,value", *rows]
        code, out, err = run_cli(capsys, "cstar", *extreme)
        assert (code, err) == (0, "") and out.endswith("\nh_min = 0.7\n")

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

    @pytest.mark.parametrize("grid,columns", [(None, 5), ("0:0.05:1", 21), ("0:0.05:1.0", 21), ("0,1", 2)])
    def test_cdf_grid_default_and_explicit(self, capsys, grid, columns):
        # The cdf table defaults to c = 0, 0.25, ..., 1, but any --c-grid given, even h's default, is kept.
        code, out, _ = run_cli(capsys, "curves", "--quantity", "cdf", "--t-points", "3",
                               *(("--c-grid", grid) if grid else ()))
        header = next(ln for ln in out.split("\n") if not ln.startswith("#"))
        assert code == 0 and header.count(",c=") == columns
        if grid is None:
            assert header == "t,c=0,c=0.25,c=0.5,c=0.75,c=1"

    def test_bad_grid_rejected(self, capsys):
        for grid in ("0,2", "0.5,0.2"):
            code, _, err = run_cli(capsys, "curves", *self.STUDY, "--c-grid", grid)
            assert code == 2 and "--c-grid" in err and err.count("\n") == 1

    def test_cdf_zero_t_points_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--quantity", "cdf", "--t-points", "0")
        assert code == 2 and "--t-points" in err and err.count("\n") == 1

    def test_resolution_flag_is_rejected(self, capsys):
        # The bracket grid is fixed at 1001 points; argparse refuses the flag before any work.
        code, out, err = run_cli(capsys, "cstar", *self.STUDY, "--resolution", "1e-3")
        assert (code, out) == (2, "") and "unrecognized arguments: --resolution 1e-3" in err


class TestUsage:
    # argparse's own errors print one line, as every other exit 2 does, not its usage block.
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys) == (2, "", "error: the following arguments are required: command\n")

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "cstar", "--bogus", "1") == (2, "", "error: unrecognized arguments: --bogus 1\n")

    def test_missing_value(self, capsys):
        # argparse reads -1e6 as a flag, not as a negative number: --theta-null=-1e6 passes it.
        code, out, err = run_cli(capsys, "cstar", "--theta-null", "-1e6")
        assert (code, out, err) == (2, "", "error: argument --theta-null: expected one argument\n")

    @pytest.mark.parametrize("command", ["curves", "cstar"])
    def test_dependence_flags_are_simulate_only(self, capsys, command):
        # h, the cdf tables and c* read the marginal laws only, so the copula is not theirs to take.
        code, out, err = run_cli(capsys, command, "--copula", "gumbel")
        assert (code, out, err) == (2, "", "error: unrecognized arguments: --copula gumbel\n")

    def test_every_flag_and_argument_has_help(self):
        # --lambda, --seed, --variant, --model, --copula and six more flags once printed no help.
        (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(commands.choices) == ["analyze", "cstar", "curves", "simulate"]
        for name, sub in commands.choices.items():
            for action in sub._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert action.help and action.help.strip(), f"{name} {action.option_strings or action.dest}"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_out_of_range_seed_exits_2(capsys, hand_file, command, seed):
    argv = (command, hand_file) if command == "analyze" else (command, "--m", "10", "--reps", "2")
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: --seed must be an unsigned 64-bit integer, got {seed}\n"


def test_largest_seed_is_accepted(capsys, hand_file):
    seed = str(2**64 - 1)
    assert run_cli(capsys, "analyze", hand_file, "--seed", seed)[0] == 0
    assert run_cli(capsys, "simulate", "--m", "10", "--reps", "2", "--seed", seed)[0] == 0


# Each flag that only the library checks, set alone to a bad value: the CLI
# puts the flag's name on the library's message, in the words of the checks
# it keeps for its own flags (`--m`, `--pi0`, ...). `cstar` takes no --nu.
_SINGLE_BAD_FLAG = [
    (["analyze", "--lambda", "1.5"], "--lambda must lie in (0, 1), got 1.5"),
    (["simulate", "--lambda", "0"], "--lambda must lie in (0, 1), got 0.0"),
    (["curves", "--lambda", "nan"], "--lambda must lie in (0, 1), got nan"),
    (["curves", "--quantity", "cdf", "--lambda", "1.0"], "--lambda must lie in (0, 1), got 1.0"),
    (["cstar", "--lambda", "-0.1"], "--lambda must lie in (0, 1), got -0.1"),
    (["analyze", "--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
    (["simulate", "--seed", str(2**70)], f"--seed must be an unsigned 64-bit integer, got {2**70}"),
    (["simulate", "--reps", "0"], "--reps must be a positive integer, got 0"),
    (["simulate", "--workers", "-5"], "--workers must be a positive integer, got -5"),
    (["cstar", "--model=two-sample", "--sigma=2"], "unrecognized arguments: --sigma=2"),  # effects are in units of it
    (["cstar", "--nu", "0.5"], "unrecognized arguments: --nu 0.5"),
    (["simulate", "--nu", "0.5"], "--nu must be finite and >= 1, got 0.5"),  # checked for the independent model too
    (["simulate", "--copula", "gumbel", "--nu", "nan"], "--nu must be finite and >= 1, got nan"),
    (["curves", "--n", "0"], "--n must be a positive integer, got 0"),
    (["curves", "--quantity", "cdf", "--c-grid", "0.1,0.1000001,0.5"],  # %g prints both as c=0.1
     "--c-grid must have distinct labels, but thresholds [0.1, 0.1000001] share one"),
    (["cstar", "--model", "two-sample", "--n1", "0"], "--n1 must be a positive integer, got 0"),
    (["simulate", "--model", "two-sample", "--n2", "-4"], "--n2 must be a positive integer, got -4"),
    # Each size within the bound, the laws' df past it or below 1: the message names both flags.
    (["cstar", "--model", "two-sample", f"--n1={2**53}", f"--n2={2**53}"],
     f"--n1 + --n2 - 2 must be at most 2**53, got {2**54 - 2}"),
    (["curves", "--model", "two-sample", "--n1", "1", "--n2", "1"],
     "--n1 + --n2 - 2 must be a positive integer, got 0"),
]


@pytest.mark.parametrize("flags,line", _SINGLE_BAD_FLAG, ids=["_".join(flags) for flags, _ in _SINGLE_BAD_FLAG])
def test_single_bad_flag_prints_its_line(capsys, hand_file, flags, line):
    command, *rest = flags
    base = {"analyze": [hand_file], "simulate": ["--m", "10", "--reps", "2"]}.get(command, ["--m", "10"])
    code, out, err = run_cli(capsys, command, *base, *rest)
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("command", ["analyze", "simulate", "curves"])
def test_unwritable_out_exits_2(capsys, hand_file, tmp_path, command):
    out = tmp_path / "missing" / "x.csv"
    argv = {"analyze": [hand_file], "simulate": ["--m", "10", "--reps", "2"], "curves": ["--m", "10"]}[command]
    code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert (code, err) == (2, f"error: {out}: No such file or directory\n")


@pytest.mark.parametrize("command", ["analyze", "simulate", "curves"])
def test_unwritable_out_fails_before_the_work(capsys, hand_file, tmp_path, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the output opened")

    for name in ("select_c0", "run_mc", "h_curve"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "x.csv"
    argv = {"analyze": [hand_file], "simulate": ["--m", "10", "--reps", "2"], "curves": ["--m", "10"]}[command]
    assert run_cli(capsys, command, *argv, "--out", str(out)) == (2, "", f"error: {out}: No such file or directory\n")


@pytest.mark.parametrize("command,flags", [
    ("analyze", ["--lambda", "1.5"]),
    ("analyze", ["--seed", "-1"]),
    ("simulate", ["--reps", "0"]),
    ("simulate", ["--workers", "0"]),
    ("simulate", ["--c-grid", "1,0"]),
    ("curves", ["--quantity", "cdf", "--t-points", "0"]),
    ("curves", ["--nu", "0.5"]),
    ("curves", ["--quantity", "cdf", "--c-grid", "0.1,0.1000001"]),
])
def test_bad_flag_leaves_an_existing_out_alone(capsys, hand_file, tmp_path, command, flags):
    out = tmp_path / "keep.csv"
    out.write_text("kept\n")
    argv = {"analyze": [hand_file], "simulate": ["--m", "10", "--reps", "2"], "curves": ["--m", "10"]}[command]
    code, stdout, err = run_cli(capsys, command, *argv, *flags, "--out", str(out))
    assert (code, stdout) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["simulate", f"--reps={2**53}"],
    ["simulate", "--model=two-sample", "--copula=gumbel", f"--m={2**53}", "--reps=1"],
    ["curves", "--quantity=cdf", f"--t-points={2**53}"],
], ids=["simulate-reps", "simulate-m", "curves-t-points"])
def test_a_size_that_does_not_fit_in_memory_exits_2(capsys, argv):
    # Each count is within 2**53, but the array it asks for is not within memory; numpy raises before it allocates.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: out of memory: Unable to allocate ")


@pytest.mark.parametrize("model", ["z", "two-sample"])
def test_an_independent_model_allocates_nothing_of_size_m(capsys, model):
    # Under independence a replicate draws cell counts, not m values: --m 2**53 runs.
    code, out, err = run_cli(capsys, "simulate", f"--model={model}", f"--m={2**53}", "--reps=2", "--c-grid=0,0.5,1")
    assert (code, err) == (0, "")
    assert np.all(np.isfinite([[float(v) for v in ln.split(",")] for ln in out.split("\n")[-4:-1]]))


def test_missing_input_names_its_path(capsys, tmp_path):
    path = tmp_path / "nope.csv"
    assert run_cli(capsys, "analyze", str(path)) == (2, "", f"error: {path}: No such file or directory\n")


def test_os_error_without_a_path_stays_internal(capsys, monkeypatch):
    # A closed pipe on stdout, say, is not a bad path the user gave.
    def broken_pipe(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_cstar", broken_pipe)
    assert run_cli(capsys, "cstar") == (1, "", "internal error: [Errno 32] Broken pipe\n")


def test_path_is_not_read_as_a_flag(capsys, tmp_path, monkeypatch):
    # A reader message starts with the path, here one whose first word is a field name.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n must.csv").write_text("value\n0.4\n0.5\n")
    code, _, err = run_cli(capsys, "analyze", "n must.csv")
    assert (code, err) == (2, "error: n must.csv: row 1: header must contain a p_lfc column\n")


def test_byte_order_mark_is_accepted(capsys, tmp_path):
    # A spreadsheet's "CSV UTF-8" starts with U+FEFF; the report and the row numbers stay those of the plain file.
    path = tmp_path / "in.csv"
    texts = (HAND_CSV, "p_lfc\n0.4\n1.2\n0.3\n", "value\n0.4\n0.5\n", "# note\n\np_lfc\n0.1\nabc\n", "id,p_lfc\na,0.1\nb\n")
    for text in texts:
        path.write_text(text, encoding="utf-8")
        plain = run_cli(capsys, "analyze", str(path))
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert run_cli(capsys, "analyze", str(path)) == plain
        assert plain[0] == (0 if text == HAND_CSV else 2)
