import argparse
import csv
import io
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opgraph import cli
from opgraph.graph import graph_from_mask
from opgraph.linalg import DEFAULT_TOL

from conftest import run_cli
from reference import graph_from_labels, graph_words

DATA = Path(__file__).parent / "data"


def test_verify_section3_json():
    result = run_cli("verify", "section3", "--n", "5", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["anticlique"] is True
    assert report["graph_dim_labels"] == 41
    assert report["graph_dim_gram"] == 41
    assert report["formula_match"] is True
    assert report["schema"] == 1


def test_verify_section2_json():
    result = run_cli("verify", "section2", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["graph_dim_gram"] == 5
    assert report["code_dim"] == 2
    assert report["graph_dim_labels"] == 5
    assert report["anticlique"] is True


def test_verify_section4_json():
    result = run_cli(
        "verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2", "--json"
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["anticlique"] is True
    assert report["formula_match"] is False
    assert report["paper_claimed_dim"] == 3921
    assert report["graph_dim_labels"] == 3969


def test_verify_remark2_json():
    result = run_cli("verify", "remark2", "--n", "4", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["anticlique"] is True
    assert report["formula_match"] is True
    assert report["graph_dim_labels"] == 193


def test_verify_remark2_rejects_n_below_two():
    for n in ("1", "0"):
        result = run_cli("verify", "remark2", "--n", n, "--json")
        assert result.returncode == 2, n
        assert f"requires n >= 2 (got n={n})".encode() in result.stderr
        assert result.stdout == b""


def test_verify_section4_n16_matches_committed_report():
    # byte equality pins every field, max_residual's bits included
    result = run_cli(
        "verify", "section4", "--p", "2", "--y", "8", "--h", "1", "--d", "4",
        "--json", "--deterministic",
    )
    assert result.returncode == 0
    assert result.stdout == (DATA / "verify_section4_2_8_1_4.json").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify section4 --p 2 --y 8 --h 1 --d 4 --n 99", "section4 does not read --n"),
        ("verify section2 --n 7", "section2 does not read --n"),
        ("verify section2 --n 0", "section2 does not read --n"),
        ("verify section3 --n 3 --p 5 --d 2", "section3 does not read --p"),
        ("verify section3 --n 3 --d 2", "section3 does not read --d"),
        ("verify section4 --p 2 --y 4 --h 1 --d 2 --n 8", "section4 does not read --n"),
        ("verify remark2 --n 4 --d 2", "remark2 does not read --d"),
        ("demo --construction section2 --h 1", "section2 does not read --h"),
        ("sweep section4 --n-max 12 --n 3..5", "section4 does not read --n"),
        ("sweep section3 --n 3..5 --n-max 9", "section3 does not read --n-max"),
    ],
)
def test_flag_the_construction_does_not_read_exits_two(argv, message, capsys):
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify section3", "section3 requires --n"),
        ("verify section4 --p 2", "section4 requires --p --y --h --d"),
        ("verify remark2", "remark2 requires --n"),
        ("demo --construction section4 --p 2 --y 4", "section4 requires --p --y --h --d"),
        ("sweep section3", "sweep section3 requires --n A..B"),
        ("sweep section4", "sweep section4 requires --n-max"),
    ],
)
def test_missing_flag_the_construction_needs_exits_two(argv, message, capsys):
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "golden, args",
    [
        ("verify_section2.json", ["section2"]),
        ("verify_section3_n5.json", ["section3", "--n", "5"]),
        ("verify_remark2_n8.json", ["remark2", "--n", "8"]),
        ("verify_section4_2_24_0_24.json", ["section4", "--p", "2", "--y", "24", "--h", "0", "--d", "24"]),
        ("verify_section4_2_4_1_2.json", ["section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2"]),
    ],
)
def test_verify_matches_committed_report(golden, args):
    # every construction, pinned byte for byte, the paper's (2,4,1,2)
    # reference point among them; the d = 24 code gives the verdict a Gram
    # matrix of order 576, which it eigensolves
    result = run_cli("verify", *args, "--json", "--deterministic")
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == (DATA / golden).read_bytes()


def test_verify_text_output():
    result = run_cli("verify", "section3", "--n", "3")
    assert result.returncode == 0
    assert b"hard checks: pass" in result.stdout


def test_deterministic_output_is_byte_identical():
    args = ("verify", "section3", "--n", "4", "--json", "--deterministic")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["runtime_ms"] == 0


def test_verify_invalid_params_exit_two():
    for n in ("2", "-3"):
        result = run_cli("verify", "section3", "--n", n)
        assert result.returncode == 2, n
        assert b"n > 2" in result.stderr
        # no flag overrides the condition, and none is suggested
        assert b"override" not in result.stderr

    result = run_cli("verify", "section4", "--p", "2", "--y", "4", "--h", "0", "--d", "2")
    assert result.returncode == 2
    assert b"(h+1)(d+1) >= y" in result.stderr

    result = run_cli("verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "1")
    assert result.returncode == 2
    assert b"d >= 2" in result.stderr
    assert b"override" not in result.stderr

    result = run_cli("verify", "section3")
    assert result.returncode == 2

    # a relative rank cutoff at or above lambda_max would make every rank 0
    result = run_cli("verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2",
                     "--tol-rel", "2")
    assert result.returncode == 2
    assert b"0 < relative < 1" in result.stderr

    # demo ranks nothing, so it takes no rank cutoff
    result = run_cli("demo", "--construction", "section3", "--n", "3", "--trials", "1",
                     "--tol-rel", "2")
    assert result.returncode == 2
    assert b"unrecognized arguments: --tol-rel" in result.stderr


@pytest.mark.parametrize(
    "argv", ["verify section3 --n 2 --allow-n2", "verify section4 --p 2 --y 2 --h 1 --d 1 --allow-d1"]
)
def test_allow_flags_are_unrecognized(argv, capsys):
    # n = 2 and d = 1 are rejected outright; no flag lets them through
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-" in capsys.readouterr().err


# n = 20000: the n^4 = 1.6e17-byte mask exceeds any address space, and it
# is each build's first allocation, so it fails at once
TOO_LARGE = {
    "section4": ["verify", "section4", "--p", "2", "--y", "10000", "--h", "0", "--d", "10000"],
    "remark2": ["verify", "remark2", "--n", "20000"],
}


@pytest.mark.parametrize("argv", TOO_LARGE.values(), ids=TOO_LARGE)
def test_point_too_large_to_allocate_exits_two(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate "), lines


@pytest.mark.parametrize("argv", TOO_LARGE.values(), ids=TOO_LARGE)
def test_point_too_large_to_allocate_peaks_small(argv):
    # nothing sized by n is made before the mask fails to allocate; forming
    # section4's n^2 clock sums first peaked at 6.5 GB. tracemalloc would
    # count the failed request, so the child reports its own peak RSS
    # (ru_maxrss, in KiB on Linux)
    script = (
        "import resource, sys\n"
        "from opgraph import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, timeout=600)
    code, peak_kib = map(int, result.stdout.split())
    assert code == 2, result.stderr
    assert peak_kib < 100 * 1000 * 1000 / 1024, peak_kib


def test_non_finite_tol_abs_exits_two():
    # nan would fail every residual check and inf pass every one
    for value in ("nan", "inf"):
        for command in (
            ("verify", "section3", "--n", "4"),
            ("sweep", "section3", "--n", "3..4"),
            ("demo", "--construction", "section3", "--n", "3", "--trials", "1"),
        ):
            result = run_cli(*command, "--tol-abs", value)
            assert result.returncode == 2, (command, value)
            assert result.stdout == b"", (command, value)
            assert b"0 < absolute < inf" in result.stderr, (command, value)


@pytest.mark.parametrize("argv", [
    ["verify", "section2"],
    ["sweep", "section3", "--n", "3..4"],
    ["demo", "--construction", "section2"],
])
def test_tolerance_flags_default_to_the_library_tolerance(argv):
    # the flags read their defaults from DEFAULT_TOL; demo has no --tol-rel
    args = cli.build_parser().parse_args(argv)
    assert args.tol_abs == DEFAULT_TOL.absolute
    assert getattr(args, "tol_rel", DEFAULT_TOL.relative) == DEFAULT_TOL.relative


def test_demo_help_lists_only_tol_abs():
    result = run_cli("demo", "--help")
    assert result.returncode == 0
    assert b"--tol-abs" in result.stdout
    for flag in (b"--tol-rel", b"--oracle", b"--deterministic"):
        assert flag not in result.stdout, flag


def test_verify_tol_abs_bounds_the_residual():
    # section4 (2,4,1,2) has a nonzero roundoff residual (section3's is
    # exactly 0), so a tiny --tol-abs fails it
    args = ("verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2", "--json", "--deterministic")
    default = run_cli(*args)
    strict = run_cli(*args, "--tol-abs", "1e-30")
    assert default.returncode == 0
    assert strict.returncode == 1
    default_report, strict_report = json.loads(default.stdout), json.loads(strict.stdout)
    assert 1e-30 < strict_report["max_residual"] <= 1e-12
    assert strict_report.pop("tolerance") == {"absolute": 1e-30, "relative": 1e-9}
    default_report.pop("tolerance")
    assert strict_report == default_report
    # the verdict holds, so the failed residual check names the word and
    # entry where the residual peaks
    assert default.stderr == b""
    assert strict.stderr.decode() == (
        "max_residual exceeds --tol-abs 1e-30 at generator 1009, word (2, 0, 2, 1): entry (q_2, q_1) "
        f"deviates from c_V * I by {strict_report['max_residual']:.3e}\n"
    )


def test_sweep_bad_tolerance_exits_before_any_output():
    result = run_cli("sweep", "section4", "--n-max", "6", "--tol-rel", "2")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"0 < relative < 1" in result.stderr


def test_verify_labels_oracle_on_section2():
    # both oracles always run (test_verify_section2_json pins 5 and 5); no
    # flag selects one of them
    result = run_cli("verify", "section2", "--oracle", "labels", "--json")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"--oracle" in result.stderr


def test_oracle_disagreement_is_a_hard_failure(monkeypatch, capsys):
    real = cli.graph_dim
    monkeypatch.setattr(
        cli, "graph_dim", lambda g, method, *tol: real(g, method, *tol) + (method == "gram")
    )
    assert cli.main(["verify", "section3", "--n", "3", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["graph_dim_labels"], report["graph_dim_gram"]) == (13, 14)
    assert report["formula_match"] is True and report["anticlique"] is True


def test_sweep_rejected_first_point_prints_nothing():
    # n=2 is rejected while the first point is built, before any CSV header
    result = run_cli("sweep", "section3", "--n", "2..4")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"n > 2" in result.stderr


def test_gram_oracle_runs_in_full_without_flags():
    # the Gram oracle covers all 19873 generators, with no flag asking for it
    result = run_cli("verify", "section4", "--p", "2", "--y", "6", "--h", "0", "--d", "5", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["graph_dim_gram"] == report["graph_dim_labels"]
    # no flag selects a partial Gram check
    for flag in (["--full-gram"], ["--subsample-seed", "0"]):
        result = run_cli("verify", "section3", "--n", "3", *flag)
        assert result.returncode == 2, flag


def test_verify_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma in numpy 2.4, which costs a cold
    # process about 20 ms and 1 MB; the oracles sort and diff instead
    script = (
        "import contextlib, io, sys\n"
        "from opgraph import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'section4', '--p', '2', '--y', '2', '--h', '0', '--d', '2'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=600)
    assert result.stdout.split() == [b"0", b"False"], result.stderr


def test_sweep_section3_csv():
    result = run_cli("sweep", "section3", "--n", "3..6", "--format", "csv")
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
    assert len(rows) == 4
    assert [row["n"] for row in rows] == ["3", "4", "5", "6"]
    assert all(row["anticlique"] == "True" for row in rows)
    matches = {row["n"]: row["formula_match"] for row in rows}
    assert matches == {"3": "True", "4": "False", "5": "True", "6": "False"}


def test_sweep_section3_matches_committed_report():
    # every section3 code from n = 3 to 24, pinned byte for byte
    result = run_cli("sweep", "section3", "--n", "3..24", "--deterministic")
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == (DATA / "sweep_section3_n3_24.csv").read_bytes()


def test_sweep_section3_csv_bytes():
    # exact bytes: column order, blank cells and line ends; only the roundoff
    # residual is masked
    result = run_cli("sweep", "section3", "--n", "3..4", "--deterministic")
    assert result.returncode == 0
    lines = result.stdout.decode().split("\r\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 2
    residual = cli.CSV_COLUMNS.index("max_residual")
    for row in rows:
        assert float(row[residual]) < 1e-13
        row[residual] = "<r>"
    assert [",".join(row) for row in rows] == [
        "section3,3,,,,,9,3,13,13,13,True,True,<r>,1,3,0",
        "section3,4,,,,,16,4,21,21,25,False,True,<r>,1,4,0",
    ]


def _fail_at_second_call(monkeypatch, name, fail):
    """Patch cli.<name> so that its second call returns fail(result of the
    real call) instead of the real result."""
    real = getattr(cli, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return fail(result) if len(calls) == 2 else result

    monkeypatch.setattr(cli, name, patched)


def test_sweep_point_raising_midway_keeps_earlier_rows(monkeypatch, capsys):
    def fail(_):
        raise ValueError("injected build failure")

    _fail_at_second_call(monkeypatch, "build_section4", fail)
    assert cli.main(["sweep", "section4", "--n-max", "8", "--deterministic"]) == 2
    out, err = capsys.readouterr()
    lines = out.split("\r\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 3 and lines[1].startswith("section4,4,2,2,0,2,") and lines[2] == ""
    assert err == "error: injected build failure\n"


def test_sweep_point_failing_midway_prints_every_row(monkeypatch, capsys):
    _fail_at_second_call(monkeypatch, "is_anticlique", lambda ac: replace(ac, verdict=False))
    assert cli.main(["sweep", "section4", "--n-max", "8", "--deterministic"]) == 1
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert [row["anticlique"] for row in rows] == ["True", "False"] + ["True"] * 6
    # the failed verdict, and only it, names where its residual peaks
    assert len(err.splitlines()) == 1
    assert err.startswith("anticlique fails at generator ")


def test_oracle_disagreement_names_both_dimensions(monkeypatch, capsys):
    real = cli.graph_dim
    monkeypatch.setattr(cli, "graph_dim", lambda g, method, *tol: real(g, method, *tol) - (method == "gram"))
    assert cli.main(["verify", "section3", "--n", "5", "--json", "--deterministic"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["graph_dim_gram"] == 40
    assert err == "dimension oracles disagree: labels 41, gram 40\n"


def test_failed_verdict_names_the_word_and_code_vectors(monkeypatch, capsys):
    # construction-scale negative control: Z^p (x) I is outside the
    # (2,8,1,4) graph and compresses to diag(1, i, -1, -i) on q_1..q_4
    real = cli.build_section4

    def grown(params):
        g, code = real(params)
        return graph_from_labels(g.n, np.concatenate([graph_words(g), [[0, 2, 0, 0, 0, 0]]])), code

    monkeypatch.setattr(cli, "build_section4", grown)
    argv = ["verify", "section4", "--p", "2", "--y", "8", "--h", "1", "--d", "4", "--json", "--deterministic"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["anticlique"] is False
    assert report["graph_dim_labels"] == report["graph_dim_gram"] == 64515
    match = re.fullmatch(
        r"anticlique fails at generator (\d+), word \(0, (2|14), 0, 0\): "
        r"entry \((q_[1-4]), \3\) deviates from c_V \* I by 1\.000e\+00\n",
        err,
    )
    assert match, err
    # the id of Z^kz (x) I in mask order: its entry (kz, 0) is the first of
    # its row, after every generator of the rows above
    g, _ = grown(cli.Section4Params(2, 8, 1, 4))
    assert int(match[1]) == np.count_nonzero(g.mask[: int(match[2])])


def test_failed_verdict_names_the_code_shift(monkeypatch, capsys):
    # the off-diagonal negative control: the code's own shift X^2 (x) X^2
    # maps q_k onto q_{k+1} cyclically, so it is a generator and its
    # compression is not a multiple of the identity
    real = cli.build_section4

    def grown(params):
        g, code = real(params)
        mask = g.mask.copy()
        mask[2 * g.n, 2 * g.n] = True
        return graph_from_mask(g.n, mask), code

    monkeypatch.setattr(cli, "build_section4", grown)
    argv = ["verify", "section4", "--p", "2", "--y", "8", "--h", "1", "--d", "4", "--json", "--deterministic"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["anticlique"] is False
    assert report["graph_dim_labels"] == report["graph_dim_gram"] == 64515
    match = re.fullmatch(
        r"anticlique fails at generator (\d+), word \(2, 0, 2, 0\): "
        r"entry \((q_[1-4]), (q_[1-4])\) deviates from c_V \* I by 1\.000e\+00\n",
        err,
    )
    assert match, err
    assert match[2] != match[3]
    # the entry (32, 32) of X^2 (x) X^2 comes after the rows above and the
    # entries to its left
    g, _ = grown(cli.Section4Params(2, 8, 1, 4))
    assert int(match[1]) == np.count_nonzero(g.mask[:32]) + np.count_nonzero(g.mask[32, :32])


@pytest.mark.parametrize("construction, worst, dim", [("section3", 44, 87), ("remark2", 457, 3587)])
def test_failed_verdict_names_the_equal_shift(monkeypatch, capsys, construction, worst, dim):
    # the negative control of section3 and remark2 at n = 8: the equal
    # shift X (x) X lies outside both families and maps h_c onto h_{c+1}
    name = f"build_{construction}"
    real = getattr(cli, name)

    def grown(n):
        g, code = real(n)
        mask = g.mask.copy()
        mask[n, n] = True
        return graph_from_mask(n, mask), code

    monkeypatch.setattr(cli, name, grown)
    assert cli.main(["verify", construction, "--n", "8", "--json", "--deterministic"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["anticlique"] is False
    assert report["max_residual"] == 1.0
    assert report["graph_dim_labels"] == report["graph_dim_gram"] == dim
    assert err == (
        f"anticlique fails at generator {worst}, word (1, 0, 1, 0): "
        "entry (h_1, h_8) deviates from c_V * I by 1.000e+00\n"
    )


def test_sweep_section3_jsonl():
    result = run_cli("sweep", "section3", "--n", "3..4", "--format", "jsonl")
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["params"]["n"] for r in reports] == [3, 4]
    assert all(r["anticlique"] for r in reports)


@pytest.mark.parametrize(
    "sweep, rows", [("section4 --n-max 8", 8), ("section3 --n 3..6", 4)], ids=["section4", "section3"]
)
def test_sweep_row_is_the_verify_report_of_its_point(sweep, rows, capsys):
    assert cli.main(["sweep", *sweep.split(), "--format", "jsonl", "--deterministic"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(reports) == rows
    for report in reports:
        construction = report["construction"]
        flags = [f"{flag}={report['params'][flag[2:]]}" for flag in cli.READS[construction]]
        assert cli.main(["verify", construction, *flags, "--json", "--deterministic"]) == 0
        assert json.loads(capsys.readouterr().out) == report


def test_sweep_empty_range_exit_two():
    result = run_cli("sweep", "section3", "--n", "9..3")
    assert result.returncode == 2
    for n_max in ("3", "0", "-5"):
        result = run_cli("sweep", "section4", "--n-max", n_max)
        assert result.returncode == 2, n_max
        assert result.stdout == b""
        assert b"empty parameter range" in result.stderr


def test_sweep_section4_small():
    result = run_cli("sweep", "section4", "--n-max", "6", "--format", "csv")
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
    assert len(rows) == 4
    assert all(row["anticlique"] == "True" for row in rows)
    assert all(row["construction"] == "section4" for row in rows)


def test_sweep_section4_through_eight():
    result = run_cli("sweep", "section4", "--n-max", "8", "--format", "csv")
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
    assert len(rows) == 8
    assert all(row["anticlique"] == "True" for row in rows)


def test_sweep_section4_n12_matches_committed_report():
    # the committed report pins every column; max_residual is roundoff and
    # may move with the order of floating-point operations
    result = run_cli("sweep", "section4", "--n-max", "12", "--deterministic")
    assert result.returncode == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
    with open(DATA / "sweep_section4_n12.csv", newline="") as f:
        expected = list(csv.DictReader(f))
    assert len(rows) == len(expected) == 25
    for row, want in zip(rows, expected):
        assert float(row.pop("max_residual")) < 1e-13
        want.pop("max_residual")
        assert row == want


def test_sweep_goldens_are_prefixes_of_the_n64_golden():
    # a sweep visits its points in order of n, so each smaller committed
    # sweep is the first rows of the 810-point n <= 64 one, byte for byte
    whole = (DATA / "sweep_section4_n64.csv").read_bytes()
    assert whole.count(b"\n") == 1 + 810
    for n in (12, 32, 48):
        assert whole.startswith((DATA / f"sweep_section4_n{n}.csv").read_bytes()), n


def test_demo_section3():
    result = run_cli(
        "demo", "--construction", "section3", "--n", "4", "--trials", "100", "--seed", "7"
    )
    assert result.returncode == 0
    assert result.stdout.count(b"trial ") == 100
    assert b"pass" in result.stdout


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_demo_section3_is_exact(n, seed):
    # section3's Fourier coordinates are exact 0s and 1s, and each word maps
    # f_j (x) f_j to a root of unity times one Fourier product: no roundoff
    # enters the cross-talk
    result = run_cli("demo", "--construction", "section3", "--n", str(n), "--seed", str(seed))
    assert result.returncode == 0
    last = result.stdout.decode().splitlines()[-1]
    assert last == "max cross-talk over 20 trials: 0.000e+00 -> pass"


EXACT_DEMOS = {
    "3": "remark2 --n 3",
    "4": "remark2 --n 4",
    "8": "remark2 --n 8",
    "section2-0": "section2 --seed 0",
    "section2-1": "section2 --seed 1",
}


@pytest.mark.parametrize("point", EXACT_DEMOS.values(), ids=EXACT_DEMOS.keys())
def test_demo_remark2_is_exact(point, capsys):
    # remark2's code is section3's f_j (x) f_j code, with the same exact
    # coordinates, so its cross-talk is exactly zero too. Section2's
    # closed-form coordinates, 0 and +-1/sqrt(2), let no roundoff in either
    assert cli.main(["demo", "--construction", *point.split()]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "max cross-talk over 20 trials: 0.000e+00 -> pass"


def test_demo_section2_and_reproducibility():
    first = run_cli("demo", "--construction", "section2", "--trials", "50", "--seed", "1")
    second = run_cli("demo", "--construction", "section2", "--trials", "50", "--seed", "1")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_demo_zero_trials():
    result = run_cli("demo", "--construction", "section3", "--n", "3", "--trials", "0")
    assert result.returncode == 0
    assert result.stdout.count(b"trial ") == 0


def test_demo_invalid_params():
    result = run_cli("demo", "--construction", "section4", "--trials", "5")
    assert result.returncode == 2


def test_verify_rejects_a_bad_tolerance_before_building(capsys):
    # the point's n^4-byte mask could not be allocated; the tolerance is
    # checked first
    argv = "verify section4 --p 2 --y 10000 --h 0 --d 10000 --tol-rel 2"
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: relative tolerance must satisfy 0 < relative < 1, got 2.0\n"


def test_demo_rejects_negative_trials_before_building(capsys):
    # the point's n^4-byte mask could not be allocated; --trials is checked first
    argv = "demo --construction section4 --p 2 --y 10000 --h 0 --d 10000 --trials -1"
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --trials must be >= 0\n"


def test_demo_rejects_negative_seed_before_building(capsys):
    # the point's n^4-byte mask could not be allocated; --seed is checked first
    argv = "demo --construction section4 --p 2 --y 10000 --h 0 --d 10000 --seed -1"
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be >= 0\n"


def test_help_documents_csv_columns():
    result = run_cli("--help")
    assert result.returncode == 0
    assert b"graph_dim_labels" in result.stdout


# argv whose help, usage lines and errors the one-command parser must give
# exactly as the full parser does: each command's help, a missing
# positional or required flag, an unrecognized flag (reported by the top
# level, whose usage line lists every command) and a bad choice or value
PARSER_ARGV = [
    ["verify", "--help"],
    ["sweep", "--help"],
    ["demo", "--help"],
    ["verify"],
    ["sweep", "--n-max", "12"],
    ["demo", "--trials", "2"],
    ["verify", "section2", "--bogus"],
    ["sweep", "section3", "--n", "3..4", "--bogus"],
    ["demo", "--construction", "section2", "--bogus"],
    ["verify", "section9"],
    ["sweep", "remark2"],
    ["demo", "--construction", "section3", "--n", "x"],
]


def _parse_exit(parser, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(argv, monkeypatch, capsys):
    # argparse wraps help and usage to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_exit(cli.build_parser(), argv, capsys)
    assert full[0] == (0 if argv[-1] == "--help" else 2)
    assert _parse_exit(cli.build_parser(argv[0]), argv, capsys) == full


def _commands(parser) -> list[str]:
    return [name for action in parser._actions if isinstance(action, argparse._SubParsersAction)
            for name in action.choices]


def test_build_parser_without_a_command_registers_all_three():
    assert _commands(cli.build_parser()) == ["verify", "sweep", "demo"]
    for command in cli.COMMANDS:
        assert _commands(cli.build_parser(command)) == [command]


@pytest.fixture
def parsers_built(monkeypatch) -> list[tuple]:
    """The arguments of every cli.build_parser call made after it is set up."""
    asked = []
    build = cli.build_parser

    def spy(*args):
        asked.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_parser", spy)
    return asked


@pytest.mark.parametrize("argv, command", [
    (["verify", "section2", "--json", "--deterministic"], "verify"),
    (["sweep", "section3", "--n", "3..3", "--deterministic"], "sweep"),
    (["demo", "--construction", "section2", "--trials", "1"], "demo"),
    (["--version"], None),
    (["--help"], None),
    (["verif", "section2"], None),
    ([], None),
])
def test_main_builds_the_parser_of_the_command_it_runs(argv, command, parsers_built):
    # a first token that is not a command name (an option, a typo, nothing)
    # gets the full parser, so its help and errors list every command
    try:
        cli.main(argv)
    except SystemExit:
        pass
    assert parsers_built == [(command,)]


def test_main_without_argv_reads_sys_argv(parsers_built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["opgraph", "verify", "section2", "--json", "--deterministic"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["construction"] == "section2"
    assert parsers_built == [("verify",)]
