import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import counts_csv, run_cli, spy
from steerq import criteria
from steerq.cli import EXIT_INPUT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, MAX_COUNTS_CHARS
from steerq.criteria import SolverError, chi_threshold
from steerq.expio import (MAX_BOOTSTRAP, MAX_SWEEP_STEPS, CountsFormatError,
                          parse_counts_csv)


def run_eval(tmp_path, text, *argv):
    """run_cli on eval over tmp_path/counts.csv holding text, or over no file if text is None."""
    path = tmp_path / "counts.csv"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return run_cli("eval", "--counts", str(path), *argv)


class TestSimulate:
    def test_writes_parseable_csv(self, tmp_path):
        out = tmp_path / "counts.csv"
        code, _, _ = run_cli("simulate", "--theta", "22.5", "--chi", "0.5",
                             "--shots", "20000", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        rec = parse_counts_csv(out.read_text())
        assert all(total > 15000 for total in rec.counts.sum(axis=(1, 2)))

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli("simulate", "--theta", "7.5", "--chi", "0.3",
                    "--shots", "5000", "--seed", "42", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("shots", [10**20, 2**63 - 1])
    def test_shots_beyond_count_bound(self, tmp_path, shots):
        out = tmp_path / "counts.csv"
        assert run_cli("simulate", "--theta", "22.5", "--chi", "0.5", "--shots", str(shots),
                       "--out", str(out)) == (EXIT_INPUT, "", (
            f"error: shots must be a positive integer below 2**53 = {2**53}, got {shots}\n"))
        assert not out.exists()

    def test_drawn_total_at_count_bound_names_shots(self, tmp_path):
        shots = 2**53 - 1
        out = tmp_path / "counts.csv"
        assert run_cli("simulate", "--theta", "22.5", "--chi", "0.5", "--shots", str(shots),
                       "--seed", "0", "--out", str(out)) == (EXIT_INPUT, "", (
            f"error: shots = {shots} drew an axis y total count of 9007199257698276, which is "
            f"not below 2**53 = {2**53}; use fewer shots\n"))
        assert not out.exists()

    def test_unwritable_path(self, tmp_path):
        code, _, _ = run_cli("simulate", "--theta", "22.5", "--chi", "0.5",
                             "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == EXIT_IO


class TestEval:
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        text = "# exported\n" + counts_csv({("x", "00"): 40, ("z", "11"): 0})
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        docs = []
        for path in (plain, marked):
            code, out, _ = run_cli("eval", "--counts", str(path), "--seed", "4")
            assert code == EXIT_OK
            docs.append(json.loads(out))
        for field in ("criteria", "probabilities", "totals", "bounds", "seed"):
            assert docs[0][field] == docs[1][field]

    # each input error: its exit code, no stdout and its whole stderr line
    def test_utf16_file_is_input_error_naming_path_and_encoding(self, tmp_path):
        # spreadsheet "Unicode text" exports are UTF-16 with a 0xff 0xfe byte-order mark
        path = tmp_path / "utf16.csv"
        path.write_text(counts_csv({}), encoding="utf-16")
        assert run_cli("eval", "--counts", str(path)) == (EXIT_INPUT, "", (
            f"error: {path}: cannot decode byte 0xff; the counts CSV must be UTF-8 text\n"))

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_eval(tmp_path, None) == (EXIT_IO, "", (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'counts.csv'}'\n"))

    def test_malformed_csv_is_input_error(self, tmp_path):
        assert run_eval(tmp_path, "setting,outcome,count\nx,00,oops\n") == (
            EXIT_INPUT, "", "error: line 2: count 'oops' is not a non-negative integer\n")

    def test_setting_total_at_float_limit_is_input_error(self, tmp_path):
        text = counts_csv({("y", o): 2**51 for o in ("00", "01", "10", "11")})
        assert run_eval(tmp_path, text) == (
            EXIT_INPUT, "", f"error: axis y total count {2**53} is not below 2**53 = {2**53}\n")

    def test_huge_bootstrap_is_input_error(self, tmp_path):
        assert run_eval(tmp_path, counts_csv({}), "--bootstrap", "1000000000000") == (
            EXIT_INPUT, "", "error: bootstrap resample count must be in [2, 1000000], got "
                            "1000000000000\n")

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-cap", "one-over"])
    def test_counts_file_is_read_up_to_the_cap(self, tmp_path, extra):
        # a comment line pads a valid CSV to the cap, or one character past it
        text = counts_csv({})
        code, out, err = run_eval(tmp_path, text + "#" * (MAX_COUNTS_CHARS - len(text) + extra),
                                  "--bootstrap", "50")
        if extra == 0:
            assert code == EXIT_OK and json.loads(out)["totals"]["x"] == 40
        else:
            assert (code, err) == (EXIT_INPUT, f"error: {tmp_path / 'counts.csv'}: more than "
                                               f"the {MAX_COUNTS_CHARS} characters allowed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_counts_file_is_input_error(self):
        # read whole, /dev/zero used to grow the text until memory ran out
        assert run_cli("eval", "--counts", "/dev/zero") == (EXIT_INPUT, "", (
            f"error: /dev/zero: more than the {MAX_COUNTS_CHARS} characters allowed\n"))

    @pytest.mark.parametrize("content", [None, "setting,outcome,count\nx,00,5\n"],
                             ids=["missing-file", "two-row-csv"])
    def test_q_is_checked_before_the_counts_file(self, tmp_path, content):
        # as eval-state and threshold report the q error before any other input's
        assert run_eval(tmp_path, content, "--q", "7") == (
            EXIT_INPUT, "", "error: entropic index q must lie in (0, 2], got 7.0\n")

    def test_setting_total_just_below_float_limit_is_accepted(self, tmp_path):
        code, out, _ = run_eval(tmp_path, counts_csv({("z", "00"): 2**53 - 1 - 30, ("z", "01"): 0,
                                                      ("z", "10"): 0, ("z", "11"): 30}),
                                "--bootstrap", "50")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["totals"]["z"] == 2**53 - 1
        assert doc["probabilities"]["z"][1:3] == [0.0, 0.0]


@st.composite
def _count_cells(draw):
    """Twelve count texts, small integers, at times one replaced by a malformed or huge one."""
    cells = [str(v) for v in draw(st.lists(st.integers(0, 40), min_size=12, max_size=12))]
    if draw(st.booleans()):
        cells[draw(st.integers(0, 11))] = draw(st.one_of(
            st.integers(2**50, 2**64).map(str),
            st.sampled_from(["", "-1", "1.5", "x", "\u0663", "+2", "1e3", "0x1", "2 3"])))
    return cells


def _mostly_valid(valid, invalid):
    """valid (as str) in two draws of three, else invalid, so that argv with several fields
    still succeed.  Not st.one_of(valid, valid, invalid): one_of flattens the branches of a
    one_of, so an invalid strategy of three branches would come up three times in five."""
    return st.sampled_from([True, True, False]).flatmap(
        lambda ok: valid.map(str) if ok else invalid)


_BOOTSTRAP = _mostly_valid(st.integers(2, 200), st.one_of(
    st.integers(-2, 1).map(str),
    st.integers(MAX_BOOTSTRAP + 1, 10**30).map(str),  # rejected before any draw
    st.sampled_from(["", "abc", "1.5", "1e3"])))
_SEED = _mostly_valid(st.integers(0, 2**64), st.one_of(
    st.integers(-3, -1).map(str), st.sampled_from(["", "x", "1.0"])))
_Q = st.one_of(
    st.lists(st.sampled_from(["2", "1", "1.5", "0.5", "0.1", "1.9", "1e-300"]),
             min_size=1, max_size=4).map(",".join),
    st.lists(st.floats(-0.5, 2.5).map("{:g}".format), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "nan", "inf", "2,2", "1,1.0000001", "2,,1", "two"]))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestEvalFuzz:
    def test_every_outcome_is_a_clean_exit(self, tmp_path):
        """Any --bootstrap, --seed, --q and cell text ends in a clean exit (helpers.run_cli),
        with strict JSON on success."""
        codes = []
        keys = [(s, o) for s in "xyz" for o in ("00", "01", "10", "11")]

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(cells=_count_cells(), bootstrap=_BOOTSTRAP, seed=_SEED, q=_Q)
        @example(cells=[str(2**53 - 12)] + ["1"] * 11,  # a setting total just below 2**53
                 bootstrap="50", seed="0", q="2")
        def check(cells, bootstrap, seed, q):
            code, out, _ = run_eval(tmp_path, counts_csv(dict(zip(keys, cells))),
                                    "--bootstrap", bootstrap, "--seed", seed, "--q", q)
            if code == EXIT_OK:
                assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
            codes.append(code)

        check()
        assert codes.count(EXIT_OK) >= 10 and codes.count(EXIT_INPUT) >= 10


_THETA = _mostly_valid(st.floats(0.0, 45.0), st.one_of(
    st.floats(-90.0, -1e-300).map(repr), st.floats(45.0000000001, 1e300).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "22.5deg"])))
_CHI = _mostly_valid(st.floats(0.0, 1.0), st.one_of(
    st.floats(-1e3, -1e-300).map(repr), st.floats(1.0000000000000002, 1e300).map(repr),
    st.sampled_from(["nan", "inf", "-0.0", "", "x"])))
_THRESHOLD_Q = _mostly_valid(st.floats(0.05, 2.0), st.one_of(
    st.floats(-5.0, 0.0).map(repr), st.floats(2.0000000000000004, 1e10).map(repr),
    st.sampled_from(["nan", "inf", "1e-300", "", "x"])))
_CRITERION = st.sampled_from(["scg", "lsc", "scg", "lsc", "SCG", ""])
_TOL = _mostly_valid(st.floats(1e-12, 0.5), st.sampled_from(
    ["1e-300", "0", "1", "-1e-6", "nan", "inf", "1.5", "", "x"]))
_STEPS = _mostly_valid(st.integers(2, 300), st.one_of(
    st.integers(-3, 1).map(str),
    st.integers(MAX_SWEEP_STEPS + 1, 10**30).map(str),  # rejected before any grid is built
    st.sampled_from(["", "1.5", "x", "1e3"])))
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestAnalyticVerbFuzz:
    """eval-state, threshold and sweep over generated argv: clean exits only."""

    @staticmethod
    def assert_both_outcomes(codes):
        assert codes.count(EXIT_OK) >= 10 and codes.count(EXIT_INPUT) >= 10

    def test_eval_state(self):
        codes = []

        @_FUZZ
        @given(theta=_THETA, chi=_CHI, q=_Q)
        def check(theta, chi, q):
            code, out, _ = run_cli("eval-state", "--theta", theta, "--chi", chi, "--q", q)
            if code == EXIT_OK:
                assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
            codes.append(code)

        check()
        self.assert_both_outcomes(codes)

    def test_threshold(self):
        codes = []

        @_FUZZ
        @given(theta=_THETA, criterion=_CRITERION, q=_THRESHOLD_Q, tol=_TOL)
        def check(theta, criterion, q, tol):
            code, out, _ = run_cli("threshold", "--theta", theta, "--criterion", criterion,
                                   "--q", q, "--tol", tol)
            if code == EXIT_OK:
                assert out.count("\n") == 1
                assert " threshold at theta=" in out or " is not violated " in out
            codes.append(code)

        check()
        self.assert_both_outcomes(codes)

    def test_sweep(self, tmp_path, monkeypatch):
        codes, grids = [], spy(monkeypatch, criteria, "_werner_tensor")

        @_FUZZ
        @given(theta=_THETA, steps=_STEPS, writable=st.sampled_from([True, True, False]))
        def check(theta, steps, writable):
            path = tmp_path / ("curve.csv" if writable else "missing/curve.csv")
            code, out, _ = run_cli("sweep", "--theta", theta, "--steps", steps,
                                   "--out", str(path))
            if code == EXIT_OK:
                assert out == f"wrote {path}\n"
                assert len(path.read_text().splitlines()) == int(steps) + 1
            codes.append(code)

        check()
        self.assert_both_outcomes(codes)
        assert grids and max(np.size(chis) for _, _, chis in grids) <= MAX_SWEEP_STEPS


_SHOTS = _mostly_valid(st.integers(1, 10**6), st.sampled_from(
    ["0", "-1", str(-10**30), str(2**53 - 1), str(2**53), str(2**63), "", "1.5", "x", "1e3"]))
_SIMULATE_SEED = _mostly_valid(st.integers(0, 10**40), st.sampled_from(
    ["-1", str(-10**30), "", "x", "1.0", "nan"]))


class TestOutputVerbFuzz:
    """simulate over generated argv and tables over each of its argv shapes: clean exits only."""

    def test_simulate(self, tmp_path):
        codes = []

        @_FUZZ
        @given(theta=_mostly_valid(st.floats(0.0, 45.0), _THETA),
               chi=_mostly_valid(st.floats(0.0, 1.0), _CHI), shots=_SHOTS, seed=_SIMULATE_SEED,
               target=st.sampled_from(["file"] * 8 + ["directory", "missing"]))
        @example(theta="22.5", chi="0.5", shots="1000", seed="0", target="directory")
        def check(theta, chi, shots, seed, target):
            path = {"file": tmp_path / "counts.csv", "directory": tmp_path,
                    "missing": tmp_path / "missing" / "counts.csv"}[target]
            code, out, _ = run_cli("simulate", "--theta", theta, "--chi", chi,
                                   "--shots", shots, "--seed", seed, "--out", str(path))
            if target != "file":
                assert code != EXIT_OK
            elif code == EXIT_OK:
                assert out == f"wrote {path}\n"
                parse_counts_csv(path.read_text())
            codes.append(code)

        check()
        assert codes.count(EXIT_OK) >= 10 and codes.count(EXIT_INPUT) >= 10, codes
        assert EXIT_IO in codes

    @pytest.mark.parametrize("argv, expected", [
        ([], EXIT_OK), (["--out", "file"], EXIT_OK), (["--out", "directory"], EXIT_IO),
        (["--out", "missing"], EXIT_IO), (["--out"], EXIT_INPUT),
        (["--outt", "file"], EXIT_INPUT), (["extra"], EXIT_INPUT),
    ], ids=["none", "out-file", "out-directory", "out-missing", "bare-out", "outt", "extra"])
    def test_tables(self, tmp_path, argv, expected):
        paths = {"file": tmp_path / "tables.txt", "directory": tmp_path,
                 "missing": tmp_path / "missing" / "tables.txt"}
        code, out, _ = run_cli("tables", *(str(paths.get(a, a)) for a in argv))
        assert code == expected
        if code == EXIT_OK:
            assert "entries: 60" in (out if not argv else paths["file"].read_text())


class TestEvalState:
    def test_json_report(self):
        code, out, _ = run_cli("eval-state", "--theta", "22.5", "--chi", "0.58")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["criteria"][0]["lhs"] == pytest.approx(0.9954, abs=1e-9)
        assert doc["criteria"][0]["steerable"] is True
        assert doc["totals"] is None and doc["seed"] is None

    def test_q_list_token_one_routes_to_shannon(self):
        _, out, _ = run_cli("eval-state", "--theta", "22.5", "--chi", "0", "--q", "1")
        doc = json.loads(out)
        assert doc["criteria"][0]["q"] == 1.0
        assert doc["criteria"][0]["lhs"] == pytest.approx(3 * math.log(2))
        assert doc["criteria"][0]["bound"] == pytest.approx(2 * math.log(2))

    @pytest.mark.parametrize("argv, message", [
        # the q list is parsed before the state is built, so its error comes first
        (("--theta", "50", "--chi", "0.5", "--q", "3"),
         "entropic index q must lie in (0, 2], got 3.0"),
        (("--theta", "nan", "--chi", "0.5", "--q", "0"),
         "entropic index q must lie in (0, 2], got 0.0"),
        (("--theta", "50", "--chi", "1.5", "--q", "2"),
         f"theta={math.radians(50)!r} (50 deg) outside [0, pi/4] ([0, 45] deg)"),
        (("--theta", "22.5", "--chi", "1.5", "--q", "2,2"),
         "entropic indices 2.0, 2.0 collide in the report keys ['scg_q2', 'scg_q2']"),
        (("--theta", "22.5", "--chi", "0.5", "--q", "2,2"),
         "entropic indices 2.0, 2.0 collide in the report keys ['scg_q2', 'scg_q2']"),
        (("--theta", "22.5", "--chi", "0.5", "--q", "2,2,3"),
         "entropic index q must lie in (0, 2], got 3.0"),
    ], ids=["theta-and-q", "nan-theta-and-q", "theta-and-chi", "chi-and-collision",
            "collision", "collision-and-q"])
    def test_first_of_several_faults_is_reported(self, argv, message):
        assert run_cli("eval-state", *argv) == (EXIT_INPUT, "", f"error: {message}\n")


class TestThreshold:
    def test_werner_q2(self):
        code, out, _ = run_cli("threshold", "--theta", "22.5")
        assert code == EXIT_OK
        assert "chi = 0.577350" in out

    def test_lsc(self):
        code, out, _ = run_cli("threshold", "--theta", "7.5", "--criterion", "lsc")
        assert code == EXIT_OK
        assert "chi = 0.816496" in out or "chi = 0.816497" in out

    def test_never_violated(self):
        code, out, _ = run_cli("threshold", "--theta", "0", "--criterion", "scg", "--q", "2")
        assert code == EXIT_OK
        assert "not violated" in out

    @pytest.mark.parametrize("argv, message", [
        (("--criterion", "lsc", "--q", "7"), "entropic index q must lie in (0, 2], got 7.0"),
        (("--criterion", "lsc", "--q", "nan"), "entropic index q must lie in (0, 2], got nan"),
        (("--tol", "0", "--q", "3"), "entropic index q must lie in (0, 2], got 3.0"),
    ], ids=["lsc-q-above-2", "lsc-q-nan", "tol-and-q"])
    def test_q_is_checked_first_for_either_criterion(self, argv, message):
        # as in eval-state, the q error comes before the state's and tol's, with LSC too
        assert run_cli("threshold", "--theta", "10", *argv) == (
            EXIT_INPUT, "", f"error: {message}\n")

    def test_large_tol_still_prints_six_digits(self):
        # one halving of [0, 1]: the threshold near 0.80 lies in [0.5, 1]
        code, out, _ = run_cli("threshold", "--theta", "7.5", "--tol", "0.9")
        assert code == EXIT_OK
        assert out.endswith("chi = 0.750000\n")

    @pytest.mark.parametrize("tol, decimals", [("1e-12", 12), ("1e-300", 17)])
    def test_small_tol_prints_the_decimals_it_resolves(self, tol, decimals):
        code, out, _ = run_cli("threshold", "--theta", "7.5", "--tol", tol)
        assert code == EXIT_OK
        text = out.rstrip("\n").rsplit("chi = ", 1)[1]
        assert len(text.split(".")[1]) == decimals
        chi = chi_threshold(math.radians(7.5), tol=float(tol)).chi
        assert abs(float(text) - chi) <= 0.5 * 10.0 ** -decimals
        assert decimals < 17 or float(text) == chi  # 17 decimals round-trip


class TestSweepAndTables:
    def test_sweep_writes_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli("sweep", "--theta", "7.5", "--steps", "11", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "chi,scg_q2,scg_q1,lsc,bound_q2,bound_q1,bound_lsc"
        assert len(lines) == 12

    @pytest.mark.parametrize("steps", [10**5 + 1, 10**18])
    def test_steps_beyond_cap_rejected_before_evaluating(self, tmp_path, monkeypatch, steps):
        spy(monkeypatch, criteria, "_werner_tensor", forbid=True)
        out = tmp_path / "curve.csv"
        assert run_cli("sweep", "--theta", "7.5", "--steps", str(steps), "--out", str(out)) == (
            EXIT_INPUT, "", f"error: chi_steps must be in [2, 100000], got {steps}\n")
        assert not out.exists()

    def test_tables_to_stdout(self):
        code, out, _ = run_cli("tables")
        assert code == EXIT_OK
        assert "max deviation: 0.0608" in out

    def test_tables_to_file(self, tmp_path):
        out = tmp_path / "tables.txt"
        assert run_cli("tables", "--out", str(out)) == (EXIT_OK, f"wrote {out}\n", "")
        assert "entries: 60" in out.read_text()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--theta", "22.5", "--chi", "0.5", "--shots", "2", "--seed", "0"),
        ("sweep", "--theta", "7.5", "--steps", "1"),
    ])
    def test_failing_verb_leaves_existing_out_file_alone(self, tmp_path, argv):
        # the whole text is built before the file is opened, so a failure truncates nothing
        out = tmp_path / "kept.csv"
        out.write_bytes(b"earlier output\r\n\x00")
        code, _, err = run_cli(*argv, "--out", str(out))
        assert code == EXIT_INPUT and err.startswith("error: ")
        assert out.read_bytes() == b"earlier output\r\n\x00"


class TestExitCodes:
    def test_mapping(self, monkeypatch):
        # io.UnsupportedOperation is an OSError and a ValueError: the OSError test comes first
        cases = [(FileNotFoundError, EXIT_IO), (io.UnsupportedOperation, EXIT_IO),
                 (SolverError, EXIT_NUMERIC), (CountsFormatError, EXIT_INPUT),
                 (ValueError, EXIT_INPUT)]
        for error, expected in cases:
            def fail(*args, **kwargs):
                raise error("x")

            monkeypatch.setattr(criteria, "chi_threshold", fail)
            assert run_cli("threshold", "--theta", "7.5") == (expected, "", "error: x\n"), error


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [("tables",), ("threshold", "--theta", "nan")])
    def test_python_m_steerq_matches_main(self, argv):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "steerq",
                                 *argv], capture_output=True, text=True, env=env, cwd=root,
                                timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == run_cli(*argv)
