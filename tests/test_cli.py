import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steerq.cli import (EXIT_INPUT, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                        exit_code_for, main)
from steerq.criteria import SolverError, chi_threshold
from steerq.expio import (MAX_BOOTSTRAP, MAX_SWEEP_STEPS, CountsFormatError,
                          parse_counts_csv)


def counts_csv(cells: dict, default: int = 10) -> str:
    """Counts CSV with every cell at default, except the (setting, outcome) keys given."""
    rows = ["setting,outcome,count"] + [
        f"{s},{o},{cells.get((s, o), default)}" for s in "xyz" for o in ("00", "01", "10", "11")
    ]
    return "\n".join(rows) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_parseable_csv(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, _, _ = run(capsys, "simulate", "--theta", "22.5", "--chi", "0.5",
                         "--shots", "20000", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        rec = parse_counts_csv(out.read_text())
        assert all(total > 15000 for total in rec.counts.sum(axis=(1, 2)))

    def test_bell_state_zero_cells(self, tmp_path, capsys):
        out = tmp_path / "bell.csv"
        code, _, _ = run(capsys, "simulate", "--theta", "22.5", "--chi", "1",
                         "--shots", "1000000", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        rec = parse_counts_csv(out.read_text())
        z = rec.counts[2]
        assert z[0, 1] == 0 and z[1, 0] == 0

    def test_byte_identical_for_same_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "simulate", "--theta", "7.5", "--chi", "0.3",
                "--shots", "5000", "--seed", "42", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("shots", [10**20, 2**63 - 1])
    def test_shots_beyond_count_bound(self, tmp_path, capsys, shots):
        out = tmp_path / "counts.csv"
        code, stdout, err = run(capsys, "simulate", "--theta", "22.5", "--chi", "0.5",
                                "--shots", str(shots), "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == "" and not out.exists()
        assert f"shots must be a positive integer below 2**53 = {2**53}, got {shots}" in err

    def test_drawn_total_at_count_bound_names_shots(self, tmp_path, capsys):
        shots = 2**53 - 1
        out = tmp_path / "counts.csv"
        code, stdout, err = run(capsys, "simulate", "--theta", "22.5", "--chi", "0.5",
                                "--shots", str(shots), "--seed", "0", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == "" and not out.exists()
        assert err == (f"error: shots = {shots} drew an axis y total count of "
                       f"9007199257698276, which is not below 2**53 = {2**53}; "
                       "use fewer shots\n")

    def test_empty_setting_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code, stdout, err = run(capsys, "simulate", "--theta", "22.5", "--chi", "0.5",
                                "--shots", "2", "--seed", "0", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == "" and not out.exists()
        assert err == "error: shots = 2 with seed = 0 drew no axis z counts; use more shots\n"

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--theta", "22.5", "--chi", "0.5",
                           "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == EXIT_IO
        assert "error:" in err


class TestEval:
    def test_bell_counts_all_steerable(self, tmp_path, capsys):
        path = tmp_path / "bell.csv"
        run(capsys, "simulate", "--theta", "22.5", "--chi", "1",
            "--shots", "1000000", "--seed", "3", "--out", str(path))
        code, out, _ = run(capsys, "eval", "--counts", str(path), "--seed", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [c["steerable"] for c in doc["criteria"]] == [True, True, True]

    def test_uniform_counts_not_steerable(self, tmp_path, capsys):
        path = tmp_path / "uniform.csv"
        rows = ["setting,outcome,count"] + [
            f"{s},{o},250" for s in "xyz" for o in ("00", "01", "10", "11")
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "eval", "--counts", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [c["steerable"] for c in doc["criteria"]] == [False, False, False]
        assert doc["bounds"] == {"scg_q2": 1.0,
                                 "scg_q1": pytest.approx(2 * math.log(2)),
                                 "lsc": 1.0}

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        text = "# exported\n" + counts_csv({("x", "00"): 40, ("z", "11"): 0})
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        docs = []
        for path in (plain, marked):
            code, out, err = run(capsys, "eval", "--counts", str(path), "--seed", "4")
            assert (code, err) == (EXIT_OK, "")
            docs.append(json.loads(out))
        for field in ("criteria", "probabilities", "totals", "bounds", "seed"):
            assert docs[0][field] == docs[1][field]

    def test_utf16_file_is_input_error_naming_path_and_encoding(self, tmp_path, capsys):
        # spreadsheet "Unicode text" exports are UTF-16 with a 0xff 0xfe byte-order mark
        path = tmp_path / "utf16.csv"
        path.write_text(counts_csv({}), encoding="utf-16")
        code, out, err = run(capsys, "eval", "--counts", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"error: {path}: cannot decode byte 0xff; "
                       "the counts CSV must be UTF-8 text\n")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--counts", str(tmp_path / "none.csv"))
        assert code == EXIT_IO

    def test_malformed_csv_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("setting,outcome,count\nx,00,oops\n")
        code, _, err = run(capsys, "eval", "--counts", str(path))
        assert code == EXIT_INPUT
        assert "non-negative integer" in err

    def test_q_out_of_range_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        rows = ["setting,outcome,count"] + [
            f"{s},{o},10" for s in "xyz" for o in ("00", "01", "10", "11")
        ]
        path.write_text("\n".join(rows) + "\n")
        code, _, _ = run(capsys, "eval", "--counts", str(path), "--q", "2.5")
        assert code == EXIT_INPUT


    @pytest.mark.filterwarnings("error")
    def test_too_few_usable_resamples_is_input_error(self, tmp_path, capsys):
        # one count per setting: every resample of this seed empties a setting
        path = tmp_path / "tiny.csv"
        rows = ["setting,outcome,count"] + [
            f"{s},{o},{int(o == '00')}" for s in "xyz" for o in ("00", "01", "10", "11")
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "eval", "--counts", str(path),
                             "--bootstrap", "2", "--seed", "0")
        assert code == EXIT_INPUT
        assert out == ""
        assert "0 of 2 requested resamples" in err


    @pytest.mark.filterwarnings("error")
    def test_count_beyond_float_limit_is_input_error(self, tmp_path, capsys):
        for big in (2**63 - 1, 10**19, 10**25):
            path = tmp_path / "big.csv"
            path.write_text(counts_csv({("x", "11"): big}))
            code, out, err = run(capsys, "eval", "--counts", str(path))
            assert code == EXIT_INPUT
            assert out == ""
            assert f"line 5: count {big} is not below 2**53" in err
            assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_count_beyond_int_string_limit_is_input_error(self, tmp_path, capsys):
        # 5000 digits: beyond int()'s 4300-digit limit, still one error citing the line
        path = tmp_path / "long.csv"
        path.write_text(counts_csv({("y", "10"): "9" * 5000}))
        code, out, err = run(capsys, "eval", "--counts", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.count("error:") == 1
        assert err.startswith("error: line 8: count 9999") and "not below 2**53" in err

    @pytest.mark.filterwarnings("error")
    def test_setting_total_at_float_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "total.csv"
        path.write_text(counts_csv({("y", o): 2**51 for o in ("00", "01", "10", "11")}))
        code, out, err = run(capsys, "eval", "--counts", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "axis y total count 9007199254740992 is not below 2**53" in err

    @pytest.mark.filterwarnings("error")
    def test_setting_total_just_below_float_limit_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "edge.csv"
        path.write_text(counts_csv({("z", "00"): 2**53 - 1 - 30, ("z", "01"): 0,
                                    ("z", "10"): 0, ("z", "11"): 30}))
        code, out, _ = run(capsys, "eval", "--counts", str(path), "--bootstrap", "50")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["totals"]["z"] == 2**53 - 1
        assert doc["probabilities"]["z"][1:3] == [0.0, 0.0]

    def test_huge_bootstrap_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        path.write_text(counts_csv({}))
        code, out, err = run(capsys, "eval", "--counts", str(path),
                             "--bootstrap", "1000000000000")
        assert code == EXIT_INPUT
        assert out == ""
        assert "bootstrap resample count must be in [2, 1000000]" in err


@st.composite
def _count_cells(draw):
    """Twelve count texts, small integers, at times one replaced by a malformed or huge one."""
    cells = [str(v) for v in draw(st.lists(st.integers(0, 40), min_size=12, max_size=12))]
    if draw(st.booleans()):
        cells[draw(st.integers(0, 11))] = draw(st.one_of(
            st.integers(2**50, 2**64).map(str),
            st.sampled_from(["", "-1", "1.5", "x", "\u0663", "+2", "1e3", "0x1", "2 3"])))
    return cells


def _valid_or(valid, invalid):
    return st.one_of(valid.map(str), invalid)


_BOOTSTRAP = _valid_or(st.integers(2, 200), st.one_of(
    st.integers(-2, 1).map(str),
    st.integers(MAX_BOOTSTRAP + 1, 10**30).map(str),  # rejected before any draw
    st.sampled_from(["", "abc", "1.5", "1e3"])))
_SEED = _valid_or(st.integers(0, 2**64), st.one_of(
    st.integers(-3, -1).map(str), st.sampled_from(["", "x", "1.0"])))
_Q = st.one_of(
    st.lists(st.sampled_from(["2", "1", "1.5", "0.5", "0.1", "1.9", "1e-300"]),
             min_size=1, max_size=4).map(",".join),
    st.lists(st.floats(-0.5, 2.5).map("{:g}".format), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "nan", "inf", "2,2", "1,1.0000001", "2,,1", "two"]))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestEvalFuzz:
    def test_every_outcome_is_a_clean_exit(self):
        """Any --bootstrap, --seed, --q and cell text ends in exit 0, 2, 3 or 4: with strict
        JSON and nothing on stderr, or with no stdout and exactly one error line."""
        codes = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(cells=_count_cells(), bootstrap=_BOOTSTRAP, seed=_SEED, q=_Q)
        def check(cells, bootstrap, seed, q):
            keys = [(s, o) for s in "xyz" for o in ("00", "01", "10", "11")]
            out, err = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "counts.csv")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(counts_csv(dict(zip(keys, cells))))
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main(["eval", "--counts", path, "--bootstrap", bootstrap,
                                     "--seed", seed, "--q", q])
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
            out, err = out.getvalue(), err.getvalue()
            assert not caught, [str(w.message) for w in caught]
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_IO)
            assert "Traceback" not in err
            if code == EXIT_OK:
                assert err == ""
                assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
            else:
                assert out == ""
                assert sum("error:" in line for line in err.splitlines()) == 1
            codes.append(code)

        check()
        assert codes.count(EXIT_OK) >= 10 and codes.count(EXIT_INPUT) >= 10


def _mostly_valid(valid, invalid):
    """Twice as likely valid as _valid_or, so that argv with several fields still succeed."""
    return st.one_of(valid.map(str), valid.map(str), invalid)


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


def _clean_run(argv: list) -> tuple[int, str]:
    """Exit code and stdout of main(argv), held to the contract of the argv fuzz tests:
    exit 0, 2, 3 or 4 with no warning or traceback; on success nothing on stderr, on
    failure no stdout and exactly one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_IO)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
    return code, out


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
            code, out = _clean_run(["eval-state", "--theta", theta, "--chi", chi, "--q", q])
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
            code, out = _clean_run(["threshold", "--theta", theta, "--criterion", criterion,
                                    "--q", q, "--tol", tol])
            if code == EXIT_OK:
                assert out.count("\n") == 1
                assert " threshold at theta=" in out or " is not violated " in out
            codes.append(code)

        check()
        self.assert_both_outcomes(codes)

    def test_sweep(self, tmp_path, monkeypatch):
        from steerq import criteria

        codes, grids = [], []
        original = criteria.analytic_tensor
        monkeypatch.setattr(criteria, "analytic_tensor",
                            lambda theta, chis: grids.append(np.size(chis))
                            or original(theta, chis))

        @_FUZZ
        @given(theta=_THETA, steps=_STEPS, writable=st.sampled_from([True, True, False]))
        def check(theta, steps, writable):
            path = tmp_path / ("curve.csv" if writable else "missing/curve.csv")
            code, out = _clean_run(["sweep", "--theta", theta, "--steps", steps,
                                    "--out", str(path)])
            if code == EXIT_OK:
                assert out == f"wrote {path}\n"
                assert len(path.read_text().splitlines()) == int(steps) + 1
            codes.append(code)

        check()
        self.assert_both_outcomes(codes)
        assert grids and max(grids) <= MAX_SWEEP_STEPS


_SHOTS = _mostly_valid(st.integers(1, 10**6), st.sampled_from(
    ["0", "-1", str(-10**30), str(2**53 - 1), str(2**53), str(2**63), "", "1.5", "x", "1e3"]))
_SIMULATE_SEED = _mostly_valid(st.integers(0, 10**40), st.sampled_from(
    ["-1", str(-10**30), "", "x", "1.0", "nan"]))


class TestOutputVerbFuzz:
    """simulate and tables over generated argv: clean exits only."""

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
            code, out = _clean_run(["simulate", "--theta", theta, "--chi", chi,
                                    "--shots", shots, "--seed", seed, "--out", str(path)])
            if target != "file":
                assert code != EXIT_OK
            elif code == EXIT_OK:
                assert out == f"wrote {path}\n"
                parse_counts_csv(path.read_text())
            codes.append(code)

        check()
        assert codes.count(EXIT_OK) >= 10 and codes.count(EXIT_INPUT) >= 10, codes
        assert EXIT_IO in codes

    def test_tables(self, tmp_path):
        codes = []

        @_FUZZ
        @given(argv=st.sampled_from([[], ["--out", "file"], ["--out", "directory"],
                                     ["--out", "missing"], ["--out"], ["--outt", "file"],
                                     ["extra"]]))
        def check(argv):
            paths = {"file": tmp_path / "tables.txt", "directory": tmp_path,
                     "missing": tmp_path / "missing" / "tables.txt"}
            code, out = _clean_run(["tables", *(str(paths.get(a, a)) for a in argv)])
            if argv in (["--out", "directory"], ["--out", "missing"]):
                assert code == EXIT_IO
            if code == EXIT_OK:
                text = out if not argv else paths["file"].read_text()
                assert "entries: 60" in text
            codes.append(code)

        check()
        assert {EXIT_OK, EXIT_INPUT, EXIT_IO} <= set(codes)


class TestEvalState:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "eval-state", "--theta", "22.5",
                           "--chi", "0.58")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["criteria"][0]["lhs"] == pytest.approx(0.9954, abs=1e-9)
        assert doc["criteria"][0]["steerable"] is True
        assert doc["totals"] is None and doc["seed"] is None

    def test_q_list_token_one_routes_to_shannon(self, capsys):
        code, out, _ = run(capsys, "eval-state", "--theta", "22.5",
                           "--chi", "0", "--q", "1")
        doc = json.loads(out)
        assert doc["criteria"][0]["q"] == 1.0
        assert doc["criteria"][0]["lhs"] == pytest.approx(3 * math.log(2))
        assert doc["criteria"][0]["bound"] == pytest.approx(2 * math.log(2))

    def test_colliding_q_keys_are_input_error(self, capsys):
        for qs in ("2,2", "1,1.0000001"):
            code, out, err = run(capsys, "eval-state", "--theta", "22.5",
                                 "--chi", "0.5", "--q", qs)
            assert code == EXIT_INPUT
            assert out == "" and "collide" in err

    def test_bad_theta_is_input_error(self, capsys):
        code, out, err = run(capsys, "eval-state", "--theta", "80", "--chi", "0.5")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"error: theta={math.radians(80)!r} (80 deg) "
                       "outside [0, pi/4] ([0, 45] deg)\n")

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
    def test_first_of_several_faults_is_reported(self, capsys, argv, message):
        code, out, err = run(capsys, "eval-state", *argv)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


class TestThreshold:
    def test_werner_q2(self, capsys):
        code, out, _ = run(capsys, "threshold", "--theta", "22.5")
        assert code == EXIT_OK
        assert "chi = 0.577350" in out

    def test_lsc(self, capsys):
        code, out, _ = run(capsys, "threshold", "--theta", "7.5",
                           "--criterion", "lsc")
        assert code == EXIT_OK
        assert "chi = 0.816496" in out or "chi = 0.816497" in out

    def test_never_violated(self, capsys):
        code, out, _ = run(capsys, "threshold", "--theta", "0",
                           "--criterion", "scg", "--q", "2")
        assert code == EXIT_OK
        assert "not violated" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1", "1.5"])
    def test_tol_outside_unit_interval_is_input_error(self, capsys, tol):
        code, out, err = run(capsys, "threshold", "--theta", "7.5", "--tol", tol)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.count("error:") == 1 and "tol must lie in (0, 1)" in err

    def test_large_tol_still_prints_six_digits(self, capsys):
        # one halving of [0, 1]: the threshold near 0.80 lies in [0.5, 1]
        code, out, _ = run(capsys, "threshold", "--theta", "7.5", "--tol", "0.9")
        assert code == EXIT_OK
        assert out.endswith("chi = 0.750000\n")

    @pytest.mark.parametrize("tol, decimals", [("1e-12", 12), ("1e-300", 17)])
    def test_small_tol_prints_the_decimals_it_resolves(self, capsys, tol, decimals):
        code, out, _ = run(capsys, "threshold", "--theta", "7.5", "--tol", tol)
        assert code == EXIT_OK
        text = out.rstrip("\n").rsplit("chi = ", 1)[1]
        assert len(text.split(".")[1]) == decimals
        chi = chi_threshold(math.radians(7.5), tol=float(tol)).chi
        assert abs(float(text) - chi) <= 0.5 * 10.0 ** -decimals
        assert decimals < 17 or float(text) == chi  # 17 decimals round-trip


class TestSweepAndTables:
    def test_sweep_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "sweep", "--theta", "7.5", "--steps", "11",
                         "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "chi,scg_q2,scg_q1,lsc,bound_q2,bound_q1,bound_lsc"
        assert len(lines) == 12

    @pytest.mark.parametrize("steps", [10**5 + 1, 10**18])
    def test_steps_beyond_cap_rejected_before_evaluating(self, tmp_path, capsys,
                                                         monkeypatch, steps):
        from steerq import criteria

        def fail(*args):
            raise AssertionError("analytic_tensor called")

        monkeypatch.setattr(criteria, "analytic_tensor", fail)
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, "sweep", "--theta", "7.5", "--steps", str(steps),
                                "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == "" and not out.exists()
        assert f"chi_steps must be in [2, 100000], got {steps}" in err

    def test_tables_to_stdout(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == EXIT_OK
        assert "max deviation: 0.0608" in out

    def test_tables_to_file(self, tmp_path, capsys):
        out = tmp_path / "tables.txt"
        code, _, _ = run(capsys, "tables", "--out", str(out))
        assert code == EXIT_OK
        assert "entries: 60" in out.read_text()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--theta", "22.5", "--chi", "0.5", "--shots", "2", "--seed", "0"),
        ("sweep", "--theta", "7.5", "--steps", "1"),
    ])
    def test_failing_verb_leaves_existing_out_file_alone(self, tmp_path, capsys, argv):
        # the whole text is built before the file is opened, so a failure truncates nothing
        out = tmp_path / "kept.csv"
        out.write_bytes(b"earlier output\r\n\x00")
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == "" and err.startswith("error: ")
        assert out.read_bytes() == b"earlier output\r\n\x00"


class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(FileNotFoundError("x")) == EXIT_IO
        assert exit_code_for(SolverError("x")) == EXIT_NUMERIC
        assert exit_code_for(CountsFormatError("x")) == EXIT_INPUT
        assert exit_code_for(ValueError("x")) == EXIT_INPUT


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv", [("tables",), ("threshold", "--theta", "nan")])
    def test_python_m_steerq_matches_main(self, capsys, argv):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "steerq",
                                 *argv], capture_output=True, text=True, env=env, cwd=root,
                                timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == run(capsys, *argv)
