import json
import math

import pytest

from steerq.cli import (EXIT_INPUT, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                        exit_code_for, main)
from steerq.criteria import SolverError
from steerq.expio import CountsFormatError, parse_counts_csv


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
        code, _, _ = run(capsys, "eval-state", "--theta", "80", "--chi", "0.5")
        assert code == EXIT_INPUT


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


class TestSweepAndTables:
    def test_sweep_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "sweep", "--theta", "7.5", "--steps", "11",
                         "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "chi,scg_q2,scg_q1,lsc,bound_q2,bound_q1,bound_lsc"
        assert len(lines) == 12

    def test_tables_to_stdout(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == EXIT_OK
        assert "max deviation: 0.0608" in out

    def test_tables_to_file(self, tmp_path, capsys):
        out = tmp_path / "tables.txt"
        code, _, _ = run(capsys, "tables", "--out", str(out))
        assert code == EXIT_OK
        assert "entries: 60" in out.read_text()


class TestExitCodes:
    def test_mapping(self):
        assert exit_code_for(FileNotFoundError("x")) == EXIT_IO
        assert exit_code_for(SolverError("x")) == EXIT_NUMERIC
        assert exit_code_for(CountsFormatError("x")) == EXIT_INPUT
        assert exit_code_for(ValueError("x")) == EXIT_INPUT
