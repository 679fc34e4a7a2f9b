import dataclasses
import json
import math
import re

import numpy as np
import pytest

from helpers import (counts_csv, reference_bootstrap_error_bars, reference_comparison_to_text,
                     reference_curve_to_csv, reference_frequencies, reference_report_to_json, spy)
from steerq import (CountsFormatError, ExperimentRecord, criteria, evaluate_record,
                    evaluate_state, expio, parse_counts_csv, report_to_json,
                    reproduce_tables, serialize_counts_csv, simulate_record,
                    sweep_curve)
from steerq.criteria import criteria_of
from steerq.expio import (BOOTSTRAP_STREAM, COUNT_LIMIT, CURVE_CSV_HEADER, DEFAULT_QS,
                          MAX_BOOTSTRAP, ComparisonRow, TableComparison, comparison_to_text,
                          curve_to_csv)
from steerq.measure import spawn_generator

THETA_W = math.radians(22.5)
THETA_T = math.radians(7.5)


UNIFORM_CSV = counts_csv({}, 250)


def rejection(text: str) -> str:
    """The message of the CountsFormatError that parse_counts_csv raises on text."""
    with pytest.raises(CountsFormatError) as info:
        parse_counts_csv(text)
    return str(info.value)


class TestParseCountsCsv:
    def test_uniform(self):
        rec = parse_counts_csv(UNIFORM_CSV)
        assert rec.counts.shape == (3, 2, 2) and rec.counts.dtype == np.int64
        assert np.array_equal(rec.counts, np.full((3, 2, 2), 250))

    def test_accepts_comments_and_reordering(self):
        lines = UNIFORM_CSV.strip().split("\n")
        shuffled = [lines[0], "# a comment"] + lines[:0:-1] + ["# trailing"]
        rec = parse_counts_csv("\n".join(shuffled))
        assert np.array_equal(rec.counts, np.full((3, 2, 2), 250))

    def test_cells_land_at_setting_and_outcome(self):
        rec = parse_counts_csv(counts_csv({(s, o): 10 * k + i for k, s in enumerate("xyz")
                                           for i, o in enumerate(("00", "01", "10", "11"))}))
        assert rec.counts.tolist() == [[[0, 1], [2, 3]], [[10, 11], [12, 13]],
                                       [[20, 21], [22, 23]]]

    def test_accepts_missing_trailing_newline(self):
        parse_counts_csv(UNIFORM_CSV.rstrip("\n"))

    # each rejected text: the whole message, citing the line where there is one
    def test_missing_row_named(self):
        assert rejection(UNIFORM_CSV.replace("z,11,250\n", "")) == "missing rows: (z, 11)"

    def test_duplicate_row_cites_both_lines(self):
        assert rejection(UNIFORM_CSV + "x,00,7\n") == (
            "line 14: duplicate entry for (x, 00), first seen at line 2")

    def test_bad_setting_cites_line(self):
        assert rejection(UNIFORM_CSV.replace("z,11,250", "w,11,250")) == (
            "line 13: unknown setting 'w' (expected x, y or z)")

    def test_bad_outcome_cites_line(self):
        assert rejection(UNIFORM_CSV.replace("x,01,250", "x,02,250")) == (
            "line 3: unknown outcome '02' (expected one of 00, 01, 10, 11)")

    def test_bad_count_cites_line(self):
        for bad in ("-3", "1.5", "abc", "1_0", "+5", "\u0663"):
            assert rejection(counts_csv({("y", "10"): bad}, 250)) == (
                f"line 8: count '{bad}' is not a non-negative integer")

    def test_count_at_float_limit_cites_line(self):
        for big in (str(COUNT_LIMIT), str(2**63 - 1), "10000000000000000000", "1" + "0" * 25):
            assert rejection(counts_csv({("y", "10"): big}, 250)) == (
                f"line 8: count {big} is not below 2**53 = {COUNT_LIMIT}")

    def test_count_beyond_int_string_limit_cites_line(self):
        # longer than Python's 4300-digit int() limit: rejected by length, with its line
        assert rejection(counts_csv({("y", "10"): "9" * 5000}, 250)) == (
            f"line 8: count {'9' * 5000} is not below 2**53 = {COUNT_LIMIT}")

    def test_bad_header(self):
        assert rejection("a,b,c\nx,00,1\n") == (
            "line 1: expected header 'setting,outcome,count', got 'a,b,c'")

    @pytest.mark.parametrize("row, got", [("x,00", 2), ("x,00,1,2", 4)])
    def test_wrong_field_count_cites_line(self, row, got):
        assert rejection(UNIFORM_CSV.replace("x,01,250", row)) == (
            f"line 3: expected 3 comma-separated fields, got {got}")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  \n"])
    def test_empty_input(self, text):
        assert rejection(text) == "empty input: expected header 'setting,outcome,count'"

    def test_leading_zeros_are_stripped(self):
        for padded, count in (("007", 7), ("0" * 5000 + "7", 7), ("0" * 20, 0)):
            rec = parse_counts_csv(counts_csv({("y", "10"): padded}, 250))
            assert rec.counts[1, 1, 0] == count

    def test_roundtrip_identity(self):
        rec = simulate_record(THETA_W, 0.6, 5000, seed=2)
        text = serialize_counts_csv(rec)
        back = parse_counts_csv(text, label=rec.label)
        assert back.label == rec.label
        assert np.array_equal(rec.counts, back.counts)
        assert serialize_counts_csv(back) == text


class TestExperimentRecord:
    def test_holds_read_only_int64_counts(self):
        rec = ExperimentRecord("r", [[[1.0, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 0], [0, 0]]])
        assert rec.counts.dtype == np.int64 and rec.counts.shape == (3, 2, 2)
        assert rec.counts.tolist() == [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 0], [0, 0]]]
        with pytest.raises(ValueError):
            rec.counts[0, 0, 0] = 7

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(3, 2, 2\)"):
            ExperimentRecord("r", np.ones((3, 4), dtype=int))

    def test_setting_total_bound(self):
        limit = np.full((3, 2, 2), 1, dtype=np.int64)
        limit[2] = [[2**51, 2**51], [2**51, 2**51]]  # total exactly 2**53
        with pytest.raises(ValueError, match=r"axis z total count 9007199254740992 .*2\*\*53"):
            ExperimentRecord("r", limit)
        for dtype, cell in ((np.int64, 2**63 - 1), (np.uint64, 2**64 - 1),
                            (float, 1e19), (object, 10**25)):
            counts = np.ones((3, 2, 2), dtype=dtype)
            counts[0, 1, 1] = cell
            with pytest.raises(ValueError, match=r"axis x total count .*2\*\*53"):
                ExperimentRecord("r", counts)

    def test_simulated_empty_setting_names_shots_and_seed(self):
        # one expected count per setting often draws none; the record's own
        # "axis x has zero total count" would name neither shots nor seed
        for shots, axis in ((1, "x"), (2, "z")):
            with pytest.raises(ValueError, match=rf"^shots = {shots} with seed = 0 drew no axis "
                                                 rf"{axis} counts; use more shots$"):
                simulate_record(THETA_W, 0.5, shots, seed=0)

    def test_shots_must_be_an_integer(self):
        # 2000.5 used to draw with mean 2000.5 * p and label the record shots=2000.5, and
        # True a 1-shot record labelled shots=True
        with pytest.raises(ValueError, match=r"^shots must be a positive integer below 2\*\*53 "
                                             r"= 9007199254740992, got 2000.5$"):
            simulate_record(THETA_W, 0.5, 2000.5, seed=0)
        for bad in (2000.0, True, False):
            with pytest.raises(ValueError, match=rf"got {bad}$"):
                simulate_record(THETA_W, 0.5, bad, seed=0)
        for shots in (2000, np.int64(2000), np.uint16(2000)):
            rec = simulate_record(THETA_W, 0.5, shots, seed=0)
            assert rec.label.endswith("shots=2000, seed=0)")
            assert rec.counts.tolist() == simulate_record(THETA_W, 0.5, 2000, 0).counts.tolist()


def assert_error_bars_match_reference(monkeypatch, counts, qs, bootstrap, seed, chunk):
    # evaluate_record's error bars, drawn `chunk` resamples at a time, against the 4-D oracle's
    want = reference_bootstrap_error_bars(counts, qs, bootstrap, seed, chunk)
    monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", chunk)
    rep = evaluate_record(ExperimentRecord("r", counts), qs=qs, bootstrap=bootstrap, seed=seed)
    got = {("lsc" if c.q is None else f"scg_q{c.q:g}"): c.error_bar.hex() for c in rep.criteria}
    assert got == {key: bar.hex() for key, bar in want.items()}


class TestEvaluateRecord:
    def test_bell_counts(self):
        cells = [("x", "00"), ("x", "11"), ("y", "01"), ("y", "10"), ("z", "00"), ("z", "11")]
        bell = counts_csv(dict.fromkeys(cells, 500_000), 0)  # the Bell state's proportions
        rep = evaluate_record(parse_counts_csv(bell), seed=1)
        by_key = {(c.criterion, c.q): c for c in rep.criteria}
        scg2 = by_key[("SCG", 2.0)]
        scg1 = by_key[("SCG", 1.0)]
        lsc = by_key[("LSC", None)]
        assert scg2.lhs == pytest.approx(0.0, abs=1e-12)
        assert scg1.lhs == pytest.approx(0.0, abs=1e-12)
        assert lsc.lhs == pytest.approx(math.sqrt(3), abs=1e-12)
        assert scg2.steerable and scg1.steerable and lsc.steerable
        assert scg2.bound == 1.0 and lsc.bound == 1.0
        assert scg1.bound == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_uniform_counts(self):
        rep = evaluate_record(parse_counts_csv(UNIFORM_CSV), seed=1)
        scg2, scg1, lsc = rep.criteria
        assert scg2.lhs == pytest.approx(1.5, abs=1e-12)
        assert scg1.lhs == pytest.approx(3 * math.log(2), abs=1e-12)
        assert lsc.lhs == pytest.approx(0.0, abs=1e-12)
        assert not any(c.steerable for c in rep.criteria)

    def test_bootstrap_determinism(self):
        rec = simulate_record(THETA_W, 0.5, 20_000, seed=3)
        a = evaluate_record(rec, bootstrap=400, seed=9)
        b = evaluate_record(rec, bootstrap=400, seed=9)
        assert [c.error_bar for c in a.criteria] == [c.error_bar for c in b.criteria]
        c = evaluate_record(rec, bootstrap=400, seed=10)
        assert a.criteria[0].error_bar != c.criteria[0].error_bar

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, False])  # True used to seed as 1
    def test_rejects_non_integer_seed_naming_it(self, seed):
        rec = simulate_record(THETA_W, 0.5, 2000, seed=3)
        with pytest.raises(ValueError, match=re.escape(f"got seed {seed!r} and stream 3")):
            evaluate_record(rec, seed=seed)

    def test_numpy_integer_seed_reports_as_its_int(self):
        rec = simulate_record(THETA_W, 0.5, 2000, seed=3)
        rep = evaluate_record(rec, bootstrap=50, seed=np.uint64(9))
        assert rep == evaluate_record(rec, bootstrap=50, seed=9)
        assert type(rep.seed) is int and json.loads(report_to_json(rep))["seed"] == 9

    def test_bootstrap_chunks_match_one_pass(self, monkeypatch):
        rec = simulate_record(THETA_T, 0.7, 3_000, seed=4)
        chunked = evaluate_record(rec, qs=(2.0, 1.0, 1.5), bootstrap=10_001, seed=8)
        monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", 10**9)
        one_pass = evaluate_record(rec, qs=(2.0, 1.0, 1.5), bootstrap=10_001, seed=8)
        assert [c.error_bar for c in chunked.criteria] == [
            c.error_bar for c in one_pass.criteria]

    def test_usable_resamples_counted_across_chunks(self, monkeypatch):
        # one count per setting: about (1 - e^-1)^3 = 25% of resamples are
        # usable, so many 3-resample chunks hold fewer than 2, some none
        counts = np.zeros((3, 2, 2), dtype=int)
        counts[:, 0, 0] = 1
        rec = ExperimentRecord("tiny", counts)
        monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", 3)
        rep = evaluate_record(rec, bootstrap=40, seed=0)
        monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", 10**9)
        assert [c.error_bar for c in rep.criteria] == [
            c.error_bar for c in evaluate_record(rec, bootstrap=40, seed=0).criteria]

    @pytest.mark.parametrize("chunk", [3, expio.BOOTSTRAP_CHUNK])
    @pytest.mark.parametrize("qs", [(2.0, 1.0), (2.0, 1.0, 1.5, 0.5)])
    def test_dropped_resamples_match_reference(self, monkeypatch, chunk, qs):
        # settings with 3, 4 and 2 counts: about a fifth of resamples leave one empty
        counts = np.array([[[1, 0], [2, 0]], [[0, 3], [1, 0]], [[0, 0], [0, 2]]])
        draws = spawn_generator(5, BOOTSTRAP_STREAM).poisson(counts, (1000, 3, 2, 2))
        assert np.sum(np.any(draws.sum(axis=(-1, -2)) == 0, axis=1)) > 100
        assert_error_bars_match_reference(monkeypatch, counts, qs, 1000, 5, chunk)

    def test_every_poisson_path_draws_as_the_4d_reference(self, monkeypatch):
        # means of 0, below 10 and at least 10**6 take numpy's three Poisson paths (zero,
        # multiplication, PTRS); 4097 resamples fill two default blocks
        counts = np.array([[[0, 3], [7, 2_000_000]], [[1_500_000, 0], [5, 9]],
                           [[4, 1_000_000], [0, 6]]])
        assert_error_bars_match_reference(monkeypatch, counts, (2.0, 1.0, 0.5), 4097, 11,
                                          expio.BOOTSTRAP_CHUNK)

    @pytest.mark.parametrize("chunk", [expio.BOOTSTRAP_CHUNK, 1000, 999, 64, 7])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_one_kernel_call_per_bootstrap_chunk(self, monkeypatch, chunk, sparse):
        # the observed tables ride in the first block as row 0, so they cost no call
        # of their own and keep the bits of a call on them alone
        qs = (2.0, 1.0, 1.5, 0.5)
        counts = (np.array([[[1, 0], [2, 0]], [[0, 3], [1, 0]], [[0, 0], [0, 2]]]) if sparse
                  else simulate_record(THETA_T, 0.7, 3_000, seed=4).counts)
        want = criteria.criterion_values(reference_frequencies(counts), qs)
        blocks = spy(monkeypatch, criteria, "rows_values")
        monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", chunk)
        rep = evaluate_record(ExperimentRecord("rec", counts), qs=qs, bootstrap=1000, seed=5)
        calls = [len(p) for p, _ in blocks]
        assert len(calls) == math.ceil(1000 / chunk)
        if sparse:  # the first block drops resamples with an empty setting
            assert calls[0] < min(chunk, 1000) + 1
        else:
            assert calls[0] == min(chunk, 1000) + 1 and sum(calls) == 1001
        assert [c.lhs.hex() for c in rep.criteria] == [
            float(want[c.key]).hex() for c in criteria_of(qs)]

    @pytest.mark.parametrize("seed, resamples, usable", [(0, 2, 0), (7, 2, 1), (1, 3, 1)])
    def test_too_few_usable_resamples_message(self, seed, resamples, usable):
        counts = np.zeros((3, 2, 2), dtype=int)
        counts[:, 0, 0] = 1
        with pytest.raises(ValueError) as info:
            evaluate_record(ExperimentRecord("tiny", counts), bootstrap=resamples, seed=seed)
        assert str(info.value) == (
            f"bootstrap: {usable} of {resamples} requested resamples have counts in every "
            "setting, at least 2 are needed; the counts are too small for error bars")

    def test_bootstrap_count_bounds(self):
        rec = parse_counts_csv(UNIFORM_CSV)
        for bad in (1, MAX_BOOTSTRAP + 1, 10**12):
            with pytest.raises(ValueError, match="bootstrap resample count"):
                evaluate_record(rec, bootstrap=bad)

    def test_bootstrap_must_be_an_integer(self):
        # a float used to escape from range() as a TypeError
        rec = parse_counts_csv(UNIFORM_CSV)
        for bad in (1000.5, 1000.0, True, False):  # a bool is no count
            with pytest.raises(ValueError, match=rf"^bootstrap resample count must be in "
                                                 rf"\[2, {MAX_BOOTSTRAP}\], got {bad}$"):
                evaluate_record(rec, bootstrap=bad)
        assert (report_to_json(evaluate_record(rec, bootstrap=np.int32(50)))
                == report_to_json(evaluate_record(rec, bootstrap=50)))

    def test_estimate_within_three_error_bars(self):
        chi = 0.74
        rec = simulate_record(THETA_W, chi, 100_000, seed=21)
        rep = evaluate_record(rec, seed=22)
        scg2 = rep.criteria[0]
        analytic = 1.5 * (1 - chi * chi)
        assert abs(scg2.lhs - analytic) <= 3 * scg2.error_bar

    def test_error_bar_scaling_with_shots(self):
        bars = {}
        for shots in (10_000, 40_000):
            rec = simulate_record(THETA_W, 0.5, shots, seed=11)
            rep = evaluate_record(rec, bootstrap=2000, seed=5)
            bars[shots] = rep.criteria[0].error_bar
        # quadrupling the counts should halve the bar (1/sqrt(N)), within 30%
        assert bars[40_000] == pytest.approx(bars[10_000] / 2, rel=0.3)

    def test_report_json_fields(self):
        import json

        rep = evaluate_record(parse_counts_csv(UNIFORM_CSV, label="run1"), seed=6)
        doc = json.loads(report_to_json(rep))
        assert doc["label"] == "run1"
        assert set(doc["probabilities"]) == {"x", "y", "z"}
        assert doc["totals"] == {"x": 1000, "y": 1000, "z": 1000}
        assert doc["seed"] == 6
        assert doc["bounds"]["scg_q2"] == 1.0
        assert doc["bounds"]["lsc"] == 1.0
        assert len(doc["criteria"]) == 3
        for entry in doc["criteria"]:
            assert entry["error_bar"] is not None


    def test_report_json_rejects_nan(self):
        rep = evaluate_state(THETA_W, 0.5)
        bad = dataclasses.replace(
            rep, criteria=(dataclasses.replace(rep.criteria[0], error_bar=math.nan),))
        with pytest.raises(ValueError):
            report_to_json(bad)


class TestEvaluateState:
    def test_werner_just_steerable(self):
        rep = evaluate_state(THETA_W, 0.58)
        scg2 = rep.criteria[0]
        assert scg2.lhs == pytest.approx(0.9954, abs=1e-10)
        assert scg2.steerable
        assert rep.totals is None and rep.seed is None
        assert all(c.error_bar is None for c in rep.criteria)

    def test_tilted_value(self):
        rep = evaluate_state(THETA_T, 0.55)
        assert rep.criteria[0].lhs == pytest.approx(1.2434129951495554, abs=1e-10)

    @pytest.mark.parametrize("qs", ["21", "2,1", 2.0, {2.0}, (q for q in (2.0, 1.0)), [[2.0]]],
                             ids=["digits", "comma-list", "number", "set", "generator", "nested"])
    def test_qs_must_be_a_flat_sequence(self, qs):
        record = parse_counts_csv(UNIFORM_CSV)
        for evaluate in (lambda: criteria.criterion_values(record.counts / 1000, qs),
                         lambda: evaluate_state(THETA_W, 0.5, qs=qs),
                         lambda: evaluate_record(record, qs=qs)):
            with pytest.raises(ValueError) as info:
                evaluate()
            assert str(info.value) == ("entropic indices must be a flat sequence of numbers, "
                                       f"got {qs!r}")
        tuple_, list_, array = (criteria_of(flat) for flat in ((2.0, 1.0), [2.0, 1.0],
                                                               np.array([2.0, 1.0])))
        assert tuple_ == list_ == array

    def test_colliding_q_keys_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            evaluate_state(THETA_W, 0.5, qs=(2.0, 2))
        with pytest.raises(ValueError, match="collide"):
            evaluate_record(parse_counts_csv(UNIFORM_CSV), qs=(1.0, 1.0000001))

    def test_no_correlation_limit(self):
        rep = evaluate_state(THETA_W, 0.0)
        scg2, scg1, lsc = rep.criteria
        assert scg2.lhs == pytest.approx(1.5, abs=1e-12)
        assert scg1.lhs == pytest.approx(3 * math.log(2), abs=1e-12)
        assert lsc.lhs == pytest.approx(0.0, abs=1e-10)


    @pytest.mark.parametrize("theta, chi, qs, message", [
        (math.radians(50), 0.5, (3.0,),
         f"theta={math.radians(50)!r} (50 deg) outside [0, pi/4] ([0, 45] deg)"),
        (math.nan, 0.5, (2.0, 2), "theta=nan (nan deg) outside [0, pi/4] ([0, 45] deg)"),
        (THETA_W, 1.5, (0.0,), "chi=1.5 outside [0, 1]"),
        (THETA_W, [0.2, 0.3], (0.0,), "evaluate_state takes one chi, got 2"),
        (THETA_W, [0.2, 1.3], (2.0, 2), "chi=1.3 outside [0, 1]"),
        (THETA_W, 0.5, (math.nan, 2, 2), "entropic index q must lie in (0, 2], got nan"),
        (THETA_W, 0.5, (2, 2, 3), "entropic index q must lie in (0, 2], got 3.0"),
        (THETA_W, 0.5, (1.0, 1.0000001),
         "entropic indices 1.0, 1.0000001 collide in the report keys ['scg_q1', 'scg_q1']"),
    ], ids=["theta-and-q", "nan-theta-and-collision", "chi-and-q", "chi-vector-and-q",
            "chi-vector-and-collision", "q-and-collision", "collision-and-q",
            "collision"])
    def test_first_of_several_faults_is_reported(self, theta, chi, qs, message):
        # the state's checks run before the qs'
        with pytest.raises(ValueError) as info:
            evaluate_state(theta, chi, qs=qs)
        assert str(info.value) == message


def _with_value(report, slot, value):
    """The report with value put in one slot: (field, key, index) as _FLOAT_SLOTS names it."""
    field, key, index = slot
    if field == "criteria":
        rows = list(report.criteria)
        rows[key] = dataclasses.replace(rows[key], **{index: value})
        return dataclasses.replace(report, criteria=tuple(rows))
    if field == "probabilities":
        probabilities = {axis: list(cells) for axis, cells in report.probabilities.items()}
        probabilities[key][index] = value
        return dataclasses.replace(report, probabilities=probabilities)
    if field == "totals":
        return dataclasses.replace(report, totals={**report.totals, key: value})
    return dataclasses.replace(report, seed=value)


# every number of a qs = (2, 1) counts report: four per criterion, twelve cells, a total, seed
_FLOAT_SLOTS = ([("criteria", i, name) for i in range(3) for name in ("q", "lhs", "bound",
                                                                      "error_bar")]
                + [("probabilities", axis, j) for axis in "xyz" for j in range(4)]
                + [("totals", "y", None), ("seed", None, None)])
_QS_SETS = [(2.0,), (0.1,), (0.5, 1.0), (2.0, 1.0, 0.1), (0.1, 0.5, 1.5, 2.0),
            tuple(k / 8 for k in range(1, 17))]  # the most a report takes: 17 criteria
_QUARTERS = [0.25] * 4


class TestReportToJson:
    """report_to_json gives json.dumps(indent=2)'s bytes for every report shape _report builds."""

    @staticmethod
    def counts_report(qs=DEFAULT_QS, seed=1):
        rec = simulate_record(THETA_T, 0.7, 2_000, seed=seed)
        return evaluate_record(rec, qs=qs, bootstrap=20, seed=seed)

    def hand_built(self):
        base = self.counts_report()
        reports = [dataclasses.replace(base, label=label) for label in (
            'quote " backslash \\ end', "new\nline\ttab", "non-ASCII: θ = 22.5°, χ ≈ ½",
            "lone surrogate \ud800 here", "%s %% %(x)s", '", "', "")]
        reports += [dataclasses.replace(base, totals=totals)
                    for totals in (None, {"x": 1, "y": 2, "z": 3})]
        return reports

    @pytest.mark.parametrize("qs", _QS_SETS)
    def test_seeded_reports_match_reference(self, qs):
        rng = np.random.default_rng(len(qs))
        reports = [evaluate_state(theta, chi, qs=qs)
                   for theta, chi in zip(rng.uniform(0, math.pi / 4, 8), rng.uniform(0, 1, 8))]
        reports += [evaluate_state(THETA_W, chi, qs=qs) for chi in (0.0, 1.0)]
        reports += [self.counts_report(qs, seed) for seed in range(3)]
        for report in reports:
            assert report_to_json(report) == reference_report_to_json(report)

    def test_hand_built_reports_match_reference(self):
        for report in self.hand_built():
            assert report_to_json(report) == reference_report_to_json(report)

    def test_numpy_floats_match_reference(self):
        base = self.counts_report()
        everywhere = base
        for slot in _FLOAT_SLOTS:
            value = np.float64(1.0 / 3.0)
            one = _with_value(base, slot, value)
            assert report_to_json(one) == reference_report_to_json(one)
            everywhere = _with_value(everywhere, slot, value)
        assert report_to_json(everywhere) == reference_report_to_json(everywhere)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        base = self.counts_report()
        for slot in _FLOAT_SLOTS:
            bad = _with_value(base, slot, value)
            for render in (report_to_json, reference_report_to_json):
                with pytest.raises(ValueError, match="Out of range float values"):
                    render(bad)

    @pytest.mark.parametrize("shape, got", [
        ({"totals": {}}, "3 criteria, cells {'x': 4, 'y': 4, 'z': 4}, totals []"),
        ({"probabilities": {"x": [], "y": [0.5, 0.5], "z": [1.0]}},
         "3 criteria, cells {'x': 0, 'y': 2, 'z': 1}, totals ['x', 'y', 'z']"),
        ({"criteria": (), "probabilities": {}, "totals": {}}, "0 criteria, cells {}, totals []"),
        ({"probabilities": {1: _QUARTERS, "y": _QUARTERS, "z": _QUARTERS}},
         "3 criteria, cells {1: 4, 'y': 4, 'z': 4}, totals ['x', 'y', 'z']"),
        ({"totals": {(1,): 10, "y": 2, "z": 3}},
         "3 criteria, cells {'x': 4, 'y': 4, 'z': 4}, totals [(1,), 'y', 'z']"),
        ({"totals": {"x": 1, "y": 2, math.nan: 3}},
         "3 criteria, cells {'x': 4, 'y': 4, 'z': 4}, totals ['x', 'y', nan]"),
        ({"probabilities": {"y": _QUARTERS, "x": _QUARTERS, "z": _QUARTERS}},
         "3 criteria, cells {'y': 4, 'x': 4, 'z': 4}, totals ['x', 'y', 'z']"),
    ], ids=["empty-totals", "cell-counts", "empty", "int-key", "tuple-key", "nan-key", "yxz"])
    def test_other_report_shapes_are_rejected(self, shape, got):
        report = dataclasses.replace(self.counts_report(), **shape)
        with pytest.raises(ValueError) as info:
            report_to_json(report)
        assert str(info.value) == ("report_to_json takes at least one criterion, 4 cells for each "
                                   "of x, y, z in that order and totals keyed x, y, z or None, "
                                   "got " + got)

    def test_pure_python_encoder_gives_same_bytes(self, monkeypatch):
        reports = [evaluate_state(THETA_W, 0.58), self.counts_report(), *self.hand_built()]
        rendered = [report_to_json(report) for report in reports]
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert [report_to_json(report) for report in reports] == rendered
        assert [reference_report_to_json(report) for report in reports] == rendered
        with pytest.raises(ValueError, match="Out of range float values"):
            report_to_json(_with_value(reports[1], ("criteria", 0, "lhs"), math.nan))


class TestSweepCurve:
    def test_endpoints(self):
        rows = sweep_curve(THETA_W, 11)
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and last[0] == 1.0
        assert first[1:4] == pytest.approx([1.5, 3 * math.log(2), 0.0], abs=1e-10)
        assert last[1:4] == pytest.approx([0.0, 0.0, math.sqrt(3)], abs=1e-10)

    def test_two_steps_only_endpoints(self):
        rows = sweep_curve(THETA_W, 2)
        assert rows.shape == (2, 7)
        assert list(rows[:, 0]) == [0.0, 1.0]

    def test_tilted_crossing_location(self):
        rows = sweep_curve(THETA_T, 101)
        chi, scg2 = rows[:, 0], rows[:, 1]
        above = chi[scg2 > 1.0]
        below = chi[scg2 < 1.0]
        assert above.max() == pytest.approx(0.80, abs=1e-9)
        assert below.min() == pytest.approx(0.81, abs=1e-9)

    def test_columns_monotone(self):
        rows = sweep_curve(THETA_T, 51)
        assert np.all(np.diff(rows[:, 1]) <= 1e-12)  # scg q2 decreasing
        assert np.all(np.diff(rows[:, 2]) <= 1e-12)  # scg q1 decreasing
        assert np.all(np.diff(rows[:, 3]) >= -1e-12)  # lsc increasing

    def test_csv_header(self):
        text = curve_to_csv(sweep_curve(THETA_W, 3))
        lines = text.strip().split("\n")
        assert lines[0] == CURVE_CSV_HEADER
        assert len(lines) == 4

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sweep_curve(THETA_W, 1)

    def test_steps_must_be_an_integer(self):
        # a float used to escape from np.linspace as a TypeError
        for bad in (101.0, 2.5, True, False):  # a bool is no count
            with pytest.raises(ValueError, match=rf"^chi_steps must be in \[2, "
                                                 rf"{expio.MAX_SWEEP_STEPS}\], got {bad}$"):
                sweep_curve(THETA_W, bad)
        assert sweep_curve(THETA_W, np.int64(11)).tobytes() == sweep_curve(THETA_W, 11).tobytes()

    def test_checks_theta_alone_never_the_linspace_grid(self, monkeypatch):
        # linspace(0, 1, n) lies in [0, 1], so only theta needs its check
        cases = [(math.radians(deg), steps) for deg in (0.0, 7.5, 22.5) for steps in (2, 101)]
        expected = [sweep_curve(theta, steps).tobytes() for theta, steps in cases]
        spy(monkeypatch, criteria, "werner_like_parameters", forbid=True)
        assert [sweep_curve(theta, steps).tobytes() for theta, steps in cases] == expected
        with pytest.raises(ValueError, match=r"^theta=nan \(nan deg\) outside \[0, pi/4\] "
                                             r"\(\[0, 45\] deg\)$"):
            sweep_curve(math.nan, 11)

    @pytest.mark.parametrize("steps", [2, 3, 101, 1001])  # the bound columns are constant
    @pytest.mark.parametrize("theta_deg", [0.0, 7.5, 22.5])
    def test_csv_matches_per_value_formatting(self, theta_deg, steps):
        rows = sweep_curve(math.radians(theta_deg), steps)
        lines = [CURVE_CSV_HEADER] + [",".join(f"{value:.12g}" for value in row)
                                      for row in rows]
        assert curve_to_csv(rows) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("steps", [2, 11, 101, 1001])
    def test_csv_matches_reference_renderer(self, steps):
        for theta in np.linspace(0.0, math.pi / 4, 19):
            rows = sweep_curve(theta, steps)
            assert curve_to_csv(rows) == reference_curve_to_csv(rows), theta

    def test_csv_edge_values_match_reference_renderer(self):
        rows = np.array([[-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0 - 2.0**-53, 0.0, 1.0]])
        text = curve_to_csv(rows)
        assert text == reference_curve_to_csv(rows)
        assert text.split("\n")[1] == "-0,4.94065645841e-324,1e+16,0.3,1,0,1"

    def test_csv_constant_column_compares_bits_not_values(self):
        # -0.0 == 0.0, but they print differently: a column is constant only bit for bit
        rows = np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, -0.0], [0.0, 0.0, -0.0]])
        assert curve_to_csv(rows).split("\n")[1:] == ["-0,0,-0", "0,0,-0", "0,0,-0", ""]


class TestReproduceTables:
    def test_sixty_entries(self):
        cmp = reproduce_tables()
        assert len(cmp.rows) == 60

    def test_spot_deviations(self):
        cmp = reproduce_tables()
        by_key = {(r.family, r.chi, r.criterion): r for r in cmp.rows}
        assert by_key[("werner_22.5deg", 0.50, "scg_q2")].deviation == pytest.approx(
            0.0005, abs=1e-10)
        assert by_key[("werner_22.5deg", 0.00, "scg_q1")].deviation == pytest.approx(
            abs(3 * math.log(2) - 2.0787), abs=1e-10)
        assert by_key[("tilted_7.5deg", 1.00, "lsc")].deviation == pytest.approx(
            abs(math.sqrt(1.5) - 1.2092), abs=1e-10)
        assert by_key[("werner_22.5deg", 1.00, "lsc")].deviation == pytest.approx(
            abs(math.sqrt(3) - 1.6995), abs=1e-10)

    def test_summary_against_independent_arithmetic(self):
        # frozen from a standalone recomputation of every entry: the worst rows
        # are the chi = 0 norm entries (noise-biased measurement of a zero vector)
        cmp = reproduce_tables()
        deviations = [row.deviation for row in cmp.rows]
        assert max(deviations) == pytest.approx(0.0608, abs=1e-9)
        worst = max(cmp.rows, key=lambda r: r.deviation)
        assert worst.chi == 0.0 and worst.criterion == "lsc"
        assert sum(d <= 0.01 for d in deviations) == 41
        assert sum(d <= 0.035 for d in deviations) == 58

    def test_reproduce_tables_makes_one_kernel_call(self, monkeypatch):
        # both families' 20 tables go through one kernel call, and every analytic entry
        # keeps the bits of its own family's call
        expected = []
        for family, theta, table in expio.REFERENCE_FAMILIES:
            values = criteria.criterion_values(
                criteria.analytic_tensor(theta, [row[0] for row in table]), DEFAULT_QS)
            expected += [(family, chi, c.key, float(values[c.key][idx]).hex())
                         for idx, (chi, *_) in enumerate(table) for c in criteria_of(DEFAULT_QS)]
        calls = spy(monkeypatch, criteria, "rows_values")
        rows = reproduce_tables().rows
        assert [len(p) for p, _ in calls] == [20]
        assert [(r.family, r.chi, r.criterion, r.analytic.hex()) for r in rows] == expected

    def test_text_rendering(self):
        text = comparison_to_text(reproduce_tables())
        assert "max deviation: 0.0608" in text
        assert text.count("\n") == 62  # header + 60 rows + summary

    def test_text_matches_reference_renderer(self):
        cmp = reproduce_tables()
        assert comparison_to_text(cmp) == reference_comparison_to_text(cmp)

    @pytest.mark.parametrize("rows", [
        [("werner_22.5deg", -0.0, "scg_q2", -0.0, 0.0), ("werner_22.5deg", 0.0, "lsc", 0.0, -0.0)],
        [("f", math.nan, "scg_q1", math.nan, 1.0), ("f", 0.5, "lsc", 1.0, math.nan)],
        [("f", 0.5, "lsc", 1.0, math.nan), ("f", 0.5, "scg_q2", 0.2, 0.25)],
        [("f", math.inf, "lsc", math.inf, -math.inf), ("f", -math.inf, "lsc", -math.inf, 1.0)],
        [("a family name longer than sixteen", 0.5, "a criterion name", 1.0, 0.5)],
        [("100% family %s %(x)s", 0.5, "50%", 1.0, 0.5), ("%", 0.1, "%%", 0.2, 0.3)],
        [("f", 100.0, "scg_q2", 123456.789, -1e6), ("f", 1e20, "lsc", 5e-324, 1e300)],
        [("f", -0.004, "lsc", -0.00004, 0.00005)],
    ], ids=["signed-zero", "nan-first", "nan-later", "infinities", "long-names",
            "percent-signs", "wide-values", "rounds-to-signed-zero"])
    def test_text_edge_values_match_reference_renderer(self, rows):
        cmp = TableComparison(tuple(ComparisonRow(*row) for row in rows))
        assert comparison_to_text(cmp) == reference_comparison_to_text(cmp)


def test_reports_follow_one_criterion_order():
    """The curve columns, each table group and a report list criteria_of(DEFAULT_QS)."""
    keys = [c.key for c in criteria_of(DEFAULT_QS)]
    columns = CURVE_CSV_HEADER.split(",")
    assert columns[1:1 + len(keys)] == keys
    assert columns[1 + len(keys):] == ["bound_" + key.removeprefix("scg_") for key in keys]
    groups: dict = {}
    for row in reproduce_tables().rows:
        groups.setdefault((row.family, row.chi), []).append(row.criterion)
    assert len(groups) == 20 and all(names == keys for names in groups.values())
    report = evaluate_state(THETA_T, 0.81)
    assert [(c.criterion, c.q) for c in report.criteria] == [
        (c.name, c.q) for c in criteria_of(DEFAULT_QS)]
    assert list(json.loads(report_to_json(report))["bounds"]) == keys


class TestEachCheckOnce:
    """Each entry checks its q list once; the kernel then runs on the checked rows."""

    def test_evaluate_state_checks_its_qs_once(self, monkeypatch):
        calls = spy(monkeypatch, criteria, "criteria_of")
        evaluate_state(THETA_T, 0.81, qs=(2.0, 1.0, 0.5))
        assert calls == [((2.0, 1.0, 0.5),)]

    def test_sweep_and_tables_check_nothing_again(self, monkeypatch):
        # their columns are DEFAULT_CRITERIA, checked once when expio is imported
        calls = spy(monkeypatch, criteria, "criteria_of")
        sweep_curve(THETA_T, 101)
        reproduce_tables()
        assert calls == []

    @pytest.mark.parametrize("chunk", [expio.BOOTSTRAP_CHUNK, 64])
    def test_evaluate_record_checks_its_qs_once_not_per_block(self, monkeypatch, chunk):
        rec = simulate_record(THETA_T, 0.7, 3_000, seed=4)
        monkeypatch.setattr(expio, "BOOTSTRAP_CHUNK", chunk)
        calls = spy(monkeypatch, criteria, "criteria_of")
        evaluate_record(rec, qs=(2.0, 1.5), bootstrap=1000, seed=5)
        assert calls == [((2.0, 1.5),)]
