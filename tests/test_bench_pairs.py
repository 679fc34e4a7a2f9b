"""tools/bench_pairs.py's summary of alternating benchmark pairs, on canned result lines."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.15},
              {"name": "op_p50_ms", "better": "lower", "bound": 0.15}]


def line(ops_per_s, p50_ms, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                                   "op_p50_ms": {"value": p50_ms, "unit": "ms"}}})


def rows_by_name(pairs):
    return {row["name"]: row for row in bench_pairs.summarize(pairs, END_TO_END)}


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_iqr():
    base = [500.0 + i for i in range(10)]  # quartiles 501.75, 504.5, 507.25: IQR 5.5
    wide = rows_by_name([(line(b, 2.0), line(b + 6.0, 2.0)) for b in base])["ops_per_s"]
    assert wide["base"] == (501.75, 504.5, 507.25)
    assert (wide["wins"], wide["pairs"], wide["claim"], wide["within_bound"]) == (10, 10, True,
                                                                                  True)
    narrow = rows_by_name([(line(b, 2.0), line(b + 5.0, 2.0)) for b in base])["ops_per_s"]
    assert narrow["wins"] == 10 and not narrow["claim"]  # gap 5.0 is inside the IQR
    eight = [(line(b, 2.0), line(b + (20.0 if i < 8 else -1.0), 2.0))
             for i, b in enumerate(base)]
    assert rows_by_name(eight)["ops_per_s"]["wins"] == 8
    assert not rows_by_name(eight)["ops_per_s"]["claim"]


def test_lower_is_better_metrics_win_by_falling():
    pairs = [(line(500.0, 2.0 + 0.01 * i), line(500.0, 1.8 + 0.01 * i)) for i in range(10)]
    row = rows_by_name(pairs)["op_p50_ms"]
    assert (row["wins"], row["claim"]) == (10, True)
    assert abs(row["relative"] - (-0.2 / 2.045)) < 1e-12
    ops = rows_by_name(pairs)["ops_per_s"]
    assert (ops["wins"], ops["claim"], ops["within_bound"]) == (0, False, True)  # ties


def test_bound_compares_the_medians():
    pairs = [(line(500.0, 2.0), line(420.0, 2.31)) for _ in range(4)]
    rows = rows_by_name(pairs)
    assert not rows["ops_per_s"]["within_bound"]  # 16% fewer ops per second
    assert not rows["op_p50_ms"]["within_bound"]  # 15.5% slower
    rows = rows_by_name([(line(500.0, 2.0), line(430.0, 2.29)) for _ in range(4)])
    assert rows["ops_per_s"]["within_bound"] and rows["op_p50_ms"]["within_bound"]


def test_failed_runs_are_named_and_the_table_renders():
    pairs = [(line(500.0, 2.0), line(510.0, 1.9)), (line(501.0, 2.0), line(505.0, 1.9, 3))]
    assert bench_pairs.failures(pairs) == ["pair 2: change failed 3 of 100 ops"]
    text = bench_pairs.render(bench_pairs.summarize(pairs, END_TO_END))
    # two pairs are too few for a claim, however large the gap
    assert text.splitlines()[1].split() == ["ops_per_s", "500.5", "[499.8,", "501.2]", "507.5",
                                            "[503.8,", "511.2]", "+1.4%", "2/2", "no", "yes"]


def test_workload_list_prints_one_table_per_workload(monkeypatch, capsys, tmp_path):
    # run_once is patched: no benchmark runs, each side returns a fixed line per workload
    names = [spec["name"] for spec in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    ops = {"counts_eval": 500.0, "analytic_scan": 400.0}
    runs = []

    def canned(tree, workload, seed, seconds):
        side = "change" if tree == ROOT else "base"
        runs.append((side, workload, seed, seconds))
        value = ops[workload] * (1.1 if side == "change" else 1.0)
        return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                           "metrics": {name: {"value": value} for name in names}})

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "counts_eval,analytic_scan",
                             "--seed", "3", "--seconds", "0.5", "--pairs", "2"]) == 0
    # each workload's pairs alternate which side runs first
    assert runs == [(side, workload, 3, 0.5) for workload in ops
                    for side in ("base", "change", "change", "base")]
    tables = capsys.readouterr().out.split("\n\n")
    assert [table.splitlines()[0] for table in tables] == [
        "counts_eval, seed 3, 0.5 s runs, 2 pairs", "analytic_scan, seed 3, 0.5 s runs, 2 pairs"]
    for table, base in zip(tables, ops.values()):
        ops_row = table.splitlines()[2].split()
        assert ops_row[0] == "ops_per_s" and ops_row[1] == f"{base:.4g}"
        assert ops_row[4] == f"{base * 1.1:.4g}" and ops_row[7:9] == ["+10.0%", "2/2"]


@pytest.mark.parametrize("fault", [{"failed": 3}, {"correct": False}],
                         ids=["failed-ops", "not-correct"])
def test_a_failed_or_incorrect_run_exits_1(monkeypatch, capsys, tmp_path, fault):
    # the change side of the second pair reports the fault; every other run is clean
    names = [spec["name"] for spec in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def canned(tree, workload, seed, seconds):
        runs.append(tree)
        side_faults = fault if tree == ROOT and len(runs) == 3 else {}
        return json.dumps({"correct": True, "attempted": 10, "failed": 0, **side_faults,
                           "metrics": {name: {"value": 1.0} for name in names}})

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "counts_eval",
                             "--pairs", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "pair 2: change not correct" if "correct" in fault
        else "pair 2: change failed 3 of 10 ops")


def test_json_holds_what_is_printed(monkeypatch, capsys, tmp_path):
    # canned lines: counts_eval's change side fails ops in pair 2, analytic_scan runs clean
    names = [spec["name"] for spec in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    lines = {("counts_eval", "base"): [line(500.0, 2.0), line(501.0, 2.0)],
             ("counts_eval", "change"): [line(510.0, 1.9), line(505.0, 1.9, 3)],
             ("analytic_scan", "base"): [line(540.0, 1.8), line(542.0, 1.8)],
             ("analytic_scan", "change"): [line(610.0, 1.6), line(615.0, 1.6)]}

    runs = []

    def canned(tree, workload, seed, seconds):
        side = "change" if tree == ROOT else "base"
        runs.append(side)
        result = json.loads(lines[workload, side].pop(0))
        result["metrics"] = {name: result["metrics"].get(name, {"value": 1.0}) for name in names}
        result["meta"] = {"git_sha": side, "src_lines": len(runs)}  # as run_once adds it
        return json.dumps(result)

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", str(tmp_path), "--workload", "counts_eval,analytic_scan",
                             "--seed", "5", "--seconds", "0.5", "--pairs", "2",
                             "--json", str(out)]) == 1
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert {key: report[key] for key in ("seed", "seconds", "pairs")} == {
        "seed": 5, "seconds": 0.5, "pairs": 2}
    # each side's meta comes from its first run, the first pair's, which ran base first
    assert report["meta"] == {"base": {"git_sha": "base", "src_lines": 1},
                              "change": {"git_sha": "change", "src_lines": 2}}
    assert [w["workload"] for w in report["workloads"]] == ["counts_eval", "analytic_scan"]
    assert [w["failures"] for w in report["workloads"]] == [
        ["pair 2: change failed 3 of 100 ops"], []]
    for workload, table in zip(report["workloads"], printed.split("\n\n")):
        rows = [{**row, "base": tuple(row["base"]), "change": tuple(row["change"])}
                for row in workload["rows"]]
        assert [row["name"] for row in rows] == names
        assert table.splitlines()[1:] == [*bench_pairs.render(rows).splitlines(),
                                          *workload["failures"]]


def test_run_once_adds_the_detail_lines_meta(monkeypatch, tmp_path):
    # run.py prints its detail line, then the result line; subprocess.run is patched
    meta = {"git_sha": "abc123", "numpy": "2.4.6", "steerq": "0.7.0", "src_lines": 1017}
    stdout = ("detail " + json.dumps({"workload": "counts_eval", "meta": meta}) + "\n"
              + line(500.0, 2.0) + "\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: bench_pairs.subprocess.CompletedProcess(
                            args, 0, stdout=stdout, stderr=""))
    package = tmp_path / "src" / "steerq"
    package.mkdir(parents=True)
    for name in ("criteria.py", "expio.py"):
        (package / name).write_text(f"# {name}\nVALUE = 1\n")

    def digest():
        result = json.loads(bench_pairs.run_once(tmp_path, "counts_eval", 1, 0.5))
        assert result == {**json.loads(line(500.0, 2.0)),
                          "meta": {**meta, "src_sha256": result["meta"]["src_sha256"]}}
        return result["meta"]["src_sha256"]

    before = digest()
    assert len(before) == 64 and digest() == before
    (package / "expio.py").write_text("# expio.py\nVALUE = 2\n")  # one byte changed
    assert digest() != before


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_usage_error(monkeypatch, capsys, tmp_path, pairs):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--base", str(tmp_path), "--workload", "counts_eval",
                          "--pairs", pairs])
    assert info.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err
