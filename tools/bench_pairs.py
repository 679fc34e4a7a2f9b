"""Compare this tree's benchmark against a base tree's in alternating pairs of runs.

Each pair runs ``benchmarks/run.py --workload W --seed S --seconds T --trace 0`` once on
the base tree and once on this one, alternating which goes first, so drift in machine
speed falls on both sides alike:

    python tools/bench_pairs.py --base /path/to/parent/checkout --workload analytic_scan \\
        --seed 37 --seconds 8 --pairs 10

``--workload`` also takes a comma-separated list (``counts_eval,analytic_scan``): the
workloads run one after another, each with its own pairs, and each gets its own table.

For each end-to-end metric in this tree's ``BENCHMARK.json`` it prints both sides' median
and quartiles, the change of the medians, and how many pairs this tree won.  A gain is
claimed for a metric when this tree wins at least 9 pairs in 10 (of 10 or more pairs) and
its median beats the base median by more than the base's interquartile range; a metric is
within its bound when its median is no worse than the base median by more than the
``bound`` fraction.  Quartiles are ``statistics.quantiles(..., n=4)``.  A run that failed
ops or was not correct is named below its table, and the exit status is then 1.

``--json PATH`` also writes what is printed to PATH: the seed, seconds and pairs, and for
each workload in turn its name, its ``summarize`` rows and its ``failures`` lines.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_PAIRS, CLAIM_WINS = 10, 0.9  # a claimed gain needs 10 pairs or more, and wins 90%


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The JSON result line (the last stdout line) of one benchmark run on tree."""
    proc = subprocess.run([sys.executable, str(tree / "benchmarks" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    return lines[-1]


def summarize(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric from (base, change) result lines of run.py, pair by pair.

    end_to_end holds BENCHMARK.json's entries: name, better ("higher" or "lower"), bound."""
    results = [(json.loads(base), json.loads(change)) for base, change in pairs]
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        base = [b["metrics"][name]["value"] for b, _ in results]
        change = [c["metrics"][name]["value"] for _, c in results]
        base_q, change_q = quartiles(base), quartiles(change)
        gain = (change_q[1] - base_q[1]) * sign  # above 0 when this tree is better
        wins = sum((c - b) * sign > 0.0 for b, c in zip(base, change))
        rows.append({"name": name, "base": base_q, "change": change_q,
                     "relative": (change_q[1] - base_q[1]) / base_q[1],
                     "wins": wins, "pairs": len(results),
                     "claim": len(results) >= CLAIM_PAIRS and wins >= CLAIM_WINS * len(results)
                              and gain > base_q[2] - base_q[0],
                     "within_bound": -gain <= spec["bound"] * abs(base_q[1])})
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def failures(pairs: list[tuple[str, str]]) -> list[str]:
    """A line for each run that failed ops, or else was not correct, naming which."""
    out = []
    for i, pair in enumerate(pairs):
        for side, line in zip(("base", "change"), pair):
            result = json.loads(line)
            if result["failed"]:
                out.append(f"pair {i + 1}: {side} failed {result['failed']} of "
                           f"{result['attempted']} ops")
            elif not result["correct"]:
                out.append(f"pair {i + 1}: {side} not correct")
    return out


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<12} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'change':>8} {'wins':>6}  claim  within bound"]
    for r in rows:
        (b1, b2, b3), (c1, c2, c3) = r["base"], r["change"]
        lines.append(f"{r['name']:<12} {f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>30} "
                     f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>30} {r['relative']:>+8.1%} "
                     f"{r['wins']:>3}/{r['pairs']:<2}  {'yes' if r['claim'] else 'no':<5}  "
                     f"{'yes' if r['within_bound'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="base tree to compare with")
    parser.add_argument("--workload", required=True,
                        help="workload name, or a comma-separated list of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the tables and failures here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"base": args.base.resolve(), "change": ROOT}
    report = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "workloads": []}
    for n, workload in enumerate(args.workload.split(",")):
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            lines = {side: run_once(trees[side], workload, args.seed, args.seconds)
                     for side in order}
            pairs.append((lines["base"], lines["change"]))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        print("\n" * (n > 0) + f"{workload}, seed {args.seed}, {args.seconds:g} s runs, "
              f"{args.pairs} pairs")
        rows, bad = summarize(pairs, end_to_end), failures(pairs)
        print(render(rows))
        for line in bad:
            print(line)
        report["workloads"].append({"workload": workload, "rows": rows, "failures": bad})
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 1 if any(w["failures"] for w in report["workloads"]) else 0


if __name__ == "__main__":
    sys.exit(main())
