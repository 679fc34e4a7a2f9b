"""Dump the output of every steerq CLI verb over a fixed, seeded case list.

Each case runs ``steerq.cli.main`` in-process and writes one file holding
its argv, exit code, stdout, stderr and the file it wrote (if any), so
that ``diff -r`` between the dumps of two trees names every byte that moved:

    python tools/dump_cli.py /tmp/dump_new
    python tools/dump_cli.py /tmp/dump_old --src /path/to/other/tree/src
    diff -r /tmp/dump_old /tmp/dump_new

The cases are the sweep, threshold and eval-state grids below over 66
thetas, out-of-range inputs for each, seeded simulate/eval pairs, tables,
eval with a good or bad q list on a missing or malformed counts file, and
the bootstrap's block paths: the default 1000 resamples, 4097 resamples
(two blocks) and a sparse record whose resamples leave a setting empty.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# 61 thetas every 0.75 deg on [0, 45], plus edges and one off-grid angle
THETAS = ([f"{0.75 * i:g}" for i in range(61)]
          + ["1e-300", "1e-9", "44.999999", "45.00000000005", "13.3"])
EVAL_STATE_CHIS = ("0", "0.3", "0.58", "0.81", "1")
THRESHOLD_CRITERIA = (("scg", "--q", "2"), ("scg", "--q", "1"), ("scg", "--q", "0.5"),
                      ("scg", "--q", "0.1"), ("lsc",))  # q = 0.1 crosses next to chi = 1
THRESHOLD_TOLS = ("0.3", "0.0078125", "0.0078", "1e-6", "1e-12", "1e-300", "5e-324")
SWEEP_STEPS = ("2", "11", "101", "1001")
SIMULATE_CASES = 20
MALFORMED_COUNTS_PATH = "malformed.csv"  # written into the working directory before the cases
MALFORMED_COUNTS = "setting,outcome,count\nx,00,5\nx,01,5\n"  # ten rows missing
# the record `simulate --theta 30 --chi 0.9 --shots 4 --seed 2` writes; eval at seed 0 drops
# 68 of its 1000 resamples for an empty setting
SPARSE_COUNTS_PATH = "sparse.csv"
SPARSE_COUNTS = "\n".join(["setting,outcome,count", "x,00,1", "x,01,1", "x,10,0", "x,11,1",
                           "y,00,1", "y,01,2", "y,10,1", "y,11,0",
                           "z,00,2", "z,01,0", "z,10,0", "z,11,3"]) + "\n"
INVALID = [
    ["eval-state", "--theta", theta, "--chi", chi]
    for theta, chi in (("-1", "0.5"), ("45.1", "0.5"), ("45.0000000001146", "0.5"),
                       ("nan", "0.5"), ("inf", "0.5"), ("7.5", "-1e-300"),
                       ("7.5", "1.0000000000000002"), ("7.5", "nan"), ("7.5", "inf"),
                       ("7.5", "-0.1"))
] + [
    ["threshold", "--theta", "45.1"], ["threshold", "--theta", "nan"],
    ["threshold", "--theta", "7.5", "--tol", "0"], ["threshold", "--theta", "7.5", "--q", "3"],
    ["sweep", "--theta", "-1", "--out", "curve.csv"],
    ["sweep", "--theta", "7.5", "--steps", "1", "--out", "curve.csv"],
    ["sweep", "--theta", "7.5", "--steps", "100001", "--out", "curve.csv"],
] + [
    ["eval", "--counts", counts, "--q", q]  # a bad q list is reported before the file's fault
    for counts in ("missing.csv", MALFORMED_COUNTS_PATH) for q in ("7", "2,1")
]
BOOTSTRAP_BLOCKS = [  # counts.csv is the last simulate case's record
    ["eval", "--counts", "counts.csv", "--seed", "7"],  # the default 1000 resamples, one block
    ["eval", "--counts", "counts.csv", "--bootstrap", "4097", "--seed", "8"],  # two blocks
    ["eval", "--counts", SPARSE_COUNTS_PATH, "--seed", "0"],  # dropped resamples
]


def cases() -> list[list[str]]:
    """Every argv of the dump, in a fixed order."""
    out = []
    for theta in THETAS:
        out += [["eval-state", "--theta", theta, "--chi", chi] for chi in EVAL_STATE_CHIS]
        out.append(["eval-state", "--theta", theta, "--chi", "0.7", "--q", "0.5,1.5,2"])
        out += [["threshold", "--theta", theta, "--criterion", *criterion, "--tol", tol]
                for criterion in THRESHOLD_CRITERIA for tol in THRESHOLD_TOLS]
        out += [["sweep", "--theta", theta, "--steps", steps, "--out", "curve.csv"]
                for steps in SWEEP_STEPS]
    rng = np.random.default_rng(2024)
    for i in range(SIMULATE_CASES):
        theta, chi = f"{rng.uniform(0.0, 45.0):.6g}", f"{rng.uniform(0.0, 1.0):.6g}"
        shots, seed = str(int(10 ** rng.uniform(2.0, 6.0))), str(i)
        out.append(["simulate", "--theta", theta, "--chi", chi, "--shots", shots,
                    "--seed", seed, "--out", "counts.csv"])
        out.append(["eval", "--counts", "counts.csv", "--q", ("2,1", "0.5,1.5,2")[i % 2],
                    "--bootstrap", "200", "--seed", seed])
    out += [["tables"], ["tables", "--out", "tables.txt"]]
    return out + INVALID + BOOTSTRAP_BLOCKS


def run_case(cli_main, argv: list[str]) -> str:
    """argv, exit code, stdout, stderr and written file of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    parts = [f"argv: {shlex.join(argv)}", f"exit: {code}",
             "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path is not None and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            parts += [f"--- {path}", handle.read()]
        if argv[0] != "simulate":  # eval reads the counts the simulate case wrote
            os.remove(path)
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory to write one file per case into")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import steerq from (default: this checkout)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import steerq
    from steerq.cli import main as steerq_main

    if Path(steerq.__file__).resolve().parent != src / "steerq":
        sys.exit(f"error: imported steerq from {steerq.__file__}, not from {src}")

    outdir = Path(args.outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    all_cases = cases()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative --out paths keep "wrote <path>" lines tree-independent
        Path(MALFORMED_COUNTS_PATH).write_text(MALFORMED_COUNTS, encoding="utf-8")
        Path(SPARSE_COUNTS_PATH).write_text(SPARSE_COUNTS, encoding="utf-8")
        try:
            for idx, case in enumerate(all_cases):
                name = f"{idx:04d}_{case[0]}.txt"
                (outdir / name).write_text(run_case(steerq_main, case), encoding="utf-8")
        finally:
            os.chdir(start)
    print(f"wrote {len(all_cases)} cases to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
