"""The oracle fails closed: broken outputs must count as failed ops.

    python3 benchmarks/selftest.py

Runs op 0 of each workload once, then feeds each workload's check, through
the same closed loop the benchmark measures with, a copy of that output with
one defect: a perturbed lhs, a non-finite or non-positive error bar, a wrong
threshold, and so on.  Every defective op must be counted failed, and the
untouched output must pass.  The benchmark runs this before measuring and
refuses to measure when a defect gets through.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import closedloop
import workloads

SEED = 0
EPS = 1e-6  # far above rounding, far below any real difference in the values


def _criterion(idx: int, field: str, value):
    """Defect: report criteria[idx][field] replaced by value(old value)."""
    def defect(out):
        doc = json.loads(out["json"])
        doc["criteria"][idx][field] = value(doc["criteria"][idx][field])
        return {**out, "json": json.dumps(doc)}
    return defect


def _probability(out: dict) -> dict:
    doc = json.loads(out["json"])
    doc["probabilities"]["z"][0] += EPS
    return {**out, "json": json.dumps(doc)}


def _threshold(key: str, value):
    """Defect: thresholds[key] replaced by value(chi, crossed)."""
    def defect(out):
        return {**out, "thresholds": {**out["thresholds"],
                                      key: value(*out["thresholds"][key])}}
    return defect


def _curve(out: dict) -> dict:
    lines = out["curve"].split("\n")
    fields = lines[50].split(",")
    fields[1] = repr(float(fields[1]) + EPS)
    lines[50] = ",".join(fields)
    return {**out, "curve": "\n".join(lines)}


def _table(out: dict) -> dict:
    rows = list(out["cmp"].rows)
    rows[7] = dataclasses.replace(rows[7], analytic=rows[7].analytic + EPS)
    return {**out, "cmp": dataclasses.replace(out["cmp"], rows=tuple(rows))}


TOL = workloads.THRESHOLD_TOL
DEFECTS = {
    "counts_eval": {
        "perturbed lhs": _criterion(0, "lhs", lambda v: v + EPS),
        "NaN error bar": _criterion(1, "error_bar", lambda v: math.nan),
        "infinite error bar": _criterion(2, "error_bar", lambda v: math.inf),
        "zero error bar": _criterion(0, "error_bar", lambda v: 0.0),
        "missing error bar": _criterion(1, "error_bar", lambda v: None),
        "flipped verdict": _criterion(2, "steerable", lambda v: not v),
    },
    "state_point": {
        "perturbed lhs": _criterion(1, "lhs", lambda v: v + EPS),
        "NaN lhs": _criterion(2, "lhs", lambda v: math.nan),
        "perturbed probability": _probability,
        "wrong fidelity": lambda out: {**out, "fidelity": out["fidelity"] + EPS},
    },
    "analytic_scan": {
        "threshold above": _threshold("scg_q2", lambda chi, hit: (chi + 10 * TOL, hit)),
        "threshold below": _threshold("lsc", lambda chi, hit: (chi - 10 * TOL, hit)),
        "threshold not crossed": _threshold("scg_q1", lambda chi, hit: (1.0, False)),
        "perturbed curve": _curve,
        "perturbed table": _table,
    },
}


def _failed(steerq, make_input, check, output) -> tuple[int, int]:
    """(failed, attempted) when the closed loop's op returns `output`."""
    spec = (make_input, lambda steerq_, inp, op: output, check)
    res = closedloop.measure(steerq, spec, SEED, 0.0)
    return res["failed"], res["attempted"]


def problems(steerq) -> tuple[list[str], list[str]]:
    """(defects the oracle let through, workloads whose op 0 is already wrong).

    A workload whose untouched output fails cannot show the oracle catching
    defects; the measured run counts those failures itself.
    """
    missed, wrong = [], []
    for name, (make_input, run, check) in workloads.WORKLOADS.items():
        good = run(steerq, make_input(SEED, 0), 0)
        if _failed(steerq, make_input, check, good)[0]:
            wrong.append(f"{name}: op {SEED} output fails its check")
            continue
        for case, defect in DEFECTS[name].items():
            failed, attempted = _failed(steerq, make_input, check, defect(good))
            if failed != attempted:
                missed.append(f"{name}, {case}: counted {failed} of {attempted} "
                              "ops failed, expected all")
    return missed, wrong


def main() -> int:
    from run import import_steerq
    missed, wrong = problems(import_steerq())
    for problem in missed + wrong:
        print(problem)
    cases = sum(len(d) for d in DEFECTS.values())
    print(f"oracle self-test: {cases - len(missed)} of {cases} defects counted as "
          f"failed ops; {len(wrong)} workloads wrong before any defect")
    return 1 if missed or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
