"""The benchmark's workloads: seeded inputs, one op each, and its oracle check.

Inputs come from ``numpy.random.default_rng([seed, op])`` and the closed-form
cell probabilities in ``oracle``, never from steerq, so they do not change
when the code under test does.  Ops call steerq through module attributes
looked up at call time, which is where the traced run installs its wrappers.
Each workload is (make_input(seed, op), run(steerq, input, op) -> output,
check(input, output, op)); check raises when the output is wrong.

Why these three:

* counts_eval -- the ``eval`` verb.  The bootstrap dominates, and it never
  reaches qmat or measure.joint_distribution, so a change to those layers
  must leave it unchanged.
* state_point -- the ``eval-state`` verb plus a fidelity, one state per
  call; per-call overhead added by a batching change shows up here.
* analytic_scan -- the ``sweep``, ``threshold`` and ``tables`` verbs, the
  paper's main result, at about 730 joint_distribution calls per job.
"""

from __future__ import annotations

import math
import time

import numpy as np

import oracle

QS = (2.0, 1.0)
BOOTSTRAP = 1000
SWEEP_STEPS = 101
THRESHOLD_TOL = 1e-6
THRESHOLDS = (("scg_q2", "SCG", 2.0), ("scg_q1", "SCG", 1.0), ("lsc", "LSC", None))
CSV_HEADER = "setting,outcome,count"


def _rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


# ---- counts_eval: parse_counts_csv -> evaluate_record -> report_to_json ----

def counts_input(seed: int, op: int) -> dict:
    rng = _rng(seed, op)
    theta = rng.uniform(0.0, math.pi / 4)
    chi = rng.uniform(0.0, 1.0)
    shots = 10.0 ** rng.uniform(3.0, 6.0)
    cells = oracle.werner_cells(theta, chi)
    counts = rng.poisson(shots * np.array(cells)).tolist()
    rows = [f"{axis},{outcome},{counts[a][o]}"
            for a, axis in enumerate(oracle.AXIS_LETTERS)
            for o, outcome in enumerate(oracle.OUTCOMES)]
    rng.shuffle(rows)
    comment = (f"# werner-like theta={math.degrees(theta):.6f}deg chi={chi:.6f} "
               f"shots={shots:.1f}")
    text = "\n".join([comment, CSV_HEADER, *rows]) + "\n"
    return {"text": text, "counts": counts, "cells": cells}


def counts_run(steerq, inp: dict, op: int) -> dict:
    expio = steerq.expio
    rec = expio.parse_counts_csv(inp["text"])
    report = expio.evaluate_record(rec, qs=QS, bootstrap=BOOTSTRAP, seed=op)
    return {"json": expio.report_to_json(report)}


def counts_check(inp: dict, out: dict, op: int) -> None:
    oracle.check_counts_report(out["json"], inp["counts"], inp["cells"], op)


# ---- state_point: evaluate_state -> report_to_json, plus a fidelity ----

def state_input(seed: int, op: int) -> dict:
    rng = _rng(seed, op)
    return {"theta": rng.uniform(0.0, math.pi / 4), "chi": rng.uniform(0.0, 1.0)}


def state_run(steerq, inp: dict, op: int) -> dict:
    expio, qmat = steerq.expio, steerq.qmat
    theta, chi = inp["theta"], inp["chi"]
    text = expio.report_to_json(expio.evaluate_state(theta, chi))
    fid = qmat.fidelity(qmat.make_werner_like(theta, chi),
                        qmat.make_werner_like(theta, 1.0))
    return {"json": text, "fidelity": fid}


def state_check(inp: dict, out: dict, op: int) -> None:
    oracle.check_state_report(out["json"], inp["theta"], inp["chi"])
    oracle.check_fidelity(out["fidelity"], inp["chi"])


# ---- analytic_scan: sweep, three thresholds, tables for one theta ----

def scan_input(seed: int, op: int) -> dict:
    return {"theta": _rng(seed, op).uniform(0.0, math.pi / 8)}


def scan_run(steerq, inp: dict, op: int) -> dict:
    """One job; ``stage_seconds`` times each verb (one entry per threshold)."""
    expio, criteria = steerq.expio, steerq.criteria
    theta = inp["theta"]
    clock = time.perf_counter
    stage_seconds = {"sweep": [], "threshold": [], "tables": []}
    t0 = clock()
    curve = expio.curve_to_csv(expio.sweep_curve(theta, SWEEP_STEPS))
    stage_seconds["sweep"].append(clock() - t0)
    thresholds = {}
    for key, criterion, q in THRESHOLDS:
        t0 = clock()
        thresholds[key] = criteria.chi_threshold(theta, criterion, q=q,
                                                 tol=THRESHOLD_TOL)
        stage_seconds["threshold"].append(clock() - t0)
    t0 = clock()
    cmp = expio.reproduce_tables()
    tables = expio.comparison_to_text(cmp)
    stage_seconds["tables"].append(clock() - t0)
    return {"curve": curve, "thresholds": thresholds, "cmp": cmp, "tables": tables,
            "families": expio.REFERENCE_FAMILIES, "stage_seconds": stage_seconds}


def scan_check(inp: dict, out: dict, op: int) -> None:
    theta = inp["theta"]
    oracle.check_curve_csv(out["curve"], theta, SWEEP_STEPS)
    for key, result in out["thresholds"].items():
        oracle.check_threshold(tuple(result), theta, key, THRESHOLD_TOL)
    oracle.check_tables(out["cmp"], out["tables"], out["families"])


# name -> (make_input, run, check)
WORKLOADS = {
    "counts_eval": (counts_input, counts_run, counts_check),
    "state_point": (state_input, state_run, state_check),
    "analytic_scan": (scan_input, scan_run, scan_check),
}
