"""Closed-loop driver, and the machine-speed calibration its timings are scaled by.

One caller runs ops 0, 1, 2, ... back to back; only the op itself is timed.
On shared cores the speed of the whole machine drifts by 20% and more over
seconds (a fixed pure-Python loop does too), which no run length averages
out.  So after each op the loop also times a fixed calibration unit -- the
benchmark's own code, never steerq -- and each op's time is scaled by
``CAL_REF_S / (median unit time of the nearby calibrations)``.  A reported
millisecond is then a millisecond on a machine where the unit takes
``CAL_REF_S``; the unscaled times are reported alongside.
"""

from __future__ import annotations

import statistics
import time
import traceback

import numpy as np

CAL_SHARE = 0.05        # calibrate for this share of each op's time (>= 1 unit)
CAL_WINDOW = 4          # units on either side of an op that set its scale
CAL_REF_S = 1.0e-3      # one unit's median time on the reference machine

_CAL_REAL = np.arange(16.0).reshape(4, 4)
_CAL_COMPLEX = np.eye(4, dtype=complex)
_CAL_LAM = np.full((3, 2, 2), 5000.0)
_CAL_RNG = np.random.default_rng(0)


def calibration_unit() -> float:
    """Fixed work of the kinds steerq's ops do.

    Interpreter-bound dict and string work, small real and complex matrix
    algebra, and vectorized Poisson draws and reductions like the bootstrap's:
    host load speeds these up or slows them down by different amounts, so
    the unit mixes all of them.  Its result is returned only so the work
    cannot be skipped.
    """
    counts: dict[int, int] = {}
    for i in range(100):
        counts[i % 17] = counts.get(i % 17, 0) + len(str(i))
    acc = float(sum(counts.values()))
    for _ in range(20):
        acc += float(np.trace(_CAL_REAL @ _CAL_REAL))
    a = _CAL_COMPLEX.copy()
    for _ in range(10):
        a[:, 1] = a[:, 0] * 0.5 + a[:, 1] * 0.5
        acc += np.trace(a @ np.kron(_CAL_COMPLEX[:2, :2], _CAL_COMPLEX[:2, :2])).real
    draws = _CAL_RNG.poisson(lam=_CAL_LAM, size=(100, 3, 2, 2)).astype(float)
    p = draws / draws.sum(axis=(2, 3))[:, :, np.newaxis, np.newaxis]
    return acc + float(np.std(np.log(p).sum(axis=(1, 2, 3))))


def calibrate(seconds: float) -> list[float]:
    """Time calibration units until `seconds` have been spent (at least one)."""
    clock, units, spent = time.perf_counter, [], 0.0
    while not units or spent < seconds:
        start = clock()
        calibration_unit()
        units.append(clock() - start)
        spent += units[-1]
    return units


def measure(steerq, spec, seed: int, seconds: float, recorder=None,
            max_errors: int = 3) -> dict:
    """Run ops until `seconds` have passed; returns raw and scaled timings.

    Input generation, the oracle check and calibration are not timed.  An op
    whose run or check raises counts as failed; its time is kept if run
    returned.  With a recorder, each op runs twice on the same input,
    untraced and then traced, so the tracing overhead is measured on
    identical, adjacent work: ``traced`` holds (untraced, traced) pairs.
    """
    make_input, run, check = spec
    latencies, traced, stages, errors, failed = [], [], [], [], 0
    units, unit_index = [], []  # unit_index[i]: first unit taken after op i
    clock = time.perf_counter
    deadline = clock() + seconds
    op = 0
    while op == 0 or clock() < deadline:
        inp = make_input(seed, op)
        try:
            start = clock()
            out = run(steerq, inp, op)
            elapsed = clock() - start
            op_stages = out.get("stage_seconds", {})
            latencies.append(elapsed)
            stages.append(op_stages)
            unit_index.append(len(units))
            units.extend(calibrate(CAL_SHARE * elapsed))
            check(inp, out, op)
            if recorder is not None:
                start = clock()
                out = recorder.run_op(op, run, steerq, inp, op)
                traced.append((elapsed, clock() - start))
                check(inp, out, op)
        except Exception:
            failed += 1
            if len(errors) < max_errors:
                errors.append(f"op {op} failed:\n{traceback.format_exc()}")
        op += 1
    scale = [CAL_REF_S / statistics.median(units[max(0, i - CAL_WINDOW):i + CAL_WINDOW])
             for i in unit_index]
    scaled_stages: dict[str, list[float]] = {}
    for factor, op_stages in zip(scale, stages):
        for name, samples in op_stages.items():
            scaled_stages.setdefault(name, []).extend(s * factor for s in samples)
    return {"attempted": op, "failed": failed, "latencies": latencies,
            "scaled": [lat * f for lat, f in zip(latencies, scale)],
            "scaled_stages": scaled_stages, "scale": scale,
            "traced_latencies": traced, "errors": errors}
