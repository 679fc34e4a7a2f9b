"""End-to-end acceptance checks.

Each test prints one ``criterion NN [PASS|FAIL]`` line (run with ``-s`` to see
them on passing runs) and asserts the stated tolerance.

Criterion 04 checks what the reference tables are for: every analytic
entry equals its closed form from the Werner-like cell probabilities, every
measured entry gives the same verdict as its analytic counterpart, and the
measured tilted table shows SCG(q=2) certifying steering where LSC does not.
The raw deviations between the two columns (max 0.0608 at the chi = 0 LSC
entries, 41 of 60 within 0.01) are a property of the reference data; they
are printed here and pinned in ``test_expio.py``, not gated.
"""

import math

import numpy as np

from helpers import (BELL_CORRELATIONS, joint_tensor, mub_bound, random_bell_diagonal,
                     random_density, scg, scg_lhs_entropic, shannon_bound, tsallis_entropy,
                     werner_tables)
from steerq import (LSC, SCG, chi_threshold, correlations, reproduce_tables, scg_bound,
                    verdict)
from steerq.criteria import LSC_BOUND, analytic_tensor, criterion_values, scg_key
from steerq.expio import evaluate_record, simulate_record
from steerq.qmat import DensityMatrix, fidelity, make_werner_like

THETA_W = math.radians(22.5)
THETA_T = math.radians(7.5)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number:02d}: {description}{suffix}"


def test_criterion_01_bounds():
    dev_mub = abs(mub_bound(2, 3, 2.0) - 1.0)
    dev_shannon = abs(shannon_bound(2) - 2 * math.log(2))
    exact = scg_bound(2.0) == 1.0 and scg_bound(1.0) == 2 * math.log(2)
    _report(1, "MUB bound 1 at q=2 and parity bound 2 ln 2, within 1e-12 in the oracles "
               "and exactly in scg_bound",
            dev_mub <= 1e-12 and dev_shannon <= 1e-12 and exact,
            f"devs {dev_mub:.1e}, {dev_shannon:.1e}; scg_bound {scg_bound(2.0)!r}, "
            f"{scg_bound(1.0)!r}")


def test_criterion_02_werner_thresholds():
    thr_q2 = chi_threshold(THETA_W, SCG, q=2.0, tol=1e-7).chi
    thr_q1 = chi_threshold(THETA_W, SCG, q=1.0, tol=1e-6).chi
    ok = abs(thr_q2 - 0.5773503) <= 1e-6 and abs(thr_q1 - 0.652) <= 1e-3
    _report(2, "Werner thresholds 0.5773503 +- 1e-6 (q=2) and 0.652 +- 1e-3 (q=1)",
            ok, f"got {thr_q2:.7f}, {thr_q1:.4f}")


def test_criterion_03_tilted_grid_consistency():
    lhs_075 = scg(werner_tables(THETA_T, 0.75), 2.0)
    lhs_081 = scg(werner_tables(THETA_T, 0.81), 2.0)
    thr = chi_threshold(THETA_T, SCG, q=2.0, tol=1e-6).chi
    # independent oracle: brute-force scan at step 1e-4 for the first violation
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    scan = criterion_values(analytic_tensor(THETA_T, grid), (2.0,))["scg_q2"]
    scan_first = next(chi for chi, lhs in zip(grid, scan) if lhs < 1.0)
    ok = (lhs_075 > 1.0 and lhs_081 < 1.0
          and abs(thr - 0.802) < 1e-3
          and scan_first - 1e-4 <= thr <= scan_first)
    _report(3, "tilted family: >1 at chi=0.75, <1 at chi=0.81, threshold ~0.802 "
               "confirmed by 1e-4 scan",
            ok, f"lhs {lhs_075:.4f}/{lhs_081:.4f}, bisect {thr:.6f}, scan {scan_first:.4f}")


def _shannon(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def _werner_like_closed_form(theta, chi):
    """(SCG q=2, SCG q->1, LSC) from the closed-form x, y, z cell probabilities."""
    s = chi * math.sin(4 * theta)
    noise = (1 - chi) / 4
    p = np.array([
        [(1 + s) / 4, (1 - s) / 4, (1 - s) / 4, (1 + s) / 4],
        [(1 - s) / 4, (1 + s) / 4, (1 + s) / 4, (1 - s) / 4],
        [chi * math.cos(2 * theta) ** 2 + noise, noise, noise,
         chi * math.sin(2 * theta) ** 2 + noise],
    ]).reshape(3, 2, 2)
    p_a = p.sum(axis=2)
    scg_q2 = float(np.sum(1 - np.sum(p ** 2 / p_a[:, :, None], axis=(1, 2))))
    scg_q1 = sum(_shannon(p[k]) - _shannon(p_a[k]) for k in range(3))
    lsc = chi * math.sqrt(1 + 2 * math.sin(4 * theta) ** 2)
    return {"scg_q2": scg_q2, "scg_q1": scg_q1, "lsc": lsc}


def test_criterion_04_table_reproduction():
    cmp = reproduce_tables()
    deviations = [row.deviation for row in cmp.rows]
    thetas = {"werner_22.5deg": THETA_W, "tilted_7.5deg": THETA_T}
    measured_bounds = {"scg_q2": 1.0, "scg_q1": 2 * math.log(2), "lsc": 1.0}
    worst = 0.0
    agree = 0
    measured_tilted = {}
    for row in cmp.rows:
        expected = _werner_like_closed_form(thetas[row.family], row.chi)[row.criterion]
        worst = max(worst, abs(row.analytic - expected))
        if row.criterion == "lsc":
            analytic = verdict(LSC, row.analytic, LSC_BOUND).steerable
            measured = row.measured > measured_bounds[row.criterion]
        else:
            q = 2.0 if row.criterion == "scg_q2" else 1.0
            analytic = verdict(SCG, row.analytic, scg_bound(q), q=q).steerable
            measured = row.measured < measured_bounds[row.criterion]
        agree += analytic == measured
        if row.family == "tilted_7.5deg":
            measured_tilted[(row.chi, row.criterion)] = measured
    scg_only = [chi for (chi, name), steerable in measured_tilted.items()
                if name == "scg_q2" and steerable and not measured_tilted[(chi, "lsc")]]
    ok = len(cmp.rows) == 60 and worst <= 1e-12 and agree == 60 and bool(scg_only)
    _report(4, "reference tables: analytic column matches the closed form within 1e-12, "
               "60/60 measured verdicts agree, measured SCG(q=2) beats LSC on the "
               "tilted family",
            ok, f"worst {worst:.1e}, verdicts {agree}/{len(cmp.rows)}, SCG-only at "
                f"chi {scg_only}; max {max(deviations):.4f}, "
                f"within 0.01: {sum(d <= 0.01 for d in deviations)}/60")


def test_criterion_05_form_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        rho = random_density(rng)
        p = joint_tensor(rho.matrix)
        values = criterion_values(p, (1.3, 1.7, 2.0))
        for q in (1.3, 1.7, 2.0):
            worst = max(worst, abs(values[scg_key(q)] - scg_lhs_entropic(p, q)))
    _report(5, "probability and entropic forms agree within 1e-10 on 1000 states",
            worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_06_verdict_equivalence_bell_diagonal():
    rng = np.random.default_rng(202)
    agreements = checked = 0
    while checked < 1000:
        rho, weights = random_bell_diagonal(rng)
        c_diag = weights @ BELL_CORRELATIONS
        if abs(float(np.sum(c_diag ** 2)) - 1.0) < 1e-9:
            continue
        p = joint_tensor(rho.matrix)
        scg_rep = verdict(SCG, scg(p, 2.0), scg_bound(2.0), q=2.0)
        lsc_rep = verdict(LSC, float(np.linalg.norm(correlations(p))), 1.0)
        agreements += scg_rep.steerable == lsc_rep.steerable
        checked += 1
    _report(6, "SCG(q=2) and LSC verdicts agree on 1000 Bell-diagonal states",
            agreements == checked, f"{agreements}/{checked}")


def test_criterion_07_strength_separation():
    thr_scg = chi_threshold(THETA_T, SCG, q=2.0, tol=1e-7).chi
    thr_lsc = chi_threshold(THETA_T, LSC, tol=1e-7).chi
    gap = thr_lsc - thr_scg
    _report(7, "tilted family: SCG(q=2) threshold beats LSC by >= 0.01",
            gap >= 0.01, f"{thr_scg:.4f} vs {thr_lsc:.4f}, gap {gap:.4f}")


def test_criterion_08_statistical_pipeline():
    shots = 100_000
    all_ok = True
    details = []
    for chi in (0.5, 0.74):
        analytic = 1.5 * (1 - chi * chi)
        hits = 0
        bars = []
        for trial in range(100):
            rec = simulate_record(THETA_W, chi, shots, seed=10_000 + trial)
            rep = evaluate_record(rec, qs=(2.0,), bootstrap=1000, seed=20_000 + trial)
            scg2 = rep.criteria[0]
            bars.append(scg2.error_bar)
            hits += abs(scg2.lhs - analytic) <= 3 * scg2.error_bar
        bars = np.asarray(bars)
        median = float(np.median(bars))
        coverage_ok = hits >= 95
        magnitude_ok = bool(np.all((bars > 5e-4) & (bars < 5e-3))
                            and 1e-3 < median < 4e-3)
        all_ok &= coverage_ok and magnitude_ok
        details.append(f"chi={chi}: {hits}/100 hits, median bar {median:.1e}")
    _report(8, "count pipeline: >=95/100 trials within 3 bars, bars of order 1e-3",
            all_ok, "; ".join(details))


def test_criterion_09_entropy_continuity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        h = tsallis_entropy(p, 1.0)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            worst = max(worst, abs(tsallis_entropy(p, q) - h))
    _report(9, "Tsallis entropy within 1e-4 of Shannon at q = 1 +- 1e-6",
            worst < 1e-4, f"worst {worst:.2e}")


def test_criterion_10_fidelity_sanity():
    mixed = DensityMatrix(np.eye(4) / 4)
    dev_pure = max(abs(fidelity(make_werner_like(theta, 1.0), mixed) - 0.25)
                   for theta in (THETA_W, THETA_T))
    rng = np.random.default_rng(404)
    dev_self = max(abs(fidelity(rho, rho) - 1.0)
                   for rho in (random_density(rng) for _ in range(100)))
    _report(10, "fidelity: pure-vs-mixed 0.25 within 1e-9, self-fidelity 1 within 1e-12",
            dev_pure <= 1e-9 and dev_self <= 1e-12,
            f"devs {dev_pure:.1e}, {dev_self:.1e}")
