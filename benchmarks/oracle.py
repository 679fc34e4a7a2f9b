"""Closed-form oracle for the benchmark's outputs.

Everything here is plain Python on floats and does not import steerq, so the
expected values do not depend on the code under test.  Each ``check_*``
function raises ``OracleError`` on the first mismatch; the benchmark counts
that op as failed.

Werner-like state: chi |phi><phi| + (1 - chi) I/4 with
|phi> = cos(2 theta)|00> + sin(2 theta)|11>.  With s = sin(4 theta) and
outcome 0 <-> Pauli eigenvalue +1, the same-axis cell probabilities
[p00, p01, p10, p11] are

    x: [1 + chi s, 1 - chi s, 1 - chi s, 1 + chi s] / 4
    y: [1 - chi s, 1 + chi s, 1 + chi s, 1 - chi s] / 4
    z: [chi cos^2(2 theta) + (1 - chi)/4, (1 - chi)/4,
        (1 - chi)/4, chi sin^2(2 theta) + (1 - chi)/4]
"""

from __future__ import annotations

import json
import math

AXIS_LETTERS = ("x", "y", "z")
OUTCOMES = ("00", "01", "10", "11")
SCG_BOUNDS = {2.0: 1.0, 1.0: 2.0 * math.log(2.0)}
LSC_BOUND = 1.0

VALUE_TOL = 1e-9       # analytic values computed two ways agree to rounding
BOUNDARY_TOL = 1e-12   # sign tests within this of the bound are undecided
# The measured lhs is an unbiased-enough estimate of the true lhs at >= 1e3
# counts per setting: it must sit within this many error bars of it (plus a
# small absolute slack for the upward bias of the LSC norm near chi = 0).
ERROR_BAR_SIGMAS = 10.0
ERROR_BAR_SLACK = 1e-3


class OracleError(AssertionError):
    """An output disagrees with the closed-form expectation."""


def werner_cells(theta: float, chi: float) -> list[list[float]]:
    """Cell probabilities [p00, p01, p10, p11] for the x, y, z settings."""
    s = chi * math.sin(4.0 * theta)
    mixed = (1.0 - chi) / 4.0
    return [
        [(1.0 + s) / 4.0, (1.0 - s) / 4.0, (1.0 - s) / 4.0, (1.0 + s) / 4.0],
        [(1.0 - s) / 4.0, (1.0 + s) / 4.0, (1.0 + s) / 4.0, (1.0 - s) / 4.0],
        [chi * math.cos(2.0 * theta) ** 2 + mixed, mixed, mixed,
         chi * math.sin(2.0 * theta) ** 2 + mixed],
    ]


def scg(cells: list[list[float]], q: float) -> float:
    """SCG left-hand side; q == 1 is the Shannon limit (natural log)."""
    total = 0.0
    for p00, p01, p10, p11 in cells:
        for row in ((p00, p01), (p10, p11)):
            marginal = row[0] + row[1]
            for p in row:
                if p <= 0.0:
                    continue
                if q == 1.0:
                    total -= p * math.log(p / marginal)
                else:
                    total += (p - p ** q * marginal ** (1.0 - q)) / (q - 1.0)
    return total


def lsc(cells: list[list[float]]) -> float:
    """Norm of the three same-axis correlations p00 - p01 - p10 + p11."""
    return math.sqrt(sum((c[0] - c[1] - c[2] + c[3]) ** 2 for c in cells))


def criterion_values(cells) -> dict[str, float]:
    return {"scg_q2": scg(cells, 2.0), "scg_q1": scg(cells, 1.0), "lsc": lsc(cells)}


def fidelity_to_target(chi: float) -> float:
    """<phi| rho |phi> for the Werner-like state and its pure target."""
    return (1.0 + 3.0 * chi) / 4.0


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _close(got: float, want: float, what: str, tol: float = VALUE_TOL) -> None:
    _expect(isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= tol * max(1.0, abs(want)),
            f"{what}: got {got!r}, expected {want!r}")


def _reject_constant(token: str):
    raise OracleError(f"report is not strict JSON: contains {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _criterion_key(entry: dict) -> str:
    if entry["criterion"] == "LSC":
        return "lsc"
    return "scg_q1" if entry["q"] == 1.0 else "scg_q2"


def _check_criteria(doc: dict, want: dict[str, float]) -> None:
    entries = doc["criteria"]
    _expect([_criterion_key(e) for e in entries] == ["scg_q2", "scg_q1", "lsc"],
            f"unexpected criteria list {[e.get('criterion') for e in entries]}")
    for entry in entries:
        key = _criterion_key(entry)
        bound = LSC_BOUND if key == "lsc" else SCG_BOUNDS[entry["q"]]
        _close(entry["lhs"], want[key], f"{key} lhs")
        _close(entry["bound"], bound, f"{key} bound")
        _close(doc["bounds"][key], bound, f"bounds.{key}")
        if abs(want[key] - bound) > VALUE_TOL:
            steerable = want[key] > bound if key == "lsc" else want[key] < bound
            _expect(entry["steerable"] is steerable, f"{key} verdict is wrong")


def _check_probabilities(doc: dict, cells) -> None:
    for letter, want in zip(AXIS_LETTERS, cells):
        got = doc["probabilities"][letter]
        _expect(len(got) == 4, f"axis {letter}: {len(got)} probabilities")
        for idx, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"p[{letter}][{OUTCOMES[idx]}]")


def check_counts_report(text: str, counts: list[list[int]], true_cells,
                        seed: int) -> None:
    """Report from evaluate_record on the given 3x4 counts."""
    doc = strict_json(text)
    totals = [sum(row) for row in counts]
    observed = [[n / total for n in row] for row, total in zip(counts, totals)]
    _check_criteria(doc, criterion_values(observed))
    _check_probabilities(doc, observed)
    _expect(doc["totals"] == dict(zip(AXIS_LETTERS, totals)), "totals are wrong")
    _expect(doc["seed"] == seed, "bootstrap seed is not echoed")
    truth = criterion_values(true_cells)
    for entry in doc["criteria"]:
        key = _criterion_key(entry)
        bar = entry["error_bar"]
        _expect(isinstance(bar, float) and math.isfinite(bar) and bar > 0.0,
                f"{key} error bar {bar!r} is not finite and positive")
        _expect(abs(entry["lhs"] - truth[key])
                <= ERROR_BAR_SIGMAS * bar + ERROR_BAR_SLACK,
                f"{key} lhs {entry['lhs']!r} is more than {ERROR_BAR_SIGMAS:g} "
                f"error bars ({bar!r}) from the true value {truth[key]!r}")


def check_state_report(text: str, theta: float, chi: float) -> None:
    """Report from evaluate_state; analytic, so no error bars."""
    doc = strict_json(text)
    cells = werner_cells(theta, chi)
    _check_criteria(doc, criterion_values(cells))
    _check_probabilities(doc, cells)
    _expect(all(e["error_bar"] is None for e in doc["criteria"]),
            "analytic report carries error bars")
    _expect(doc["totals"] is None and doc["seed"] is None,
            "analytic report carries counts metadata")


def check_fidelity(value: float, chi: float) -> None:
    _close(value, fidelity_to_target(chi), "fidelity to the pure target")


def check_curve_csv(text: str, theta: float, steps: int) -> None:
    """Curve CSV from sweep_curve + curve_to_csv (values at 12 digits)."""
    lines = text.rstrip("\n").split("\n")
    _expect(lines[0] == "chi,scg_q2,scg_q1,lsc,bound_q2,bound_q1,bound_lsc",
            f"unexpected curve header {lines[0]!r}")
    _expect(len(lines) == steps + 1, f"{len(lines) - 1} curve rows, expected {steps}")
    bounds = (SCG_BOUNDS[2.0], SCG_BOUNDS[1.0], LSC_BOUND)
    for idx, line in enumerate(lines[1:]):
        chi, q2, q1, lin, *rest = (float(v) for v in line.split(","))
        want_chi = idx / (steps - 1)
        _close(chi, want_chi, f"curve row {idx} chi")
        want = criterion_values(werner_cells(theta, want_chi))
        for got, key in ((q2, "scg_q2"), (q1, "scg_q1"), (lin, "lsc")):
            _close(got, want[key], f"curve row {idx} {key}")
        for got, bound in zip(rest, bounds):
            _close(got, bound, f"curve row {idx} bound")


def threshold_margin(theta: float, key: str, chi: float) -> float:
    """Signed distance past the bound; positive means violated (steerable)."""
    value = criterion_values(werner_cells(theta, min(max(chi, 0.0), 1.0)))[key]
    if key == "lsc":
        return value - LSC_BOUND
    return SCG_BOUNDS[2.0 if key == "scg_q2" else 1.0] - value


def check_threshold(result, theta: float, key: str, tol: float) -> None:
    """chi_threshold result: the closed form must change sign across chi +- tol."""
    chi, crossed = result
    if not crossed:
        _expect(chi == 1.0, f"{key}: uncrossed threshold reported as {chi!r}")
        _expect(threshold_margin(theta, key, 1.0) <= BOUNDARY_TOL,
                f"{key}: reported uncrossed but the criterion is violated at chi=1")
        return
    _expect(0.0 <= chi <= 1.0, f"{key}: threshold {chi!r} outside [0, 1]")
    if chi - tol > 0.0:
        _expect(threshold_margin(theta, key, chi - tol) <= BOUNDARY_TOL,
                f"{key}: criterion already violated at chi - tol = {chi - tol!r}")
    _expect(threshold_margin(theta, key, chi + tol) > -BOUNDARY_TOL,
            f"{key}: criterion not violated at chi + tol = {chi + tol!r}")


def check_tables(cmp, text: str, families) -> None:
    """reproduce_tables rows against the closed form, and the rendered text."""
    expected = []
    for family, theta, table in families:
        for chi, *measured in table:
            want = criterion_values(werner_cells(theta, chi))
            for key, meas in zip(("scg_q2", "scg_q1", "lsc"), measured):
                expected.append((family, chi, key, want[key], meas))
    _expect(len(cmp.rows) == len(expected),
            f"{len(cmp.rows)} comparison rows, expected {len(expected)}")
    for row, (family, chi, key, want, meas) in zip(cmp.rows, expected):
        where = f"table {family} chi={chi} {key}"
        _expect((row.family, row.chi, row.criterion, row.measured)
                == (family, chi, key, meas), f"{where}: row mismatch")
        _close(row.analytic, want, f"{where} analytic")
    lines = text.rstrip("\n").split("\n")
    _expect(len(lines) == len(expected) + 2, "table text has the wrong line count")
    _expect(lines[-1].startswith(f"entries: {len(expected)} "),
            f"unexpected table summary {lines[-1]!r}")
