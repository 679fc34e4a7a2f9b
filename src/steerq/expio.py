"""Experiment-facing layer: counts CSV, bootstrap error bars, reports, curves.

Counts CSV schema (strict): header ``setting,outcome,count``; twelve data
rows covering every (setting, outcome) pair with setting in {x, y, z} and
outcome in {00, 01, 10, 11}; counts are non-negative integers.  Lines
starting with ``#`` are comments; row order is free.

Error bars are parametric bootstrap: each cell is resampled as Poisson with
the observed count as mean, the criteria are re-evaluated per resample, and
the error bar is their standard deviation.  Resamples are drawn and evaluated
BOOTSTRAP_CHUNK at a time, so memory stays bounded up to MAX_BOOTSTRAP.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import criteria
from .measure import AXES, is_int, spawn_generator, table_totals

OUTCOME_LABELS = ("00", "01", "10", "11")
_CELLS = {cell: idx for idx, cell in enumerate((a, o) for a in AXES for o in OUTCOME_LABELS)}
CSV_HEADER = "setting,outcome,count"

DEFAULT_QS = (2.0, 1.0)
DEFAULT_CRITERIA = criteria.criteria_of(DEFAULT_QS)  # the sweep's and tables' columns
CURVE_CSV_HEADER = ",".join(["chi", *(c.key for c in DEFAULT_CRITERIA),
                             *("bound_" + c.key.removeprefix("scg_") for c in DEFAULT_CRITERIA)])
DEFAULT_BOOTSTRAP = 1000
BOOTSTRAP_STREAM = 3  # streams 0..2 are reserved for per-axis simulation
BOOTSTRAP_CHUNK = 4096
MAX_BOOTSTRAP = 10**6
COUNT_LIMIT = 2**53  # float64 holds every integer below it: n_ij / total rounds once
MAX_SWEEP_STEPS = 10**5


class CountsFormatError(ValueError):
    """The counts CSV violates the schema; the message carries the line number."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One full experiment: a label and read-only int64 counts n[k, i, j].

    k is the setting (x, y, z), i Alice's and j Bob's outcome.  Counts must be
    non-negative integers and every setting total must lie in [1, COUNT_LIMIT).
    """

    label: str
    counts: np.ndarray  # shape (3, 2, 2)

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.shape != (3, 2, 2):
            raise ValueError(f"counts must have shape (3, 2, 2), got {raw.shape}")
        cells = raw.reshape(-1).tolist()
        if not all((type(v) is int or (type(v) is float and v.is_integer())) and v >= 0
                   for v in cells):
            raise ValueError(f"counts must be non-negative integers, got {raw.tolist()}")
        for axis, k in zip(AXES, range(0, 12, 4)):
            total = sum(int(v) for v in cells[k:k + 4])
            if total < 1:
                raise ValueError(f"axis {axis} has zero total count")
            if total >= COUNT_LIMIT:
                raise ValueError(f"axis {axis} total count {total} is not below "
                                 f"2**53 = {COUNT_LIMIT}")
        counts = np.array([int(v) for v in cells], dtype=np.int64).reshape(3, 2, 2)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def parse_counts_csv(text: str, label: str = "counts") -> ExperimentRecord:
    """Parse the strict 12-row counts CSV; errors cite the offending line."""
    cells = [0] * 12
    lines = [0] * 12  # line of each cell's row, 0 while unseen
    header_found = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_found:
            if line != CSV_HEADER:
                raise CountsFormatError(
                    f"line {lineno}: expected header '{CSV_HEADER}', got '{line}'"
                )
            header_found = True
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise CountsFormatError(
                f"line {lineno}: expected 3 comma-separated fields, got {len(fields)}"
            )
        setting, outcome, count_text = fields
        if setting not in AXES:
            raise CountsFormatError(
                f"line {lineno}: unknown setting '{setting}' (expected x, y or z)"
            )
        if outcome not in OUTCOME_LABELS:
            raise CountsFormatError(
                f"line {lineno}: unknown outcome '{outcome}' "
                f"(expected one of {', '.join(OUTCOME_LABELS)})"
            )
        if not (count_text.isascii() and count_text.isdigit()):
            raise CountsFormatError(
                f"line {lineno}: count '{count_text}' is not a non-negative integer"
            )
        idx = _CELLS[setting, outcome]
        if lines[idx]:
            raise CountsFormatError(
                f"line {lineno}: duplicate entry for ({setting}, {outcome}), "
                f"first seen at line {lines[idx]}"
            )
        digits = count_text.lstrip("0") or "0"  # 2**53 has 16 digits; int() caps at 4300
        if len(digits) > 16 or (count := int(digits)) >= COUNT_LIMIT:
            raise CountsFormatError(
                f"line {lineno}: count {count_text} is not below 2**53 = {COUNT_LIMIT}"
            )
        cells[idx] = count
        lines[idx] = lineno
    if not header_found:
        raise CountsFormatError(f"empty input: expected header '{CSV_HEADER}'")
    missing = [f"({setting}, {out})" for (setting, out), seen in zip(_CELLS, lines) if not seen]
    if missing:
        raise CountsFormatError(f"missing rows: {', '.join(missing)}")
    return ExperimentRecord(label, np.reshape(cells, (3, 2, 2)))


def serialize_counts_csv(rec: ExperimentRecord) -> str:
    """Render the canonical counts CSV (axes x, y, z; outcomes in order)."""
    rows = [f"{setting},{outcome},{count}"
            for (setting, outcome), count in zip(_CELLS, rec.counts.reshape(-1).tolist())]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


@dataclass(frozen=True)
class EvaluationReport:
    """Criterion verdicts and their tables, in the one shape that report_to_json takes."""

    label: str
    criteria: tuple[criteria.CriterionReport, ...]  # one at least
    probabilities: dict       # "x", "y", "z" in that order -> [p00, p01, p10, p11]
    totals: Optional[dict]    # "x", "y", "z" in that order -> total counts (None when analytic)
    seed: Optional[int]       # bootstrap seed (None when analytic)


_ENCODE = json.JSONEncoder(allow_nan=False, separators=("\n", ": ")).encode  # see report_to_json


def _block(members: list, pad: str, brackets: str) -> str:
    """json.dumps(indent=2)'s layout of a list or dict of these members (one at least)."""
    return brackets[0] + "\n" + ",\n".join(members) + "\n" + pad + brackets[1]


_CRITERION = "    " + _block([f'      "{f.name}": %s' for f in fields(criteria.CriterionReport)],
                             "    ", "{}")
_PROBABILITIES = _block([f'    "{axis}": ' + _block(["      %s"] * 4, "    ", "[]")
                         for axis in AXES], "  ", "{}")
_TOTALS = _block([f'    "{axis}": %s' for axis in AXES], "  ", "{}")


def report_to_json(report: EvaluationReport) -> str:
    """json.dumps(document, indent=2, allow_nan=False) of a report that evaluate_record or
    evaluate_state returns, from one encoder call on its values in document order: ensure_ascii
    leaves no raw newline in a token, so its "\n" separators split them for the % call on the
    layout, where axis and bound keys are literals.  Any other shape is a ValueError."""
    shape = [(axis, len(cells)) for axis, cells in report.probabilities.items()]
    totals = None if report.totals is None else list(report.totals)
    if not report.criteria or shape != [(a, 4) for a in AXES] or totals not in (None, [*AXES]):
        raise ValueError(f"report_to_json takes at least one criterion, 4 cells for each of x, "
                         f"y, z in that order and totals keyed x, y, z or None, got "
                         f"{len(report.criteria)} criteria, cells {dict(shape)}, totals {totals}")
    bounds = {"lsc" if c.criterion == criteria.LSC else criteria.scg_key(c.q): c.bound
              for c in report.criteria}
    values = [report.label, *[v for c in report.criteria for v in vars(c).values()],
              *[v for cells in report.probabilities.values() for v in cells],
              *(report.totals or {}).values(), *bounds.values(), report.seed]
    layout = _block(['  "label": %s',
                     '  "criteria": ' + _block([_CRITERION] * len(report.criteria), "  ", "[]"),
                     '  "probabilities": ' + _PROBABILITIES,
                     '  "totals": ' + ("null" if totals is None else _TOTALS),
                     '  "bounds": ' + _block([f'    "{key}": %s' for key in bounds], "  ", "{}"),
                     '  "seed": %s'], "", "{}")
    return layout % tuple(_ENCODE(values)[1:-1].split("\n"))


def _report(label: str, p: np.ndarray, rows: Sequence[criteria.Criterion], values: dict,
            error_bars: Optional[dict] = None, totals: Optional[dict] = None,
            seed: Optional[int] = None) -> EvaluationReport:
    """Verdicts of the criteria_of rows on their values for the (3, 2, 2) tables p."""
    bars = error_bars or {}
    verdicts = tuple(criteria.verdict(c.name, float(values[c.key]), c.bound, q=c.q,
                                      error_bar=bars.get(c.key))
                     for c in rows)
    probabilities = dict(zip(AXES, p.reshape(3, 4).tolist()))
    return EvaluationReport(label, verdicts, probabilities, totals, seed)


def evaluate_record(rec: ExperimentRecord, qs: Sequence[float] = DEFAULT_QS,
                    bootstrap: int = DEFAULT_BOOTSTRAP, seed: int = 0) -> EvaluationReport:
    """Estimate probabilities from counts and evaluate SCG (per q) and LSC with error bars.

    Error bars are the std over Poisson resamples drawn BOOTSTRAP_CHUNK at a time from the one
    (seed, BOOTSTRAP_STREAM) generator, as (size, 12) blocks on the counts' (1, 12) row: numpy
    draws in C order, so results depend only on (record, seed, bootstrap), and this 2-D
    broadcast draws what the 4-D (size, 3, 2, 2) form did.  The observed row leads the first
    block and gives the report's p, totals and values.  Totals and the cell-major divide (each
    p[..., i, j] one row) act on the (3(n+1), 4) rows, read as (n+1, 3, 2, 2) by the kernel.
    Resamples with an empty setting are dropped; at least two must remain.
    """
    if not (is_int(bootstrap) and 2 <= bootstrap <= MAX_BOOTSTRAP):
        raise ValueError(f"bootstrap resample count must be in [2, {MAX_BOOTSTRAP}], "
                         f"got {bootstrap}")
    rows = criteria.criteria_of(qs)  # checks qs before the draws
    rng = spawn_generator(seed, BOOTSTRAP_STREAM)
    columns = np.empty((len(rows), bootstrap + 1))  # one row per criterion, observed first
    filled = 0
    for start in range(0, bootstrap, BOOTSTRAP_CHUNK):
        size = min(BOOTSTRAP_CHUNK, bootstrap - start)
        draws = rng.poisson(lam=rec.counts.reshape(1, 12), size=(size, 12))
        if start == 0:  # the observed counts ride in the first block as row 0
            draws = np.concatenate([rec.counts.reshape(1, 12), draws])
        totals = table_totals(draws.reshape(-1, 2, 2))  # one per (resample, setting) row
        if not (totals >= 1).all():  # never row 0: a record has counts in every setting
            usable = (totals >= 1).reshape(-1, 3).all(axis=1)
            draws, totals = draws[usable], totals.reshape(-1, 3)[usable].reshape(-1)
        p = np.divide(draws.reshape(-1, 4).T, totals, order="C").T.reshape(-1, 3, 2, 2)
        if start == 0:
            observed, observed_totals = p[0], totals[:3]
        for column, values in zip(columns, criteria.rows_values(p, rows).values()):
            column[filled:filled + len(p)] = values
        filled += len(p)
    keys = [c.key for c in rows]
    usable = filled - 1
    if usable < 2:
        raise ValueError(f"bootstrap: {usable} of {bootstrap} requested resamples have counts "
                         "in every setting, at least 2 are needed; the counts are too small "
                         "for error bars")
    bars = np.std(columns[:, 1:filled], axis=1, ddof=1)
    return _report(rec.label, observed, rows, dict(zip(keys, columns[:, 0])),
                   dict(zip(keys, bars.tolist())),
                   dict(zip(AXES, observed_totals.tolist())), int(seed))


def evaluate_state(theta: float, chi: float,
                   qs: Sequence[float] = DEFAULT_QS) -> EvaluationReport:
    """Analytic evaluation of a Werner-like state; no error bars."""
    c, s, chi = criteria.single_chi(theta, chi, "evaluate_state")  # checked before the qs
    p = criteria._werner_tensor(c, s, chi)[0]
    rows = criteria.criteria_of(qs)  # checks the qs after the state
    return _report(f"werner_like(theta={math.degrees(theta):g}deg, chi={chi:g})", p, rows,
                   criteria.rows_values(p, rows))


def simulate_record(theta: float, chi: float, shots: int, seed: int) -> ExperimentRecord:
    """Simulate one full experiment: Poisson counts with mean shots * p_ij per cell.

    Setting k draws from stream k (x=0, y=1, z=2) under the master seed.  The
    realized totals fluctuate around shots; zero-probability cells stay zero.
    """
    c, s, chi = criteria.single_chi(theta, chi, "simulate_record")
    p = criteria._werner_tensor(c, s, chi)[0]
    if not (is_int(shots) and 1 <= shots < COUNT_LIMIT):
        raise ValueError(f"shots must be a positive integer below 2**53 = {COUNT_LIMIT}, "
                         f"got {shots}")
    counts = np.stack([spawn_generator(seed, k).poisson(lam=shots * p[k])
                       for k in range(len(AXES))])
    for axis, total in zip(AXES, table_totals(counts).tolist()):
        if total < 1:
            raise ValueError(f"shots = {shots} with seed = {seed} drew no axis {axis} counts; "
                             "use more shots")
        if total >= COUNT_LIMIT:
            raise ValueError(f"shots = {shots} drew an axis {axis} total count of {total}, "
                             f"which is not below 2**53 = {COUNT_LIMIT}; use fewer shots")
    label = (f"simulated werner_like(theta={math.degrees(theta):g}deg, "
             f"chi={chi:g}, shots={shots}, seed={seed})")
    return ExperimentRecord(label, counts)


def sweep_curve(theta: float, chi_steps: int) -> np.ndarray:
    """Analytic criterion curves on a uniform chi grid, in CURVE_CSV_HEADER's columns:
    chi, the lhs of each DEFAULT_CRITERIA row, then their bounds."""
    if not (is_int(chi_steps) and 2 <= chi_steps <= MAX_SWEEP_STEPS):
        raise ValueError(f"chi_steps must be in [2, {MAX_SWEEP_STEPS}], got {chi_steps}")
    n = len(DEFAULT_CRITERIA)
    curve = np.empty((chi_steps, 1 + 2 * n))
    chis = curve[:, 0] = np.linspace(0.0, 1.0, chi_steps)  # in [0, 1]: theta alone needs its check
    curve.T[1:1 + n] = list(criteria.rows_values(
        criteria._werner_tensor(*criteria._werner_angle(theta), chis), DEFAULT_CRITERIA).values())
    curve[:, 1 + n:] = [c.bound for c in DEFAULT_CRITERIA]
    return curve


def curve_to_csv(rows: np.ndarray) -> str:
    bits = rows.view(np.int64)  # a column of one bit pattern is formatted once, into the line:
    constant = (bits == bits[:1]).all(axis=0)  # bits, as -0.0 == 0.0 prints "-0" and "0"
    line = ",".join("%.12g" % v if same else "%.12g"  # one % call renders every row
                    for v, same in zip(rows[:1].ravel().tolist(), constant.tolist()))
    cells = tuple(rows[:, ~constant].ravel().tolist())
    return "\n".join([CURVE_CSV_HEADER, *[line] * len(rows)]) % cells + "\n"


# Reference measurements from a published coincidence-count experiment on the
# two Werner-like families, used to check the analytic predictions at desk
# scale.  Rows: chi -> the DEFAULT_CRITERIA values (SCG q=2, SCG q->1, LSC).
REFERENCE_WERNER = (  # theta = 22.5 deg
    (0.00, 1.4993, 2.0787, 0.0608),
    (0.10, 1.4807, 2.0601, 0.1668),
    (0.34, 1.3279, 1.9038, 0.6028),
    (0.42, 1.2340, 1.8049, 0.7141),
    (0.50, 1.1255, 1.6875, 0.8729),
    (0.58, 0.9982, 1.5450, 1.0133),
    (0.66, 0.8471, 1.3683, 1.1582),
    (0.74, 0.6781, 1.1585, 1.2945),
    (0.90, 0.2883, 0.6009, 1.5728),
    (1.00, 0.0048, 0.0195, 1.6995),
)
REFERENCE_TILTED = (  # theta = 7.5 deg
    (0.00, 1.4993, 2.0787, 0.0608),
    (0.15, 1.4747, 2.0539, 0.1865),
    (0.30, 1.4179, 1.9953, 0.3727),
    (0.45, 1.3236, 1.8935, 0.5504),
    (0.55, 1.2484, 1.8096, 0.6772),
    (0.65, 1.1611, 1.7071, 0.7833),
    (0.75, 1.0664, 1.5912, 0.8931),
    (0.81, 0.9965, 1.5012, 0.9810),
    (0.89, 0.9054, 1.3775, 1.0786),
    (1.00, 0.7605, 1.1470, 1.2092),
)
REFERENCE_FAMILIES = (
    ("werner_22.5deg", math.radians(22.5), REFERENCE_WERNER),
    ("tilted_7.5deg", math.radians(7.5), REFERENCE_TILTED),
)


@dataclass(frozen=True)
class ComparisonRow:
    family: str
    chi: float
    criterion: str  # a DEFAULT_CRITERIA key
    analytic: float
    measured: float

    @property
    def deviation(self) -> float:
        return abs(self.analytic - self.measured)


@dataclass(frozen=True)
class TableComparison:
    rows: tuple[ComparisonRow, ...]


def reproduce_tables() -> TableComparison:
    """Analytic predictions next to the reference measurements, row by row."""
    angles = np.array([criteria._werner_angle(theta) for _, theta, _ in REFERENCE_FAMILIES])
    cos, sin = np.repeat(angles, [len(table) for _, _, table in REFERENCE_FAMILIES], axis=0).T
    chis = np.array([row[0] for _, _, table in REFERENCE_FAMILIES for row in table])
    values = criteria.rows_values(  # both families' 20 tables in one kernel call
        criteria._werner_tensor(cos, sin, chis), DEFAULT_CRITERIA)
    analytic = zip(*(values[c.key].tolist() for c in DEFAULT_CRITERIA))
    measured = [(family, row) for family, _, table in REFERENCE_FAMILIES for row in table]
    return TableComparison(tuple(
        ComparisonRow(family, chi, c.key, value, reference)
        for (family, (chi, *references)), predicted in zip(measured, analytic)
        for c, value, reference in zip(DEFAULT_CRITERIA, predicted, references)))


def comparison_to_text(cmp: TableComparison) -> str:
    deviations = [row.deviation for row in cmp.rows]
    cells = [value for row, d in zip(cmp.rows, deviations)  # one % call renders every row
             for value in (row.family, row.chi, row.criterion, row.analytic, row.measured, d)]
    lines = [f"{'family':<16} {'chi':>5} {'criterion':<9} "
             f"{'analytic':>10} {'measured':>10} {'deviation':>10}",
             *["%-16s %5.2f %-9s %10.4f %10.4f %10.4f"] * len(cmp.rows)]
    return "\n".join(lines) % tuple(cells) + (
        f"\nentries: {len(cmp.rows)}  max deviation: {max(deviations):.4f}  "
        f"within 0.01: {sum(d <= 0.01 for d in deviations)}\n")
