"""Experiment-facing layer: counts CSV, bootstrap error bars, reports, curves.

Counts CSV schema (strict): header ``setting,outcome,count``; twelve data
rows covering every (setting, outcome) pair with setting in {x, y, z} and
outcome in {00, 01, 10, 11}; counts are non-negative integers.  Lines
starting with ``#`` are comments; row order is free.

Error bars are parametric bootstrap: each observed cell is resampled as
Poisson with mean equal to the observed count, the criteria are re-evaluated
per resample, and the error bar is the standard deviation over resamples.
Resamples are drawn and evaluated BOOTSTRAP_CHUNK at a time, so memory stays
bounded for any count up to MAX_BOOTSTRAP.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import criteria
from .measure import AXES, frequencies, spawn_generator, table_totals

OUTCOME_LABELS = ("00", "01", "10", "11")
_CELLS = tuple((axis, outcome) for axis in AXES for outcome in OUTCOME_LABELS)
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
        idx = _CELLS.index((setting, outcome))
        if lines[idx]:
            raise CountsFormatError(
                f"line {lineno}: duplicate entry for ({setting}, {outcome}), "
                f"first seen at line {lines[idx]}"
            )
        digits = count_text.lstrip("0") or "0"  # 2**53 has 16 digits; int() caps at 4300
        if len(digits) > 16 or int(digits) >= COUNT_LIMIT:
            raise CountsFormatError(
                f"line {lineno}: count {count_text} is not below 2**53 = {COUNT_LIMIT}"
            )
        cells[idx] = int(digits)
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
    """Criterion verdicts plus the probability tables they were computed from."""

    label: str
    criteria: tuple[criteria.CriterionReport, ...]
    probabilities: dict       # axis letter -> [p00, p01, p10, p11]
    totals: Optional[dict]    # axis letter -> total counts (None when analytic)
    seed: Optional[int]       # bootstrap seed (None when analytic)


def report_to_json(report: EvaluationReport) -> str:
    """Structured-text rendering with fixed field names."""
    doc = {
        "label": report.label,
        "criteria": [vars(c) for c in report.criteria],  # CriterionReport fields, in order
        "probabilities": report.probabilities,
        "totals": report.totals,
        "bounds": {"lsc" if c.criterion == criteria.LSC else criteria.scg_key(c.q): c.bound
                   for c in report.criteria},
        "seed": report.seed,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def _report(label: str, p: np.ndarray, qs: Sequence[float], error_bars: Optional[dict] = None,
            totals: Optional[dict] = None, seed: Optional[int] = None) -> EvaluationReport:
    """Verdicts on the (3, 2, 2) tables p, in criteria_of(qs) order, and p itself."""
    values = criteria.criterion_values(p, qs)
    bars = error_bars or {}
    verdicts = tuple(criteria.verdict(c.name, float(values[c.key]), c.bound, q=c.q,
                                      error_bar=bars.get(c.key))
                     for c in criteria.criteria_of(qs))
    probabilities = {axis: [float(v) for v in cells.reshape(-1)] for axis, cells in zip(AXES, p)}
    return EvaluationReport(label, verdicts, probabilities, totals, seed)


def _bootstrap_error_bars(rec: ExperimentRecord, qs: Sequence[float],
                          resamples: int, seed: int) -> dict:
    """Std deviation of each criterion over Poisson resamples of the counts.

    Resamples are drawn BOOTSTRAP_CHUNK at a time from the one
    (seed, BOOTSTRAP_STREAM) generator, which gives the same draws as one
    pass, so results depend only on (record, seed, resamples).  Resamples
    with an empty setting are dropped; fewer than two left is an error,
    since no spread can be estimated from them.
    """
    rng = spawn_generator(seed, BOOTSTRAP_STREAM)
    samples: dict[str, list] = {}
    for start in range(0, resamples, BOOTSTRAP_CHUNK):
        size = min(BOOTSTRAP_CHUNK, resamples - start)
        draws = rng.poisson(lam=rec.counts, size=(size, 3, 2, 2))
        totals = table_totals(draws)
        usable = np.all(totals >= 1, axis=1)
        if not usable.all():
            draws, totals = draws[usable], totals[usable]
        p = draws / totals[..., np.newaxis, np.newaxis]
        for key, values in criteria.criterion_values(p, qs).items():
            samples.setdefault(key, []).append(values)
    values = {key: np.concatenate(parts) for key, parts in samples.items()}
    usable = len(values["lsc"])
    if usable < 2:
        raise ValueError(
            f"bootstrap: {usable} of {resamples} requested resamples have counts in "
            "every setting, at least 2 are needed; the counts are too small for "
            "error bars"
        )
    return {key: float(np.std(column, ddof=1)) for key, column in values.items()}


def evaluate_record(rec: ExperimentRecord, qs: Sequence[float] = DEFAULT_QS,
                    bootstrap: int = DEFAULT_BOOTSTRAP, seed: int = 0) -> EvaluationReport:
    """Estimate probabilities from counts and evaluate SCG (per q) and LSC."""
    if not 2 <= bootstrap <= MAX_BOOTSTRAP:
        raise ValueError(f"bootstrap resample count must be in [2, {MAX_BOOTSTRAP}], "
                         f"got {bootstrap}")
    qs = criteria.check_qs(qs)  # before the draws
    error_bars = _bootstrap_error_bars(rec, qs, bootstrap, seed)
    totals = {axis: int(total) for axis, total in zip(AXES, rec.counts.sum(axis=(1, 2)))}
    return _report(rec.label, frequencies(rec.counts), qs, error_bars, totals, seed)


def evaluate_state(theta: float, chi: float,
                   qs: Sequence[float] = DEFAULT_QS) -> EvaluationReport:
    """Analytic evaluation of a Werner-like state; no error bars."""
    p = criteria.analytic_tensor(theta, chi)[0]
    return _report(f"werner_like(theta={math.degrees(theta):g}deg, chi={chi:g})", p, qs)


def simulate_record(theta: float, chi: float, shots: int, seed: int) -> ExperimentRecord:
    """Simulate one full experiment: Poisson counts with mean shots * p_ij per cell.

    Setting k draws from stream k (x=0, y=1, z=2) under the master seed.  The
    realized totals fluctuate around shots; zero-probability cells stay zero.
    """
    p = criteria.analytic_tensor(theta, chi)[0]
    if not 1 <= shots < COUNT_LIMIT:
        raise ValueError(f"shots must be a positive integer below 2**53 = {COUNT_LIMIT}, "
                         f"got {shots}")
    counts = np.stack([spawn_generator(seed, k).poisson(lam=shots * p[k])
                       for k in range(len(AXES))])
    for axis, total in zip(AXES, counts.sum(axis=(1, 2)).tolist()):
        if total >= COUNT_LIMIT:
            raise ValueError(f"shots = {shots} drew an axis {axis} total count of {total}, "
                             f"which is not below 2**53 = {COUNT_LIMIT}; use fewer shots")
    label = (f"simulated werner_like(theta={math.degrees(theta):g}deg, "
             f"chi={chi:g}, shots={shots}, seed={seed})")
    return ExperimentRecord(label, counts)


def sweep_curve(theta: float, chi_steps: int) -> np.ndarray:
    """Analytic criterion curves on a uniform chi grid, in CURVE_CSV_HEADER's columns:
    chi, the lhs of each DEFAULT_CRITERIA row, then their bounds."""
    if not 2 <= chi_steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"chi_steps must be in [2, {MAX_SWEEP_STEPS}], got {chi_steps}")
    chis = np.linspace(0.0, 1.0, chi_steps)
    values = criteria.criterion_values(criteria.analytic_tensor(theta, chis), DEFAULT_QS)
    return np.column_stack([chis, *(values[c.key] for c in DEFAULT_CRITERIA),
                            *(np.full(chi_steps, c.bound) for c in DEFAULT_CRITERIA)])


def curve_to_csv(rows: np.ndarray) -> str:
    line = ",".join(["{:.12g}"] * rows.shape[1]).format
    return "\n".join([CURVE_CSV_HEADER, *(line(*row) for row in rows.tolist())]) + "\n"


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

    @property
    def max_deviation(self) -> float:
        return max(row.deviation for row in self.rows)

    def count_within(self, tol: float) -> int:
        return sum(1 for row in self.rows if row.deviation <= tol)


def reproduce_tables() -> TableComparison:
    """Analytic predictions next to the reference measurements, row by row."""
    rows = []
    for family, theta, table in REFERENCE_FAMILIES:
        values = criteria.criterion_values(
            criteria.analytic_tensor(theta, [row[0] for row in table]), DEFAULT_QS)
        for idx, (chi, *measured) in enumerate(table):
            for c, value in zip(DEFAULT_CRITERIA, measured):
                rows.append(ComparisonRow(family, chi, c.key, float(values[c.key][idx]),
                                          value))
    return TableComparison(tuple(rows))


def comparison_to_text(cmp: TableComparison) -> str:
    lines = [f"{'family':<16} {'chi':>5} {'criterion':<9} "
             f"{'analytic':>10} {'measured':>10} {'deviation':>10}"]
    for row in cmp.rows:
        lines.append(f"{row.family:<16} {row.chi:>5.2f} {row.criterion:<9} "
                     f"{row.analytic:>10.4f} {row.measured:>10.4f} "
                     f"{row.deviation:>10.4f}")
    lines.append(f"entries: {len(cmp.rows)}  max deviation: {cmp.max_deviation:.4f}  "
                 f"within 0.01: {cmp.count_within(0.01)}")
    return "\n".join(lines) + "\n"
