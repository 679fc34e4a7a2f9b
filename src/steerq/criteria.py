"""Steering criteria and bounds.

Two detectors are provided:

* SCG — the steering criterion from the generalized (Tsallis) entropic
  uncertainty relation.  A state is flagged steerable when the left-hand
  side falls strictly below the bound.  Both the probability form and the
  conditional-entropy-plus-correction form are implemented and agree to
  machine precision.
* LSC — the linear steering criterion sqrt(sum_i c_i^2) <= 1 over the three
  same-axis correlations; violation (strictly above 1) flags steering.

``criterion_values`` evaluates both on any (..., 3, 2, 2) tensor of joint
tables, so one state, a chi grid or a block of bootstrap resamples all go
through the same kernel.  ``scg_lhs_entropic`` stays an independent route.

The entropic index is accepted on (0, 2], the range where the mutually
unbiased bound applies; q = 1 is routed to the Shannon forms, where the
dimension-parity bound replaces the generic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import qentropy
from .measure import _checked_cells, correlations, table_totals
from .qmat import werner_like_parameters

Q_MAX = 2.0

SCG = "SCG"
LSC = "LSC"

LSC_BOUND = 1.0
_VIOLATION_SIGN = {SCG: -1.0, LSC: 1.0}  # sign of lhs - bound when the criterion is violated

MONOTONE_SAMPLES = 21
BISECTION_MAX_ITER = 200
MULTISECTION_BITS = 7
# chi_threshold's first kernel call: the monotone samples, then MULTISECTION_BITS halvings
_FIRST_BATCH = np.concatenate([np.linspace(0.0, 1.0, MONOTONE_SAMPLES),
                               np.arange(1, 2 ** MULTISECTION_BITS) / 2 ** MULTISECTION_BITS])


class SolverError(ArithmeticError):
    """The threshold solver's preconditions failed (non-monotone profile, ...)."""


def _check_q_range(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or q <= 0.0 or q > Q_MAX:
        raise ValueError(f"entropic index q must lie in (0, {Q_MAX:g}], got {q!r}")
    return q


def scg_key(q: float) -> str:
    """Report key of the SCG criterion at index q."""
    return f"scg_q{q:g}"


def check_qs(qs: Sequence[float]) -> tuple[float, ...]:
    """Entropic indices in (0, Q_MAX] whose report keys are distinct."""
    checked = tuple(_check_q_range(q) for q in qs)
    keys = [scg_key(q) for q in checked]
    if len(set(keys)) != len(keys):
        raise ValueError(f"entropic indices {', '.join(f'{q!r}' for q in checked)} "
                         f"collide in the report keys {keys}")
    return checked


def scg_lhs_cells(p: np.ndarray, marginal: np.ndarray, q: float) -> np.ndarray:
    """Vectorized SCG left-hand side from probability arrays.

    p has shape (..., S, 2, 2) with normalized joints along the trailing
    axes; marginal has shape (..., S, 2).  Returns shape (...).  Zero cells
    follow the 0^q convention; zero marginals force their whole row to zero.
    """
    p = np.asarray(p, dtype=float)
    marginal = np.asarray(marginal, dtype=float)
    safe_m = np.where(marginal > 0.0, marginal, 1.0)
    if qentropy.is_shannon(q):  # H(A, B) - H(A) = sum m ln m - sum p ln p per setting
        marginal_h = marginal * np.log(safe_m)
        per_setting = ((marginal_h[..., 0] + marginal_h[..., 1])
                       - table_totals(p * np.log(np.where(p > 0.0, p, 1.0))))
    else:
        terms = np.where(p > 0.0, p ** q * safe_m[..., np.newaxis] ** (1.0 - q), 0.0)
        per_setting = (1.0 - table_totals(terms)) / (q - 1.0)
    total = 0.0  # np.sum's start: +0.0 when every setting gives -0.0 (deterministic, q < 1)
    for k in range(per_setting.shape[-1]):
        total = total + per_setting[..., k]
    return total


def scg_lhs_entropic(p, q: float) -> float:
    """SCG left-hand side as sum_k [S_q(B|A) + (1-q) C(A, B)] of an (S, 2, 2) table stack.

    Algebraically identical to criterion_values; kept as an independent route.
    """
    q = _check_q_range(q)
    p = np.asarray(p, dtype=float)
    if p.ndim != 3 or p.shape[1:] != (2, 2):
        raise ValueError(f"expected an (S, 2, 2) stack of joint tables, got shape {p.shape}")
    tables = _checked_cells(p)
    if qentropy.is_shannon(q):
        return float(sum(qentropy.conditional_tsallis(table, 1.0) for table in tables))
    total = 0.0
    for table in tables:
        total += qentropy.conditional_tsallis(table, q)
        total += (1.0 - q) * qentropy.correction_term(table, q)
    return total


def mub_bound(d: int, m: int, q: float) -> float:
    """m * ln_q(m d / (d + m - 1)) for m mutually unbiased bases in dimension d."""
    q = _check_q_range(q)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if not 1 <= m <= d + 1:
        raise ValueError(f"number of bases must lie in [1, d+1], got {m}")
    return m * qentropy.ln_q(m * d / (d + m - 1), q)


def shannon_bound(d: int) -> float:
    """Shannon-limit bound for a complete set of MUBs; parity-dependent in d."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d % 2 == 1:
        return (d + 1) * math.log((d + 1) / 2.0)
    return (d / 2.0) * math.log(d / 2.0) + (d / 2.0 + 1.0) * math.log(d / 2.0 + 1.0)


def scg_bound(q: float) -> float:
    """SCG bound for qubits measured in three MUBs: the MUB bound, or the parity bound at q = 1."""
    q = _check_q_range(q)
    if qentropy.is_shannon(q):
        return shannon_bound(2)
    return mub_bound(2, 3, q)


class Criterion(NamedTuple):
    """One reported criterion: its name, entropic index, report key and bound."""

    name: str            # SCG or LSC
    q: Optional[float]   # entropic index (None for LSC)
    key: str             # key of its value in criterion_values and in the report bounds
    bound: float


def criteria_of(qs: Sequence[float]) -> tuple[Criterion, ...]:
    """The reported criteria in report order: SCG at each checked q, then LSC."""
    return (*(Criterion(SCG, q, scg_key(q), scg_bound(q)) for q in check_qs(qs)),
            Criterion(LSC, None, "lsc", LSC_BOUND))


def criterion_values(p: np.ndarray, qs: Sequence[float]) -> dict[str, np.ndarray]:
    """SCG at each q and LSC for a (..., 3, 2, 2) tensor of checked joint tables.

    SCG is (1/(q-1)) sum_k [1 - sum_ij p_ij^q / p_i^(q-1)], the summed Shannon
    conditional entropies at q = 1; LSC is the norm of the same-axis correlations.

    Returns arrays of shape (...) keyed scg_key(q) for each q and "lsc".  Powers and
    logs are elementwise and each sum over cells, outcomes or settings is a chain of
    slice adds in np.sum's order, so a stack gets the same bits in any batch.
    """
    marginal = p[..., 0] + p[..., 1]
    values = {scg_key(q): scg_lhs_cells(p, marginal, q) for q in check_qs(qs)}
    squares = correlations(p) ** 2
    values["lsc"] = np.sqrt((squares[..., 0] + squares[..., 1]) + squares[..., 2])
    return values


@dataclass(frozen=True)
class CriterionReport:
    """One criterion evaluation: value, bound, verdict, optional error bar."""

    criterion: str           # SCG or LSC
    q: Optional[float]       # entropic index (None for LSC)
    lhs: float
    bound: float
    steerable: bool
    error_bar: Optional[float] = None


def verdict(criterion: str, lhs: float, bound: float, q: Optional[float] = None,
            error_bar: Optional[float] = None) -> CriterionReport:
    """Strict-violation verdict; a value exactly at the bound is not steerable."""
    if not (math.isfinite(lhs) and math.isfinite(bound)):
        raise ValueError("verdict requires finite lhs and bound")
    if criterion not in _VIOLATION_SIGN:
        raise ValueError(f"unknown criterion {criterion!r}")
    steerable = (lhs - bound) * _VIOLATION_SIGN[criterion] > 0.0
    return CriterionReport(criterion, q, lhs, bound, steerable, error_bar)


def analytic_tensor(theta: float, chis) -> np.ndarray:
    """(len(chis), 3, 2, 2) joint tables of the Werner-like states over a chi vector.

    joint_tensor(make_werner_like(theta, chi).matrix) in closed form and in its einsum's
    one-state order, tr(rho Pi) = sum_a (sum_b rho_ab Pi_ba), so any batch has those bits.
    """
    # rho: diagonal (d0, m, m, d3), o at (0, 3) and (3, 0); x and y projector entries +-1/4
    c, s, chis = werner_like_parameters(theta, chis)
    m = (1.0 - chis) / 4.0
    d0, d3, o = chis * (c * c) + m, chis * (s * s) + m, chis * (c * s)
    q0, q3, qm, qo = 0.25 * d0, 0.25 * d3, 0.25 * m, 0.25 * o
    same = ((q0 + qo + qm) + qm) + (qo + q3)  # x00, x11, y01, y10
    differ = ((q0 - qo + qm) + qm) + (q3 - qo)  # x01, x10, y00, y11
    cells = np.array([same, differ, differ, same, differ, same, same, differ, d0, m, m, d3])
    return _checked_cells(cells.T.reshape(-1, 3, 2, 2))


class ChiThreshold(NamedTuple):
    chi: float
    crossed: bool  # False when the criterion is never violated on [0, 1]


def chi_threshold(theta: float, criterion: str = SCG, q: Optional[float] = 2.0,
                  tol: float = 1e-6) -> ChiThreshold:
    """Smallest mixing weight chi at which the criterion is violated.

    Samples the analytic profile at 21 points to verify strict monotonicity,
    then bisects lhs(chi) = bound on [0, 1] to width tol in (0, 1), reading each
    midpoint's value from the chis already evaluated.  On a miss one kernel call
    evaluates the midpoint and bisection's midpoints toward an interpolated root
    (any batch gives a point the same bits), so the result is bisection's bit for
    bit and the default tol takes 2 calls.  No violation on [0, 1] gives (1.0, False).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if criterion not in _VIOLATION_SIGN:
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == SCG and q is None:
        raise ValueError("SCG threshold requires an entropic index q")
    qs = (q,) if criterion == SCG else ()
    row = criteria_of(qs)[0]  # the SCG row when q is given, else LSC
    label = criterion if row.q is None else f"{criterion}(q={row.q:g})"

    def f(chis) -> np.ndarray:  # above 0 where the criterion is violated
        values = criterion_values(analytic_tensor(theta, chis), qs)[row.key]
        return (values - row.bound) * _VIOLATION_SIGN[criterion]

    values = f(_FIRST_BATCH)
    samples = values[:MONOTONE_SAMPLES]
    diffs = np.diff(samples)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise SolverError(
            f"{label}: profile over chi is not strictly monotone; "
            "bisection preconditions do not hold"
        )

    if samples[0] > 0.0:
        return ChiThreshold(0.0, True)
    if not samples[-1] > 0.0:
        return ChiThreshold(1.0, False)

    known = dict(zip(_FIRST_BATCH.tolist(), values.tolist()))  # chi -> f(chi)

    def look_ahead(lo: float, hi: float, mid: float, iterations_left: int) -> list[float]:
        h = hi - lo
        xs = [x for x in (lo - h, lo, hi, hi + h) if x in known]  # lo and hi always are
        ys = [known[x] for x in xs]
        estimate = mid
        if len(set(ys)) == len(ys):  # inverse Lagrange at 0: cubic, lower next to chi = 0, 1
            guess = sum(x * math.prod(yj / (yj - yi) for yj in ys if yj != yi)
                        for x, yi in zip(xs, ys))
            if lo < guess < hi:
                estimate = guess
        depth, width = 0, h  # the halvings bisection still makes
        while width > tol and depth < iterations_left:
            depth, width = depth + 1, width / 2.0
        points = {mid}
        targets = [estimate + j * width for j in range(-2, 3)]
        for target in targets + [hi] * (hi == 1.0):  # no value past chi = 1 guides the estimate
            a, b = lo, hi
            for _ in range(depth):
                m = (a + b) / 2.0
                points.add(m)
                a, b = (a, m) if target < m else (m, b)
        return sorted(points)

    lo, hi = 0.0, 1.0  # f not violated at lo, violated at hi
    for i in range(BISECTION_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if mid not in known:
            points = look_ahead(lo, hi, mid, BISECTION_MAX_ITER - i)
            known.update(zip(points, f(np.array(points)).tolist()))
        if known[mid] > 0.0:
            hi = mid
        else:
            lo = mid
    return ChiThreshold((lo + hi) / 2.0, True)
