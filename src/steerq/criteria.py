"""Steering criteria and bounds.

Two detectors are provided:

* SCG — the steering criterion from the generalized (Tsallis) entropic
  uncertainty relation.  A state is flagged steerable when the left-hand
  side falls strictly below the bound.
* LSC — the linear steering criterion sqrt(sum_i c_i^2) <= 1 over the three
  same-axis correlations; violation (strictly above 1) flags steering.

``criterion_values`` evaluates both on a (..., 3, 2, 2) tensor of joint tables (any other
shape is an error), so one state, a chi grid or a block of bootstrap resamples all go through
``_criterion_lhs``, where each formula is written once.  ``criteria_of`` is the one check of
the entropic indices, at most MAX_QS of them, and takes its bounds from ``scg_bound``;
``rows_values`` runs the kernel over rows it returned, so their holder checks nothing again.

The entropic index is accepted on (0, 2], the range where the mutually
unbiased bound applies; q = 1 is routed to the Shannon forms, where the
parity bound 2 ln 2 replaces the generic 3 ln(3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import qentropy
from .measure import correlations, table_totals

Q_MAX = 2.0
MAX_QS = 16  # bootstrap memory grows with the number of criteria

SCG = "SCG"
LSC = "LSC"

LSC_BOUND = 1.0
_SMALLEST_NORMAL = np.finfo(float).tiny
_VIOLATION_SIGN = {SCG: -1.0, LSC: 1.0}  # sign of lhs - bound when the criterion is violated

BISECTION_MAX_ITER = 200
MULTISECTION_BITS = 7
# chi_threshold's first kernel call: the k / 2**MULTISECTION_BITS grid, ends included, serves
# the monotonicity check and bisection's first MULTISECTION_BITS halvings
_FIRST_BATCH = np.arange(2 ** MULTISECTION_BITS + 1) / 2 ** MULTISECTION_BITS
_FIRST_CHIS = _FIRST_BATCH.tolist()


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


def scg_bound(q: float) -> float:
    """SCG bound for qubits in three MUBs: 3 ln_q(3/2), or the parity bound 2 ln 2 at q = 1."""
    q = _check_q_range(q)
    return (2.0 * math.log(2.0) if qentropy.is_shannon(q)
            else 3 * ((1.5 ** (1.0 - q) - 1.0) / (1.0 - q)))  # ln_q(x) = (x^(1-q) - 1)/(1 - q)


class Criterion(NamedTuple):
    """One reported criterion: its name, entropic index, report key and bound."""

    name: str            # SCG or LSC
    q: Optional[float]   # entropic index (None for LSC)
    key: str             # key of its value in criterion_values and in the report bounds
    bound: float


def criteria_of(qs: Sequence[float]) -> tuple[Criterion, ...]:
    """The reported criteria in report order: SCG at each q, then LSC.

    Checks in turn: a flat sequence, at most MAX_QS indices, each in (0, Q_MAX], distinct keys."""
    if np.ndim(qs) != 1:
        raise ValueError(f"entropic indices must be a flat sequence of numbers, got {qs!r}")
    if len(qs) > MAX_QS:
        raise ValueError(f"at most {MAX_QS} entropic indices are accepted, got {len(qs)}")
    checked = [_check_q_range(q) for q in qs]
    keys = [scg_key(q) for q in checked]
    if len(set(keys)) != len(keys):
        raise ValueError(f"entropic indices {', '.join(f'{q!r}' for q in checked)} "
                         f"collide in the report keys {keys}")
    return (*(Criterion(SCG, q, key, scg_bound(q)) for q, key in zip(checked, keys)),
            Criterion(LSC, None, "lsc", LSC_BOUND))


def criterion_values(p: np.ndarray, qs: Sequence[float]) -> dict[str, np.ndarray]:
    """SCG at each q and LSC for a (..., 3, 2, 2) tensor of checked joint tables.

    Returns arrays of shape (...) keyed as the criteria_of(qs) rows: scg_key(q), then "lsc"."""
    if np.shape(p)[-3:] != (3, 2, 2):
        raise ValueError(f"joint tables must have shape (..., 3, 2, 2), got {np.shape(p)}")
    return rows_values(p, criteria_of(qs))


def rows_values(p: np.ndarray, rows: Sequence[Criterion]) -> dict[str, np.ndarray]:
    """criterion_values of (..., 3, 2, 2) tables over criteria_of rows, checking nothing again."""
    marginals = _alice_marginal(p)  # once for every SCG row
    return {c.key: _criterion_lhs(p, c.q, marginals) for c in rows}


def _alice_marginal(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    marginal = p[..., 0] + p[..., 1]  # p_i0 + p_i1, and its zero-safe form (1.0 where 0)
    return marginal, np.where(marginal > 0.0, marginal, 1.0)


def _criterion_lhs(p: np.ndarray, q: Optional[float],
                   marginals: Optional[tuple] = None) -> np.ndarray:
    """One criterion on (..., 3, 2, 2) tables: SCG at a checked q, or LSC when q is None.

    SCG is (1/(q-1)) sum_k [1 - sum_ij p_ij^q / p_i^(q-1)] with Alice's marginal p_i, the
    summed Shannon conditional entropies at q = 1; LSC is the norm of the same-axis
    correlations.  Powers and logs are elementwise and each sum over cells, outcomes or
    settings is a chain of slice adds in np.sum's order, so a stack gets the same bits in any
    batch and any layout with positive strides (numpy's AVX-512 power loop takes only those);
    analytic and bootstrap tables give each cell slice as one contiguous block.  Cells must be
    +-0.0 or at least the smallest normal float, as analytic_tensor and count frequencies give:
    then 0^q times the finite m^(1-q) is +0.0, and a zero cell's p ln max(p, tiny) is a signed
    zero, which moves no setting total.  marginals is _alice_marginal(p) when the caller has it.
    """
    if q is None:
        squares = correlations(p) ** 2
        return np.sqrt((squares[..., 0] + squares[..., 1]) + squares[..., 2])
    marginal, safe_m = marginals or _alice_marginal(p)
    if qentropy.is_shannon(q):  # H(A, B) - H(A) = sum m ln m - sum p ln p per setting
        marginal_h = marginal * np.log(safe_m)
        p_ln_p = np.maximum(p, _SMALLEST_NORMAL)  # a zero cell gives 0 ln(tiny) = -0.0
        np.log(p_ln_p, out=p_ln_p)
        p_ln_p *= p
        v = (marginal_h[..., 0] + marginal_h[..., 1]) - table_totals(p_ln_p)
    else:
        terms = p ** q
        terms *= safe_m[..., np.newaxis] ** (1.0 - q)
        v = (1.0 - table_totals(terms)) / (q - 1.0)
    # the +0.0 start is np.sum's: +0.0 when every setting gives -0.0 (deterministic, q < 1)
    return ((0.0 + v[..., 0]) + v[..., 1]) + v[..., 2]


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


def werner_like_parameters(theta: float, chis) -> tuple[float, float, np.ndarray]:
    """cos(2 theta), sin(2 theta) and the flat chi vector of checked Werner-like states.

    chi * |phi><phi| + (1-chi) * I/4 with |phi> = cos(2 theta)|00> + sin(2 theta)|11>,
    theta in [0, pi/4] (pi/8 is maximally entangled), every chi in [0, 1].
    """
    c, s = _werner_angle(theta)
    chis = np.asarray(chis, dtype=float).reshape(-1)
    outside = ~((chis >= 0.0) & (chis <= 1.0))
    if outside.any():
        raise ValueError(f"chi={float(chis[outside][0])!r} outside [0, 1]")
    return c, s, chis


def _werner_angle(theta: float) -> tuple[float, float]:  # the one theta check; cos, sin of 2 theta
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta={theta!r} ({math.degrees(theta):.12g} deg) "
                         "outside [0, pi/4] ([0, 45] deg)")
    return math.cos(2.0 * theta), math.sin(2.0 * theta)


def single_chi(theta: float, chi: float, caller: str) -> tuple[float, float, float]:
    """werner_like_parameters of one state: cos(2 theta), sin(2 theta) and chi as a float."""
    c, s, chis = werner_like_parameters(theta, chi)
    if chis.size != 1:
        raise ValueError(f"{caller} takes one chi, got {chis.size}")
    return c, s, float(chis[0])


def analytic_tensor(theta: float, chis) -> np.ndarray:
    """(len(chis), 3, 2, 2) joint tables of the Werner-like states over a chi vector.

    The cells tr(rho Pi_i x Pi_j) of make_werner_like(theta, chi) in closed form, summed in a
    one-state einsum's order, tr(rho Pi) = sum_a (sum_b rho_ab Pi_ba), so any batch has those bits.
    The tensor is in Fortran order, each cell p[..., i, j] one contiguous block, as the bootstrap's
    cells are: np.sum(axis=...) adds it in that order, and may round otherwise than on a C-ordered
    copy; the kernel's slice adds do not.
    """
    return _werner_tensor(*werner_like_parameters(theta, chis))


def _werner_tensor(c: float, s: float, chis) -> np.ndarray:
    """analytic_tensor, Fortran-ordered, from checked chis and cos(2 theta), sin(2 theta), one
    or one per chi.  Cells below the smallest normal float, -0.0 and subnormals among them, are
    set to +0.0: no criterion can tell them from zero, and their negative powers overflow.
    """
    # rho: diagonal (d0, m, m, d3), o at (0, 3) and (3, 0); x and y projector entries +-1/4
    m = (1.0 - chis) / 4.0
    d0, d3, o = chis * (c * c) + m, chis * (s * s) + m, chis * (c * s)
    q0, q3, qm, qo = 0.25 * d0, 0.25 * d3, 0.25 * m, 0.25 * o
    same = ((q0 + qo + qm) + qm) + (qo + q3)  # x00, x11, y01, y10
    differ = ((q0 - qo + qm) + qm) + (q3 - qo)  # x01, x10, y00, y11
    cells = np.array([same, differ, d0, differ, same, m, differ, same, m, same, differ, d3])
    cells[cells < _SMALLEST_NORMAL] = 0.0  # rows in [j][i][setting] order, as the .T reads them
    return cells.reshape(2, 2, 3, -1).T


class ChiThreshold(NamedTuple):
    chi: float
    crossed: bool  # False when the criterion is never violated on [0, 1]


def chi_threshold(theta: float, criterion: str = SCG, q: Optional[float] = 2.0,
                  tol: float = 1e-6) -> ChiThreshold:
    """Smallest mixing weight chi at which the criterion is violated.

    Checks its arguments once; each kernel call writes its chis' tables from cos(2 theta),
    sin(2 theta) and evaluates only the solved criterion.  The first call, on the 129 points
    k/128, checks strict monotonicity.  Its values start below 0, as chi = 0 is I/4, which no
    criterion violates (SCG's 3 ln_q 2 and LSC's 0 miss their bounds by at least 0.5); where
    they end above 0, bisection's first 7 halvings are read by index, down to the first level
    at most tol wide.  Bisection goes on from there: each miss walks its halvings toward a
    root interpolated from known neighbours (the four grid points around the bracket or later
    values, and chi = 1 while that is the upper end) and evaluates their midpoints in one call
    (any batch gives a point the same bits), so the result is bisection's bit for bit; tol
    1e-6 takes calls of 129 and 13 points.  No violation gives (1.0, False)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if criterion not in _VIOLATION_SIGN:
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == SCG and q is None:
        raise ValueError("SCG threshold requires an entropic index q")
    q, bound = (None, LSC_BOUND) if criterion == LSC else (float(q), scg_bound(q))
    c, s = _werner_angle(theta)  # the first batch is a constant grid in [0, 1]

    def f(chis) -> np.ndarray:  # above 0 where violated
        return (_criterion_lhs(_werner_tensor(c, s, chis), q) - bound) * _VIOLATION_SIGN[criterion]

    values = f(_FIRST_BATCH)
    diffs = values[1:] - values[:-1]
    if not ((diffs > 0.0).all() or (diffs < 0.0).all()):
        label = criterion if q is None else f"{criterion}(q={q:g})"
        raise SolverError(f"{label}: profile over chi is not strictly monotone; "
                          "bisection preconditions do not hold")

    if not values[-1] > 0.0:
        return ChiThreshold(1.0, False)

    j = int(np.searchsorted(values, 0.0, side="right"))  # values rise: j/128 first has f > 0
    depth = min(MULTISECTION_BITS, 1 - math.frexp(tol)[1])  # bisection stops at 2**-depth <= tol
    lo = ((j - 1) >> (MULTISECTION_BITS - depth)) / 2 ** depth  # its bracket there holds
    hi = lo + 0.5 ** depth                                       # (j - 1)/128 and j/128
    # the only grid points a look-ahead reads: the depth-7 bracket and its outer neighbours
    known = dict(zip(_FIRST_CHIS[max(j - 2, 0):j + 2], values[max(j - 2, 0):j + 2].tolist()))

    def look_ahead(lo: float, hi: float, iterations_left: int) -> list[float]:
        h = hi - lo
        xs = [x for x in (lo - h, lo, hi, hi + h) if x in known]  # lo and hi always are
        ys = [known[x] for x in xs]
        estimate = (lo + hi) / 2.0
        if len(set(ys)) == len(ys):  # inverse Lagrange at 0: cubic, lower next to chi = 0, 1
            guess = 0.0  # summed and multiplied in sum's and math.prod's order
            for x, yi in zip(xs, ys):
                weight = 1.0
                for yj in ys:
                    weight *= yj / (yj - yi) if yj != yi else 1.0
                guess += x * weight
            if lo < guess < hi:
                estimate = guess
        points = set()  # the first halving of each path adds the midpoint
        for target in [estimate] + [hi] * (hi == 1.0):  # no value past chi = 1 guides the estimate
            a, b = lo, hi
            for _ in range(iterations_left):  # the main loop's halvings and stopping rule
                if b - a <= tol:
                    break
                m = (a + b) / 2.0
                points.add(m)
                a, b = (a, m) if target < m else (m, b)
        return sorted(points)

    for i in range(depth, BISECTION_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if mid not in known:
            points = look_ahead(lo, hi, BISECTION_MAX_ITER - i)
            known.update(zip(points, f(np.array(points)).tolist()))
        if known[mid] > 0.0:
            hi = mid
        else:
            lo = mid
    return ChiThreshold((lo + hi) / 2.0, True)
