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
from .measure import _checked_cells, correlations, joint_tensor
from .qmat import werner_like_matrices

Q_MAX = 2.0

SCG = "SCG"
LSC = "LSC"

LSC_BOUND = 1.0

MONOTONE_SAMPLES = 21
BISECTION_MAX_ITER = 200


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
    if qentropy.is_shannon(q):
        safe_p = np.where(p > 0.0, p, 1.0)
        joint_h = -np.sum(p * np.log(safe_p), axis=(-1, -2))
        safe_m = np.where(marginal > 0.0, marginal, 1.0)
        marg_h = -np.sum(marginal * np.log(safe_m), axis=-1)
        return np.sum(joint_h - marg_h, axis=-1)
    safe_m = np.where(marginal > 0.0, marginal, 1.0)[..., :, np.newaxis]
    terms = np.where(p > 0.0, p ** q * safe_m ** (1.0 - q), 0.0)
    inner = np.sum(terms, axis=(-1, -2))
    return np.sum((1.0 - inner) / (q - 1.0), axis=-1)


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


def scg_bound(q: float, d: int = 2, m: int = 3) -> float:
    """Bound used for SCG verdicts: the MUB bound, or the parity bound at q = 1."""
    q = _check_q_range(q)
    if qentropy.is_shannon(q) and m == d + 1:
        return shannon_bound(d)
    return mub_bound(d, m, q)


def criterion_values(p: np.ndarray, qs: Sequence[float]) -> dict[str, np.ndarray]:
    """SCG at each q and LSC for a (..., 3, 2, 2) tensor of checked joint tables.

    SCG is (1/(q-1)) sum_k [1 - sum_ij p_ij^q / p_i^(q-1)], the summed Shannon
    conditional entropies at q = 1; LSC is the norm of the same-axis correlations.

    Returns arrays of shape (...) keyed scg_key(q) for each q and "lsc".
    """
    marginal = p.sum(axis=-1)
    values = {scg_key(q): scg_lhs_cells(p, marginal, q) for q in check_qs(qs)}
    values["lsc"] = np.linalg.norm(correlations(p), axis=-1)
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
    if criterion == SCG:
        steerable = lhs < bound
    elif criterion == LSC:
        steerable = lhs > bound
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return CriterionReport(criterion, q, lhs, bound, steerable, error_bar)


def analytic_tensor(theta: float, chis) -> np.ndarray:
    """(len(chis), 3, 2, 2) joint tables of the Werner-like states over a chi vector."""
    return joint_tensor(werner_like_matrices(theta, chis))


class ChiThreshold(NamedTuple):
    chi: float
    crossed: bool  # False when the criterion is never violated on [0, 1]


def chi_threshold(theta: float, criterion: str = SCG, q: Optional[float] = 2.0,
                  tol: float = 1e-6) -> ChiThreshold:
    """Smallest mixing weight chi at which the criterion is violated.

    Samples the analytic profile at 21 points in one batch to verify strict
    monotonicity, then bisects lhs(chi) = bound on [0, 1].  When no violation
    occurs on the interval the result is (1.0, crossed=False).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if criterion == SCG:
        if q is None:
            raise ValueError("SCG threshold requires an entropic index q")
        qs, key, bound = (q,), scg_key(q), scg_bound(q)
        violation_sign = -1  # violation side: lhs below bound
        label = f"{criterion}(q={q:g})"
    elif criterion == LSC:
        qs, key, bound = (), "lsc", LSC_BOUND
        violation_sign = +1  # violation side: lhs above bound
        label = criterion
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    def f(chis) -> np.ndarray:
        return criterion_values(analytic_tensor(theta, chis), qs)[key] - bound

    samples = f(np.linspace(0.0, 1.0, MONOTONE_SAMPLES))
    diffs = np.diff(samples)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise SolverError(
            f"{label}: profile over chi is not strictly monotone; "
            "bisection preconditions do not hold"
        )

    def violated(value: float) -> bool:
        return value * violation_sign > 0.0

    if violated(samples[0]):
        return ChiThreshold(0.0, True)
    if not violated(samples[-1]):
        return ChiThreshold(1.0, False)

    lo, hi = 0.0, 1.0  # f not violated at lo, violated at hi
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if violated(f(mid)[0]):
            hi = mid
        else:
            lo = mid
    return ChiThreshold((lo + hi) / 2.0, True)
