"""Generalized (Tsallis) entropy functionals and their Shannon limits.

The deformed logarithm is ln_q(x) = (x^(1-q) - 1) / (1 - q); values of q
within 1e-9 of 1 are routed to the natural-log formulas to avoid the
catastrophic cancellation of the q -> 1 limit.  All sums use the continuous
extension 0^q * ln_q(0) := 0, so distributions with empty cells (pure-state
statistics) stay finite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DISTRIBUTION_TOL = 1e-10
Q_SHANNON_TOL = 1e-9


def is_shannon(q: float) -> bool:
    """True when q should be treated as the q -> 1 (Shannon) limit."""
    return abs(q - 1.0) < Q_SHANNON_TOL


def _check_q(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise ValueError(f"entropic index q must be positive, got {q!r}")
    return q


def _check_distribution(p: Sequence[float]) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("distribution must be a non-empty 1-D sequence")
    if np.any(arr < -DISTRIBUTION_TOL):
        raise ValueError(f"negative probability in distribution: {arr.min()}")
    total = float(arr.sum())
    if abs(total - 1.0) > DISTRIBUTION_TOL:
        raise ValueError(f"distribution sums to {total}, not 1")
    return np.clip(arr, 0.0, None)


def ln_q(x: float, q: float) -> float:
    """Deformed logarithm; reduces to ln(x) in the q -> 1 limit."""
    q = _check_q(q)
    if x <= 0.0:
        raise ValueError(f"ln_q requires a positive argument, got {x!r}")
    if is_shannon(q):
        return math.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum p ln p with the 0 ln 0 := 0 convention."""
    arr = _check_distribution(p)
    mask = arr > 0.0
    return float(-np.sum(arr[mask] * np.log(arr[mask])))


def tsallis_entropy(p: Sequence[float], q: float) -> float:
    """-sum p^q ln_q(p); Shannon entropy at q = 1."""
    q = _check_q(q)
    if is_shannon(q):
        return shannon_entropy(p)
    arr = _check_distribution(p)
    mask = arr > 0.0
    vals = arr[mask]
    return float(-np.sum(vals ** q * (vals ** (1.0 - q) - 1.0) / (1.0 - q)))


def conditional_tsallis(p: np.ndarray, q: float) -> float:
    """S_q(B|A) = S_q(A, B) - S_q(A) of one checked (2, 2) joint table p[i, j], i = Alice."""
    return tsallis_entropy(p.reshape(-1), q) - tsallis_entropy(p.sum(axis=1), q)


def correction_term(p: np.ndarray, q: float) -> float:
    """sum_i p_i^q [ln_q p_i]^2 - sum_ij p_ij^q ln_q(p_i) ln_q(p_ij) of a checked (2, 2) table.

    p_i is the marginal of the conditioning side (Alice); cells or marginals
    equal to zero contribute nothing.
    """
    q = _check_q(q)
    marginal = p.sum(axis=1)
    # empty entries are moved to 1, where ln_q and p^q ln_q(p) vanish
    safe_m = np.where(marginal > 0.0, marginal, 1.0)
    safe_p = np.where(p > 0.0, p, 1.0)
    lq_m = _ln_q_array(safe_m, q)
    first = np.sum(_pq_ln_q(safe_m, q) * lq_m)
    second = np.sum(_pq_ln_q(safe_p, q) * lq_m[:, np.newaxis])
    return float(first - second)


def _ln_q_array(x: np.ndarray, q: float) -> np.ndarray:
    return np.log(x) if is_shannon(q) else (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _pq_ln_q(x: np.ndarray, q: float) -> np.ndarray:
    """x^q ln_q(x), written as (x - x^q) / (1 - q) so that it stays finite
    where x^q underflows and ln_q(x) overflows."""
    return x ** q * np.log(x) if is_shannon(q) else (x - x ** q) / (1.0 - q)
