"""Shared generators for randomized tests."""

import numpy as np

from steerq import (DensityMatrix, criterion_values, joint_tensor, make_werner_like,
                    validate_density)
from steerq.criteria import (BISECTION_MAX_ITER, LSC_BOUND, MONOTONE_SAMPLES, SCG,
                             ChiThreshold, SolverError, analytic_tensor, scg_bound,
                             scg_key)
from steerq.measure import _checked_cells

# Bell basis: (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
_BELL_VECTORS = np.array([
    [1, 0, 0, 1],
    [1, 0, 0, -1],
    [0, 1, 1, 0],
    [0, 1, -1, 0],
], dtype=complex) / np.sqrt(2)
# same-axis correlation signature (c_xx, c_yy, c_zz) of each Bell projector
BELL_CORRELATIONS = np.array([
    [1, -1, 1],
    [-1, 1, 1],
    [1, 1, -1],
    [-1, -1, -1],
], dtype=float)


def random_density(rng: np.random.Generator, dim: int = 4) -> DensityMatrix:
    """Full-rank random state from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return validate_density(rho / np.trace(rho).real)


def random_bell_diagonal(rng: np.random.Generator):
    """Random mixture of the four Bell projectors; returns (state, weights).

    Bell-diagonal states have vanishing local Bloch vectors and a diagonal
    correlation matrix with diag = weights @ BELL_CORRELATIONS.
    """
    weights = rng.dirichlet(np.ones(4))
    rho = np.zeros((4, 4), dtype=complex)
    for w, vec in zip(weights, _BELL_VECTORS):
        rho += w * np.outer(vec, vec.conj())
    return validate_density(rho), weights


def werner_tables(theta: float, chi: float) -> np.ndarray:
    """(3, 2, 2) joint tables of one Werner-like state, through its density matrix.

    This per-state route is independent of the batched criteria.analytic_tensor.
    """
    return joint_tensor(make_werner_like(theta, chi).matrix)


def scg(p: np.ndarray, q: float) -> float:
    """SCG left-hand side at index q of one (3, 2, 2) table stack."""
    return float(criterion_values(p, (q,))[scg_key(q)])


def checked_table(cells) -> np.ndarray:
    """One (2, 2) joint table from four cells p00, p01, p10, p11, through the one check."""
    return _checked_cells(np.asarray(cells, dtype=float).reshape(2, 2))


def bisection_threshold(theta: float, criterion: str = SCG, q=2.0,
                        tol: float = 1e-6) -> ChiThreshold:
    """Plain bisection for the chi threshold: the reference criteria.chi_threshold must match.

    Same preconditions and early returns as chi_threshold; one scalar
    evaluation per halving.
    """
    if criterion == SCG:
        qs, key, bound, violation_sign = (q,), scg_key(q), scg_bound(q), -1
    else:
        qs, key, bound, violation_sign = (), "lsc", LSC_BOUND, +1

    def f(chis) -> np.ndarray:
        return criterion_values(analytic_tensor(theta, chis), qs)[key] - bound

    def violated(value: float) -> bool:
        return value * violation_sign > 0.0

    samples = f(np.linspace(0.0, 1.0, MONOTONE_SAMPLES))
    diffs = np.diff(samples)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise SolverError("profile over chi is not strictly monotone")
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
