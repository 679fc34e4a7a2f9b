"""Pauli measurement statistics on two-qubit states.

Joint outcome distributions for the X, Y, Z mutually unbiased settings,
same-axis correlations, and relative frequencies of count tables.

Reproducibility: every stochastic routine draws from a PCG64 generator keyed
by ``SeedSequence((seed, stream))``.  Distinct stream indices under one master
seed give statistically independent, scheduling-independent draws; the same
(seed, stream) pair always reproduces the same counts.
"""

from __future__ import annotations

import numpy as np

from .qmat import I2, PAULIS

PROBABILITY_TOL = 1e-10
_SMALLEST_NORMAL = np.finfo(float).tiny
AXES = ("x", "y", "z")  # the Pauli settings, in the order of the tensor axis k


def spawn_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, stream) pair."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def _checked_cells(p: np.ndarray) -> np.ndarray:
    """Checked copy of a (..., 2, 2) stack of joint tables, negative cells zeroed.

    No cell may lie below -PROBABILITY_TOL and every table must sum to 1
    within PROBABILITY_TOL; the error names an offending value.  Cells
    below the smallest normal float are set to zero: no criterion can tell
    them from zero, and their negative powers overflow.
    """
    if np.any(p < -PROBABILITY_TOL):
        raise ValueError(f"negative cell probability: {p.min()}")
    p = np.where(p < _SMALLEST_NORMAL, 0.0, p)
    totals = p.sum(axis=(-1, -2))
    off = np.abs(totals - 1.0) > PROBABILITY_TOL
    if np.any(off):
        raise ValueError(f"cell probabilities sum to {float(totals[off][0])}, not 1")
    return p


# _PROJECTORS[k, i, j] = Pi_i x Pi_j for axis k, outcome i (Alice), j (Bob), with
# rank-1 eigenprojectors Pi_0 = (I + sigma_k)/2 (eigenvalue +1), Pi_1 = (I - sigma_k)/2
_PROJECTORS = np.array([[[np.kron(pa, pb) for pb in pair] for pa in pair]
                        for pair in (((I2 + s) / 2.0, (I2 - s) / 2.0) for s in PAULIS)])


def joint_tensor(matrices) -> np.ndarray:
    """Checked (..., 3, 2, 2) joint tables p[k, i, j] = tr(rho Pi_i x Pi_j) of a state stack."""
    if np.shape(matrices)[-2:] != (4, 4):
        raise ValueError(f"joint tables need two-qubit states, got shape {np.shape(matrices)}")
    cells = np.einsum("...ab,kijba->...kij", matrices, _PROJECTORS).real
    return _checked_cells(cells)


def correlations(p: np.ndarray) -> np.ndarray:
    """Same-axis correlations p00 - p01 - p10 + p11 of a (..., 2, 2) table stack."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def frequencies(counts: np.ndarray) -> np.ndarray:
    """Relative frequencies n_ij / total of a (..., 2, 2) stack of count tables.

    Every table must have a positive total; a validated ExperimentRecord
    guarantees it, so the result is not checked again.
    """
    counts = np.asarray(counts, dtype=float)
    return counts / np.einsum("...ij->...", counts)[..., np.newaxis, np.newaxis]
