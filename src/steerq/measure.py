"""Pauli measurement statistics on two-qubit states.

Joint outcome distributions for the X, Y, Z mutually unbiased settings,
same-axis correlations, and relative frequencies of count tables.

Reproducibility: every stochastic routine draws from a PCG64 generator keyed
by ``SeedSequence((seed, stream))``.  Distinct stream indices under one master
seed give statistically independent, scheduling-independent draws; the same
(seed, stream) pair always reproduces the same counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix

PROBABILITY_TOL = 1e-10
_SMALLEST_NORMAL = np.finfo(float).tiny


class Axis(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"


AXES = (Axis.X, Axis.Y, Axis.Z)
_PAULI_BY_AXIS = {Axis.X: SIGMA_X, Axis.Y: SIGMA_Y, Axis.Z: SIGMA_Z}


def spawn_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, stream) pair."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def pauli_projectors(axis: Axis):
    """Rank-1 eigenprojectors (outcome 0 <-> eigenvalue +1, outcome 1 <-> -1)."""
    sigma = _PAULI_BY_AXIS[axis]
    return (I2 + sigma) / 2.0, (I2 - sigma) / 2.0


@dataclass(frozen=True)
class JointDistribution:
    """Outcome probabilities p[i, j] for one same-axis setting, i = Alice."""

    axis: Axis
    p: np.ndarray               # shape (2, 2)
    alice_marginal: np.ndarray  # shape (2,)

    @classmethod
    def from_cells(cls, axis: Axis, cells) -> "JointDistribution":
        p = _checked_cells(np.asarray(cells, dtype=float).reshape(2, 2))
        p.setflags(write=False)
        marginal = p.sum(axis=1)
        marginal.setflags(write=False)
        return cls(axis, p, marginal)


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


# _PROJECTORS[k, i, j] = Pi_i x Pi_j for axis k, outcome i (Alice), j (Bob)
_PROJECTORS = np.array([[[np.kron(pa, pb) for pb in pauli_projectors(axis)]
                         for pa in pauli_projectors(axis)] for axis in AXES])


def joint_tensor(matrices) -> np.ndarray:
    """Checked (..., 3, 2, 2) joint tables p[k, i, j] = tr(rho Pi_i x Pi_j) of a state stack."""
    cells = np.einsum("...ab,kijba->...kij", matrices, _PROJECTORS).real
    return _checked_cells(cells)


def joint_distribution(rho: DensityMatrix, axis: Axis) -> JointDistribution:
    """p_ij = tr(rho  Pi_i x Pi_j) for the given axis."""
    if rho.dim != 4:
        raise ValueError("joint_distribution requires a two-qubit state")
    return JointDistribution.from_cells(axis, joint_tensor(rho.matrix)[AXES.index(axis)])


def correlations(p: np.ndarray) -> np.ndarray:
    """Same-axis correlations p00 - p01 - p10 + p11 of a (..., 2, 2) table stack."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def correlation(jd: JointDistribution) -> float:
    """Same-axis correlation estimate of one joint table."""
    return float(correlations(jd.p))


def frequencies(counts: np.ndarray) -> np.ndarray:
    """Relative frequencies n_ij / total of a (..., 2, 2) stack of count tables.

    Every table must have a positive total; a validated ExperimentRecord
    guarantees it, so the result is not checked again.
    """
    counts = np.asarray(counts, dtype=float)
    return counts / np.einsum("...ij->...", counts)[..., np.newaxis, np.newaxis]
