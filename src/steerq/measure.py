"""Pauli measurement statistics on two-qubit states.

The joint-table check for the X, Y, Z mutually unbiased settings, same-axis
correlations, and relative frequencies of count tables.

Reproducibility: every stochastic routine draws from a PCG64 generator keyed
by ``SeedSequence((seed, stream))``.  Distinct stream indices under one master
seed give statistically independent, scheduling-independent draws; the same
(seed, stream) pair always reproduces the same counts.
"""

from __future__ import annotations

import numpy as np

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

    No cell may be NaN or lie below -PROBABILITY_TOL and every table must sum
    to 1 within PROBABILITY_TOL; the error names an offending value.  Cells
    below the smallest normal float are set to zero: no criterion can tell
    them from zero, and their negative powers overflow.
    """
    if not (p >= -PROBABILITY_TOL).all():  # also False for NaN
        raise ValueError(f"{'negative' if p.min() < 0 else 'NaN'} cell probability: {p.min()}")
    p = np.where(p < _SMALLEST_NORMAL, 0.0, p)
    totals = table_totals(p)
    within = np.abs(totals - 1.0) <= PROBABILITY_TOL
    if not within.all():
        raise ValueError(f"cell probabilities sum to {float(totals[~within][0])}, not 1")
    return p


def correlations(p: np.ndarray) -> np.ndarray:
    """Same-axis correlations p00 - p01 - p10 + p11 of a (..., 2, 2) table stack."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def table_totals(t: np.ndarray) -> np.ndarray:
    """Per-table sums ((t00 + t01) + t10) + t11 of a (..., 2, 2) stack, in np.sum's order."""
    return ((t[..., 0, 0] + t[..., 0, 1]) + t[..., 1, 0]) + t[..., 1, 1]


def frequencies(counts: np.ndarray) -> np.ndarray:
    """Relative frequencies n_ij / total of a (..., 2, 2) stack of count tables.

    Every table must have a positive total; a validated ExperimentRecord
    guarantees it, so the result is not checked again.
    """
    counts = np.asarray(counts)
    return counts / table_totals(counts)[..., np.newaxis, np.newaxis]
