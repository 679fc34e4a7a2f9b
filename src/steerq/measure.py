"""Pauli measurement statistics on two-qubit states.

The X, Y, Z mutually unbiased settings, same-axis correlations and per-table
totals.

Reproducibility: every stochastic routine draws from a PCG64 generator keyed
by ``SeedSequence((seed, stream))``.  Distinct stream indices under one master
seed give statistically independent, scheduling-independent draws; the same
(seed, stream) pair always reproduces the same counts.
"""

from __future__ import annotations

import numpy as np

AXES = ("x", "y", "z")  # the Pauli settings, in the order of the tensor axis k


def spawn_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, stream) pair of non-negative integers."""
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (seed, stream)):
        raise ValueError("seed and stream index must be non-negative integers, "
                         f"got seed {seed!r} and stream {stream!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def correlations(p: np.ndarray) -> np.ndarray:
    """Same-axis correlations p00 - p01 - p10 + p11 of a (..., 2, 2) table stack."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def table_totals(t: np.ndarray) -> np.ndarray:
    """Per-table sums ((t00 + t01) + t10) + t11 of a (..., 2, 2) stack, in np.sum's order, as
    slice adds: np.sum(axis=(-2, -1)) takes 64 vs 10 us on C-ordered (1001, 3, 2, 2), 11 vs 4
    us on 129 (timeit, one core of a shared Xeon)."""
    return ((t[..., 0, 0] + t[..., 0, 1]) + t[..., 1, 0]) + t[..., 1, 1]

