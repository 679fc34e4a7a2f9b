"""Two-qubit density matrices: construction, validation, fidelity.

Conventions: computational basis with H -> |0>, V -> |1>.  All operations are
pure and return immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import single_chi

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
_SQRT_CLAMP_RTOL = 1e-14  # eigenvalues this far below the largest are rounding noise: zeroed


@dataclass(frozen=True)
class DensityMatrix:
    """A two-qubit density matrix: Hermitian, unit-trace and PSD, checked on construction.

    DensityMatrix(m) checks, in this order, that m is 4x4, finite, Hermitian, of
    unit trace and positive semidefinite (to HERMITICITY_TOL, TRACE_TOL and
    PSD_TOL), raises ValueError at the first failure, and stores the read-only
    Hermitian part (m + m^H) / 2 and, for fidelity, the PSD check's
    eigendecomposition as the read-only _factor V sqrt(lambda).
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix contains non-finite entries")
        adjoint = arr.conj().T
        dev = float(np.max(np.abs(arr - adjoint)))
        if dev > HERMITICITY_TOL:
            raise ValueError(
                f"not Hermitian: max |M - M^H| = {dev:.3e} exceeds {HERMITICITY_TOL:.0e}"
            )
        trace_dev = float(abs(np.trace(arr) - 1.0))
        if trace_dev > TRACE_TOL:
            raise ValueError(
                f"trace differs from 1 by {trace_dev:.3e} (tolerance {TRACE_TOL:.0e})"
            )
        herm = (arr + adjoint) / 2.0
        eigenvalues, vectors = np.linalg.eigh(herm)
        if eigenvalues[0] < -PSD_TOL:
            raise ValueError(
                f"not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e} "
                f"below -{PSD_TOL:.0e}"
            )
        # eigh sorts ascending and the unit trace makes the last eigenvalue positive
        clamped = np.where(eigenvalues < _SQRT_CLAMP_RTOL * eigenvalues[-1], 0.0, eigenvalues)
        for name, value in (("matrix", herm), ("_factor", vectors * np.sqrt(clamped))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def validate_density(m) -> DensityMatrix:
    """DensityMatrix(m): every check runs there, and the first failing one is reported."""
    return DensityMatrix(m)


def make_werner_like(theta: float, chi: float) -> DensityMatrix:
    """One validated Werner-like state; see criteria.werner_like_parameters."""
    c, s, chi = single_chi(theta, chi, "make_werner_like")
    m = (1.0 - chi) / 4.0
    rho = np.zeros(16, dtype=complex)  # row-major 4x4: the diagonal is every fifth entry
    rho[::5] = chi * (c * c) + m, m, m, chi * (s * s) + m
    rho[3] = rho[12] = chi * (c * s)
    return validate_density(rho.reshape(4, 4))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1].

    Evaluated as the squared trace norm (sum of singular values) of
    sqrt(rho) sqrt(sigma), which avoids the sqrt-of-near-zero-eigenvalue
    noise of the direct formula.  Each checked state keeps the factor
    L = V sqrt(lambda) of its PSD check, with L L^H = V lambda V^H, and
    sqrt(rho) sqrt(sigma) = V_rho (L_rho^H L_sigma) V_sigma^H has the
    singular values of L_rho^H L_sigma, so nothing is decomposed again.
    """
    b = rho._factor.conj().T @ sigma._factor
    value = float(np.sum(np.linalg.svd(b, compute_uv=False))) ** 2
    return min(max(value, 0.0), 1.0)
