"""Two-qubit density matrices: construction, validation, fidelity.

Conventions: computational basis with H -> |0>, V -> |1>; Pauli matrices in the
standard representation (sigma_y has entries -i, +i).  All operations are pure
and return immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


class MatrixValidationError(ValueError):
    """A matrix failed a structural requirement (shape, Hermiticity, trace, PSD)."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise MatrixValidationError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise MatrixValidationError("matrix must be non-empty")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise MatrixValidationError("matrix contains non-finite entries")
    return arr


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 of a square (..., n, n) stack, after checking M = M^H."""
    rows, cols = arr.shape[-2:]
    if rows != cols:
        raise MatrixValidationError(f"expected a square matrix, got {rows}x{cols}")
    adjoint = arr.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(arr - adjoint)))
    if dev > HERMITICITY_TOL:
        raise MatrixValidationError(
            f"not Hermitian: max |M - M^H| = {dev:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    return (arr + adjoint) / 2.0


def hermitian_eigendecompose(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    eigenvalues, vectors = np.linalg.eigh(_hermitian_part(as_complex_matrix(m)))
    return eigenvalues, vectors


@dataclass(frozen=True)
class DensityMatrix:
    """A validated Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_density(m) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity; report the failing check."""
    arr = as_complex_matrix(m)
    herm = _hermitian_part(arr)
    trace_dev = float(abs(np.trace(arr) - 1.0))
    if trace_dev > TRACE_TOL:
        raise MatrixValidationError(
            f"trace differs from 1 by {trace_dev:.3e} (tolerance {TRACE_TOL:.0e})"
        )
    lambda_min = float(np.linalg.eigvalsh(herm)[0])
    if lambda_min < -PSD_TOL:
        raise MatrixValidationError(
            f"not positive semidefinite: min eigenvalue {lambda_min:.3e} "
            f"below -{PSD_TOL:.0e}"
        )
    return DensityMatrix(_freeze(herm))


def maximally_mixed(dim: int = 4) -> DensityMatrix:
    return DensityMatrix(_freeze(np.eye(dim, dtype=complex) / dim))


def werner_like_parameters(theta: float, chis) -> tuple[float, float, np.ndarray]:
    """cos(2 theta), sin(2 theta) and the flat chi vector of checked Werner-like states.

    chi * |phi><phi| + (1-chi) * I/4 with |phi> = cos(2 theta)|00> + sin(2 theta)|11>,
    theta in [0, pi/4] (pi/8 is maximally entangled), every chi in [0, 1].
    """
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta={theta!r} ({math.degrees(theta):.12g} deg) "
                         "outside [0, pi/4] ([0, 45] deg)")
    chis = np.asarray(chis, dtype=float).reshape(-1)
    outside = ~((chis >= 0.0) & (chis <= 1.0))
    if outside.any():
        raise ValueError(f"chi={float(chis[outside][0])!r} outside [0, 1]")
    return math.cos(2.0 * theta), math.sin(2.0 * theta), chis


def make_werner_like(theta: float, chi: float) -> DensityMatrix:
    """One validated Werner-like state; see werner_like_parameters."""
    c, s, chis = werner_like_parameters(theta, chi)
    if chis.size != 1:
        raise ValueError(f"make_werner_like takes one chi, got {chis.size}")
    phi = np.array([c, 0.0, 0.0, s], dtype=complex)
    rho = chis[0] * np.outer(phi, phi.conj()) + (1.0 - chis[0]) * np.eye(4) / 4.0
    return validate_density(rho)


def bell_phi_plus() -> DensityMatrix:
    """The projector onto (|00> + |11>)/sqrt(2)."""
    return make_werner_like(math.pi / 8, 1.0)


# eigenvalues this far (relatively) below the largest are rounding noise and
# must not survive the sqrt, which would amplify them to ~1e-9
_SQRT_CLAMP_RTOL = 1e-14


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    eigenvalues, vectors = hermitian_eigendecompose(m)
    clamped = np.clip(eigenvalues, 0.0, None)
    clamped[clamped < _SQRT_CLAMP_RTOL * clamped.max()] = 0.0
    return (vectors * np.sqrt(clamped)) @ vectors.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1].

    Evaluated as the squared trace norm (sum of singular values) of
    sqrt(rho) sqrt(sigma), which avoids the sqrt-of-near-zero-eigenvalue
    noise of the direct formula.
    """
    if rho.dim != sigma.dim:
        raise MatrixValidationError(
            f"dimension mismatch: {rho.dim} vs {sigma.dim}"
        )
    b = _psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)
    value = float(np.sum(np.linalg.svd(b, compute_uv=False))) ** 2
    return min(max(value, 0.0), 1.0)
