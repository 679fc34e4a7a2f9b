"""Two-qubit density matrices: construction, validation, Bloch analysis, fidelity.

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
BLOCH_TOL = 1e-9


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


def _check_density(arr: np.ndarray) -> np.ndarray:
    """Hermitian part of a (..., n, n) stack of unit-trace PSD matrices.

    Each check reports the worst matrix of the stack; positivity takes one
    batched eigvalsh call.
    """
    herm = _hermitian_part(arr)
    trace_dev = float(np.max(np.abs(np.trace(arr, axis1=-2, axis2=-1) - 1.0)))
    if trace_dev > TRACE_TOL:
        raise MatrixValidationError(
            f"trace differs from 1 by {trace_dev:.3e} (tolerance {TRACE_TOL:.0e})"
        )
    lambda_min = float(np.min(np.linalg.eigvalsh(herm)))
    if lambda_min < -PSD_TOL:
        raise MatrixValidationError(
            f"not positive semidefinite: min eigenvalue {lambda_min:.3e} "
            f"below -{PSD_TOL:.0e}"
        )
    return herm


def validate_density(m) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity; report the failing check."""
    return DensityMatrix(_freeze(_check_density(as_complex_matrix(m))))


def maximally_mixed(dim: int = 4) -> DensityMatrix:
    return DensityMatrix(_freeze(np.eye(dim, dtype=complex) / dim))


def werner_like_matrices(theta: float, chis) -> np.ndarray:
    """Validated (len(chis), 4, 4) stack of Werner-like states at one theta.

    chi * |phi><phi| + (1-chi) * I/4 with |phi> = cos(2 theta)|00> + sin(2 theta)|11>,
    theta in [0, pi/4], every chi in [0, 1].
    """
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta={theta!r} outside [0, pi/4]")
    chis = np.asarray(chis, dtype=float).reshape(-1)
    outside = ~((chis >= 0.0) & (chis <= 1.0))
    if np.any(outside):
        raise ValueError(f"chi={float(chis[outside][0])!r} outside [0, 1]")
    phi = np.zeros(4, dtype=complex)
    phi[0] = math.cos(2.0 * theta)
    phi[3] = math.sin(2.0 * theta)
    weights = chis[:, np.newaxis, np.newaxis]
    rho = weights * np.outer(phi, phi.conj()) + (1.0 - weights) * np.eye(4) / 4.0
    return _check_density(rho)


def make_werner_like(theta: float, chi: float) -> DensityMatrix:
    """One Werner-like state; see werner_like_matrices.

    theta = pi/8 gives the maximally entangled state.
    """
    return DensityMatrix(_freeze(werner_like_matrices(theta, chi)[0]))


def bell_phi_plus() -> DensityMatrix:
    """The projector onto (|00> + |11>)/sqrt(2)."""
    return make_werner_like(math.pi / 8, 1.0)


@dataclass(frozen=True)
class BlochDecomposition:
    """Local Bloch vectors and the 3x3 spin correlation matrix."""

    a: np.ndarray  # Alice Bloch vector, shape (3,)
    b: np.ndarray  # Bob Bloch vector, shape (3,)
    c: np.ndarray  # correlation matrix c[i, j], shape (3, 3)

    def __post_init__(self):
        for name, vec in (("a", self.a), ("b", self.b)):
            if float(np.linalg.norm(vec)) > 1.0 + BLOCH_TOL:
                raise MatrixValidationError(f"|{name}| exceeds 1: {np.linalg.norm(vec)}")
        if float(np.max(np.abs(self.c))) > 1.0 + BLOCH_TOL:
            raise MatrixValidationError("correlation matrix entry exceeds 1 in modulus")


# _BLOCH_BASIS[i, j] = sigma_i x sigma_j with sigma_0 = I
_PAULI_BASIS = np.array([I2, *PAULIS])
_BLOCH_BASIS = np.einsum("iab,jcd->ijacbd", _PAULI_BASIS, _PAULI_BASIS).reshape(4, 4, 4, 4)


def bloch_decompose(rho: DensityMatrix) -> BlochDecomposition:
    """a_i = tr(rho sigma_i x I), b_j = tr(rho I x sigma_j), c_ij = tr(rho sigma_i x sigma_j)."""
    if rho.dim != 4:
        raise MatrixValidationError("Bloch decomposition requires a two-qubit state")
    t = np.einsum("xy,ijyx->ij", rho.matrix, _BLOCH_BASIS)
    if np.any(np.abs(t.imag) > HERMITICITY_TOL):
        raise MatrixValidationError(
            f"expectation value has imaginary residue {np.max(np.abs(t.imag)):.3e}")
    t = t.real
    return BlochDecomposition(_freeze(t[1:, 0]), _freeze(t[0, 1:]), _freeze(t[1:, 1:]))


def bloch_reconstruct(bd: BlochDecomposition) -> DensityMatrix:
    """Rebuild the state from its Bloch data; inverse of bloch_decompose."""
    t = np.block([[np.ones((1, 1)), bd.b[np.newaxis]], [bd.a[:, np.newaxis], bd.c]])
    return validate_density(np.einsum("ij,ijab->ab", t, _BLOCH_BASIS) / 4.0)


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
