import math

import numpy as np
import pytest

from helpers import random_density
from steerq import (MatrixValidationError, bell_phi_plus, bloch_decompose,
                    bloch_reconstruct, fidelity, hermitian_eigendecompose,
                    make_werner_like, maximally_mixed, validate_density)
from steerq.qmat import I2, PAULIS, DensityMatrix


class TestEigendecompose:
    def test_identity(self):
        w, v = hermitian_eigendecompose(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_sigma_z(self):
        w, _ = hermitian_eigendecompose(np.diag([1.0, -1.0]))
        assert np.allclose(w, [-1.0, 1.0])  # ascending

    def test_bell_projector(self):
        # rank-1 projector: eigenvalues (0, 0, 0, 1), top eigenvector rebuilds it
        proj = bell_phi_plus().matrix
        w, v = hermitian_eigendecompose(proj)
        assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)
        top = v[:, 3]
        assert np.allclose(np.outer(top, top.conj()), proj, atol=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (g + g.conj().T) / 2
            w, v = hermitian_eigendecompose(h)
            assert np.max(np.abs(h - (v * w) @ v.conj().T)) <= 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-9
            assert np.all(np.diff(w) >= 0)

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (g + g.conj().T) / 2
            w, _ = hermitian_eigendecompose(h)
            assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(MatrixValidationError, match="square"):
            hermitian_eigendecompose(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(MatrixValidationError, match="Hermitian"):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4)
        assert rho.dim == 4

    def test_bell_projector_valid(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        validate_density(np.outer(phi, phi.conj()))

    def test_reports_psd_failure_with_magnitude(self):
        bad = np.diag([1.001, 0.0, 0.0, -0.001])
        with pytest.raises(MatrixValidationError, match="positive semidefinite") as err:
            validate_density(bad)
        assert "-1.000e-03" in str(err.value)

    def test_reports_trace_failure(self):
        with pytest.raises(MatrixValidationError, match="trace"):
            validate_density(np.eye(4) / 2)

    def test_reports_hermiticity_failure(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 1e-3
        with pytest.raises(MatrixValidationError, match="Hermitian"):
            validate_density(bad)

    def test_matrix_is_immutable(self):
        rho = maximally_mixed()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5


class TestWernerLike:
    def test_maximally_entangled_at_theta_pi8(self):
        rho = make_werner_like(math.pi / 8, 1.0)
        assert np.allclose(rho.matrix, bell_phi_plus().matrix, atol=1e-12)

    def test_chi_zero_is_maximally_mixed(self):
        rho = make_werner_like(0.3, 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_tilted_pure_state_bloch_data(self):
        bd = bloch_decompose(make_werner_like(math.radians(7.5), 1.0))
        expected = math.cos(math.radians(30))
        assert np.allclose(bd.a, [0, 0, expected], atol=1e-12)
        assert np.allclose(bd.b, [0, 0, expected], atol=1e-12)
        assert np.allclose(bd.c, np.diag([0.5, -0.5, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("theta,chi", [(-0.1, 0.5), (math.pi / 3, 0.5),
                                           (0.2, -0.01), (0.2, 1.01)])
    def test_rejects_out_of_range(self, theta, chi):
        with pytest.raises(ValueError):
            make_werner_like(theta, chi)

    @pytest.mark.parametrize("chis, size", [([], 0), ([0.2, 0.9], 2)])
    def test_rejects_other_than_one_chi(self, chis, size):
        with pytest.raises(ValueError, match=f"takes one chi, got {size}$"):
            make_werner_like(0.3, chis)

    def test_always_valid_on_parameter_grid(self):
        for theta in np.linspace(0, math.pi / 4, 7):
            for chi in np.linspace(0, 1, 7):
                make_werner_like(theta, chi)  # validate_density runs inside


class TestBloch:
    def test_maximally_mixed_is_zero(self):
        bd = bloch_decompose(maximally_mixed())
        assert np.allclose(bd.a, 0) and np.allclose(bd.b, 0) and np.allclose(bd.c, 0)

    def test_bell_state_correlations(self):
        bd = bloch_decompose(bell_phi_plus())
        assert np.allclose(bd.c, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert np.allclose(bd.a, 0, atol=1e-12)

    def test_werner_half(self):
        bd = bloch_decompose(make_werner_like(math.pi / 8, 0.5))
        assert np.allclose(bd.c, np.diag([0.5, -0.5, 0.5]), atol=1e-12)

    def test_linearity_in_chi(self):
        theta = math.radians(7.5)
        ref = bloch_decompose(make_werner_like(theta, 1.0))
        for chi in (0.2, 0.6, 0.9):
            bd = bloch_decompose(make_werner_like(theta, chi))
            assert np.allclose(bd.a, chi * ref.a, atol=1e-10)
            assert np.allclose(bd.c, chi * ref.c, atol=1e-10)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = random_density(rng)
            rebuilt = bloch_reconstruct(bloch_decompose(rho))
            assert np.max(np.abs(rebuilt.matrix - rho.matrix)) <= 1e-10

    def test_expansion_matches_definition(self):
        # direct check of the trace formulas against the Pauli expansion
        rho = make_werner_like(math.radians(20), 0.7)
        bd = bloch_decompose(rho)
        for i, sigma in enumerate(PAULIS):
            assert bd.a[i] == pytest.approx(
                np.trace(rho.matrix @ np.kron(sigma, I2)).real, abs=1e-12)
            for j, other in enumerate(PAULIS):
                assert bd.c[i, j] == pytest.approx(
                    np.trace(rho.matrix @ np.kron(sigma, other)).real, abs=1e-12)
            assert bd.b[i] == pytest.approx(
                np.trace(rho.matrix @ np.kron(I2, sigma)).real, abs=1e-12)

    def test_imaginary_residue_rejected(self):
        # an unvalidated non-Hermitian matrix: tr(m sigma_x x I) picks up 1e-6 i
        m = np.eye(4, dtype=complex) / 4
        m[2, 0] += 1e-6j
        with pytest.raises(MatrixValidationError, match="imaginary residue 1.000e-06"):
            bloch_decompose(DensityMatrix(m))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = random_density(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_bell_vs_mixed(self):
        assert fidelity(bell_phi_plus(), maximally_mixed()) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.25, 0.5, 1.0])
    def test_bell_vs_werner_closed_form(self, chi):
        val = fidelity(bell_phi_plus(), make_werner_like(math.pi / 8, chi))
        assert val == pytest.approx((1 + 3 * chi) / 4, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho, sigma = random_density(rng), random_density(rng)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixValidationError, match="mismatch"):
            fidelity(maximally_mixed(4), validate_density(np.eye(2) / 2))
