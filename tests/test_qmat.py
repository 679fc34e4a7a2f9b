import math
import re

import numpy as np
import pytest

from helpers import (I2, PAULIS, assert_same_bits, random_density, rebuilt_roots_fidelity,
                     reference_fidelity, reference_werner_matrix)
from steerq import (DensityMatrix, MatrixValidationError, evaluate_state, fidelity,
                    make_werner_like, simulate_record, validate_density)
from steerq import qmat


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4)
        assert rho.dim == 4

    def test_bell_projector_valid(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        validate_density(np.outer(phi, phi.conj()))

    @pytest.mark.parametrize("check", [validate_density, DensityMatrix])
    @pytest.mark.parametrize("m, message", [
        pytest.param(np.full(4, 0.25), "expected a 2-D matrix, got ndim=1", id="1-d"),
        pytest.param(np.eye(2)[np.newaxis] / 2, "expected a 2-D matrix, got ndim=3", id="3-d"),
        pytest.param(np.zeros((0, 0)), "matrix must be non-empty", id="empty"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], "matrix contains non-finite entries",
                     id="nan"),
        pytest.param([[0.5, complex(0.0, np.inf)], [0.0, 0.5]],
                     "matrix contains non-finite entries", id="imaginary-inf"),
        pytest.param([[np.inf, 0.0, 0.0]], "matrix contains non-finite entries",
                     id="non-finite-before-square"),
        pytest.param(np.ones((2, 3)), "expected a square matrix, got 2x3", id="non-square"),
        pytest.param([[0.0, 1.0], [0.0, 0.0]],
                     "not Hermitian: max |M - M^H| = 1.000e+00 exceeds 1e-10",
                     id="non-hermitian-before-trace"),
        pytest.param(np.eye(4, dtype=complex) / 4 + np.diag([1e-3, 0.0, 0.0], k=1),
                     "not Hermitian: max |M - M^H| = 1.000e-03 exceeds 1e-10", id="non-hermitian"),
        pytest.param(np.diag([2.0, -0.5]), "trace differs from 1 by 5.000e-01 (tolerance 1e-10)",
                     id="trace-before-psd"),
        pytest.param(np.eye(4) / 2, "trace differs from 1 by 1.000e+00 (tolerance 1e-10)",
                     id="trace"),
        pytest.param(np.diag([1.001, 0.0, 0.0, -0.001]),
                     "not positive semidefinite: min eigenvalue -1.000e-03 below -1e-09",
                     id="not-psd"),
    ])
    def test_exact_message_of_each_check(self, check, m, message):
        with pytest.raises(MatrixValidationError, match=f"^{re.escape(message)}$"):
            check(m)

    def test_stores_a_read_only_copy_of_the_hermitian_part(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-11j  # within the Hermiticity tolerance
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)
        assert not rho.matrix.flags.writeable
        m[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.25


class TestWernerLike:
    def test_maximally_entangled_at_theta_pi8(self):
        rho = make_werner_like(math.pi / 8, 1.0)
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)  # (|00> + |11>)/sqrt(2)
        assert np.allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-12)

    def test_chi_zero_is_maximally_mixed(self):
        rho = make_werner_like(0.3, 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_pauli_expectations_match_closed_form(self):
        # tr(rho sigma_i x sigma_j), sigma_0 = I: local vectors chi cos(4 theta) z on both
        # sides, correlations chi diag(sin 4 theta, -sin 4 theta, 1), every other entry 0
        basis = (I2, *PAULIS)
        for theta in np.linspace(0, math.pi / 4, 7):
            for chi in (0.0, 0.2, 0.5, 0.9, 1.0):
                rho = make_werner_like(theta, chi).matrix
                t = np.array([[np.trace(rho @ np.kron(si, sj)) for sj in basis]
                              for si in basis])
                local, tilt = chi * math.cos(4 * theta), chi * math.sin(4 * theta)
                expected = np.array([[1.0, 0.0, 0.0, local], [0.0, tilt, 0.0, 0.0],
                                     [0.0, 0.0, -tilt, 0.0], [local, 0.0, 0.0, chi]])
                assert np.allclose(t, expected, rtol=0, atol=1e-12), (theta, chi)

    @pytest.mark.parametrize("theta,chi", [(-0.1, 0.5), (math.pi / 3, 0.5),
                                           (0.2, -0.01), (0.2, 1.01)])
    def test_rejects_out_of_range(self, theta, chi):
        with pytest.raises(ValueError):
            make_werner_like(theta, chi)

    @pytest.mark.parametrize("chis, size", [([], 0), ([0.2, 0.9], 2), (np.full(3, 0.5), 3)])
    def test_rejects_other_than_one_chi(self, chis, size):
        for make in (make_werner_like, evaluate_state,
                     lambda theta, chi: simulate_record(theta, chi, 1000, 0)):
            with pytest.raises(ValueError, match=f"takes one chi, got {size}$"):
                make(0.3, chis)

    @pytest.mark.parametrize("chi", [0.5, [0.5], np.array([[0.5]]), np.float32(0.5)])
    def test_one_chi_in_any_shape_labels_the_float(self, chi):
        assert evaluate_state(0.3, chi).label == "werner_like(theta=17.1887deg, chi=0.5)"
        assert simulate_record(0.3, chi, 1000, 0).label == (
            "simulated werner_like(theta=17.1887deg, chi=0.5, shots=1000, seed=0)")

    def test_closed_form_matches_outer_product_bits(self):
        thetas = [0.0, 1e-300, math.pi / 8, math.pi / 4, *np.linspace(0, math.pi / 4, 19)]
        chis = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, *np.linspace(0, 1, 21),
                *np.random.default_rng(8).uniform(0, 1, 20)]
        for theta in thetas:
            for chi in chis:
                rho = make_werner_like(theta, chi).matrix
                expected = reference_werner_matrix(theta, chi)
                assert np.array_equal(rho.view(np.int64), expected.view(np.int64)), (theta, chi)

    def test_always_valid_on_parameter_grid(self):
        for theta in np.linspace(0, math.pi / 4, 7):
            for chi in np.linspace(0, 1, 7):
                make_werner_like(theta, chi)  # validate_density runs inside


class TestFidelity:
    @pytest.mark.parametrize("chi", [0.0, 0.25, 0.5, 1.0])
    def test_bell_vs_werner_closed_form(self, chi):
        val = fidelity(make_werner_like(math.pi / 8, 1.0), make_werner_like(math.pi / 8, chi))
        assert val == pytest.approx((1 + 3 * chi) / 4, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho, sigma = random_density(rng), random_density(rng)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    def test_matches_product_of_square_roots(self):
        # rank 1 to 4 on each side: the clamp must treat rank-deficient states alike
        rng = np.random.default_rng(20)
        worst = 0.0
        for ranks in rng.integers(1, 5, size=(2000, 2)):
            rho, sigma = (random_density(rng, rank=int(r)) for r in ranks)
            worst = max(worst, abs(fidelity(rho, sigma) - rebuilt_roots_fidelity(rho, sigma)))
        assert worst <= 1e-14

    def test_clamp_is_relative_to_each_states_top_eigenvalue(self):
        # rho's 7e-15 lies above 1e-14 of its own top eigenvalue 0.5 but below 1e-14 of
        # sigma's 1, so a clamp against the larger top eigenvalue would give F = 0
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25 - 7e-15, 7e-15]))
        sigma = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]))
        for pair in ((rho, sigma), (sigma, rho)):
            assert fidelity(*pair) == pytest.approx(7e-15, rel=1e-9, abs=0.0)
            assert rebuilt_roots_fidelity(*pair) == pytest.approx(7e-15, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("ranks", [(None, None), (1, 1), (2, 2), (1, None), (2, 1)],
                             ids=["full-rank", "rank-1", "rank-2", "rank-1-full", "rank-2-1"])
    def test_matches_stacked_eigh_bits(self, ranks):
        rng = np.random.default_rng(sum(r or 4 for r in ranks))
        for _ in range(300):
            rho, sigma = (random_density(rng, rank=r) for r in ranks)
            assert_same_bits(fidelity(rho, sigma), reference_fidelity(rho, sigma))

    def test_werner_pairs_match_stacked_eigh_bits(self):
        states = [make_werner_like(theta, chi) for theta in np.linspace(0, math.pi / 4, 9)
                  for chi in (0.0, 0.3, 0.7, 1.0)]
        pure = [make_werner_like(theta, 1.0) for theta in (0.0, math.pi / 8, math.pi / 4)]
        for rho in states:
            for sigma in (*pure, states[7]):
                assert_same_bits(fidelity(rho, sigma), reference_fidelity(rho, sigma))
                assert_same_bits(fidelity(sigma, rho), reference_fidelity(sigma, rho))

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixValidationError, match="mismatch"):
            fidelity(DensityMatrix(np.eye(4) / 4), validate_density(np.eye(2) / 2))


class TestDecomposeOnce:
    """Each state's PSD check decomposes it once; fidelity reuses that decomposition."""

    def test_eigendecompositions_and_svds_are_counted(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(*args, _name=name, _original=getattr(qmat.np.linalg, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(qmat.np.linalg, name, counted)
        rho, sigma = make_werner_like(0.3, 0.6), DensityMatrix(np.eye(4) / 4)
        assert calls == ["eigh", "eigh"]
        expected = reference_fidelity(rho, sigma)
        calls.clear()
        assert_same_bits(fidelity(rho, sigma), expected)
        assert calls == ["svd"]

    def test_stored_decomposition_is_read_only(self):
        rho = make_werner_like(0.3, 0.6)
        with pytest.raises(ValueError):
            rho._factor[0, 0] = 0.0
