import math
import re

import numpy as np
import pytest

from helpers import checked_table as table
from helpers import I2, PAULIS, PROJECTORS, joint_tensor, random_density, reference_frequencies, spy
from steerq import (AXES, ExperimentRecord, correlations, evaluate_record, expio,
                    simulate_record, spawn_generator)
from steerq.criteria import analytic_tensor
from steerq.qmat import DensityMatrix, make_werner_like


class TestPauliProjectors:
    """PROJECTORS[k, i, j] = Pi_i x Pi_j, the product eigenprojectors of setting k."""

    @pytest.mark.parametrize("k", range(3), ids=AXES)
    def test_completeness_and_orthogonality(self, k):
        products = PROJECTORS[k].reshape(4, 4, 4)
        assert np.allclose(products.sum(axis=0), np.eye(4), atol=1e-15)
        for a, pa in enumerate(products):
            for b, pb in enumerate(products):
                assert np.allclose(pa @ pb, pa if a == b else 0, atol=1e-12)
        sign = (1.0, -1.0)  # outcome 0 <-> eigenvalue +1, outcome 1 <-> -1
        alice, bob = np.kron(PAULIS[k], I2), np.kron(I2, PAULIS[k])
        for i in range(2):
            for j in range(2):
                proj = PROJECTORS[k, i, j]
                assert np.allclose(alice @ proj, sign[i] * proj, atol=1e-12)
                assert np.allclose(bob @ proj, sign[j] * proj, atol=1e-12)

    def test_z_is_computational_basis(self):
        for i in range(2):
            for j in range(2):
                expected = np.zeros(4)
                expected[2 * i + j] = 1.0
                assert np.allclose(PROJECTORS[2, i, j], np.diag(expected))


class TestJointDistribution:
    """joint_tensor: the (3, 2, 2) tables p[k, i, j] of a state or a stack of states."""

    def test_maximally_mixed_is_uniform(self):
        p = joint_tensor(DensityMatrix(np.eye(4) / 4).matrix)
        assert np.allclose(p, 0.25, atol=1e-12)
        assert np.allclose(p.sum(axis=-1), 0.5, atol=1e-12)

    @pytest.mark.parametrize("chi,expected", [
        (1.0, [0.5, 0.0, 0.0, 0.5]),
        (0.5, [0.375, 0.125, 0.125, 0.375]),
    ])
    def test_werner_z_pattern(self, chi, expected):
        p = joint_tensor(make_werner_like(math.pi / 8, chi).matrix)
        assert np.allclose(p[2].reshape(-1), expected, atol=1e-12)

    def test_tilted_pure_x_pattern(self):
        p = joint_tensor(make_werner_like(math.radians(7.5), 1.0).matrix)
        assert np.allclose(p[0].reshape(-1), [0.375, 0.125, 0.125, 0.375], atol=1e-12)

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(2)
        states = [random_density(rng) for _ in range(100)]
        stacked = joint_tensor(np.stack([rho.matrix for rho in states]))
        assert stacked.shape == (100, 3, 2, 2)
        for rho, from_stack in zip(states, stacked):
            p = joint_tensor(rho.matrix)
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-10)
            assert np.allclose(from_stack, p, atol=1e-15)

    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError, match=r"^negative cell probability: -0\.1$"):
            table([0.5, 0.6, -0.1, 0.0])

    @pytest.mark.parametrize("cells", [[math.nan] * 4, [0.5, math.nan, 0.5, 0.0],
                                       [math.nan, 0.5, -0.1, 0.6]])
    def test_rejects_nan_cells(self, cells):
        # every comparison with NaN is False, so the checks are written to fail on it
        with pytest.raises(ValueError, match="^NaN cell probability: nan$"):
            table(cells)

    def test_rejects_infinite_cells(self):
        with pytest.raises(ValueError, match="^cell probabilities sum to inf, not 1$"):
            table([math.inf, 0.0, 0.0, 0.0])

    def test_rejects_unnormalized_cells(self):
        with pytest.raises(ValueError, match=r"^cell probabilities sum to 1\.25, not 1$"):
            table([0.5, 0.25, 0.25, 0.25])

    def test_rejects_states_that_are_not_two_qubit(self):
        for dim in (2, 8):
            with pytest.raises(ValueError, match="two-qubit"):
                joint_tensor(np.eye(dim) / dim)


class TestCorrelation:
    def test_simple_values(self):
        assert correlations(table([0.5, 0, 0, 0.5])) == 1.0
        assert correlations(table([0.25] * 4)) == 0.0
        assert correlations(table([0.375, 0.125, 0.125, 0.375])) == pytest.approx(
            0.5, abs=1e-15)

    def test_matches_pauli_expectations(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = random_density(rng)
            expected = [np.trace(rho.matrix @ np.kron(sigma, sigma)).real for sigma in PAULIS]
            assert np.allclose(correlations(joint_tensor(rho.matrix)), expected,
                               rtol=0, atol=1e-10)


class TestSimulateCounts:
    """simulate_record: Poisson counts with mean shots * p_ij, setting k on stream k."""

    def test_zero_probability_cells_stay_zero(self):
        counts = simulate_record(math.pi / 8, 1.0, 10_000, seed=5).counts
        assert counts[0, 0, 1] == counts[0, 1, 0] == 0  # x: perfectly correlated
        assert counts[1, 0, 0] == counts[1, 1, 1] == 0  # y: perfectly anticorrelated
        assert counts[2, 0, 1] == counts[2, 1, 0] == 0  # z: perfectly correlated
        assert counts[0, 0, 0] > 0 and counts[2, 1, 1] > 0

    def test_uniform_counts_within_poisson_range(self):
        counts = simulate_record(math.pi / 8, 0.0, 1_000_000, seed=9).counts
        # each cell Poisson(250000): 5 sigma = 2500
        assert np.all(np.abs(counts - 250_000) < 2500)

    def test_streams_are_distinct(self):
        # chi = 0 gives every setting the same table, so shared streams
        # would give equal counts
        theta, shots, seed = math.pi / 8, 50_000, 123
        counts = simulate_record(theta, 0.0, shots, seed).counts
        assert not np.array_equal(counts[0], counts[1])
        assert not np.array_equal(counts[1], counts[2])
        p = analytic_tensor(theta, 0.0)[0]
        for k in range(3):
            expected = spawn_generator(seed, k).poisson(lam=shots * p[k])
            assert np.array_equal(counts[k], expected)

    def test_rejects_bad_args(self):
        for shots in (0, -5):
            with pytest.raises(ValueError, match="shots"):
                simulate_record(math.pi / 8, 0.5, shots, seed=1)
        with pytest.raises(ValueError):
            spawn_generator(-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4", None, True, False])
    def test_rejects_non_integer_seed_naming_it(self, seed):
        # not numpy's TypeError from SeedSequence: a ValueError that names the seed
        with pytest.raises(ValueError, match=re.escape(f"got seed {seed!r} and stream 0")):
            simulate_record(math.pi / 8, 0.5, 2000, seed=seed)
        with pytest.raises(ValueError, match=re.escape(f"got seed 1 and stream {seed!r}")):
            spawn_generator(1, seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        a = simulate_record(math.pi / 8, 0.5, 2000, seed=np.int64(7))
        assert np.array_equal(a.counts, simulate_record(math.pi / 8, 0.5, 2000, seed=7).counts)
        assert a.label.endswith("seed=7)")

    def test_rejects_shots_at_count_bound_before_drawing(self, monkeypatch):
        spy(monkeypatch, expio, "spawn_generator", forbid=True)
        for shots in (2**53, 10**20, 2**63 - 1):
            with pytest.raises(ValueError, match=r"shots .*2\*\*53"):
                simulate_record(math.pi / 8, 0.5, shots, seed=1)


class TestEstimateDistribution:
    """evaluate_record's n_ij / N_k, and the ExperimentRecord checks it relies on."""

    @staticmethod
    def probabilities(counts) -> np.ndarray:
        rep = evaluate_record(ExperimentRecord("r", counts), bootstrap=100, seed=1)
        return np.array([rep.probabilities[axis] for axis in AXES]).reshape(3, 2, 2)

    def test_exact_ratios(self):
        assert np.array_equal(self.probabilities(np.full((3, 2, 2), 250)),
                              np.full((3, 2, 2), 0.25))
        counts = np.array([[[500, 0], [0, 500]], [[1, 3], [0, 0]], [[2, 2], [2, 2]]])
        expected = [[[0.5, 0], [0, 0.5]], [[0.25, 0.75], [0, 0]], [[0.25] * 2] * 2]
        assert np.array_equal(self.probabilities(counts), expected)
        for counts in np.random.default_rng(4).integers(1, 1000, size=(5, 3, 2, 2)):
            p = self.probabilities(counts)
            for k in range(3):
                assert np.array_equal(p[k], counts[k] / counts[k].sum())

    def test_empty_record_rejected(self):
        counts = np.ones((3, 2, 2), dtype=int)
        counts[1] = 0
        with pytest.raises(ValueError, match="axis y has zero total count"):
            ExperimentRecord("r", counts)

    def test_negative_counts_rejected(self):
        for bad in (-1, 1.9, math.nan, math.inf, 1j):
            counts = np.ones((3, 2, 2)).tolist()
            counts[0][0][1] = bad
            with pytest.raises(ValueError, match="non-negative integers"):
                ExperimentRecord("r", counts)

    def test_convergence_with_sample_size(self):
        theta, chi = math.pi / 8, 0.5
        p = analytic_tensor(theta, chi)[0]
        errors = {}
        for n in (1_000, 100_000):
            rec = simulate_record(theta, chi, n, seed=77)
            errors[n] = np.max(np.abs(reference_frequencies(rec.counts) - p))
        assert errors[100_000] < errors[1_000]
        assert errors[100_000] < 0.01
