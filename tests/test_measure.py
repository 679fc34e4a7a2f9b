import math

import numpy as np
import pytest

from helpers import random_density
from steerq import (AXES, Axis, bloch_decompose, correlation,
                    estimate_distribution, joint_distribution, make_werner_like,
                    maximally_mixed, pauli_projectors, simulate_counts,
                    spawn_generator)
from steerq.measure import CountRecord, JointDistribution


class TestPauliProjectors:
    @pytest.mark.parametrize("axis", AXES)
    def test_completeness_and_orthogonality(self, axis):
        p0, p1 = pauli_projectors(axis)
        assert np.allclose(p0 + p1, np.eye(2), atol=1e-15)
        assert np.allclose(p0 @ p0, p0, atol=1e-12)
        assert np.allclose(p1 @ p1, p1, atol=1e-12)
        assert np.allclose(p0 @ p1, 0, atol=1e-12)

    def test_z_is_computational_basis(self):
        p0, p1 = pauli_projectors(Axis.Z)
        assert np.allclose(p0, np.diag([1.0, 0.0]))
        assert np.allclose(p1, np.diag([0.0, 1.0]))


class TestJointDistribution:
    def test_maximally_mixed_is_uniform(self):
        for axis in AXES:
            jd = joint_distribution(maximally_mixed(), axis)
            assert np.allclose(jd.p, 0.25, atol=1e-12)
            assert np.allclose(jd.alice_marginal, 0.5, atol=1e-12)

    @pytest.mark.parametrize("chi,expected", [
        (1.0, [0.5, 0.0, 0.0, 0.5]),
        (0.5, [0.375, 0.125, 0.125, 0.375]),
    ])
    def test_werner_z_pattern(self, chi, expected):
        jd = joint_distribution(make_werner_like(math.pi / 8, chi), Axis.Z)
        assert np.allclose(jd.p.reshape(-1), expected, atol=1e-12)

    def test_tilted_pure_x_pattern(self):
        jd = joint_distribution(make_werner_like(math.radians(7.5), 1.0), Axis.X)
        assert np.allclose(jd.p.reshape(-1), [0.375, 0.125, 0.125, 0.375], atol=1e-12)

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = random_density(rng)
            for axis in AXES:
                jd = joint_distribution(rho, axis)
                assert np.all(jd.p >= 0)
                assert jd.p.sum() == pytest.approx(1.0, abs=1e-10)
                assert np.allclose(jd.alice_marginal, jd.p.sum(axis=1), atol=1e-10)

    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError, match="negative"):
            JointDistribution.from_cells(Axis.X, [0.5, 0.6, -0.1, 0.0])


class TestCorrelation:
    def test_simple_values(self):
        assert correlation(JointDistribution.from_cells(Axis.Z, [0.5, 0, 0, 0.5])) == 1.0
        assert correlation(JointDistribution.from_cells(Axis.Z, [0.25] * 4)) == 0.0
        jd = JointDistribution.from_cells(Axis.X, [0.375, 0.125, 0.125, 0.375])
        assert correlation(jd) == pytest.approx(0.5, abs=1e-15)

    def test_matches_bloch_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = random_density(rng)
            c = bloch_decompose(rho).c
            for k, axis in enumerate(AXES):
                jd = joint_distribution(rho, axis)
                assert correlation(jd) == pytest.approx(c[k, k], abs=1e-10)


class TestSimulateCounts:
    def test_zero_probability_cells_stay_zero(self):
        jd = JointDistribution.from_cells(Axis.Z, [1.0, 0.0, 0.0, 0.0])
        rec = simulate_counts(jd, 10_000, seed=5)
        assert rec.counts[0, 1] == rec.counts[1, 0] == rec.counts[1, 1] == 0
        assert rec.counts[0, 0] > 0

    def test_uniform_counts_within_poisson_range(self):
        jd = JointDistribution.from_cells(Axis.X, [0.25] * 4)
        rec = simulate_counts(jd, 1_000_000, seed=9)
        # each cell Poisson(250000): 5 sigma = 2500
        assert np.all(np.abs(rec.counts - 250_000) < 2500)

    def test_deterministic_for_fixed_seed(self):
        jd = JointDistribution.from_cells(Axis.Y, [0.4, 0.1, 0.2, 0.3])
        a = simulate_counts(jd, 50_000, seed=123, stream=1)
        b = simulate_counts(jd, 50_000, seed=123, stream=1)
        assert np.array_equal(a.counts, b.counts)

    def test_streams_are_distinct(self):
        jd = JointDistribution.from_cells(Axis.Y, [0.25] * 4)
        a = simulate_counts(jd, 50_000, seed=123, stream=0)
        b = simulate_counts(jd, 50_000, seed=123, stream=1)
        assert not np.array_equal(a.counts, b.counts)

    def test_rejects_bad_args(self):
        jd = JointDistribution.from_cells(Axis.X, [0.25] * 4)
        with pytest.raises(ValueError):
            simulate_counts(jd, 0, seed=1)
        with pytest.raises(ValueError):
            spawn_generator(-1)


class TestEstimateDistribution:
    def test_exact_ratios(self):
        rec = CountRecord(Axis.Z, [[250, 250], [250, 250]])
        assert np.allclose(estimate_distribution(rec).p, 0.25)
        rec = CountRecord(Axis.Z, [[500, 0], [0, 500]])
        assert np.allclose(estimate_distribution(rec).p, [[0.5, 0], [0, 0.5]])

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_distribution(CountRecord(Axis.X, [[0, 0], [0, 0]]))

    def test_negative_counts_rejected(self):
        for bad in ([[1, -1], [0, 0]], [[1.9, 0], [0, 0]]):
            with pytest.raises(ValueError, match="non-negative"):
                CountRecord(Axis.X, bad)

    def test_convergence_with_sample_size(self):
        jd = joint_distribution(make_werner_like(math.pi / 8, 0.5), Axis.Z)
        errors = {}
        for n in (1_000, 100_000):
            rec = simulate_counts(jd, n, seed=77)
            errors[n] = np.max(np.abs(estimate_distribution(rec).p - jd.p))
        assert errors[100_000] < errors[1_000]
        assert errors[100_000] < 0.01
