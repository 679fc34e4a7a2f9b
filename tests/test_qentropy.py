import math

import numpy as np
import pytest

from helpers import checked_table as joint
from helpers import conditional_tsallis, correction_term, ln_q, tsallis_entropy


UNIFORM = joint([0.25, 0.25, 0.25, 0.25])
CORRELATED = joint([0.5, 0.0, 0.0, 0.5])


class TestLnQ:
    def test_log_of_one_is_zero(self):
        for q in (0.5, 1.0, 1.5, 2.0):
            assert ln_q(1.0, q) == 0.0

    def test_q2_values(self):
        assert ln_q(0.5, 2.0) == pytest.approx(-1.0, abs=1e-15)
        assert ln_q(1.5, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_routes_to_natural_log_near_one(self):
        assert ln_q(2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert ln_q(2.0, 1.0 + 1e-12) == pytest.approx(math.log(2.0), abs=1e-15)



class TestTsallisEntropy:
    def test_deterministic_is_zero(self):
        for q in (0.5, 1.0, 2.0):
            assert tsallis_entropy([1.0, 0.0], q) == 0.0

    def test_uniform_pair_q2(self):
        assert tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_quad_q2(self):
        assert tsallis_entropy([0.25] * 4, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_shannon_at_q1(self):
        assert tsallis_entropy([0.5, 0.5], 1.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_continuity_at_q1(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            h = tsallis_entropy(p, 1.0)
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                assert abs(tsallis_entropy(p, q) - h) < 1e-4

    def test_non_negative_on_q_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            q = rng.uniform(1e-3, 2.0)
            assert tsallis_entropy(p, q) >= 0.0

    def test_zero_cells_change_nothing(self):
        for q in (0.7, 1.0, 1.3, 2.0):
            base = tsallis_entropy([0.3, 0.7], q)
            padded = tsallis_entropy([0.3, 0.0, 0.7, 0.0], q)
            assert padded == base


class TestShannonEntropy:
    def test_values(self):
        assert tsallis_entropy([1.0, 0.0], 1.0) == 0.0
        assert tsallis_entropy([0.5, 0.5], 1.0) == pytest.approx(math.log(2), abs=1e-15)
        assert tsallis_entropy([0.75, 0.25], 1.0) == pytest.approx(0.562335, abs=1e-6)


class TestConditionalTsallis:
    def test_uniform_q2(self):
        assert conditional_tsallis(UNIFORM, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_perfectly_correlated_q2(self):
        assert conditional_tsallis(CORRELATED, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_product_of_uniform_marginals_q1(self):
        assert conditional_tsallis(UNIFORM, 1.0) == pytest.approx(math.log(2), abs=1e-15)


class TestCorrectionTerm:
    def test_uniform_q2(self):
        assert correction_term(UNIFORM, 2.0) == pytest.approx(-0.25, abs=1e-15)

    def test_deterministic_joint_is_zero(self):
        det = joint([1.0, 0.0, 0.0, 0.0])
        for q in (0.5, 1.3, 2.0):
            assert correction_term(det, q) == 0.0

    def test_correlated_q2(self):
        # both sums equal 0.5, so they cancel exactly
        assert correction_term(CORRELATED, 2.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("bob", [(0.5, 0.5), (0.25, 0.75), (0.875, 0.125)])
    def test_vanishes_for_factorized_deterministic_alice(self, bob):
        # Alice marginal (1, 0): every ln_q(p_i) factor is ln_q(1) = 0
        jd = joint([bob[0], bob[1], 0.0, 0.0])
        for q in (0.6, 1.4, 2.0):
            assert correction_term(jd, q) == 0.0


@pytest.mark.parametrize("q", [1.0 - 5e-10, 1.0 + 5e-10])
def test_within_shannon_tolerance_equals_q1_bit_for_bit(q):
    rng = np.random.default_rng(9)
    tables = [UNIFORM, CORRELATED, joint([0.6, 0.4, 0.0, 0.0]),
              *(joint(rng.dirichlet(np.ones(4))) for _ in range(50))]
    for table in tables:
        assert correction_term(table, q) == correction_term(table, 1.0)
        assert tsallis_entropy(table.reshape(-1), q) == tsallis_entropy(table.reshape(-1), 1.0)
        assert conditional_tsallis(table, q) == conditional_tsallis(table, 1.0)
    for x in (1e-300, 0.3, 1.0, 2.0, 1e300):
        assert ln_q(x, q) == ln_q(x, 1.0)
