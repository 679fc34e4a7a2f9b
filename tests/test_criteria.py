import math

import numpy as np
import pytest

from helpers import (BELL_CORRELATIONS, random_bell_diagonal, random_density, scg,
                     werner_tables)
from steerq import (LSC, SCG, SolverError, chi_threshold, correlations, criterion_values,
                    joint_tensor, mub_bound, scg_bound, scg_lhs_entropic, shannon_bound,
                    verdict)
from steerq.criteria import scg_key, scg_lhs_cells


def werner_joints(chi, theta=math.pi / 8):
    return werner_tables(theta, chi)


def tables_with_correlations(c):
    """(3, 2, 2) tables with uniform marginals and same-axis correlations c."""
    c = np.asarray(c, dtype=float)[:, np.newaxis, np.newaxis]
    return np.where(np.eye(2, dtype=bool), 1.0 + c, 1.0 - c) / 4.0


def lsc(c):
    return float(criterion_values(tables_with_correlations(c), ())["lsc"])


class TestBounds:
    def test_mub_bound_q2_is_one(self):
        assert abs(mub_bound(2, 3, 2.0) - 1.0) <= 1e-12

    def test_single_basis_bound_is_zero(self):
        for q in (0.5, 1.0, 2.0):
            assert mub_bound(2, 1, q) == 0.0

    def test_mub_bound_shannon_limit(self):
        assert mub_bound(2, 3, 1.0) == pytest.approx(3 * math.log(1.5), abs=1e-12)

    def test_mub_bound_rejects_q_above_two(self):
        with pytest.raises(ValueError):
            mub_bound(2, 3, 2.5)

    def test_shannon_bound_even_and_odd(self):
        assert shannon_bound(2) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert shannon_bound(3) == pytest.approx(4 * math.log(2), abs=1e-12)
        assert shannon_bound(4) == pytest.approx(2 * math.log(2) + 3 * math.log(3),
                                                 abs=1e-12)

    def test_scg_bound_selection(self):
        # generic q uses the MUB bound, the Shannon route uses the parity bound
        assert scg_bound(2.0) == mub_bound(2, 3, 2.0)
        assert scg_bound(1.0) == shannon_bound(2)


class TestScgLhs:
    @pytest.mark.parametrize("chi,expected", [(0.0, 1.5), (0.5, 1.125), (1.0, 0.0)])
    def test_werner_closed_form_q2(self, chi, expected):
        # 3 (1 - chi^2) / 2
        assert scg(werner_joints(chi), 2.0) == pytest.approx(expected, abs=1e-12)

    def test_werner_half_shannon(self):
        val = scg(werner_joints(0.5), 1.0)
        assert val == pytest.approx(1.6870054338564247, abs=1e-12)

    def test_tilted_pure_q2(self):
        p = werner_tables(math.radians(7.5), 1.0)
        assert scg(p, 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_maximally_mixed_q2(self):
        assert scg(werner_joints(0.0), 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_q_out_of_range(self):
        p = werner_joints(0.5)
        for q in (0.0, -1.0, 2.1):
            with pytest.raises(ValueError):
                criterion_values(p, (q,))

    def test_subset_of_settings_allowed(self):
        p = werner_joints(0.5)
        one = float(scg_lhs_cells(p[:1], p[:1].sum(axis=-1), 2.0))
        three = scg(p, 2.0)
        assert 0.0 < one < three


class TestFormEquivalence:
    def test_uniform_value(self):
        assert scg_lhs_entropic(werner_joints(0.0), 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_bell_state_value(self):
        assert scg_lhs_entropic(werner_joints(1.0), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_forms_agree_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = joint_tensor(random_density(rng).matrix)
            for q in (1.3, 1.7, 2.0):
                assert abs(scg(p, q) - scg_lhs_entropic(p, q)) < 1e-10

    def test_forms_agree_at_q1(self):
        p = werner_joints(0.7)
        assert scg(p, 1.0) == pytest.approx(scg_lhs_entropic(p, 1.0), abs=1e-12)

    def test_entropic_route_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="shape"):
            scg_lhs_entropic(np.full((2, 2), 0.25), 2.0)
        with pytest.raises(ValueError, match="sum to"):
            scg_lhs_entropic(np.full((3, 2, 2), 0.3), 2.0)


class TestLscValue:
    def test_zero_vector(self):
        assert lsc([0.0, 0.0, 0.0]) == 0.0

    def test_bell_state(self):
        assert lsc([1.0, -1.0, 1.0]) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_tilted_pure(self):
        assert lsc([0.5, -0.5, 1.0]) == pytest.approx(math.sqrt(1.5), abs=1e-12)


class TestVerdict:
    def test_scg_strict_violation(self):
        assert verdict(SCG, 0.99, 1.0, q=2.0).steerable is True
        assert verdict(SCG, 1.0, 1.0, q=2.0).steerable is False  # tie
        assert verdict(SCG, 1.01, 1.0, q=2.0).steerable is False

    def test_lsc_strict_violation(self):
        assert verdict(LSC, 1.013, 1.0).steerable is True
        assert verdict(LSC, 1.0, 1.0).steerable is False  # tie
        assert verdict(LSC, 0.9, 1.0).steerable is False

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            verdict("XYZ", 0.5, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            verdict(SCG, math.nan, 1.0)


class TestChiThreshold:
    def test_werner_q2(self):
        res = chi_threshold(math.radians(22.5), SCG, q=2.0, tol=1e-7)
        assert res.crossed
        assert res.chi == pytest.approx(1 / math.sqrt(3), abs=1e-6)

    def test_werner_q1(self):
        res = chi_threshold(math.radians(22.5), SCG, q=1.0, tol=1e-6)
        assert res.chi == pytest.approx(0.652, abs=1e-3)

    def test_tilted_q2(self):
        res = chi_threshold(math.radians(7.5), SCG, q=2.0, tol=1e-7)
        assert res.chi == pytest.approx(0.8013923, abs=1e-5)

    def test_tilted_lsc_closed_form(self):
        res = chi_threshold(math.radians(7.5), LSC, tol=1e-7)
        assert res.chi == pytest.approx(1 / math.sqrt(1.5), abs=1e-6)

    def test_product_state_family_never_violates(self):
        # theta = 0 gives product states; SCG reaches the bound only at chi = 1
        res = chi_threshold(0.0, SCG, q=2.0)
        assert not res.crossed
        assert res.chi == 1.0

    def test_strength_ordering_tilted_family(self):
        scg_thr = chi_threshold(math.radians(7.5), SCG, q=2.0).chi
        lsc_thr = chi_threshold(math.radians(7.5), LSC).chi
        assert scg_thr < lsc_thr

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            chi_threshold(math.radians(22.5), SCG, q=2.0, tol=0.0)

    def test_non_monotone_profile_raises(self, monkeypatch):
        # V-shaped stand-in profile: bisection preconditions must be rejected
        from steerq import criteria

        original = criteria.criterion_values
        monkeypatch.setattr(
            criteria, "criterion_values",
            lambda p, qs: {key: (v / 3.0 - 0.25) ** 2
                           for key, v in original(p, qs).items()},
        )
        with pytest.raises(SolverError, match="monotone"):
            chi_threshold(math.radians(22.5), SCG, q=2.0)


class TestProperties:
    def test_lhs_non_increasing_in_chi(self):
        for theta in (math.radians(22.5), math.radians(7.5)):
            for q in (2.0, 1.0):
                values = [scg(werner_tables(theta, chi), q)
                          for chi in np.linspace(0, 1, 101)]
                assert np.all(np.diff(values) <= 1e-12)

    def test_q2_gives_widest_violation_margin(self):
        # for a steerable Werner state the bound-minus-lhs margin peaks at q = 2
        values = criterion_values(werner_joints(0.7), (1.25, 1.5, 1.75, 2.0))
        margins = {q: scg_bound(q) - values[scg_key(q)]
                   for q in (1.25, 1.5, 1.75, 2.0)}
        assert margins[2.0] == max(margins.values())
        assert margins[2.0] > 0

    def test_verdict_equivalence_bell_diagonal(self):
        # with vanishing Bloch vectors SCG(q=2) and LSC are the same test
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(300):
            rho, weights = random_bell_diagonal(rng)
            c_diag = weights @ BELL_CORRELATIONS
            if abs(np.sum(c_diag ** 2) - 1.0) < 1e-9:
                continue  # tie band
            p = joint_tensor(rho.matrix)
            scg_rep = verdict(SCG, scg(p, 2.0), scg_bound(2.0), q=2.0)
            lsc_rep = verdict(LSC, float(np.linalg.norm(correlations(p))), 1.0)
            assert scg_rep.steerable == lsc_rep.steerable
            checked += 1
        assert checked > 250
