import math
import re

import numpy as np
import pytest

from helpers import (assert_same_bits, bisection_threshold, mub_bound, reference_criterion_values,
                     reference_frequencies, scg, scg_lhs_entropic, shannon_bound, spy,
                     werner_tables)
from steerq import (LSC, SCG, SolverError, analytic_tensor, chi_threshold, criteria,
                    criterion_values, scg_bound, verdict)
from steerq.criteria import criteria_of, scg_key
from steerq.qmat import make_werner_like

THETA_W = math.pi / 8  # the Werner states


def tables_with_correlations(c):
    """(3, 2, 2) tables with uniform marginals and same-axis correlations c."""
    c = np.asarray(c, dtype=float)[:, np.newaxis, np.newaxis]
    return np.where(np.eye(2, dtype=bool), 1.0 + c, 1.0 - c) / 4.0


def lsc(c):
    return float(criterion_values(tables_with_correlations(c), ())["lsc"])


class TestBounds:
    def test_single_basis_bound_is_zero(self):
        for q in (0.5, 1.0, 2.0):
            assert mub_bound(2, 1, q) == 0.0

    def test_mub_bound_shannon_limit(self):
        assert mub_bound(2, 3, 1.0) == pytest.approx(3 * math.log(1.5), abs=1e-12)

    def test_shannon_bound_even_and_odd(self):
        assert shannon_bound(2) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert shannon_bound(3) == pytest.approx(4 * math.log(2), abs=1e-12)
        assert shannon_bound(4) == pytest.approx(2 * math.log(2) + 3 * math.log(3),
                                                 abs=1e-12)

    def test_scg_bound_selection(self):
        # generic q uses the MUB bound, the Shannon route uses the parity bound
        assert scg_bound(2.0) == mub_bound(2, 3, 2.0)
        assert scg_bound(1.0) == shannon_bound(2)

    def test_scg_bound_shannon_route_edge(self):
        # within 1e-9 of 1 takes the parity bound, just outside it the MUB bound
        assert scg_bound(1 + 5e-10) == shannon_bound(2)
        assert scg_bound(1 + 2e-9) == mub_bound(2, 3, 1 + 2e-9)

    def test_criteria_of_bound_matches_scg_bound_bits(self):
        qs = [1 - 5e-10, 1 + 5e-10, 1 - 2e-9, 1 + 2e-9, 0.1, 2.0, 5e-324,
              *np.linspace(0.05, 2.0, 40)]
        for q in qs:  # the parity bound within 1e-9 of q = 1, the MUB bound elsewhere
            bound = criteria_of((q,))[0].bound
            assert_same_bits(bound, shannon_bound(2) if abs(q - 1.0) < 1e-9
                             else mub_bound(2, 3, q))


class TestScgLhs:
    @pytest.mark.parametrize("chi,expected", [(0.0, 1.5), (0.5, 1.125), (1.0, 0.0)])
    def test_werner_closed_form_q2(self, chi, expected):
        # 3 (1 - chi^2) / 2
        assert scg(werner_tables(THETA_W, chi), 2.0) == pytest.approx(expected, abs=1e-12)

    def test_werner_half_shannon(self):
        val = scg(werner_tables(THETA_W, 0.5), 1.0)
        assert val == pytest.approx(1.6870054338564247, abs=1e-12)

    def test_tilted_pure_q2(self):
        p = werner_tables(math.radians(7.5), 1.0)
        assert scg(p, 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_rejects_q_out_of_range(self):
        p = werner_tables(THETA_W, 0.5)
        for q in (0.0, -1.0, 2.1):
            with pytest.raises(ValueError):
                criterion_values(p, (q,))

    def test_at_most_16_qs_and_the_count_checked_first(self):
        qs = [k / 8 for k in range(1, 17)]
        assert [c.q for c in criteria_of(qs)] == [*qs, None]
        for too_many in ([*qs, 0.0625], [3.0] * 17):
            with pytest.raises(ValueError) as info:
                criterion_values(werner_tables(THETA_W, 0.5), too_many)
            assert str(info.value) == "at most 16 entropic indices are accepted, got 17"

    @pytest.mark.parametrize("shape", [(4, 2, 2), (3, 3, 3), (2, 2, 2)],
                             ids=["four-settings", "three-outcomes", "two-settings"])
    def test_rejects_tables_of_another_shape(self, shape):
        p = np.full(shape, 1.0 / (shape[-2] * shape[-1]))
        with pytest.raises(ValueError) as info:
            criterion_values(p, (2.0,))
        assert str(info.value) == f"joint tables must have shape (..., 3, 2, 2), got {shape}"


class TestFormEquivalence:
    def test_uniform_value(self):
        assert scg_lhs_entropic(werner_tables(THETA_W, 0.0), 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_bell_state_value(self):
        assert scg_lhs_entropic(werner_tables(THETA_W, 1.0), 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_entropic_route_rejects_nan_tables(self, q):
        # NaN fails every comparison, so it once passed the checks and read as steering
        with pytest.raises(ValueError, match="^NaN cell probability: nan$"):
            scg_lhs_entropic(np.full((3, 2, 2), np.nan), q)
        tables = werner_tables(THETA_W, 0.5).copy()
        tables[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^NaN cell probability: nan$"):
            scg_lhs_entropic(tables, q)


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
    def test_product_state_family_never_violates(self):
        # theta = 0 gives product states; SCG reaches the bound only at chi = 1
        res = chi_threshold(0.0, SCG, q=2.0)
        assert not res.crossed
        assert res.chi == 1.0

    def test_chi_zero_violates_no_criterion_by_half_a_unit(self):
        # chi_threshold's premise: chi = 0 is I/4, on the non-violated side of every bound
        qs = (1e-300, 1e-12, 0.1, 0.5, 1.0, 1.5, 2.0)
        for theta in np.linspace(0.0, math.pi / 4, 46):
            values = criterion_values(analytic_tensor(theta, 0.0), qs)
            for c in criteria_of(qs):
                margin = values[c.key] - c.bound if c.name == SCG else c.bound - values[c.key]
                assert margin >= 0.5 - 1e-12, (theta, c.key, margin)

    def test_rejects_bad_tol(self):
        for tol in (math.nan, math.inf, -1.0, 0.0, 1.0, 1.5, "1e-6"):
            with pytest.raises(ValueError, match=rf"^tol must lie in \(0, 1\), got {tol!r}$"):
                chi_threshold(math.radians(22.5), SCG, q=2.0, tol=tol)

    @pytest.mark.parametrize("criterion, q, message", [
        ("XYZ", 2.0, "unknown criterion 'XYZ'"),
        ("XYZ", None, "unknown criterion 'XYZ'"),
        (SCG, None, "SCG threshold requires an entropic index q"),
        (SCG, 3.0, r"entropic index q must lie in \(0, 2\], got 3.0"),
        (SCG, math.nan, r"entropic index q must lie in \(0, 2\], got nan"),
        (SCG, True, r"entropic index q must lie in \(0, 2\], got True"),
        (SCG, "2", r"entropic index q must lie in \(0, 2\], got '2'"),
        (LSC, "x", r"entropic index q must lie in \(0, 2\], got 'x'"),
    ])
    def test_dispatch_messages(self, criterion, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            chi_threshold(math.radians(22.5), criterion, q=q)

    def test_lsc_checks_q(self):
        # LSC solves the last criteria_of row, so its q is checked as SCG's is, then unused
        theta = math.radians(7.5)
        with pytest.raises(ValueError) as info:
            chi_threshold(theta, LSC, q=3.0)
        assert str(info.value) == "entropic index q must lie in (0, 2], got 3.0"
        assert chi_threshold(theta, LSC, q=None) == chi_threshold(theta, LSC, q=2.0)

    def test_checks_theta_alone_never_the_constant_grid(self, monkeypatch):
        # the first batch is the constant grid k/128, so only theta needs its check
        cases = [(math.radians(deg), criterion, q) for deg in (0.0, 7.5, 22.5)
                 for criterion, q in ((SCG, 2.0), (LSC, None))]
        expected = [chi_threshold(theta, criterion, q=q) for theta, criterion, q in cases]
        spy(monkeypatch, criteria, "werner_like_parameters", forbid=True)
        assert [chi_threshold(theta, criterion, q=q) for theta, criterion, q in cases] == expected
        with pytest.raises(ValueError, match=r"^theta=nan \(nan deg\) outside \[0, pi/4\] "
                                             r"\(\[0, 45\] deg\)$"):
            chi_threshold(math.nan, LSC)

    # 0.9 stops at the grid's first level, 0.3 at its second, 1/64 at its sixth and 1/128 at
    # its last; 0.0078 and 1/256 take one halving past it, from the grid cell's neighbours
    @pytest.mark.parametrize("tol", [0.9, 0.3, 1 / 64, 1 / 128, 0.0078, 1 / 256, 1e-3, 1e-6,
                                     3e-7, 1e-12, 1e-300])
    @pytest.mark.parametrize("criterion, q", [(SCG, 2.0), (SCG, 1.5), (SCG, 1.0),
                                              (SCG, 0.5), (LSC, None)])
    def test_matches_bisection_bit_for_bit(self, criterion, q, tol):
        for theta in np.linspace(0.0, math.pi / 4, 19):
            try:
                expected = bisection_threshold(theta, criterion, q, tol)
            except SolverError:
                with pytest.raises(SolverError):
                    chi_threshold(theta, criterion, q, tol)
                continue
            got = chi_threshold(theta, criterion, q, tol)
            assert (got.chi.hex(), got.crossed) == (expected.chi.hex(), expected.crossed), theta

    @pytest.mark.parametrize("theta_deg, criterion, q, expected", [
        (22.5, SCG, 2.0, 2), (7.5, SCG, 2.0, 2), (7.5, SCG, 1.0, 2), (7.5, LSC, None, 2),
        (0.0, SCG, 2.0, 1),
    ])
    def test_default_tol_takes_two_kernel_calls(self, monkeypatch, theta_deg, criterion, q,
                                                expected):
        # the 129 points k/128 (monotonicity check and 7 halvings' midpoints), then one
        # look-ahead down the remaining 13 halvings from width 1/128 to at most 1e-6.
        # theta = 0 never crosses: one call, then the early return
        calls = spy(monkeypatch, criteria, "_criterion_lhs")
        crossed = chi_threshold(math.radians(theta_deg), criterion, q=q).crossed
        assert crossed == (expected > 1)
        assert [len(p) for p, _ in calls] == [129, 13][:expected]

    def test_scan_call_budget(self, monkeypatch):
        # 900 thresholds as analytic_scan solves them: 822 take 2 kernel calls, 76 take 3 and
        # 2 take 4 (the look-ahead's estimate lands on the wrong side of a midpoint)
        calls = spy(monkeypatch, criteria, "_criterion_lhs")
        thetas = np.random.default_rng(2027).uniform(0.0, math.pi / 8, 300).tolist()
        cases = [(theta, criterion, q) for theta in thetas
                 for criterion, q in ((SCG, 2.0), (SCG, 1.0), (LSC, None))]
        got = [chi_threshold(theta, criterion, q, 1e-6) for theta, criterion, q in cases]
        assert len(calls) <= 1880 and sum(len(p) for p, _ in calls) <= 128_859
        for i in range(0, len(cases), 45):  # 20 of them against plain bisection
            expected = bisection_threshold(*cases[i], 1e-6)
            assert (got[i].chi.hex(), got[i].crossed) == (expected.chi.hex(), expected.crossed)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("theta_deg", [19.5, 21.0, 24.0, 25.5])
    def test_root_next_to_one_takes_few_kernel_calls(self, monkeypatch, theta_deg, tol):
        # SCG q = 0.1 crosses within 1e-5 of chi = 1, where its slope diverges and no value
        # past chi = 1 guides the estimate; walking toward 1 follows bisection's own path
        theta = math.radians(theta_deg)
        expected = bisection_threshold(theta, SCG, 0.1, tol)  # its calls reach the entry too
        calls = spy(monkeypatch, criteria, "_criterion_lhs")
        got = chi_threshold(theta, SCG, 0.1, tol)
        assert (got.chi.hex(), got.crossed) == (expected.chi.hex(), expected.crossed)
        assert 1 <= len(calls) <= 4

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300, 5e-324])
    @pytest.mark.parametrize("criterion, q", [(SCG, 2.0), (LSC, None)])
    @pytest.mark.parametrize("theta_deg", [7.5, 22.5, 30.0])
    def test_poor_root_estimate_keeps_bisection_bits(self, monkeypatch, theta_deg, criterion,
                                                     q, tol):
        # a monotone distortion that keeps the root at the bound of 1 (SCG q = 2 and LSC)
        # but spoils the interpolated estimate: it may cost calls, never a bit.  The
        # reference distorts the unpatched entry, which criterion_values reaches too
        import helpers

        original = criteria._criterion_lhs

        def distort(v):
            return 1.0 + np.cbrt(np.cbrt(v - 1.0))

        def distorted_lhs(p, q):
            calls.append(len(p))
            return distort(original(p, q))

        def distorted_values(p, qs):
            bisection_calls.append(len(p))
            return {**{scg_key(q): distort(original(p, q)) for q in qs},
                    "lsc": distort(original(p, None))}

        calls, bisection_calls = [], []
        monkeypatch.setattr(criteria, "_criterion_lhs", distorted_lhs)
        monkeypatch.setattr(helpers, "criterion_values", distorted_values)
        theta = math.radians(theta_deg)
        got = chi_threshold(theta, criterion, q, tol)
        expected = bisection_threshold(theta, criterion, q, tol)
        assert (got.chi.hex(), got.crossed) == (expected.chi.hex(), expected.crossed)
        assert expected.crossed
        assert 1 <= len(calls) <= len(bisection_calls)  # bisection's iterations + 1

    def test_non_monotone_profile_raises(self, monkeypatch):
        # V-shaped stand-in profile: bisection preconditions must be rejected
        calls = []
        original = criteria._criterion_lhs
        monkeypatch.setattr(
            criteria, "_criterion_lhs",
            lambda p, q: calls.append(len(p)) or (original(p, q) / 3.0 - 0.25) ** 2,
        )
        with pytest.raises(SolverError, match="monotone"):
            chi_threshold(math.radians(22.5), SCG, q=2.0)
        assert calls == [129]


class TestClosedFormThresholds:
    """chi_threshold against the Werner-like family's closed forms, with no steerq kernel.

    The same-axis correlations are chi (z) and +-chi sin 4 theta (x, y), so LSC is violated
    above 1/sqrt(1 + 2 sin^2 4 theta).  SCG at q = 2 (bound 1) is violated above the root of
    chi^2 sin^2 4 theta = 2m [(chi a + m)/(chi a + 2m) + (chi b + m)/(chi b + 2m)], with
    a = cos^2 2 theta, b = sin^2 2 theta and m = (1 - chi)/4.  The threshold is the midpoint
    of a bracket at most tol wide around the root, so a kernel fault that moves the root by
    more than tol/2 fails here, while the bisection reference shares the kernel's fault.
    """

    THETAS = [math.radians(0.5 * k) for k in range(1, 46)]  # 0.5 to 22.5 deg
    EPS = np.finfo(float).eps

    @staticmethod
    def scg_q2_root(theta):
        a, b, s4 = math.cos(2 * theta) ** 2, math.sin(2 * theta) ** 2, math.sin(4 * theta) ** 2

        def gap(chi):  # -1/2 at chi = 0, sin^2 4 theta at chi = 1
            m = (1.0 - chi) / 4.0
            return chi * chi * s4 - 2 * m * ((chi * a + m) / (chi * a + 2 * m)
                                             + (chi * b + m) / (chi * b + 2 * m))

        lo, hi = 0.0, 1.0
        while (lo + hi) / 2.0 not in (lo, hi):
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if gap(mid) > 0.0 else (mid, hi)
        return (lo + hi) / 2.0

    @pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-12])
    def test_scg_q2(self, tol):
        for theta in self.THETAS:
            got = chi_threshold(theta, SCG, 2.0, tol)
            assert got.crossed
            assert abs(got.chi - self.scg_q2_root(theta)) <= tol / 2 + 4 * self.EPS, theta

    @pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-12])
    def test_lsc(self, tol):
        for theta in self.THETAS:
            got = chi_threshold(theta, LSC, None, tol)
            root = 1.0 / math.sqrt(1.0 + 2.0 * math.sin(4 * theta) ** 2)
            assert got.crossed
            assert abs(got.chi - root) <= tol / 2 + 4 * self.EPS, theta


class TestProperties:
    def test_q2_gives_widest_violation_margin(self):
        # for a steerable Werner state the bound-minus-lhs margin peaks at q = 2
        values = criterion_values(werner_tables(THETA_W, 0.7), (1.25, 1.5, 1.75, 2.0))
        margins = {q: scg_bound(q) - values[scg_key(q)]
                   for q in (1.25, 1.5, 1.75, 2.0)}
        assert margins[2.0] == max(margins.values())
        assert margins[2.0] > 0


KERNEL_QSETS = [(2.0, 1.0), (2.0, 1.0, 1.5), (0.5,), (0.1, 1.9)]


@pytest.fixture(scope="module")
def poisson_blocks():
    """Frequency blocks of Poisson resamples like the bootstrap's, plus edge tables.

    50 seeded records with cell means 0 to 29, a third of cells forced empty and
    every fifth record with an Alice outcome never seen (a zero marginal);
    resamples with an empty setting are dropped, as the bootstrap does.  Then
    deterministic settings (each SCG term at q < 1 is -0.0) and a block whose
    empty cells hold -0.0.
    """
    blocks = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        means = rng.integers(0, 30, size=(3, 2, 2)) * (rng.random((3, 2, 2)) > 0.3)
        if seed % 5 == 0:
            means[seed % 3, 1] = 0
        draws = rng.poisson(lam=means, size=(200, 3, 2, 2))
        draws = draws[np.all(draws.sum(axis=(-1, -2)) >= 1, axis=1)]
        blocks.append(reference_frequencies(draws))
    deterministic = np.zeros((4, 3, 2, 2))
    for i in range(4):
        deterministic[i, :, i // 2, i % 2] = 1.0
    blocks.append(deterministic)
    blocks.append(np.where(blocks[0] == 0.0, -0.0, blocks[0]))
    return blocks


def analytic_grids():
    """(101, 3, 2, 2) Werner-like tables at each of 19 thetas over [0, 45 deg]."""
    return [analytic_tensor(theta, np.linspace(0.0, 1.0, 101))
            for theta in np.linspace(0.0, math.pi / 4, 19)]


class TestKernelReference:
    """The slice-sum kernel against the axis-reduction reference, bit for bit."""

    @pytest.mark.parametrize("qs", KERNEL_QSETS)
    def test_poisson_blocks(self, poisson_blocks, qs):
        assert any(np.any(block.sum(axis=-1) == 0.0) for block in poisson_blocks[:50])
        assert sum(len(block) for block in poisson_blocks[:50]) > 5000
        for block in poisson_blocks:
            want = reference_criterion_values(block, qs)
            for key, value in criterion_values(block, qs).items():
                assert_same_bits(value, want[key])

    @pytest.mark.parametrize("qs", KERNEL_QSETS)
    def test_analytic_grids_and_points(self, qs):
        for grid in analytic_grids():
            points = [grid[i] for i in (0, 37, 81, 100)]
            for p in [grid, *points]:
                want = reference_criterion_values(p, qs)
                for key, value in criterion_values(p, qs).items():
                    assert_same_bits(value, want[key])

    def test_deterministic_settings_give_positive_zero(self, poisson_blocks):
        values = criterion_values(poisson_blocks[50], (0.5, 1.0, 2.0))
        for key in ("scg_q0.5", "scg_q1", "scg_q2"):
            assert_same_bits(values[key], np.zeros(4))


class TestBatchInvariance:
    """Each stack of a batch gets the bits it gets on its own (given tables)."""

    QS = (2.0, 1.0, 1.5, 0.5)

    def check(self, p):
        batch = criterion_values(p, self.QS)
        for i in range(len(p)):
            for key, value in criterion_values(p[i], self.QS).items():
                assert_same_bits(batch[key][i], value)

    def test_poisson_blocks(self, poisson_blocks):
        for block in poisson_blocks:
            self.check(block)

    def test_analytic_grids(self):
        for grid in analytic_grids():
            self.check(grid)


class TestLayoutInvariance:
    """The kernel's bits do not depend on how the tables lie in memory.

    The bootstrap hands the kernel cell-major tables (each p[..., i, j] one contiguous row), and
    analytic_tensor Fortran-ordered ones (reversed stride order: each p[..., i, j] one contiguous
    block over states and settings).  Both, and a strided view, give the C-ordered tables' bits,
    at both Shannon-routed neighbours of q = 1 too, and rows_values with its one Alice marginal
    gives each row's own _criterion_lhs bits, in row order.  Strides stay
    positive: numpy's vectorised power runs on those only, and rounds a few q = 1.5 cells
    differently from its scalar loop.
    """

    # 1 +- 5e-10 share q = 1's report key, so each rides in a set of its own
    QSETS = [(2.0, 1.0, 0.5, 1.5, 0.1), (1.0 + 5e-10,), (1.0 - 5e-10, 2.0)]

    @staticmethod
    def layouts(p):
        cell_major = np.asarray(p.reshape(-1, 4).T, order="C").T.reshape(p.shape)
        reversed_order = np.asfortranarray(p)
        assert cell_major[..., 1, 0].flags.c_contiguous and reversed_order.flags.f_contiguous
        return cell_major, reversed_order, np.repeat(p, 2, axis=0)[::2]

    def check(self, p, qs):
        p = np.ascontiguousarray(p)
        rows = criteria_of(qs)
        want = criterion_values(p, qs)
        for layout in self.layouts(p):
            assert np.array_equal(layout, p)
            got = criterion_values(layout, qs)
            in_row_order = criteria.rows_values(layout, rows)
            assert len(in_row_order) == len(rows)  # QSETS[0] is not in key order
            for c, value in zip(rows, in_row_order):
                assert_same_bits(got[c.key], want[c.key])
                assert_same_bits(value, want[c.key])
                assert_same_bits(criteria._criterion_lhs(layout, c.q), want[c.key])

    @pytest.mark.parametrize("qs", QSETS)
    def test_poisson_blocks(self, poisson_blocks, qs):
        assert any(np.any(block == 0.0) for block in poisson_blocks)
        for block in poisson_blocks:
            self.check(block, qs)

    @pytest.mark.parametrize("qs", QSETS)
    def test_analytic_grids_and_a_stack_of_stacks(self, qs):
        grids = analytic_grids()
        for grid in grids[::6]:  # theta = 0 holds zero cells, chi = 1 deterministic settings
            self.check(grid, qs)
        self.check(np.stack(grids[:4]), qs)


class TestAnalyticTensor:
    """The closed-form Werner-like tables against one-state joint_tensor, bit for bit."""

    EDGE_THETAS = (0.0, 5e-324, 1e-200, math.pi / 8, math.pi / 4, math.pi / 4 + 1e-12)
    EDGE_CHIS = (-0.0, 0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)
    QS = (2.0, 1.0, 1.5, 0.5)

    @classmethod
    def points(cls):
        rng = np.random.default_rng(12)
        edges = [(theta, chi) for theta in cls.EDGE_THETAS for chi in cls.EDGE_CHIS]
        return edges + list(zip(rng.uniform(0.0, math.pi / 4, 200), rng.uniform(0.0, 1.0, 200)))

    def test_single_state_matches_joint_tensor(self):
        for theta, chi in self.points():
            assert_same_bits(analytic_tensor(theta, chi)[0], werner_tables(theta, chi))

    def test_batch_matches_joint_tensor(self):
        rng = np.random.default_rng(13)
        chis = [*self.EDGE_CHIS, *rng.uniform(0.0, 1.0, 30)]
        for theta in [*self.EDGE_THETAS, *rng.uniform(0.0, math.pi / 4, 10)]:
            assert_same_bits(analytic_tensor(theta, chis),
                             np.stack([werner_tables(theta, chi) for chi in chis]))

    def test_batch_invariant(self):
        chis = np.linspace(0.0, 1.0, 65)
        for theta in np.linspace(0.0, math.pi / 4, 46):
            batch = analytic_tensor(theta, chis)
            values = criterion_values(batch, self.QS)
            for i, chi in enumerate(chis):
                one = analytic_tensor(theta, chi)
                assert_same_bits(batch[i], one[0])
                for key, value in criterion_values(one, self.QS).items():
                    assert_same_bits(values[key][i], value[0])

    def test_mixed_theta_batch_matches_single_theta_calls(self):
        # one cos 2 theta and sin 2 theta per row, as reproduce_tables passes them
        from steerq.criteria import _werner_tensor

        rng = np.random.default_rng(14)
        thetas = [*self.EDGE_THETAS, *rng.uniform(0.0, math.pi / 4, 40)]
        chis = [*self.EDGE_CHIS, *rng.uniform(0.0, 1.0, len(thetas) - len(self.EDGE_CHIS))]
        cos, sin = (np.array([f(2.0 * theta) for theta in thetas]) for f in (math.cos, math.sin))
        batch = _werner_tensor(cos, sin, np.array(chis))
        assert_same_bits(batch, np.concatenate([analytic_tensor(theta, chi)
                                                for theta, chi in zip(thetas, chis)]))

    def test_tables_are_cell_major(self):
        # Fortran order: the whole tensor, and each cell p[..., i, j] over states and settings,
        # is one contiguous block, for a grid, one chi and per-row cos/sin (reproduce_tables')
        from steerq.criteria import _werner_tensor

        rng = np.random.default_rng(15)
        angles = 2.0 * rng.uniform(0.0, math.pi / 4, 20)
        tensors = [analytic_tensor(0.3, np.linspace(0.0, 1.0, 101)), analytic_tensor(0.3, 0.5),
                   _werner_tensor(np.cos(angles), np.sin(angles), rng.uniform(0.0, 1.0, 20))]
        for p, states in zip(tensors, (101, 1, 20)):
            assert p.shape == (states, 3, 2, 2) and p.flags.f_contiguous
            for i in range(2):
                for j in range(2):
                    assert p[..., i, j].flags.f_contiguous

    def test_subnormal_cells_become_positive_zero(self):
        # at chi = 1, sin(2 theta)^2 = 4e-320 is subnormal: the z cells past (0, 0) come out
        # +0.0, so no negative power of a subnormal marginal overflows in the kernel
        p = analytic_tensor(1e-160, 1.0)[0]
        assert p[2].reshape(-1)[1:].tolist() == [0.0] * 3
        assert not np.signbit(p).any()
        assert all(np.isfinite(value) for value in criterion_values(p, self.QS).values())

    @pytest.mark.parametrize("theta, chi, message", [
        (math.nan, 0.5, "theta=nan (nan deg) outside [0, pi/4] ([0, 45] deg)"),
        (math.inf, 0.5, "theta=inf (inf deg) outside [0, pi/4] ([0, 45] deg)"),
        (-1e-300, 0.5, "theta=-1e-300 (-5.72957795131e-299 deg) outside [0, pi/4] ([0, 45] deg)"),
        (math.pi / 4 + 2e-12, 0.5,
         f"theta={math.pi / 4 + 2e-12!r} (45.0000000001 deg) outside [0, pi/4] ([0, 45] deg)"),
        (0.3, math.nan, "chi=nan outside [0, 1]"),
        (0.3, math.inf, "chi=inf outside [0, 1]"),
        (0.3, -1e-300, "chi=-1e-300 outside [0, 1]"),
        (0.3, 1.0 + 2.0**-52, "chi=1.0000000000000002 outside [0, 1]"),
        (0.3, [0.5, 1.0 + 2.0**-52, -1.0], "chi=1.0000000000000002 outside [0, 1]"),
        ("0.3", 0.5, "theta must be a real number, got '0.3'"),
        (None, 0.5, "theta must be a real number, got None"),
        (False, 0.5, "theta must be a real number, got False"),
    ], ids=["theta-nan", "theta-inf", "theta-negative", "theta-above-45deg",
            "chi-nan", "chi-inf", "chi-negative", "chi-above-1", "chi-vector",
            "theta-string", "theta-none", "theta-bool"])
    def test_range_messages(self, theta, chi, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analytic_tensor(theta, chi)
        if np.ndim(chi) == 0:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_werner_like(theta, chi)
