"""The kernel's accuracy against a 50-digit evaluation of its formulas.

The bit pins elsewhere compare with float oracles that round through the same numpy, so they
cannot tell a last-bit move (a numpy upgrade, another CPU tier) from a loss of accuracy.  Here
``decimal`` at precision 50 evaluates SCG and LSC on the exact float cells, with powers as
exp(y ln x), and each float result must lie within a stated number of ulps of it.

An error is counted in ulps of the larger of |exact| and 1.  A verdict compares the lhs with
a bound of at least 1 (3 ln_q(3/2) falls to 1 at q = 2, and LSC's is 1), so that is the scale
its margin is read at.  Below 1 the kernel's 1 - sum p^q m^(1-q) and its q = 1 difference
cancel on near-deterministic settings: the count table at lhs 0.0023 (q = 2) is off by 392
ulps of itself, 1.7e-16, which is 0.77 ulp of 1.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from steerq.criteria import _criterion_lhs, analytic_tensor, scg_bound

PRECISION = 50
KERNEL_ULPS = 16  # worst seen: 6.4, SCG q = 0.5 on the analytic grid, on both CPU tiers
QS = (2.0, 1.0, 1.5, 0.5, 0.1)
BOUND_ULPS = {2.0: 0.5, 1.0: 0.5, 1.5: 0.5, 0.1: 0.5, 0.5: 4.0}  # q = 0.5 measured: 2.93


def count_tables() -> np.ndarray:
    """40 seeded frequency tables n_ij / N_k, cells of 1 to 6 digits; 5 have a zero cell."""
    rng = np.random.default_rng(12)
    counts = rng.integers(1, 10 ** rng.integers(1, 7, size=(40, 3, 2, 2)))
    for table, cell in zip(counts[:5], rng.integers(0, 12, size=5)):
        table.reshape(-1)[cell] = 0
    return counts / counts.sum(axis=(-2, -1), keepdims=True)


TABLES = {"counts": count_tables(), "analytic": analytic_tensor(0.3, np.linspace(0.0, 1.0, 101))}


def exact_values(p: np.ndarray, qs) -> dict:
    """{q: [SCG lhs of each table]} and {None: [LSC]}, as Decimals from the exact cells."""
    out = {q: [] for q in (*qs, None)}
    with localcontext() as ctx:
        ctx.prec = PRECISION
        for table in p.tolist():
            cells = [[[Decimal(v) for v in row] for row in setting] for setting in table]
            out[None].append(sum(((a - b - c + d) ** 2 for (a, b), (c, d) in cells),
                                 Decimal(0)).sqrt())
            marginals = [[a + b for a, b in setting] for setting in cells]
            flat = [x for setting in cells for row in setting for x in row]
            log = {x: x.ln() for x in flat + sum(marginals, []) if x > 0}
            for q in qs:
                dq = Decimal(q)
                total = Decimal(0)
                for setting, m in zip(cells, marginals):
                    if q == 1.0:  # sum m ln m - sum p ln p
                        total += sum((mi * log[mi] for mi in m if mi > 0), Decimal(0))
                        total -= sum((x * log[x] for row in setting for x in row if x > 0),
                                     Decimal(0))
                    else:  # (1 - sum p^q m^(1-q)) / (q - 1)
                        s = sum(((dq * log[x] + (1 - dq) * log[mi]).exp()
                                 for row, mi in zip(setting, m) for x in row if x > 0),
                                Decimal(0))
                        total += (1 - s) / (dq - 1)
                out[q].append(total)
    return out


def ulps(value: float, exact: Decimal) -> float:
    """|value - exact| in ulps of max(|exact|, 1)."""
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(max(abs(float(exact)), 1.0))))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_kernel_within_ulps_of_50_digits(name):
    p = TABLES[name]
    exact = exact_values(p, QS)
    worst = {q: max(ulps(v, e) for v, e in zip(_criterion_lhs(p, q).tolist(), exact[q]))
             for q in (*QS, None)}
    assert max(worst.values()) <= KERNEL_ULPS, worst


def test_scg_bound_within_ulps_of_50_digits():
    with localcontext() as ctx:
        ctx.prec = PRECISION
        for q, bound_ulps in BOUND_ULPS.items():
            dq = Decimal(q)
            exact = (2 * Decimal(2).ln() if q == 1.0
                     else 3 * (((1 - dq) * Decimal(1.5).ln()).exp() - 1) / (1 - dq))
            assert ulps(scg_bound(q), exact) <= bound_ulps, q
