"""Property tests of the tensor core and the counts pipeline.

That the kernel's probability form of SCG agrees with the entropic form is
checked twice against the test oracle ``helpers.scg_lhs_entropic``: on
analytic states, where the batched kernel is also compared with the
per-state einsum route ``helpers.werner_tables``, and on relative frequencies
of sparse counts, with empty cells and empty Alice rows.  Soundness is checked
on states with a local-hidden-state model: product states, their mixtures
and the Werner state up to its threshold violate neither criterion beyond
rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import I2, PAULIS, joint_tensor, scg, scg_lhs_entropic, werner_tables
from steerq import (correlations, evaluate_record, frequencies, parse_counts_csv,
                    report_to_json, serialize_counts_csv)
from steerq.criteria import analytic_tensor, criteria_of, criterion_values
from steerq.expio import COUNT_LIMIT, ExperimentRecord

QS = (2.0, 1.5, 1.0)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(theta=st.floats(0.0, math.pi / 4),
       chis=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_batched_kernel_matches_per_state_route(theta, chis):
    values = criterion_values(analytic_tensor(theta, chis), QS)
    for idx, chi in enumerate(chis):
        p = werner_tables(theta, chi)
        for q in QS:
            assert abs(values[f"scg_q{q:g}"][idx] - scg_lhs_entropic(p, q)) <= 1e-12
        lsc = np.linalg.norm(correlations(p))
        assert abs(values["lsc"][idx] - lsc) <= 1e-12
    assert set(values) == {"scg_q2", "scg_q1.5", "scg_q1", "lsc"}
    assert np.shape(values["lsc"]) == (len(chis),)


@st.composite
def sparse_count_tensors(draw):
    """(3, 2, 2) counts below 2**51 per cell, often with empty cells and Alice rows."""
    cell = st.one_of(st.integers(1, 2**51 - 1), st.just(0))
    counts = np.array(draw(st.lists(cell, min_size=12, max_size=12))).reshape(3, 2, 2)
    for k in range(3):  # a setting needs one count; put it in a drawn cell
        if not counts[k].any():
            counts[k].flat[draw(st.integers(0, 3))] = 1
    return counts


@settings(PROPERTY, max_examples=300)
@given(counts=sparse_count_tensors())
def test_kernel_matches_entropic_route_on_counts(counts):
    p = frequencies(counts)
    for q in (2.0, 1.5, 1.0 + 5e-10, 1.0, 1.0 - 5e-10, 0.5):  # 1 +- 5e-10 share q = 1's key
        assert abs(scg(p, q) - scg_lhs_entropic(p, q)) <= 1e-12


@st.composite
def count_tensors(draw, low=1, limit=COUNT_LIMIT):
    """Valid (3, 2, 2) counts: each setting's total in [low, limit), split at random."""
    tables = []
    for _ in range(3):
        total = draw(st.integers(low, limit - 1))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=3, max_size=3)))
        tables.append(np.diff([0, *cuts, total]))
    return np.array(tables, dtype=np.int64).reshape(3, 2, 2)


@PROPERTY
@given(counts=count_tensors())
def test_counts_csv_round_trip(counts):
    text = serialize_counts_csv(ExperimentRecord("r", counts))
    back = parse_counts_csv(text)
    assert np.array_equal(back.counts, counts)
    assert serialize_counts_csv(back) == text


@PROPERTY
@given(counts=count_tensors(low=100, limit=10**7), data=st.data())
def test_report_invariant_under_row_order_and_comments(counts, data):
    canonical = serialize_counts_csv(ExperimentRecord("r", counts))
    header, *rows = canonical.splitlines()
    rows = data.draw(st.permutations(rows))
    lines = [header, *rows]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, "# " + data.draw(st.text("abc ,#01xyz", max_size=12)))

    def report(text):
        rec = parse_counts_csv(text, label="run")
        return report_to_json(evaluate_record(rec, qs=QS, bootstrap=50, seed=3))

    assert report("\n".join(lines)) == report(canonical)


@PROPERTY
@given(theta=st.floats(0.0, math.pi / 4),
       chis=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
def test_scg_non_increasing_in_chi(theta, chis):
    values = criterion_values(analytic_tensor(theta, sorted(chis)), QS)
    for q in QS:
        assert np.all(np.diff(values[f"scg_q{q:g}"]) <= 1e-12)


SOUNDNESS_QS = (0.1, 0.5, 1.0 - 2e-9, 1.0, 1.0 + 2e-9, 1.5, 2.0)
MARGIN_LIMIT = 32 * np.finfo(float).eps  # pure product states sit on the q = 2 bound


def pure_qubits(rng, shape):
    """Haar-random pure qubit projectors of the given batch shape."""
    psi = rng.normal(size=(*shape, 2)) + 1j * rng.normal(size=(*shape, 2))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    return psi[..., :, np.newaxis] * psi[..., np.newaxis, :].conj()


def separable_tables(rng, n, terms):
    """Joint tables of n random mixtures of `terms` pure product states."""
    alice, bob = pure_qubits(rng, (n, terms)), pure_qubits(rng, (n, terms))
    products = np.einsum("ntab,ntcd->ntacbd", alice, bob).reshape(n, terms, 4, 4)
    weights = rng.dirichlet(np.ones(terms), size=n)
    return joint_tensor(np.einsum("nt,ntab->nab", weights, products))


def test_states_with_a_local_hidden_state_model_violate_nothing_beyond_rounding():
    """Violation margins (bound - lhs for SCG, lhs - 1 for LSC) of unsteerable inputs."""
    rng = np.random.default_rng(2018)
    families = {f"{terms} product states": separable_tables(rng, 4000, terms)
                for terms in (1, 2, 3, 4)}
    eigenstates = np.array([(I2 + sign * s) / 2.0 for s in PAULIS for sign in (1.0, -1.0)])
    families["Pauli eigenstate products"] = joint_tensor(  # on the q = 1 bound
        np.einsum("sab,tcd->stacbd", eigenstates, eigenstates).reshape(36, 4, 4))
    families["Werner, 22.5 deg"] = analytic_tensor(math.pi / 8,
                                                   np.linspace(0.0, 1.0 / math.sqrt(3.0), 4000))
    for name, p in families.items():
        for q in SOUNDNESS_QS:  # one kernel call per q: 1 +- 2e-9 share q = 1's report key
            scg_row, lsc_row = criteria_of((q,))
            values = criterion_values(p, (q,))
            assert np.max(scg_row.bound - values[scg_row.key]) <= MARGIN_LIMIT, (name, q)
            assert np.max(values[lsc_row.key] - lsc_row.bound) <= MARGIN_LIMIT, name
