"""Shared generators for randomized tests, the reference routes they compare against, the
one in-process CLI runner and the one call spy."""

import contextlib
import io
import json
import math
import warnings

import numpy as np

from steerq import DensityMatrix, criterion_values, make_werner_like, validate_density
from steerq.cli import EXIT_INPUT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from steerq.criteria import (_SMALLEST_NORMAL, BISECTION_MAX_ITER, LSC, LSC_BOUND,
                             MULTISECTION_BITS, SCG, ChiThreshold, SolverError, analytic_tensor,
                             criteria_of, scg_bound, scg_key)
from steerq.expio import BOOTSTRAP_STREAM, CURVE_CSV_HEADER, EvaluationReport, TableComparison
from steerq.measure import correlations, spawn_generator, table_totals

PROBABILITY_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
# sigma_x, sigma_y, sigma_z in the standard representation (sigma_y has entries -i, +i)
PAULIS = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
          np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
# PROJECTORS[k, i, j] = Pi_i x Pi_j for axis k, outcome i (Alice), j (Bob), with
# rank-1 eigenprojectors Pi_0 = (I + sigma_k)/2 (eigenvalue +1), Pi_1 = (I - sigma_k)/2
PROJECTORS = np.array([[[np.kron(pa, pb) for pb in pair] for pa in pair]
                       for pair in (((I2 + s) / 2.0, (I2 - s) / 2.0) for s in PAULIS)])

# Bell basis: (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
_BELL_VECTORS = np.array([
    [1, 0, 0, 1],
    [1, 0, 0, -1],
    [0, 1, 1, 0],
    [0, 1, -1, 0],
], dtype=complex) / np.sqrt(2)
# same-axis correlation signature (c_xx, c_yy, c_zz) of each Bell projector
BELL_CORRELATIONS = np.array([
    [1, -1, 1],
    [-1, 1, 1],
    [1, 1, -1],
    [-1, -1, -1],
], dtype=float)


def random_density(rng: np.random.Generator, dim: int = 4, rank=None) -> DensityMatrix:
    """Random state from the Ginibre ensemble, of full rank unless rank is given."""
    shape = (dim, dim if rank is None else rank)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return validate_density(rho / np.trace(rho).real)


def rebuilt_roots_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity as the trace norm of the product of the rebuilt square roots.

    qmat.fidelity must match to rounding: it takes the same singular values from
    the eigenvector factors without rebuilding either root.
    """
    def psd_sqrt(m: np.ndarray) -> np.ndarray:
        eigenvalues, vectors = np.linalg.eigh(m)  # m is a checked, exactly Hermitian matrix
        clamped = np.clip(eigenvalues, 0.0, None)
        clamped[clamped < 1e-14 * clamped.max()] = 0.0
        return (vectors * np.sqrt(clamped)) @ vectors.conj().T

    b = psd_sqrt(rho.matrix) @ psd_sqrt(sigma.matrix)
    value = float(np.sum(np.linalg.svd(b, compute_uv=False))) ** 2
    return min(max(value, 0.0), 1.0)


def reference_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity from one stacked eigh of both states, each clamped at its own top.

    The reference qmat.fidelity must match bit for bit: it reads the same factors
    V sqrt(lambda) from the decomposition each state's PSD check made.
    """
    eigenvalues, vectors = np.linalg.eigh(np.stack([rho.matrix, sigma.matrix]))
    clamped = np.clip(eigenvalues, 0.0, None)
    clamped[clamped < 1e-14 * clamped.max(axis=1, keepdims=True)] = 0.0
    factors = vectors * np.sqrt(clamped)[:, np.newaxis, :]
    b = factors[0].conj().T @ factors[1]
    value = float(np.sum(np.linalg.svd(b, compute_uv=False))) ** 2
    return min(max(value, 0.0), 1.0)


def reference_werner_matrix(theta: float, chi: float) -> np.ndarray:
    """chi |phi><phi| + (1 - chi) I/4 built from the outer product of |phi>.

    The reference qmat.make_werner_like must match bit for bit: it writes the
    same entries from their closed form.
    """
    phi = np.array([math.cos(2.0 * theta), 0.0, 0.0, math.sin(2.0 * theta)], dtype=complex)
    return chi * np.outer(phi, phi.conj()) + (1.0 - chi) * np.eye(4) / 4.0


def random_bell_diagonal(rng: np.random.Generator):
    """Random mixture of the four Bell projectors; returns (state, weights).

    Bell-diagonal states have vanishing local Bloch vectors and a diagonal
    correlation matrix with diag = weights @ BELL_CORRELATIONS.
    """
    weights = rng.dirichlet(np.ones(4))
    rho = np.zeros((4, 4), dtype=complex)
    for w, vec in zip(weights, _BELL_VECTORS):
        rho += w * np.outer(vec, vec.conj())
    return validate_density(rho), weights


def _checked_cells(p: np.ndarray) -> np.ndarray:
    """Checked copy of a (..., 2, 2) stack of joint tables, negative cells zeroed.

    No cell may be NaN or lie below -PROBABILITY_TOL and every table must sum
    to 1 within PROBABILITY_TOL; the error names an offending value.  Cells
    below the smallest normal float are set to zero: no criterion can tell
    them from zero, and their negative powers overflow.
    """
    if not (p >= -PROBABILITY_TOL).all():  # also False for NaN
        raise ValueError(f"{'negative' if p.min() < 0 else 'NaN'} cell probability: {p.min()}")
    p = np.where(p < _SMALLEST_NORMAL, 0.0, p)
    totals = table_totals(p)
    within = np.abs(totals - 1.0) <= PROBABILITY_TOL
    if not within.all():
        raise ValueError(f"cell probabilities sum to {float(totals[~within][0])}, not 1")
    return p


def joint_tensor(matrices) -> np.ndarray:
    """Checked (..., 3, 2, 2) joint tables p[k, i, j] = tr(rho Pi_i x Pi_j) of a state stack."""
    if np.shape(matrices)[-2:] != (4, 4):
        raise ValueError(f"joint tables need two-qubit states, got shape {np.shape(matrices)}")
    return _checked_cells(np.einsum("...ab,kijba->...kij", matrices, PROJECTORS).real)


def werner_tables(theta: float, chi: float) -> np.ndarray:
    """(3, 2, 2) joint tables of one Werner-like state, through its density matrix.

    The reference criteria.analytic_tensor must match bit for bit: its closed form
    takes this one-state einsum's summation order.
    """
    return joint_tensor(make_werner_like(theta, chi).matrix)


def _is_shannon(q: float) -> bool:
    return abs(q - 1.0) < 1e-9


def ln_q(x, q: float):
    """Deformed logarithm (x^(1-q) - 1) / (1 - q) of positive x; ln x within 1e-9 of q = 1."""
    return np.log(x) if _is_shannon(q) else (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _pq_ln_q(x: np.ndarray, q: float) -> np.ndarray:
    """x^q ln_q(x) of positive x, written as (x - x^q) / (1 - q) so that it stays
    finite where x^q underflows and ln_q(x) overflows; x ln x in the Shannon limit."""
    return x * np.log(x) if _is_shannon(q) else (x - x ** q) / (1.0 - q)


def tsallis_entropy(p, q: float) -> float:
    """-sum p^q ln_q(p) with 0^q ln_q(0) := 0; the Shannon entropy at q = 1."""
    arr = np.asarray(p, dtype=float)
    return float(-np.sum(_pq_ln_q(arr[arr > 0.0], q)))


def conditional_tsallis(p: np.ndarray, q: float) -> float:
    """S_q(B|A) = S_q(A, B) - S_q(A) of one (2, 2) joint table p[i, j], i = Alice."""
    return tsallis_entropy(p.reshape(-1), q) - tsallis_entropy(p.sum(axis=1), q)


def correction_term(p: np.ndarray, q: float) -> float:
    """sum_i p_i^q [ln_q p_i]^2 - sum_ij p_ij^q ln_q(p_i) ln_q(p_ij) of one (2, 2) table.

    p_i is the marginal of the conditioning side (Alice); cells or marginals
    equal to zero contribute nothing.
    """
    marginal = p.sum(axis=1)
    # empty entries are moved to 1, where ln_q and p^q ln_q(p) vanish
    safe_m = np.where(marginal > 0.0, marginal, 1.0)
    safe_p = np.where(p > 0.0, p, 1.0)
    lq_m = ln_q(safe_m, q)
    first = np.sum(_pq_ln_q(safe_m, q) * lq_m)
    second = np.sum(_pq_ln_q(safe_p, q) * lq_m[:, np.newaxis])
    return float(first - second)


def scg_lhs_entropic(p, q: float) -> float:
    """SCG left-hand side as sum_k [S_q(B|A) + (1-q) C(A, B)] of checked (S, 2, 2) tables.

    The entropic form: criteria.criterion_values evaluates the algebraically
    identical probability form, and must agree to rounding.
    """
    w = 0.0 if _is_shannon(q) else 1.0 - q  # no correction in the Shannon limit
    return float(sum(conditional_tsallis(t, q) + w * correction_term(t, q)
                     for t in _checked_cells(np.asarray(p, dtype=float))))


def mub_bound(d: int, m: int, q: float) -> float:
    """m * ln_q(m d / (d + m - 1)) for m mutually unbiased bases in dimension d."""
    return m * ln_q(m * d / (d + m - 1), q)


def shannon_bound(d: int) -> float:
    """Shannon-limit bound for a complete set of MUBs; parity-dependent in d."""
    if d % 2 == 1:
        return (d + 1) * math.log((d + 1) / 2.0)
    return (d / 2.0) * math.log(d / 2.0) + (d / 2.0 + 1.0) * math.log(d / 2.0 + 1.0)


def scg(p: np.ndarray, q: float) -> float:
    """SCG left-hand side at index q of one (3, 2, 2) table stack."""
    return float(criterion_values(p, (q,))[scg_key(q)])


def checked_table(cells) -> np.ndarray:
    """One (2, 2) joint table from four cells p00, p01, p10, p11, through the one check."""
    return _checked_cells(np.asarray(cells, dtype=float).reshape(2, 2))


def bisection_threshold(theta: float, criterion: str = SCG, q=2.0,
                        tol: float = 1e-6) -> ChiThreshold:
    """Plain bisection for the chi threshold: the reference criteria.chi_threshold must match.

    Same preconditions and early returns as chi_threshold; one scalar
    evaluation per halving.
    """
    if criterion == SCG:
        qs, key, bound, violation_sign = (q,), scg_key(q), scg_bound(q), -1
    else:
        qs, key, bound, violation_sign = (), "lsc", LSC_BOUND, +1

    def f(chis) -> np.ndarray:
        return criterion_values(analytic_tensor(theta, chis), qs)[key] - bound

    def violated(value: float) -> bool:
        return value * violation_sign > 0.0

    samples = f(np.arange(2 ** MULTISECTION_BITS + 1) / 2 ** MULTISECTION_BITS)
    diffs = np.diff(samples)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise SolverError("profile over chi is not strictly monotone")
    if violated(samples[0]):
        return ChiThreshold(0.0, True)
    if not violated(samples[-1]):
        return ChiThreshold(1.0, False)

    lo, hi = 0.0, 1.0  # f not violated at lo, violated at hi
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if violated(f(mid)[0]):
            hi = mid
        else:
            lo = mid
    return ChiThreshold((lo + hi) / 2.0, True)


def assert_same_bits(a, b) -> None:
    """a and b hold the same float64 bit patterns: values, signed zeros and shape."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_scg_lhs(p: np.ndarray, q: float) -> np.ndarray:
    """The SCG kernel as numpy reductions over the tiny axes: the reference the
    slice-sum criteria._criterion_lhs must match bit for bit."""
    p = np.asarray(p, dtype=float)
    marginal = p.sum(axis=-1)
    if _is_shannon(q):
        safe_p = np.where(p > 0.0, p, 1.0)
        joint_h = -np.sum(p * np.log(safe_p), axis=(-1, -2))
        safe_m = np.where(marginal > 0.0, marginal, 1.0)
        marg_h = -np.sum(marginal * np.log(safe_m), axis=-1)
        return np.sum(joint_h - marg_h, axis=-1)
    safe_m = np.where(marginal > 0.0, marginal, 1.0)[..., :, np.newaxis]
    terms = np.where(p > 0.0, p ** q * safe_m ** (1.0 - q), 0.0)
    inner = np.sum(terms, axis=(-1, -2))
    return np.sum((1.0 - inner) / (q - 1.0), axis=-1)


def reference_criterion_values(p: np.ndarray, qs) -> dict:
    """criteria.criterion_values with axis reductions, through reference_scg_lhs.

    The reductions run on a C-ordered copy: np.sum(axis=...) and np.linalg.norm(axis=-1) add
    in memory order, so on Fortran-ordered tables (analytic_tensor's) they round otherwise."""
    p = np.ascontiguousarray(p)
    values = {c.key: reference_scg_lhs(p, c.q) for c in criteria_of(qs)[:-1]}  # LSC is last
    values["lsc"] = np.linalg.norm(correlations(p), axis=-1)
    return values


def reference_frequencies(counts: np.ndarray) -> np.ndarray:
    """n_ij / N of a (..., 2, 2) count stack as float counts over an einsum total: the bits of
    evaluate_record's cell-major divide, since every total below 2**53 is exact."""
    counts = np.asarray(counts, dtype=float)
    return counts / np.einsum("...ij->...", counts)[..., np.newaxis, np.newaxis]


def reference_bootstrap_error_bars(counts, qs, resamples: int, seed: int,
                                   chunk: int) -> dict:
    """Bootstrap error bars with the einsum filter, reference_frequencies and the
    reference kernel; expio's error bars must match them bit for bit."""
    rng = spawn_generator(seed, BOOTSTRAP_STREAM)
    samples: dict = {}
    for start in range(0, resamples, chunk):
        size = min(chunk, resamples - start)
        draws = rng.poisson(lam=counts, size=(size, 3, 2, 2))
        draws = draws[np.all(np.einsum("rkij->rk", draws) >= 1, axis=1)]
        p = reference_frequencies(draws)
        for key, values in reference_criterion_values(p, qs).items():
            samples.setdefault(key, []).append(values)
    return {key: float(np.std(np.concatenate(parts), ddof=1))
            for key, parts in samples.items()}


def reference_curve_to_csv(rows: np.ndarray) -> str:
    """expio.curve_to_csv as one bound str.format per row: the reference the
    one-%-call renderer must match byte for byte."""
    line = ",".join(["{:.12g}"] * rows.shape[1]).format
    return "\n".join([CURVE_CSV_HEADER, *(line(*row) for row in rows.tolist())]) + "\n"


def reference_comparison_to_text(cmp: TableComparison) -> str:
    """expio.comparison_to_text as one f-string per row: the reference the
    one-%-call renderer must match byte for byte."""
    lines = [f"{'family':<16} {'chi':>5} {'criterion':<9} "
             f"{'analytic':>10} {'measured':>10} {'deviation':>10}"]
    deviations = [row.deviation for row in cmp.rows]
    for row, deviation in zip(cmp.rows, deviations):
        lines.append(f"{row.family:<16} {row.chi:>5.2f} {row.criterion:<9} "
                     f"{row.analytic:>10.4f} {row.measured:>10.4f} {deviation:>10.4f}")
    lines.append(f"entries: {len(cmp.rows)}  max deviation: {max(deviations):.4f}  "
                 f"within 0.01: {sum(d <= 0.01 for d in deviations)}")
    return "\n".join(lines) + "\n"


def reference_report_to_json(report: EvaluationReport) -> str:
    """expio.report_to_json as json.dumps of the report's document with indent=2: the
    reference the one-encoder-call renderer must match byte for byte."""
    doc = {
        "label": report.label,
        "criteria": [vars(c) for c in report.criteria],  # CriterionReport fields, in order
        "probabilities": report.probabilities,
        "totals": report.totals,
        "bounds": {"lsc" if c.criterion == LSC else scg_key(c.q): c.bound
                   for c in report.criteria},
        "seed": report.seed,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def cpu_tier() -> str:
    """The tier of numpy's vector loops that the golden digests are keyed by: "libm" when
    np.log rounds as math.log on a fixed grid, as numpy's AVX2 and baseline loops do, and
    "avx512" when it does not, as its AVX-512 loops (up to 1 ulp off; 9 of these 20000
    points on an AVX-512 Xeon).  NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"
    selects the libm tier there."""
    x = np.linspace(0.01, 100.0, 20_000)
    return "libm" if np.log(x).tolist() == [math.log(v) for v in x.tolist()] else "avx512"


def counts_csv(cells: dict, default=10) -> str:
    """Counts CSV with every cell at default, except the (setting, outcome) keys given."""
    rows = ["setting,outcome,count"] + [
        f"{s},{o},{cells.get((s, o), default)}" for s in "xyz" for o in ("00", "01", "10", "11")
    ]
    return "\n".join(rows) + "\n"


def run_cli(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of steerq's main(argv), held to its clean-exit contract:
    exit 0, 2, 3 or 4 (argparse's SystemExit counts as its code), no warning recorded and no
    traceback; on success nothing on stderr, on failure no stdout and exactly one line of
    stderr that contains "error:"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_IO)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
    return code, out, err


def spy(monkeypatch, owner, name: str, forbid: bool = False) -> list:
    """Patch owner.name to record the positional arguments of each call and call through;
    the list of argument tuples is returned.  With forbid, each call raises AssertionError
    before the real one runs, so that a check meant to come first never allocates."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args):
        if forbid:
            raise AssertionError(f"{name} called")
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls
