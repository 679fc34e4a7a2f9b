"""steerq: steering detection on two-qubit states.

Evaluates the generalized entropic steering criterion (SCG) and the linear
steering criterion (LSC) on two-qubit states, both analytically from density
matrices and statistically from coincidence-count data with bootstrap error
bars.
"""

from .criteria import (LSC, SCG, ChiThreshold, CriterionReport, SolverError,
                       analytic_tensor, chi_threshold, criterion_values, mub_bound,
                       scg_bound, scg_lhs_entropic, shannon_bound, verdict)
from .expio import (CountsFormatError, EvaluationReport, ExperimentRecord,
                    evaluate_record, evaluate_state, parse_counts_csv,
                    report_to_json, reproduce_tables, serialize_counts_csv,
                    simulate_record, sweep_curve)
from .measure import AXES, correlations, frequencies, joint_tensor, spawn_generator
from .qentropy import (conditional_tsallis, correction_term, ln_q,
                       shannon_entropy, tsallis_entropy)
from .qmat import (DensityMatrix, MatrixValidationError, bell_phi_plus, fidelity,
                   hermitian_eigendecompose, make_werner_like, maximally_mixed,
                   validate_density)

__version__ = "0.2.0"

__all__ = [
    "AXES", "ChiThreshold", "CountsFormatError", "CriterionReport", "DensityMatrix",
    "EvaluationReport", "ExperimentRecord", "LSC", "MatrixValidationError", "SCG",
    "SolverError", "analytic_tensor", "bell_phi_plus", "chi_threshold",
    "conditional_tsallis", "correction_term", "correlations", "criterion_values",
    "evaluate_record", "evaluate_state", "fidelity", "frequencies",
    "hermitian_eigendecompose", "joint_tensor", "ln_q", "make_werner_like",
    "maximally_mixed", "mub_bound", "parse_counts_csv", "report_to_json",
    "reproduce_tables", "scg_bound", "scg_lhs_entropic", "serialize_counts_csv",
    "shannon_bound", "shannon_entropy", "simulate_record", "spawn_generator",
    "sweep_curve", "tsallis_entropy", "validate_density", "verdict",
]
