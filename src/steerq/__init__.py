"""steerq: steering detection on two-qubit states.

Evaluates the generalized entropic steering criterion (SCG) and the linear
steering criterion (LSC) on two-qubit states from the joint outcome
probabilities of three Pauli settings: analytically for Werner-like states, and
statistically from coincidence-count data with bootstrap error bars.
"""

from .criteria import (LSC, SCG, ChiThreshold, CriterionReport, SolverError,
                       analytic_tensor, chi_threshold, criterion_values, scg_bound, verdict)
from .expio import (CountsFormatError, EvaluationReport, ExperimentRecord,
                    evaluate_record, evaluate_state, parse_counts_csv,
                    report_to_json, reproduce_tables, serialize_counts_csv,
                    simulate_record, sweep_curve)
from .measure import AXES, correlations, spawn_generator
from . import qmat

__version__ = "0.7.0"

__all__ = [
    "AXES", "ChiThreshold", "CountsFormatError", "CriterionReport", "EvaluationReport",
    "ExperimentRecord", "LSC", "SCG", "SolverError", "analytic_tensor", "chi_threshold",
    "correlations", "criterion_values", "evaluate_record", "evaluate_state", "parse_counts_csv",
    "qmat", "report_to_json", "reproduce_tables", "scg_bound", "serialize_counts_csv",
    "simulate_record", "spawn_generator", "sweep_curve", "verdict",
]
