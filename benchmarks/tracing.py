"""Span recording for the traced run.

``install`` wraps every public function of the traced steerq modules at every
name it is bound to -- the package namespace, its own module, and each module
that imported it (``criteria.make_werner_like``, ``expio._joint_distribution``
and so on) -- so a call is recorded whichever binding the caller looks up.
Spans stay in memory as (name, start_ns, end_ns, parent, op) tuples and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("qmat", "measure", "criteria", "expio")
# Modules searched for bindings of the traced functions.  qentropy and cli
# are not traced themselves: qentropy is reached only by the entropic
# cross-check, and cli is argparse and file I/O around the same calls.
BINDING_MODULES = ("", "qmat", "qentropy", "measure", "criteria", "expio", "cli")

# Functions reported per layer, as <module>.<function>.
REPORTED = (
    "qmat.hermitian_eigendecompose", "qmat.validate_density",
    "qmat.make_werner_like", "qmat.fidelity",
    "measure.joint_distribution", "measure.estimate_distribution",
    "criteria.scg_lhs", "criteria.scg_lhs_cells", "criteria.lsc_value",
    "criteria.verdict", "criteria.analytic_joints", "criteria.chi_threshold",
    "expio.parse_counts_csv", "expio.evaluate_record", "expio.evaluate_state",
    "expio.sweep_curve", "expio.reproduce_tables", "expio.report_to_json",
)
OP_SPAN = "op"
NO_PARENT = -1


class Recorder:
    """In-memory span store; ``op`` is the id stamped on spans started now."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = NO_PARENT
        self.bindings: list = []  # (module, attr, original, wrapper)

    def enable(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) with the wrappers in place, under a root span for op."""
        self.op = op
        self.enable()
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            self.disable()
            self.op = NO_PARENT

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,op,parent,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{idx},{op},{parent},{name},{start},{end}\n")


def install(recorder: Recorder) -> dict[str, int]:
    """Prepare wrappers for the traced functions at all their bindings.

    Nothing is patched yet: ``Recorder.run_op`` puts the wrappers in place
    for one op.  Returns the number of bindings per function name.
    """
    wrappers = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"steerq.{short}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = (f"{short}.{attr}", recorder.wrap(f"{short}.{attr}", obj))
    bindings: dict[str, int] = defaultdict(int)
    for short in BINDING_MODULES:
        module = importlib.import_module("steerq" + (f".{short}" if short else ""))
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in wrappers:
                name, wrapper = wrappers[obj]
                recorder.bindings.append((module, attr, obj, wrapper))
                bindings[name] += 1
    return dict(bindings)


def summarize(spans: list) -> dict:
    """Per-function calls and self time, per-module self time, op totals."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    ops, op_ns = 0, 0
    threshold_calls, threshold_f_evals = 0, 0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if name == OP_SPAN:
            ops += 1
            op_ns += end - start
            continue
        calls[name] += 1
        self_ns[name] += end - start - child_ns[idx]
        if name == "criteria.chi_threshold":
            threshold_calls += 1
        elif name == "criteria.analytic_joints" and _under(spans, parent,
                                                             "criteria.chi_threshold"):
            threshold_f_evals += 1
    module_ns: dict[str, int] = defaultdict(int)
    for name, ns in self_ns.items():
        module_ns[name.split(".")[0]] += ns
    return {"ops": ops, "op_ns": op_ns, "calls": dict(calls), "self_ns": dict(self_ns),
            "module_ns": dict(module_ns), "threshold_calls": threshold_calls,
            "threshold_f_evals": threshold_f_evals}


def _under(spans: list, idx: int, name: str) -> bool:
    while idx != NO_PARENT:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def per_op_calls(spans: list) -> dict[int, dict[str, int]]:
    """Calls of each reported function, per op id."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, _, _, _, op in spans:
        if name in REPORTED:
            out[op][name] += 1
    return out
