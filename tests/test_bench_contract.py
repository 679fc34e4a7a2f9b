"""What the benchmark in benchmarks/ needs from steerq, read from its own files.

The traced run imports every module that ``tracing`` names, and each workload's
op must pass its workload's oracle check; a deletion in steerq that breaks either
fails here as well as in the benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import steerq

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing
import workloads


def test_modules_the_traced_run_names_import():
    for short in {*tracing.TRACED_MODULES, *tracing.BINDING_MODULES}:
        importlib.import_module("steerq" + (f".{short}" if short else ""))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_op_zero_passes_the_workload_oracle(workload):
    make_input, run, check = workloads.WORKLOADS[workload]
    inp = make_input(0, 0)
    check(inp, run(steerq, inp, 0), 0)
