"""steerq benchmark: one workload per run, single process, closed loop.

    python3 benchmarks/run.py --workload counts_eval --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 30

One caller issues ops back to back, each after the previous one returned,
calling the same public functions the CLI verbs call, in-process (one
interpreter start per op would swamp ops of a few ms; that start-up is
measured separately as ``setup_s``).  Every op's output is checked against
the closed form in ``oracle``; a mismatch or an exception counts the op as
failed.  Op times are scaled for machine-speed drift (see ``closedloop``).

``--trace 0`` times ops with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` runs each op twice, untraced and then with the
steerq layers wrapped (see ``tracing``), and prints per-layer metrics and
the tracing overhead between the two.  The last stdout line is the JSON
result; the line before it, starting with ``detail``, carries the issue's
per-workload metric names, unscaled times and run metadata.  ``--all`` runs
each workload in its own process and prints those names.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so a solver swap measures the
# program rather than thread scheduling on a few shared cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import closedloop
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# Issue-facing metric names per workload: (name, unit, source key).
NAMED = {
    "counts_eval": (("eval_per_s", "1/s", "ops_per_s"),
                    ("eval_p50_ms", "ms", "op_p50_ms"),
                    ("eval_p90_ms", "ms", "op_p90_ms")),
    "state_point": (("state_per_s", "1/s", "ops_per_s"),
                    ("state_p50_ms", "ms", "op_p50_ms"),
                    ("state_p90_ms", "ms", "op_p90_ms")),
    "analytic_scan": (("scan_jobs_per_s", "1/s", "ops_per_s"),
                      ("sweep_p50_ms", "ms", "sweep_p50_ms"),
                      ("threshold_p50_ms", "ms", "threshold_p50_ms"),
                      ("tables_p50_ms", "ms", "tables_p50_ms")),
}
COMMON = (("setup_s", "s", "setup_s"), ("peak_rss_mb", "MiB", "peak_rss_mb"),
          ("error_rate", "ratio", "error_rate"))
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def import_steerq():
    """Import steerq from this checkout's src/, refusing any other copy."""
    if not (SRC / "steerq" / "__init__.py").is_file():
        print(f"error: {SRC / 'steerq'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import steerq
    if Path(steerq.__file__).resolve().parent != SRC / "steerq":
        sys.exit(f"error: imported steerq from {steerq.__file__}, not {SRC}")
    return steerq


def measure(steerq, workload: str, seed: int, seconds: float, recorder=None) -> dict:
    res = closedloop.measure(steerq, workloads.WORKLOADS[workload], seed, seconds,
                             recorder)
    for error in res["errors"]:
        print(error, file=sys.stderr)
    if not res["latencies"]:
        sys.exit(f"error: all {res['attempted']} {workload} ops raised")
    return res


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3


def _p90_ms(values) -> float:
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=10)[8] * 1e3


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing steerq and finishing op 0.

    Not scaled by the calibration: the spawn is too short to calibrate around.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--first-op",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for repeat in range(SETUP_REPEATS + 1):  # the first spawn warms caches
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait returns as the child exits; wait(timeout=...) polls
        # at up to 50 ms intervals, which would quantize the measurement.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        if repeat:
            times.append(elapsed)
    return statistics.median(times)


def first_op(workload: str, seed: int) -> None:
    """Op 0 only; its output is checked by the measured run, not here."""
    steerq = import_steerq()
    make_input, run, _ = workloads.WORKLOADS[workload]
    run(steerq, make_input(seed, 0), 0)


def metadata(steerq) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((SRC / "steerq").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "steerq": getattr(steerq, "__version__", None), "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def end_to_end(steerq, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    res = measure(steerq, workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, raw = res["scaled"], res["latencies"]
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": _p50_ms(lat),
        "op_p90_ms": _p90_ms(lat),
        "setup_s": setup_seconds(workload, seed),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": res["failed"] / res["attempted"],
    }
    for stage, samples in res["scaled_stages"].items():
        values[f"{stage}_p50_ms"] = _p50_ms(samples)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    named = {name: {"value": values[key], "unit": unit}
             for name, unit, key in NAMED[workload] + COMMON}
    unscaled = {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": _p50_ms(raw),
                "op_p90_ms": _p90_ms(raw),
                "speed_scale_p50": statistics.median(res["scale"])}
    detail = {"workload": workload, "trace": 0, "metrics": named,
              "unscaled": unscaled,
              "samples": {"ops": len(lat),
                          **{s: len(v) for s, v in res["scaled_stages"].items()}}}
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, detail


def per_layer(steerq, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import tracing
    recorder = tracing.Recorder()
    bindings = tracing.install(recorder)
    res = measure(steerq, workload, seed, seconds, recorder)
    SPANS_DIR.mkdir(exist_ok=True)
    recorder.write(SPANS_DIR / f"spans-{workload}.csv")

    summary = tracing.summarize(recorder.spans)
    ops = summary["ops"]
    if not ops:
        sys.exit(f"error: no {workload} op passed its check, so none was traced")
    metrics = {}
    for name in tracing.REPORTED:
        metrics[f"{name}.calls_per_op"] = (summary["calls"].get(name, 0) / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (
            summary["self_ns"].get(name, 0) / 1e6 / ops, "ms")
    for module in tracing.TRACED_MODULES:
        metrics[f"{module}.self_share"] = (
            summary["module_ns"].get(module, 0) / summary["op_ns"], "ratio")
    metrics["criteria.chi_threshold.f_evals"] = (
        summary["threshold_f_evals"] / summary["threshold_calls"]
        if summary["threshold_calls"] else 0.0, "count")
    # the bootstrap's float64 draw array: resamples x 3 settings x 4 cells x 8 bytes
    bootstrap_bytes = workloads.BOOTSTRAP * 12 * 8
    metrics["expio.evaluate_record.bootstrap_bytes_per_op"] = (
        summary["calls"].get("expio.evaluate_record", 0) * bootstrap_bytes / ops, "bytes")
    pairs = res["traced_latencies"]
    overhead = (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0) * 100.0
    metrics["trace_overhead_pct"] = (overhead, "%")

    per_op = tracing.per_op_calls(recorder.spans)
    count_rows = {tuple(sorted(counts.items())) for counts in per_op.values()}
    detail = {"workload": workload, "trace": 1, "traced_ops": ops,
              "bindings": bindings,
              "exact_counts_same_every_op": len(count_rows) <= 1,
              "spans": len(recorder.spans)}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, detail


def run_one(args) -> int:
    steerq = import_steerq()
    import selftest
    missed, _ = selftest.problems(steerq)  # a wrong op 0 fails in the measured run
    if missed:
        for problem in missed:
            print(f"oracle self-test: {problem}", file=sys.stderr)
        return 1
    measure_fn = per_layer if args.trace else end_to_end
    result, detail = measure_fn(steerq, args.workload, args.seed, args.seconds)
    detail["seed"], detail["seconds"] = args.seed, args.seconds
    detail["meta"] = metadata(steerq)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own); print named metrics."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed with code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        detail = json.loads(lines[-2].removeprefix("detail "))
        result = json.loads(lines[-1])
        shown = detail["metrics"] if not args.trace else result["metrics"]
        print(f"{workload}  attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for name, metric in shown.items():
            print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(NAMED))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--first-op", action="store_true",
                        help="import steerq, run op 0 and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.first_op:
        first_op(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
