"""Command-line front end.

Subcommands: simulate, eval, eval-state, threshold, sweep, tables.
Angles are given in degrees on the command line and converted to radians
internally.  Exit codes: 0 success, 2 input validation, 3 numeric-domain
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import criteria, expio

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_q_list(text: str) -> tuple[float, ...]:
    try:
        qs = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse q list {text!r}")
    criteria.criteria_of(qs)  # the q list's errors come before the state's
    return qs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerq",
        description="Steering detection on two-qubit Werner-like states: "
                    "generalized entropic criterion (SCG) and linear criterion (LSC).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    theta, chi, q_list = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    theta.add_argument("--theta", type=float, required=True, help="state angle in degrees [0, 45]")
    chi.add_argument("--chi", type=float, required=True, help="mixing weight in [0, 1]")
    q_list.add_argument("--q", default="2,1",
                        help="comma-separated entropic indices (default 2,1)")

    sim = sub.add_parser("simulate", parents=[theta, chi],
                         help="simulate coincidence counts and write a CSV")
    sim.add_argument("--shots", type=int, default=100_000,
                     help="mean total counts per setting (default 100000)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(handler=_cmd_simulate)

    ev = sub.add_parser("eval", parents=[q_list], help="evaluate criteria on a counts CSV")
    ev.add_argument("--counts", required=True, help="input counts CSV path")
    ev.add_argument("--bootstrap", type=int, default=expio.DEFAULT_BOOTSTRAP,
                    help="bootstrap resamples for error bars (default 1000)")
    ev.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    ev.set_defaults(handler=_cmd_eval)

    evs = sub.add_parser("eval-state", parents=[theta, chi, q_list],
                         help="evaluate criteria analytically on a state")
    evs.set_defaults(handler=_cmd_eval_state)

    th = sub.add_parser("threshold", parents=[theta],
                        help="solve for the critical mixing weight")
    th.add_argument("--criterion", choices=("scg", "lsc"), default="scg")
    th.add_argument("--q", type=float, default=2.0, help="entropic index for scg (default 2)")
    th.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance (default 1e-6)")
    th.set_defaults(handler=_cmd_threshold)

    sw = sub.add_parser("sweep", parents=[theta], help="write analytic criterion curves over chi")
    sw.add_argument("--steps", type=int, default=101, help="grid points on [0, 1] (default 101)")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.set_defaults(handler=_cmd_sweep)

    tb = sub.add_parser("tables", help="compare analytic predictions to reference data")
    tb.add_argument("--out", default=None, help="optional output path (default stdout)")
    tb.set_defaults(handler=_cmd_tables)
    return parser


def _cmd_simulate(args) -> str:
    rec = expio.simulate_record(math.radians(args.theta), args.chi, args.shots, args.seed)
    return expio.serialize_counts_csv(rec)


def _cmd_eval(args) -> str:
    try:
        with open(args.counts, "r", encoding="utf-8-sig") as handle:  # spreadsheets write a BOM
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.counts}: cannot decode byte 0x{exc.object[exc.start]:02x}; "
                         "the counts CSV must be UTF-8 text") from None
    rec = expio.parse_counts_csv(text, label=args.counts)
    report = expio.evaluate_record(rec, qs=_parse_q_list(args.q),
                                   bootstrap=args.bootstrap, seed=args.seed)
    return expio.report_to_json(report) + "\n"


def _cmd_eval_state(args) -> str:
    report = expio.evaluate_state(math.radians(args.theta), args.chi,
                                  qs=_parse_q_list(args.q))
    return expio.report_to_json(report) + "\n"


def _cmd_threshold(args) -> str:
    criterion = args.criterion.upper()
    q = args.q if criterion == criteria.SCG else None
    result = criteria.chi_threshold(math.radians(args.theta), criterion, q=q,
                                    tol=args.tol)
    label = criterion if q is None else f"{criterion}(q={q:g})"
    if result.crossed:  # as many decimals as tol resolves, from 6 to the 17 that round-trip
        digits = min(max(6, math.ceil(-math.log10(args.tol))), 17)
        return f"{label} threshold at theta={args.theta:g}deg: chi = {result.chi:.{digits}f}\n"
    return (f"{label} is not violated on chi in [0, 1] at theta={args.theta:g}deg "
            f"(threshold reported as {result.chi:.1f})\n")


def _cmd_sweep(args) -> str:
    return expio.curve_to_csv(expio.sweep_curve(math.radians(args.theta), args.steps))


def _cmd_tables(args) -> str:
    return expio.comparison_to_text(expio.reproduce_tables())


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, ArithmeticError):  # includes SolverError
        return EXIT_NUMERIC
    if isinstance(exc, ValueError):
        return EXIT_INPUT
    raise exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.handler(args)  # built whole first, so a failing verb writes nothing
        if getattr(args, "out", None) is None:  # eval, eval-state and threshold have no --out
            print(text, end="")
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        return EXIT_OK
    except (OSError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
