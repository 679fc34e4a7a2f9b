"""From coincidence counts to verdicts, with error bars.

Simulates Poisson coincidence counts for a Werner state (three Pauli
settings, 1e5 mean counts each), estimates the outcome probabilities, and
evaluates both criteria with parametric-bootstrap error bars.  No state
reconstruction is involved: the criteria are computed directly from the
measured probabilities.
"""
import math

from steerq import AXES, evaluate_record, evaluate_state, simulate_record

THETA = math.radians(22.5)
CHI = 0.74
SHOTS = 100_000

rec = simulate_record(THETA, CHI, SHOTS, seed=7)
for axis, counts in zip(AXES, rec.counts):
    print(f"setting {axis}: counts {counts.reshape(-1).tolist()}"
          f"  (total {counts.sum()})")

report = evaluate_record(rec, bootstrap=1000, seed=11)
reference = evaluate_state(THETA, CHI)

print(f"\n{'criterion':<10} {'estimate':>10} {'error bar':>10} "
      f"{'analytic':>10} {'bound':>8}  verdict")
for est, ref in zip(report.criteria, reference.criteria):
    name = f"SCG q={est.q:g}" if est.q is not None else "LSC"
    print(f"{name:<10} {est.lhs:>10.4f} {est.error_bar:>10.4f} "
          f"{ref.lhs:>10.4f} {est.bound:>8.4f}  "
          f"{'steerable' if est.steerable else 'not steerable'}")

print("\nwith 1e5 counts per setting the bootstrap bars come out at a few")
print("parts in a thousand, and every estimate lands within a bar or two of")
print("the analytic prediction.")
