#!/usr/bin/env python3
# Randomized property scan of the pointwise matrix inequalities behind the
# Harnack arguments: the lemma-type gap for monotone symmetric f, the Urbas
# inequality for inverse-concave f, positivity of the full Harnack quadratic
# form, and dominance of the gradient terms.
#
# Usage:
#   python inequality_scan.py
#
# Each inequality is evaluated on random (metric, shape-operator) pairs with
# positive prescribed curvatures; the scan reports the smallest normalized
# gap seen (should be >= 0 up to roundoff) and the residual at the known
# equality witness (should vanish).
from harnacklab.symfunc import SpeedFunction, harmonic_mean, mean, norm
from harnacklab.verify import scan_inequalities

SAMPLES = 50_000
SEED = 12345

print(f"{SAMPLES} samples per (inequality, n), seed {SEED}\n")
print(f"{'inequality':>14} {'f':>14} {'n':>3} {'min gap':>11} {'witness':>11}")

# trace speed: every inequality applies
for rep in scan_inequalities(samples=SAMPLES, seed=SEED):
    print(f"{rep.inequality:>14} {rep.f_name:>14} {rep.n:>3} "
          f"{rep.min_normalized_gap:>11.2e} {rep.witness_max_abs_gap:>11.2e}")

# harmonic mean: the borderline inverse-concave case, Urbas gap vanishes
for rep in scan_inequalities(inequalities=("urbas",),
                             speed=SpeedFunction(harmonic_mean(), 0.5),
                             samples=SAMPLES, seed=SEED):
    print(f"{rep.inequality:>14} {rep.f_name:>14} {rep.n:>3} "
          f"{rep.min_normalized_gap:>11.2e} {rep.witness_max_abs_gap:>11.2e}")

# the 2-norm: the three inequalities for convex f, as in the acceptance
# scans (it is inverse-concave too, so its default roster adds Urbas)
for rep in scan_inequalities(inequalities=("f-lemma", "harnack-form",
                                           "fb-dominance"),
                             speed=SpeedFunction(norm(), 0.5),
                             samples=SAMPLES, seed=SEED):
    print(f"{rep.inequality:>14} {rep.f_name:>14} {rep.n:>3} "
          f"{rep.min_normalized_gap:>11.2e} {rep.witness_max_abs_gap:>11.2e}")

print("\nnegative entries at the 1e-13 scale are accumulated roundoff, not")
print("violations; the equality witnesses confirm the gaps are sharp")
