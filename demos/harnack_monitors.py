#!/usr/bin/env python3
# Differential Harnack estimates as runtime monitors.  For contracting flows
# F = H^p the time-weighted quantity
#
#     Q = dF/dt - theta + delta F / t   (+ correction terms per variant)
#
# is predicted to stay positive for all t > 0.  The monitor evaluates Q
# pointwise on simulated states and reports the floor; on shrinking round
# spheres Q has closed forms that pin the implementation to exact values.
#
# Usage:
#   python harnack_monitors.py
import numpy as np

from harnacklab.flow import FlowConfig, run, sphere_ode_solution
from harnacklab.geometry import (AmbientSpace, GeodesicSphere, assemble, cos_mode_radial,
                                 markers_from_radial)
from harnacklab.harnack import HarnackConfig, evaluate_monitor
from harnacklab.symfunc import SpeedFunction, mean

SPHERE = AmbientSpace(c=1, dim=2)
FLAT = AmbientSpace(c=0, dim=2)


def sphere_state(sol, t):
    """The closed-form round sphere of sol at time t, assembled for the monitor."""
    return assemble(GeodesicSphere(sol.radius(t)), sol.ambient, sol.speed, t=t)


# --- 1. perturbed spherical flow, weak (chi1) and sharpened (strong-Hp) ----
markers = markers_from_radial(SPHERE, cos_mode_radial(0.8, 0.05, 2), 48)
for p in (0.6, 0.9):
    speed = SpeedFunction(mean(), p)
    traj = run(FlowConfig(ambient=SPHERE, speed=speed,
                          initial=markers,
                          t_end=0.04, dt=5e-4, store_every=10))
    floors = {}
    for variant in ("chi1", "strong-Hp"):
        qs = [evaluate_monitor(s, HarnackConfig(variant)).min_Q
              for s in traj if s.t > 0]
        floors[variant] = min(qs)
    print(f"p = {p}: min chi1 Q = {floors['chi1']:.4f}, "
          f"min strong-Hp Q = {floors['strong-Hp']:.4f}  (both stay positive)")

# --- 2. closed form on the shrinking round sphere (p = 1) ------------------
sol = sphere_ode_solution(SPHERE, SpeedFunction(mean(), 1.0), 0.8)
print("\nround sphere, p = 1: Q = 4 cot^3 r + cot r / t")
print(f"{'t':>6} {'monitor Q':>14} {'closed form':>14}")
for t in (0.05, 0.10, 0.15):
    got = evaluate_monitor(sphere_state(sol, t), HarnackConfig("strong-Hp")).min_Q
    cot = 1.0 / np.tan(sol.radius(t))
    print(f"{t:>6.2f} {got:>14.8f} {4 * cot**3 + cot / t:>14.8f}")

# --- 3. euclidean closed forms ---------------------------------------------
sol0 = sphere_ode_solution(FLAT, SpeedFunction(mean(), 1.0), 1.0)
cfg = HarnackConfig("euclidean-contracting", delta=0.5)
t = 0.1
r = sol0.radius(t)
q = evaluate_monitor(sphere_state(sol0, t), cfg).min_Q
print(f"\nflat contracting, t = {t}: Q = {q:.4f}"
      f"  vs 4/r^3 + 1/(rt) = {4 / r**3 + 1 / (r * t):.4f}")

exp = sphere_ode_solution(FLAT, SpeedFunction(mean(), -0.5), 1.0)
ecfg = HarnackConfig("euclidean-expanding", delta=-1.0)
q1 = evaluate_monitor(sphere_state(exp, 1.0), ecfg).min_Q
q100 = evaluate_monitor(sphere_state(exp, 100.0), ecfg).min_Q
print(f"flat expanding (beta = 1/2): Q(1) = {q1:.6f}, Q(100) = {q100:.6f}"
      f"  (decays like 1/t: ratio {q100 / q1:.4f})")
