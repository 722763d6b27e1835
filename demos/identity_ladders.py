#!/usr/bin/env python3
# Every quantity carried along the flow (metric, second fundamental form,
# Weingarten map, speed, gradient terms, the Harnack integrands chi1/chi2/chi3
# and the commutator rules used to derive them) satisfies an evolution
# identity.  The solver never enforces these; here we difference simulated
# trajectories and check that the residuals converge away under refinement.
#
# Usage:
#   python identity_ladders.py
#
# Three grid levels with dt ~ N^-2, so a second-order-in-time stencil decays
# like N^-4 alongside the sixth-order spatial stencils.  dt is the step of
# the centered time difference only: each level flows to t_check - dt at the
# stable RK4 step, then takes the two steps of dt the difference reads.  An
# identity is only as good as its observed order: anything stuck near 0 would
# be a wrong sign or a missing term, not noise.  The finest pair's own order
# (column "pair") falls well below the fitted one when the finest level
# reaches the roundoff floor.
from harnacklab.geometry import AmbientSpace
from harnacklab.symfunc import SpeedFunction, mean
from harnacklab.verify import residual_ladder

SPHERE = AmbientSpace(c=1, dim=2)
SPEED = SpeedFunction(mean(), 0.5)      # F = H^(1/2) in the unit sphere
LEVELS = (32, 64, 128)

ladders = residual_ladder(SPHERE, SPEED, levels=LEVELS, dt0=4e-4, t_check=8e-3)

print(f"residual ladder, levels {LEVELS}, F = H^0.5, c = 1")
print(f"{'identity':>18} {'order':>7} {'pair':>6}  " + "  ".join(f"N={n:<4}" for n in LEVELS))
for tag, rep in ladders.items():
    cells = "  ".join(f"{r.residual:.1e}" for r in rep.records)
    print(f"{tag:>18} {rep.order:>7.2f} {rep.finest_pair_order:>6.2f}  {cells}")

worst = min(rep.order for rep in ladders.values())
print(f"\nslowest observed convergence order: {worst:.2f} (floor is 2 from")
print("the centered time difference; most identities ride the spatial order)")
pair = min(rep.finest_pair_order for rep in ladders.values())
print(f"slowest finest-pair order: {pair:.2f}")
