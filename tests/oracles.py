"""Independent oracles that only the tests call.

Each recomputes a quantity from the assembled state or the paper's closed
form along a route the package itself never takes, so a test that compares
the two checks the package rather than restating it.
"""

import numpy as np

from harnacklab.errors import ConfigError
from harnacklab.geometry import SurfaceState, periodic_d1, periodic_d2
from harnacklab.harnack import zeta_branch_threshold


def gauss_codazzi_residual(state: SurfaceState):
    """Max-norm residuals of the Gauss and Codazzi compatibility equations.

    For the revolution metric E(u) du² + ρ(u)² dv² the Gauss equation
    K = c + κ₁κ₂ reduces to ρ_ss + (c + κ₁κ₂) ρ = 0 with s the profile
    arclength; the signed ρ is smooth through the rotation axis (unlike
    √(g_vv) = |ρ|), so the check stays division-free and convergent there.
    Codazzi is the antisymmetry defect of ∇h in its first two slots.  Both
    are exact zeros on grid-free umbilic states.
    """
    if state.du == 0.0 or state.dim == 1:
        return 0.0, 0.0
    E = state.g[:, 0, 0]
    rho = state.markers[:, 2] if state.ambient.c == 1 else state.markers[:, 1]
    rho_u = periodic_d1(rho, state.du)
    rho_ss = (periodic_d2(rho, state.du)
              - rho_u * periodic_d1(E, state.du) / (2.0 * E)) / E
    kap_prod = state.kappa[:, 0] * state.kappa[:, 1]
    defect = rho_ss + (state.ambient.c + kap_prod) * rho
    gauss = np.max(np.abs(defect)) / (1.0 + np.max(np.abs(rho_ss)))
    anti = state.nabla_h - np.swapaxes(state.nabla_h, 1, 2)
    codazzi = np.max(np.abs(anti)) / (1.0 + np.max(np.abs(state.nabla_h)))
    return float(gauss), float(codazzi)


def strong_correction_coefficient(p: float, n: int) -> float:
    """corr in Q = ∂ₜF − θ − c·corr·H^(2p−1) + pF/((p+1)t)."""
    if not 0 < p <= 1:
        raise ConfigError(f"strong quantity needs 0 < p <= 1, got {p:g}")
    if zeta_branch_threshold(n) < p < 1.0:
        return p / (2.0 * p - 1.0)
    return n * p
