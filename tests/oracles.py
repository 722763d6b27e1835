"""Independent oracles that only the tests call.

Each recomputes a quantity from the assembled state or the paper's closed
form along a route the package itself never takes, so a test that compares
the two checks the package rather than restating it.  sphere_state, which
assembles a closed-form round sphere at a given time, is a plain helper
that only the tests need.
"""

import math
from dataclasses import replace

import numpy as np

from harnacklab.errors import ConfigError
from harnacklab.flow import RK4_LIMIT, SAFETY, FlowConfig, run
from harnacklab.geometry import (GeodesicSphere, SurfaceState, _profile_geometry,
                                 _validated_markers, assemble, cos_mode_radial, initial_radius,
                                 markers_from_radial, periodic_d1, periodic_d2)
from harnacklab.harnack import zeta_branch_threshold
from harnacklab.symfunc import EIG_COINCIDENCE_RTOL, _column_sum, _diag_embed, power_mean
from harnacklab.verify import KAPPA_RANGE


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


def full_grid_rk4(ambient, speed, markers, t_end, dt=None, store_every=1):
    """(times, markers) stored by classical RK4 stepping all N nodes of a profile.

    The reference flow.run's half-grid stepper must reproduce on exactly
    mirror-symmetric n = 2 markers: every stage runs _profile_geometry on the
    whole wrap-padded array, and dt, the stage sums, the projection onto the
    unit sphere and the storing follow flow.run's arithmetic.  markers must
    have the run's dtype.  It knows no stop but t_end and no rejected step,
    so use it only on runs that complete.  A fixed dt steps until t_end is
    within 1e-12·t_end, while flow.run takes flow.fixed_steps steps: the two
    differ when t_end lies a sliver (within flow.STATE_RTOL, but more than
    1e-12·t_end) above whole steps, so use it only on a t_end without one.
    """
    def geometry_and_speed(x):
        E, normal, _, kappa = _profile_geometry(ambient, x)
        return E, normal, kappa, speed.f.value(kappa)

    def velocity(x):
        _, normal, _, fv = geometry_and_speed(x)
        return -speed._from_f(fv)[:, None] * normal

    n_nodes = markers.shape[0]
    times, stored = [0.0], [markers]
    markers = _validated_markers(ambient, markers)      # flow.run steps these
    E, normal, kappa, fv = geometry_and_speed(markers)
    t, steps = 0.0, 0
    while t_end - t > 1e-12 * t_end:
        if dt is None:
            ds_min = math.sqrt(float(E.min())) * (2.0 * np.pi / n_nodes)
            phi_max = float(speed._dvalue_from_f(kappa, fv).max())
            h = min(SAFETY * RK4_LIMIT * ds_min ** 2 / max(phi_max, 1e-300), t_end - t)
        else:
            h = min(dt, t_end - t)
        k1 = -speed._from_f(fv)[:, None] * normal
        k2 = velocity(markers + 0.5 * h * k1)
        k3 = velocity(markers + 0.5 * h * k2)
        k4 = velocity(markers + h * k3)
        markers = markers + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if ambient.c == 1:
            markers = markers / np.sqrt(np.sum(markers * markers, axis=1))[:, None]
        E, normal, kappa, fv = geometry_and_speed(markers)
        t, steps = t + h, steps + 1
        if steps % store_every == 0:
            times.append(t)
            stored.append(markers)
    if steps % store_every:
        times.append(t)
        stored.append(markers)
    return np.array(times), stored


def fixed_dt_ladder_flow(ambient, speed, n_nodes, dt, t_check, r0=None, amplitude=0.05,
                         mode=2):
    """A ladder level stepped from t = 0 at the fixed dt, keeping its last three steps.

    verify.standard_test_flow's signature and stored times, with the route
    the ladder used to take: t_check/dt + 1 steps of dt in extended
    precision, where the ladder takes the stable adaptive step up to
    t_check − dt.  Both are fourth-order RK4 from the same initial markers,
    so the residuals they give agree to the step error of the prefix.
    """
    radial = cos_mode_radial(initial_radius(ambient, r0), amplitude, mode)
    traj = run(FlowConfig(ambient=ambient, speed=speed,
                          initial=markers_from_radial(ambient, radial, n_nodes),
                          t_end=t_check + dt, dt=dt, dtype="longdouble"))
    return replace(traj, times=traj.times[-3:], steps=traj.steps[-3:])


def sphere_state(sol, t) -> SurfaceState:
    """The assembled grid-free state of a flow.SphereSolution at time t."""
    return assemble(GeodesicSphere(float(sol.radius(t))), sol.ambient, sol.speed, t=float(t))


def _sample_kappa_eta(rng, samples: int, n: int):
    """Log-uniform κ in Γ₊ (over KAPPA_RANGE) and symmetric Gaussian η̂, batched."""
    lo, hi = np.log(KAPPA_RANGE[0]), np.log(KAPPA_RANGE[1])
    kappa = np.exp(rng.uniform(lo, hi, size=(samples, n)))
    A = rng.standard_normal((samples, n, n))
    eta_hat = 0.5 * (A + np.swapaxes(A, 1, 2))
    return kappa, eta_hat


def _sample_metric_pair(rng, samples: int, n: int, kappa):
    """Random (g, h) stacks whose Weingarten eigenvalues are exactly κ."""
    A = rng.standard_normal((samples, n, n))
    g = A @ np.swapaxes(A, 1, 2) + n * np.eye(n)[None]
    L = np.linalg.cholesky(g)
    Q, _ = np.linalg.qr(rng.standard_normal((samples, n, n)))
    core = (Q * kappa[:, None, :]) @ np.swapaxes(Q, 1, 2)
    h = L @ core @ np.swapaxes(L, 1, 2)
    return g, h


def _out_of_place_hessian(f, kappa):
    """f's Hessian as whole-array expressions: a new array per operation."""
    if f.name == "harmonic-mean":
        return kappa.shape[-1] ** 2 * _out_of_place_hessian(power_mean(-1.0), kappa)
    r = {"mean": 1.0, "norm": 2.0}.get(f.name) or float(f.name[len("power-mean("):-1])
    if r == 1.0:
        s = _column_sum(kappa)
    elif r == 2.0:
        s = _column_sum(kappa * kappa)
    else:
        s = np.sum(kappa ** r, axis=-1)
    s = s[..., None, None]
    kr1 = kappa ** (r - 1.0)
    diag = s ** (1.0 / r - 1.0) * _diag_embed(kappa ** (r - 2.0))
    outer = s ** (1.0 / r - 2.0) * (kr1[..., :, None] * kr1[..., None, :])
    return (r - 1.0) * (diag - outer)


def d2F_spectrum_by_where(speed, kappa):
    """(Φ', Φ'', D) of symfunc.d2F_spectrum, written out of place.

    Φ'' = |α| f^(α−1) f_ij + |α|(α−1) f^(α−2) f_i f_j, and D picks the
    coincidence limit ½(Φ''_aa + Φ''_bb) − Φ''_ab or the divided difference
    with np.where over whole arrays; the same elementwise operations as the
    package's in-place form, so the two must agree bit for bit.
    """
    phi = speed.dvalue(kappa)
    a, f = speed.exponent, speed.f
    fv = f.value(kappa)[..., None, None]
    gr = f.gradient(kappa)
    outer = gr[..., :, None] * gr[..., None, :]
    hess = abs(a) * fv ** (a - 1.0) * _out_of_place_hessian(f, kappa) \
        + abs(a) * (a - 1.0) * fv ** (a - 2.0) * outer
    dk = kappa[..., :, None] - kappa[..., None, :]
    dphi = phi[..., :, None] - phi[..., None, :]
    scale = np.max(np.abs(kappa), axis=-1)[..., None, None]
    near = np.abs(dk) <= EIG_COINCIDENCE_RTOL * scale
    hd = np.einsum("...aa->...a", hess)
    limit = 0.5 * (hd[..., :, None] + hd[..., None, :]) - hess
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(near, limit, dphi / np.where(near, 1.0, dk))
    idx = np.arange(kappa.shape[-1])
    dd[..., idx, idx] = 0.0
    return phi, hess, dd
