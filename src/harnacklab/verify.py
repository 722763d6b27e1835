"""Residual checks of the evolution identities and pointwise inequality scans.

Evolution identities
--------------------
Each supported identity says that the Lagrangian time derivative of a stored
field equals a closed-form right-hand side built from a single state (the
parabolic ones carry □ = F^{ij}∇²_{ij} of the subject inside the RHS).  The
left side is a centered difference of the field between stored states at
t ± Δt; the residual is

    max_nodes |LHS − RHS| / (1 + max_nodes |RHS|).

The label stencils are sixth-order and Δt ∝ N⁻², so the O(Δt²) centered
time difference sets a fourth-order target in N.  Fitted orders fall below
it for some identities: the lowest on the acceptance ladders is 3.20 (beta
under F = |κ|^0.5), and a ladder passes at order 1.8.

Supported tags: metric, inverse-metric, sff, weingarten, sff-box,
weingarten-box, inverse-sff, squared-sff, speed, christoffel, grad-speed,
beta, theta, chi2, chi3 (mean-curvature speeds only), chi1 and
box-commutator ([∂ₜ, □]F).  The spatial commutator [∇, □]φ is checked on a
single state by commutator_residual, with φ fixed to the first marker
coordinate (the speed F on grid-free states).

Pointwise inequality scans
--------------------------
Working in the g-orthonormal Weingarten eigenframe, κ ∈ Γ₊ and a symmetric
η̂ determine every scanned quantity:

    f_lemma_gap      Σ (f_i/κ_j) η̂_ij² − (Σ f_i η̂_ii)²/f               ≥ 0
    urbas_gap        Q_f(η̂) + 2Σ (f_i/κ_j) η̂_ij² − 2(Σ f_i η̂_ii)²/f    ≥ 0
    harnack_form_gap Q_F(η̂) + 2Σ (Φ'_j/κ_i) η̂_ij² − (Σ Φ'_i η̂_ii)²/(δF) ≥ 0
    fb_dominance     min_i (f/κ_i − f_i)                                ≥ 0

with equality at η̂ ∝ diag(κ) for the first three.  Samples draw κ
log-uniformly and η̂ from symmetrized Gaussians, seeded through a splittable
64-bit SeedSequence so scans are reproducible per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import flow as _flow
from . import harnack as _ha
from . import symfunc as _sf
from .errors import ConfigError, WrongSpeed
from .flow import FlowConfig, Trajectory, time_derivative
from .geometry import (AmbientSpace, SurfaceState, box_op, covariant_derivative,
                       covariant_hessian, grad_scalar, cos_mode_radial,
                       default_radius, markers_from_radial)
from .symfunc import CurvatureFunction, SpeedFunction, eval_f, grad_f


# ---------------------------------------------------------------------------
# right-hand sides of the evolution identities
# ---------------------------------------------------------------------------

def _raise_second(state, X):
    """X_i{}^j = X_{il} g^{lj}."""
    return np.einsum("nil,nlj->nij", X, state.g_inv)


def _pair_quad(state, A, C):
    """b^{il} F^{jk} A_{ij} C_{kl} (order of A and C matters)."""
    return np.einsum("nil,njk,nij,nkl->n", state.b, state.dF, A, C)


def _grad_quadratic(state):
    """F^{ij} ∇_i F ∇_j F."""
    return np.einsum("nij,ni,nj->n", state.dF, state.grad_F, state.grad_F)


def _gradF_sq(state):
    """|∇F|² = g^{ij} ∇_i F ∇_j F."""
    return np.einsum("nij,ni,nj->n", state.g_inv, state.grad_F, state.grad_F)


def _second_form_matrix(state, D):
    """V_{ij} = F^{kl,rs} D_{i,kl} D_{j,rs} for a (N, n, n, n) slot array D."""
    n = state.dim
    V = np.zeros((state.n_nodes, n, n), dtype=np.asarray(D).dtype)
    for i in range(n):
        for j in range(i, n):
            V[:, i, j] = state.d2F_bilinear(D[:, i], D[:, j])
            if j != i:
                V[:, j, i] = V[:, i, j]
    return V


def _rhs_metric(s):
    return -2.0 * s.F[:, None, None] * s.h


def _rhs_inverse_metric(s):
    h_up = np.einsum("nik,nkl,nlj->nij", s.g_inv, s.h, s.g_inv)
    return 2.0 * s.F[:, None, None] * h_up


def _rhs_sff(s):
    c = s.ambient.c
    return s.hess_F - s.F[:, None, None] * s.h_sq + c * s.F[:, None, None] * s.g


def _weingarten(s):
    return np.einsum("nil,nlj->nij", s.h, s.g_inv)


def _rhs_weingarten(s):
    c = s.ambient.c
    eye = np.eye(s.dim)[None]
    return _raise_second(s, s.alpha) + c * s.F[:, None, None] * eye


def _rhs_sff_box(s):
    c = s.ambient.c
    Fh2 = _ha.quad_dF(s, s.h_sq)
    Fh = _ha.quad_dF(s, s.h)
    V = _second_form_matrix(s, s.nabla_h)
    rhs = box_op(s, s.h, ("lo", "lo")) \
        + Fh2[:, None, None] * s.h \
        - (Fh + s.F)[:, None, None] * s.h_sq \
        + V
    if c:
        rhs = rhs + (s.F + Fh)[:, None, None] * s.g - s.tr_dF[:, None, None] * s.h
    return rhs


def _rhs_weingarten_box(s):
    c = s.ambient.c
    Fh2 = _ha.quad_dF(s, s.h_sq)
    Fh = _ha.quad_dF(s, s.h)
    V = _second_form_matrix(s, s.nabla_h)
    W = _weingarten(s)
    rhs = box_op(s, W, ("lo", "up")) \
        + Fh2[:, None, None] * W \
        - (Fh - s.F)[:, None, None] * _raise_second(s, s.h_sq) \
        + _raise_second(s, V)
    if c:
        eye = np.eye(s.dim)[None]
        rhs = rhs + (s.F + Fh)[:, None, None] * eye - s.tr_dF[:, None, None] * W
    return rhs


def _box_inverse_sff(s):
    """□b^{ij} expanded through ∇b = −b·b·∇h, so label stencils only ever act
    on the smooth fields h and ∇h (the raw b components are pole-singular on
    axisymmetric grids and cannot be differenced directly)."""
    nabla2_h = covariant_derivative(s, s.nabla_h, ("lo", "lo", "lo"))
    term = np.einsum("nkl,nia,nrc,nlac,njs,nkrs->nij",
                     s.dF, s.b, s.b, s.nabla_h, s.b, s.nabla_h)
    term = term + np.einsum("nkl,nir,nja,nsc,nlac,nkrs->nij",
                            s.dF, s.b, s.b, s.b, s.nabla_h, s.nabla_h)
    term = term - np.einsum("nkl,nir,njs,nlkrs->nij", s.dF, s.b, s.b, nabla2_h)
    return term


def _rhs_inverse_sff(s):
    c = s.ambient.c
    Fh2 = _ha.quad_dF(s, s.h_sq)
    Fh = _ha.quad_dF(s, s.h)
    V = _second_form_matrix(s, s.nabla_h)
    M = 2.0 * np.einsum("nlq,nkp,nrkl,nspq->nrs", s.b, s.dF, s.nabla_h, s.nabla_h) + V
    rhs = _box_inverse_sff(s) \
        - Fh2[:, None, None] * s.b \
        + (Fh + s.F)[:, None, None] * s.g_inv \
        - np.einsum("nir,njs,nrs->nij", s.b, s.b, M)
    if c:
        bgb = np.einsum("nir,nrm,nmj->nij", s.b, s.g, s.b)
        rhs = rhs - ((s.F + Fh)[:, None, None] * bgb - s.tr_dF[:, None, None] * s.b)
    return rhs


def _rhs_squared_sff(s):
    c = s.ambient.c
    P = np.einsum("nik,nkl,nlj->nij", s.hess_F, s.g_inv, s.h)
    return P + np.swapaxes(P, 1, 2) + 2.0 * c * s.F[:, None, None] * s.h


def _rhs_speed(s):
    return s.beta + s.ambient.c * s.F * s.tr_dF


def _rhs_christoffel(s):
    rhs = -s.F[:, None, None, None] * np.einsum("nkl,nlij->nkij", s.g_inv, s.nabla_h)
    rhs = rhs - np.einsum("nkl,nli,nj->nkij", s.g_inv, s.h, s.grad_F)
    rhs = rhs - np.einsum("nkl,nlj,ni->nkij", s.g_inv, s.h, s.grad_F)
    rhs = rhs + np.einsum("nkl,nij,nl->nkij", s.g_inv, s.h, s.grad_F)
    return rhs


def _rhs_grad_speed(s):
    c = s.ambient.c
    n = s.dim
    rhs = box_op(s, s.grad_F, ("lo",))
    for i in range(n):
        rhs[:, i] += s.d2F_bilinear(s.nabla_h[:, i], s.alpha)
    rhs = rhs + 2.0 * s.F[:, None] * np.einsum(
        "nkl,nrs,nrl,niks->ni", s.dF, s.b, s.h_sq, s.nabla_h)
    rhs = rhs + _ha.quad_dF(s, s.h_sq)[:, None] * s.grad_F
    rhs = rhs + np.einsum("nkl,nmq,nql,nki,nm->ni", s.dF, s.g_inv, s.h, s.h, s.grad_F)
    rhs = rhs - _ha.quad_dF(s, s.h)[:, None] * np.einsum(
        "nmq,nqi,nm->ni", s.g_inv, s.h, s.grad_F)
    if c:
        rhs = rhs + np.einsum("nkl,nki,nl->ni", s.dF, s.g, s.grad_F)
        rhs = rhs + s.F[:, None] * grad_scalar(s, s.tr_dF)
    return rhs


def _rhs_beta(s):
    c = s.ambient.c
    Fh2 = _ha.quad_dF(s, s.h_sq)
    Fh = _ha.quad_dF(s, s.h)
    rhs = box_op(s, s.beta) \
        + (Fh2 + c * s.tr_dF) * s.beta \
        + (s.F - Fh) * _gradF_sq(s) \
        + s.d2F_quadratic(s.alpha) \
        + 2.0 * np.einsum("nij,nkm,nmi,nk,nj->n",
                          s.dF, s.g_inv, s.h, s.grad_F, s.grad_F) \
        + 4.0 * s.F * _pair_quad(s, s.hess_F, s.h_sq) \
        + 2.0 * s.F ** 2 * _pair_quad(s, s.h_sq, s.h_sq)
    if c:
        grad_tr = grad_scalar(s, s.tr_dF)
        R_beta = s.F * box_op(s, s.tr_dF) \
            + 2.0 * np.einsum("nkl,nk,nl->n", s.dF, grad_tr, s.grad_F) \
            + s.F * s.d2F_bilinear(s.alpha, s.g) \
            + 2.0 * s.F ** 2 * Fh
        rhs = rhs + R_beta
    return rhs


def _rhs_theta(s):
    c = s.ambient.c
    Fh2 = _ha.quad_dF(s, s.h_sq)
    Fh = _ha.quad_dF(s, s.h)
    rhs = box_op(s, s.theta) \
        + (Fh2 + c * s.tr_dF) * s.theta \
        + (s.F - Fh) * _gradF_sq(s) \
        + 2.0 * np.einsum("nij,nkm,nmi,nk,nj->n",
                          s.dF, s.g_inv, s.h, s.grad_F, s.grad_F) \
        - (s.d2F_quadratic(s.gamma) - 2.0 * s.d2F_bilinear(s.alpha, s.gamma)) \
        - 2.0 * (_pair_quad(s, s.gamma, s.gamma)
                 - 2.0 * _pair_quad(s, s.alpha, s.gamma)
                 + _pair_quad(s, s.hess_F, s.hess_F))
    if c:
        R_theta = -(Fh + s.F) * _ha._bb_gradF(s) \
            + 2.0 * _ha._bF_gradF(s) \
            + 2.0 * s.F * s.d2F_bilinear(s.g, s.gamma)
        rhs = rhs + R_theta
    return rhs


def _chi_quadratic(s, delta):
    """t-independent quadratic part: B(η,η) + 2b·F(η,η) − (F^{ij}η_{ij})²/(δF)."""
    Feta = _ha.quad_dF(s, s.eta)
    return s.d2F_quadratic(s.eta) + 2.0 * _pair_quad(s, s.eta, s.eta) \
        - Feta ** 2 / (delta * s.F)


def _rhs_chi2(s):
    c = s.ambient.c
    delta = s.speed.delta_default
    t = s.t
    chi = _ha.chi2(s)
    rhs = box_op(s, chi) \
        + ((s.beta - s.theta) / (delta * s.F) + _ha.quad_dF(s, s.h_sq)
           + c * s.tr_dF) * chi \
        + t * _chi_quadratic(s, delta)
    if c:
        rhs = rhs + t * _ha.remainder_R(s)
    return rhs


def _rhs_chi3(s):
    _ha.require_mean(s, "identity 'chi3'")
    c = s.ambient.c
    p = s.speed.exponent
    n = s.dim
    delta = s.speed.delta_default
    t = s.t
    chi_2 = _ha.chi2(s)
    rhs = box_op(s, _ha.chi3(s)) \
        + ((s.beta - s.theta) / (delta * s.F) + _ha.quad_dF(s, s.h_sq)
           + c * s.tr_dF) * chi_2 \
        + t * _chi_quadratic(s, delta)
    if c:
        zeta = _ha.zeta_monitor(p, n, s.F, 0)
        zeta1 = _ha.zeta_monitor(p, n, s.F, 1)
        zeta2 = _ha.zeta_monitor(p, n, s.F, 2)
        H = np.sum(s.kappa, axis=-1)
        F, F1, F2, F3 = s.speed.scalar_derivs(H)
        boxF = _ha.quad_dF(s, s.hess_F)
        FijH2 = _ha.quad_dF(s, s.h_sq)
        brace = 2.0 * n * (F2 * F / F1) * (boxF + F * FijH2 - s.theta) \
            + (zeta1 - n * F2 * F / F1) * FijH2 * F \
            + c * zeta1 * s.tr_dF * F \
            + 2.0 * F ** 2 * F1 * H \
            + (n * (2.0 * F2 / F1 - F2 ** 2 * F / F1 ** 3 + F3 * F / F1 ** 2)
               - zeta2) * _grad_quadratic(s) \
            + (F1 * H + F) * _ha._bb_gradF(s) \
            - 2.0 * F1 * s.theta
        rhs = rhs + c * zeta + c * t * brace
    return rhs


def _rhs_chi1(s):
    c = s.ambient.c
    delta = s.speed.delta_default
    t = s.t
    chi = _ha.chi1(s)
    Feta = _ha.quad_dF(s, s.eta)
    eta_c = s.eta + c * s.F[:, None, None] * s.g
    Fh = _ha.quad_dF(s, s.h)
    rhs = box_op(s, chi) \
        + ((s.beta - s.theta) / (delta * s.F) + _ha.quad_dF(s, s.h_sq)
           + c * ((delta - 1.0) / delta) * s.tr_dF) * chi \
        + (c * s.tr_dF * s.F / delta) * (t * c * s.tr_dF + 2.0 * delta) \
        + t * s.d2F_quadratic(eta_c) \
        + t * (2.0 * _pair_quad(s, s.eta, s.eta) - Feta ** 2 / (delta * s.F))
    if c:
        extra = 2.0 * s.F ** 2 * Fh \
            + (Fh + s.F) * _ha._bb_gradF(s) \
            - 2.0 * np.einsum("nir,njm,nmr,ni,nj->n",
                              s.dF, s.b, s.g, s.grad_F, s.grad_F)
        rhs = rhs + t * extra
    return rhs


def _box_F_field(s):
    return box_op(s, s.F)


def _rhs_box_commutator(s):
    c = s.ambient.c
    dtF = s.beta + c * s.F * s.tr_dF
    rhs = box_op(s, dtF)
    rhs = rhs + s.d2F_bilinear(s.hess_F, s.alpha + c * s.F[:, None, None] * s.g)
    rhs = rhs + 2.0 * s.F * np.einsum("nij,nkm,nmi,nkj->n",
                                      s.dF, s.g_inv, s.h, s.hess_F)
    rhs = rhs + 2.0 * np.einsum("nij,nkm,nmi,nk,nj->n",
                                s.dF, s.g_inv, s.h, s.grad_F, s.grad_F)
    rhs = rhs + (s.F - _ha.quad_dF(s, s.h)) * _gradF_sq(s)
    return rhs


@dataclass(frozen=True)
class Identity:
    tag: str
    subject: Callable
    rhs: Callable
    mean_only: bool = False


IDENTITIES = {
    ident.tag: ident for ident in [
        Identity("metric", lambda s: s.g, _rhs_metric),
        Identity("inverse-metric", lambda s: s.g_inv, _rhs_inverse_metric),
        Identity("sff", lambda s: s.h, _rhs_sff),
        Identity("weingarten", _weingarten, _rhs_weingarten),
        Identity("sff-box", lambda s: s.h, _rhs_sff_box),
        Identity("weingarten-box", _weingarten, _rhs_weingarten_box),
        Identity("inverse-sff", lambda s: s.b, _rhs_inverse_sff),
        Identity("squared-sff", lambda s: s.h_sq, _rhs_squared_sff),
        Identity("speed", lambda s: s.F, _rhs_speed),
        Identity("christoffel", lambda s: s.christoffel, _rhs_christoffel),
        Identity("grad-speed", lambda s: s.grad_F, _rhs_grad_speed),
        Identity("beta", lambda s: s.beta, _rhs_beta),
        Identity("theta", lambda s: s.theta, _rhs_theta),
        Identity("chi2", _ha.chi2, _rhs_chi2),
        Identity("chi3", _ha.chi3, _rhs_chi3, mean_only=True),
        Identity("chi1", _ha.chi1, _rhs_chi1),
        Identity("box-commutator", _box_F_field, _rhs_box_commutator),
    ]
}

IDENTITY_TAGS = tuple(IDENTITIES)


def applicable_tags(speed: SpeedFunction) -> tuple:
    """All identity tags valid for the given speed."""
    return tuple(t for t, ident in IDENTITIES.items()
                 if not ident.mean_only or speed.f.name == "mean")


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

@dataclass
class ResidualRecord:
    tag: str
    t: float
    dt: float
    n_nodes: int
    residual: float
    rhs_scale: float


def evolution_residual(trajectory: Trajectory, tag: str, t: float,
                       dt: float) -> ResidualRecord:
    """Residual of one evolution identity at time t with step Δt.

    The subject field is differenced between the stored states at t ± Δt and
    compared against the closed-form right side on the state at t.
    """
    if tag not in IDENTITIES:
        raise ConfigError(f"unknown identity tag {tag!r}; known: {IDENTITY_TAGS}")
    ident = IDENTITIES[tag]
    state = trajectory.state_at(t)
    if ident.mean_only:
        _ha.require_mean(state, f"identity {tag!r}")
    lhs = time_derivative(trajectory, ident.subject, t, dt)
    rhs = ident.rhs(state)
    scale = float(np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs))) / (1.0 + scale)
    return ResidualRecord(tag=tag, t=t, dt=dt, n_nodes=state.n_nodes,
                          residual=residual, rhs_scale=scale)


def commutator_residual(state: SurfaceState) -> ResidualRecord:
    """Residual of the spatial commutator [∇, □]φ on a single state.

    φ is the first ambient coordinate restricted to the surface (the speed F
    on grid-free states, which have no markers).  The time commutator
    [∂ₜ, □]F is the evolution identity 'box-commutator'.
    """
    phi = _sf.as_float(state.F if state.markers is None else state.markers[:, 0])
    c = state.ambient.c

    lhs = grad_scalar(state, box_op(state, phi)) - box_op(state, grad_scalar(state, phi), ("lo",))
    hphi = covariant_hessian(state, phi)
    gphi = grad_scalar(state, phi)
    n = state.dim
    rhs = np.zeros_like(lhs)
    for i in range(n):
        rhs[:, i] = state.d2F_bilinear(state.nabla_h[:, i], hphi)
    rhs = rhs + np.einsum("nkl,nmq,nqk,nli,nm->ni",
                          state.dF, state.g_inv, state.h, state.h, gphi)
    rhs = rhs - _ha.quad_dF(state, state.h)[:, None] * np.einsum(
        "nmq,nqi,nm->ni", state.g_inv, state.h, gphi)
    if c:
        rhs = rhs + np.einsum("nkl,nli,nk->ni", state.dF, state.g, gphi)
        rhs = rhs - state.tr_dF[:, None] * gphi
    scale = float(np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs))) / (1.0 + scale)
    return ResidualRecord(tag="grad-commutator", t=state.t, dt=0.0,
                          n_nodes=state.n_nodes, residual=residual, rhs_scale=scale)


# ---------------------------------------------------------------------------
# convergence ladders
# ---------------------------------------------------------------------------

@dataclass
class LadderReport:
    tag: str
    records: list
    order: float
    finest_residual: float


def estimate_order(n_values, residuals) -> float:
    """Least-squares slope of −log residual against log N."""
    n_values = np.asarray(n_values, dtype=float)
    residuals = np.maximum(np.asarray(residuals, dtype=float), 1e-300)
    slope = np.polyfit(np.log(n_values), np.log(residuals), 1)[0]
    return float(-slope)


def standard_test_flow(ambient: AmbientSpace, speed: SpeedFunction, n_nodes: int,
                       dt: float, t_end: float, r0: Optional[float] = None,
                       amplitude: float = 0.05, mode: int = 2) -> Trajectory:
    """Perturbed-sphere reference flow used by the residual ladders.

    Runs in extended precision: the deepest residual subjects sit four label
    derivatives above the marker positions, and their double precision
    evaluation noise (ε ≈ 10⁻¹⁶/Δu⁴), divided by the 2Δt of the centered
    time difference, would dominate the finest-level residuals.
    """
    if r0 is None:
        r0 = default_radius(ambient)
    markers = markers_from_radial(ambient, cos_mode_radial(r0, amplitude, mode), n_nodes)
    config = FlowConfig(ambient=ambient, speed=speed, initial=markers,
                        t_end=t_end, dt=dt, store_every=1, dtype="longdouble")
    return _flow.run(config)


def residual_ladder(ambient: AmbientSpace, speed: SpeedFunction,
                    tags=None, levels=(64, 128, 256), dt0: float = 2e-4,
                    t_check: float = 8e-3, r0: Optional[float] = None,
                    amplitude: float = 0.05, mode: int = 2) -> dict:
    """Run the grid/step ladder and fit a convergence order per identity.

    Level N uses Δt = dt0·(levels[0]/N)², so the centered-difference error
    O(Δt²) shrinks at fourth order in N alongside the label-stencil error.
    Besides the evolution identities, tags may include 'grad-commutator',
    which needs no time differencing and is checked on the state at t_check.
    Unknown tags, fewer than two levels and a t_check that is not a whole
    number of steps at some level, or is less than one step (the centered
    time difference needs the state at t_check − Δt), raise ConfigError
    before any flow runs.
    Returns {tag: LadderReport}.
    """
    if tags is None:
        tags = applicable_tags(speed)
    known = set(IDENTITY_TAGS) | {"grad-commutator"}
    bad = [t for t in tags if t not in known]
    if bad:
        raise ConfigError(f"unknown identity tag(s) {bad}; known: {sorted(known)}")
    if len(levels) < 2:
        raise ConfigError("need at least two grid levels to fit an order")
    dts = [dt0 * (levels[0] / n_nodes) ** 2 for n_nodes in levels]
    for n_nodes, dt in zip(levels, dts):
        steps = _flow.whole_steps(t_check, dt)
        if steps is None or steps < 1:
            raise ConfigError(
                f"t_check = {t_check:g} is {t_check / dt:.6g} steps of dt = {dt:g} at "
                f"N = {n_nodes}; it must be a whole number of steps, at least one, "
                f"at every level")
    ladders = {tag: [] for tag in tags}
    for n_nodes, dt in zip(levels, dts):
        traj = standard_test_flow(ambient, speed, n_nodes, dt,
                                  t_end=t_check + dt, r0=r0,
                                  amplitude=amplitude, mode=mode)
        for tag in tags:
            if tag == "grad-commutator":
                ladders[tag].append(commutator_residual(traj.state_at(t_check)))
            else:
                ladders[tag].append(evolution_residual(traj, tag, t_check, dt))
    out = {}
    for tag, records in ladders.items():
        order = estimate_order([r.n_nodes for r in records],
                               [r.residual for r in records])
        out[tag] = LadderReport(tag=tag, records=records, order=order,
                                finest_residual=records[-1].residual)
    return out


def convexity_monitor(trajectory: Trajectory) -> dict:
    """Minimum principal curvature per stored state, its infimum and location.

    The infimum's location is reported as (argmin_t, argmin_node); a strictly
    positive infimum certifies empirical convexity preservation for the run.
    """
    per_state = np.array([float(s.kappa.min()) for s in trajectory.states])
    i = int(np.argmin(per_state))
    node = int(np.unravel_index(np.argmin(trajectory.states[i].kappa),
                                trajectory.states[i].kappa.shape)[0])
    return {"t": trajectory.times, "min_kappa_per_state": per_state,
            "min_kappa": float(per_state.min()),
            "argmin_t": float(trajectory.times[i]), "argmin_node": node,
            "all_convex": bool(np.all(per_state > 0.0))}


# ---------------------------------------------------------------------------
# pointwise inequality gaps (eigenframe inputs)
# ---------------------------------------------------------------------------

def _f_lemma_terms(f, kappa, eta_hat):
    """(quad, pos, neg) of the f-lemma gap, which has no quadratic part."""
    fi = grad_f(f, kappa)
    fv = eval_f(f, kappa)
    pos = np.einsum("...i,...j,...ij->...", fi, 1.0 / kappa, eta_hat ** 2)
    neg = np.einsum("...i,...ii->...", fi, eta_hat) ** 2 / fv
    return 0.0, pos, neg


def f_lemma_gap(f: CurvatureFunction, kappa, eta_hat) -> np.ndarray:
    """Gap of (f^{ik} b^{jl} − f^{ij} f^{kl}/f) η η ≥ 0 in the eigenframe."""
    quad, pos, neg = _f_lemma_terms(f, np.asarray(kappa, dtype=float),
                                    np.asarray(eta_hat, dtype=float))
    return quad + pos - neg


def _urbas_terms(f, kappa, eta_hat):
    """(quad, pos, neg) of the Urbas gap; f must be inverse-concave."""
    if not f.inverse_concave:
        raise WrongSpeed(f"the Urbas inequality needs an inverse-concave f, "
                         f"got {f.name}")
    fi = grad_f(f, kappa)
    fv = eval_f(f, kappa)
    quad = _sf.d2F_quadratic_eigenframe(SpeedFunction(f, 1.0), kappa, eta_hat)
    pos = 2.0 * np.einsum("...i,...j,...ij->...", fi, 1.0 / kappa, eta_hat ** 2)
    neg = 2.0 * np.einsum("...i,...ii->...", fi, eta_hat) ** 2 / fv
    return quad, pos, neg


def urbas_gap(f: CurvatureFunction, kappa, eta_hat) -> np.ndarray:
    """Gap of (f^{ij,kl} + 2f^{ik}b^{jl}) η η ≥ 2 f⁻¹ (f^{ij}η_{ij})².

    Valid for inverse-concave f; raises WrongSpeed otherwise.
    """
    quad, pos, neg = _urbas_terms(f, np.asarray(kappa, dtype=float),
                                  np.asarray(eta_hat, dtype=float))
    return quad + pos - neg


def _harnack_form_terms(speed, kappa, eta_hat, delta):
    """(quad, pos, neg) of the Harnack-form gap in the eigenframe."""
    phi = speed.dvalue(kappa)
    Fv = speed.value(kappa)
    quad = _sf.d2F_quadratic_eigenframe(speed, kappa, eta_hat)
    pos = 2.0 * np.einsum("...i,...j,...ij->...", 1.0 / kappa, phi, eta_hat ** 2)
    neg = np.einsum("...i,...ii->...", phi, eta_hat) ** 2 / (delta * Fv)
    return quad, pos, neg


def harnack_form_gap(F, g, h, eta, delta: Optional[float] = None) -> np.ndarray:
    """Gap of the Harnack quadratic form from the χ₂ evolution,

        F^{ij,kl} η η + 2 b^{il} F^{jk} η η − (F^{ij}η_{ij})²/(δF) ≥ 0,

    on a strictly convex (g, h) pair, with δ defaulting to α/(α+1).

    For convex f the gap decomposes as αf^{α−1}·(f^{ij,kl}ηη) plus
    2αf^{α−1}·f_lemma_gap(f, ·), each nonnegative.
    """
    speed = _sf._as_speed(F)
    if delta is None:
        delta = speed.delta_default
    kappa, T = _sf.weingarten_eigensystem(g, h)
    eta_hat = _sf._to_eigenframe(T, np.asarray(eta, dtype=float))
    quad, pos, neg = _harnack_form_terms(speed, kappa, eta_hat, delta)
    return quad + pos - neg


def fb_dominance(f: CurvatureFunction, kappa) -> np.ndarray:
    """min_i (f/κ_i − f_i): monotone 1-homogeneous f dominates each Euler term."""
    kappa = np.asarray(kappa, dtype=float)
    fi = grad_f(f, kappa)
    fv = eval_f(f, kappa)
    return np.min(fv[..., None] / kappa - fi, axis=-1)


# ---------------------------------------------------------------------------
# randomized scans
# ---------------------------------------------------------------------------

SCAN_INEQUALITIES = ("f-lemma", "urbas", "harnack-form", "fb-dominance")

# Samples drawn per _scan_once call, and the log-uniform range of each κᵢ;
# changing either changes every scan result.
SCAN_BATCH = 20_000
KAPPA_RANGE = (1e-2, 1e2)


@dataclass
class ScanReport:
    inequality: str
    f_name: str
    n: int
    samples: int
    seed: int
    min_normalized_gap: float
    witness_max_abs_gap: float


def sample_kappa_eta(rng, samples: int, n: int):
    """Log-uniform κ in Γ₊ (over KAPPA_RANGE) and symmetric Gaussian η̂, batched."""
    lo, hi = np.log(KAPPA_RANGE[0]), np.log(KAPPA_RANGE[1])
    kappa = np.exp(rng.uniform(lo, hi, size=(samples, n)))
    A = rng.standard_normal((samples, n, n))
    eta_hat = 0.5 * (A + np.swapaxes(A, 1, 2))
    return kappa, eta_hat


def sample_metric_pair(rng, samples: int, n: int, kappa):
    """Random (g, h) stacks whose Weingarten eigenvalues are exactly κ."""
    A = rng.standard_normal((samples, n, n))
    g = A @ np.swapaxes(A, 1, 2) + n * np.eye(n)[None]
    L = np.linalg.cholesky(g)
    Q, _ = np.linalg.qr(rng.standard_normal((samples, n, n)))
    core = np.einsum("nia,na,nja->nij", Q, kappa, Q)
    h = L @ core @ np.swapaxes(L, 1, 2)
    return g, h


def _scan_once(inequality, f, speed, rng, samples, n):
    kappa, eta_hat = sample_kappa_eta(rng, samples, n)
    if inequality == "fb-dominance":
        fi = grad_f(f, kappa)
        fv = eval_f(f, kappa)
        ratio = (fv[..., None] / kappa - fi) / (fv[..., None] / kappa + fi)
        return float(ratio.min()), 0.0
    if inequality == "f-lemma":
        quad, pos, neg = _f_lemma_terms(f, kappa, eta_hat)
        wit = f_lemma_gap(f, kappa, _diag_of(kappa))
    elif inequality == "urbas":
        quad, pos, neg = _urbas_terms(f, kappa, eta_hat)
        wit = urbas_gap(f, kappa, _diag_of(kappa))
    elif inequality == "harnack-form":
        # Exercised through general-position (g, h) pairs rather than the
        # eigenframe: the sampled η is a coordinate matrix here.  One
        # eigensolve serves both η and the equality witness η = h.
        g, h = sample_metric_pair(rng, samples, n, kappa)
        kap, T = _sf.weingarten_eigensystem(g, h)
        delta = speed.delta_default
        quad, pos, neg = _harnack_form_terms(speed, kap, _sf._to_eigenframe(T, eta_hat),
                                             delta)
        wq, wp, wn = _harnack_form_terms(speed, kap, _sf._to_eigenframe(T, h), delta)
        wit = wq + wp - wn
    else:
        raise ConfigError(f"unknown inequality {inequality!r}; "
                          f"known: {SCAN_INEQUALITIES}")
    normalized = (quad + pos - neg) / np.maximum(np.abs(quad) + pos + neg, 1e-300)
    return float(normalized.min()), float(np.max(np.abs(wit)))


def _diag_of(kappa):
    out = np.zeros(kappa.shape + (kappa.shape[-1],))
    idx = np.arange(kappa.shape[-1])
    out[..., idx, idx] = kappa
    return out


def scan_inequalities(inequalities=SCAN_INEQUALITIES, n_values=(2, 3, 5),
                      samples: int = 100_000, seed: int = 20260817,
                      f: Optional[CurvatureFunction] = None,
                      speed: Optional[SpeedFunction] = None) -> list:
    """Randomized certification scans of the pointwise matrix inequalities.

    One SeedSequence child per (inequality, n) task keeps results
    reproducible and independent of task order.  Returns ScanReports with
    the worst normalized gap over all samples and the equality-witness
    check at η̂ = diag(κ).
    """
    if f is None:
        f = _sf.mean()
    if speed is None:
        speed = SpeedFunction(f, 1.0)
    tasks = [(ineq, n) for ineq in inequalities for n in n_values]
    children = np.random.SeedSequence(seed).spawn(len(tasks))
    reports = []
    for (ineq, n), child in zip(tasks, children):
        rng = np.random.default_rng(child)
        worst, wit = np.inf, 0.0
        done = 0
        while done < samples:
            take = min(SCAN_BATCH, samples - done)
            w, ww = _scan_once(ineq, f, speed, rng, take, n)
            worst, wit = min(worst, w), max(wit, ww)
            done += take
        reports.append(ScanReport(inequality=ineq, f_name=f.name, n=n,
                                  samples=samples, seed=seed,
                                  min_normalized_gap=worst,
                                  witness_max_abs_gap=wit))
    return reports


# ---------------------------------------------------------------------------
# scalar ζ-conditions for the strong sphere estimate (F = H^p)
# ---------------------------------------------------------------------------

ZETA_CONDITION_KEYS = ("correction-size", "correction-square",
                       "correction-slope", "gradient-term", "closure-identity")


def zeta_conditions(p: float, n: int, H_values) -> dict:
    """The five scalar conditions behind the strong sphere estimate.

    Returned per-H arrays, with applicability flags (True means the proof
    requires nonnegativity of that entry at this p and n):

    correction-size    2ζ − 2nδ F''F²/F'                         (p ≥ (n+1)/(2n))
    correction-square  ζ²/(δF) − 2n(F''F/F')ζ + n(ζ'F − ζ)F'     (p ≥ (n+1)/(2n))
    correction-slope   ζ'F − n F''F²/F' − ζ                      ((n+1)/(2n) ≤ p ≤ 1)
    gradient-term      n(2F''/F' − F''²F/F'³ + F'''F/F'²)
                       + F/(F'H²) − 1/H                          (p ≤ (n+1)/(2n) or p = 1)
    closure-identity   gradient-term − ζ''  == 0 for every p ∈ (1/2, 1]

    The first three use the closed branch formula ζ = p(n − 1/(2p−1))F^(2−1/p)
    (which the case split activates for p > (n+1)/(2n)); the closure identity
    uses it unconditionally, which is what makes it vanish identically.
    """
    if not 0.5 < p <= 1.0:
        raise ConfigError(f"zeta conditions are formulated for 1/2 < p <= 1, got {p:g}")
    H = np.asarray(H_values, dtype=float)
    if np.any(H <= 0):
        raise ConfigError("H values must be positive")
    speed = SpeedFunction(_sf.mean(), p)
    delta = p / (p + 1.0)
    F, F1, F2, F3 = speed.scalar_derivs(H)
    z = _ha.zeta_general(p, n, F, 0)
    z1 = _ha.zeta_general(p, n, F, 1)
    z2 = _ha.zeta_general(p, n, F, 2)
    p_star = (n + 1.0) / (2.0 * n)

    grad_term = n * (2.0 * F2 / F1 - F2 ** 2 * F / F1 ** 3 + F3 * F / F1 ** 2) \
        + F / (F1 * H ** 2) - 1.0 / H

    values = {
        "correction-size": 2.0 * z - 2.0 * n * delta * F2 * F ** 2 / F1,
        "correction-square": z ** 2 / (delta * F) - 2.0 * n * (F2 * F / F1) * z
                             + n * (z1 * F - z) * F1,
        "correction-slope": z1 * F - n * F2 * F ** 2 / F1 - z,
        "gradient-term": grad_term,
        "closure-identity": grad_term - z2,
    }
    applicable = {
        "correction-size": p >= p_star,
        "correction-square": p >= p_star,
        "correction-slope": p_star <= p <= 1.0,
        "gradient-term": p <= p_star or p == 1.0,
        "closure-identity": True,
    }
    return {"p": p, "n": n, "H": H, "values": values, "applicable": applicable}
