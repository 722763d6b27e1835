"""Residual checks of the evolution identities and pointwise inequality scans.

Evolution identities
--------------------
Each supported identity says that the Lagrangian time derivative of a stored
field equals a closed-form right-hand side built from a single state (the
parabolic ones carry □ = F^{ij}∇²_{ij} of the subject inside the RHS).  The
right-hand sides live here, the sphere remainders R_β, R_θ and R included,
and a term that several of them share is written once.  The left side is a
centered difference of the field between stored states at t ± Δt; the
residual is

    max_nodes |LHS − RHS| / (1 + max_nodes |RHS|).

The label stencils are sixth-order and Δt ∝ N⁻², so the O(Δt²) centered
time difference sets a fourth-order target in N.  Fitted orders fall below
it for some identities: the lowest on the acceptance ladders is 3.44 (beta
under F = |κ|^0.5), and a ladder passes at order MIN_ORDER = 1.8.

IDENTITIES lists the supported tags, box-commutator ([∂ₜ, □]F) among them;
chi1, chi2 and chi3 take the f rule of the monitor variant of the same name
(harnack.f_refusal).  Its last row, grad-commutator, has no subject: the
spatial commutator [∇, □]φ needs no time difference and is checked on the
single state at t by commutator_residual, with φ fixed to the first marker
coordinate (the speed F on grid-free states).

Pointwise inequality scans
--------------------------
Working in the g-orthonormal Weingarten eigenframe, κ ∈ Γ₊ and a symmetric
η̂ determine every scanned quantity:

    f-lemma       Σ (f_i/κ_j) η̂_ij² − (Σ f_i η̂_ii)²/f               ≥ 0
    urbas         Q_f(η̂) + 2Σ (f_i/κ_j) η̂_ij² − 2(Σ f_i η̂_ii)²/f    ≥ 0
    harnack-form  Q_F(η̂) + 2Σ (Φ'_i/κ_j) η̂_ij² − (Σ Φ'_i η̂_ii)²/(δF) ≥ 0
    fb-dominance  min_i (f/κ_i − f_i)                                ≥ 0

with equality at η̂ ∝ diag(κ) for the first three, and δ = speed.delta_default.
The first three are one form, Q + a·Σ (w_i/κ_j) η̂_ij² − b·(Σ w_i η̂_ii)²/v,
with (w, v, Q, a, b) = (f_i, f, 0, 1, 1), (f_i, f, Q_f, 2, 2) and
(Φ'_i, δF, Q_F, 2, 1), evaluated by one kernel body, _quadratic_gap.  Each
inequality has one kernel in SCAN_KERNELS, under its scan tag: it evaluates
the derivatives of f (or F) at a batch of κ once and returns terms(η̂) →
(quad, pos, neg), whose sum quad + pos − neg is the gap, for the sample and
its equality witness alike.  Samples draw κ log-uniformly and η̂ from
symmetrized Gaussians, from a generator that each (inequality, n) row seeds
from the seed, n and the tag alone: a row reproduces from the same seed,
inequality, dimension and sample count, whatever else the scan runs.  A scan
draws and evaluates SCAN_BATCH samples at a time, so that one constant fixes
both the draws and the memory.  Within a batch each (SCAN_BATCH, n, n) array
lives only while it is read: η̂'s Gaussian is symmetrized in place,
metric_pair frees each of its Gaussians once read, harnack-form frees g, h
and T before its kernel runs, and symfunc's spectral calculus works in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import flow as _flow
from . import harnack as _ha
from . import symfunc as _sf
from .errors import ConfigError, OutOfRange
from .flow import FlowConfig, Trajectory, time_derivative
from .geometry import (AmbientSpace, SurfaceState, _node_count_ok, box_op,
                       covariant_derivative, covariant_hessian, grad_scalar,
                       cos_mode_radial, initial_radius, markers_from_radial)
from .symfunc import CurvatureFunction, SpeedFunction, eval_f, grad_f


# ---------------------------------------------------------------------------
# right-hand sides of the evolution identities
# ---------------------------------------------------------------------------

def _raise_second(state, X):
    """X_i{}^j = X_{il} g^{lj}."""
    return np.einsum("nil,nlj->nij", X, state.g_inv)


def _quad_dF(state, X):
    """F^{ij} X_{ij}."""
    return np.einsum("nij,nij->n", state.dF, X)


def _pair_quad(state, A, C):
    """b^{il} F^{jk} A_{ij} C_{kl} (order of A and C matters)."""
    return np.einsum("nil,njk,nij,nkl->n", state.b, state.dF, A, C)


def _bb_gradF(state):
    """b^{ir} b^j_r ∇_i F ∇_j F."""
    return np.einsum("nir,njm,nmr,ni,nj->n", state.b, state.b, state.g,
                     state.grad_F, state.grad_F)


def _bF_gradF(state):
    """b^j_k F^{kl} ∇_l F ∇_j F."""
    return np.einsum("njm,nmk,nkl,nl,nj->n", state.b, state.g, state.dF,
                     state.grad_F, state.grad_F)


def _gradient_block(s):
    """(F − F^{ij}h_{ij})|∇F|² + 2F^{ij}h^k_i ∇_kF ∇_jF, shared by the β, θ
    and [∂ₜ, □]F evolutions."""
    grad_sq = np.einsum("nij,ni,nj->n", s.g_inv, s.grad_F, s.grad_F)
    return (s.F - _quad_dF(s, s.h)) * grad_sq \
        + 2.0 * np.einsum("nij,nkm,nmi,nk,nj->n", s.dF, s.g_inv, s.h, s.grad_F, s.grad_F)


def _commutator_rhs(s, grad_phi, X):
    """Curvature terms of [∇_i, □]φ with X in the place of ∇²φ:
    F^{kl,rs}∇_ih_{kl}X_{rs} + F^{kl}h_l^m h_{ki}∇_mφ − F^{kl}h_{kl}h_i^m∇_mφ
    + c(F^{kl}g_{li}∇_kφ − tr Ḟ ∇_iφ)."""
    rhs = np.einsum("nklrs,nikl,nrs->ni", s.d2F, s.nabla_h, X)
    rhs = rhs + np.einsum("nkl,nmq,nql,nki,nm->ni", s.dF, s.g_inv, s.h, s.h, grad_phi)
    rhs = rhs - _quad_dF(s, s.h)[:, None] * np.einsum("nmq,nqi,nm->ni", s.g_inv, s.h, grad_phi)
    if s.ambient.c:
        rhs = rhs + np.einsum("nkl,nli,nk->ni", s.dF, s.g, grad_phi)
        rhs = rhs - s.tr_dF[:, None] * grad_phi
    return rhs


def _second_form_matrix(state, D):
    """V_{ij} = F^{kl,rs} D_{i,kl} D_{j,rs} for a (N, n, n, n) slot array D."""
    return np.einsum("nklrs,nikl,njrs->nij", state.d2F, D, D)


def _rhs_metric(s):
    return -2.0 * s.F[:, None, None] * s.h


def _rhs_inverse_metric(s):
    h_up = np.einsum("nik,nkl,nlj->nij", s.g_inv, s.h, s.g_inv)
    return 2.0 * s.F[:, None, None] * h_up


def _rhs_sff(s):
    c = s.ambient.c
    return s.hess_F - s.F[:, None, None] * s.h_sq + c * s.F[:, None, None] * s.g


def _weingarten(s):
    return _raise_second(s, s.h)


def _rhs_weingarten(s):
    c = s.ambient.c
    eye = np.eye(s.dim)[None]
    return _raise_second(s, s.alpha) + c * s.F[:, None, None] * eye


def _rhs_sff_box(s):
    c = s.ambient.c
    Fh2 = _quad_dF(s, s.h_sq)
    Fh = _quad_dF(s, s.h)
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
    Fh2 = _quad_dF(s, s.h_sq)
    Fh = _quad_dF(s, s.h)
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


# Pairwise contraction orders (np.einsum_path, "optimal") of _box_inverse_sff's
# two 6-operand terms.  Without one, einsum contracts all six at once: in
# longdouble that is 1.2 ms per term at N = 256 against 0.2-0.3 ms, and it
# is slower at N = 64 and 128 too.
_BOX_B_PATHS = (["einsum_path", (0, 3), (1, 3), (2, 3), (0, 2), (0, 1)],
                ["einsum_path", (0, 4), (2, 3), (2, 3), (0, 2), (0, 1)])


def _box_inverse_sff(s):
    """□b^{ij} expanded through ∇b = −b·b·∇h, so label stencils only ever act
    on the smooth fields h and ∇h (the raw b components are pole-singular on
    axisymmetric grids and cannot be differenced directly)."""
    nabla2_h = covariant_derivative(s, s.nabla_h, ("lo", "lo", "lo"))
    term = np.einsum("nkl,nia,nrc,nlac,njs,nkrs->nij",
                     s.dF, s.b, s.b, s.nabla_h, s.b, s.nabla_h, optimize=_BOX_B_PATHS[0])
    term = term + np.einsum("nkl,nir,nja,nsc,nlac,nkrs->nij",
                            s.dF, s.b, s.b, s.b, s.nabla_h, s.nabla_h,
                            optimize=_BOX_B_PATHS[1])
    term = term - np.einsum("nkl,nir,njs,nlkrs->nij", s.dF, s.b, s.b, nabla2_h)
    return term


def _rhs_inverse_sff(s):
    c = s.ambient.c
    Fh2 = _quad_dF(s, s.h_sq)
    Fh = _quad_dF(s, s.h)
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


def _rhs_christoffel(s):
    rhs = -s.F[:, None, None, None] * np.einsum("nkl,nlij->nkij", s.g_inv, s.nabla_h)
    rhs = rhs - np.einsum("nkl,nli,nj->nkij", s.g_inv, s.h, s.grad_F)
    rhs = rhs - np.einsum("nkl,nlj,ni->nkij", s.g_inv, s.h, s.grad_F)
    rhs = rhs + np.einsum("nkl,nij,nl->nkij", s.g_inv, s.h, s.grad_F)
    return rhs


def _rhs_grad_speed(s):
    """□∇F, the [∇, □] terms with X = α, and the rest of ∇∂ₜF."""
    rhs = box_op(s, s.grad_F, ("lo",)) + _commutator_rhs(s, s.grad_F, s.alpha)
    rhs = rhs + 2.0 * s.F[:, None] * np.einsum(
        "nkl,nrs,nrl,niks->ni", s.dF, s.b, s.h_sq, s.nabla_h)
    rhs = rhs + _quad_dF(s, s.h_sq)[:, None] * s.grad_F
    if s.ambient.c:
        rhs = rhs + s.tr_dF[:, None] * s.grad_F + s.F[:, None] * grad_scalar(s, s.tr_dF)
    return rhs


def _remainder_beta(s):
    """Sphere terms R_β of the β evolution (c = 1 weight)."""
    grad_tr = grad_scalar(s, s.tr_dF)
    return s.F * box_op(s, s.tr_dF) \
        + 2.0 * np.einsum("nkl,nk,nl->n", s.dF, grad_tr, s.grad_F) \
        + s.F * s.d2F_bilinear(s.alpha, s.g) \
        + 2.0 * s.F ** 2 * _quad_dF(s, s.h)


def _remainder_theta(s):
    """Sphere terms R_θ of the θ evolution (c = 1 weight)."""
    return -(_quad_dF(s, s.h) + s.F) * _bb_gradF(s) + 2.0 * _bF_gradF(s) \
        + 2.0 * s.F * s.d2F_bilinear(s.g, s.gamma)


def _rhs_beta(s):
    c = s.ambient.c
    rhs = box_op(s, s.beta) \
        + (_quad_dF(s, s.h_sq) + c * s.tr_dF) * s.beta \
        + _gradient_block(s) \
        + s.d2F_bilinear(s.alpha, s.alpha) \
        + 4.0 * s.F * _pair_quad(s, s.hess_F, s.h_sq) \
        + 2.0 * s.F ** 2 * _pair_quad(s, s.h_sq, s.h_sq)
    if c:
        rhs = rhs + _remainder_beta(s)
    return rhs


def _rhs_theta(s):
    c = s.ambient.c
    rhs = box_op(s, s.theta) \
        + (_quad_dF(s, s.h_sq) + c * s.tr_dF) * s.theta \
        + _gradient_block(s) \
        - (s.d2F_bilinear(s.gamma, s.gamma) - 2.0 * s.d2F_bilinear(s.alpha, s.gamma)) \
        - 2.0 * (_pair_quad(s, s.gamma, s.gamma)
                 - 2.0 * _pair_quad(s, s.alpha, s.gamma)
                 + _pair_quad(s, s.hess_F, s.hess_F))
    if c:
        rhs = rhs + _remainder_theta(s)
    return rhs


def _chi_factor(s):
    """(β − θ)/(δF) + F^{ij}h²_{ij} + c·tr Ḟ, which multiplies χ₂ (χ₂, χ₃ RHS)."""
    return (s.beta - s.theta) / (s.speed.delta_default * s.F) \
        + _quad_dF(s, s.h_sq) + s.ambient.c * s.tr_dF


def _chi_quadratic(s, delta):
    """t-independent quadratic part: B(η,η) + 2b·F(η,η) − (F^{ij}η_{ij})²/(δF)."""
    Feta = _quad_dF(s, s.eta)
    return s.d2F_bilinear(s.eta, s.eta) + 2.0 * _pair_quad(s, s.eta, s.eta) \
        - Feta ** 2 / (delta * s.F)


def _rhs_chi2(s):
    chi = _ha.chi2(s)
    rhs = box_op(s, chi) + _chi_factor(s) * chi \
        + s.t * _chi_quadratic(s, s.speed.delta_default)
    if s.ambient.c:
        # R = R_β − R_θ for every admissible speed; χ₃ specializes it to F = F(H)
        rhs = rhs + s.t * (_remainder_beta(s) - _remainder_theta(s))
    return rhs


def _zeta_gradient_coefficient(n, F, F1, F2, F3):
    """n(2F''/F' − F''²F/F'³ + F'''F/F'²) for F = F(H), shared by the χ₃
    evolution and the gradient-term ζ-condition."""
    return n * (2.0 * F2 / F1 - F2 ** 2 * F / F1 ** 3 + F3 * F / F1 ** 2)


def _rhs_chi3(s):
    c = s.ambient.c
    p = s.speed.exponent
    n = s.dim
    t = s.t
    rhs = box_op(s, _ha.chi3(s)) + _chi_factor(s) * _ha.chi2(s) \
        + t * _chi_quadratic(s, s.speed.delta_default)
    if c:
        zeta = _ha.zeta_monitor(p, n, s.F, 0)
        zeta1 = _ha.zeta_monitor(p, n, s.F, 1)
        zeta2 = _ha.zeta_monitor(p, n, s.F, 2)
        H = np.sum(s.kappa, axis=-1)
        F, F1, F2, F3 = s.speed.scalar_derivs(H)
        boxF = _quad_dF(s, s.hess_F)
        quad_grad = np.einsum("nij,ni,nj->n", s.dF, s.grad_F, s.grad_F)  # F^{ij}∇_iF∇_jF
        FijH2 = _quad_dF(s, s.h_sq)
        brace = 2.0 * n * (F2 * F / F1) * (boxF + F * FijH2 - s.theta) \
            + (zeta1 - n * F2 * F / F1) * FijH2 * F \
            + c * zeta1 * s.tr_dF * F \
            + 2.0 * F ** 2 * F1 * H \
            + (_zeta_gradient_coefficient(n, F, F1, F2, F3) - zeta2) * quad_grad \
            + (F1 * H + F) * _bb_gradF(s) \
            - 2.0 * F1 * s.theta
        rhs = rhs + c * zeta + c * t * brace
    return rhs


def _rhs_chi1(s):
    c = s.ambient.c
    delta = s.speed.delta_default
    t = s.t
    chi = _ha.chi1(s)
    Feta = _quad_dF(s, s.eta)
    eta_c = s.eta + c * s.F[:, None, None] * s.g
    Fh = _quad_dF(s, s.h)
    rhs = box_op(s, chi) \
        + ((s.beta - s.theta) / (delta * s.F) + _quad_dF(s, s.h_sq)
           + c * ((delta - 1.0) / delta) * s.tr_dF) * chi \
        + (c * s.tr_dF * s.F / delta) * (t * c * s.tr_dF + 2.0 * delta) \
        + t * s.d2F_bilinear(eta_c, eta_c) \
        + t * (2.0 * _pair_quad(s, s.eta, s.eta) - Feta ** 2 / (delta * s.F))
    if c:
        extra = 2.0 * s.F ** 2 * Fh + (Fh + s.F) * _bb_gradF(s) - 2.0 * _bF_gradF(s)
        rhs = rhs + t * extra
    return rhs


def _rhs_box_commutator(s):
    c = s.ambient.c
    rhs = box_op(s, _ha.analytic_dtF(s))
    rhs = rhs + s.d2F_bilinear(s.hess_F, s.alpha + c * s.F[:, None, None] * s.g)
    rhs = rhs + 2.0 * s.F * np.einsum("nij,nkm,nmi,nkj->n",
                                      s.dF, s.g_inv, s.h, s.hess_F)
    return rhs + _gradient_block(s)


@dataclass(frozen=True)
class Identity:
    tag: str
    subject: Optional[Callable]
    rhs: Optional[Callable]


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
        Identity("speed", lambda s: s.F, _ha.analytic_dtF),
        Identity("christoffel", lambda s: s.christoffel, _rhs_christoffel),
        Identity("grad-speed", lambda s: s.grad_F, _rhs_grad_speed),
        Identity("beta", lambda s: s.beta, _rhs_beta),
        Identity("theta", lambda s: s.theta, _rhs_theta),
        Identity("chi2", _ha.chi2, _rhs_chi2),
        Identity("chi3", _ha.chi3, _rhs_chi3),
        Identity("chi1", _ha.chi1, _rhs_chi1),
        Identity("box-commutator", lambda s: box_op(s, s.F), _rhs_box_commutator),
        Identity("grad-commutator", None, None),    # single-state: commutator_residual
    ]
}

IDENTITY_TAGS = tuple(IDENTITIES)


def applicable_tags(speed: SpeedFunction) -> tuple:
    """All identity tags valid for the given speed."""
    return tuple(t for t in IDENTITIES if _ha.f_refusal(t, speed) is None)


def _identity(tag: str, speed: SpeedFunction) -> Identity:
    """The identity under tag; ConfigError if there is none (naming the known tags),
    or if the monitor variant of that name refuses f (harnack.f_refusal)."""
    if tag not in IDENTITIES:
        raise ConfigError(f"unknown identity tag {tag!r}; known: {IDENTITY_TAGS}")
    if why := _ha.f_refusal(tag, speed):
        raise ConfigError(f"identity {tag!r} {why}")
    return IDENTITIES[tag]


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


def _residual_record(tag, t, dt, n_nodes, lhs, rhs) -> ResidualRecord:
    """The record of max|LHS − RHS| / (1 + max|RHS|), with max|RHS| as rhs_scale."""
    scale = float(np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs))) / (1.0 + scale)
    return ResidualRecord(tag=tag, t=t, dt=dt, n_nodes=n_nodes,
                          residual=residual, rhs_scale=scale)


def evolution_residual(trajectory: Trajectory, tag: str, t: float,
                       dt: float) -> ResidualRecord:
    """Residual of one evolution identity at time t with step Δt.

    The subject field is differenced between the stored states at t ± Δt and
    compared against the closed-form right side on the state at t; the row
    with no subject, grad-commutator, is commutator_residual of that state.
    """
    ident = _identity(tag, trajectory.config.speed)
    state = trajectory.state_at(t)
    if ident.subject is None:
        return commutator_residual(state)
    lhs = time_derivative(trajectory, ident.subject, t, dt)
    return _residual_record(tag, t, dt, state.n_nodes, lhs, ident.rhs(state))


def commutator_residual(state: SurfaceState) -> ResidualRecord:
    """Residual of the spatial commutator [∇, □]φ on a single state.

    φ is the first ambient coordinate restricted to the surface (the speed F
    on grid-free states, which have no markers).  This is the IDENTITIES row
    'grad-commutator'; [∂ₜ, □]F is the row 'box-commutator'.
    """
    phi = _sf.as_float(state.F if state.markers is None else state.markers[:, 0])
    gphi = grad_scalar(state, phi)
    lhs = grad_scalar(state, box_op(state, phi)) - box_op(state, gphi, ("lo",))
    rhs = _commutator_rhs(state, gphi, covariant_hessian(state, phi))
    return _residual_record("grad-commutator", state.t, 0.0, state.n_nodes, lhs, rhs)


# ---------------------------------------------------------------------------
# convergence ladders
# ---------------------------------------------------------------------------

@dataclass
class LadderReport:
    """One identity's ladder: its records per level, the order fitted to all of
    them, the order of the finest pair of levels alone and the finest residual.
    A finest-pair order far below the fitted one marks a finest level at the
    roundoff floor (standard_test_flow)."""
    tag: str
    records: list
    order: float
    finest_pair_order: float
    finest_residual: float


MIN_ORDER = 1.8         # a ladder passes at a fitted order of at least MIN_ORDER
MAX_RESIDUAL = 1e-4     # and a finest residual of at most MAX_RESIDUAL


def estimate_order(n_values, residuals) -> float:
    """Least-squares slope of −log residual against log N."""
    n_values = np.asarray(n_values, dtype=float)
    residuals = np.maximum(np.asarray(residuals, dtype=float), 1e-300)
    slope = np.polyfit(np.log(n_values), np.log(residuals), 1)[0]
    return float(-slope)


def standard_test_flow(ambient: AmbientSpace, speed: SpeedFunction, n_nodes: int,
                       dt: float, t_check: float, r0: Optional[float] = None,
                       amplitude: float = 0.05, mode: int = 2) -> Trajectory:
    """Perturbed-sphere flow of one ladder level, stored at t_check and t_check ± dt.

    A prefix run reaches t_check − dt at flow.run's adaptive step (about 20
    times dt at N = 256 of the default ladder) and stores only its first and
    last steps; a tail run takes the two steps of dt that the centered
    difference reads from there.  t_check need not be whole steps of dt; if
    it is one step (within flow.STATE_RTOL) there is no prefix.  Both run
    in extended precision: the deepest residual subjects sit four label
    derivatives above the marker positions, and their double precision
    evaluation noise (ε ≈ 10⁻¹⁶/Δu⁴), divided by the 2Δt of the centered
    time difference, would dominate the finest-level residuals, in a
    float64 prefix state as in the tail.  A run that ends other than
    "completed" raises OutOfRange, naming its termination and time, before
    the next run starts.  The trajectory returned is the tail's, with its
    config (t_end = 2·dt) and its times moved onto t_check.
    """
    markers = markers_from_radial(
        ambient, cos_mode_radial(initial_radius(ambient, r0), amplitude, mode), n_nodes)
    t_start = t_check - dt
    if _flow.whole_steps(t_check, dt) != 1:
        prefix = _flow.run(FlowConfig(ambient=ambient, speed=speed, initial=markers,
                                      t_end=t_start, dtype="longdouble",
                                      store_every=_flow.MAX_STEPS))
        markers = _completed(prefix, n_nodes, 0.0).steps[-1]
    tail = _flow.run(FlowConfig(ambient=ambient, speed=speed, initial=markers,
                                t_end=2.0 * dt, dt=dt, dtype="longdouble"))
    _completed(tail, n_nodes, t_start)
    return replace(tail, times=np.array([t_start, t_check, t_check + dt]))


def _completed(traj: Trajectory, n_nodes: int, t0: float) -> Trajectory:
    """traj, a ladder run that started at time t0, if it completed; else OutOfRange."""
    if traj.termination != "completed":
        raise OutOfRange(
            f"the N = {n_nodes} ladder flow stopped with {traj.termination!r} at "
            f"t = {t0 + traj.times[-1]:g}, short of t = {t0 + traj.config.t_end:g}")
    return traj


def residual_ladder(ambient: AmbientSpace, speed: SpeedFunction,
                    tags=None, levels=(64, 128, 256), dt0: float = 2e-4,
                    t_check: float = 8e-3, r0: Optional[float] = None,
                    amplitude: float = 0.05, mode: int = 2) -> dict:
    """Run the grid/step ladder and fit a convergence order per identity.

    Level N uses Δt = dt0·(levels[0]/N)², so the centered-difference error
    O(Δt²) shrinks at fourth order in N alongside the label-stencil error.
    Δt is the step of the centered difference only: each level's flow
    (standard_test_flow) reaches t_check − Δt at the stable RK4 step and
    then takes two steps of Δt, and raises OutOfRange if it stops short.
    tags are IDENTITIES rows; grad-commutator, the last, needs no time
    difference and is checked on the state at t_check.  tags=None runs
    applicable_tags(speed), every row valid for the speed.  An empty tag
    list, repeated or unknown tags, an identity that holds only for powers
    of the mean curvature (chi3) under another f, fewer than two levels,
    levels that do not strictly increase (the last two are the finest pair)
    or one that is not an even node count >= 8, a dt0 that is not positive and
    finite, a non-finite t_check and a t_check of less than one step of dt0
    (the centered time difference needs the state at t_check − Δt) raise
    ConfigError before any flow runs.  Returns {tag: LadderReport}, whose
    finest_pair_order is the order of the last two levels alone.
    """
    if tags is None:
        tags = applicable_tags(speed)
    if not tags:
        raise ConfigError("a ladder needs at least one identity tag")
    repeated = sorted({t for t in tags if tags.count(t) > 1})
    if repeated:
        raise ConfigError(f"repeated identity tag(s) {repeated}")
    for tag in tags:
        _identity(tag, speed)
    if (len(levels) < 2 or any(a >= b for a, b in zip(levels, levels[1:]))
            or not all(map(_node_count_ok, levels))):
        raise ConfigError(f"need at least two grid levels, strictly increasing, each an "
                          f"even node count >= 8, to fit an order, got {tuple(levels)}")
    if not (np.isfinite(dt0) and dt0 > 0 and np.isfinite(t_check)):
        raise ConfigError(f"dt0 = {dt0:g} and t_check = {t_check:g} must be finite, dt0 > 0")
    if t_check < dt0 and _flow.whole_steps(t_check, dt0) != 1:
        raise ConfigError(
            f"t_check = {t_check:g} is {t_check / dt0:.6g} steps of dt = {dt0:g} at "
            f"N = {levels[0]}; it must be at least one step of the coarsest level")
    ladders = {tag: [] for tag in tags}
    for n_nodes in levels:
        dt = dt0 * (levels[0] / n_nodes) ** 2
        traj = standard_test_flow(ambient, speed, n_nodes, dt, t_check, r0=r0,
                                  amplitude=amplitude, mode=mode)
        for tag in tags:
            ladders[tag].append(evolution_residual(traj, tag, t_check, dt))
    reports = {}
    for tag, records in ladders.items():
        residuals = [r.residual for r in records]
        reports[tag] = LadderReport(tag=tag, records=records,
                                    order=estimate_order(levels, residuals),
                                    finest_pair_order=estimate_order(levels[-2:], residuals[-2:]),
                                    finest_residual=residuals[-1])
    return reports


# ---------------------------------------------------------------------------
# pointwise inequality gaps (eigenframe inputs)
# ---------------------------------------------------------------------------

def _quadratic_gap(w, v, kappa, a, b, spectrum=None):
    """terms(η̂) → (quad, pos, neg) of Q(η̂) + a·Σ (w_i/κ_j) η̂_ij² − b·(Σ w_i η̂_ii)²/v,
    the form of the f-lemma, Urbas and Harnack-form gaps; Q is F^{ij,kl} η̂ η̂ of
    the given d2F_spectrum at κ, or 0 without one.  pos and Q share one η̂²."""
    inv = 1.0 / kappa

    def terms(eta_hat):
        eta_sq = eta_hat ** 2
        pos = a * np.einsum("...i,...j,...ij->...", w, inv, eta_sq)
        quad = 0.0 if spectrum is None else \
            _sf.d2F_quadratic_eigenframe(spectrum, eta_hat, eta_sq)    # overwrites eta_sq
        neg = b * np.einsum("...i,...ii->...", w, eta_hat) ** 2 / v
        return quad, pos, neg
    return terms


def _f_lemma_kernel(f, speed, kappa):
    """The f-lemma gap: (w, v, Q, a, b) = (f_i, f, 0, 1, 1)."""
    return _quadratic_gap(grad_f(f, kappa), eval_f(f, kappa), kappa, 1.0, 1.0)


def _urbas_kernel(f, speed, kappa):
    """The Urbas gap, for inverse-concave f (scan_roster): (f_i, f, Q_f, 2, 2)."""
    return _quadratic_gap(grad_f(f, kappa), eval_f(f, kappa), kappa, 2.0, 2.0,
                          _sf.d2F_spectrum(SpeedFunction(f, 1.0), kappa))


def _harnack_form_kernel(f, speed, kappa):
    """The Harnack-form gap in the eigenframe: (Φ', δF, Q_F, 2, 1)."""
    spectrum = _sf.d2F_spectrum(speed, kappa)
    return _quadratic_gap(spectrum[0], speed.delta_default * speed.value(kappa), kappa,
                          2.0, 1.0, spectrum)


def _fb_dominance_kernel(f, speed, kappa):
    """terms(·) → (0, f/κ_i, f_i) per direction; the gap ignores η̂."""
    fi = grad_f(f, kappa)
    ratio = eval_f(f, kappa)[..., None] / kappa
    return lambda eta_hat: (0.0, ratio, fi)


# ---------------------------------------------------------------------------
# randomized scans
# ---------------------------------------------------------------------------

# One kernel per scanned inequality, in report order.
SCAN_KERNELS = {"f-lemma": _f_lemma_kernel, "urbas": _urbas_kernel,
                "harnack-form": _harnack_form_kernel,
                "fb-dominance": _fb_dominance_kernel}
SCAN_INEQUALITIES = tuple(SCAN_KERNELS)

DEFAULT_SEED = 20260817


def scan_roster(f: CurvatureFunction) -> tuple:
    """The scanned inequalities that apply to f: urbas only if f is inverse-concave."""
    return tuple(iq for iq in SCAN_INEQUALITIES if iq != "urbas" or f.inverse_concave)


# Samples drawn and evaluated together per _scan_once call, which bounds the
# memory, and the log-uniform range of each κᵢ; changing either changes
# every scan result.
SCAN_BATCH = 1024
KAPPA_RANGE = (1e-2, 1e2)

GAP_FLOOR = -1e-10      # a scan row passes at a worst normalized gap of at least GAP_FLOOR
WITNESS_TOL = 1e-8      # and a largest witness gap of at most WITNESS_TOL


@dataclass
class ScanReport:
    inequality: str
    f_name: str
    n: int
    samples: int
    seed: int
    min_normalized_gap: float
    witness_max_abs_gap: float


def metric_pair(kappa, rng):
    """(g, h) stacks with Weingarten eigenvalues exactly κ, from two Gaussians of rng.

    g = G Gᵀ + n·1 and h = L Q diag(κ) Qᵀ Lᵀ, with g = L Lᵀ and Q the QR
    factor of the second Gaussian Z.  Each Gaussian is freed once read: G
    before Z is drawn, Z before h is formed.
    """
    samples, n = kappa.shape
    g = rng.standard_normal((samples, n, n))
    g = g @ np.swapaxes(g, 1, 2)
    g += n * np.eye(n)
    Q = np.linalg.qr(rng.standard_normal((samples, n, n)))[0]
    h = (Q * kappa[:, None, :]) @ np.swapaxes(Q, 1, 2)
    del Q
    L = np.linalg.cholesky(g)
    h = L @ h
    h = h @ np.swapaxes(L, 1, 2)
    return g, h


def _nan_or(pick, *values):
    """pick(values), min or max, or NaN if a value is NaN: both keep a NaN only in first place."""
    return np.nan if np.isnan(values).any() else pick(values)


def _scan_once(inequality, f, speed, rng, samples, n):
    """Worst normalized gap of one batch, then the gap at its equality witness.

    The batch draws from rng, in order, log-uniform κ in Γ₊ (over
    KAPPA_RANGE), the Gaussian behind η̂ (symmetrized in place) and, for
    harnack-form, the two Gaussians that metric_pair draws.  harnack-form
    turns η and its witness h into the eigenframe right after the
    eigensolve, so g, h and T are freed before the kernel runs; η̂ is freed
    once its gap is read.
    """
    lo, hi = np.log(KAPPA_RANGE[0]), np.log(KAPPA_RANGE[1])
    kappa = np.exp(rng.uniform(lo, hi, size=(samples, n)))
    eta_hat = rng.standard_normal((samples, n, n))
    eta_hat += np.swapaxes(eta_hat, 1, 2)
    eta_hat *= 0.5
    general = inequality == "harnack-form"
    if general:
        # Exercised through general-position (g, h) pairs rather than the
        # eigenframe: the sampled η is a coordinate matrix here.  One
        # eigensolve serves both η and the equality witness η = h.
        g, h = metric_pair(kappa, rng)
        kappa, T = _sf.weingarten_eigensystem(g, h)
        eta_hat = _sf._to_eigenframe(T, eta_hat)
        witness = _sf._to_eigenframe(T, h)
        del g, h, T
    terms = SCAN_KERNELS[inequality](f, speed, kappa)
    quad, pos, neg = terms(eta_hat)
    del eta_hat
    worst = float(((quad + pos - neg) / np.maximum(np.abs(quad) + pos + neg, 1e-300)).min())
    if inequality == "fb-dominance":
        return worst, 0.0
    quad, pos, neg = terms(witness if general else _sf._diag_embed(kappa))
    return worst, float(np.max(np.abs(quad + pos - neg)))


def scan_inequalities(inequalities=SCAN_INEQUALITIES, n_values=(2, 3, 5),
                      samples: int = 100_000, seed: int = DEFAULT_SEED,
                      speed: Optional[SpeedFunction] = None) -> list:
    """Randomized certification scans of the pointwise matrix inequalities.

    Scans f = speed.f (speed defaults to the mean curvature H).  Unknown or
    repeated tags, samples < 1, empty, repeated or non-positive dimensions,
    a seed that is not a non-negative integer, an inequality outside
    scan_roster(f) (urbas for an f that is not inverse-concave) and a task
    whose gap is not finite at the corners of the sampled κ box (η̂ all
    ones; f overflows there) raise ConfigError before any sample is drawn.
    Each (inequality, n) row draws from its own SeedSequence(seed,
    spawn_key=(n, *tag bytes)), so it reproduces from the same seed,
    inequality, n and samples, whatever else the scan runs.  Returns
    ScanReports with the worst normalized gap over all samples and the
    largest |gap| at the equality witness: η̂ = diag(κ), or η̂ = Tᵀ h T for
    harnack-form.
    """
    bad = [iq for iq in inequalities if iq not in SCAN_KERNELS]
    if bad:
        raise ConfigError(f"unknown inequality tag(s) {bad}; "
                          f"known: {list(SCAN_INEQUALITIES)}")
    if samples < 1 or not inequalities or not n_values or min(n_values) < 1:
        raise ConfigError(
            f"a scan needs samples >= 1, an inequality and dimensions >= 1, got "
            f"samples = {samples}, {tuple(inequalities)} and {tuple(n_values)}")
    repeated = [sorted({v for v in vs if vs.count(v) > 1}) for vs in (inequalities, n_values)]
    if any(repeated):
        raise ConfigError(f"repeated inequality tag(s) {repeated[0]} or dimension(s) {repeated[1]}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"the scan seed must be a non-negative integer, got {seed!r}")
    if speed is None:
        speed = SpeedFunction(_sf.mean(), 1.0)
    f = speed.f
    if not set(inequalities) <= set(scan_roster(f)):
        raise ConfigError(f"the Urbas inequality needs an inverse-concave f, got {f.name}")
    tasks = [(ineq, n) for ineq in inequalities for n in n_values]
    for ineq, n in tasks:
        # row k: k coordinates at the top of the box; f is symmetric, so the
        # n + 1 rows stand for all 2ⁿ corners
        corners = np.where(np.arange(n) < np.arange(n + 1)[:, None], KAPPA_RANGE[1], KAPPA_RANGE[0])
        with np.errstate(all="ignore"):
            quad, pos, neg = SCAN_KERNELS[ineq](f, speed, corners)(np.ones((n + 1, n, n)))
        if not np.isfinite(quad + pos - neg).all():
            raise ConfigError(f"the {ineq} gap at n = {n} for f = {f.name} is not finite "
                              f"at the corners of the sampled box {KAPPA_RANGE}^n")
    reports = []
    for ineq, n in tasks:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, *ineq.encode())))
        gaps, witness_gaps = zip(*(
            _scan_once(ineq, f, speed, rng, min(SCAN_BATCH, samples - done), n)
            for done in range(0, samples, SCAN_BATCH)))
        reports.append(ScanReport(inequality=ineq, f_name=f.name, n=n,
                                  samples=samples, seed=seed,
                                  min_normalized_gap=_nan_or(min, *gaps),
                                  witness_max_abs_gap=_nan_or(max, *witness_gaps)))
    return reports


# ---------------------------------------------------------------------------
# scalar ζ-conditions for the strong sphere estimate (F = H^p)
# ---------------------------------------------------------------------------

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
    delta = speed.delta_default
    F, F1, F2, F3 = speed.scalar_derivs(H)
    z = _ha.zeta_general(p, n, F, 0)
    z1 = _ha.zeta_general(p, n, F, 1)
    z2 = _ha.zeta_general(p, n, F, 2)
    p_star = _ha.zeta_branch_threshold(n)

    grad_term = _zeta_gradient_coefficient(n, F, F1, F2, F3) \
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
