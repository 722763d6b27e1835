"""Differential Harnack quantities evaluated as runtime monitors.

For a contracting flow with speed F and Harnack exponent δ the primary
quantities, per node, are

    χ₁ = t(∂ₜF − θ) + δF,
    χ₂ = t(β − θ) + δF,
    χ₃ = χ₂ + c·t·ζ(F),        θ = b^{ij} ∇_i F ∇_j F,   β = F^{ij} α_{ij},

with ∂ₜF = β + c·F·tr(Ḟ) along the flow, so χ₁ = χ₂ + c·t·F·tr(Ḟ).  The
correction ζ is specific to mean-curvature powers F = H^p on the sphere:

    ζ(F) = p(n − 1/(2p−1)) F^{2−1/p}   for 1/2 + 1/(2n) < p < 1,
    ζ(F) = 0                           otherwise (p ≤ 1/2 + 1/(2n) or p = 1).

Monitors report the normalized quantity Q = χ/t, whose positivity is the
Harnack inequality.  For F = H^p on the sphere the strong quantity is

    Q = ∂ₜF − θ − c·corr·H^{2p−1} + p/(p+1) · F/t,

with corr = p/(2p−1) on the first branch, corr = n·p on the second; this is
exactly χ₃/t because −c F tr(Ḟ) + c ζ collapses to the single correction.

Reports carry an exact term breakdown (∂ₜF, −θ, curvature correction,
δF/t, c·ζ): Q is computed as the literal sum of the stored term arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import flow as _flow
from .errors import (ConfigError, MissingTrajectory, WrongAmbient, WrongSpeed)
from .geometry import SurfaceState

VARIANTS = ("chi1", "chi2", "chi3", "strong-Hp",
            "euclidean-contracting", "euclidean-expanding")


# ---------------------------------------------------------------------------
# ζ correction for F = H^p on the sphere
# ---------------------------------------------------------------------------

def zeta_branch_threshold(n: int) -> float:
    """Exponent p₀ = 1/2 + 1/(2n) separating the two strong-Harnack branches."""
    return 0.5 + 0.5 / n


def zeta_general(p: float, n: int, F, order: int = 0):
    """ζ(F) = p(n − 1/(2p−1)) F^(2−1/p) and its F-derivatives (any p > 1/2).

    This is the closed branch formula without the case split; the identity
    checks need it (and its first two derivatives) on the whole range
    p ∈ (1/2, 1].
    """
    if p <= 0.5:
        raise ConfigError(f"zeta formula needs p > 1/2, got p = {p:g}")
    amp = p * (n - 1.0 / (2.0 * p - 1.0))
    e = 2.0 - 1.0 / p
    F = np.asarray(F, dtype=float)
    if order == 0:
        return amp * F ** e
    if order == 1:
        return amp * e * F ** (e - 1.0)
    if order == 2:
        return amp * e * (e - 1.0) * F ** (e - 2.0)
    raise ConfigError("zeta derivatives are available up to order 2")


def zeta_monitor(p: float, n: int, F, order: int = 0):
    """Case-split ζ used by the monitors: nonzero only for p₀ < p < 1."""
    if zeta_branch_threshold(n) < p < 1.0:
        return zeta_general(p, n, F, order)
    return np.zeros_like(np.asarray(F, dtype=float))


def strong_correction_coefficient(p: float, n: int) -> float:
    """corr in Q = ∂ₜF − θ − c·corr·H^(2p−1) + pF/((p+1)t)."""
    if not 0 < p <= 1:
        raise ConfigError(f"strong quantity needs 0 < p <= 1, got {p:g}")
    if zeta_branch_threshold(n) < p < 1.0:
        return p / (2.0 * p - 1.0)
    return n * p


# ---------------------------------------------------------------------------
# χ quantities
# ---------------------------------------------------------------------------

def _delta_or_default(state, delta):
    return state.speed.delta_default if delta is None else float(delta)


def chi1(state: SurfaceState, t: Optional[float] = None,
         delta: Optional[float] = None) -> np.ndarray:
    """χ₁ = t(∂ₜF − θ) + δF with the analytic ∂ₜF = β + cF tr(Ḟ)."""
    t = state.t if t is None else t
    delta = _delta_or_default(state, delta)
    dtF = state.beta + state.ambient.c * state.F * state.tr_dF
    return t * (dtF - state.theta) + delta * state.F


def chi2(state: SurfaceState, t: Optional[float] = None,
         delta: Optional[float] = None) -> np.ndarray:
    """χ₂ = t(β − θ) + δF."""
    t = state.t if t is None else t
    delta = _delta_or_default(state, delta)
    return t * (state.beta - state.theta) + delta * state.F


def require_mean(state, what):
    """Raise WrongSpeed unless the speed is a power of the mean curvature."""
    if state.speed.f.name != "mean":
        raise WrongSpeed(f"{what} is specific to powers of the mean curvature, "
                         f"got f = {state.speed.f.name}")


def chi3(state: SurfaceState, t: Optional[float] = None,
         delta: Optional[float] = None) -> np.ndarray:
    """χ₃ = χ₂ + c·t·ζ(F) for F = H^p (case-split ζ)."""
    require_mean(state, "chi3")
    t = state.t if t is None else t
    z = zeta_monitor(state.speed.exponent, state.dim, state.F)
    return chi2(state, t, delta) + state.ambient.c * t * z


# ---------------------------------------------------------------------------
# remainder R of the χ₂ evolution equation
# ---------------------------------------------------------------------------

def quad_dF(state, X):
    """F^{ij} X_{ij}."""
    return np.einsum("nij,nij->n", state.dF, X)


def _bb_gradF(state):
    """b^{ir} b^j_r ∇_i F ∇_j F."""
    return np.einsum("nir,njm,nmr,ni,nj->n", state.b, state.b, state.g,
                     state.grad_F, state.grad_F)


def _bF_gradF(state):
    """b^j_k F^{kl} ∇_l F ∇_j F."""
    return np.einsum("njm,nmk,nkl,nl,nj->n", state.b, state.g, state.dF,
                     state.grad_F, state.grad_F)


def remainder_R(state: SurfaceState) -> np.ndarray:
    """Curvature remainder R in the χ₂ evolution (sphere terms, c = 1 weight).

    The structural expression, valid for every admissible speed; second
    derivatives of F enter only through polarized bilinear forms.  The
    scalar-calculus specialization for F = F(H) lives in the χ₃ identity of
    the verify module.
    """
    from . import geometry as _geo

    tr_field = state.tr_dF
    box_tr = _geo.box_op(state, tr_field)
    grad_tr = _geo.grad_scalar(state, tr_field)
    term = state.F * box_tr
    term = term + 2.0 * np.einsum("nkl,nk,nl->n", state.dF, grad_tr, state.grad_F)
    term = term + state.F * state.d2F_bilinear(state.alpha, state.g)
    term = term - 2.0 * state.F * state.d2F_bilinear(state.gamma, state.g)
    term = term + 2.0 * state.F ** 2 * quad_dF(state, state.h)
    term = term + (quad_dF(state, state.h) + state.F) * _bb_gradF(state)
    term = term - 2.0 * _bF_gradF(state)
    return term


# ---------------------------------------------------------------------------
# monitor reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarnackConfig:
    """Which quantity to monitor and with what exponent δ (None → default)."""

    variant: str
    delta: Optional[float] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown Harnack variant {self.variant!r}; choose from {VARIANTS}")


@dataclass
class HarnackReport:
    """Per-node monitored quantity with an exactly additive term breakdown."""

    variant: str
    t: float
    delta: float
    Q: np.ndarray
    terms: dict

    @property
    def min_Q(self) -> float:
        return float(self.Q.min())

    @property
    def argmin(self) -> int:
        return int(self.Q.argmin())


def evaluate_monitor(state: SurfaceState, config: HarnackConfig,
                     trajectory=None, dt: Optional[float] = None,
                     dtF_source: str = "analytic") -> HarnackReport:
    """Evaluate the configured Harnack quantity Q = χ/t on one state.

    dtF_source="trajectory" replaces the analytic ∂ₜF = β + cF tr(Ḟ) with a
    centered difference of stored states (raises MissingTrajectory without
    one); the default keeps the closed-form value.
    """
    t = state.t
    if t <= 0:
        raise ConfigError("monitors need a state at t > 0")
    c = state.ambient.c
    variant = config.variant

    if variant.startswith("euclidean"):
        if c != 0:
            raise WrongAmbient("euclidean variants need ambient curvature c = 0")
        if variant == "euclidean-contracting" and not state.speed.contracting:
            raise ConfigError("euclidean-contracting monitor got an expanding speed")
        if variant == "euclidean-expanding" and state.speed.contracting:
            raise ConfigError("euclidean-expanding monitor got a contracting speed")
    if variant in ("chi3", "strong-Hp"):
        require_mean(state, variant)

    if variant == "strong-Hp":
        p = state.speed.exponent
        if not 0 < p <= 1:
            raise ConfigError(f"strong-Hp needs 0 < p <= 1, got {p:g}")
        delta = p / (p + 1.0)
        if config.delta is not None and abs(config.delta - delta) > 1e-12:
            raise ConfigError("strong-Hp pins delta = p/(p+1); leave it unset")
    else:
        delta = _delta_or_default(state, config.delta)
        bound = state.speed.delta_default
        if variant == "euclidean-contracting" and delta < bound - 1e-12:
            raise ConfigError(
                f"contracting variant needs delta >= {bound:g}, got {delta:g}")
        if variant == "euclidean-expanding" and delta > bound + 1e-12:
            raise ConfigError(
                f"expanding variant needs delta <= {bound:g}, got {delta:g}")
        if variant in ("chi1", "chi2", "chi3") and state.speed.contracting and delta <= 0:
            raise ConfigError(
                f"contracting monitors need delta > 0, got {delta:g}")

    if dtF_source == "analytic":
        dtF = state.beta + c * state.F * state.tr_dF
    elif dtF_source == "trajectory":
        if trajectory is None or dt is None:
            raise MissingTrajectory("dtF_source='trajectory' needs trajectory and dt")
        dtF = _flow.time_derivative(trajectory, "F", t, dt)
    else:
        raise ConfigError(f"unknown dtF_source {dtF_source!r}")

    zero = np.zeros_like(state.F)
    correction = zero
    zterm = zero
    if variant in ("chi2", "chi3", "strong-Hp") or variant.startswith("euclidean"):
        correction = -c * state.F * state.tr_dF if c else zero
    if variant in ("chi3", "strong-Hp"):
        zterm = c * zeta_monitor(state.speed.exponent, state.dim, state.F)

    terms = {"dtF": dtF,
             "minus_theta": -state.theta,
             "correction": correction,
             "delta_F_over_t": delta * state.F / t,
             "zeta": zterm}
    Q = terms["dtF"] + terms["minus_theta"] + terms["correction"] \
        + terms["delta_F_over_t"] + terms["zeta"]
    return HarnackReport(variant=variant, t=t, delta=delta, Q=Q, terms=terms)
