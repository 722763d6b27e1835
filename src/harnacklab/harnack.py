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

This module only evaluates the quantities; their evolution equations and
the sphere remainders R_β, R_θ and R are the verify module's identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import AmbientSpace, SurfaceState
from .symfunc import SpeedFunction, as_float

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
    F = as_float(F)
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
    return np.zeros_like(as_float(F))


# ---------------------------------------------------------------------------
# χ quantities
# ---------------------------------------------------------------------------

def analytic_dtF(state: SurfaceState) -> np.ndarray:
    """∂ₜF = β + cF tr(Ḟ) along the flow, from a single state."""
    return state.beta + state.ambient.c * state.F * state.tr_dF


def chi1(state: SurfaceState) -> np.ndarray:
    """χ₁ = t(∂ₜF − θ) + δF with the analytic ∂ₜF and δ = α/(α+1)."""
    return state.t * (analytic_dtF(state) - state.theta) + state.speed.delta_default * state.F


def chi2(state: SurfaceState) -> np.ndarray:
    """χ₂ = t(β − θ) + δF with δ = α/(α+1)."""
    return state.t * (state.beta - state.theta) + state.speed.delta_default * state.F


def require_mean(speed: SpeedFunction, what):
    """Raise ConfigError unless the speed is a power of the mean curvature."""
    if speed.f.name != "mean":
        raise ConfigError(f"{what} is specific to powers of the mean curvature, "
                          f"got f = {speed.f.name}")


def chi3(state: SurfaceState) -> np.ndarray:
    """χ₃ = χ₂ + c·t·ζ(F) for F = H^p (case-split ζ); the chi3 monitor and
    identity refuse any other f before they run."""
    z = zeta_monitor(state.speed.exponent, state.dim, state.F)
    return chi2(state) + state.ambient.c * state.t * z


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
        if self.delta is not None and not np.isfinite(self.delta):
            raise ConfigError(f"delta must be a finite number, got {self.delta}")


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


def monitor_delta(config: HarnackConfig, ambient: AmbientSpace,
                  speed: SpeedFunction) -> float:
    """The δ of the configured monitor for this ambient and speed.

    Raises ConfigError if the variant does not apply to them or δ is out of
    its range.  Nothing here depends on a state, so a caller can check a
    monitor before any flow runs.
    """
    variant = config.variant
    if variant.startswith("euclidean"):
        if ambient.c != 0:
            raise ConfigError("euclidean variants need ambient curvature c = 0")
        if variant == "euclidean-contracting" and not speed.contracting:
            raise ConfigError("euclidean-contracting monitor got an expanding speed")
        if variant == "euclidean-expanding" and speed.contracting:
            raise ConfigError("euclidean-expanding monitor got a contracting speed")
    if variant in ("chi3", "strong-Hp"):
        require_mean(speed, variant)

    if variant == "strong-Hp":
        p = speed.exponent
        if not 0 < p <= 1:
            raise ConfigError(f"strong-Hp needs 0 < p <= 1, got {p:g}")
        delta = speed.delta_default
        if config.delta is not None and abs(config.delta - delta) > 1e-12:
            raise ConfigError("strong-Hp pins delta = p/(p+1); leave it unset")
    else:
        delta = (speed.delta_default if config.delta is None
                 else float(config.delta))
        bound = speed.delta_default
        if variant == "euclidean-contracting" and delta < bound - 1e-12:
            raise ConfigError(
                f"contracting variant needs delta >= {bound:g}, got {delta:g}")
        if variant == "euclidean-expanding" and delta > bound + 1e-12:
            raise ConfigError(
                f"expanding variant needs delta <= {bound:g}, got {delta:g}")
        if variant in ("chi1", "chi2", "chi3") and speed.contracting and delta <= 0:
            raise ConfigError(
                f"contracting monitors need delta > 0, got {delta:g}")
    return delta


def evaluate_monitor(state: SurfaceState, config: HarnackConfig,
                     dtF: Optional[np.ndarray] = None) -> HarnackReport:
    """Evaluate the configured Harnack quantity Q = χ/t on one state.

    dtF replaces the analytic ∂ₜF = β + cF tr(Ḟ), for instance with a
    centered difference of stored states (flow.time_derivative); None keeps
    the closed-form value.  Besides monitor_delta's refusals, a state at
    t <= 0 and a δ so large that δF/t overflows raise ConfigError.
    """
    t = state.t
    if t <= 0:
        raise ConfigError("monitors need a state at t > 0")
    c = state.ambient.c
    variant = config.variant
    delta = monitor_delta(config, state.ambient, state.speed)

    with np.errstate(over="ignore"):
        delta_F_over_t = delta * state.F / t
    if not np.isfinite(delta_F_over_t).all():
        raise ConfigError(f"delta = {delta:g} makes the term delta*F/t overflow at t = {t:g}")
    if dtF is None:
        dtF = analytic_dtF(state)

    zero = np.zeros_like(state.F)
    correction = zero
    zterm = zero
    if variant in ("chi2", "chi3", "strong-Hp"):
        correction = -c * state.F * state.tr_dF if c else zero
    if variant in ("chi3", "strong-Hp"):
        zterm = c * zeta_monitor(state.speed.exponent, state.dim, state.F)

    terms = {"dtF": dtF,
             "minus_theta": -state.theta,
             "correction": correction,
             "delta_F_over_t": delta_F_over_t,
             "zeta": zterm}
    Q = terms["dtF"] + terms["minus_theta"] + terms["correction"] \
        + terms["delta_F_over_t"] + terms["zeta"]
    return HarnackReport(variant=variant, t=t, delta=delta, Q=Q, terms=terms)
