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

VARIANTS holds each monitored variant's domain and terms; nothing else tests
a variant's name, and a run that names none monitors the first row that
admits it.  Q is the literal sum of the term arrays a report carries,
∂ₜF − θ + δF/t plus the terms of its row; p is the speed's exponent, δ
defaults to p/(p+1), and δ > 0 binds contracting speeds, the only ones the
sphere has (flow.FlowConfig):

    variant                ambient  f     p and δ                     adds
    chi2                   c = 1    any   δ > 0                       −cF tr Ḟ
    chi1                   c = 1    any   δ > 0
    chi3                   c = 1    mean  δ > 0                       −cF tr Ḟ, cζ
    strong-Hp              c = 1    mean  0 < p ≤ 1, δ = p/(p+1)      −cF tr Ḟ, cζ
    euclidean-contracting  c = 0    any   p > 0, δ ≥ p/(p+1)
    euclidean-expanding    c = 0    any   p < 0, δ ≤ p/(p+1)

This module only evaluates the quantities; their evolution equations and
the sphere remainders R_β, R_θ and R are the verify module's identities.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import AmbientSpace, SurfaceState
from .symfunc import SpeedFunction, as_float

# The rows of the table above: contracting is the speed's sign (None for
# either), delta is "positive", "pinned", "at-least" or "at-most" p/(p+1).
Variant = namedtuple("Variant", "c contracting mean_only delta correction zeta")
VARIANTS = {
    "chi2": Variant(1, None, False, "positive", True, False),
    "chi1": Variant(1, None, False, "positive", False, False),
    "chi3": Variant(1, None, True, "positive", True, True),
    "strong-Hp": Variant(1, None, True, "pinned", True, True),
    "euclidean-contracting": Variant(0, True, False, "at-least", False, False),
    "euclidean-expanding": Variant(0, False, False, "at-most", False, False),
}


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
                f"unknown Harnack variant {self.variant!r}; choose from {tuple(VARIANTS)}")
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


def f_refusal(name: str, speed: SpeedFunction) -> Optional[str]:
    """Why the row of VARIANTS under name refuses speed's f, or None (also for a
    name with no row).  The identities chi1–chi3 take this rule but not the
    ambient one: their evolution equations hold for c = 0 as well."""
    if name in VARIANTS and VARIANTS[name].mean_only and speed.f.name != "mean":
        return f"is specific to powers of the mean curvature, got f = {speed.f.name}"
    return None


def monitor_delta(config: HarnackConfig, ambient: AmbientSpace,
                  speed: SpeedFunction) -> float:
    """The δ of the configured monitor for this ambient and speed.

    Raises ConfigError if the variant's row does not admit them or δ is out
    of its range.  Nothing here depends on a state, so a caller can check a
    monitor before any flow runs.
    """
    variant = config.variant
    row = VARIANTS[variant]
    if ambient.c != row.c:
        raise ConfigError(f"{'sphere' if row.c else 'euclidean'} variants need "
                          f"ambient curvature c = {row.c}")
    if row.contracting is not None and speed.contracting != row.contracting:
        raise ConfigError(f"{variant} monitor got "
                          f"{'an expanding' if row.contracting else 'a contracting'} speed")
    if why := f_refusal(variant, speed):
        raise ConfigError(f"{variant} {why}")

    bound = speed.delta_default
    if row.delta == "pinned":
        if not 0 < speed.exponent <= 1:
            raise ConfigError(f"{variant} needs 0 < p <= 1, got {speed.exponent:g}")
        if config.delta is not None and abs(config.delta - bound) > 1e-12:
            raise ConfigError(f"{variant} pins delta = p/(p+1); leave it unset")
        return bound
    delta = bound if config.delta is None else float(config.delta)
    if row.delta == "at-least" and delta < bound - 1e-12:
        raise ConfigError(f"contracting variant needs delta >= {bound:g}, got {delta:g}")
    if row.delta == "at-most" and delta > bound + 1e-12:
        raise ConfigError(f"expanding variant needs delta <= {bound:g}, got {delta:g}")
    if row.delta == "positive" and speed.contracting and delta <= 0:
        raise ConfigError(f"contracting monitors need delta > 0, got {delta:g}")
    return delta


def admits(variant: str, ambient: AmbientSpace, speed: SpeedFunction) -> bool:
    """Whether the variant's row admits ambient and speed with its default δ."""
    try:
        monitor_delta(HarnackConfig(variant), ambient, speed)
    except ConfigError:
        return False
    return True


def default_variant(ambient: AmbientSpace, speed: SpeedFunction) -> str:
    """The variant of a run that names none: the first row that admits it."""
    return next(name for name in VARIANTS if admits(name, ambient, speed))


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
    delta = monitor_delta(config, state.ambient, state.speed)

    with np.errstate(over="ignore"):
        delta_F_over_t = delta * state.F / t
    if not np.isfinite(delta_F_over_t).all():
        raise ConfigError(f"delta = {delta:g} makes the term delta*F/t overflow at t = {t:g}")
    if dtF is None:
        dtF = analytic_dtF(state)

    row = VARIANTS[config.variant]
    zero = np.zeros_like(state.F)
    correction = -c * state.F * state.tr_dF if row.correction and c else zero
    zterm = c * zeta_monitor(state.speed.exponent, state.dim, state.F) if row.zeta else zero

    terms = {"dtF": dtF,
             "minus_theta": -state.theta,
             "correction": correction,
             "delta_F_over_t": delta_F_over_t,
             "zeta": zterm}
    Q = terms["dtF"] + terms["minus_theta"] + terms["correction"] \
        + terms["delta_F_over_t"] + terms["zeta"]
    return HarnackReport(variant=config.variant, t=t, delta=delta, Q=Q, terms=terms)
