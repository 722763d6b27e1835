"""Lagrangian time stepping for ∂ₜx = −F ν plus exact round-sphere solutions.

Markers move with the surface: each grid node follows its own flow line, so
stored states at different times share the same label grid and Lagrangian
time derivatives are plain centered differences of per-node fields.  A run
stores the stepper's output (marker arrays, or geodesic spheres on the
grid-free tier); a stored step becomes a SurfaceState only when it is read.

The stepper is classical RK4 on the marker coordinates.  For c = 1 the
velocity −F m is tangent to the unit sphere containing the profile (m ⊥ c by
construction), so |c| is a first integral of the extended system; markers are
renormalized once per completed step, which only removes the O(Δt⁵)
integrator drift and keeps the scheme fourth-order.

Round spheres stay round: their radius obeys ṙ = −F(cot r) (c = 1) or
ṙ = −F(1/r) (c = 0), which is solved in closed form where possible
(Euclidean contracting/expanding powers, spherical p = 1) and by quadrature
plus root bracketing otherwise.  The grid-free sphere tier works in every
dimension n ≥ 1 and doubles as the reference solution for grid runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate, optimize

from . import geometry
from .errors import (ConfigError, ConvexityLost, DomainExceeded, LabelMismatch,
                     OutOfRange, StabilityViolation, UnsupportedAmbient)
from .geometry import AmbientSpace, GeodesicSphere, SurfaceState
from .symfunc import SpeedFunction, eval_f

# Relative tolerance (scaled by max(1, |t|)) within which a stored time
# matches a requested one.
STATE_RTOL = 1e-9

# Step budget of one grid run; exhausting it raises StabilityViolation.
MAX_STEPS = 2_000_000


@dataclass
class FlowConfig:
    """Everything run() needs: ambient, speed, initial data and stepping knobs.

    dt=None selects the adaptive parabolic step
    Δt = safety · ds_min² / max(tr(Ḟ)·κ_max); an explicit dt is kept fixed
    (except for a final partial step onto t_end), which is what the
    convergence ladders use.  The run stops at the curvature cap max_kappa
    (positive and finite) and at the radius floor min_radius (finite, 0 for
    none).  Expanding speeds raise UnsupportedAmbient on the sphere.
    """

    ambient: AmbientSpace
    speed: SpeedFunction
    initial: Union[GeodesicSphere, np.ndarray]  # grid-free sphere or (N, d) markers
    t_end: float
    dt: Optional[float] = None
    safety: float = 0.2
    store_every: int = 1
    max_kappa: float = 1e4
    min_radius: float = 0.0
    dtype: str = "float64"

    def __post_init__(self):
        if self.ambient.c == 1 and not self.speed.contracting:
            raise UnsupportedAmbient("expanding speeds are Euclidean-only")
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end!r}")
        if self.dt is not None and (not np.isfinite(self.dt) or self.dt <= 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not 0 < self.safety <= 1:
            raise ConfigError(f"safety factor must lie in (0, 1], got {self.safety!r}")
        if self.store_every < 1:
            raise ConfigError("store_every must be >= 1")
        if not np.isfinite(self.max_kappa) or self.max_kappa <= 0:
            raise ConfigError(f"max_kappa must be positive, got {self.max_kappa!r}")
        if not np.isfinite(self.min_radius) or self.min_radius < 0:
            raise ConfigError(f"min_radius must be non-negative, got {self.min_radius!r}")
        if self.dtype not in ("float64", "longdouble"):
            raise ConfigError(
                f"dtype must be 'float64' or 'longdouble', got {self.dtype!r}")


@dataclass
class Trajectory:
    """Stored steps of one run, all on the same Lagrangian grid.

    steps[i], the step at times[i], is what geometry.assemble reads: an
    (N, d) marker array, or a GeodesicSphere on the grid-free tier.  states
    and state_at assemble a step the first time it is read and keep it.
    """

    config: FlowConfig
    times: np.ndarray
    steps: list
    termination: str
    _assembled: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def states(self) -> list:
        """Every stored SurfaceState, in time order."""
        return [self._state(i) for i in range(len(self.steps))]

    def state_at(self, t: float) -> SurfaceState:
        tol = STATE_RTOL * max(1.0, abs(t))
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise OutOfRange(
                f"no stored state at t = {t:g} (nearest is {self.times[i]:g})")
        return self._state(i)

    def _state(self, i: int) -> SurfaceState:
        if i not in self._assembled:
            self._assembled[i] = geometry.assemble(
                self.steps[i], self.config.ambient, self.config.speed, t=float(self.times[i]))
        return self._assembled[i]


def whole_steps(span: float, dt: float) -> Optional[int]:
    """round(span / dt) if span is that many steps of dt within STATE_RTOL, else None."""
    n = round(span / dt)
    return n if abs(n * dt - span) <= STATE_RTOL * max(1.0, abs(span)) else None


def _project(ambient, markers):
    if ambient.c == 1:
        return markers / np.linalg.norm(markers, axis=1, keepdims=True)
    return markers


def _velocity(ambient, speed, markers):
    _, _, _, normal, _, kappa, _, _ = geometry._profile_geometry(ambient, markers)
    return -speed.value(kappa)[:, None] * normal


def _rk4(ambient, speed, markers, dt, k1):
    k2 = _velocity(ambient, speed, markers + 0.5 * dt * k1)
    k3 = _velocity(ambient, speed, markers + 0.5 * dt * k2)
    k4 = _velocity(ambient, speed, markers + dt * k3)
    out = markers + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise StabilityViolation("markers became non-finite during a step")
    return _project(ambient, out)


def _min_extent(ambient, markers):
    """Smallest distance from a marker to the surface's rough center."""
    if ambient.c == 1:
        center = markers.mean(axis=0)
        center = center / np.linalg.norm(center)
        return float(np.arccos(np.clip(markers @ center, -1.0, 1.0)).min())
    center = markers.mean(axis=0)
    return float(np.linalg.norm(markers - center, axis=1).min())


def run(config: FlowConfig) -> Trajectory:
    """Integrate the flow from the configured initial data.

    Stops at t_end ("completed") or earlier when convexity fails, the
    curvature cap is reached, or the surface shrinks below the radius floor.
    Every step's markers go through _profile_geometry, whose output also
    drives the next step; the markers of every store_every-th step and of
    the last are stored, and nothing is assembled here.  Initial data that
    is already non-convex raises ConvexityLost, and a marker grid that
    degenerates raises DegenerateGrid at the step where it does.
    """
    if isinstance(config.initial, GeodesicSphere):
        return _run_umbilic(config)

    ambient, speed = config.ambient, config.speed
    markers = geometry._validated_markers(ambient, config.initial)
    initial = config.initial        # what state 0 is assembled from
    if markers.dtype != np.dtype(config.dtype):
        # Extended precision pushes down the roundoff floor of the stacked
        # label-derivative pipeline, which residual time-differencing would
        # otherwise amplify by 1/Δt.
        markers = initial = markers.astype(config.dtype)
    # non-convex or degenerate initial data raises here, before any step
    _, _, E, normal, _, kappa, _, _ = geometry._profile_geometry(ambient, markers)
    times, steps = [0.0], [initial]
    termination = "completed"
    t, steps_done = 0.0, 0

    while True:
        remaining = config.t_end - t
        if remaining <= 1e-12 * config.t_end:
            break
        if steps_done >= MAX_STEPS:
            raise StabilityViolation(f"step budget of {MAX_STEPS} exhausted")
        F = speed.value(kappa)

        kappa_max = float(kappa.max())
        if kappa_max >= config.max_kappa:
            termination = "curvature-cap"
            break
        if config.min_radius > 0 and _min_extent(ambient, markers) < config.min_radius:
            termination = "radius-floor"
            break

        if config.dt is not None:
            dt = min(config.dt, remaining)
        else:
            ds_min = math.sqrt(float(E.min())) * (2.0 * np.pi / markers.shape[0])
            stiffness = float((np.sum(speed.dvalue(kappa), axis=1) * kappa.max(axis=1)).max())
            dt = config.safety * ds_min ** 2 / max(stiffness, 1e-300)
            dt = min(dt, remaining)

        try:
            markers = _rk4(ambient, speed, markers, dt, -F[:, None] * normal)
            _, _, E, normal, _, kappa, _, _ = geometry._profile_geometry(ambient, markers)
        except ConvexityLost:
            termination = "convexity-lost"
            break
        t += dt
        steps_done += 1
        if steps_done % config.store_every == 0 or config.t_end - t <= 1e-12 * config.t_end:
            times.append(t)
            steps.append(markers)

    return Trajectory(config=config, times=np.array(times), steps=steps,
                      termination=termination)


def _run_umbilic(config: FlowConfig) -> Trajectory:
    """Grid-free tier: spheres stay round, so each step is the radius ODE's sphere.

    A t_end that is a whole number of dt steps (within STATE_RTOL) stores
    the dt grid, the same times a gridded run stores.
    """
    sol = sphere_ode_solution(config.ambient, config.speed, config.initial.radius)
    t_stop, termination = config.t_end, "completed"

    if sol.t_extinction is not None and config.t_end >= sol.t_extinction:
        raise DomainExceeded(
            f"t_end = {config.t_end:g} reaches the extinction time {sol.t_extinction:g}")
    if config.min_radius > 0:
        t_floor = sol.time_of_radius(config.min_radius) if sol.contracting else None
        if t_floor is not None and t_floor < t_stop:
            t_stop, termination = t_floor, "radius-floor"
    kap_cap = config.max_kappa
    if sol.contracting:
        r_cap = (math.atan(1.0 / kap_cap) if config.ambient.c == 1 else 1.0 / kap_cap)
        t_cap = sol.time_of_radius(r_cap)
        if t_cap is not None and t_cap < t_stop:
            t_stop, termination = t_cap, "curvature-cap"

    if config.dt:
        n_steps = whole_steps(config.t_end, config.dt)
        n_out = max(2, (int(config.t_end / config.dt) if n_steps is None else n_steps) + 1)
    else:
        n_out = 129
    times = np.linspace(0.0, t_stop, n_out)
    return Trajectory(config=config, times=times, steps=[sol.sphere(t) for t in times],
                      termination=termination)


# ---------------------------------------------------------------------------
# exact solutions for round spheres
# ---------------------------------------------------------------------------

@dataclass
class SphereSolution:
    """Closed-form (or quadrature) solution of ṙ = −F for a round sphere."""

    ambient: AmbientSpace
    speed: SpeedFunction
    r0: float
    t_extinction: Optional[float]
    _radius_fn: Callable
    _time_fn: Callable

    @property
    def contracting(self) -> bool:
        return self.speed.contracting

    def radius(self, t):
        """Geodesic radius r(t); raises DomainExceeded outside the lifespan."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise DomainExceeded("negative times are outside the solution domain")
        if self.t_extinction is not None and np.any(t_arr >= self.t_extinction):
            raise DomainExceeded(
                f"requested time beyond the extinction time {self.t_extinction:g}")
        out = self._radius_fn(t_arr)
        return float(out) if np.isscalar(t) else out

    def time_of_radius(self, r):
        """Inverse of radius(); None if the radius is never attained."""
        if not (0 < r <= self.r0) if self.contracting else not (r >= self.r0):
            return None
        return self._time_fn(r)

    def sphere(self, t) -> GeodesicSphere:
        """The grid-free sphere at time t."""
        return GeodesicSphere(float(self.radius(t)))

    def state(self, t) -> SurfaceState:
        """Assembled grid-free umbilic state at time t."""
        return geometry.assemble(self.sphere(t), self.ambient, self.speed, t=float(t))


def sphere_ode_solution(ambient: AmbientSpace, speed: SpeedFunction,
                        r0: float) -> SphereSolution:
    """Solve the round-sphere radius ODE for the given ambient and speed."""
    geometry._validate_radius(ambient, r0)
    n = ambient.dim
    f1 = float(eval_f(speed.f, np.ones(n)))
    a = speed.exponent

    if ambient.c == 0:
        if a > 0:
            # d/dt r^(1+a) = -(1+a) f1^a
            t_ext = r0 ** (1.0 + a) / ((1.0 + a) * f1 ** a)

            def radius_fn(t):
                return (r0 ** (1.0 + a) - (1.0 + a) * f1 ** a * t) ** (1.0 / (1.0 + a))

            def time_of(r):
                return (r0 ** (1.0 + a) - r ** (1.0 + a)) / ((1.0 + a) * f1 ** a)

            return SphereSolution(ambient, speed, r0, t_ext, radius_fn, time_of)
        # expanding: d/dt r^(1-beta) = (1-beta) f1^(-beta)
        b = -a

        def radius_fn(t):
            return (r0 ** (1.0 - b) + (1.0 - b) * f1 ** (-b) * t) ** (1.0 / (1.0 - b))

        def time_of(r):
            return (r ** (1.0 - b) - r0 ** (1.0 - b)) / ((1.0 - b) * f1 ** (-b))

        return SphereSolution(ambient, speed, r0, None, radius_fn, time_of)

    if a < 0:
        raise UnsupportedAmbient("expanding speeds are Euclidean-only")

    if a == 1.0:
        # d/dt cos r = f1 cos r
        t_ext = -math.log(math.cos(r0)) / f1

        def radius_fn(t):
            return np.arccos(np.minimum(math.cos(r0) * np.exp(f1 * t), 1.0))

        def time_of(r):
            return math.log(math.cos(r) / math.cos(r0)) / f1

        return SphereSolution(ambient, speed, r0, t_ext, radius_fn, time_of)

    # general power: t(r) = f1^(-a) ∫_r^{r0} tan^a s ds, inverted by bracketing
    def time_of(r):
        val, _ = integrate.quad(lambda s: math.tan(s) ** a, r, r0,
                                epsabs=1e-14, epsrel=1e-12, limit=200)
        return val * f1 ** (-a)

    t_ext = time_of(0.0)

    def radius_scalar(t):
        if t == 0.0:
            return r0
        return optimize.brentq(lambda r: time_of(r) - t, 1e-15, r0,
                               xtol=1e-15, rtol=8.9e-16, maxiter=200)

    def radius_fn(t):
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return np.float64(radius_scalar(float(t_arr)))
        return np.array([radius_scalar(float(tv)) for tv in t_arr])

    return SphereSolution(ambient, speed, r0, t_ext, radius_fn, time_of)


# ---------------------------------------------------------------------------
# Lagrangian time differencing of stored fields
# ---------------------------------------------------------------------------

def time_derivative(trajectory: Trajectory, extractor, t: float, dt: float):
    """Centered difference (X(t+Δt) − X(t−Δt)) / 2Δt of a per-node field.

    extractor is a SurfaceState attribute name or a callable on states.
    Both sampled states must live on the same Lagrangian grid.
    """
    before = trajectory.state_at(t - dt)
    after = trajectory.state_at(t + dt)
    if before.kind != after.kind or before.n_nodes != after.n_nodes:
        raise LabelMismatch("states do not share a Lagrangian grid labeling")
    pull = (lambda s: getattr(s, extractor)) if isinstance(extractor, str) else extractor
    xa, xb = np.asarray(pull(after)), np.asarray(pull(before))
    if xa.shape != xb.shape:
        raise LabelMismatch("extracted fields differ in shape between the two times")
    return (xa - xb) / (after.t - before.t)
