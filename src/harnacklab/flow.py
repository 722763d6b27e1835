"""Lagrangian time stepping for ∂ₜx = −F ν plus exact round-sphere solutions.

Markers move with the surface: each grid node follows its own flow line, so
stored states at different times share the same label grid and Lagrangian
time derivatives are plain centered differences of per-node fields.  A run
stores the stepper's output (marker arrays, or geodesic spheres on the
grid-free tier); a stored step becomes a SurfaceState only when it is read,
and a trajectory keeps only the three states read last (Trajectory).

The stepper is classical RK4 on the marker coordinates.  For c = 1 the
velocity −F m is tangent to the unit sphere containing the profile (m ⊥ c by
construction), so |c| is a first integral of the extended system; markers are
renormalized once per completed step, which only removes the O(Δt⁵)
integrator drift and keeps the scheme fourth-order.  An n = 2 profile is a
double cover of its meridian, so the stepper advances only its upper half
and unfolds each stored step to the full grid (run).  geometry._profile_geometry
is the one check of each stage's κ, so a stage and a step read f(κ) without
eval_f's second cone check, and a step evaluates f once for both F and Φ'.

An adaptive run (dt=None) takes Δt = SAFETY · RK4_LIMIT · ds_min² / max Φ'.
RK4_LIMIT · ds_min² / max Φ' is the largest step for which RK4 stays stable
on the frozen-coefficient linearization ∂ₜψ = Φ'ᵢ ∂²ψ/∂sᵢ² discretized by
periodic_d2, and SAFETY is the fraction of it taken.  The bound is
invariant under parabolic rescaling, so a rescaled problem takes the same
number of steps.  An adaptive step that leaves the convex cone is retried
once at half its size; a fixed step that does so is a StabilityViolation,
since the flow itself keeps convex surfaces convex.  A fixed dt takes
fixed_steps(t_end, dt) steps on either tier, so neither steps a sliver.
A step that fails ends the run at its last completed step (run).

Round spheres stay round: their radius obeys ṙ = −F(cot r) (c = 1) or
ṙ = −F(1/r) (c = 0), which is solved in closed form: for spherical p ≠ 1
the lifespan integral is an incomplete beta function, summed as a series and
inverted by Newton's method.  The grid-free sphere tier works in every
dimension n ≥ 1 and doubles as the reference solution for grid runs.

Both tiers share one stop rule (_stop): a run ends at the first time t ≥ 0
at which κ_max ≥ max_kappa or the distance from the center falls below
min_radius, or else at t_end.  A contracting sphere reaches the curvature cap
before it goes extinct, so no grid-free run asks for a time past extinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import geometry
from .errors import (ConfigError, ConvexityLost, DegenerateGrid, HarnackLabError,
                     OutOfRange, StabilityViolation)
from .geometry import AmbientSpace, GeodesicSphere, SurfaceState
from .symfunc import SpeedFunction, eval_f

# Relative tolerance (scaled by max(1, |t|)) within which a stored time
# matches a requested one.
STATE_RTOL = 1e-9

# Step budget of one run: a fixed dt on either tier is refused beforehand
# (FlowConfig); an adaptive grid run that exhausts it ends as "unstable" (run).
MAX_STEPS = 2_000_000

# RK4's stability interval on the negative real axis (2.785…) over the
# largest |eigenvalue|·ds² of periodic_d2, reached at the Nyquist mode:
# (2·2 + 27·2 + 270·2 + 490)/180 = 1088/180 ≈ 6.044.
RK4_LIMIT = 2.785 / (1088.0 / 180.0)

# Fraction of RK4_LIMIT an adaptive step takes.
SAFETY = 0.8

# Largest curvature cap: the round sphere of curvature κ has metric a² ≈ κ⁻²
# and inverse metric κ², both normal floats up to κ = 1/√tiny ≈ 6.7e153.
MAX_KAPPA_LIMIT = 1.0 / math.sqrt(np.finfo(float).tiny)

SERIES_TERMS = 60     # terms of each power series in _tan_power_integral

# Newton budget of one radius query; the worst seen (1e-15 of the lifespan
# short of extinction, at a near-odd exponent) needs 48.
NEWTON_STEPS = 100


@dataclass
class FlowConfig:
    """Everything run() needs: ambient, speed, initial data and stepping knobs.

    dt=None selects the adaptive step of the module docstring (ds_min is the
    shortest marker spacing, max Φ' the largest ∂F/∂κᵢ over nodes and
    directions; Δt/2 retries count in Trajectory.rejected_steps).  An
    explicit dt takes fixed_steps(t_end, dt) steps, the last maybe partial,
    as the two steps of Δt that end each convergence ladder level need (the
    level reaches them at the adaptive step); a fixed dt that needs more than
    MAX_STEPS steps is refused here, on the grid-free tier too, which stores
    its multiples; an adaptive run that needs more ends "unstable" (run).
    The stop rule's max_kappa is positive and at most MAX_KAPPA_LIMIT, so the
    sphere at the cap assembles to finite fields; min_radius is finite, 0 for
    none, and measured from the symmetry center (geometry.center_distance).
    Expanding speeds raise ConfigError on the sphere.
    """

    ambient: AmbientSpace
    speed: SpeedFunction
    initial: Union[GeodesicSphere, np.ndarray]  # grid-free sphere or (N, d) markers
    t_end: float
    dt: Optional[float] = None
    store_every: int = 1
    max_kappa: float = 1e4
    min_radius: float = 0.0
    dtype: str = "float64"

    def __post_init__(self):
        if self.ambient.c == 1 and not self.speed.contracting:
            raise ConfigError("expanding speeds are Euclidean-only")
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end!r}")
        if self.dt is not None and (not np.isfinite(self.dt) or self.dt <= 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if self.dt is not None and self.t_end / self.dt > MAX_STEPS:
            raise ConfigError(f"a fixed dt = {self.dt:g} needs {self.t_end / self.dt:.6g} steps to "
                              f"reach t = {self.t_end:g}, more than the step budget of {MAX_STEPS}")
        if self.store_every < 1:
            raise ConfigError("store_every must be >= 1")
        if not 0 < self.max_kappa <= MAX_KAPPA_LIMIT:
            raise ConfigError(f"max_kappa must lie in (0, {MAX_KAPPA_LIMIT:.6g}], so that the "
                              f"sphere at the cap has finite fields, got {self.max_kappa!r}")
        if not np.isfinite(self.min_radius) or self.min_radius < 0:
            raise ConfigError(f"min_radius must be non-negative, got {self.min_radius!r}")
        if self.dtype not in ("float64", "longdouble"):
            raise ConfigError(
                f"dtype must be 'float64' or 'longdouble', got {self.dtype!r}")


@dataclass
class Trajectory:
    """Stored steps of one run, all on the same Lagrangian grid, read as a sequence of states.

    steps[i], the step at times[i], is what geometry.assemble reads: an
    (N, d) marker array, or a GeodesicSphere on the grid-free tier.
    steps[0] is the array passed in (in the configured dtype); for n = 2
    every other stored step is the unfolded upper half, exactly
    mirror-symmetric.  traj[i] (negative i too), iteration in time order
    and state_at assemble a step when it is read and keep the three states
    read last: a state and its two time neighbours, all that a centered
    difference reads, so no reader assembles a state twice and memory does
    not grow with the run.
    rejected_steps counts adaptive steps retried at half size; failure is
    the error of the step that ended a "convexity-lost", "grid-degenerate"
    or "unstable" run (run), else None.
    """

    config: FlowConfig
    times: np.ndarray
    steps: list
    termination: str
    rejected_steps: int = 0
    failure: Optional[HarnackLabError] = None
    _assembled: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int) -> SurfaceState:
        i = range(len(self.steps))[i]
        state = self._assembled.pop(i, None)
        if state is None:
            state = geometry.assemble(self.steps[i], self.config.ambient, self.config.speed,
                                      t=float(self.times[i]))
        self._assembled[i] = state          # the last key is the state read last
        if len(self._assembled) > 3:
            del self._assembled[next(iter(self._assembled))]
        return state

    def __iter__(self):
        return (self[i] for i in range(len(self.steps)))

    def state_at(self, t: float) -> SurfaceState:
        tol = STATE_RTOL * max(1.0, abs(t))
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise OutOfRange(
                f"no stored state at t = {t:g} (nearest is {self.times[i]:g})")
        return self[i]


def whole_steps(span: float, dt: float) -> Optional[int]:
    """round(span / dt) if span is that many steps of dt within STATE_RTOL < dt/2, else None."""
    n = round(span / dt)
    return n if abs(n * dt - span) <= STATE_RTOL * max(1.0, abs(span)) < 0.5 * dt else None


def fixed_steps(span: float, dt: float) -> int:
    """Steps of a fixed dt onto span, on either tier: whole_steps, else ceil(span / dt)."""
    return whole_steps(span, dt) or math.ceil(span / dt)


def _project(ambient, markers):
    if ambient.c == 1:
        return markers / np.sqrt(geometry._row_dot(markers, markers))[:, None]
    return markers


def _velocity(ambient, speed, markers):
    """−F ν at a stage's markers; κ goes to f unchecked: _profile_geometry has just checked it.

    The stepper's markers are the upper half of an n = 2 profile (run)."""
    _, normal, _, kappa = geometry._profile_geometry(ambient, markers, ambient.dim == 2)
    return -speed._from_f(speed.f.value(kappa))[:, None] * normal


def _rk4(ambient, speed, markers, dt, k1):
    k2 = _velocity(ambient, speed, markers + 0.5 * dt * k1)
    k3 = _velocity(ambient, speed, markers + 0.5 * dt * k2)
    k4 = _velocity(ambient, speed, markers + dt * k3)
    out = markers + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise StabilityViolation("markers became non-finite during a step")
    return _project(ambient, out)


def _advance(ambient, speed, markers, dt, k1):
    """One RK4 step and the geometry of its result: (markers, E, normal, kappa)."""
    stepped = _rk4(ambient, speed, markers, dt, k1)
    E, normal, _, kappa = geometry._profile_geometry(ambient, stepped, ambient.dim == 2)
    return stepped, E, normal, kappa


def run(config: FlowConfig) -> Trajectory:
    """Integrate the flow from the configured initial data.

    Stops at t_end ("completed": after fixed_steps(t_end, dt) steps of
    min(dt, t_end − t), or adaptively within 1e-12·t_end of it) or earlier
    when a step, the initial data included, meets the curvature cap
    ("curvature-cap") or the radius floor ("radius-floor"), or when a step
    fails.  A failed step ends the run at its last completed step, with the
    error in Trajectory.failure, and is named by its class: an adaptive step
    and its half-size retry both leave the convex cone ("convexity-lost",
    its message naming t, both step sizes and min κ), a step's marker grid
    degenerates ("grid-degenerate"), or a StabilityViolation ("unstable": a
    fixed-dt step leaves the cone, markers become non-finite, or an adaptive
    run needs more than MAX_STEPS steps).
    Every step's markers go through _profile_geometry, whose output also
    drives the next step; the markers of step 0, of every store_every-th
    step and of the last completed step are stored (store_every = MAX_STEPS
    stores only the first and the last), and nothing is assembled here.
    After the first step nothing is raised; non-convex or degenerate initial
    data raises ConvexityLost or DegenerateGrid before it.

    An n = 2 profile on N nodes is a double cover: node N−1−k is node k with
    the rotation coordinate negated.  Initial n = 2 markers farther from
    that than geometry.MIRROR_RTOL raise ConfigError (after the checks
    above), and the stepper advances only the upper half, N/2 nodes on
    (0, π), with reflection-padded stencils; the first step reads the upper
    half of the initial geometry.  Each stored step is unfolded to N nodes
    (geometry.unfold), so it is exactly mirror-symmetric; step 0 is the
    array passed in.
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
    E, normal, _, kappa = geometry._profile_geometry(ambient, markers)
    n_nodes = markers.shape[0]
    half = ambient.dim == 2
    if half:
        defect = geometry.mirror_defect(markers)
        if defect > geometry.MIRROR_RTOL:
            raise ConfigError(
                f"n = 2 markers must be mirror-symmetric (node N-1-k is node k with the "
                f"last coordinate negated) to be a surface of revolution; they are off by "
                f"{defect:.3g} of their largest coordinate, above {geometry.MIRROR_RTOL:g}")
    # the stop rule at t = 0 reads step 0, the whole array passed in
    termination = _stop(config, float(kappa.max()),
                        lambda: geometry.center_distance(ambient, markers).min())
    if half:
        m = n_nodes // 2
        markers, E, normal, kappa = markers[:m], E[:m], normal[:m], kappa[:m]
    times, steps = [0.0], [initial]
    t, steps_done, rejected, failure = 0.0, 0, 0, None
    n_fixed = None if config.dt is None else fixed_steps(config.t_end, config.dt)

    while termination is None:
        if (config.t_end - t <= 1e-12 * config.t_end if n_fixed is None
                else steps_done == n_fixed):
            termination = "completed"
            break
        fv = speed.f.value(kappa)       # F and Φ' share one f(κ)

        termination = _stop(config, float(kappa.max()),
                            lambda: geometry.center_distance(ambient, markers).min())
        if termination:
            break

        dt = config.dt
        if dt is None:
            ds_min = math.sqrt(float(E.min())) * (2.0 * np.pi / n_nodes)
            phi_max = float(speed._dvalue_from_f(kappa, fv).max())
            dt = SAFETY * RK4_LIMIT * ds_min ** 2 / max(phi_max, 1e-300)
        dt = min(dt, config.t_end - t)

        k1 = -speed._from_f(fv)[:, None] * normal
        try:
            if steps_done >= MAX_STEPS:
                raise StabilityViolation(f"step budget of {MAX_STEPS} exhausted")
            try:
                stepped, E, normal, kappa = _advance(ambient, speed, markers, dt, k1)
            except ConvexityLost:
                if config.dt is not None:
                    raise StabilityViolation(
                        f"a step of dt = {dt:g} from t = {t:g} left the convex cone; "
                        f"the fixed dt is too large") from None
                rejected += 1
                dt *= 0.5
                stepped, E, normal, kappa = _advance(ambient, speed, markers, dt, k1)
        except (ConvexityLost, DegenerateGrid, StabilityViolation) as exc:
            failure = exc
            if type(exc) is ConvexityLost:      # the half-size retry's
                failure = ConvexityLost(f"a step of dt = {2 * dt:g} from t = {t:g} and its "
                                        f"retry at dt = {dt:g} left the convex cone: {exc}")
            termination = {ConvexityLost: "convexity-lost",
                           DegenerateGrid: "grid-degenerate"}.get(type(exc), "unstable")
            break
        markers, t = stepped, t + dt
        steps_done += 1
        if steps_done % config.store_every == 0:
            times.append(t)
            steps.append(geometry.unfold(markers) if half else markers)
    if steps_done % config.store_every:
        times.append(t)
        steps.append(geometry.unfold(markers) if half else markers)

    return Trajectory(config=config, times=np.array(times), steps=steps,
                      termination=termination, rejected_steps=rejected, failure=failure)


def _stop(config: FlowConfig, kappa_max: float, distance: Callable) -> Optional[str]:
    """The stop that holds at a state with largest curvature kappa_max, or None.

    distance() is the state's least distance from the center; it is only
    called when the run has a radius floor.
    """
    if kappa_max >= config.max_kappa:
        return "curvature-cap"
    if config.min_radius > 0 and distance() < config.min_radius:
        return "radius-floor"
    return None


def cap_radius(ambient: AmbientSpace, max_kappa: float) -> float:
    """Geodesic radius of the round sphere whose curvature is max_kappa."""
    return math.atan(1.0 / max_kappa) if ambient.c == 1 else 1.0 / max_kappa


def _run_umbilic(config: FlowConfig) -> Trajectory:
    """Grid-free tier: spheres stay round, so each step is the radius ODE's sphere.

    The run stops by _stop's rule, as run() does.  An expanding sphere moves
    away from the cap and the floor, and a contracting one reaches the cap
    radius before it goes extinct, so no run queries the solution past
    extinction; the stop row holds the stop radius itself, since the cap's
    crossing time can round onto the extinction time.  A fixed-dt run stores
    what the gridded stepper stores: k·dt for every store_every-th k below
    fixed_steps(t_stop, dt), then the stop; an adaptive run stores 129 evenly
    spaced times, or t = 0 alone.
    """
    ambient, r0 = config.ambient, config.initial.radius
    sol = sphere_ode_solution(ambient, config.speed, r0)
    t_stop, r_stop = 0.0, r0
    termination = _stop(config, geometry._umbilic_kappa(ambient, r0), lambda: r0)
    if termination is None:
        t_stop, r_stop, termination = config.t_end, None, "completed"
        if config.speed.contracting:
            # κ(r0) < max_kappa, but the cap radius can round onto or past r0
            r_cap = min(cap_radius(ambient, config.max_kappa), r0)
            for r_hit, cause in ((config.min_radius, "radius-floor"), (r_cap, "curvature-cap")):
                t_hit = sol.time_of_radius(r_hit)       # None for no floor (0)
                if t_hit is not None and t_hit <= t_stop:
                    t_stop, r_stop, termination = t_hit, r_hit, cause

    if not config.dt:
        times = np.linspace(0.0, t_stop, 129 if t_stop else 1)
    else:
        n_steps = fixed_steps(t_stop, config.dt)
        times = np.append(config.dt * np.arange(0, n_steps, config.store_every), t_stop)
    radii = sol.radius(times) if r_stop is None else np.append(sol.radius(times[:-1]), r_stop)
    steps = [GeodesicSphere(float(r)) for r in radii]
    return Trajectory(config=config, times=times, steps=steps, termination=termination)


# ---------------------------------------------------------------------------
# exact solutions for round spheres
# ---------------------------------------------------------------------------

@dataclass
class SphereSolution:
    """Closed-form solution of ṙ = −F for a round sphere."""

    ambient: AmbientSpace
    speed: SpeedFunction
    r0: float
    t_extinction: Optional[float]
    _radius_fn: Callable
    _time_fn: Callable

    def radius(self, t):
        """Geodesic radius r(t); raises ConfigError outside the lifespan."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
            raise ConfigError("negative or non-finite times are outside the domain")
        if self.t_extinction is not None and np.any(t_arr >= self.t_extinction):
            raise ConfigError(
                f"requested time beyond the extinction time {self.t_extinction:g}")
        out = self._radius_fn(t_arr)
        return float(out) if np.isscalar(t) else out

    def time_of_radius(self, r):
        """Inverse of radius(), never past t_extinction; None if r is never attained."""
        if not (0 < r <= self.r0) if self.speed.contracting else not (r >= self.r0):
            return None
        return self._time_fn(r)


def sphere_ode_solution(ambient: AmbientSpace, speed: SpeedFunction,
                        r0: float) -> SphereSolution:
    """Solve the round-sphere radius ODE for the given ambient and speed."""
    geometry._validate_radius(ambient, r0)
    f1 = float(eval_f(speed.f, np.ones(ambient.dim)))
    a = speed.exponent

    if ambient.c == 0:
        # d/dt r^(1+a) = ∓(1+a) f1^a, contracting (a > 0) or expanding (a = −β)
        rate = -speed.sign * (1.0 + a) * f1 ** a
        t_ext = -r0 ** (1.0 + a) / rate if speed.contracting else None

        def radius_fn(t):
            return (r0 ** (1.0 + a) + rate * t) ** (1.0 / (1.0 + a))

        def time_of(r):
            return (r ** (1.0 + a) - r0 ** (1.0 + a)) / rate

        return SphereSolution(ambient, speed, r0, t_ext, radius_fn, time_of)

    if a < 0:
        raise ConfigError("expanding speeds are Euclidean-only")

    if a == 1.0:
        # d/dt cos r = f1 cos r
        t_ext = -math.log(math.cos(r0)) / f1

        def radius_fn(t):
            return np.arccos(np.minimum(math.cos(r0) * np.exp(f1 * t), 1.0))

        def time_of(r):     # the ratio's rounding can put r → 0 an ulp past t_ext
            return min(math.log(math.cos(r) / math.cos(r0)) / f1, t_ext)

        return SphereSolution(ambient, speed, r0, t_ext, radius_fn, time_of)

    # general power: t(r) = f1^(-a)·(G(r0) − G(r)).  G rises and is convex on
    # (0, π/2), so Newton from r0 falls monotonically onto r(t) until roundoff.
    G = _tan_power_integral(a)
    scale = f1 ** (-a)
    g0 = float(G(r0))

    def time_of(r):
        return (g0 - float(G(r))) * scale

    def radius_fn(t):
        target = g0 - np.asarray(t, dtype=float) / scale
        r = np.full(target.shape, r0)
        for _ in range(NEWTON_STEPS):
            step = (G(r) - target) / np.tan(r) ** a
            done = r - step >= r
            if done.all():
                return r
            r = np.where(done, r, r - step)
        raise StabilityViolation(f"radius did not settle in {NEWTON_STEPS} Newton steps")

    return SphereSolution(ambient, speed, r0, g0 * scale, radius_fn, time_of)


def _tan_power_integral(a):
    """G(r) = ∫₀^r tanᵃs ds = ½·B(sin²r; p, 1−p), p = (1+a)/2, as a function of r.

    B (DLMF §8.17) is summed as two power series that converge like 2⁻ᵏ, so
    SERIES_TERMS terms serve every r in [0, π/2): about 0 in x = sin²r up to
    x = ½, then about 1 in z = cos²r, taken directly so nothing cancels near π/2.
    """
    p = 0.5 * (1.0 + a)
    k = np.arange(SERIES_TERMS)
    f, e = p + k, 1.0 - p + k
    # ∫₀^x u^(p−1)(1−u)^(−p) du = Σ (p)ₖ/k!·x^f/f and
    # ∫_z^½ (1−u)^(p−1) u^(−p) du = Σ (1−p)ₖ/k!·(2^(−e) − z^e)/e, summed as
    # −2^(−e)·expm1(−e·log(½/z))/e; the e = 0 term (odd a) is log(½/z).
    # (s)ₖ/k! is a cumulative product of (s + k − 1)/k.
    lower = np.cumprod(np.r_[1.0, f[:-1] / k[1:]]) / f
    upper = np.cumprod(np.r_[1.0, e[:-1] / k[1:]])
    log_coef = float(upper[e == 0].sum())
    upper = -upper * 0.5 ** e / np.where(e == 0, np.inf, e)

    def integral(r):
        r = np.asarray(r, dtype=float)
        x = np.minimum(np.sin(r) ** 2, 0.5)[..., None]
        log_ratio = np.log(0.5 / np.minimum(np.cos(r) ** 2, 0.5))
        terms = lower * x ** f + upper * np.expm1(-e * log_ratio[..., None])
        return 0.5 * (terms.sum(axis=-1) + log_coef * log_ratio)

    return integral


# ---------------------------------------------------------------------------
# Lagrangian time differencing of stored fields
# ---------------------------------------------------------------------------

def time_derivative(trajectory: Trajectory, extractor, t: float, dt: float):
    """Centered difference (X(t+Δt) − X(t−Δt)) / 2Δt of a per-node field.

    extractor is a SurfaceState attribute name or a callable on states.
    The states of one trajectory share one Lagrangian grid, so the two
    sampled fields line up node by node.  OutOfRange unless stored states at
    t ± Δt straddle t (for Δt within STATE_RTOL, state_at may find t itself).
    """
    before = trajectory.state_at(t - dt)
    after = trajectory.state_at(t + dt)
    if not before.t < t < after.t:
        raise OutOfRange(f"no stored states straddle t = {t:g} at ± {dt:g}")
    pull = (lambda s: getattr(s, extractor)) if isinstance(extractor, str) else extractor
    xa, xb = np.asarray(pull(after)), np.asarray(pull(before))
    return (xa - xb) / (after.t - before.t)
