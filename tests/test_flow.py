"""Flow integration against closed-form round-sphere solutions, stopping
rules, and the Lagrangian time-differencing helper."""

import dataclasses
import gc
import hashlib
import itertools
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import flow, geometry as geo
from harnacklab import symfunc as sf
from harnacklab.errors import (ConfigError, ConvexityLost, DegenerateGrid, OutOfRange,
                               StabilityViolation)
from oracles import full_grid_rk4, sphere_state

SPHERE = geo.AmbientSpace(1, 2)
FLAT = geo.AmbientSpace(0, 2)


def _speed(p, name="mean"):
    return sf.SpeedFunction(sf.builtin(name), p)


# ---------------------------------------------------------------------------
# round-sphere ODE solutions
# ---------------------------------------------------------------------------

def test_flat_mean_flow_closed_form():
    # dr/dt = -2/r  =>  r(t) = sqrt(1 - 4t), extinction at 1/4
    sol = flow.sphere_ode_solution(FLAT, _speed(1.0), 1.0)
    npt.assert_allclose(sol.t_extinction, 0.25, rtol=1e-12)
    npt.assert_allclose(sol.radius(0.1), np.sqrt(0.6), rtol=1e-12)
    npt.assert_allclose(sol.time_of_radius(np.sqrt(0.6)), 0.1, rtol=1e-10)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
def test_flat_power_flow_closed_form(p):
    # dr/dt = -(2/r)^p  =>  r^(1+p) decays linearly at rate (1+p) 2^p
    r0 = 1.3
    sol = flow.sphere_ode_solution(FLAT, _speed(p), r0)
    t_ext = r0 ** (1 + p) / ((1 + p) * 2.0 ** p)
    npt.assert_allclose(sol.t_extinction, t_ext, rtol=1e-12)
    for t in (0.1 * t_ext, 0.5 * t_ext, 0.9 * t_ext):
        expected = (r0 ** (1 + p) - (1 + p) * 2.0 ** p * t) ** (1.0 / (1 + p))
        npt.assert_allclose(sol.radius(t), expected, rtol=1e-12)


def test_spherical_mean_flow_closed_form():
    # cos r grows like e^(2t); r0 = pi/3 dies at (ln 2)/2
    r0 = np.pi / 3
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), r0)
    npt.assert_allclose(sol.t_extinction, 0.5 * np.log(2.0), rtol=1e-12)
    for t in (0.05, 0.15, 0.3):
        npt.assert_allclose(np.cos(sol.radius(t)), np.cos(r0) * np.exp(2 * t), rtol=1e-10)


def test_spherical_root_flow_satisfies_ode():
    """No closed form for p = 1/2 in the sphere; check the ODE directly."""
    sol = flow.sphere_ode_solution(SPHERE, _speed(0.5), 0.9)
    assert 0 < sol.t_extinction < np.inf
    eps = 1e-6
    for t in (0.05, 0.2, 0.5 * sol.t_extinction):
        drdt = (sol.radius(t + eps) - sol.radius(t - eps)) / (2 * eps)
        npt.assert_allclose(drdt, -np.sqrt(2.0 / np.tan(sol.radius(t))), rtol=1e-6)
    # radius decreases monotonically
    ts = np.linspace(0.0, 0.95 * sol.t_extinction, 40)
    rs = np.array([sol.radius(t) for t in ts])
    assert np.all(np.diff(rs) < 0)


@pytest.mark.parametrize("r0", [0.8, 1.3, 1.5, 1.5707])
def test_spherical_integer_power_extinction_times(r0):
    """∫₀^r0 tan²s ds = tan r0 − r0 and ∫₀^r0 tan³s ds = tan²r0/2 + ln cos r0, f(1, 1) = 2."""
    sol2 = flow.sphere_ode_solution(SPHERE, _speed(2.0), r0)
    npt.assert_allclose(sol2.t_extinction, (np.tan(r0) - r0) / 4, rtol=1e-14)
    sol3 = flow.sphere_ode_solution(SPHERE, _speed(3.0), r0)
    npt.assert_allclose(sol3.t_extinction, (np.tan(r0) ** 2 / 2 + np.log(np.cos(r0))) / 8,
                        rtol=1e-14)


def test_spherical_root_flow_extinction_time_is_pinned():
    # reference: adaptive quadrature of ∫₀^0.8 tan^0.5 s ds, times f(1, 1)^(-0.5) = 2^(-0.5)
    sol = flow.sphere_ode_solution(SPHERE, _speed(0.5), 0.8)
    npt.assert_allclose(sol.t_extinction, 0.3551121836414276, rtol=1e-13)


@pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
def test_spherical_power_radius_inverts_time_of_radius(p):
    sol = flow.sphere_ode_solution(SPHERE, _speed(p), 1.3)
    for t in np.linspace(0.05, 0.95, 7) * sol.t_extinction:
        npt.assert_allclose(sol.time_of_radius(sol.radius(t)), t, rtol=1e-12)


@pytest.mark.parametrize("p", [0.5, 3.0, 5.0])
def test_spherical_power_radius_just_before_extinction(p):
    sol = flow.sphere_ode_solution(SPHERE, _speed(p), 1.3)
    assert 0 < sol.radius(sol.t_extinction * (1 - 1e-9)) < 1.3


def test_spherical_power_radius_of_an_array_matches_scalar_queries():
    sol = flow.sphere_ode_solution(SPHERE, _speed(0.5), 0.8)
    ts = np.linspace(0.0, 0.95 * sol.t_extinction, 17)
    rs = sol.radius(ts)
    assert rs.shape == ts.shape and rs[0] == 0.8
    npt.assert_allclose(rs, [sol.radius(float(t)) for t in ts], rtol=1e-15, atol=0)


def test_flat_expanding_flow_closed_form():
    # F = -H^(-1/2): dr/dt = (r/2)^(1/2)  =>  sqrt(r) = 1 + t/(2 sqrt 2)
    sol = flow.sphere_ode_solution(FLAT, _speed(-0.5), 1.0)
    assert sol.t_extinction is None or sol.t_extinction == np.inf
    for t in (0.5, 2.0, 2.0 * np.sqrt(2.0)):
        npt.assert_allclose(np.sqrt(sol.radius(t)), 1.0 + t / (2.0 * np.sqrt(2.0)),
                            rtol=1e-10)


def test_spherical_expanding_unsupported():
    with pytest.raises(ConfigError, match="expanding speeds are Euclidean-only"):
        flow.sphere_ode_solution(SPHERE, _speed(-0.5), 0.8)


def test_radius_queries_past_extinction_raise():
    sol = flow.sphere_ode_solution(FLAT, _speed(1.0), 1.0)
    with pytest.raises(ConfigError, match="requested time beyond the extinction time 0.25"):
        sol.radius(0.3)
    with pytest.raises(ConfigError, match="requested time beyond the extinction time 0.25"):
        sphere_state(sol, 0.25)


def test_a_radius_newton_cannot_settle_is_a_stability_violation(monkeypatch):
    sol = flow.sphere_ode_solution(SPHERE, _speed(0.6), 0.8)
    monkeypatch.setattr(flow, "NEWTON_STEPS", 1)
    with pytest.raises(StabilityViolation, match="radius did not settle in 1 Newton steps"):
        sol.radius(0.1)


@pytest.mark.parametrize("ambient, exponent", [(SPHERE, 0.6), (FLAT, -0.5)],
                         ids=["sphere", "flat-expanding"])
@pytest.mark.parametrize("t", [np.nan, np.inf, np.array([0.0, np.nan])],
                         ids=["nan", "inf", "array-with-nan"])
def test_radius_queries_at_non_finite_times_raise(ambient, exponent, t):
    sol = flow.sphere_ode_solution(ambient, _speed(exponent), 0.8)
    with pytest.raises(ConfigError, match="negative or non-finite times are outside"):
        sol.radius(t)


def test_solution_state_fields():
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), 0.8)
    st = sphere_state(sol, 0.1)
    assert st.t == 0.1 and st.markers is None and st.n_nodes == 1
    r = sol.radius(0.1)
    npt.assert_allclose(st.kappa, 1.0 / np.tan(r), rtol=1e-12)
    npt.assert_allclose(st.F, 2.0 / np.tan(r), rtol=1e-12)


# ---------------------------------------------------------------------------
# umbilic trajectory tier
# ---------------------------------------------------------------------------

def test_umbilic_run_matches_solution():
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8),
                          t_end=0.1, dt=0.01)
    traj = flow.run(cfg)
    assert traj.termination == "completed"
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), 0.8)
    for st in traj:
        npt.assert_allclose(st.radius, sol.radius(st.t), rtol=1e-12)


def test_both_tiers_store_the_dt_grid():
    """Both tiers store every store_every-th multiple of dt below the stop, then the stop.

    t_end = 49·dt is a whole number of steps even though t_end/dt = 48.99…;
    t_end = 49.5·dt ends on a partial step; the flat radius floor r = 0.5 is
    reached at t = 0.1875, which the gridded tier detects at the next step.
    """
    cases = [  # ambient, r0, t_end, dt, store_every, extra config, stored times
        (SPHERE, 0.8, 49 * 1e-4, 1e-4, 1, {}, 50),
        (SPHERE, 0.8, 49 * 1e-4, 1e-4, 5, {}, 11),
        (SPHERE, 0.8, 4.95e-3, 1e-4, 1, {}, 51),
        (SPHERE, 0.8, 4.95e-3, 1e-4, 5, {}, 11),
        (FLAT, 1.0, 0.2, 0.01, 3, {"min_radius": 0.5}, 8),
    ]
    for ambient, r0, t_end, dt, every, extra, n_stored in cases:
        umbilic, grid = (flow.run(flow.FlowConfig(ambient, _speed(1.0), initial, t_end=t_end,
                                                  dt=dt, store_every=every, **extra))
                         for initial in (geo.GeodesicSphere(r0),
                                         geo.markers_from_radial(ambient, r0, 16)))
        assert umbilic.termination == grid.termination
        assert len(umbilic.times) == len(grid.times) == n_stored
        npt.assert_allclose(umbilic.times[:-1], grid.times[:-1], rtol=0, atol=1e-15)
        if extra:
            assert grid.times[-1] - dt < umbilic.times[-1] < grid.times[-1]
        else:
            npt.assert_allclose(umbilic.times[-1], grid.times[-1], rtol=0, atol=1e-15)
        h = every * dt
        for traj in (umbilic, grid):
            assert flow.time_derivative(traj, "F", 2 * h, h).shape == (traj[0].n_nodes,)


@pytest.mark.parametrize("offset, n_stored", [(5e-10, 50), (-5e-10, 50), (0.0, 50),
                                              (0.5e-4, 51)],
                         ids=["sliver-above", "sliver-below", "whole", "partial"])
def test_both_tiers_take_the_same_number_of_fixed_steps(offset, n_stored):
    """t_end = 49·dt + offset: within flow.STATE_RTOL of 49 steps both tiers take 49,
    with no 5e-10 sliver step on the gridded tier; half a step over, both take 50."""
    t_end = 49e-4 + offset
    umbilic, grid = (flow.run(flow.FlowConfig(SPHERE, _speed(1.0), initial, t_end=t_end,
                                              dt=1e-4))
                     for initial in (geo.GeodesicSphere(0.8),
                                     geo.markers_from_radial(SPHERE, 0.8, 16)))
    assert umbilic.termination == grid.termination == "completed"
    assert len(umbilic.times) == len(grid.times) == n_stored
    assert abs(umbilic.times[-1] - grid.times[-1]) <= flow.STATE_RTOL


def test_whole_steps_tolerance_stays_below_half_a_step():
    """STATE_RTOL·max(1, |span|) is 1e-9 below a span of 1, more than half of dt = 1e-9:
    6e-10 used to count as one step of it.  A 5e-10 sliver over 49 steps of 1e-4 is
    still 49 steps."""
    assert flow.whole_steps(6e-10, 1e-9) is None
    assert flow.whole_steps(49e-4 + 5e-10, 1e-4) == 49


def test_umbilic_run_stopped_early_keeps_the_dt_grid():
    """The radius floor r = 0.5 is reached at t = 0.1875, between grid points."""
    traj = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0),
                                    t_end=0.2, dt=0.01, min_radius=0.5))
    assert traj.termination == "radius-floor"
    npt.assert_allclose(traj.times, np.append(0.01 * np.arange(19), 0.1875), rtol=1e-12)
    npt.assert_allclose(flow.time_derivative(traj, "F", 0.05, 0.01),
                        traj.state_at(0.05).beta, rtol=1e-2)


def test_umbilic_run_solves_its_radii_in_one_query(monkeypatch):
    calls = []
    real = flow.SphereSolution.radius

    def counted(self, t):
        calls.append(np.size(t))
        return real(self, t)
    monkeypatch.setattr(flow.SphereSolution, "radius", counted)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(0.5), geo.GeodesicSphere(0.8), t_end=0.1))
    assert calls == [len(traj.times)] == [129]


def test_umbilic_run_past_extinction_stops_at_the_cap():
    """t_end = 0.5 lies past the extinction at t = 1/4: both tiers stop at the
    curvature cap first (the grid-free tier used to refuse the time as past
    extinction)."""
    for initial in (geo.GeodesicSphere(1.0), geo.markers_from_radial(FLAT, 1.0, 16)):
        traj = flow.run(flow.FlowConfig(FLAT, _speed(1.0), initial, t_end=0.5))
        assert traj.termination == "curvature-cap"
        assert traj.times[-1] < 0.25
        assert traj[-1].kappa.max() >= 0.99 * traj.config.max_kappa


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("stop, cause", [({"max_kappa": 0.5}, "curvature-cap"),
                                         ({"min_radius": 2.0}, "radius-floor")],
                         ids=["cap", "floor"])
@pytest.mark.parametrize("ambient, r0, p", [(SPHERE, 0.8, 1.0), (FLAT, 1.0, 1.0),
                                            (FLAT, 1.0, -0.5)],
                         ids=["sphere-mean", "flat-mean", "flat-mean^-0.5"])
def test_a_stop_that_holds_at_the_start_ends_both_tiers_at_t0(ambient, r0, p, stop, cause, dt):
    """The grid-free tier used to ignore a stop that already held and return
    "completed" with 129 rows."""
    for initial in (geo.GeodesicSphere(r0), geo.markers_from_radial(ambient, r0, 16)):
        traj = flow.run(flow.FlowConfig(ambient, _speed(p), initial, t_end=0.1, dt=dt, **stop))
        assert traj.termination == cause
        assert list(traj.times) == [0.0] and len(traj.steps) == 1


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
def test_a_cap_equal_to_the_starting_curvature_ends_the_run_at_t0(dt):
    """An adaptive grid-free run used to store 129 rows, all at t = 0."""
    for ambient, r0 in ((SPHERE, 0.8), (FLAT, 1.0)):
        for initial in (geo.GeodesicSphere(r0), geo.markers_from_radial(ambient, r0, 16)):
            kappa0 = float(geo.assemble(initial, ambient, _speed(1.0)).kappa.max())
            traj = flow.run(flow.FlowConfig(ambient, _speed(1.0), initial, t_end=0.1, dt=dt,
                                            max_kappa=kappa0))
            assert traj.termination == "curvature-cap"
            assert list(traj.times) == [0.0] and len(traj.steps) == 1


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("ambient, r0, max_kappa, t_end", [(SPHERE, 0.8, 1e8, 0.2),
                                                           (FLAT, 1.0, 1e12, 0.3)],
                         ids=["sphere", "flat"])
def test_a_cap_crossing_that_rounds_onto_extinction_stores_the_cap_sphere(
        ambient, r0, max_kappa, t_end, dt):
    """Here the cap's crossing time rounds onto the extinction time, where
    SphereSolution.radius has no answer: the stop row is the cap sphere itself."""
    sol = flow.sphere_ode_solution(ambient, _speed(1.0), r0)
    traj = flow.run(flow.FlowConfig(ambient, _speed(1.0), geo.GeodesicSphere(r0), t_end=t_end,
                                    dt=dt, max_kappa=max_kappa))
    assert traj.termination == "curvature-cap"
    assert traj.times[-1] <= sol.t_extinction
    assert np.isfinite(traj.steps[-1].radius) and traj.steps[-1].radius > 0
    npt.assert_allclose(traj[-1].kappa.max(), max_kappa, rtol=1e-9)


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
def test_a_cap_one_ulp_above_the_starting_curvature_still_stops_the_sphere(dt):
    """At r0 = 15/32 the cap radius arctan(1/max_kappa) of this cap rounds
    past r0, so the sphere would never be seen to cross it."""
    r0 = 0.46875
    max_kappa = float(np.nextafter(geo._umbilic_kappa(SPHERE, r0), np.inf))
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), r0)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(r0),
                                    t_end=2.0 * sol.t_extinction, dt=dt, max_kappa=max_kappa))
    assert traj.termination == "curvature-cap"
    assert traj.times[-1] <= sol.t_extinction


def test_the_largest_cap_stops_on_a_sphere_with_finite_fields():
    """A larger cap used to stop the grid-free run on a sphere whose metric a²
    underflowed, which put NaN into its fields and its Harnack floor."""
    for ambient in (SPHERE, FLAT):
        traj = flow.run(flow.FlowConfig(ambient, _speed(1.0), geo.GeodesicSphere(0.8), t_end=1.0,
                                        max_kappa=flow.MAX_KAPPA_LIMIT))
        stop = traj[-1]
        assert traj.termination == "curvature-cap"
        for name in ("g", "g_inv", "h", "b", "h_sq", "eigT", "kappa"):
            assert np.isfinite(getattr(stop, name)).all() and (getattr(stop, name) != 0).any()
        with pytest.raises(ConfigError, match="max_kappa must lie in"):
            flow.FlowConfig(ambient, _speed(1.0), geo.GeodesicSphere(0.8), t_end=1.0,
                            max_kappa=float(np.nextafter(flow.MAX_KAPPA_LIMIT, np.inf)))


@pytest.mark.parametrize("ambient, r0, p", [
    (SPHERE, 0.8, 1.0), (SPHERE, 0.9, 1.0), (SPHERE, 0.8, 0.5), (SPHERE, 1.2, 2.0),
    (FLAT, 1.0, 1.0), (FLAT, 1.0, 0.3), (geo.AmbientSpace(1, 3), 0.8, 1.0)])
def test_no_cap_takes_a_contracting_sphere_past_extinction(ambient, r0, p):
    """At r0 = 0.9 the closed-form crossing time of a tiny cap radius rounds an
    ulp past the extinction time unless time_of_radius clamps it."""
    sol = flow.sphere_ode_solution(ambient, _speed(p), r0)
    for max_kappa in (1e4, 1e12, flow.MAX_KAPPA_LIMIT):
        for t_end in (sol.t_extinction, 2.0 * sol.t_extinction):
            for dt in (None, sol.t_extinction / 7):
                traj = flow.run(flow.FlowConfig(ambient, _speed(p), geo.GeodesicSphere(r0),
                                                t_end=t_end, dt=dt, max_kappa=max_kappa))
                assert traj.termination == "curvature-cap"
                assert traj.times[-1] <= sol.t_extinction
                assert 0 < traj.steps[-1].radius <= r0


def test_umbilic_radius_floor_and_curvature_cap():
    floor = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0),
                                     t_end=0.24, min_radius=0.5))
    assert floor.termination == "radius-floor"
    npt.assert_allclose(floor[-1].radius, 0.5, rtol=1e-9)
    cap = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0),
                                   t_end=0.24, max_kappa=4.0))
    assert cap.termination == "curvature-cap"
    npt.assert_allclose(cap[-1].kappa.max(), 4.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# gridded trajectory tier
# ---------------------------------------------------------------------------

def test_grid_flow_tracks_round_solution():
    """A gridded round sphere must follow the radius ODE to stencil accuracy."""
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 48),
                          t_end=0.05, store_every=10)
    traj = flow.run(cfg)
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), 0.8)
    for st in itertools.islice(traj, 1, None):
        node_r = np.arccos(np.clip(st.markers[:, 0], -1.0, 1.0))
        npt.assert_allclose(node_r, sol.radius(st.t), rtol=1e-7)


def test_grid_flow_terminations():
    mk = geo.markers_from_radial(FLAT, geo.cos_mode_radial(1.0, 0.0, 2), 32)
    floor = flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.5, min_radius=0.6))
    assert floor.termination == "radius-floor"
    cap = flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.5, max_kappa=3.0))
    assert cap.termination == "curvature-cap"
    assert cap[-1].t < 0.5


@pytest.mark.parametrize("stop", [{"min_radius": 0.6}, {"max_kappa": 3.0}])
def test_grid_flow_stores_the_state_it_stops_at(stop):
    mk = geo.markers_from_radial(FLAT, 1.0, 32)
    every, sparse = (flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.5,
                                              store_every=n, **stop))
                     for n in (1, 50))
    assert sparse.termination == every.termination != "completed"
    assert sparse.times[-1] == every.times[-1]
    npt.assert_array_equal(sparse.steps[-1], every.steps[-1])


@pytest.mark.parametrize("ambient, keys", [
    (SPHERE, dict(t_end=0.01, dt=1e-3)),
    (FLAT, dict(t_end=1.0, max_kappa=8.0)),
], ids=["fixed-10-steps", "adaptive-to-the-cap"])
def test_the_stop_rule_judges_each_state_once(monkeypatch, ambient, keys):
    """_stop reads step 0 and each stepped state but the last of a completed run:
    10 calls for 10 fixed steps, and one per stored state of a run to the cap."""
    calls = []
    real = flow._stop

    def counted(*args):
        calls.append(args[1])
        return real(*args)
    monkeypatch.setattr(flow, "_stop", counted)
    traj = flow.run(flow.FlowConfig(ambient, _speed(1.0),
                                    geo.markers_from_radial(ambient, 0.8, 32), **keys))
    if "dt" in keys:
        assert traj.termination == "completed" and len(traj.times) == 11 and len(calls) == 10
    else:
        assert traj.termination == "curvature-cap" and len(calls) == len(traj.times) > 10


def test_grid_flow_stores_at_cadence():
    cfg = flow.FlowConfig(SPHERE, _speed(0.5), geo.markers_from_radial(SPHERE, 0.8, 32),
                          t_end=0.02, dt=1e-3, store_every=4)
    traj = flow.run(cfg)
    times = traj.times
    npt.assert_allclose(np.diff(times)[:-1], 4e-3, rtol=1e-12)
    assert times[0] == 0.0
    npt.assert_allclose(times[-1], 0.02, rtol=1e-9)


def _exact_digest(*arrays):
    """sha256 prefix of the arrays' values, each x held as the float64 pair
    hi = float64(x), lo = float64(x − hi); the pair is exact for x87 extended
    precision, whose tobytes() would include unspecified padding bytes."""
    digest = hashlib.sha256()
    for arr in arrays:
        hi = arr.astype(np.float64)
        digest.update(np.stack([hi, (arr - hi).astype(np.float64)]).astype("<f8").tobytes())
    return digest.hexdigest()[:16]


# Final markers and stored times of short runs, recorded on x86-64 (80-bit
# longdouble) with numpy 2.4: float64 with the adaptive step to t = 0.1, and
# longdouble with dt = 1e-3 to t = 5e-3, from a mode-2, 5% perturbation of the
# default radius on 32 nodes.  Any change to the RK4 stage's arithmetic shows.
# The n = 2 runs step the upper half of the profile (flow.run).
PINNED_RUNS = {
    ((1, 2), "float64"): "757443de8598884a",
    ((1, 2), "longdouble"): "01462747b500658b",
    ((0, 2), "float64"): "f67bc27fa06c61b0",
    ((0, 2), "longdouble"): "e5c5400310ff3f69",
    ((0, 1), "float64"): "238b2e3974cd09b6",
    ((0, 1), "longdouble"): "7d01476cd686a09a",
    ((1, 1), "float64"): "cf87a39fe7668e4a",
    ((1, 1), "longdouble"): "35034327f6d47eee",
}


@pytest.mark.parametrize("dtype", ["float64", "longdouble"])
@pytest.mark.parametrize("dt, every", [(None, 1), (None, 3), (1e-3, 1), (1e-3, 4)],
                         ids=["adaptive", "adaptive-every3", "fixed", "fixed-every4"])
def test_grid_run_keeps_the_last_of_its_stored_steps_bit_for_bit(dt, every, dtype):
    """store_every = MAX_STEPS, as a ladder level's prefix runs, stores step 0 and the
    last completed step alone, since no run takes more steps; it changes no step."""
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 32)
    t_end = 0.02 if dt else 0.3
    whole, sparse = (flow.run(flow.FlowConfig(SPHERE, _speed(0.5), mk, t_end=t_end, dt=dt,
                                              store_every=n, dtype=dtype))
                     for n in (every, flow.MAX_STEPS))
    assert len(whole.steps) > 3 and len(sparse.steps) == len(sparse.times) == 2
    assert sparse.termination == whole.termination
    assert sparse.rejected_steps == whole.rejected_steps
    assert np.array_equal(sparse.times, whole.times[[0, -1]])
    for got, want in zip(sparse.steps, (whole.steps[0], whole.steps[-1])):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dt, every", [(None, 1), (1e-3, 1), (1e-3, 4)],
                         ids=["adaptive", "fixed", "fixed-every4"])
def test_grid_free_run_keeps_the_last_of_its_stored_steps(dt, every):
    """store_every = MAX_STEPS leaves a fixed-dt grid-free run t = 0 and its last step, as
    on the gridded tier; an adaptive one stores its 129 evenly spaced times either way."""
    whole, sparse = (flow.run(flow.FlowConfig(SPHERE, _speed(0.5), geo.GeodesicSphere(0.8),
                                              t_end=0.02, dt=dt, store_every=n))
                     for n in (every, flow.MAX_STEPS))
    kept = [0, len(whole) - 1] if dt else list(range(len(whole)))
    assert len(whole.steps) > 2 and len(sparse.steps) == len(kept)
    assert sparse.termination == whole.termination
    assert np.array_equal(sparse.times, whole.times[kept])
    assert [s.radius for s in sparse.steps] == [whole.steps[i].radius for i in kept]


@pytest.mark.parametrize("case", PINNED_RUNS,
                         ids=lambda case: f"c{case[0][0]}n{case[0][1]}-{case[1]}")
def test_stepper_output_is_pinned_bit_for_bit(case):
    (c, n), dtype = case
    if dtype == "longdouble" and np.finfo(np.longdouble).nmant != 63:
        pytest.skip("the longdouble pins are 80-bit x87 values")
    ambient = geo.AmbientSpace(c, n)
    speed = _speed(0.5, "mean" if (c + n) % 2 else "norm")
    mk = geo.markers_from_radial(
        ambient, geo.cos_mode_radial(geo.initial_radius(ambient), 0.05, 2), 32)
    stepping = {"t_end": 0.1} if dtype == "float64" else {"t_end": 5e-3, "dt": 1e-3}
    traj = flow.run(flow.FlowConfig(ambient, speed, mk, dtype=dtype, **stepping))
    assert traj.termination == "completed" and traj.steps[-1].dtype == np.dtype(dtype)
    assert _exact_digest(traj.times, traj.steps[-1]) == PINNED_RUNS[case]


def _symmetric_start(ambient, n_nodes=32, dtype="float64"):
    """Mode-2, 5% perturbed markers made exactly mirror-symmetric from their upper half."""
    mk = geo.markers_from_radial(
        ambient, geo.cos_mode_radial(geo.initial_radius(ambient), 0.05, 2), n_nodes)
    return geo.unfold(mk[:n_nodes // 2]).astype(dtype)


@pytest.mark.parametrize("dtype", ["float64", "longdouble"])
@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("c", [0, 1])
def test_half_grid_stepper_reproduces_the_full_grid_bit_for_bit(c, dt, dtype):
    """On an exactly mirror-symmetric start, stepping the upper half with
    reflection-padded stencils is the full wrap-padded stepper, to the bit."""
    ambient = geo.AmbientSpace(c, 2)
    speed = _speed(0.5, "norm" if c else "mean")
    mk = _symmetric_start(ambient, dtype=dtype)
    t_end, store_every = (0.02, 3) if dt else (0.3, 2)
    traj = flow.run(flow.FlowConfig(ambient, speed, mk, t_end=t_end, dt=dt,
                                    store_every=store_every, dtype=dtype))
    times, stored = full_grid_rk4(ambient, speed, mk, t_end, dt=dt, store_every=store_every)
    assert traj.termination == "completed" and len(traj.steps) == len(stored) > 3
    assert np.array_equal(traj.times, times)
    for got, want in zip(traj.steps, stored):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("c", [0, 1])
def test_every_stored_profile_step_is_exactly_mirror_symmetric(c):
    ambient = geo.AmbientSpace(c, 2)
    mk = geo.markers_from_radial(ambient, geo.cos_mode_radial(geo.initial_radius(ambient),
                                                                0.05, 2), 32)
    assert 0 < geo.mirror_defect(mk) < 1e-15      # the float64 samples are not exact
    traj = flow.run(flow.FlowConfig(ambient, _speed(0.5), mk, t_end=0.02, dt=2e-3,
                                    store_every=3))
    assert traj.steps[0] is mk and len(traj.steps) > 2
    for step in traj.steps[1:]:
        assert step.shape == mk.shape
        assert np.array_equal(step, geo.unfold(step[:16])) and geo.mirror_defect(step) == 0


@pytest.mark.parametrize("c", [0, 1])
def test_profile_markers_that_are_not_mirror_symmetric_are_refused(c):
    ambient = geo.AmbientSpace(c, 2)
    mk = geo.markers_from_radial(ambient, 0.8, 32)
    mk[5, -1] += 1e-9
    with pytest.raises(ConfigError, match=r"n = 2 markers must be mirror-symmetric \(node "
                                          r"N-1-k is node k with the last coordinate negated\) "
                                          r"to be a surface of revolution; they are off by "
                                          r"\d\.\d*e-(09|10) of their largest coordinate, "
                                          r"above 1e-12"):
        flow.run(flow.FlowConfig(ambient, _speed(0.5), mk, t_end=0.01))


def _record_steps(monkeypatch, failures=0):
    """Record the dt of every RK4 step; the first `failures` steps leave the cone."""
    dts = []
    real = flow._rk4

    def recorded(ambient, speed, markers, dt, k1):
        dts.append(dt)
        if len(dts) <= failures:
            raise ConvexityLost("injected")
        return real(ambient, speed, markers, dt, k1)
    monkeypatch.setattr(flow, "_rk4", recorded)
    return dts


def test_adaptive_step_count_is_scale_invariant(monkeypatch):
    """Mean-curvature spheres of radius 0.1, 1 and 10 are one problem up to parabolic
    rescaling, so each takes the same number of steps to half its lifespan."""
    dts = _record_steps(monkeypatch)
    counts = []
    for r0 in (0.1, 1.0, 10.0):
        before = len(dts)
        t_end = 0.5 * flow.sphere_ode_solution(FLAT, _speed(1.0), r0).t_extinction
        traj = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.markers_from_radial(FLAT, r0, 64),
                                        t_end=t_end, store_every=1000))
        assert traj.termination == "completed" and traj.rejected_steps == 0
        counts.append(len(dts) - before)
    assert counts[0] == counts[1] == counts[2]


def test_adaptive_run_reaches_the_curvature_cap_near_extinction(monkeypatch):
    """A perturbed sphere dying near t = 0.174 reaches κ = 1e4 in under 2,000 steps."""
    dts = _record_steps(monkeypatch)
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 64)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.2, store_every=1000))
    assert traj.termination == "curvature-cap"
    assert 0.17 < traj.times[-1] < 0.175
    assert len(dts) < 2_000


def test_a_run_without_a_radius_floor_never_measures_its_distance(monkeypatch):
    def refused(*args):
        raise AssertionError("center_distance called with min_radius = 0")
    monkeypatch.setattr(geo, "center_distance", refused)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                                    t_end=0.005))
    assert traj.termination == "completed"


def test_adaptive_step_that_leaves_the_cone_is_retried_at_half_size(monkeypatch):
    dts = _record_steps(monkeypatch, failures=1)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 32),
                                    t_end=0.005))
    assert traj.termination == "completed" and traj.rejected_steps == 1
    assert dts[1] == 0.5 * dts[0] == traj.times[1] and traj.failure is None


def test_adaptive_step_whose_retry_fails_ends_the_run(monkeypatch):
    _record_steps(monkeypatch, failures=2)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 32),
                                    t_end=0.005))
    assert traj.termination == "convexity-lost" and traj.rejected_steps == 1
    assert list(traj.times) == [0.0] and type(traj.failure) is ConvexityLost


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["adaptive", "fixed"])
def test_non_finite_step_raises_stability_violation(monkeypatch, dt):
    """Every stage's κ is checked finite, so only the RK4 combination itself
    can go non-finite; a NaN velocity stands in for that here.  The step's
    StabilityViolation ends the run as "unstable" at step 0, its last good step."""
    monkeypatch.setattr(flow, "_velocity", lambda ambient, speed, markers: markers * np.nan)
    mk = geo.markers_from_radial(SPHERE, 0.8, 16)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.005, dt=dt))
    assert traj.termination == "unstable" and type(traj.failure) is StabilityViolation
    assert str(traj.failure) == "markers became non-finite during a step"
    assert list(traj.times) == [0.0] and traj.steps[0] is mk


def test_nonconvex_initial_data_raises():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.3, 4), 48)
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01)
    with pytest.raises(ConvexityLost):
        flow.run(cfg)


def test_an_adaptive_run_that_exhausts_the_step_budget_raises(monkeypatch):
    """The run takes 6 steps to t_end; with a budget of 5 the sixth is refused, and
    the run ends as "unstable" with its five steps stored, as an unbounded run stores them."""
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 64)
    full = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01))
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01))
    assert full.termination == "completed" and len(full.times) == 7 and full.failure is None
    assert traj.termination == "unstable" and type(traj.failure) is StabilityViolation
    assert str(traj.failure) == "step budget of 5 exhausted"
    assert list(traj.times) == list(full.times[:6]) and traj.times[-1] < 0.01
    for got, want in zip(traj.steps, full.steps):
        np.testing.assert_array_equal(got, want)


def test_a_fixed_dt_beyond_the_step_budget_is_refused_on_both_tiers():
    """ceil(t_end/dt) steps must fit MAX_STEPS.  The grid-free tier takes no
    steps, but it stores every store_every-th multiple of dt, so it was
    unbounded: dt = 1e-12 asked np.arange for 1e10 rows."""
    mk = geo.markers_from_radial(SPHERE, 0.8, 16)
    dt = 0.01 / flow.MAX_STEPS
    flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01, dt=dt)
    with pytest.raises(ConfigError, match="needs 2e[+]06 steps to reach t = 0.01, more than "
                                          "the step budget of 2000000"):
        flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01, dt=dt * (1 - 1e-15))
    with pytest.raises(ConfigError, match="needs 1e[+]10 steps"):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.01, dt=1e-12)


def test_grid_that_degenerates_mid_run_ends_the_run_and_keeps_its_steps():
    """For p < 1 the markers bunch up before extinction: the run ends as
    grid-degenerate at the last good step, whatever the storage cadence."""
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.1, 2), 32)
    every, sparse = (flow.run(flow.FlowConfig(SPHERE, _speed(0.3), mk, t_end=0.6,
                                              store_every=n))
                     for n in (1, 10 ** 6))
    assert every.termination == sparse.termination == "grid-degenerate"
    assert type(every.failure) is type(sparse.failure) is DegenerateGrid
    assert len(every.times) > 2 and 0.0 < sparse.times[-1] < 0.6
    assert list(sparse.times) == [0.0, every.times[-1]]
    npt.assert_array_equal(sparse.steps[-1], every.steps[-1])
    assert np.all(sparse[-1].kappa > 0.0)


def test_degenerate_initial_grid_raises():
    w = geo.profile_parameter(32)
    w = w + 0.45 * np.sin(2.0 * w)          # spacing ratio 1.9 / 0.1
    mk = np.stack([np.cos(w), np.sin(w)], axis=1)
    with pytest.raises(DegenerateGrid):
        flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.01))


def _count_assemble(monkeypatch):
    calls = []
    real = geo.assemble

    def counted(*args, **kwargs):
        calls.append(kwargs.get("t"))
        return real(*args, **kwargs)
    monkeypatch.setattr(geo, "assemble", counted)
    return calls


def test_run_stores_markers_without_assembling(monkeypatch):
    calls = _count_assemble(monkeypatch)
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                          t_end=0.005, dt=1e-3, store_every=1)
    traj = flow.run(cfg)
    assert calls == []
    assert isinstance(traj.times, np.ndarray) and len(traj.times) == 6
    assert all(step.shape == (16, 3) for step in traj.steps)
    assert [st.t for st in traj] == list(traj.times)
    assert len(calls) == 6


def test_state_at_assembles_once_and_keeps_the_state(monkeypatch):
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                          t_end=0.005, dt=1e-3)
    traj = flow.run(cfg)
    calls = _count_assemble(monkeypatch)
    first = traj.state_at(0.003)
    assert traj.state_at(0.003) is first
    assert len(calls) == 1
    assert traj[3] is first and traj[-3] is first
    assert len(traj) == 6 and len(calls) == 1
    for outside in (6, -7):
        with pytest.raises(IndexError):
            traj[outside]


def test_a_trajectory_keeps_at_most_three_states_and_each_is_a_fresh_assembly():
    markers = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 16)
    traj = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), markers, t_end=3e-3, dt=1e-5))
    assert len(traj) == 301
    alive = []
    for i, state in enumerate(traj):
        fresh = geo.assemble(traj.steps[i], SPHERE, traj.config.speed, t=float(traj.times[i]))
        for name in (f.name for f in dataclasses.fields(state)):
            a, b = getattr(state, name), getattr(fresh, name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)
            else:
                assert a is b or a == b, (i, name)
        alive.append(weakref.ref(state))
    del state, fresh
    gc.collect()
    assert sum(ref() is not None for ref in alive) <= 3


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=-1.0)
    with pytest.raises(ConfigError):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.1,
                        dtype="float32")
    for bad in ({"max_kappa": np.nan}, {"max_kappa": np.inf}, {"max_kappa": 0.0},
                {"max_kappa": -1.0}, {"min_radius": np.nan}, {"min_radius": np.inf},
                {"min_radius": -0.1}):
        with pytest.raises(ConfigError):
            flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.1, **bad)


def test_flow_config_refuses_expanding_speed_on_the_sphere():
    mk = geo.markers_from_radial(SPHERE, 0.8, 16)
    for initial in (geo.GeodesicSphere(0.8), mk):
        with pytest.raises(ConfigError, match="expanding speeds are Euclidean-only"):
            flow.FlowConfig(SPHERE, _speed(-0.5), initial, t_end=0.1)
    flow.FlowConfig(FLAT, _speed(-0.5), geo.GeodesicSphere(1.0), t_end=0.1)


def test_extended_precision_trajectory():
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                          t_end=0.002, dt=1e-3, dtype="longdouble")
    traj = flow.run(cfg)
    assert traj[-1].F.dtype == np.longdouble


# ---------------------------------------------------------------------------
# Lagrangian time differencing
# ---------------------------------------------------------------------------

def test_time_derivative_matches_analytic_speed_evolution():
    """∂ₜF = β + c F tr(F') holds along stored states, at second order in Δt."""
    t = 0.005
    errs = []
    for dt in (5e-4, 2.5e-4):
        cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8),
                              t_end=0.01, dt=dt)
        traj = flow.run(cfg)
        fd = flow.time_derivative(traj, "F", t, dt)
        st = traj.state_at(t)
        analytic = st.beta + st.F * st.tr_dF
        errs.append(float(np.max(np.abs(fd - analytic))))
        npt.assert_allclose(fd, analytic, rtol=1e-4)
    assert 3.0 < errs[0] / errs[1] < 5.0, f"not second order: {errs}"


def test_time_derivative_needs_stored_neighbors():
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8),
                          t_end=0.01, dt=1e-3)
    traj = flow.run(cfg)
    with pytest.raises(OutOfRange):
        flow.time_derivative(traj, "F", 0.005, 3.3e-4)
