"""Flow integration against closed-form round-sphere solutions, stopping
rules, and the Lagrangian time-differencing helper."""

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import flow, geometry as geo
from harnacklab import symfunc as sf
from harnacklab.errors import (ConfigError, ConvexityLost, DomainExceeded,
                               LabelMismatch, OutOfRange, UnsupportedAmbient)

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


def test_flat_expanding_flow_closed_form():
    # F = -H^(-1/2): dr/dt = (r/2)^(1/2)  =>  sqrt(r) = 1 + t/(2 sqrt 2)
    sol = flow.sphere_ode_solution(FLAT, _speed(-0.5), 1.0)
    assert sol.t_extinction is None or sol.t_extinction == np.inf
    for t in (0.5, 2.0, 2.0 * np.sqrt(2.0)):
        npt.assert_allclose(np.sqrt(sol.radius(t)), 1.0 + t / (2.0 * np.sqrt(2.0)),
                            rtol=1e-10)


def test_spherical_expanding_unsupported():
    with pytest.raises(UnsupportedAmbient):
        flow.sphere_ode_solution(SPHERE, _speed(-0.5), 0.8)


def test_radius_queries_past_extinction_raise():
    sol = flow.sphere_ode_solution(FLAT, _speed(1.0), 1.0)
    with pytest.raises(DomainExceeded):
        sol.radius(0.3)
    with pytest.raises(DomainExceeded):
        sol.state(0.25)


def test_solution_state_fields():
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), 0.8)
    st = sol.state(0.1)
    assert st.t == 0.1 and st.kind == "geodesic-sphere"
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
    for st in traj.states:
        npt.assert_allclose(st.radius, sol.radius(st.t), rtol=1e-12)


def test_both_tiers_store_the_dt_grid():
    """t_end = 49·dt is a whole number of steps even though t_end/dt = 48.99…"""
    t_end, dt = 49 * 1e-4, 1e-4
    umbilic = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8),
                                       t_end=t_end, dt=dt))
    grid = flow.run(flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                                    t_end=t_end, dt=dt))
    assert len(umbilic.times) == len(grid.times) == 50
    npt.assert_allclose(umbilic.times, grid.times, rtol=0, atol=1e-15)
    for traj in (umbilic, grid):
        assert flow.time_derivative(traj, "F", 7e-4, dt).shape == (traj.states[0].n_nodes,)


def test_umbilic_run_past_extinction_raises():
    cfg = flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0), t_end=0.5)
    with pytest.raises(DomainExceeded):
        flow.run(cfg)


def test_umbilic_radius_floor_and_curvature_cap():
    floor = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0),
                                     t_end=0.24, min_radius=0.5))
    assert floor.termination == "radius-floor"
    npt.assert_allclose(floor.states[-1].radius, 0.5, rtol=1e-9)
    cap = flow.run(flow.FlowConfig(FLAT, _speed(1.0), geo.GeodesicSphere(1.0),
                                   t_end=0.24, max_kappa=4.0))
    assert cap.termination == "curvature-cap"
    npt.assert_allclose(cap.states[-1].kappa.max(), 4.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# gridded trajectory tier
# ---------------------------------------------------------------------------

def test_grid_flow_tracks_round_solution():
    """A gridded round sphere must follow the radius ODE to stencil accuracy."""
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 48),
                          t_end=0.05, store_every=10)
    traj = flow.run(cfg)
    sol = flow.sphere_ode_solution(SPHERE, _speed(1.0), 0.8)
    for st in traj.states[1:]:
        node_r = np.arccos(np.clip(st.markers[:, 0], -1.0, 1.0))
        npt.assert_allclose(node_r, sol.radius(st.t), rtol=1e-7)


def test_grid_flow_terminations():
    mk = geo.markers_from_radial(FLAT, geo.cos_mode_radial(1.0, 0.0, 2), 32)
    floor = flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.5, min_radius=0.6))
    assert floor.termination == "radius-floor"
    cap = flow.run(flow.FlowConfig(FLAT, _speed(1.0), mk, t_end=0.5, max_kappa=3.0))
    assert cap.termination == "curvature-cap"
    assert cap.states[-1].t < 0.5


def test_grid_flow_stores_at_cadence():
    cfg = flow.FlowConfig(SPHERE, _speed(0.5), geo.markers_from_radial(SPHERE, 0.8, 32),
                          t_end=0.02, dt=1e-3, store_every=4)
    traj = flow.run(cfg)
    times = traj.times
    npt.assert_allclose(np.diff(times)[:-1], 4e-3, rtol=1e-12)
    assert times[0] == 0.0
    npt.assert_allclose(times[-1], 0.02, rtol=1e-9)


def test_nonconvex_initial_data_raises():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.3, 4), 48)
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), mk, t_end=0.01)
    with pytest.raises(ConvexityLost):
        flow.run(cfg)


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
    assert [st.t for st in traj.states] == list(traj.times)
    assert len(calls) == 6


def test_state_at_assembles_once_and_keeps_the_state(monkeypatch):
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                          t_end=0.005, dt=1e-3)
    traj = flow.run(cfg)
    calls = _count_assemble(monkeypatch)
    first = traj.state_at(0.003)
    assert traj.state_at(0.003) is first
    assert len(calls) == 1
    assert traj.states[3] is first


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=-1.0)
    with pytest.raises(ConfigError):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.1,
                        dtype="float32")
    with pytest.raises(ConfigError):
        flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.1,
                        safety=0.0)
    for bad in ({"max_kappa": np.nan}, {"max_kappa": np.inf}, {"max_kappa": 0.0},
                {"max_kappa": -1.0}, {"min_radius": np.nan}, {"min_radius": np.inf},
                {"min_radius": -0.1}):
        with pytest.raises(ConfigError):
            flow.FlowConfig(SPHERE, _speed(1.0), geo.GeodesicSphere(0.8), t_end=0.1, **bad)


def test_flow_config_refuses_expanding_speed_on_the_sphere():
    mk = geo.markers_from_radial(SPHERE, 0.8, 16)
    for initial in (geo.GeodesicSphere(0.8), mk):
        with pytest.raises(UnsupportedAmbient, match="Euclidean-only"):
            flow.FlowConfig(SPHERE, _speed(-0.5), initial, t_end=0.1)
    flow.FlowConfig(FLAT, _speed(-0.5), geo.GeodesicSphere(1.0), t_end=0.1)


def test_extended_precision_trajectory():
    cfg = flow.FlowConfig(SPHERE, _speed(1.0), geo.markers_from_radial(SPHERE, 0.8, 16),
                          t_end=0.002, dt=1e-3, dtype="longdouble")
    traj = flow.run(cfg)
    assert traj.states[-1].F.dtype == np.longdouble


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


def test_time_derivative_label_mismatch():
    spd = _speed(1.0)
    m16 = geo.markers_from_radial(SPHERE, 0.8, 16)
    m24 = geo.markers_from_radial(SPHERE, 0.8, 24)
    cfg = flow.FlowConfig(SPHERE, spd, m16, t_end=0.01)
    fake = flow.Trajectory(config=cfg, times=np.array([0.004, 0.006]), steps=[m16, m24],
                           termination="completed")
    with pytest.raises(LabelMismatch):
        flow.time_derivative(fake, "F", 0.005, 1e-3)
