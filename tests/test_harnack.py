"""Harnack monitors against closed-form round-sphere values, the correction
branch structure, and configuration guards."""

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import flow, geometry as geo, harnack as ha
from harnacklab import symfunc as sf
from harnacklab.errors import ConfigError

from oracles import sphere_state, strong_correction_coefficient

SPHERE = geo.AmbientSpace(1, 2)
FLAT = geo.AmbientSpace(0, 2)
MEAN = lambda p: sf.SpeedFunction(sf.mean(), p)
NORM = lambda p: sf.SpeedFunction(sf.norm(), p)


# ---------------------------------------------------------------------------
# closed-form oracles on round spheres
# ---------------------------------------------------------------------------

def test_flat_contracting_sphere_oracle():
    """n = 2, F = H, delta = 1/2: Q = 4/r^3 + 1/(r t) on r(t) = sqrt(1 - 4t)."""
    sol = flow.sphere_ode_solution(FLAT, MEAN(1.0), 1.0)
    for t in (0.05, 0.1, 0.2):
        st = sphere_state(sol, t)
        rep = ha.evaluate_monitor(st, ha.HarnackConfig("euclidean-contracting", delta=0.5))
        r = np.sqrt(1.0 - 4.0 * t)
        npt.assert_allclose(rep.min_Q, 4.0 / r ** 3 + 1.0 / (r * t), rtol=1e-12)
    # the spot value quoted for t = 0.1
    rep = ha.evaluate_monitor(sphere_state(sol, 0.1),
                              ha.HarnackConfig("euclidean-contracting", delta=0.5))
    npt.assert_allclose(rep.min_Q, 21.5166, atol=5e-5)


def test_flat_expanding_sphere_oracle():
    """F = -H^(-1/2), delta = -1: Q = 1/(sqrt(2) t) exactly for the unit sphere.

    The gradient term vanishes and beta = -1/(2n) F^3-type terms collapse so
    only the time-scaled part survives; the monitored floor decays to zero.
    """
    sol = flow.sphere_ode_solution(FLAT, MEAN(-0.5), 1.0)
    qs = {}
    for t in (1.0, 10.0, 100.0):
        rep = ha.evaluate_monitor(sphere_state(sol, t),
                                  ha.HarnackConfig("euclidean-expanding", delta=-1.0))
        npt.assert_allclose(rep.min_Q, 1.0 / (np.sqrt(2.0) * t), rtol=1e-10)
        qs[t] = rep.min_Q
        assert rep.min_Q > 0
    assert qs[100.0] <= 0.1 * qs[1.0]


def test_strong_Hp_umbilic_closed_form():
    """p = 1 in the sphere: Q = 4 cot^3 r + cot r / t."""
    sol = flow.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8)
    for t in (0.05, 0.1, 0.15):    # extinction is at ~0.1807
        st = sphere_state(sol, t)
        rep = ha.evaluate_monitor(st, ha.HarnackConfig("strong-Hp"))
        cot = 1.0 / np.tan(sol.radius(t))
        npt.assert_allclose(rep.min_Q, 4.0 * cot ** 3 + cot / t, rtol=1e-12)
        assert rep.delta == 0.5


def test_chi_variant_offsets_on_umbilic_sphere():
    """Q1 - Q2 = c F tr(F') pointwise, and chi3 = chi2 + the zeta term."""
    sol = flow.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8)
    st = sphere_state(sol, 0.1)
    q1 = ha.evaluate_monitor(st, ha.HarnackConfig("chi1"))
    q2 = ha.evaluate_monitor(st, ha.HarnackConfig("chi2"))
    npt.assert_allclose(q1.Q, q2.Q + st.F * st.tr_dF, rtol=1e-12)
    assert q1.min_Q > 0 and q2.min_Q > 0
    q3 = ha.evaluate_monitor(st, ha.HarnackConfig("chi3"))
    npt.assert_allclose(q3.Q, q2.Q + np.asarray(q3.terms["zeta"]), rtol=1e-12)


def test_terms_decompose_Q_exactly():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 32)
    traj = flow.run(flow.FlowConfig(SPHERE, MEAN(0.5), mk,
                                    t_end=0.01, dt=1e-3))
    st = traj[-1]
    for variant in ("chi1", "chi2", "chi3", "strong-Hp"):
        rep = ha.evaluate_monitor(st, ha.HarnackConfig(variant))
        total = sum(np.asarray(v) for v in rep.terms.values())
        npt.assert_allclose(total, rep.Q, rtol=1e-13, atol=1e-15)
        assert rep.argmin == int(np.argmin(rep.Q))


def test_trajectory_sourced_time_derivative():
    mk = geo.markers_from_radial(SPHERE, geo.cos_mode_radial(0.8, 0.05, 2), 32)
    dt = 5e-4
    traj = flow.run(flow.FlowConfig(SPHERE, MEAN(1.0), mk,
                                    t_end=0.01, dt=dt))
    st = traj.state_at(0.005)
    analytic = ha.evaluate_monitor(st, ha.HarnackConfig("chi1"))
    dtF = flow.time_derivative(traj, "F", 0.005, dt)
    differenced = ha.evaluate_monitor(st, ha.HarnackConfig("chi1"), dtF)
    npt.assert_allclose(differenced.Q, analytic.Q, rtol=1e-5)


# ---------------------------------------------------------------------------
# zeta correction and branch structure
# ---------------------------------------------------------------------------

def test_zeta_branch_threshold():
    npt.assert_allclose(ha.zeta_branch_threshold(2), 0.75, rtol=1e-15)
    npt.assert_allclose(ha.zeta_branch_threshold(3), 2.0 / 3.0, rtol=1e-15)


def test_zeta_general_values():
    # zeta = p (n - 1/(2p-1)) F^(2 - 1/p)
    p, n, F = 0.9, 2, 2.0
    A = p * (n - 1.0 / (2 * p - 1.0))
    npt.assert_allclose(ha.zeta_general(p, n, F), A * F ** (2 - 1 / p), rtol=1e-13)
    npt.assert_allclose(ha.zeta_general(p, n, F, order=1),
                        A * (2 - 1 / p) * F ** (1 - 1 / p), rtol=1e-13)
    step = 1e-6
    fd = (ha.zeta_general(p, n, F + step) - ha.zeta_general(p, n, F - step)) / (2 * step)
    npt.assert_allclose(ha.zeta_general(p, n, F, order=1), fd, rtol=1e-8)
    with pytest.raises(ConfigError, match="zeta formula needs p > 1/2, got p = 0.5"):
        ha.zeta_general(0.5, n, F)
    with pytest.raises(ConfigError, match="zeta derivatives are available up to order 2"):
        ha.zeta_general(p, n, F, order=3)


def test_zeta_monitor_vanishes_outside_first_branch():
    assert ha.zeta_monitor(0.6, 2, 2.0) == 0.0       # below threshold 3/4
    assert ha.zeta_monitor(1.0, 2, 2.0) == 0.0       # p = 1 uses the plain branch
    assert ha.zeta_monitor(0.9, 2, 2.0) == ha.zeta_general(0.9, 2, 2.0)


@pytest.mark.parametrize("p", [0.6, 0.9], ids=["zero-branch", "first-branch"])
def test_zeta_keeps_extended_precision(p):
    F = np.array([1.5, 2.0, 2.5], dtype=np.longdouble)
    for order in (0, 1, 2):
        assert ha.zeta_general(p, 2, F, order).dtype == np.longdouble
        assert ha.zeta_monitor(p, 2, F, order).dtype == np.longdouble


def test_strong_correction_coefficients():
    # first branch: p/(2p-1); second branch: n p
    npt.assert_allclose(strong_correction_coefficient(0.9, 2), 0.9 / 0.8, rtol=1e-15)
    npt.assert_allclose(strong_correction_coefficient(0.6, 2), 1.2, rtol=1e-15)
    npt.assert_allclose(strong_correction_coefficient(1.0, 2), 2.0, rtol=1e-15)
    # continuity is not expected across the threshold, but both sides are finite
    eps = 1e-9
    thr = ha.zeta_branch_threshold(2)
    assert np.isfinite(strong_correction_coefficient(thr - eps, 2))
    assert np.isfinite(strong_correction_coefficient(thr + eps, 2))


def test_strong_Hp_correction_term_matches_branch():
    sol = flow.sphere_ode_solution(SPHERE, MEAN(0.6), 0.8)
    st = sphere_state(sol, 0.05)
    rep = ha.evaluate_monitor(st, ha.HarnackConfig("strong-Hp"))
    H = 2.0 / np.tan(sol.radius(0.05))
    expected = -strong_correction_coefficient(0.6, 2) * H ** (2 * 0.6 - 1.0)
    npt.assert_allclose(rep.terms["correction"], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------

def test_variant_and_ambient_guards():
    sol1 = flow.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8)
    st1 = sphere_state(sol1, 0.1)
    with pytest.raises(ConfigError, match="euclidean variants need ambient curvature c = 0"):
        ha.evaluate_monitor(st1, ha.HarnackConfig("euclidean-contracting"))
    sol0 = flow.sphere_ode_solution(FLAT, MEAN(1.0), 1.0)
    st0 = sphere_state(sol0, 0.1)
    with pytest.raises(ConfigError):
        ha.evaluate_monitor(st0, ha.HarnackConfig("euclidean-expanding"))
    expanding = sphere_state(flow.sphere_ode_solution(FLAT, MEAN(-0.5), 1.0), 1.0)
    with pytest.raises(ConfigError, match="euclidean-contracting monitor got an expanding"):
        ha.evaluate_monitor(expanding, ha.HarnackConfig("euclidean-contracting"))
    steep = sphere_state(flow.sphere_ode_solution(SPHERE, MEAN(1.5), 0.8), 0.01)
    with pytest.raises(ConfigError, match="strong-Hp needs 0 < p <= 1, got 1.5"):
        ha.evaluate_monitor(steep, ha.HarnackConfig("strong-Hp"))
    with pytest.raises(ConfigError):
        ha.evaluate_monitor(st1, ha.HarnackConfig("no-such-variant"))


def test_mean_only_variants_reject_other_speeds():
    sol = flow.sphere_ode_solution(SPHERE, NORM(1.0), 0.8)
    st = sphere_state(sol, 0.1)
    for variant in ("chi3", "strong-Hp"):
        with pytest.raises(ConfigError,
                           match=f"{variant} is specific to powers of the mean curvature"):
            ha.evaluate_monitor(st, ha.HarnackConfig(variant))


def test_delta_window_validation():
    st0 = sphere_state(flow.sphere_ode_solution(FLAT, MEAN(1.0), 1.0), 0.1)
    with pytest.raises(ConfigError):
        # contracting window is delta >= p/(p+1) = 1/2
        ha.evaluate_monitor(st0, ha.HarnackConfig("euclidean-contracting", delta=0.3))
    exp = sphere_state(flow.sphere_ode_solution(FLAT, MEAN(-0.5), 1.0), 1.0)
    with pytest.raises(ConfigError):
        # expanding window is delta <= -1
        ha.evaluate_monitor(exp, ha.HarnackConfig("euclidean-expanding", delta=-0.5))
    st1 = sphere_state(flow.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8), 0.1)
    with pytest.raises(ConfigError):
        ha.evaluate_monitor(st1, ha.HarnackConfig("chi1", delta=0.0))
    with pytest.raises(ConfigError):
        ha.evaluate_monitor(st1, ha.HarnackConfig("strong-Hp", delta=0.4))


def _proved_for(variant, c, f, p):
    """The domain each variant is proved on, for contracting speeds F = f^p."""
    if variant == "euclidean-contracting":
        return c == 0
    if variant == "euclidean-expanding":
        return False
    return c == 1 and (variant in ("chi1", "chi2")
                       or f == "mean" and (variant == "chi3" or p <= 1))


def test_monitor_delta_accepts_exactly_what_the_table_admits():
    """Every variant, both ambients, mean and norm, p = 0.5, 1 and 1.5.  The sphere
    variants used to be accepted in the plane."""
    wrong = []
    for variant in ha.VARIANTS:
        for ambient in (SPHERE, FLAT):
            for f in ("mean", "norm"):
                for p in (0.5, 1.0, 1.5):
                    speed = sf.SpeedFunction(sf.builtin(f), p)
                    try:
                        ha.monitor_delta(ha.HarnackConfig(variant), ambient, speed)
                        accepted = True
                    except ConfigError:
                        accepted = False
                    expected = _proved_for(variant, ambient.c, f, p)
                    if accepted != expected or ha.admits(variant, ambient, speed) != expected:
                        wrong.append((variant, ambient.c, f, p, accepted))
    assert wrong == []
    assert len(ha.VARIANTS) == 6


@pytest.mark.parametrize("ambient, speed, variant", [
    (SPHERE, MEAN(0.5), "chi2"), (SPHERE, NORM(1.5), "chi2"),
    (FLAT, MEAN(1.0), "euclidean-contracting"), (FLAT, MEAN(-0.5), "euclidean-expanding")])
def test_default_variant_is_the_first_row_that_admits_the_run(ambient, speed, variant):
    assert ha.default_variant(ambient, speed) == variant


def test_readme_variant_table_names_every_variant():
    """README's "Monitor variants" table must list exactly the rows of harnack.VARIANTS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Monitor variants", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert names == list(ha.VARIANTS)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_non_finite_delta_is_refused(delta):
    with pytest.raises(ConfigError, match="delta must be a finite number"):
        ha.HarnackConfig("chi2", delta=delta)


def test_monitor_requires_positive_time():
    st = sphere_state(flow.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8), 0.0)
    with pytest.raises(ConfigError):
        ha.evaluate_monitor(st, ha.HarnackConfig("chi1"))
