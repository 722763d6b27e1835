"""Tests for the identity-residual ladder and the pointwise inequality scans.

The evolution identities are checked two ways: residuals on a geodesic
sphere (where every spatial derivative vanishes and only the O(Δt²) time
stencil contributes) and grid-refinement ladders on perturbed profiles,
whose fitted order must beat the second-order floor set by the centered
time difference.  The algebraic gap functions are pinned against small
hand-evaluated examples and their exact equality witnesses.
"""

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import verify as V
from harnacklab.errors import ConfigError, UnsupportedAmbient, WrongSpeed
from harnacklab.flow import FlowConfig, GeodesicSphere, run
from harnacklab.geometry import AmbientSpace, assemble, markers_from_radial
from harnacklab.symfunc import (SpeedFunction, d2F_quadratic, harmonic_mean,
                                mean, norm)

SPHERE = AmbientSpace(c=1, dim=2)
MEAN_HALF = SpeedFunction(mean(), 0.5)
NORM_HALF = SpeedFunction(norm(), 0.5)


@pytest.fixture(scope="module")
def umbilic_traj():
    """Short geodesic-sphere flow with every intermediate state stored."""
    return run(FlowConfig(ambient=SPHERE, speed=MEAN_HALF,
                          initial=GeodesicSphere(0.8),
                          t_end=8e-3, dt=1e-3, store_every=1))


@pytest.fixture(scope="module")
def small_ladder():
    """Two-level refinement ladder on a perturbed spherical profile."""
    return V.residual_ladder(SPHERE, MEAN_HALF,
                             tags=("beta", "chi1", "grad-commutator"),
                             levels=(24, 48), dt0=8e-4, t_check=4e-3)


# ---------------------------------------------------------------------------
# tag roster
# ---------------------------------------------------------------------------

def test_identity_tag_roster():
    assert len(V.IDENTITY_TAGS) == 17
    for tag in ("metric", "sff", "weingarten-box", "speed", "beta",
                "theta", "chi1", "chi2", "chi3", "box-commutator"):
        assert tag in V.IDENTITY_TAGS


def test_applicable_tags_drop_chi3_for_general_speeds():
    # the chi3 offset is defined through the mean-curvature correction term,
    # so it only applies when f is the trace
    assert set(V.applicable_tags(MEAN_HALF)) == set(V.IDENTITY_TAGS)
    assert set(V.IDENTITY_TAGS) - set(V.applicable_tags(NORM_HALF)) == {"chi3"}


# ---------------------------------------------------------------------------
# residuals on a geodesic sphere: spatial terms vanish identically
# ---------------------------------------------------------------------------

def test_umbilic_residuals_at_time_stencil_scale(umbilic_traj):
    # with dt = 1e-3 the centered difference truncates at ~dt^2; every
    # identity residual on the round sphere must sit at that scale or below
    for tag in V.applicable_tags(MEAN_HALF):
        if tag == "box-commutator":
            continue
        rec = V.evolution_residual(umbilic_traj, tag, 4e-3, 1e-3)
        assert rec.residual < 1e-4, (tag, rec.residual)
        assert rec.rhs_scale >= 0.0


def test_umbilic_commutators_vanish_exactly(umbilic_traj):
    # no grid, no gradients: both commutator defects are exact zeros
    grad = V.commutator_residual(umbilic_traj.state_at(4e-3))
    box = V.evolution_residual(umbilic_traj, "box-commutator", 4e-3, 1e-3)
    assert grad.tag == "grad-commutator"
    assert grad.dt == 0.0
    assert grad.residual == 0.0
    assert box.tag == "box-commutator"
    assert box.residual == 0.0


def test_commutator_keeps_extended_precision_phi(monkeypatch):
    markers = markers_from_radial(SPHERE, 0.8, 16).astype(np.longdouble)
    state = assemble(markers, SPHERE, MEAN_HALF)
    seen = []
    real = V.box_op

    def spy(st, fld, *index_types):
        seen.append(np.asarray(fld).dtype)
        return real(st, fld, *index_types)
    monkeypatch.setattr(V, "box_op", spy)
    V.commutator_residual(state)
    assert seen[0] == np.longdouble


def test_residual_record_fields(umbilic_traj):
    rec = V.evolution_residual(umbilic_traj, "beta", 4e-3, 1e-3)
    assert rec.tag == "beta"
    assert rec.t == pytest.approx(4e-3)
    assert rec.dt == pytest.approx(1e-3)
    assert rec.n_nodes == umbilic_traj.states[0].n_nodes
    assert np.isfinite(rec.residual) and rec.rhs_scale > 0.0


# ---------------------------------------------------------------------------
# refinement ladder
# ---------------------------------------------------------------------------

def test_ladder_orders_beat_second_order(small_ladder):
    for tag, rep in small_ladder.items():
        assert rep.tag == tag
        assert [r.n_nodes for r in rep.records] == [24, 48]
        assert rep.order > 1.8, (tag, rep.order)
        assert rep.finest_residual == rep.records[-1].residual
        assert rep.records[-1].residual < rep.records[0].residual


def test_ladder_step_scaling(small_ladder):
    # dt shrinks quadratically with the node count so the time stencil
    # keeps pace with the fourth-order label stencils
    recs = small_ladder["beta"].records
    npt.assert_allclose(recs[0].dt, 8e-4, rtol=1e-15)
    npt.assert_allclose(recs[1].dt, 8e-4 / 4.0, rtol=1e-15)
    # the commutator needs no time differencing at all
    assert all(r.dt == 0.0 for r in small_ladder["grad-commutator"].records)


def test_estimate_order_recovers_power_law():
    n = np.array([10, 20, 40, 80])
    npt.assert_allclose(V.estimate_order(n, 3.7 * n**-4.0), 4.0, rtol=1e-12)
    npt.assert_allclose(V.estimate_order(n, 0.2 * n**-1.5), 1.5, rtol=1e-12)


def test_evolution_residual_rejects_unknown_tag(umbilic_traj):
    with pytest.raises(ConfigError):
        V.evolution_residual(umbilic_traj, "not-a-tag", 4e-3, 1e-3)


def test_chi3_residual_needs_mean_speed():
    traj = V.standard_test_flow(SPHERE, NORM_HALF, 16, 1e-3, t_end=5e-3)
    with pytest.raises(WrongSpeed):
        V.evolution_residual(traj, "chi3", 3e-3, 1e-3)


def test_ladder_rejects_bad_input_before_running_a_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the input was checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    with pytest.raises(ConfigError, match="nope"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta", "nope"), levels=(24, 48))
    with pytest.raises(ConfigError, match="two grid levels"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=(24,))


def test_ladder_refuses_expanding_speed_on_the_sphere_before_running_a_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the speed was checked")

    monkeypatch.setattr(V._flow, "run", no_flow)
    with pytest.raises(UnsupportedAmbient, match="Euclidean-only"):
        V.residual_ladder(SPHERE, SpeedFunction(mean(), -0.5), tags=("beta",),
                          levels=(24, 48), dt0=8e-4, t_check=4e-3)


@pytest.mark.parametrize("levels, t_check, match", [
    # dt = 8e-4 (24/64)^2 = 1.125e-4 at N = 64, so t_check/dt = 35.6
    ((24, 48, 64), 4e-3, r"t_check = 0\.004 .* dt = 0\.0001125 at N = 64"),
    # the centered time difference needs the state at t_check - dt >= 0
    ((24, 48), 0.0, r"t_check = 0 .* dt = 0\.0008 at N = 24"),
    ((24, 48), -8e-4, r"t_check = -0\.0008 .* dt = 0\.0008 at N = 24"),
], ids=["off-grid", "zero", "negative"])
def test_ladder_rejects_t_check_off_the_step_grid_before_running_a_flow(
        monkeypatch, levels, t_check, match):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the input was checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    with pytest.raises(ConfigError, match=match):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=levels,
                          dt0=8e-4, t_check=t_check)


# ---------------------------------------------------------------------------
# pointwise gap functions: frozen examples and equality witnesses
# ---------------------------------------------------------------------------

def test_gap_examples_by_hand():
    kappa = np.array([1.0, 2.0])
    eta = np.diag([1.0, -1.0])
    # trace f: sum eta^2/kappa - (tr eta)^2/f = (1 + 1/2) - 0 = 3/2
    npt.assert_allclose(V.f_lemma_gap(mean(), kappa, eta), 1.5, rtol=1e-14)
    npt.assert_allclose(V.urbas_gap(mean(), kappa, eta), 3.0, rtol=1e-14)
    # norm at (3, 4): f = 5, df = (3/5, 4/5), f - kappa . df with the
    # smaller curvature direction weighted: 5 - 3*3/5 - ... = 9/20 * 2
    npt.assert_allclose(V.fb_dominance(norm(), np.array([3.0, 4.0])),
                        0.45, rtol=1e-14)


def test_gap_witnesses_are_exact_zeros():
    kappa = np.array([1.3, 2.1])
    eta_hat = np.diag(kappa)
    assert float(V.f_lemma_gap(mean(), kappa, eta_hat)) == 0.0
    assert float(V.urbas_gap(mean(), kappa, eta_hat)) == 0.0
    g, h = np.eye(2), np.diag(kappa)
    assert float(V.harnack_form_gap(MEAN_HALF, g, h, h)) == 0.0


def test_urbas_gap_requires_inverse_concavity():
    with pytest.raises(WrongSpeed):
        V.urbas_gap(norm(), np.array([1.0, 2.0]), np.diag([1.0, -1.0]))


def test_harnack_form_decomposes_into_quadratic_and_lemma_gap():
    # F = f^p:  gap = p f^(p-1) [ (d2f)(eta,eta) + 2 * lemma gap ]
    rng = np.random.default_rng(11)
    kappa = np.array([0.9, 1.7, 2.4])
    g, h = np.eye(3), np.diag(kappa)
    f = mean()
    for p in (0.5, 1.0):
        F = SpeedFunction(f, p)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            eta = 0.5 * (a + a.T)
            left = V.harnack_form_gap(F, g, h, eta)
            q = d2F_quadratic(f, g, h, eta)
            lem = V.f_lemma_gap(f, kappa, eta)
            fval = f.value(kappa)
            npt.assert_allclose(left, p * fval**(p - 1.0) * (q + 2.0 * lem),
                                rtol=1e-10)


def test_harnack_form_gap_is_frame_invariant():
    rng = np.random.default_rng(4)
    g = np.eye(2)
    h = np.diag([1.0, 2.0])
    npt.assert_allclose(V.harnack_form_gap(MEAN_HALF, g, h, np.diag([1.0, -1.0])),
                        np.sqrt(3.0) / 2.0, rtol=1e-13)
    eta = np.array([[0.7, -0.2], [-0.2, 0.3]])
    base = V.harnack_form_gap(MEAN_HALF, g, h, eta)
    for _ in range(4):
        P = rng.normal(scale=0.2, size=(2, 2)) + 2.0 * np.eye(2)
        moved = V.harnack_form_gap(MEAN_HALF, P.T @ g @ P, P.T @ h @ P,
                                   P.T @ eta @ P)
        npt.assert_allclose(moved, base, rtol=1e-9)


def test_harmonic_mean_sits_on_urbas_equality():
    # the inverse of the harmonic mean is linear, so its concavity gap --
    # and hence the Urbas gap -- vanishes identically, not just at eta = h
    hm = harmonic_mean()
    kappa = np.array([1.3, 2.1])
    rng = np.random.default_rng(2)
    for _ in range(6):
        a = rng.normal(size=(2, 2))
        eta = 0.5 * (a + a.T)
        gap = float(V.urbas_gap(hm, kappa, eta))
        assert abs(gap) < 1e-12


def test_mean_speed_form_is_twice_lemma_gap():
    # the trace is linear, so the quadratic term drops and only the lemma
    # gap survives (doubled) in the speed form
    kappa = np.array([0.8, 1.4])
    g, h = np.eye(2), np.diag(kappa)
    F1 = SpeedFunction(mean(), 1.0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        eta = 0.5 * (a + a.T)
        npt.assert_allclose(V.harnack_form_gap(F1, g, h, eta),
                            2.0 * V.f_lemma_gap(mean(), kappa, eta),
                            rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# correction-term condition checks: closed forms on round data
# ---------------------------------------------------------------------------

def _zeta_condition_oracles(p, n, H):
    """Hand-reduced values of the correction-term conditions at kappa = H/n."""
    H = np.asarray(H, dtype=float)
    s = 2.0 * p - 1.0
    return {
        "correction-size":
            2.0 * p * H**s * (2.0 * n * s - (p + 1.0)) / ((p + 1.0) * s),
        "correction-square":
            p * (n - 1.0 / s) * H**(3.0 * p - 2.0) * (2.0 * n * s - (p + 1.0)) / s,
        "correction-slope": H**s * (1.0 - p) / s,
        "gradient-term": (n * (p - 1.0) * s + 1.0 - p) / (p * H),
        "closure-identity": np.zeros_like(H),
    }


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [0.55, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0])
def test_zeta_condition_values_match_closed_forms(p, n):
    H = np.logspace(-1.0, 1.0, 7)
    out = V.zeta_conditions(p, n, H)
    assert out["p"] == p and out["n"] == n
    npt.assert_allclose(out["H"], H)
    want = _zeta_condition_oracles(p, n, H)
    assert set(out["values"]) == set(want)
    for key, val in want.items():
        npt.assert_allclose(out["values"][key], val, rtol=1e-12, atol=1e-13,
                            err_msg=key)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [0.55, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0])
def test_zeta_condition_applicability_split(p, n):
    thr = 0.5 + 1.0 / (2.0 * n)
    out = V.zeta_conditions(p, n, np.array([1.0]))
    app = out["applicable"]
    # at p == thr the correction coefficient vanishes, so the boundary
    # exponent belongs to both condition families
    corr = p >= thr
    for key in ("correction-size", "correction-square", "correction-slope"):
        assert app[key] == corr, (key, p, n)
    assert app["gradient-term"] == (p <= thr or p == 1.0)
    assert app["closure-identity"] is True


# ---------------------------------------------------------------------------
# convexity monitor
# ---------------------------------------------------------------------------

def test_convexity_monitor_report(umbilic_traj):
    out = V.convexity_monitor(umbilic_traj)
    assert set(out) == {"t", "min_kappa_per_state", "min_kappa",
                        "argmin_t", "argmin_node", "all_convex"}
    assert len(out["min_kappa_per_state"]) == len(out["t"])
    assert out["min_kappa"] == out["min_kappa_per_state"].min()
    assert out["argmin_t"] in out["t"]
    assert out["all_convex"] is True
    # cot(0.8) ~ 0.97: the sphere only steepens as it contracts
    assert out["min_kappa"] > 0.9


# ---------------------------------------------------------------------------
# random inequality scans
# ---------------------------------------------------------------------------

def test_scan_is_deterministic_for_fixed_seed():
    kw = dict(inequalities=("f-lemma", "harnack-form"), n_values=(2, 3),
              samples=2000, seed=7)
    first = V.scan_inequalities(**kw)
    second = V.scan_inequalities(**kw)
    assert first == second
    assert [(r.inequality, r.n) for r in first] == [
        ("f-lemma", 2), ("f-lemma", 3), ("harnack-form", 2), ("harnack-form", 3)]
    for rep in first:
        assert rep.f_name == "mean"
        assert rep.samples == 2000 and rep.seed == 7
        assert rep.min_normalized_gap > -1e-10
        assert rep.witness_max_abs_gap < 1e-8


def test_harnack_form_scan_solves_one_eigensystem_per_batch(monkeypatch):
    calls = []

    def counting(g, h):
        calls.append(np.shape(g))
        return eigensystem(g, h)

    eigensystem = V._sf.weingarten_eigensystem
    monkeypatch.setattr(V._sf, "weingarten_eigensystem", counting)
    gap, wit = V._scan_once("harnack-form", mean(), MEAN_HALF,
                            np.random.default_rng(5), 300, 3)
    assert calls == [(300, 3, 3)]
    assert gap > -1e-10 and wit < 1e-8


def test_scan_default_roster_rejects_non_inverse_concave_f():
    with pytest.raises(WrongSpeed):
        V.scan_inequalities(n_values=(2,), samples=200, seed=1,
                            f=norm(), speed=NORM_HALF)


def test_scan_explicit_roster_runs_for_norm():
    reps = V.scan_inequalities(
        inequalities=("f-lemma", "harnack-form", "fb-dominance"),
        n_values=(2,), samples=500, seed=1, f=norm(), speed=NORM_HALF)
    assert [r.inequality for r in reps] == ["f-lemma", "harnack-form",
                                            "fb-dominance"]
    for rep in reps:
        assert rep.f_name == "norm"
        assert rep.min_normalized_gap > -1e-10


def test_sample_metric_pair_realizes_prescribed_curvatures():
    rng = np.random.default_rng(3)
    kappa = np.abs(rng.normal(size=(6, 3))) + 0.1
    g, h = V.sample_metric_pair(rng, 6, 3, kappa)
    assert g.shape == h.shape == (6, 3, 3)
    for i in range(6):
        assert np.all(np.linalg.eigvalsh(g[i]) > 0.0)
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(g[i], h[i])).real)
        npt.assert_allclose(ev, np.sort(kappa[i]), rtol=1e-9)
