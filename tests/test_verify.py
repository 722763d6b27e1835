"""Tests for the identity-residual ladder and the pointwise inequality scans.

The evolution identities are checked two ways: residuals on a geodesic
sphere (where every spatial derivative vanishes and only the O(Δt²) time
stencil contributes) and grid-refinement ladders on perturbed profiles,
whose fitted order must beat the second-order floor set by the centered
time difference.  The algebraic gap functions are pinned against small
hand-evaluated examples and their exact equality witnesses.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from harnacklab import verify as V
from harnacklab.errors import ConfigError, OutOfRange
from harnacklab.flow import FlowConfig, GeodesicSphere, run
from harnacklab.geometry import AmbientSpace, assemble, cos_mode_radial, markers_from_radial
from harnacklab.symfunc import (SpeedFunction, _to_eigenframe, d2F_from_eig, harmonic_mean,
                                mean, norm, power_mean, weingarten_eigensystem)
from oracles import _sample_kappa_eta, _sample_metric_pair, fixed_dt_ladder_flow

SPHERE = AmbientSpace(c=1, dim=2)
MEAN_HALF = SpeedFunction(mean(), 0.5)
NORM_HALF = SpeedFunction(norm(), 0.5)
PMEAN_MINUS_TWO = SpeedFunction(power_mean(-2.0), 1.0)     # not inverse-concave


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
    assert len(V.IDENTITY_TAGS) == 18
    for tag in ("metric", "sff", "weingarten-box", "speed", "beta",
                "theta", "chi1", "chi2", "chi3", "box-commutator"):
        assert tag in V.IDENTITY_TAGS
    # the single-state check is the last row, the one without a subject
    assert [t for t, ident in V.IDENTITIES.items() if ident.subject is None] == [
        "grad-commutator"] == [V.IDENTITY_TAGS[-1]]


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


def test_residuals_of_one_state_build_its_second_derivative_once(monkeypatch):
    traj = V.standard_test_flow(SPHERE, NORM_HALF, 24, 1e-3, t_check=2e-3)
    calls = []
    real = SpeedFunction.d2value

    def counted(self, kappa):
        calls.append(kappa.shape)
        return real(self, kappa)
    monkeypatch.setattr(SpeedFunction, "d2value", counted)
    for tag in ("sff-box", "beta", "theta", "grad-speed"):
        V.evolution_residual(traj, tag, 2e-3, 1e-3)
    assert len(calls) == 1


def test_residual_record_fields(umbilic_traj):
    rec = V.evolution_residual(umbilic_traj, "beta", 4e-3, 1e-3)
    assert rec.tag == "beta"
    assert rec.t == pytest.approx(4e-3)
    assert rec.dt == pytest.approx(1e-3)
    assert rec.n_nodes == umbilic_traj[0].n_nodes
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
    traj = V.standard_test_flow(SPHERE, NORM_HALF, 16, 1e-3, t_check=4e-3)
    with pytest.raises(ConfigError, match="identity 'chi3' is specific to powers of the mean"):
        V.evolution_residual(traj, "chi3", 4e-3, 1e-3)


def test_default_ladder_runs_every_applicable_check():
    ladders = V.residual_ladder(SPHERE, MEAN_HALF, levels=(24, 48), dt0=8e-4, t_check=4e-3)
    assert tuple(ladders) == V.applicable_tags(MEAN_HALF)
    assert tuple(ladders)[-1] == "grad-commutator"


# Every residual of residual_ladder(levels=(24, 48), dt0=8e-4, t_check=4e-3) at
# N = 24 and 48, recorded with the n = 2 stepper on the upper half of the
# profile and each level's prefix at the adaptive step.  The ladders only bound
# orders and sizes, which a small dropped term can pass; pinning the values
# themselves catches any change to an identity's right-hand side beyond rounding.
FROZEN_LADDERS = {
    "sphere-mean^0.8": {
        "metric": (0.0004508092660327382, 9.2849720396838e-06),
        "inverse-metric": (1.545133539610135e-05, 9.701323030149288e-07),
        "sff": (0.0005118147567293626, 9.695616674646018e-06),
        "weingarten": (0.0005261468253832817, 1.3369694139345e-05),
        "sff-box": (0.005914933777980694, 0.0003061278617112036),
        "weingarten-box": (0.0037505503983717107, 0.00022137883580890472),
        "inverse-sff": (0.009540348004750378, 0.002695428870460657),
        "squared-sff": (0.00015971456377931691, 4.374606511352135e-06),
        "speed": (0.00015643623448196916, 4.508083998458356e-06),
        "christoffel": (0.0532839142805852, 0.002490239681161417),
        "grad-speed": (0.023806956131740678, 0.0008645017902674311),
        "beta": (0.0006353777770774408, 1.9930257051518235e-05),
        "theta": (0.0410164899187206, 0.002749724383091352),
        "chi2": (0.0001284749320872814, 5.360865570254851e-06),
        "chi3": (0.0001216128290494723, 5.094472732062723e-06),
        "chi1": (9.68710763332294e-05, 4.075593089412659e-06),
        "box-commutator": (0.0015785678420449556, 4.419035554519971e-05),
        "grad-commutator": (0.0011749971367658368, 4.8442036926829394e-05),
    },
    "euclidean-mean^0.8": {
        "metric": (0.00042960602832389013, 8.17974237177832e-06),
        "inverse-metric": (1.2294603583590992e-05, 5.650341895248225e-07),
        "sff": (0.00042015016681225595, 7.787360156267557e-06),
        "weingarten": (0.0003551983244122762, 8.160601378248067e-06),
        "sff-box": (0.006892900657317261, 0.0004523302349703531),
        "weingarten-box": (0.007561141881310623, 0.0005377261956979522),
        "inverse-sff": (0.004147005907563098, 7.735063674428598e-05),
        "squared-sff": (0.0003541465773984307, 7.500368603924763e-06),
        "speed": (0.00020600781308945123, 4.711508168586761e-06),
        "christoffel": (0.03557962826138503, 0.0015914089437013069),
        "grad-speed": (0.024451837497546345, 0.000997141938272466),
        "beta": (0.0005383013103488274, 1.4626428853474957e-05),
        "theta": (0.01717662098180935, 0.0010332701822278623),
        "chi2": (5.6194162781531375e-05, 1.8299242133876147e-06),
        "chi3": (5.6194162781531375e-05, 1.8299242133876147e-06),
        "chi1": (5.6194162781531375e-05, 1.8299242133876562e-06),
        "box-commutator": (0.0012675953529347637, 4.456165795406796e-05),
        "grad-commutator": (0.006038069323509764, 0.00025582168244967657),
    },
    "sphere-norm^0.5": {
        "metric": (0.0003272942519116881, 6.578957071595451e-06),
        "inverse-metric": (1.017712243717181e-05, 3.731560034612455e-07),
        "sff": (0.0004130297741298637, 7.79373460173267e-06),
        "weingarten": (0.0004337269702510752, 1.0841081915946088e-05),
        "sff-box": (0.0040430026428103704, 0.00021189619541953553),
        "weingarten-box": (0.002668073378692873, 0.00016200790616610104),
        "inverse-sff": (0.00714611222936714, 0.00218325304980686),
        "squared-sff": (0.00015160157677015858, 2.7553078160081634e-06),
        "speed": (9.783401413735357e-05, 2.651363362275397e-06),
        "christoffel": (0.03422062263861316, 0.001596182131378546),
        "grad-speed": (0.013140486707240124, 0.0005173593975400172),
        "beta": (0.0002476712779870722, 6.765750409763834e-06),
        "theta": (0.00787447622865806, 0.0004630485525888405),
        "chi2": (3.411498805241265e-05, 9.991968917363388e-07),
        "chi1": (2.628096734588824e-05, 7.698202916878887e-07),
        "box-commutator": (0.0007821321792819228, 2.8956358107226742e-05),
        "grad-commutator": (0.0008347229192351264, 3.5192746105900225e-05),
    },
}
FROZEN_CASES = {"sphere-mean^0.8": (SPHERE, SpeedFunction(mean(), 0.8)),
                "euclidean-mean^0.8": (AmbientSpace(c=0, dim=2), SpeedFunction(mean(), 0.8)),
                "sphere-norm^0.5": (SPHERE, NORM_HALF)}


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_ladder_residuals_are_frozen(case):
    ladders = V.residual_ladder(*FROZEN_CASES[case], levels=(24, 48), dt0=8e-4,
                                t_check=4e-3)
    got = {tag: tuple(r.residual for r in rep.records) for tag, rep in ladders.items()}
    assert got.keys() == FROZEN_LADDERS[case].keys()
    for tag, expected in FROZEN_LADDERS[case].items():
        npt.assert_allclose(got[tag], expected, rtol=1e-9, err_msg=tag)


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_ladder_residuals_match_the_flow_stepped_from_zero_at_the_fixed_dt(monkeypatch, case):
    """A level used to step from t = 0 at dt; its residuals reproduce FROZEN_LADDERS as
    they stood then.  The prefix at the stable step moves them by at most 2.5e-3."""
    def ladder():
        return V.residual_ladder(*FROZEN_CASES[case], levels=(24, 48), dt0=8e-4,
                                 t_check=4e-3)
    got = ladder()
    monkeypatch.setattr(V, "standard_test_flow", fixed_dt_ladder_flow)
    for tag, rep in ladder().items():
        npt.assert_allclose([r.residual for r in got[tag].records],
                            [r.residual for r in rep.records], rtol=5e-3, err_msg=tag)


@pytest.fixture
def flow_configs(monkeypatch):
    """The FlowConfig of every flow.run call the test makes, in order."""
    configs = []
    real = V._flow.run

    def logged(config):
        configs.append(config)
        return real(config)
    monkeypatch.setattr(V._flow, "run", logged)
    return configs


def test_a_level_whose_prefix_stops_early_raises_before_its_tail_runs(flow_configs):
    """F = H^0.5 from r0 = 0.8 loses convexity at the N = 16 level near t = 0.344,
    before t_check − dt = 0.3998."""
    with pytest.raises(OutOfRange, match=r"^the N = 16 ladder flow stopped with "
                                         r"'convexity-lost' at t = 0\.34\d+, short of "
                                         r"t = 0\.3998$"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=(16, 32), dt0=2e-4,
                          t_check=0.4)
    assert [c.dt for c in flow_configs] == [None]


def test_a_single_step_t_check_has_no_prefix(flow_configs):
    traj = V.standard_test_flow(SPHERE, NORM_HALF, 16, 1e-3, t_check=1e-3)
    assert [(c.t_end, c.dt) for c in flow_configs] == [(2e-3, 1e-3)]
    assert traj.times.tolist() == [0.0, 1e-3, 2e-3]


def test_the_floor_ladder_keeps_the_metric_above_fifth_order():
    """The five-level ladder that shows beta and box-commutator at the roundoff floor
    past N = 256; the metric converges at 5.77, 5.86, 5.70 and 5.23 over its pairs."""
    rep = V.residual_ladder(SPHERE, NORM_HALF, tags=("metric",),
                            levels=(32, 64, 128, 256, 512), dt0=8e-4, t_check=8e-3)["metric"]
    levels = [r.n_nodes for r in rep.records]
    residuals = [r.residual for r in rep.records]
    pairs = [V.estimate_order(levels[i:i + 2], residuals[i:i + 2]) for i in range(4)]
    assert min(pairs) >= 5.0, pairs
    assert rep.finest_pair_order == pairs[-1]


def test_ladder_rejects_bad_input_before_running_a_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the input was checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    with pytest.raises(ConfigError, match="nope"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta", "nope"), levels=(24, 48))
    with pytest.raises(ConfigError, match="two grid levels"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=(24,))
    with pytest.raises(ConfigError, match="two grid levels"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=(32, 32))
    with pytest.raises(ConfigError, match="repeated identity tag.*'beta'"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta", "beta"), levels=(24, 48))


def test_a_ladder_with_no_identity_is_refused_before_any_flow(flow_configs):
    """An empty tag list used to run every level's flow, check nothing and pass."""
    with pytest.raises(ConfigError, match=r"^a ladder needs at least one identity tag$"):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=(), levels=(16, 24), dt0=8e-4,
                          t_check=4e-3)
    assert flow_configs == []


def test_an_unknown_tag_refusal_names_every_tag_the_ladder_accepts(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the tags were checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    with pytest.raises(ConfigError, match="unknown identity tag 'grad-comutator'") as err:
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("grad-comutator",), levels=(24, 48))
    assert "'grad-commutator'" in str(err.value)
    assert all(repr(tag) in str(err.value) for tag in V.IDENTITY_TAGS)


def test_ladder_refuses_expanding_speed_on_the_sphere_before_running_a_flow(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the speed was checked")

    monkeypatch.setattr(V._flow, "run", no_flow)
    with pytest.raises(ConfigError, match="expanding speeds are Euclidean-only"):
        V.residual_ladder(SPHERE, SpeedFunction(mean(), -0.5), tags=("beta",),
                          levels=(24, 48), dt0=8e-4, t_check=4e-3)


@pytest.mark.parametrize("levels, t_check, match", [
    # the centered time difference needs the state at t_check - dt >= 0
    ((24, 48), 0.0, r"t_check = 0 .* dt = 0\.0008 at N = 24"),
    ((24, 48), -8e-4, r"t_check = -0\.0008 .* dt = 0\.0008 at N = 24"),
], ids=["zero", "negative"])
def test_ladder_rejects_t_check_off_the_step_grid_before_running_a_flow(
        monkeypatch, levels, t_check, match):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the input was checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    with pytest.raises(ConfigError, match=match):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), levels=levels,
                          dt0=8e-4, t_check=t_check)


def test_an_off_grid_t_check_takes_an_adaptive_prefix_and_two_steps(flow_configs):
    """dt = 8e-4·(24/64)² = 1.125e-4 at N = 64, so t_check = 4e-3 is 35.56 steps of it;
    the ladder used to refuse it.  The prefix stores only its first and last steps."""
    traj = V.standard_test_flow(SPHERE, MEAN_HALF, 64, 1.125e-4, t_check=4e-3)
    assert [(c.t_end, c.dt, c.store_every) for c in flow_configs] == [
        (4e-3 - 1.125e-4, None, V._flow.MAX_STEPS), (2.25e-4, 1.125e-4, 1)]
    assert traj.times.tolist() == [4e-3 - 1.125e-4, 4e-3, 4e-3 + 1.125e-4]


def test_t_check_may_fall_short_of_one_coarsest_step_only_within_the_tolerance(flow_configs):
    """t_check = dt0 within flow.STATE_RTOL is one step of the coarsest level, which
    then has no prefix; 1e-3 of a step short of dt0 is refused before any flow."""
    t_check = 1e-3 - 5e-13
    reports = V.residual_ladder(SPHERE, NORM_HALF, tags=("beta",), levels=(16, 32),
                                dt0=1e-3, t_check=t_check)
    assert [c.dt for c in flow_configs] == [1e-3, None, 2.5e-4]
    assert [r.t for r in reports["beta"].records] == [t_check, t_check]
    flow_configs.clear()
    with pytest.raises(ConfigError, match=r"t_check = 0\.000999 is 0\.999 steps "
                                          r"of dt = 0\.001 at N = 16"):
        V.residual_ladder(SPHERE, NORM_HALF, tags=("beta",), levels=(16, 32),
                          dt0=1e-3, t_check=1e-3 - 1e-6)
    assert flow_configs == []


def test_a_ladder_flow_keeps_only_its_last_steps():
    traj = V.standard_test_flow(SPHERE, NORM_HALF, 16, 1e-3, t_check=4e-3)
    assert len(traj.steps) == 3
    assert traj.times.tolist() == [3e-3, 4e-3, 4e-3 + 1e-3]


def test_a_ladder_level_steps_adaptively_to_t_check_minus_dt_then_twice_by_dt(monkeypatch):
    """The benchmark ladder's N = 256 level (dt = 1.25e-5, t_check = 2e-3) used to take
    t_check/dt + 1 = 161 steps of dt from t = 0; the stable step is about 20 dt."""
    steps = []
    real = V._flow._rk4

    def counted(ambient, speed, markers, dt, k1):
        steps.append(dt)
        return real(ambient, speed, markers, dt, k1)
    monkeypatch.setattr(V._flow, "_rk4", counted)
    V.standard_test_flow(SPHERE, NORM_HALF, 256, 1.25e-5, t_check=2e-3)
    level = list(steps)
    steps.clear()
    markers = markers_from_radial(SPHERE, cos_mode_radial(0.8, 0.05, 2), 256)
    run(FlowConfig(ambient=SPHERE, speed=NORM_HALF, initial=markers, t_end=2e-3 - 1.25e-5,
                   dtype="longdouble"))
    assert len(level) == len(steps) + 2 == 7 + 2
    assert level[:-2] == steps and level[-2:] == [1.25e-5, 1.25e-5]


@pytest.mark.parametrize("t_check", [4e-3, 4e-3 + 5e-10], ids=["on-grid", "sliver"])
def test_ladder_residuals_do_not_depend_on_the_window(monkeypatch, t_check):
    """t_check = 4e-3 + 5e-10 is a whole number of steps within flow.STATE_RTOL, so the
    tail takes exactly two steps of dt from t_check − dt.  Storing every step of both
    runs changes no residual: the tail starts from the prefix's last step."""
    def ladder():
        return V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta", "grad-commutator"),
                                 levels=(24, 48), dt0=8e-4, t_check=t_check)
    window = ladder()
    real = V._flow.run
    monkeypatch.setattr(V._flow, "run", lambda config: real(replace(config, store_every=1)))
    whole = ladder()
    for tag in whole:
        assert window[tag].records == whole[tag].records
        assert {r.t for r in whole[tag].records} == {t_check}


def test_ladder_memory_does_not_grow_with_t_check():
    """Each level used to store every step, so the traced peak grew from 391 to 574 KiB
    when t_check went from 4e-3 to 16e-3."""
    def peak(t_check):
        tracemalloc.start()
        try:
            V.residual_ladder(SPHERE, NORM_HALF, tags=("beta", "grad-commutator"),
                              levels=(32, 64), dt0=8e-4, t_check=t_check)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    short = peak(4e-3)
    assert peak(16e-3) <= 1.05 * short


@pytest.mark.parametrize("keys, match", [
    # these used to escape flow.whole_steps as ZeroDivisionError, ValueError
    # and OverflowError
    ({"dt0": 0.0}, r"dt0 = 0 and"),
    ({"dt0": float("nan")}, r"dt0 = nan"),
    ({"t_check": float("inf")}, r"t_check = inf"),
    # the odd level used to be refused only after the N = 18 flow had run
    ({"levels": (18, 9)}, r"even node count >= 8, to fit an order, got \(18, 9\)"),
    ({"levels": (6, 12)}, r"even node count >= 8, to fit an order, got \(6, 12\)"),
    # the gates read the last levels as the finest: given as 48, 24 with dt0 = 8e-4,
    # beta's finest residual used to be the N = 24 level's 8.6e-4 at t_check = 6.4e-3
    ({"levels": (48, 24)}, r"strictly increasing, each an even node count >= 8, to fit "
                           r"an order, got \(48, 24\)"),
    ({"levels": (24, 64, 48)}, r"strictly increasing, .* got \(24, 64, 48\)"),
], ids=["dt0-zero", "dt0-nan", "t_check-inf", "odd-level", "level-below-8", "descending",
        "not-increasing"])
def test_ladder_rejects_bad_step_inputs_before_running_a_flow(monkeypatch, keys, match):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the input was checked")

    monkeypatch.setattr(V, "standard_test_flow", no_flow)
    args = {"levels": (24, 48), "dt0": 8e-4, "t_check": 4e-3, **keys}
    with pytest.raises(ConfigError, match=match):
        V.residual_ladder(SPHERE, MEAN_HALF, tags=("beta",), **args)


# ---------------------------------------------------------------------------
# pointwise gap functions: frozen examples and equality witnesses
# ---------------------------------------------------------------------------

def _gap(tag, speed, kappa, eta_hat):
    """quad + pos − neg of a SCAN_KERNELS entry at eigenframe inputs; f = speed.f."""
    terms = V.SCAN_KERNELS[tag](speed.f, speed, np.asarray(kappa, dtype=float))
    quad, pos, neg = terms(np.asarray(eta_hat, dtype=float))
    return quad + pos - neg


def _harnack_form_gap(speed, g, h, eta):
    """The harnack-form gap at a (g, h) pair and a coordinate η, as the scan rotates it."""
    kappa, T = weingarten_eigensystem(g, h)
    return _gap("harnack-form", speed, kappa, _to_eigenframe(T, np.asarray(eta, dtype=float)))


MEAN_ONE = SpeedFunction(mean(), 1.0)


def test_gap_examples_by_hand():
    kappa = np.array([1.0, 2.0])
    eta = np.diag([1.0, -1.0])
    # trace f: sum eta^2/kappa - (tr eta)^2/f = (1 + 1/2) - 0 = 3/2
    npt.assert_allclose(_gap("f-lemma", MEAN_ONE, kappa, eta), 1.5, rtol=1e-14)
    npt.assert_allclose(_gap("urbas", MEAN_ONE, kappa, eta), 3.0, rtol=1e-14)
    # norm at (3, 4): f = 5, df = (3/5, 4/5), f - kappa . df with the
    # smaller curvature direction weighted: 5 - 3*3/5 - ... = 9/20 * 2
    npt.assert_allclose(_gap("fb-dominance", SpeedFunction(norm(), 1.0),
                             np.array([3.0, 4.0]), None).min(), 0.45, rtol=1e-14)


def test_gap_witnesses_are_exact_zeros():
    kappa = np.array([1.3, 2.1])
    eta_hat = np.diag(kappa)
    assert float(_gap("f-lemma", MEAN_ONE, kappa, eta_hat)) == 0.0
    assert float(_gap("urbas", MEAN_ONE, kappa, eta_hat)) == 0.0
    g, h = np.eye(2), np.diag(kappa)
    assert float(_harnack_form_gap(MEAN_HALF, g, h, h)) == 0.0


def test_harnack_form_decomposes_into_quadratic_and_lemma_gap():
    # F = f^p:  gap = p f^(p-1) [ (d2f)(eta,eta) + 2 * lemma gap ]
    rng = np.random.default_rng(11)
    kappa = np.array([0.9, 1.7, 2.4])
    g, h = np.eye(3), np.diag(kappa)
    f = mean()
    d2f = d2F_from_eig(SpeedFunction(f, 1.0), *weingarten_eigensystem(g, h))
    for p in (0.5, 1.0):
        F = SpeedFunction(f, p)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            eta = 0.5 * (a + a.T)
            left = _harnack_form_gap(F, g, h, eta)
            q = np.einsum("ijkl,ij,kl->", d2f, eta, eta)
            lem = _gap("f-lemma", MEAN_ONE, kappa, eta)
            fval = f.value(kappa)
            npt.assert_allclose(left, p * fval**(p - 1.0) * (q + 2.0 * lem),
                                rtol=1e-10)


def test_harnack_form_gap_is_frame_invariant():
    rng = np.random.default_rng(4)
    g = np.eye(2)
    h = np.diag([1.0, 2.0])
    npt.assert_allclose(_harnack_form_gap(MEAN_HALF, g, h, np.diag([1.0, -1.0])),
                        np.sqrt(3.0) / 2.0, rtol=1e-13)
    eta = np.array([[0.7, -0.2], [-0.2, 0.3]])
    base = _harnack_form_gap(MEAN_HALF, g, h, eta)
    for _ in range(4):
        P = rng.normal(scale=0.2, size=(2, 2)) + 2.0 * np.eye(2)
        moved = _harnack_form_gap(MEAN_HALF, P.T @ g @ P, P.T @ h @ P,
                                  P.T @ eta @ P)
        npt.assert_allclose(moved, base, rtol=1e-9)


def test_harmonic_mean_sits_on_urbas_equality():
    # the inverse of the harmonic mean is linear, so its concavity gap --
    # and hence the Urbas gap -- vanishes identically, not just at eta = h
    hm = SpeedFunction(harmonic_mean(), 1.0)
    kappa = np.array([1.3, 2.1])
    rng = np.random.default_rng(2)
    for _ in range(6):
        a = rng.normal(size=(2, 2))
        eta = 0.5 * (a + a.T)
        gap = float(_gap("urbas", hm, kappa, eta))
        assert abs(gap) < 1e-12


def test_mean_speed_form_is_twice_lemma_gap():
    # the trace is linear, so the quadratic term drops and only the lemma
    # gap survives (doubled) in the speed form
    kappa = np.array([0.8, 1.4])
    g, h = np.eye(2), np.diag(kappa)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        eta = 0.5 * (a + a.T)
        npt.assert_allclose(_harnack_form_gap(MEAN_ONE, g, h, eta),
                            2.0 * _gap("f-lemma", MEAN_ONE, kappa, eta),
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


@pytest.mark.parametrize("p, H, message", [
    (0.5, [1.0], "formulated for 1/2 < p <= 1, got 0.5"),
    (1.2, [1.0], "formulated for 1/2 < p <= 1, got 1.2"),
    (0.75, [1.0, 0.0], "H values must be positive"),
], ids=["p-at-one-half", "p-above-one", "zero-H"])
def test_zeta_conditions_refuse_a_point_outside_their_domain(p, H, message):
    with pytest.raises(ConfigError, match=message):
        V.zeta_conditions(p, 3, np.array(H))


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


# (min_normalized_gap, witness_max_abs_gap) of scan_inequalities(samples=2000,
# seed=7), two batches per task, recorded with one generator per (seed,
# inequality, n) and the shared quadratic-gap kernel.  A rewrite that only
# reorders roundings may move a gap by rounding, no more.
FROZEN_SCAN_GAPS = {
    ("f-lemma", 2): (0.0035327881441860783, 2.842170943040401e-14),
    ("f-lemma", 3): (0.13455518816864623, 4.263256414560601e-14),
    ("f-lemma", 5): (0.6699455572090247, 8.526512829121202e-14),
    ("urbas", 2): (0.0016061329202259, 5.684341886080802e-14),
    ("urbas", 3): (0.17630391098414544, 5.684341886080802e-14),
    ("urbas", 5): (0.5666936606000588, 8.526512829121202e-14),
    ("harnack-form", 2): (0.00046223445819574584, 5.684341886080802e-14),
    ("harnack-form", 3): (0.15841970972198266, 1.1368683772161603e-13),
    ("harnack-form", 5): (0.49908121512123105, 1.1368683772161603e-13),
    ("fb-dominance", 2): (5.6906661060898344e-05, 0.0),
    ("fb-dominance", 3): (0.00012203606427728237, 0.0),
    ("fb-dominance", 5): (0.0006647559653705814, 0.0),
}


def test_scan_gaps_are_frozen_to_rounding():
    reports = V.scan_inequalities(samples=2000, seed=7)
    assert [(r.inequality, r.n) for r in reports] == list(FROZEN_SCAN_GAPS)
    for rep in reports:
        gap, witness = FROZEN_SCAN_GAPS[rep.inequality, rep.n]
        assert abs(rep.min_normalized_gap - gap) <= 1e-15, rep
        assert abs(rep.witness_max_abs_gap - witness) <= 1e-15, rep


# The same for scan_inequalities(samples=1024, seed=7), one batch per task, of
# the whole roster at n = 1, 2, 3, 5, 7 under two speeds.  A row's generator
# depends only on the seed, its inequality and n, so the mean's f-lemma n = 3
# row reads the same gap as its two-batch row above, whose first batch it is.
FROZEN_ONE_BATCH_GAPS = {"mean^1": {
    ("f-lemma", 1): (-1.0804962641896426e-16, 1.4210854715202004e-14),
    ("f-lemma", 2): (0.0047986877256645565, 2.842170943040401e-14),
    ("f-lemma", 3): (0.13455518816864623, 4.263256414560601e-14),
    ("f-lemma", 5): (0.6699455572090247, 8.526512829121202e-14),
    ("f-lemma", 7): (0.7955895165652405, 5.684341886080802e-14),
    ("urbas", 1): (-1.0976646492828252e-16, 2.842170943040401e-14),
    ("urbas", 2): (0.0020866047989277574, 5.684341886080802e-14),
    ("urbas", 3): (0.1922979178882703, 5.684341886080802e-14),
    ("urbas", 5): (0.5666936606000588, 5.684341886080802e-14),
    ("urbas", 7): (0.8949889026605283, 1.1368683772161603e-13),
    ("harnack-form", 1): (-1.0951594763234922e-16, 2.842170943040401e-14),
    ("harnack-form", 2): (0.009133746484525793, 5.684341886080802e-14),
    ("harnack-form", 3): (0.28306481059884914, 1.1368683772161603e-13),
    ("harnack-form", 5): (0.6211760871407461, 1.1368683772161603e-13),
    ("harnack-form", 7): (0.8649297303792192, 2.2737367544323206e-13),
    ("fb-dominance", 1): (0.0, 0.0),
    ("fb-dominance", 2): (5.6906661060898344e-05, 0.0),
    ("fb-dominance", 3): (0.00023618565111699065, 0.0),
    ("fb-dominance", 5): (0.0011530961990958537, 0.0),
    ("fb-dominance", 7): (0.0045221814529126485, 0.0),
}, "norm^0.5": {
    ("f-lemma", 1): (-1.8936315531950867e-16, 2.842170943040401e-14),
    ("f-lemma", 2): (0.004805726174851135, 4.263256414560601e-14),
    ("f-lemma", 3): (0.11983277394203318, 5.684341886080802e-14),
    ("f-lemma", 5): (0.6943903965972621, 5.684341886080802e-14),
    ("f-lemma", 7): (0.7334683214227818, 8.526512829121202e-14),
    ("harnack-form", 1): (-2.8008246004980607e-16, 3.552713678800501e-15),
    ("harnack-form", 2): (0.009563893908583206, 5.329070518200751e-15),
    ("harnack-form", 3): (0.2194105431123824, 5.329070518200751e-15),
    ("harnack-form", 5): (0.642518193259854, 5.329070518200751e-15),
    ("harnack-form", 7): (0.9416464312055107, 7.105427357601002e-15),
    ("fb-dominance", 1): (-1.1102230246251565e-16, 0.0),
    ("fb-dominance", 2): (6.47747333548665e-09, 0.0),
    ("fb-dominance", 3): (5.588282747659426e-08, 0.0),
    ("fb-dominance", 5): (9.83939121734302e-07, 0.0),
    ("fb-dominance", 7): (1.18242965636622e-05, 0.0),
}}


@pytest.mark.parametrize("name", FROZEN_ONE_BATCH_GAPS)
def test_a_one_batch_scan_is_frozen_to_rounding(name):
    speed = {"mean^1": MEAN_ONE, "norm^0.5": NORM_HALF}[name]
    roster = tuple(dict.fromkeys(iq for iq, _ in FROZEN_ONE_BATCH_GAPS[name]))
    reports = V.scan_inequalities(roster, (1, 2, 3, 5, 7), samples=1024, seed=7, speed=speed)
    assert [(r.inequality, r.n) for r in reports] == list(FROZEN_ONE_BATCH_GAPS[name])
    for rep in reports:
        gap, witness = FROZEN_ONE_BATCH_GAPS[name][rep.inequality, rep.n]
        assert abs(rep.min_normalized_gap - gap) <= 1e-15, rep
        assert abs(rep.witness_max_abs_gap - witness) <= 1e-15, rep


def test_a_scan_row_does_not_depend_on_the_rest_of_the_scan():
    """Rows used to take SeedSequence(seed)'s children by position: f-lemma at
    n = 2 read 0.001557 alone and 0.005783 after fb-dominance with the
    dimensions reversed, and 0.1505 against 0.2780 at n = 3."""
    alone = V.scan_inequalities(("f-lemma",), (2, 3), samples=500, seed=1)
    among = V.scan_inequalities(("fb-dominance", "f-lemma"), (3, 2), samples=500, seed=1)
    assert {(r.n, r.min_normalized_gap, r.witness_max_abs_gap) for r in alone} == \
        {(r.n, r.min_normalized_gap, r.witness_max_abs_gap) for r in among
         if r.inequality == "f-lemma"}


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


def test_a_nan_batch_reaches_the_scan_result_between_finite_ones(monkeypatch):
    """Python's min and max drop a NaN that is not their first argument."""
    real, sizes = V.SCAN_KERNELS["f-lemma"], []

    def nan_second_batch(f, speed, kappa):
        sizes.append(len(kappa))
        terms, scale = real(f, speed, kappa), np.nan if len(sizes) == 3 else 1.0
        return lambda eta_hat: tuple(scale * v for v in terms(eta_hat))
    monkeypatch.setitem(V.SCAN_KERNELS, "f-lemma", nan_second_batch)
    with np.errstate(invalid="ignore"):
        [rep] = V.scan_inequalities(("f-lemma",), (2,), samples=3 * V.SCAN_BATCH, seed=1,
                                    speed=MEAN_ONE)
    assert sizes == [3] + [V.SCAN_BATCH] * 3     # the κ box's corners, then three batches
    assert np.isnan(rep.min_normalized_gap) and np.isnan(rep.witness_max_abs_gap)
    assert math.copysign(1.0, V._nan_or(min, 0.0, -0.0)) == 1.0     # min's tie, kept


def test_scan_rejects_an_unknown_inequality_before_drawing_a_sample(monkeypatch):
    def no_sample(*args, **kwargs):
        raise AssertionError("a sample was drawn before the roster was checked")

    monkeypatch.setattr(V, "_scan_once", no_sample)
    with pytest.raises(ConfigError, match="bogus"):
        V.scan_inequalities(("f-lemma", "bogus"))


def test_scan_refuses_urbas_for_non_inverse_concave_f_before_scanning(monkeypatch):
    calls = []
    monkeypatch.setattr(V, "_scan_once", lambda *args: calls.append(args[0]))
    with pytest.raises(ConfigError, match=re.escape(
            "the Urbas inequality needs an inverse-concave f, got power-mean(-2)")):
        V.scan_inequalities(("f-lemma", "urbas"), speed=PMEAN_MINUS_TWO)
    assert calls == []


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True],
                         ids=["negative", "float", "str", "none", "bool"])
def test_scan_refuses_a_seed_that_is_not_a_non_negative_integer(monkeypatch, seed):
    """seed = -1 used to die inside np.random.SeedSequence with a ValueError,
    1.5 with a TypeError, and None drew an unrecorded seed from the OS."""
    calls = []
    monkeypatch.setattr(V, "_scan_once", lambda *args: calls.append(args[0]))
    with pytest.raises(ConfigError, match=re.escape(
            f"the scan seed must be a non-negative integer, got {seed!r}")):
        V.scan_inequalities(("f-lemma",), (2,), samples=10, seed=seed)
    assert calls == []


def test_a_numpy_integer_seed_scans_as_its_int():
    reps = [V.scan_inequalities(("f-lemma",), (2,), samples=10, seed=seed)[0]
            for seed in (np.int64(7), 7)]
    assert reps[0] == reps[1]


@pytest.mark.parametrize("inequalities, n_values, match", [
    (("f-lemma", "f-lemma"), (2, 2), r"tag\(s\) \['f-lemma'\] or dimension\(s\) \[2\]"),
    (("f-lemma", "urbas"), (3, 2, 3), r"tag\(s\) \[\] or dimension\(s\) \[3\]"),
], ids=["tags-and-dimensions", "dimensions"])
def test_scan_refuses_repeated_tags_or_dimensions_before_scanning(monkeypatch, inequalities,
                                                                  n_values, match):
    """f-lemma twice at n = 2, 2 used to write four f-lemma rows with four different gaps."""
    calls = []
    monkeypatch.setattr(V, "_scan_once", lambda *args: calls.append(args[0]))
    with pytest.raises(ConfigError, match="repeated inequality " + match):
        V.scan_inequalities(inequalities, n_values)
    assert calls == []


# Σκʳ overflows at the top of the κ box for |r| = 200, and harnack-form's Φ''
# evaluates s^(1/r − 2), which overflows at its bottom for |r| = 100 and 150.
OVERFLOWING_TASKS = [(r, iq) for r in (200.0, -200.0)
                     for iq in ("f-lemma", "harnack-form", "fb-dominance")] + \
                    [(r, "harnack-form") for r in (100.0, -100.0, 150.0, -150.0)]


@pytest.mark.parametrize("r, inequality", OVERFLOWING_TASKS)
def test_scan_refuses_a_task_whose_gap_overflows_at_the_box_corners(monkeypatch, r, inequality):
    """Such a scan used to write nan rows and raise RuntimeWarnings."""
    calls = []
    monkeypatch.setattr(V, "_scan_once", lambda *args: calls.append(args[0]))
    f = power_mean(r)
    with pytest.raises(ConfigError, match=rf"the {inequality} gap at n = 3 for f = "
                                          rf"{re.escape(f.name)} is not finite"):
        V.scan_inequalities((inequality,), (3,), speed=SpeedFunction(f, 1.0))
    assert calls == []


def test_a_power_mean_whose_gaps_stay_finite_on_the_box_is_scanned():
    """power-mean(100) overflows only harnack-form's Φ'' at the box corners."""
    reps = V.scan_inequalities(("f-lemma", "fb-dominance"), (2, 5), samples=2000, seed=1,
                               speed=SpeedFunction(power_mean(100.0), 1.0))
    assert all(rep.min_normalized_gap > -1e-10 for rep in reps)
    assert all(rep.witness_max_abs_gap < 1e-8 for rep in reps)


def test_scan_evaluates_the_speed_derivatives_once_per_batch(monkeypatch):
    calls = {"dvalue": 0, "d2value": 0}
    for name in calls:
        method = getattr(SpeedFunction, name)

        def counting(self, kappa, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, kappa)
        monkeypatch.setattr(SpeedFunction, name, counting)
    V.scan_inequalities(n_values=(2, 3, 5), samples=2000, seed=1)
    # urbas and harnack-form each build one spectrum per batch of each of
    # their three tasks, and one at the κ box's corners before any draw
    spectra = 2 * 3 * (math.ceil(2000 / V.SCAN_BATCH) + 1)
    assert calls == {"dvalue": spectra, "d2value": spectra}


# Traced heap bound of one n = 5 batch, MiB: the measured peak plus about 10%.
BATCH_PEAK_MIB = {"harnack-form": 1.4, "urbas": 1.2, "f-lemma": 0.75, "fb-dominance": 0.55}


@pytest.mark.parametrize("inequality", BATCH_PEAK_MIB)
def test_a_scan_batch_holds_only_a_block_of_temporaries(inequality):
    """The traced heap peak of one n = 5 batch was 14.9 MiB (harnack-form),
    6.7 (urbas), 6.1 (f-lemma) and 5.2 (fb-dominance) when a batch was 20,000
    samples, drawn before they were evaluated block by block, and 2.26, 1.76,
    1.06 and 0.63 MiB for 1,024 samples before each (1024, 5, 5) array was
    freed once read and the spectral calculus worked in place.  A small batch
    first takes the one-time costs of first use out of the measured peak."""
    V._scan_once(inequality, mean(), MEAN_ONE, np.random.default_rng(1), 8, 5)
    tracemalloc.start()
    try:
        V._scan_once(inequality, mean(), MEAN_ONE, np.random.default_rng(1), V.SCAN_BATCH, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BATCH_PEAK_MIB[inequality] * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("inequality", V.SCAN_INEQUALITIES)
def test_a_scan_batch_leaves_the_generator_where_the_whole_batch_draws_would(inequality):
    """A batch draws κ, η̂'s Gaussian and, for harnack-form, metric_pair's two
    Gaussians from rng, and nothing more, so the next batch starts where
    drawing those whole arrays in turn leaves rng."""
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    V._scan_once(inequality, mean(), MEAN_ONE, rng, 2500, 3)
    kappa, _ = _sample_kappa_eta(reference, 2500, 3)
    if inequality == "harnack-form":
        _sample_metric_pair(reference, 2500, 3, kappa)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_scan_reports_the_curvature_function_of_the_speed():
    speed = SpeedFunction(harmonic_mean(), 0.5)
    reps = V.scan_inequalities(("fb-dominance", "urbas"), n_values=(2,), samples=100,
                               seed=1, speed=speed)
    assert [r.f_name for r in reps] == [speed.f.name] * 2


def test_scan_default_roster_rejects_non_inverse_concave_f():
    with pytest.raises(ConfigError, match="Urbas inequality needs an inverse-concave f"):
        V.scan_inequalities(n_values=(2,), samples=200, seed=1, speed=PMEAN_MINUS_TWO)


@pytest.mark.parametrize("f, holds", [
    (norm(), True), (power_mean(-1.0), True), (power_mean(0.5), True), (power_mean(3.0), True),
    (replace(power_mean(-2.0), inverse_concave=True), False)],
    ids=["norm", "r=-1", "r=0.5", "r=3", "r=-2-flag-forced"])
def test_the_urbas_scan_passes_exactly_where_f_is_inverse_concave(f, holds):
    """The norm and the power means with r >= -1 used to be refused as not
    inverse-concave.  power-mean(-2), whose dual power-mean(2) is convex, is the
    negative control: scanned with its flag forced, its gap falls to about -0.2."""
    reports = V.scan_inequalities(("urbas",), (2, 3), samples=2000, seed=1,
                                  speed=SpeedFunction(f, 1.0))
    assert (min(r.min_normalized_gap for r in reports) >= V.GAP_FLOOR) is holds
    assert max(r.witness_max_abs_gap for r in reports) <= V.WITNESS_TOL


def test_scan_explicit_roster_runs_for_norm():
    reps = V.scan_inequalities(
        inequalities=("f-lemma", "harnack-form", "fb-dominance"),
        n_values=(2,), samples=500, seed=1, speed=NORM_HALF)
    assert [r.inequality for r in reps] == ["f-lemma", "harnack-form",
                                            "fb-dominance"]
    for rep in reps:
        assert rep.f_name == "norm"
        assert rep.min_normalized_gap > -1e-10


def test_sample_metric_pair_realizes_prescribed_curvatures():
    rng = np.random.default_rng(3)
    kappa = np.abs(rng.normal(size=(6, 3))) + 0.1
    g, h = V.metric_pair(kappa, rng)
    assert g.shape == h.shape == (6, 3, 3)
    for i in range(6):
        assert np.all(np.linalg.eigvalsh(g[i]) > 0.0)
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(g[i], h[i])).real)
        npt.assert_allclose(ev, np.sort(kappa[i]), rtol=1e-9)
