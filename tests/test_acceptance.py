"""Acceptance gate: one test per certification criterion, one line each.

Each test runs a full-size certification recipe (round-sphere fidelity,
identity refinement ladders, Harnack positivity, closed-form comparisons,
large randomized inequality scans, condition grids, convexity preservation
and byte-level rerun determinism) at its stated tolerance and reports a
single PASS/FAIL line through the certify fixture, which conftest replays
in the terminal summary.  Nothing here tunes tolerances to the
implementation: the numbers are the certification targets.
"""

import hashlib

import numpy as np
import pytest

from harnacklab import cli
from harnacklab import flow as fl
from harnacklab import harnack as ha
from harnacklab import verify as V
from harnacklab.geometry import AmbientSpace, cos_mode_radial, markers_from_radial
from harnacklab.symfunc import SpeedFunction, harmonic_mean, mean, norm
from oracles import sphere_state

SPHERE = AmbientSpace(c=1, dim=2)
FLAT = AmbientSpace(c=0, dim=2)


def MEAN(p):
    return SpeedFunction(mean(), p)


def NORM(p):
    return SpeedFunction(norm(), p)


def _node_radii(state):
    if state.ambient.c == 1:
        return np.arccos(np.clip(state.markers[:, 0], -1.0, 1.0))
    return np.sqrt(np.sum(state.markers ** 2, axis=1))


def _perturbed_run(speed, t_end=0.04, dt=5e-4, store_every=10, n_nodes=48):
    markers = markers_from_radial(SPHERE, cos_mode_radial(0.8, 0.05, 2), n_nodes)
    cfgf = fl.FlowConfig(ambient=SPHERE, speed=speed,
                         initial=markers,
                         t_end=t_end, dt=dt, store_every=store_every)
    return fl.run(cfgf)


def _umbilic_run(speed, t_end=0.04, dt=1e-3, store_every=5):
    cfgf = fl.FlowConfig(ambient=SPHERE, speed=speed,
                         initial=fl.GeodesicSphere(0.8),
                         t_end=t_end, dt=dt, store_every=store_every)
    return fl.run(cfgf)


@pytest.fixture(scope="module")
def weak_harnack_runs():
    """Twelve spherical runs: {mean, norm} x p in {1/2, 3/4, 1} x two shapes."""
    runs = {}
    for name, make in (("mean", MEAN), ("norm", NORM)):
        for p in (0.5, 0.75, 1.0):
            runs[(name, p, "umbilic")] = _umbilic_run(make(p))
            runs[(name, p, "perturbed")] = _perturbed_run(make(p))
    return runs


@pytest.fixture(scope="module")
def strong_harnack_runs():
    """Perturbed mean-speed runs on both sides of the correction threshold."""
    return {p: _perturbed_run(MEAN(p)) for p in (0.6, 0.9)}


def test_criterion_1_round_sphere_fidelity(certify):
    """Grid flows of geodesic spheres track the radius ODE to 1e-6."""
    worst = 0.0
    for ambient, r0 in ((SPHERE, 0.8), (FLAT, 1.0)):
        for p in (0.5, 1.0):
            speed = MEAN(p)
            sol = fl.sphere_ode_solution(ambient, speed, r0)
            cfgf = fl.FlowConfig(ambient=ambient, speed=speed,
                                 initial=markers_from_radial(ambient, r0, 256),
                                 t_end=0.8 * sol.t_extinction, store_every=200)
            traj = fl.run(cfgf)
            assert traj.termination == "completed"
            for state in traj:
                exact = sol.radius(state.t)
                rel = np.max(np.abs(_node_radii(state) - exact)) / exact
                worst = max(worst, float(rel))
    certify("round-sphere fidelity", worst <= 1e-6,
             f"max radius error {worst:.3e} over 4 runs, tol 1e-6")


def test_criterion_2_evolution_identity_ladders(certify):
    """Every evolution identity converges at order >= 1.8, finest <= 1e-4."""
    worst_order, worst_tag = np.inf, ""
    worst_pair, worst_pair_tag = np.inf, ""
    worst_res = 0.0
    for speed in (MEAN(0.5), MEAN(1.0), NORM(0.5), NORM(1.0)):
        ladders = V.residual_ladder(SPHERE, speed, levels=(64, 128, 256),
                                    dt0=2e-4, t_check=8e-3)
        for tag, rep in ladders.items():
            where = f"{tag}/{speed.f.name}^{speed.exponent}"
            if rep.order < worst_order:
                worst_order, worst_tag = rep.order, where
            if rep.finest_pair_order < worst_pair:
                worst_pair, worst_pair_tag = rep.finest_pair_order, where
            worst_res = max(worst_res, rep.finest_residual)
    ok = worst_order >= 1.8 and worst_res <= 1e-4
    certify("evolution identity ladders", ok,
             f"min order {worst_order:.2f} ({worst_tag}), "
             f"min finest-pair order {worst_pair:.2f} ({worst_pair_tag}), "
             f"max finest residual {worst_res:.3e}")


def test_criterion_3_weak_harnack_positivity(certify, weak_harnack_runs):
    """The time-weighted Harnack quantity stays positive on 12 runs."""
    floor, where = np.inf, ""
    for key, traj in weak_harnack_runs.items():
        for state in traj:
            if state.t <= 0:
                continue
            rep = ha.evaluate_monitor(state, ha.HarnackConfig("chi1"))
            if rep.min_Q < floor:
                floor, where = rep.min_Q, f"{key} t={state.t:g}"
    certify("weak Harnack positivity", floor > 0.0,
             f"min Q {floor:.6f} at {where} over 12 runs")


def test_criterion_4_strong_harnack(certify, strong_harnack_runs):
    """Sharpened mean-speed monitor: positive on both correction branches
    and equal to 4 cot^3 r + cot r / t on the shrinking round sphere."""
    floor = np.inf
    for p, traj in strong_harnack_runs.items():
        for state in traj:
            if state.t <= 0:
                continue
            rep = ha.evaluate_monitor(state, ha.HarnackConfig("strong-Hp"))
            floor = min(floor, rep.min_Q)

    sol = fl.sphere_ode_solution(SPHERE, MEAN(1.0), 0.8)
    rel = 0.0
    for t in np.linspace(0.01, 0.8 * sol.t_extinction, 33):
        cot = 1.0 / np.tan(sol.radius(t))
        exact = 4.0 * cot ** 3 + cot / t
        got = ha.evaluate_monitor(sphere_state(sol, t), ha.HarnackConfig("strong-Hp")).min_Q
        rel = max(rel, abs(got - exact) / exact)
    ok = floor > 0.0 and rel <= 1e-6
    certify("strong Harnack", ok,
             f"min Q {floor:.6f} (p = 0.6 and 0.9), closed-form error {rel:.3e}")


def test_criterion_5_euclidean_monitors(certify):
    """Flat space: contracting monitor matches 4/r^3 + 1/(rt); the expanding
    monitor decays by at least a factor 10 from t = 1 to t = 100."""
    sol = fl.sphere_ode_solution(FLAT, MEAN(1.0), 1.0)
    cfg = ha.HarnackConfig("euclidean-contracting", delta=0.5)
    rel = 0.0
    for t in np.linspace(0.01, 0.8 * sol.t_extinction, 33):
        r = sol.radius(t)
        exact = 4.0 / r ** 3 + 1.0 / (r * t)
        got = ha.evaluate_monitor(sphere_state(sol, t), cfg).min_Q
        rel = max(rel, abs(got - exact) / exact)
    spot = ha.evaluate_monitor(sphere_state(sol, 0.1), cfg).min_Q

    exp = fl.sphere_ode_solution(FLAT, MEAN(-0.5), 1.0)
    ecfg = ha.HarnackConfig("euclidean-expanding", delta=-1.0)
    q1 = ha.evaluate_monitor(sphere_state(exp, 1.0), ecfg).min_Q
    q100 = ha.evaluate_monitor(sphere_state(exp, 100.0), ecfg).min_Q

    ok = (rel <= 1e-6 and abs(spot - 21.5166) <= 5e-5
          and q100 > 0.0 and q100 <= 0.1 * q1)
    certify("euclidean monitors", ok,
             f"contracting error {rel:.3e}, Q(0.1) = {spot:.4f}, "
             f"expanding Q(100)/Q(1) = {q100 / q1:.4f}")


def test_criterion_6_inequality_scans(certify):
    """1e5-sample randomized scans of the four matrix inequalities stay above
    the -1e-10 gap floor with equality witnesses below 1e-8."""
    reports = list(V.scan_inequalities())
    reports += V.scan_inequalities(inequalities=("urbas",),
                                   speed=SpeedFunction(harmonic_mean(), 0.5))
    reports += V.scan_inequalities(
        inequalities=("f-lemma", "harnack-form", "fb-dominance"), speed=NORM(0.5))
    gap = min(rep.min_normalized_gap for rep in reports)
    wit = max(rep.witness_max_abs_gap for rep in reports)
    n_rep = len(reports)
    ok = gap >= -1e-10 and wit <= 1e-8 and n_rep == 24
    certify("inequality scans", ok,
             f"{n_rep} scans x 1e5 samples, min gap {gap:.2e}, "
             f"max witness {wit:.2e}")


def test_criterion_7_correction_condition_grid(certify):
    """Exponent sweep: all applicable correction/gradient conditions are
    nonnegative and the closure identity vanishes to 1e-10."""
    worst_val, worst_close, n_applicable = np.inf, 0.0, 0
    for p in np.linspace(0.55, 1.0, 10):
        for n in (2, 3, 5):
            out = V.zeta_conditions(float(p), n, np.logspace(-2, 2, 25))
            grad_scale = 1.0 + np.max(np.abs(out["values"]["gradient-term"]))
            for key, vals in out["values"].items():
                if key == "closure-identity":
                    worst_close = max(worst_close,
                                      np.max(np.abs(vals)) / grad_scale)
                    continue
                if not out["applicable"][key]:
                    continue
                n_applicable += 1
                scale = 1.0 + np.max(np.abs(vals))
                worst_val = min(worst_val, np.min(vals) / scale)
    ok = worst_val >= -1e-10 and worst_close <= 1e-10 and n_applicable > 50
    certify("correction condition grid", ok,
             f"{n_applicable} applicable rows, min normalized value "
             f"{worst_val:.2e}, closure residual {worst_close:.2e}")


def test_criterion_8_convexity_preserved(certify, weak_harnack_runs, strong_harnack_runs):
    """Every monitored run keeps all principal curvatures positive."""
    floor, where = np.inf, ""
    trajs = dict(weak_harnack_runs)
    trajs.update({("mean", p, "strong"): t for p, t in strong_harnack_runs.items()})
    for key, traj in trajs.items():
        min_kappa = min(float(state.kappa.min()) for state in traj)
        assert min_kappa > 0.0, key
        if min_kappa < floor:
            floor, where = min_kappa, str(key)
    certify("convexity preserved", floor > 0.0,
             f"min principal curvature {floor:.6f} at {where} over "
             f"{len(trajs)} runs")


def test_criterion_9_deterministic_reruns(certify, tmp_path):
    """Identical CLI invocations reproduce every output file byte for byte."""
    scan_cfg = tmp_path / "scan.cfg"
    scan_cfg.write_text("exponent = 1.0\nsamples = 20000\ndimensions = 2, 3\n")
    mon_cfg = tmp_path / "mon.cfg"
    mon_cfg.write_text("exponent = 0.5\namplitude = 0.05\nn_nodes = 32\n"
                       "t_end = 0.02\ndt = 1e-3\nstore_every = 5\n")
    digests = []
    for sub, cfg, out in (("scan-inequalities", scan_cfg, "scan_out"),
                          ("monitor", mon_cfg, "mon_out")):
        out_dir = tmp_path / out
        for attempt in ([], ["--force"]):
            code = cli.main([sub, "--config", str(cfg), "--out", str(out_dir),
                             *attempt])
            assert code == cli.EXIT_OK
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out_dir.iterdir())})
    # second pass from scratch in fresh directories must reproduce the bytes
    for sub, cfg, out in (("scan-inequalities", scan_cfg, "scan_out2"),
                          ("monitor", mon_cfg, "mon_out2")):
        out_dir = tmp_path / out
        assert cli.main([sub, "--config", str(cfg),
                         "--out", str(out_dir)]) == cli.EXIT_OK
    rerun_scan = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted((tmp_path / "scan_out2").iterdir())}
    rerun_mon = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted((tmp_path / "mon_out2").iterdir())}
    data_only = lambda d: {k: v for k, v in d.items() if k != "manifest.json"}
    ok = (data_only(rerun_scan) == data_only(digests[0])
          and data_only(rerun_mon) == data_only(digests[1]))
    n_files = len(data_only(digests[0])) + len(data_only(digests[1]))
    certify("deterministic reruns", ok,
             f"{n_files} data files byte-identical across forced and fresh reruns")
