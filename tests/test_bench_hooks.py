"""The benchmark's tracer (perfbench/tracing.py) wraps harnacklab's module
attributes from outside, so renaming or bypassing one of them breaks the
benchmark without failing any library test.  Run the benchmark's child once
per workload subcommand, traced, on a tiny config, and require that each
patch point still sees calls.  The scan child's counters are pinned exactly:
the tracer reads the tag and the batch size of verify._scan_once by position,
so reordering its arguments changes them.  The flow children's steps, RHS
evaluations and (for simulate) stencil calls are pinned too, so a change to
the adaptive step bound, or an RK4 stage that bypasses a patch point or adds
or drops an evaluation, shows here and not only in the benchmark's report.
The trajectory-sourced monitor's assemblies are pinned, so a trajectory
that keeps too few states to serve a centered difference, and so assembles a
state twice, shows here too."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

CASES = {
    "simulate": ({"exponent": 0.5, "n_nodes": 64, "amplitude": 0.05, "t_end": 0.1},
                 "geometry.rhs.calls"),
    "verify-evolution": ({"speed": "norm", "exponent": 0.5, "levels": "32,64",
                          "t_check": 2e-3, "identities": "sff-box,beta,grad-commutator"},
                         "verify.residual.calls"),
    "scan-inequalities": ({"exponent": 1, "dimensions": "2,3", "samples": 2500},
                          "symfunc.eigensystem.calls"),
    "monitor": ({"exponent": 0.5, "n_nodes": 64, "amplitude": 0.05, "dt": 1e-4,
                 "t_end": 5e-3, "dtf_source": "trajectory"}, "flow.time_derivative.calls"),
}

# Four inequalities x two dimensions x 2,500 samples, each task in batches of
# 1,024, 1,024 and 452, so the tracer sums the batch size it reads by position
# over several _scan_once calls; harnack-form's 2 x 2,500 eigensolves.
# The adaptive simulate run takes 24 RK4 steps to t = 0.1: 4 x 24 stage RHS,
# one for the initial markers and 25 from assembling every stored step make
# 122.  Each RHS calls the stencil pair and each assembly 5 more stencils:
# 2 x 122 + 5 x 25 = 369.  Each ladder level takes one adaptive step to
# t_check − dt and two of dt, 6 steps in all (52 from t = 0 at dt): 4 x 6
# stage RHS, one for each of the 4 runs' initial markers and 6 assemblies
# make 34 (216 from t = 0).  The trajectory-sourced monitor takes 50 fixed
# steps and assembles each of its 51 stored steps once, though ∂ₜF rereads
# every state's two neighbours, plus the sphere at the curvature cap: 52.
EXACT = {"scan-inequalities": {"verify.scan.samples": 20_000,
                               "symfunc.eigensystem.matrices": 5000},
         "simulate": {"flow.steps": 24, "geometry.rhs.calls": 122,
                      "geometry.stencil.calls": 369},
         "verify-evolution": {"flow.steps": 6, "geometry.rhs.calls": 34},
         "monitor": {"flow.steps": 50, "geometry.assemble.calls": 52}}


@pytest.mark.parametrize("sub", CASES)
def test_traced_child_reaches_its_patch_point(tmp_path, sub):
    keys, counter = CASES[sub]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--subcommand", sub, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--seed", "1", "--result", str(result),
         "--run-id", "hooks", "--trace", "--spawned", repr(time.monotonic())],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit_code"] == 0
    assert report["layers"][counter] > 0
    for key, value in EXACT.get(sub, {}).items():
        assert report["layers"][key] == value, key
