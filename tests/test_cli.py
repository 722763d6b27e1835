"""End-to-end tests of the harnack-lab command line driver.

Every run goes through cli.main with an in-memory argv, a flat key = value
config file and a tmp output directory, checking exit codes, emitted files
and the overwrite guard.  The numerical payloads are kept tiny; heavier
certification lives in test_acceptance.py.
"""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import harnacklab
from harnacklab import cli
from harnacklab import verify as _ve
from harnacklab.errors import (ConfigError, ConvexityLost, DegenerateGrid,
                               HarnackLabError, OutOfRange, StabilityViolation)
from harnacklab.flow import MAX_KAPPA_LIMIT


def write_cfg(tmp_path, name="run.cfg", **keys):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                    encoding="utf-8")
    return str(path)


def run_cli(sub, cfg_path, out_dir, *extra):
    return cli.main([sub, "--config", cfg_path, "--out", str(out_dir), *extra])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_text_basics():
    raw = cli.parse_config_text(
        "# a comment\n"
        "exponent = 1.0\n"
        "\n"
        "speed = mean  # trailing comment\n")
    assert raw == {"exponent": "1.0", "speed": "mean"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config_text("exponent = 1\nbroken line\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        cli.parse_config_text("a = 1\nb = 2\na = 3\n")
    with pytest.raises(ConfigError, match="line 1.*empty key"):
        cli.parse_config_text("= 5\n")


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=1.0, tyop=3)
    assert run_cli("sphere-exact", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "'tyop'" in capsys.readouterr().err


@pytest.mark.parametrize("sub, key, value, message", [
    ("simulate", "n_nodes", "abc", "config key 'n_nodes' expects an integer, got 'abc'"),
    ("sphere-exact", "exponent", "x", "config key 'exponent' expects a number, got 'x'"),
    ("sphere-exact", "ambient", "torus",
     "config key 'ambient' must be one of ('sphere', 'euclidean'), got 'torus'"),
], ids=["n_nodes", "exponent", "ambient"])
def test_a_value_of_the_wrong_kind_is_named_before_any_work(tmp_path, capsys, sub, key,
                                                            value, message):
    cfg = write_cfg(tmp_path, **{"exponent": 1.0, key: value})
    out = tmp_path / "out"
    assert run_cli(sub, cfg, out) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_missing_config_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", str(tmp_path / "absent.cfg"), out) == cli.EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_behind_a_byte_order_mark_reads_as_the_same_config(tmp_path):
    """A BOM used to be read into the first key, which was then refused as unknown."""
    text = b"exponent = 1\nsamples = 500\ndimensions = 2\n"
    tables = []
    for name, data in [("plain", text), ("bom", b"\xef\xbb\xbf" + text)]:
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_bytes(data)
        assert run_cli("scan-inequalities", str(cfg), out) == cli.EXIT_OK
        tables.append((out / "scans.csv").read_bytes())
    assert tables[0] == tables[1]


def test_missing_exponent_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, speed="mean")
    assert run_cli("sphere-exact", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "exponent" in capsys.readouterr().err


@pytest.mark.parametrize("sub, library, names", [
    ("verify-evolution", _ve.residual_ladder,
     {"levels": "levels", "dt0": "dt0", "t_check": "t_check", "radius": "r0",
      "amplitude": "amplitude", "mode": "mode"}),
    ("scan-inequalities", _ve.scan_inequalities,
     {"dimensions": "n_values", "samples": "samples"}),
])
def test_the_cli_defaults_are_the_librarys(sub, library, names):
    """SCHEMAS repeats these defaults as literals; each must be the one its library
    function states, so a config that leaves a key out asks what the library would."""
    params = inspect.signature(library).parameters
    for key, param in names.items():
        assert cli.SCHEMAS[sub][key][1] == params[param].default, key


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

# 2 loss of convexity, 3 numerical instability, 1 any other package error
EXIT_BY_CLASS = {ConvexityLost: 2, StabilityViolation: 3, DegenerateGrid: 3}


@pytest.mark.parametrize("error", HarnackLabError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_each_error_class_has_one_exit_code(tmp_path, monkeypatch, capsys, error):
    def failing_handler(args, cfg):
        raise error("raised by the handler")

    monkeypatch.setitem(cli.HANDLERS, "sphere-exact", failing_handler)
    cfg = write_cfg(tmp_path, exponent=1.0)
    assert run_cli("sphere-exact", cfg, tmp_path / "out") == EXIT_BY_CLASS.get(error, 1)
    assert "raised by the handler" in capsys.readouterr().err


def test_there_is_one_error_class_per_way_the_program_reacts():
    assert set(HarnackLabError.__subclasses__()) == {
        ConfigError, ConvexityLost, DegenerateGrid, StabilityViolation, OutOfRange}


@pytest.mark.parametrize("sub, keys, message", [
    ("simulate", {"exponent": -0.5}, "expanding speeds are Euclidean-only"),
    ("monitor", {"exponent": 1.0, "speed": "norm", "variant": "chi3"},
     "chi3 is specific to powers of the mean curvature, got f = norm"),
    ("monitor", {"exponent": 1.0, "variant": "euclidean-contracting"},
     "euclidean variants need ambient curvature c = 0"),
    ("scan-inequalities", {"exponent": 1.0, "speed": "power-mean(-2)", "inequalities": "urbas"},
     "the Urbas inequality needs an inverse-concave f, got power-mean(-2)"),
    ("sphere-exact", {"exponent": 1.0, "t_end": 0.5},
     "requested time beyond the extinction time 0.180695"),
    ("verify-evolution", {"exponent": 0.5, "speed": "norm", "identities": "chi3"},
     "identity 'chi3' is specific to powers of the mean curvature, got f = norm"),
    ("monitor", {"ambient": "euclidean", "exponent": 0.5, "variant": "strong-Hp"},
     "sphere variants need ambient curvature c = 1"),
    ("monitor", {"ambient": "euclidean", "exponent": 1.0, "variant": "chi1", "delta": 0.01},
     "sphere variants need ambient curvature c = 1"),
    ("simulate", {"exponent": 0.5, "dt": 0}, "dt must be positive, got 0.0"),
    ("simulate", {"exponent": 0.5, "store_every": 0}, "store_every must be >= 1"),
    ("simulate", {"exponent": 0.5, "dimension": 0},
     "hypersurface dimension must be >= 1, got 0"),
    ("simulate", {"exponent": 0.5, "amplitude": 1.5},
     "radial profile must be positive and finite"),
    ("simulate", {"exponent": 0.5, "radius": 3.2, "amplitude": 0.05},
     "spherical radial profile must stay below pi"),
    ("simulate", {"exponent": 0.5, "speed": "power-mean(x)"},
     "cannot parse power-mean exponent in 'power-mean(x)'"),
    ("simulate", {"ambient": "euclidean", "exponent": -1.5},
     "expanding speeds need exponent −β with 0 < β < 1, got -1.5"),
], ids=["expanding-on-sphere", "chi3-for-norm", "euclidean-on-sphere", "urbas-for-power-mean",
        "past-extinction", "chi3-identity-for-norm", "strong-Hp-in-the-plane",
        "chi1-in-the-plane", "zero-dt", "zero-store-every", "zero-dimension",
        "negative-profile", "profile-past-pi", "unparsed-power-mean", "expanding-too-fast"])
def test_a_request_outside_the_domain_is_refused_before_any_flow(tmp_path, monkeypatch,
                                                                 capsys, sub, keys, message):
    """A monitor variant or an identity that cannot apply used to be refused only after a
    flow ran.  A sphere variant in the plane used to run: strong-Hp at p = 0.5 reported
    "positive": true, and chi1 took a delta below the plane's window."""
    def no_flow(config):
        raise AssertionError("a flow ran before the request was refused")

    monkeypatch.setattr(cli._flow, "run", no_flow)
    out = tmp_path / "out"
    assert run_cli(sub, write_cfg(tmp_path, **keys), out) == cli.EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _door_case(tmp_path, case):
    """argv of one refused request that used to leave without main's exit table."""
    cfg, out = write_cfg(tmp_path, exponent=1.0), str(tmp_path / "out")
    if case == "file-as-out":
        Path(out).write_text("a file, not a directory\n", encoding="utf-8")
    if case == "latin-1-config":
        Path(cfg).write_bytes("exponent = 1  # café\n".encode("latin-1"))
    usage_errors = {
        "missing-out": ["sphere-exact", "--config", cfg],
        "seed-abc": ["scan-inequalities", "--config", cfg, "--out", out, "--seed", "abc"],
        "unknown-subcommand": ["nope", "--config", cfg, "--out", out]}
    return usage_errors.get(case, ["sphere-exact", "--config", cfg, "--out", out])


@pytest.mark.parametrize("case", ["missing-out", "seed-abc", "unknown-subcommand",
                                  "file-as-out", "latin-1-config"])
def test_every_refusal_leaves_by_main(tmp_path, capsys, case):
    """As the shell sees it: argparse used to exit 2, the code of convexity loss, and an
    --out that is a file or a config that is not UTF-8 used to end in a traceback."""
    argv = _door_case(tmp_path, case)
    src = str(Path(harnacklab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "harnacklab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == cli.EXIT_CONFIG
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "usage:" not in proc.stderr
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == proc.stderr


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: harnack-lab simulate")


# ---------------------------------------------------------------------------
# sphere-exact
# ---------------------------------------------------------------------------

def test_sphere_exact_happy_path(tmp_path):
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.05, n_times=5)
    out = tmp_path / "out"
    assert run_cli("sphere-exact", cfg, out) == cli.EXIT_OK

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "sphere-exact"
    assert manifest["seed"] is None

    lines = (out / "sphere.csv").read_text().splitlines()
    assert lines[0] == "t,radius,kappa,speed,Q"
    assert len(lines) == 1 + 5
    # full 17-significant-digit cells survive a float round trip
    cell = lines[-1].split(",")[1]
    assert len(cell) > 10 and float(repr(float(cell))) == float(cell)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["variant"] == "strong-Hp"
    assert 0.05 < summary["t_extinction"] < 0.25
    assert summary["final_radius"] < 0.8


@pytest.mark.parametrize("sub, keys", [
    ("sphere-exact", {"exponent": 1.0, "t_end": 0.05, "n_times": 3}),
    ("simulate", {"exponent": 1.0, "t_end": 0.01}),
])
def test_a_run_that_draws_nothing_records_no_seed(tmp_path, sub, keys):
    """These runs used to record the --seed they were given, though they draw nothing."""
    out = tmp_path / "out"
    assert run_cli(sub, write_cfg(tmp_path, **keys), out, "--seed", "5") == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] is None


@pytest.mark.parametrize("sub, keys, extra", [
    ("simulate", {"exponent": 0.5, "amplitude": 0.05, "n_nodes": 16, "t_end": 0.01,
                  "store_every": 5}, []),
    ("monitor", {"exponent": 0.5, "variant": "chi1", "dtf_source": "trajectory",
                 "amplitude": 0.05, "n_nodes": 16, "t_end": 0.004, "dt": 5e-4}, []),
    ("verify-evolution", {"exponent": 0.5, "identities": "beta, grad-commutator",
                          "levels": "24, 48", "dt0": 8e-4, "t_check": 4e-3}, []),
    ("scan-inequalities", {"exponent": 1, "dimensions": "2,3", "samples": 300},
     ["--seed", "7"]),
    ("sphere-exact", {"ambient": "euclidean", "exponent": -0.5, "t_end": 0.05,
                      "format": "json"}, []),
])
def test_the_manifest_config_reruns_the_same_request(tmp_path, sub, keys, extra):
    """The manifest used to hold only the config path and a copy of store_every."""
    first = tmp_path / "first"
    assert run_cli(sub, write_cfg(tmp_path, **keys), first, *extra) == cli.EXIT_OK
    manifest = json.loads((first / "manifest.json").read_text())
    assert "cadence" not in manifest and manifest["numpy"] == np.__version__
    recorded = manifest["resolved_config"]
    assert recorded.keys() == cli.SCHEMAS[sub].keys()
    lines = {k: ",".join(map(str, v)) if isinstance(v, list) else v
             for k, v in recorded.items() if v is not None}
    again = tmp_path / "again"
    seed = [] if manifest["seed"] is None else ["--seed", str(manifest["seed"])]
    assert run_cli(sub, write_cfg(tmp_path, "again.cfg", **lines), again, *seed) == cli.EXIT_OK
    data = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert len(data) >= 2 and data == sorted(p.name for p in again.iterdir()
                                             if p.name != "manifest.json")
    for name in data:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("ambient, speed, exponent, variant", [
    ("sphere", "mean", 1.0, "strong-Hp"), ("sphere", "norm", 1.0, "chi2"),
    ("sphere", "mean", 1.5, "chi2"), ("euclidean", "mean", 1.0, "euclidean-contracting"),
    ("euclidean", "mean", -0.5, "euclidean-expanding")])
def test_sphere_exact_reports_strong_Hp_where_the_table_admits_it(tmp_path, ambient, speed,
                                                                   exponent, variant):
    cfg = write_cfg(tmp_path, ambient=ambient, speed=speed, exponent=exponent, t_end=0.01,
                    n_times=3)
    out = tmp_path / "out"
    assert run_cli("sphere-exact", cfg, out) == cli.EXIT_OK
    assert json.loads((out / "summary.json").read_text())["variant"] == variant


def test_sphere_exact_past_extinction_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.5)
    assert run_cli("sphere-exact", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "extinction" in capsys.readouterr().err


@pytest.mark.parametrize("ambient, exponent", [("sphere", 0.6), ("euclidean", -0.5)])
def test_sphere_exact_non_finite_end_time_is_a_domain_error(tmp_path, capsys,
                                                            ambient, exponent):
    """t_end = nan used to exit 3 on the sphere (Newton did not settle) and
    blame a nan radius on the Euclidean ambient."""
    cfg = write_cfg(tmp_path, ambient=ambient, exponent=exponent, t_end="nan")
    assert run_cli("sphere-exact", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "negative or non-finite times are outside" in capsys.readouterr().err


def test_overwrite_guard_and_forced_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.05, n_times=9)
    out = tmp_path / "out"
    assert run_cli("sphere-exact", cfg, out) == cli.EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}

    assert run_cli("sphere-exact", cfg, out) == cli.EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err
    assert run_cli("sphere-exact", cfg, out, "--force") == cli.EXIT_OK
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_json_table_format(tmp_path):
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.05, n_times=3,
                    format="json")
    out = tmp_path / "out"
    assert run_cli("sphere-exact", cfg, out) == cli.EXIT_OK
    doc = json.loads((out / "sphere.json").read_text())
    assert doc["columns"] == ["t", "radius", "kappa", "speed", "Q"]
    assert len(doc["rows"]) == 3
    assert doc["rows"][0][-1] is None      # Q undefined at t = 0


# ---------------------------------------------------------------------------
# simulate / monitor
# ---------------------------------------------------------------------------

def test_simulate_refuses_a_cap_whose_sphere_cannot_be_represented(tmp_path, capsys):
    """max_kappa = 1e200 used to exit 0 with a NaN Harnack floor in the stop row and
    four RuntimeWarnings: the cap sphere's metric a² underflowed in the assembly."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0, t_end=0.4, max_kappa=1e200)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("simulate", cfg, out) == cli.EXIT_CONFIG
    assert "max_kappa must lie in (0, 6.7039e+153]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radius", [1e-200, 5e-324])
@pytest.mark.parametrize("ambient", ["sphere", "euclidean"])
@pytest.mark.parametrize("sub", ["simulate", "sphere-exact"])
def test_a_grid_free_radius_curved_beyond_the_largest_cap_is_refused(tmp_path, capsys, sub,
                                                                    ambient, radius):
    """radius = 1e-200 used to print numpy RuntimeWarnings from the assembly (a² underflows,
    so g⁻¹ = inf and h² = NaN) and exit 0 after a t = 0 cap stop; sphere-exact exited 1,
    blaming "the extinction time -0".  A subnormal radius has κ = inf."""
    keys = dict(ambient=ambient, exponent=1, radius=radius)
    cfg = write_cfg(tmp_path, **keys, **({"amplitude": 0} if sub == "simulate" else {}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(sub, cfg, out) == cli.EXIT_CONFIG
    assert not caught
    assert capsys.readouterr().err == (f"error: a geodesic radius of {radius:g} has curvature "
                                       f"above the largest cap 6.7039e+153\n")
    assert not out.exists()


@pytest.mark.parametrize("sub, speed, exponent, max_kappa", [
    ("simulate", "mean", 3.0, 1e100), ("simulate", "mean", 1.0, MAX_KAPPA_LIMIT),
    ("monitor", "mean", 3.0, 1e100), ("simulate", "power-mean(100)", 0.5, 1e4)],
    ids=["simulate-p3", "simulate-p1-at-the-limit", "monitor-p3", "simulate-power-mean-100"])
def test_a_cap_at_which_the_monitor_overflows_is_refused(tmp_path, monkeypatch, capsys, sub,
                                                          speed, exponent, max_kappa):
    """F = H^3 capped at 1e100 used to exit 0 with min_Q = nan in the stop row and three
    RuntimeWarnings (F·tr Ḟ overflows); F = H capped at the limit wrote min_Q = inf.  The
    power mean of order 100 overflows F itself at the default cap 1e4: that used to print
    numpy overflow warnings and then blame a delta the config never set."""
    def no_flow(config):
        raise AssertionError("a flow ran before the cap was refused")

    monkeypatch.setattr(cli._flow, "run", no_flow)
    cfg = write_cfg(tmp_path, speed=speed, exponent=exponent, amplitude=0, t_end=0.4,
                    max_kappa=max_kappa)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(sub, cfg, out) == cli.EXIT_CONFIG
    assert (f"max_kappa = {max_kappa:g} makes the chi2 monitor overflow on the sphere "
            f"at the cap") in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_the_safety_key(tmp_path, capsys):
    """The step safety factor is a fixed fraction of RK4's stability limit, not a key."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.05, safety=0.5)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_CONFIG
    assert "unknown config key(s) 'safety'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_round_sphere(tmp_path):
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.02, dt=2e-3)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_OK
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0].startswith("t,min_kappa,max_kappa,min_Q")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "completed"


def test_simulate_euclidean_expanding_has_no_extinction_window(tmp_path):
    cfg = write_cfg(tmp_path, ambient="euclidean", exponent=-0.5, amplitude=0.05,
                    n_nodes=32, t_end=0.05)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variant"] == "euclidean-expanding"
    assert '"extinction_window": null' in (out / "summary.json").read_text()
    assert summary["termination"] == "completed"


def test_simulate_grid_free_run_stores_at_the_cadence(tmp_path):
    """The grid-free tier used to ignore store_every and write all 11 dt steps."""
    cfg = write_cfg(tmp_path, exponent=1.0, t_end=0.01, dt=1e-3, store_every=5)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_OK
    rows = (out / "simulate.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.005, 0.01]


def test_simulate_grid_free_past_extinction_stops_at_the_cap(tmp_path):
    """t_end = 0.4 lies past the extinction at t = 0.1807; the grid-free run
    used to exit 1 as a configuration error, the gridded one stops at the cap."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0, t_end=0.4)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "curvature-cap"
    assert summary["t_final"] < 0.1807


@pytest.mark.parametrize("ambient, min_radius", [("sphere", 0.7), ("euclidean", 0.8)])
def test_simulate_radius_floor_stops_below_the_floor(tmp_path, ambient, min_radius):
    """The floor and the extent columns measure from the same center."""
    cfg = write_cfg(tmp_path, ambient=ambient, exponent=1.0, amplitude=0.05, n_nodes=16,
                    t_end=0.3, min_radius=min_radius)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_OK
    assert json.loads((out / "summary.json").read_text())["termination"] == "radius-floor"
    rows = [row.split(",") for row in (out / "simulate.csv").read_text().splitlines()]
    extent_min = [float(row[rows[0].index("extent_min")]) for row in rows[1:]]
    assert extent_min[-1] < min_radius <= min(extent_min[:-1])


def test_simulate_nonconvex_start_exits_convexity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.3, mode=4,
                    n_nodes=32, t_end=0.01)
    assert run_cli("simulate", cfg, tmp_path / "out") == cli.EXIT_CONVEXITY
    assert "convex" in capsys.readouterr().err.lower()


def test_a_nonconvex_start_is_not_reported_as_a_loss(tmp_path, capsys):
    """The start never was convex; the message used to say it "stopped being" convex."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.3, mode=4, n_nodes=32, t_end=0.01)
    assert run_cli("simulate", cfg, tmp_path / "out") == cli.EXIT_CONVEXITY
    assert capsys.readouterr().err == (
        "error: surface is not strictly convex (min kappa = -5.08323)\n")


@pytest.mark.parametrize("sub, keys, message", [
    ("simulate", dict(exponent=1.0, amplitude=0.05, n_nodes=32, dt=1e-9, t_end=0.01),
     "a fixed dt = 1e-09 needs 1e+07 steps to reach t = 0.01, more than the step budget "
     "of 2000000"),
], ids=["simulate"])
def test_a_fixed_dt_beyond_the_step_budget_is_refused_before_any_step(tmp_path, monkeypatch,
                                                                      capsys, sub, keys,
                                                                      message):
    """dt = 1e-9 to t = 0.01 used to step for minutes and then exit 3."""
    def no_step(*args):
        raise AssertionError("a step ran before the request was refused")

    monkeypatch.setattr(cli._flow, "_rk4", no_step)
    out = tmp_path / "out"
    assert run_cli(sub, write_cfg(tmp_path, **keys), out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_ladder_level_that_stops_short_of_t_check_is_refused_with_its_termination(
        tmp_path, capsys):
    """A level reaches t_check − dt at the adaptive step, so t_check = 1e300 takes no
    fixed steps; it used to be refused for needing 5e303 steps of dt = 2e-4.  The
    N = 16 flow loses convexity near extinction, and no file is written."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, exponent=0.5, identities="beta", levels="16, 32", t_check=1e300)
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: the N = 16 ladder flow stopped with 'convexity-lost' at t = 0.343899, "
        "short of t = 1e+300\n")
    assert not out.exists()


def test_a_ladder_level_that_fails_in_its_tail_names_its_level_and_ladder_time(tmp_path,
                                                                               capsys):
    """N = 16 reaches t = 0.1 at the adaptive step, and its first tail step of
    dt = 0.05 leaves the cone.  The tail used to raise that mid-run, naming only
    t = 0.05 on its own clock, and exit 3; the tail now ends as 'unstable' and the
    level reports it as a prefix that stops does, with no file written."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, exponent=1.0, identities="beta", levels="16, 32", dt0=0.05,
                    t_check=0.1)
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: the N = 16 ladder flow stopped with 'unstable' at t = 0.1, short of "
        "t = 0.15\n")
    assert not out.exists()


def test_a_t_check_short_of_one_tiny_step_is_refused_before_any_output(tmp_path, capsys):
    """flow.STATE_RTOL·max(1, |t|) is 1e-9 below t = 1, more than half of dt0 = 1e-9, so
    t_check = 6e-10 used to count as one step: the run exited 0 and labelled as
    t = 6e-10 the N = 16 residuals it measured at t = 1e-9."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speed="norm", exponent=0.5, identities="beta", levels="16, 32",
                    dt0=1e-9, t_check=6e-10)
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: t_check = 6e-10 is 0.6 steps of dt = 1e-09 at N = 16; it must be at least "
        "one step of the coarsest level\n")
    assert not out.exists()


def test_a_grid_free_fixed_dt_beyond_the_step_budget_is_refused_before_any_output(
        tmp_path, monkeypatch, capsys):
    """amplitude = 0 runs on the grid-free tier, which takes no steps but stores
    every multiple of dt: dt = 1e-9 to t = 0.01 used to ask for 1e7 rows."""
    def no_run(*args):
        raise AssertionError("the grid-free run started before the request was refused")

    monkeypatch.setattr(cli._flow, "_run_umbilic", no_run)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.0, dt=1e-9, t_end=0.01)
    assert run_cli("simulate", cfg, out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: a fixed dt = 1e-09 needs 1e+07 steps to reach t = 0.01, more than the "
        "step budget of 2000000\n")
    assert not out.exists()


def _written_simulate(out):
    """summary.json and the data rows of a simulate run's outputs, all files present."""
    assert sorted(os.listdir(out)) == ["manifest.json", "simulate.csv", "summary.json"]
    rows = (out / "simulate.csv").read_text().splitlines()[1:]
    return json.loads((out / "summary.json").read_text()), [row.split(",") for row in rows]


def test_an_adaptive_run_that_exhausts_the_step_budget_exits_instability(tmp_path,
                                                                         monkeypatch, capsys):
    """The adaptive run takes 6 steps to t_end; no test used to reach the budget.
    The run writes its five steps, then exits with the budget's message."""
    monkeypatch.setattr(cli._flow, "MAX_STEPS", 5)
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.05, n_nodes=64, t_end=0.01)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_INSTABILITY
    assert capsys.readouterr().err == "error: step budget of 5 exhausted\n"
    summary, rows = _written_simulate(out)
    assert summary["termination"] == "unstable" and len(rows) == 6
    assert 0.0 < summary["t_final"] == float(rows[-1][0]) < 0.01


def test_simulate_fixed_dt_blow_up_exits_instability(tmp_path, capsys):
    """dt = 1e-2 is far beyond RK4's limit at N = 64: a blow-up, not convexity loss.
    The three steps before it are written; nothing used to be."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.05, n_nodes=64,
                    dt=1e-2, t_end=0.05)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_INSTABILITY
    assert capsys.readouterr().err == (
        "error: a step of dt = 0.01 from t = 0.03 left the convex cone; the fixed dt is "
        "too large\n")
    summary, rows = _written_simulate(out)
    assert summary["termination"] == "unstable" and summary["t_final"] == 0.03
    assert [float(row[0]) for row in rows] == pytest.approx([0.0, 0.01, 0.02, 0.03],
                                                            rel=0, abs=1e-15)


def test_a_run_that_loses_convexity_mid_run_writes_outputs_then_exits_convexity(tmp_path,
                                                                                 capsys):
    """Near extinction the adaptive step and its half-size retry both leave the cone;
    the run keeps its steps up to t = 0.3439 and prints why it stopped, naming t and
    both step sizes (it used to exit 2 silently, then to print only min kappa, as a
    non-convex start does)."""
    cfg = write_cfg(tmp_path, exponent=0.5, amplitude=0.05, n_nodes=16, t_end=0.4)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_CONVEXITY
    assert capsys.readouterr().err == (
        "error: a step of dt = 0.000153585 from t = 0.343899 and its retry at dt = "
        "7.67924e-05 left the convex cone: surface is not strictly convex "
        "(min kappa = -2.73086)\n")
    summary, rows = _written_simulate(out)
    assert summary["termination"] == "convexity-lost"
    assert summary["t_final"] == pytest.approx(0.343899, rel=1e-5) == float(rows[-1][0])


def test_simulate_grid_degenerate_writes_outputs_then_exits_instability(tmp_path, capsys):
    """A grid that degenerates mid-run keeps its last good step in the tables, and
    prints its message (it used to exit 3 silently).  The ratio is printed in full,
    since .3g rounded it onto the limit: "ratio 10 exceeds 10"."""
    cfg = write_cfg(tmp_path, exponent=0.3, amplitude=0.1, n_nodes=32, t_end=0.6,
                    store_every=1000000)
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == cli.EXIT_INSTABILITY
    assert capsys.readouterr().err == (
        "error: marker spacing ratio 10.036789154499473 exceeds 10\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "grid-degenerate"
    assert 0.0 < summary["t_final"] < 0.6
    rows = (out / "simulate.csv").read_text().splitlines()
    assert len(rows) == 3        # header, t = 0 and the last good step
    assert float(rows[-1].split(",")[0]) == pytest.approx(summary["t_final"], rel=1e-12)


def test_monitor_positive_floor(tmp_path):
    cfg = write_cfg(tmp_path, exponent=0.5, amplitude=0.05, mode=2,
                    n_nodes=32, t_end=0.02, dt=1e-3, store_every=5)
    out = tmp_path / "out"
    assert run_cli("monitor", cfg, out) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["positive"] is True
    assert summary["min_Q"] > 0.0
    assert summary["first_nonpositive_t"] is None
    lines = (out / "monitor.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["t", "min_Q", "argmin"]
    assert len(lines) > 1


@pytest.mark.parametrize("dt, t_end, n_rows", [(1e-2, 0.05, 3), (0.1, 0.2, None)],
                         ids=["mid-run", "first-step"])
def test_monitor_of_a_run_that_fails_exits_with_the_failure(tmp_path, capsys, dt, t_end,
                                                            n_rows):
    """A fixed-dt blow-up writes the rows of its completed steps, then exits 3 with its
    message; one that fails at its first step has no rows, and exits with the failure
    rather than as a monitor that produced no rows."""
    cfg = write_cfg(tmp_path, exponent=1.0, amplitude=0.05, n_nodes=64, dt=dt, t_end=t_end)
    out = tmp_path / "out"
    assert run_cli("monitor", cfg, out) == cli.EXIT_INSTABILITY
    assert "left the convex cone; the fixed dt is too large" in capsys.readouterr().err
    if n_rows is None:
        assert not out.exists()
    else:
        assert json.loads((out / "summary.json").read_text())["termination"] == "unstable"
        assert len((out / "monitor.csv").read_text().splitlines()) == 1 + n_rows


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_monitor_refuses_a_non_finite_delta(tmp_path, capsys, delta):
    """A non-finite delta used to exit 0 with a NaN or Infinity min_Q in summary.json."""
    cfg = write_cfg(tmp_path, exponent=0.5, delta=delta, t_end=0.004, dt=1e-3)
    out = tmp_path / "out"
    assert run_cli("monitor", cfg, out) == cli.EXIT_CONFIG
    assert f"delta must be a finite number, got {delta}" in capsys.readouterr().err
    assert not out.exists()


def test_monitor_refuses_a_delta_that_overflows(tmp_path, capsys):
    """delta = 1e308 used to exit 0 with "min_Q": Infinity, which is not JSON."""
    cfg = write_cfg(tmp_path, exponent=0.5, delta=1e308, t_end=0.004, dt=1e-3)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("monitor", cfg, out) == cli.EXIT_CONFIG
    assert "delta = 1e+308 makes the term delta*F/t overflow" in capsys.readouterr().err
    assert not out.exists()


def test_monitor_trajectory_source_on_the_grid_free_tier(tmp_path):
    """t_end = 10.5 steps used to store linspace times off the dt grid and
    leave the centered differences nothing to pair."""
    cfg = write_cfg(tmp_path, exponent=0.5, dtf_source="trajectory", dt=1e-3,
                    t_end=0.0105)
    out = tmp_path / "out"
    assert run_cli("monitor", cfg, out) == cli.EXIT_OK
    rows = (out / "monitor.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx(
        [k * 1e-3 for k in range(1, 10)], rel=1e-12)


@pytest.mark.parametrize("dt", [5e-4, 5e-10])
def test_monitor_trajectory_source_writes_only_centered_rows(tmp_path, dt):
    """At dt = 5e-10, below the state lookup's tolerance, the last state used to
    find itself as its t + dt neighbour, and its backward difference was
    written as a tenth, centered row."""
    cfg = write_cfg(tmp_path, exponent=0.5, variant="chi1", dtf_source="trajectory",
                    amplitude=0.05, n_nodes=16, store_every=1, dt=dt, t_end=10 * dt)
    out = tmp_path / "out"
    assert run_cli("monitor", cfg, out) == cli.EXIT_OK
    rows = (out / "monitor.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx(
        [k * dt for k in range(1, 10)], rel=1e-9)


def test_monitor_trajectory_source_needs_dense_storage(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=0.5, dtf_source="trajectory",
                    t_end=0.02)     # no dt given
    assert run_cli("monitor", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "store_every" in capsys.readouterr().err


# sha256 prefixes of the data tables that ∂ₜF and δ = p/(p+1) feed, recorded
# on x86-64 with numpy 2.4: any change to their arithmetic moves a digest.
PINNED_TABLES = {   # case: (subcommand, config keys, {table: sha256 prefix})
    "monitor-chi1-trajectory": (
        "monitor",
        dict(exponent=0.5, variant="chi1", dtf_source="trajectory", amplitude=0.05,
             n_nodes=16, t_end=0.004, dt=5e-4, store_every=1),
        {"monitor": "2e88a2a0f67b7399"}),
    "monitor-chi3": (
        "monitor",
        dict(exponent=0.8, variant="chi3", amplitude=0.05, n_nodes=16, t_end=0.004,
             dt=5e-4, store_every=2),
        {"monitor": "0826683b1d09eb51"}),
    "monitor-strong-Hp-sphere": (
        "monitor", dict(exponent=0.6, variant="strong-Hp", t_end=0.02, dt=2e-3, store_every=2),
        {"monitor": "58083f650bfae5c5"}),
    "sphere-exact-spherical": (
        "sphere-exact", dict(exponent=0.6, t_end=0.05, n_times=9),
        {"sphere": "597bc4ada655a041"}),
    "sphere-exact-euclidean": (
        "sphere-exact", dict(ambient="euclidean", exponent=-0.5, t_end=0.05, n_times=9),
        {"sphere": "014ec2b3486fcd34"}),
    "simulate": (
        "simulate", dict(exponent=0.5, amplitude=0.05, n_nodes=16, t_end=0.01, store_every=5),
        {"simulate": "6b343931613c2147"}),
    "simulate-euclidean": (
        "simulate",
        dict(ambient="euclidean", speed="power-mean(3)", exponent=1.0, radius="auto",
             amplitude=0.05, n_nodes=16, t_end=0.01, store_every=5),
        {"simulate": "92381ee96d58e034"}),
    # a fixed dt whose last step is partial: 10 steps of dt, then 5e-4 onto t_end
    "simulate-fixed-dt-partial-last-step": (
        "simulate", dict(exponent=0.5, amplitude=0.05, n_nodes=16, dt=1e-3, t_end=0.0105),
        {"simulate": "1f606dc6883e4364"}),
    # a fixed dt of whole steps, stored every third step and at the last
    "simulate-fixed-dt-store-every-3": (
        "simulate",
        dict(exponent=0.5, amplitude=0.05, n_nodes=16, dt=1e-3, t_end=0.01, store_every=3),
        {"simulate": "3a447fd25eb28ce5"}),
    # the benchmark's ladder at the centre of its amplitude band
    "verify-evolution": (
        "verify-evolution",
        dict(ambient="sphere", dimension=2, speed="norm", exponent=0.5, amplitude=0.05,
             t_check=2e-3, levels="64,128,256"),
        {"residuals": "43442db7265e9652", "orders": "38b64b5cd7f6084e"}),
    # the benchmark's scan, ten batches per task
    "scan-inequalities": (
        "scan-inequalities", dict(speed="mean", exponent=1, dimensions="2,3,5", samples=10000),
        {"scans": "b76708b5ebe9f1b9"}),
    # two full batches per task, through every power-mean Hessian and speed Φ''
    # branch the spectrum evaluates: the norm (r = 2), a general power mean and
    # the harmonic mean, n² times r = −1 (the mean's r = 1 is the benchmark's
    # scan above); a row depends only on the seed, its inequality, n and the
    # sample count, so the norm and the power mean leave out urbas only to
    # keep these scans small
    "scan-inequalities-norm": (
        "scan-inequalities", dict(speed="norm", exponent=0.5, dimensions="2,3,5", samples=2048,
                                  inequalities="f-lemma, harnack-form, fb-dominance"),
        {"scans": "592c63517063917a"}),
    "scan-inequalities-power-mean": (
        "scan-inequalities",
        dict(speed="power-mean(3)", exponent=0.3, dimensions="2,3,5", samples=2048,
             inequalities="f-lemma, harnack-form, fb-dominance"),
        {"scans": "d29f77735e9e7cfb"}),
    "scan-inequalities-harmonic-mean": (
        "scan-inequalities",
        dict(speed="harmonic-mean", exponent=1, dimensions="2,3,5", samples=2048),
        {"scans": "de910a851ab650f3"}),
}


@pytest.mark.parametrize("case", PINNED_TABLES)
def test_data_table_is_pinned_byte_for_byte(tmp_path, case):
    sub, keys, digests = PINNED_TABLES[case]
    out = tmp_path / "out"
    assert run_cli(sub, write_cfg(tmp_path, **keys), out) == cli.EXIT_OK
    for table, digest in digests.items():
        data = (out / f"{table}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest, table


# ---------------------------------------------------------------------------
# verify-evolution
# ---------------------------------------------------------------------------

def test_verify_evolution_small_ladder_passes(tmp_path):
    cfg = write_cfg(tmp_path, exponent=0.5,
                    identities="beta, grad-commutator",
                    levels="24, 48", dt0=8e-4, t_check=4e-3)
    out = tmp_path / "out"
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_OK
    orders = (out / "orders.csv").read_text().splitlines()
    assert orders[0] == "identity,order,finest_pair_order,finest_residual,passed"
    assert [row.split(",")[0] for row in orders[1:]] == ["beta", "grad-commutator"]
    assert all(row.endswith(",1") for row in orders[1:])
    residuals = (out / "residuals.csv").read_text().splitlines()
    assert len(residuals) == 1 + 2 * 2   # two identities x two levels
    assert json.loads((out / "summary.json").read_text())["all_passed"] is True


def test_verify_evolution_runs_a_t_check_off_the_step_grid(tmp_path):
    """t_check = 4e-3 is 35.56 steps of dt = 1.125e-4 at N = 64, which used to be refused;
    each level now reaches t_check − dt at the adaptive step."""
    cfg = write_cfg(tmp_path, exponent=0.5, identities="beta",
                    levels="24, 48, 64", dt0=8e-4, t_check=4e-3)
    out = tmp_path / "out"
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_OK
    rows = [row.split(",") for row in (out / "residuals.csv").read_text().splitlines()[1:]]
    assert [(row[1], float(row[3])) for row in rows] == [("24", 4e-3), ("48", 4e-3),
                                                          ("64", 4e-3)]
    np.testing.assert_allclose([float(row[4]) for row in rows], [5.592e-4, 1.686e-5, 3.712e-6],
                               rtol=5e-3)


def test_verify_evolution_threshold_failure_exits_4(tmp_path, monkeypatch):
    """Negative control of the fixed ladder gates: R_β scaled by 0.999 drops beta's
    fitted order on this ladder from 5.05 to 0.98 and lifts its finest residual from
    1.7e-5 to 3.9e-4, so the row fails both gates."""
    real = _ve._remainder_beta
    monkeypatch.setattr(_ve, "_remainder_beta", lambda s: 0.999 * real(s))
    cfg = write_cfg(tmp_path, exponent=0.5, identities="beta",
                    levels="24, 48", dt0=8e-4, t_check=4e-3)
    out = tmp_path / "out"
    assert run_cli("verify-evolution", cfg, out) == cli.EXIT_THRESHOLD
    [row] = [r.split(",") for r in (out / "orders.csv").read_text().splitlines()[1:]]
    assert row[0] == "beta" and row[-1] == "0"
    assert float(row[1]) == pytest.approx(0.98, abs=0.01)
    assert float(row[3]) == pytest.approx(3.9e-4, rel=0.01)
    assert json.loads((out / "summary.json").read_text())["all_passed"] is False


@pytest.mark.parametrize("sub, keys, recorded", [
    ("verify-evolution", dict(exponent=0.5, identities="beta", levels="24, 48", dt0=8e-4,
                              t_check=4e-3), ['"max_residual": 0.0001', '"min_order": 1.8']),
    ("scan-inequalities", dict(exponent=1, dimensions=2, samples=100),
     ['"gap_floor": -1e-10', '"witness_tol": 1e-08']),
], ids=["verify-evolution", "scan-inequalities"])
def test_the_fixed_gates_are_recorded_in_the_summary_and_not_requested(tmp_path, capsys,
                                                                        sub, keys, recorded):
    """The gates used to be config keys, so "all_passed" could mean a different bar in
    each run; summary.json records the fixed ones, with the same keys and bytes."""
    out = tmp_path / "out"
    assert run_cli(sub, write_cfg(tmp_path, **keys), out) == cli.EXIT_OK
    summary = (out / "summary.json").read_text()
    assert all(item in summary for item in recorded)
    gates = {item.split('"')[1] for item in recorded}
    assert not gates & json.loads((out / "manifest.json").read_text())["resolved_config"].keys()
    assert not gates & cli.SCHEMAS[sub].keys()
    again = write_cfg(tmp_path, "again.cfg", **keys, **{gate: 0 for gate in gates})
    assert run_cli(sub, again, tmp_path / "again") == cli.EXIT_CONFIG
    assert "unknown config key(s)" in capsys.readouterr().err


def test_verify_evolution_needs_two_levels(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=0.5, levels="64")
    assert run_cli("verify-evolution", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "two grid levels" in capsys.readouterr().err


@pytest.mark.parametrize("keys, match", [
    ({"dt0": 0}, "dt0 = 0 and"),
    ({"t_check": "inf"}, "t_check = inf"),
    ({"levels": "18, 9"}, "even node count >= 8, to fit an order, got (18, 9)"),
    ({"levels": "48, 24"}, "strictly increasing, each an even node count >= 8, to fit an "
                           "order, got (48, 24)"),
], ids=["dt0-zero", "t_check-inf", "odd-level", "descending"])
def test_verify_evolution_bad_step_inputs_are_config_errors(tmp_path, capsys, keys, match):
    cfg = write_cfg(tmp_path, **{"exponent": 0.5, "identities": "beta",
                                 "levels": "24, 48", **keys})
    assert run_cli("verify-evolution", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert match in capsys.readouterr().err


def test_verify_evolution_rejects_unknown_identity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, exponent=0.5, identities="beta, nope",
                    levels="24, 48")
    assert run_cli("verify-evolution", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan-inequalities
# ---------------------------------------------------------------------------

def test_scan_excludes_urbas_for_non_inverse_concave_f(tmp_path):
    """power-mean(-2) is not inverse-concave (its dual, power-mean(2), is convex).  Nor
    is it convex, and its harnack-form row fails at n = 2, so the scan exits 4."""
    cfg = write_cfg(tmp_path, exponent=0.5, speed="power-mean(-2)",
                    samples=2000, dimensions=2)
    out = tmp_path / "out"
    assert run_cli("scan-inequalities", cfg, out) == cli.EXIT_THRESHOLD
    rows = [row.split(",") for row in (out / "scans.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [
        ("f-lemma", "1"), ("harnack-form", "0"), ("fb-dominance", "1")]


@pytest.mark.parametrize("key, value", [("dimension", 3), ("ambient", "euclidean")])
def test_scan_rejects_flow_keys(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, exponent=1.0, samples=2000, **{key: value})
    assert run_cli("scan-inequalities", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert f"unknown config key(s) '{key}'" in capsys.readouterr().err


def test_scan_full_roster_with_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, exponent=1.0, samples=2000, dimensions="2, 3")
    out = tmp_path / "out"
    assert run_cli("scan-inequalities", cfg, out, "--seed", "99") == cli.EXIT_OK
    rows = [r.split(",") for r in (out / "scans.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4 * 2
    assert all(r[4] == "99" and r[-1] == "1" for r in rows)
    assert json.loads((out / "manifest.json").read_text())["seed"] == 99
    assert json.loads((out / "summary.json").read_text())["all_passed"] is True


def test_a_scan_whose_gaps_are_nan_fails_every_row(tmp_path, monkeypatch):
    """Gaps that are NaN on the samples, though finite at the κ box's corners,
    fail their rows.  The scan used to drop the NaN gaps and pass every row."""
    real = _ve.SCAN_KERNELS["f-lemma"]

    def nan_on_samples(f, speed, kappa):
        # n = 2: the corner check passes 3 rows, the two batches 1,024 and 976
        terms, scale = real(f, speed, kappa), 1.0 if len(kappa) == 3 else np.nan
        return lambda eta_hat: tuple(scale * v for v in terms(eta_hat))
    monkeypatch.setitem(_ve.SCAN_KERNELS, "f-lemma", nan_on_samples)
    cfg = write_cfg(tmp_path, exponent=1, inequalities="f-lemma", samples=2000,
                    dimensions=2)
    out = tmp_path / "out"
    assert run_cli("scan-inequalities", cfg, out) == cli.EXIT_THRESHOLD
    rows = [r.split(",") for r in (out / "scans.csv").read_text().splitlines()[1:]]
    assert len(rows) == 1 and all(r[5] == "nan" and r[-1] == "0" for r in rows)
    assert json.loads((out / "summary.json").read_text())["all_passed"] is False


@pytest.mark.parametrize("keys, message", [
    ({"speed": "power-mean(200)", "exponent": 1},
     "error: the f-lemma gap at n = 2 for f = power-mean(200) is not finite at the "
     "corners of the sampled box (0.01, 100.0)^n"),
    ({"inequalities": "f-lemma, f-lemma", "dimensions": "2, 2", "exponent": 1},
     "error: repeated inequality tag(s) ['f-lemma'] or dimension(s) [2]"),
], ids=["overflow", "repeats"])
def test_a_scan_that_cannot_certify_is_refused_before_any_draw(tmp_path, capsys,
                                                                keys, message):
    """power-mean(200) used to write nan rows after 18 RuntimeWarnings, and a
    repeated tag at repeated dimensions four rows with four different gaps."""
    cfg = write_cfg(tmp_path, **{"samples": 2000, "dimensions": 2, **keys})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("scan-inequalities", cfg, out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == message
    assert not out.exists() or not any(out.iterdir())


def test_a_negative_scan_seed_is_refused_before_any_output(tmp_path, capsys):
    """--seed -1 used to end in a ValueError traceback from np.random.SeedSequence."""
    cfg = write_cfg(tmp_path, exponent=1, samples=100, dimensions=2)
    out = tmp_path / "out"
    assert run_cli("scan-inequalities", cfg, out, "--seed", "-1") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: the scan seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["simulate", "scan-inequalities"])
def test_a_non_finite_power_mean_exponent_is_refused(tmp_path, capsys, sub):
    cfg = write_cfg(tmp_path, speed="power-mean(nan)", exponent=1)
    assert run_cli(sub, cfg, tmp_path / "out") == cli.EXIT_CONFIG
    assert "power-mean exponent r must be finite and nonzero, got r = nan" in \
        capsys.readouterr().err


@pytest.mark.parametrize("sub, keys", [
    ("scan-inequalities", {"samples": 0}),
    ("scan-inequalities", {"samples": -5}),
    ("scan-inequalities", {"dimensions": 0}),
    ("scan-inequalities", {"dimensions": ""}),
    ("scan-inequalities", {"inequalities": ""}),
    ("sphere-exact", {"n_times": 0}),
    ("verify-evolution", {"identities": ""}),
], ids=["samples0", "samples-5", "dimension0", "no-dimensions", "no-inequalities",
        "n_times0", "no-identities"])
def test_empty_certification_is_refused(tmp_path, capsys, sub, keys):
    """A run that would check nothing must not report a pass."""
    cfg = write_cfg(tmp_path, exponent=1.0, **keys)
    out = tmp_path / "out"
    assert run_cli(sub, cfg, out) == cli.EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

def test_cli_import_loads_nothing_beyond_numpy_and_the_standard_library():
    """Every run pays for what importing the driver loads, before it reads its config."""
    src = str(Path(harnacklab.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); import harnacklab.cli; "
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert set(out.stdout.split()) <= {"harnacklab", "numpy"}
