"""Command-line driver: flat-file configs in, CSV/JSON tables out.

Subcommands
-----------
simulate           integrate a flow, log curvature ranges and the Harnack floor
verify-evolution   residual ladders for the evolution identities
scan-inequalities  randomized certification of the pointwise inequalities
monitor            per-time Harnack monitor with an exact term breakdown
sphere-exact       closed-form round-sphere solution tables

Config files are plain text, one `key = value` per line, `#` starts a
comment.  Unknown keys fail loudly with the offending name.  Every run
writes a manifest.json, which records the resolved request, next to its
data files; nothing is overwritten unless --force is passed.  Outputs carry
no timestamps, so a rerun of the same configuration is byte-identical.

Exit codes: 0 success (and --help), 1 a refused request (a usage error, a
config that cannot be read or is malformed, an --out that cannot be created
or written, or an ambient, speed, variant or time outside its domain), 2 loss
of convexity, 3 numerical instability, 4 a certified quantity failed its
positivity or threshold requirement.  A flow that fails after its first step
writes its outputs up to its last completed step first.  main maps each error
class to its exit code through one table and is the only writer to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import flow as _flow
from . import geometry as _geo
from . import harnack as _ha
from . import symfunc as _sf
from . import verify as _ve
from .errors import (ConfigError, ConvexityLost, DegenerateGrid,
                     HarnackLabError, OutOfRange, StabilityViolation)
from .flow import FlowConfig
from .geometry import (AmbientSpace, GeodesicSphere, cos_mode_radial,
                       initial_radius, markers_from_radial)
from .symfunc import SpeedFunction
from .verify import DEFAULT_SEED

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONVEXITY = 2
EXIT_INSTABILITY = 3
EXIT_THRESHOLD = 4


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _cast_int(v, key):
    try:
        return int(v)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects an integer, got {v!r}") from None


def _cast_float(v, key):
    try:
        return float(v)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects a number, got {v!r}") from None


def _cast_opt_float(v, key):
    if v.lower() in ("none", "auto"):
        return None
    return _cast_float(v, key)


def _cast_str(v, key):
    return v


def _cast_choice(*options):
    def cast(v, key):
        if v not in options:
            raise ConfigError(f"config key {key!r} must be one of {options}, got {v!r}")
        return v
    return cast


def _cast_ints(v, key):
    return tuple(_cast_int(part.strip(), key) for part in v.split(",") if part.strip())


def _cast_strs(v, key):
    return tuple(part.strip() for part in v.split(",") if part.strip())


_REQUIRED = object()

_SPEED = {
    "speed": (_cast_str, "mean"),
    "exponent": (_cast_float, _REQUIRED),
    "format": (_cast_choice("csv", "json"), "csv"),
}

_COMMON = {
    "ambient": (_cast_choice("sphere", "euclidean"), "sphere"),
    "dimension": (_cast_int, 2),
    **_SPEED,
}

_STEPPING_CASTS = {"dt": _cast_opt_float, "store_every": _cast_int,
                   "max_kappa": _cast_float, "min_radius": _cast_float}

_FLOW = {
    "n_nodes": (_cast_int, 128),
    "radius": (_cast_opt_float, None),
    "amplitude": (_cast_float, 0.0),
    "mode": (_cast_int, 2),
    "t_end": (_cast_float, 0.1),
    # the stepping knobs take FlowConfig's own defaults
    **{fld.name: (_STEPPING_CASTS[fld.name], fld.default)
       for fld in dataclasses.fields(FlowConfig) if fld.name in _STEPPING_CASTS},
}

SCHEMAS = {
    "simulate": {**_COMMON, **_FLOW},
    "monitor": {**_COMMON, **_FLOW,
                "variant": (_cast_str, None),
                "delta": (_cast_opt_float, None),
                "dtf_source": (_cast_choice("analytic", "trajectory"), "analytic")},
    "verify-evolution": {**_COMMON,
                         "identities": (_cast_strs, ("all",)),
                         "levels": (_cast_ints, (64, 128, 256)),
                         "dt0": (_cast_float, 2e-4),
                         "t_check": (_cast_float, 8e-3),
                         "radius": (_cast_opt_float, None),
                         "amplitude": (_cast_float, 0.05),
                         "mode": (_cast_int, 2)},
    "scan-inequalities": {**_SPEED,
                          "inequalities": (_cast_strs, ("all",)),
                          "dimensions": (_cast_ints, (2, 3, 5)),
                          "samples": (_cast_int, 100_000)},
    "sphere-exact": {**_COMMON,
                     "radius": (_cast_opt_float, None),
                     "t_end": (_cast_float, 0.1),
                     "n_times": (_cast_int, 65)},
}


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with # comments, into a raw string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str, subcommand: str) -> dict:
    schema = SCHEMAS[subcommand]
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    raw = parse_config_text(text)
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(repr(k) for k in unknown)} for "
            f"subcommand {subcommand!r}; allowed: {', '.join(sorted(schema))}")
    missing = sorted(key for key, (_, default) in schema.items()
                     if default is _REQUIRED and key not in raw)
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")
    return {key: cast(raw[key], key) if key in raw else default
            for key, (cast, default) in schema.items()}


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt_cell(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _json_cell(x):
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_table(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(c) for c in row) for row in rows]
        return "\n".join(lines) + "\n"
    return _json_text({"columns": list(header),
                       "rows": [[_json_cell(c) for c in row] for row in rows]})


def emit_outputs(args, cfg, tables, summary, seed=None) -> None:
    """Guard, then write manifest, tables and summary under the out dir.

    tables is a list of (name, header, rows); the data format comes from the
    config.  The manifest records the config path, cfg (the resolved request,
    every default filled in), seed (None for a run that draws nothing) and
    the package and numpy versions.  All target paths are checked against --force
    before anything is written, so a refused run leaves no partial output.
    """
    os.makedirs(args.out, exist_ok=True)
    fmt = cfg.get("format", "csv")
    names = ["manifest.json"] + [f"{name}.{fmt}" for name, _, _ in tables] + ["summary.json"]
    targets = [os.path.join(args.out, name) for name in names]
    if not args.force:
        for path in targets:
            if os.path.exists(path):
                raise ConfigError(f"refusing to overwrite existing {path} (use --force)")

    manifest = {
        "subcommand": args.subcommand,
        "config": args.config,
        "resolved_config": cfg,
        "out": args.out,
        "seed": seed,
        "format": fmt,
        "package": f"harnacklab {__version__}",
        "numpy": np.__version__,
    }
    texts = [_json_text(manifest)]
    texts += [_render_table(header, rows, fmt) for _, header, rows in tables]
    texts.append(_json_text(summary))
    for path, text in zip(targets, texts):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _build_ambient(cfg) -> AmbientSpace:
    return AmbientSpace(1 if cfg["ambient"] == "sphere" else 0, cfg["dimension"])


def _build_speed(cfg) -> SpeedFunction:
    return SpeedFunction(_sf.builtin(cfg["speed"]), cfg["exponent"])


def _initial_data(cfg, ambient):
    r0 = initial_radius(ambient, cfg["radius"])
    if cfg["amplitude"] == 0.0:
        return GeodesicSphere(r0)
    return markers_from_radial(
        ambient, cos_mode_radial(r0, cfg["amplitude"], cfg["mode"]), cfg["n_nodes"])


def _run_flow(cfg, ambient, speed, hcfg):
    """Run the configured flow once hcfg is finite on the sphere at the curvature cap."""
    config = FlowConfig(ambient=ambient, speed=speed, initial=_initial_data(cfg, ambient),
                        t_end=cfg["t_end"], dt=cfg["dt"],
                        store_every=cfg["store_every"], max_kappa=cfg["max_kappa"],
                        min_radius=cfg["min_radius"])
    with np.errstate(all="ignore"):
        cap = _geo.assemble(GeodesicSphere(_flow.cap_radius(ambient, config.max_kappa)),
                            ambient, speed, config.t_end)
        if not (np.isfinite(cap.F).all() and np.isfinite(_ha.evaluate_monitor(cap, hcfg).Q).all()):
            raise ConfigError(f"max_kappa = {config.max_kappa:g} makes the {hcfg.variant} "
                              f"monitor overflow on the sphere at the cap")
    return _flow.run(config)


def _extents(state):
    """(min, max) distance of the surface from its symmetry center."""
    if state.markers is None:
        return state.radius, state.radius
    r = _geo.center_distance(state.ambient, state.markers)
    return float(r.min()), float(r.max())


def _extinction_window(ambient, speed, state0):
    """Comparison-sphere bracket [t_ext(inner), t_ext(outer)] for contracting flows; a
    convex CLI start lies within π/2 of its center e₀, so both comparison spheres exist."""
    if not speed.contracting:
        return None
    return [_flow.sphere_ode_solution(ambient, speed, r).t_extinction for r in _extents(state0)]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg) -> int:
    ambient = _build_ambient(cfg)
    speed = _build_speed(cfg)
    hcfg = _ha.HarnackConfig(_ha.default_variant(ambient, speed))
    traj = _run_flow(cfg, ambient, speed, hcfg)

    header = ["t", "min_kappa", "max_kappa", "min_Q", "argmin_Q",
              "extent_min", "extent_max", "speed_max"]
    summary = {"termination": traj.termination,
               "t_final": float(traj.times[-1]),
               "variant": hcfg.variant,
               "extinction_window": _extinction_window(ambient, speed, traj[0])}
    rows = []
    for state in traj:
        lo, hi = _extents(state)
        if state.t > 0:
            rep = _ha.evaluate_monitor(state, hcfg)
            min_q, arg_q = rep.min_Q, rep.argmin
        else:
            min_q, arg_q = float("nan"), -1
        rows.append([float(state.t), float(state.kappa.min()), float(state.kappa.max()),
                     min_q, arg_q, lo, hi, float(np.abs(state.F).max())])
    emit_outputs(args, cfg, [("simulate", header, rows)], summary)
    if traj.failure:
        raise traj.failure
    return EXIT_OK


def cmd_monitor(args, cfg) -> int:
    ambient = _build_ambient(cfg)
    speed = _build_speed(cfg)
    hcfg = _ha.HarnackConfig(cfg["variant"] or _ha.default_variant(ambient, speed), cfg["delta"])
    delta = _ha.monitor_delta(hcfg, ambient, speed)     # refuse before the flow runs
    use_traj = cfg["dtf_source"] == "trajectory"
    if use_traj and (cfg["dt"] is None or cfg["store_every"] != 1):
        raise ConfigError("dtf_source = trajectory needs an explicit dt and "
                          "store_every = 1 so centered differences line up")

    traj = _run_flow(cfg, ambient, speed, hcfg)
    header = ["t", "min_Q", "argmin", "term_dtF", "term_minus_theta",
              "term_correction", "term_delta_F_over_t", "term_zeta"]
    rows = []
    for state in traj:
        if state.t <= 0:
            continue
        try:
            dtF = _flow.time_derivative(traj, "F", state.t, cfg["dt"]) if use_traj else None
        except OutOfRange:
            continue    # no neighbor state to difference against (run edges)
        rep = _ha.evaluate_monitor(state, hcfg, dtF)
        k = rep.argmin      # terms in header order: dtF, minus_theta, ..., zeta
        rows.append([float(state.t), rep.min_Q, k] + [float(v[k]) for v in rep.terms.values()])

    if not rows:
        raise traj.failure or ConfigError("monitor produced no rows; lengthen t_end or adjust dt")
    floor = min(row[1] for row in rows)
    first_bad = next((row[0] for row in rows if row[1] <= 0), None)
    summary = {"variant": hcfg.variant, "delta": delta,
               "min_Q": floor, "positive": floor > 0.0,
               "first_nonpositive_t": first_bad,
               "termination": traj.termination}
    emit_outputs(args, cfg, [("monitor", header, rows)], summary)
    if traj.failure:
        raise traj.failure
    return EXIT_THRESHOLD if floor <= 0.0 else EXIT_OK


def cmd_verify_evolution(args, cfg) -> int:
    ambient = _build_ambient(cfg)
    speed = _build_speed(cfg)
    tags = None if cfg["identities"] == ("all",) else cfg["identities"]
    reports = _ve.residual_ladder(ambient, speed, tags=tags, levels=cfg["levels"],
                                  dt0=cfg["dt0"], t_check=cfg["t_check"],
                                  r0=cfg["radius"], amplitude=cfg["amplitude"],
                                  mode=cfg["mode"])

    res_header = ["identity", "n_nodes", "dt", "t", "residual", "rhs_scale"]
    res_rows = [[tag, rec.n_nodes, rec.dt, rec.t, rec.residual, rec.rhs_scale]
                for tag, rep in reports.items() for rec in rep.records]
    ord_header = ["identity", "order", "finest_pair_order", "finest_residual", "passed"]
    ord_rows = [[tag, rep.order, rep.finest_pair_order, rep.finest_residual,
                 int(rep.order >= _ve.MIN_ORDER and rep.finest_residual <= _ve.MAX_RESIDUAL)]
                for tag, rep in reports.items()]
    all_ok = all(row[-1] for row in ord_rows)

    summary = {"levels": list(cfg["levels"]), "t_check": cfg["t_check"], "dt0": cfg["dt0"],
               "min_order": _ve.MIN_ORDER, "max_residual": _ve.MAX_RESIDUAL,
               "all_passed": all_ok}
    emit_outputs(args, cfg,
                 [("residuals", res_header, res_rows), ("orders", ord_header, ord_rows)],
                 summary)
    return EXIT_OK if all_ok else EXIT_THRESHOLD


def cmd_scan_inequalities(args, cfg) -> int:
    speed = _build_speed(cfg)
    inequalities = cfg["inequalities"]
    if inequalities == ("all",):
        inequalities = _ve.scan_roster(speed.f)
    reports = _ve.scan_inequalities(inequalities=inequalities,
                                    n_values=cfg["dimensions"],
                                    samples=cfg["samples"], seed=args.seed, speed=speed)
    header = ["inequality", "f", "n", "samples", "seed",
              "min_normalized_gap", "witness_max_abs_gap", "passed"]
    rows = [[rep.inequality, rep.f_name, rep.n, rep.samples, rep.seed,
             rep.min_normalized_gap, rep.witness_max_abs_gap,
             int(rep.min_normalized_gap >= _ve.GAP_FLOOR
                 and rep.witness_max_abs_gap <= _ve.WITNESS_TOL)] for rep in reports]
    all_ok = all(row[-1] for row in rows)
    summary = {"gap_floor": _ve.GAP_FLOOR, "witness_tol": _ve.WITNESS_TOL,
               "all_passed": all_ok}
    emit_outputs(args, cfg, [("scans", header, rows)], summary, seed=args.seed)
    return EXIT_OK if all_ok else EXIT_THRESHOLD


def cmd_sphere_exact(args, cfg) -> int:
    ambient = _build_ambient(cfg)
    speed = _build_speed(cfg)
    if cfg["n_times"] < 1:
        raise ConfigError(f"n_times must be at least 1, got {cfg['n_times']}")
    r0 = initial_radius(ambient, cfg["radius"])
    sol = _flow.sphere_ode_solution(ambient, speed, r0)
    variant = ("strong-Hp" if _ha.admits("strong-Hp", ambient, speed)
               else _ha.default_variant(ambient, speed))
    hcfg = _ha.HarnackConfig(variant)

    times = np.linspace(0.0, cfg["t_end"], cfg["n_times"])
    header = ["t", "radius", "kappa", "speed", "Q"]
    rows = []
    for t, r in zip(times, sol.radius(times)):
        state = _geo.assemble(GeodesicSphere(float(r)), ambient, speed, t=float(t))
        q = _ha.evaluate_monitor(state, hcfg).min_Q if t > 0 else float("nan")
        rows.append([float(t), float(state.radius), float(state.kappa[0, 0]),
                     float(state.F[0]), q])

    summary = {"r0": r0,
               "t_extinction": sol.t_extinction,
               "variant": variant,
               "final_radius": rows[-1][1]}
    emit_outputs(args, cfg, [("sphere", header, rows)], summary)
    return EXIT_OK


HANDLERS = {
    "simulate": cmd_simulate,
    "monitor": cmd_monitor,
    "verify-evolution": cmd_verify_evolution,
    "scan-inequalities": cmd_scan_inequalities,
    "sphere-exact": cmd_sphere_exact,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError into main's table; only --help exits here."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parse_args(argv):
    parser = _Parser(
        prog="harnack-lab",
        description="curvature-flow laboratory: simulation, identity residuals, "
                    "Harnack monitors and inequality scans")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="RNG seed of scan-inequalities (the other subcommands draw nothing)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        cfg = load_config(args.config, args.subcommand)
        return HANDLERS[args.subcommand](args, cfg)
    except (HarnackLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ConvexityLost: EXIT_CONVEXITY, StabilityViolation: EXIT_INSTABILITY,
                DegenerateGrid: EXIT_INSTABILITY}.get(type(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
