"""The benchmark's workloads: a config per seed and a check of the outputs.

Each workload is one `harnack-lab` subcommand on one config.  The seed picks
the inputs: the scan passes it on as the CLI's `--seed`; the flow workloads
draw the perturbation amplitude from a ±1% band around 0.05, which changes
the work done by far less than the run-to-run noise.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: Callable[[int], str]        # seed -> config file text
    check: Callable[[str, str], list]   # (out_dir, config text) -> problems


def _amplitude(seed: int) -> float:
    return round(0.05 * (1.0 + 0.02 * (random.Random(seed).random() - 0.5)), 8)


def _cfg(**items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _parse(text: str) -> dict:
    return dict((part.strip() for part in line.split("=", 1))
                for line in text.splitlines() if "=" in line)


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _table(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# 0.45 of the lower edge of the comparison-sphere extinction window
# (≈[0.327, 0.384] for the r0 = 0.8, mode-2 start), far from the stiff end.
FLOW_T_END = 0.147


def flow_adaptive_config(seed: int) -> str:
    return _cfg(ambient="sphere", dimension=2, speed="mean", exponent=0.5,
                n_nodes=128, amplitude=_amplitude(seed), mode=2,
                t_end=FLOW_T_END,
                store_every=1000)


def check_flow_adaptive(out_dir: str, text: str) -> list:
    summary, rows = _summary(out_dir), _table(out_dir, "simulate")
    t_end = float(_parse(text)["t_end"])
    problems = []
    if summary["termination"] != "completed":
        problems.append(f"termination {summary['termination']!r}")
    if abs(summary["t_final"] - t_end) > 1e-12:
        problems.append(f"t_final {summary['t_final']} != t_end {t_end}")
    lo, hi = summary["extinction_window"]
    if not t_end < lo < hi:
        problems.append(f"extinction window {lo}, {hi} does not lie beyond t_end")
    if len(rows) < 2 or any(float(r["min_kappa"]) <= 0 for r in rows):
        problems.append("a stored state is not strictly convex")
    if any(float(r["min_Q"]) <= 0 for r in rows[1:]):
        problems.append("the Harnack floor is not positive")
    return problems


LADDER_LEVELS = (64, 128, 256)
LADDER_T_CHECK = 2e-3


def ladder_config(seed: int) -> str:
    return _cfg(ambient="sphere", dimension=2, speed="norm", exponent=0.5,
                amplitude=_amplitude(seed), t_check=LADDER_T_CHECK,
                levels=",".join(str(n) for n in LADDER_LEVELS))


def check_ladder(out_dir: str, text: str) -> list:
    summary, orders = _summary(out_dir), _table(out_dir, "orders")
    residuals = _table(out_dir, "residuals")
    problems = []
    if summary["all_passed"] is not True:
        problems.append("a residual ladder failed")
    if not orders or any(r["passed"] != "1" for r in orders):
        problems.append("an identity's fitted order or residual failed")
    if len(residuals) != len(orders) * len(LADDER_LEVELS):
        problems.append(f"{len(residuals)} residual rows for {len(orders)} identities")
    return problems


SCAN_DIMENSIONS = (2, 3, 5)
SCAN_SAMPLES = 10_000


def scan_config(seed: int) -> str:
    return _cfg(speed="mean", exponent=1,
                dimensions=",".join(str(n) for n in SCAN_DIMENSIONS),
                samples=SCAN_SAMPLES)


def check_scan(out_dir: str, text: str) -> list:
    summary, rows = _summary(out_dir), _table(out_dir, "scans")
    problems = []
    if summary["all_passed"] is not True:
        problems.append("an inequality scan failed")
    # mean f is inverse-concave, so all four inequalities run
    if len(rows) != 4 * len(SCAN_DIMENSIONS):
        problems.append(f"{len(rows)} scan rows, expected {4 * len(SCAN_DIMENSIONS)}")
    if any(r["passed"] != "1" for r in rows):
        problems.append("a scan row did not pass")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("flow-adaptive", "simulate", flow_adaptive_config, check_flow_adaptive),
    Workload("ladder", "verify-evolution", ladder_config, check_ladder),
    Workload("scan", "scan-inequalities", scan_config, check_scan),
)}
