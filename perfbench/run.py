"""Benchmark of the harnack-lab CLI on fixed workloads.

    python3 perfbench/run.py --workload flow-adaptive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 [--record out.json]

Run from the repository root.  Each iteration runs one subcommand in a fresh
interpreter (perfbench/child.py), so import cost counts, and one at a time,
so the program's own threads (OpenBLAS) have the cores to themselves.
Iterations repeat until --seconds is used up; every figure is a median over
the iterations of the run.

Every iteration is checked: exit code 0, the subcommand's own verdict in
summary.json, workload-specific sanity checks, and the sha256 of every
output file, which must match across the iterations of a run (a rerun of
one config is byte-identical).  A failed iteration counts in `failed` and
`error_rate`; it never stops the run.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s of the handler,
setup_s (spawn to config loaded) and peak_rss_mb.  --trace 1 runs traced
iterations only and reports the per-layer metrics of perfbench/tracing.py.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import DETERMINISTIC, METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 60
MIN_ITERATIONS = 2


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_iteration(workload, seed: int, config_path: str, config_text: str,
                  trace: bool, run_id: str, env: bool = False) -> dict:
    """Run one child and check its outputs.  Never raises on a failed run."""
    wdir = os.path.dirname(config_path)
    out_dir = os.path.join(wdir, "out")
    result_path = os.path.join(wdir, "result.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    # paths relative to the root keep manifest.json the same in every checkout
    cmd = [sys.executable, CHILD, "--subcommand", workload.subcommand,
           "--config", os.path.relpath(config_path, ROOT),
           "--out", os.path.relpath(out_dir, ROOT), "--seed", str(seed),
           "--result", result_path, "--run-id", run_id]
    if trace:
        cmd.append("--trace")
    if env:
        cmd.append("--env")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}

    record = {"problems": []}
    try:
        with open(result_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record["problems"].append(f"no result (exit {proc.returncode}): {tail[0]}")
        return record
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record["problems"].append(f"exit code {proc.returncode}: {tail[0]}")
        return record
    try:
        record["problems"] += workload.check(out_dir, config_text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["problems"].append(f"unreadable output: {exc!r}")
    record["digests"] = {name: _sha256(os.path.join(out_dir, name))
                         for name in sorted(os.listdir(out_dir))}
    return record


def measure(workload, seed: int, seconds: float, trace: bool, env: bool = False) -> dict:
    """Repeat iterations of one workload for `seconds`; gather and check them."""
    wdir = os.path.join(WORK, workload.name)
    os.makedirs(wdir, exist_ok=True)
    config_text = workload.config(seed)
    config_path = os.path.join(wdir, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_text)

    records, longest = [], 0.0
    start = time.monotonic()
    while True:
        iteration_start = time.monotonic()
        run_id = f"{workload.name}-{seed}-{len(records)}"
        records.append(run_iteration(workload, seed, config_path, config_text,
                                     trace, run_id, env=env and not records))
        now = time.monotonic()
        longest = max(longest, now - iteration_start)
        if len(records) >= MIN_ITERATIONS and now - start + longest > seconds:
            break

    # the same config must give byte-identical files and identical counters
    good = [r for r in records if not r["problems"]]
    for r in good[1:]:
        if r["digests"] != good[0]["digests"]:
            r["problems"].append("output files differ from the run's first iteration")
        if trace and any(r["layers"][k] != good[0]["layers"][k] for k in DETERMINISTIC):
            r["problems"].append("deterministic counters differ between iterations")
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "config": config_text, "records": records}


def _stats(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(run: dict) -> dict:
    records = run["records"]
    good = [r for r in records if not r["problems"]]
    metrics, spread = {}, {}
    if good and run["trace"]:
        for name, unit in LAYER_METRICS.items():
            value = statistics.median(r["layers"][name] for r in good)
            metrics[name] = {"value": value, "unit": unit}
    elif good:
        for name, unit in END_TO_END.items():
            med, q1, q3 = _stats([r[name] for r in good])
            metrics[name] = {"value": med, "unit": unit}
            spread[name] = (q1, q3, len(good))
    failed = len(records) - len(good)
    return {"correct": failed == 0 and bool(metrics), "attempted": len(records),
            "failed": failed, "metrics": metrics, "spread": spread,
            "digests": good[0]["digests"] if good else {},
            "problems": sorted({p for r in records for p in r["problems"]})}


def environment(runs) -> dict:
    child_env = next((r["env"] for run in runs for r in run["records"] if "env" in r), {})
    return {"python": platform.python_version(), **child_env,
            "nproc": os.cpu_count(), "machine": platform.machine(), "commit": _commit()}


def report(run: dict, summary: dict) -> None:
    name = run["workload"]
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {name} ({mode}, seed {run['seed']})")
    for problem in summary["problems"]:
        print(f"   FAILED: {problem}")
    print(f"   {'error_rate':<42} {summary['failed'] / summary['attempted']:>16.6g} ratio"
          f"   ({summary['failed']} of {summary['attempted']} runs failed)")
    for metric, entry in summary["metrics"].items():
        line = f"   {metric:<42} {entry['value']:>16.6g} {entry['unit']}"
        if metric in summary["spread"]:
            q1, q3, n = summary["spread"][metric]
            line += f"   (median of {n}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    for fname, digest in summary["digests"].items():
        print(f"   sha256 {digest}  {fname}")


def _public(summary: dict) -> dict:
    return {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all: write every result to this JSON file")
    opts = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "harnacklab", "cli.py")):
        print(f"error: no harnacklab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if opts.workload != "all":
        run = measure(WORKLOADS[opts.workload], opts.seed, opts.seconds,
                      bool(opts.trace), env=True)
        print("environment: " + json.dumps(environment([run]), sort_keys=True))
        summary = summarize(run)
        report(run, summary)
        print(json.dumps(_public(summary)))
        return 0 if summary["metrics"] else 1

    runs, results = [], {}
    for workload in WORKLOADS.values():
        untraced = measure(workload, opts.seed, opts.seconds, False, env=not runs)
        traced = measure(workload, opts.seed, opts.seconds, True)
        runs += [untraced, traced]
        end_to_end, per_layer = summarize(untraced), summarize(traced)
        report(untraced, end_to_end)
        report(traced, per_layer)
        results[workload.name] = {"config": untraced["config"],
                                  "end_to_end": _public(end_to_end),
                                  "per_layer": _public(per_layer),
                                  "digests": end_to_end["digests"]}
    record = {"environment": environment(runs), "seed": opts.seed,
              "seconds": opts.seconds, "workloads": results}
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    if opts.record:
        with open(opts.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(r[k]["correct"] for r in results.values() for k in ("end_to_end", "per_layer"))
    print(json.dumps({"correct": ok,
                      "attempted": sum(r[k]["attempted"] for r in results.values()
                                       for k in ("end_to_end", "per_layer")),
                      "failed": sum(r[k]["failed"] for r in results.values()
                                    for k in ("end_to_end", "per_layer")),
                      "record": opts.record}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
