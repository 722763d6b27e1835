"""Tests of the benchmark itself: python3 -m pytest perfbench

The end-to-end tests run the real CLI on configs far smaller than the
workloads', so they take seconds, not minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS


def _override(text, **items):
    """Replace (or add) `key = value` lines of a config text."""
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() not in items]
    return "\n".join(lines + [f"{k} = {v}" for k, v in items.items()]) + "\n"


def _small(name, **items):
    base = WORKLOADS[name]
    return replace(base, name=f"test-{name}",
                   config=lambda seed: _override(base.config(seed), **items))


SMALL_FLOW = _small("flow-adaptive", n_nodes=32, t_end=0.01)
SMALL_SCAN = _small("scan", samples=500)


@pytest.fixture(autouse=True, scope="module")
def _clean_work():
    yield
    for name in ("test-flow-adaptive", "test-scan", "test-rejected", "test-failing"):
        shutil.rmtree(os.path.join(run.WORK, name), ignore_errors=True)


# -- deterministic counters ------------------------------------------------

@pytest.mark.parametrize("workload", [SMALL_FLOW, SMALL_SCAN], ids=lambda w: w.name)
def test_deterministic_counters_repeat_across_runs(workload):
    counts = []
    for _ in range(2):
        result = run.measure(workload, seed=3, seconds=0, trace=True)
        summary = run.summarize(result)
        assert summary["correct"], summary["problems"]
        assert summary["failed"] == 0
        counts.append({k: summary["metrics"][k]["value"] for k in tracing.DETERMINISTIC})
    assert counts[0] == counts[1]
    if workload is SMALL_FLOW:
        assert counts[0]["flow.steps"] > 0 and counts[0]["geometry.rhs.calls"] > 0
    else:
        assert counts[0]["verify.scan.samples"] == 4 * 3 * 500
        # harnack-form solves the Weingarten system three times per sample
        assert counts[0]["symfunc.eigensystem.matrices"] == 3 * 3 * 500


def test_untraced_run_reports_every_end_to_end_metric():
    summary = run.summarize(run.measure(SMALL_FLOW, seed=3, seconds=0, trace=False))
    assert summary["correct"] and summary["attempted"] == run.MIN_ITERATIONS
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert set(summary["digests"]) == {"manifest.json", "simulate.csv", "summary.json"}


# -- failures are counted, never fatal -------------------------------------

def test_rejected_config_counts_as_failure():
    rejected = replace(SMALL_SCAN, name="test-rejected",
                       config=lambda seed: "no_such_key = 1\n")
    summary = run.summarize(run.measure(rejected, seed=1, seconds=0, trace=False))
    assert summary["attempted"] == run.MIN_ITERATIONS
    assert summary["failed"] == summary["attempted"]
    assert not summary["correct"] and summary["metrics"] == {}
    assert any("exit code 1" in p for p in summary["problems"])


def test_failed_verdict_counts_as_failure():
    # an impossible gap floor makes the scan's own verdict fail (exit 4)
    failing = replace(SMALL_SCAN, name="test-failing",
                      config=lambda seed: _override(SMALL_SCAN.config(seed), gap_floor=1.0))
    summary = run.summarize(run.measure(failing, seed=1, seconds=0, trace=False))
    assert summary["failed"] == summary["attempted"] > 0
    assert any("exit code 4" in p for p in summary["problems"])


def test_checks_read_the_subcommand_verdict(tmp_path):
    text = WORKLOADS["flow-adaptive"].config(1)
    (tmp_path / "summary.json").write_text(json.dumps(
        {"termination": "convexity-lost", "t_final": 0.01, "extinction_window": [0.3, 0.4]}))
    (tmp_path / "simulate.csv").write_text("t,min_kappa,min_Q\n0,1,nan\n0.01,1,2\n")
    problems = workloads.check_flow_adaptive(str(tmp_path), text)
    assert any("convexity-lost" in p for p in problems)
    assert any("t_final" in p for p in problems)


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        assert workload.config(5) == workload.config(5)
    assert WORKLOADS["ladder"].config(5) != WORKLOADS["ladder"].config(6)


# -- tracer --------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("t")
    tracer.spans = [["cli.handler", 0.0, 10.0, -1],
                    ["flow.run", 1.0, 9.0, 0],
                    ["geometry.rhs", 2.0, 4.0, 1],
                    ["geometry.rhs", 5.0, 6.0, 1],
                    ["geometry.stencil", 2.5, 3.0, 2]]
    metrics = tracer.metrics()
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["flow.run.self_s"] == pytest.approx(5.0)
    assert metrics["geometry.self_s"] == pytest.approx(3.0)
    assert metrics["geometry.rhs.calls"] == 2
    # five spans, each costing the wrapper's measured time
    assert metrics["trace.overhead_s"] > 0


def test_spans_nest_and_stencil_traffic_is_computed_from_shape():
    tracer = tracing.Tracer("t")
    inner = tracer.span("geometry.stencil", lambda arr, h: arr,
                        before=tracer._stencil_counter(tracing.STENCIL_FLOPS["periodic_d1"]))
    outer = tracer.span("geometry.rhs", lambda arr: inner(arr, 0.1))
    markers = np.zeros((128, 3))
    outer(markers)
    outer(markers)
    assert [s[0] for s in tracer.spans] == ["geometry.rhs", "geometry.stencil"] * 2
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    metrics = tracer.metrics()
    assert metrics["geometry.stencil.bytes_computed"] == 2 * 2 * markers.nbytes
    assert metrics["geometry.stencil.flops_computed"] == 2 * 8 * markers.size
    assert metrics["geometry.stencil.array_bytes_max"] == 128 * 3 * 8


def test_every_layer_metric_is_reported():
    assert set(tracing.Tracer("t").metrics()) == set(tracing.METRICS)


# -- the contract ----------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.METRICS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
