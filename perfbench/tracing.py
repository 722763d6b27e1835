"""Spans and counters around the entry points of each harnacklab module.

The tracer wraps module attributes from outside: nothing in `src/` knows it
is traced.  Spans stay in memory as [name, start, end, parent] lists and are
written out once the run ends.  A span's self time is its duration minus
the time its child spans cover; the spans of one thread never overlap, so
that cover is the sum of the children's durations.

The tracer's own cost is reported as trace.overhead_s: the number of spans
times the time one span adds to a call, measured on a no-op.  Comparing
traced with untraced runs cannot resolve it: at most about 1% of a run,
against a run-to-run spread of 5-10%.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# L2 of the reference machine (lscpu: 4 MiB over 2 instances).  Stencil
# arrays are recorded against it to show whether bandwidth can matter.
L2_BYTES = 4 * 2 ** 20

# Floating-point operations per output element of the sixth-order stencils,
# read off the expressions in geometry.periodic_d1 / periodic_d2.
STENCIL_FLOPS = {"periodic_d1": 8, "periodic_d2": 11}

LAYERS = ("cli", "flow", "geometry", "harnack", "verify", "symfunc")

# name -> unit of every per-layer metric, in the order they are reported.
METRICS = {
    "geometry.rhs.calls": "count", "geometry.rhs.s": "s",
    "geometry.rhs.p50_us": "us", "geometry.rhs.p99_us": "us",
    "geometry.stencil.calls": "count", "geometry.stencil.s": "s",
    "geometry.stencil.bytes_computed": "B", "geometry.stencil.flops_computed": "flop",
    "geometry.stencil.array_bytes_max": "B", "geometry.stencil.l2_share": "ratio",
    "geometry.assemble.calls": "count", "geometry.assemble.self_s": "s",
    "geometry.assemble.p50_us": "us", "geometry.assemble.used_ratio": "ratio",
    "flow.steps": "count", "flow.step.p50_us": "us", "flow.step.p99_us": "us",
    "flow.run.self_s": "s",
    "harnack.monitor.calls": "count", "harnack.monitor.s": "s",
    "harnack.monitor.p50_us": "us",
    "flow.time_derivative.calls": "count", "flow.time_derivative.s": "s",
    "cli.emit.s": "s", "cli.emit.bytes": "B",
    "verify.residual.calls": "count", "verify.residual.s": "s",
    "symfunc.eigensystem.calls": "count", "symfunc.eigensystem.matrices": "count",
    "symfunc.eigensystem.s": "s", "symfunc.eigensystem.matrices_per_sample": "ratio",
    "verify.scan.samples": "count", "verify.scan.s": "s",
    "verify.scan.samples_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# Counters that must repeat exactly for the same inputs.
DETERMINISTIC = ("flow.steps", "geometry.rhs.calls", "geometry.assemble.calls",
                 "harnack.monitor.calls", "symfunc.eigensystem.matrices",
                 "verify.scan.samples")


def _span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped against a bare no-op."""
    def noop():
        return None
    wrapped = Tracer("calibration").span("noop", noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return min(times)
    return (best(wrapped) - best(noop)) / calls


def _percentile(values, q):
    """Nearest-rank percentile in µs of durations in seconds; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1e6


class Tracer:
    """Installs wrappers on harnacklab's modules and records what they do."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []             # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self._read = weakref.WeakValueDictionary()     # id -> state read

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records a span named name.

        before(args, kwargs) and after(args, kwargs, result) update counters
        outside the timed interval, so their cost lands in the parent's self
        time, not in this span's.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                before(args, kwargs)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def hook(self, fn, before=None, after=None):
        """Wrap fn to update counters only, without a span."""
        def counted(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return counted

    def mark_read(self, state):
        """Count a state the first time something downstream reads it."""
        # SurfaceState is an unhashable dataclass, so key by id; a dead
        # state drops out, so a later object reusing its id counts anew.
        if state is not None and self._read.get(id(state)) is not state:
            self._read[id(state)] = state
            self.counts["states_read"] += 1

    @staticmethod
    def _patch(owner, attr, wrapper):
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self, cli, handler_name):
        """Wrap the entry points of every module reached from cli."""
        from harnacklab import flow, geometry, harnack, symfunc, verify

        for fn_name in STENCIL_FLOPS:
            self._patch(geometry, fn_name, self.span(
                "geometry.stencil", getattr(geometry, fn_name),
                before=self._stencil_counter(STENCIL_FLOPS[fn_name])))
        self._patch(geometry, "_profile_geometry",
                    self.span("geometry.rhs", geometry._profile_geometry))
        self._patch(geometry, "assemble",
                    self.span("geometry.assemble", geometry.assemble))

        self._patch(flow, "run", self.span("flow.run", flow.run))
        self._patch(flow, "_rk4", self.span("flow.step", flow._rk4))
        td = self.span("flow.time_derivative", flow.time_derivative)
        self._patch(flow, "time_derivative", td)
        self._patch(verify, "time_derivative", td)     # imported by name
        self._patch(flow.Trajectory, "state_at", self.hook(
            flow.Trajectory.state_at, after=lambda a, k, state: self.mark_read(state)))

        self._patch(harnack, "evaluate_monitor", self.span(
            "harnack.monitor", harnack.evaluate_monitor,
            before=lambda a, k: self.mark_read(a[0])))

        for fn_name in ("evolution_residual", "commutator_residual"):
            self._patch(verify, fn_name, self.span("verify.residual", getattr(verify, fn_name)))
        self._patch(verify, "scan_inequalities",
                    self.span("verify.scan", verify.scan_inequalities))
        self._patch(verify, "_scan_once", self.hook(verify._scan_once, before=self._scan_counter))
        self._patch(symfunc, "weingarten_eigensystem", self.span(
            "symfunc.eigensystem", symfunc.weingarten_eigensystem,
            before=self._eigen_counter))

        self._patch(cli, "_extents", self.hook(
            cli._extents, before=lambda a, k: self.mark_read(a[0])))
        self._patch(cli, "emit_outputs", self.span(
            "cli.emit", cli.emit_outputs, after=self._emit_counter))
        self._patch(cli.HANDLERS, handler_name, self.span("cli.handler", cli.HANDLERS[handler_name]))

    def _stencil_counter(self, flops):
        def count(args, kwargs):
            arr = np.asarray(args[0])
            # computed, not measured: read the input once, write the output once
            self.counts["stencil.bytes"] += 2 * arr.nbytes
            self.counts["stencil.flops"] += flops * arr.size
            self.counts["stencil.array_bytes_max"] = max(
                self.counts["stencil.array_bytes_max"], arr.nbytes)
        return count

    def _scan_counter(self, args, kwargs):
        inequality, samples = args[0], args[4]
        self.counts["scan.samples"] += samples
        if inequality == "harnack-form":
            self.counts["scan.harnack_form_samples"] += samples

    def _eigen_counter(self, args, kwargs):
        self.counts["eigen.matrices"] += int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))

    def _emit_counter(self, args, kwargs, result):
        out_dir = args[0].out
        self.counts["emit.bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans and counters."""
        durations = defaultdict(list)
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_cover[parent] += end - start
        self_by_name = Counter()
        for (name, start, end, _), cover in zip(self.spans, child_cover):
            self_by_name[name] += (end - start) - cover

        def total(name):
            return sum(durations[name])

        counts = self.counts
        assembled = len(durations["geometry.assemble"])
        hf_samples = counts["scan.harnack_form_samples"]
        scan_s = total("verify.scan")
        out = {
            "geometry.rhs.calls": len(durations["geometry.rhs"]),
            "geometry.rhs.s": total("geometry.rhs"),
            "geometry.rhs.p50_us": _percentile(durations["geometry.rhs"], 50),
            "geometry.rhs.p99_us": _percentile(durations["geometry.rhs"], 99),
            "geometry.stencil.calls": len(durations["geometry.stencil"]),
            "geometry.stencil.s": total("geometry.stencil"),
            "geometry.stencil.bytes_computed": counts["stencil.bytes"],
            "geometry.stencil.flops_computed": counts["stencil.flops"],
            "geometry.stencil.array_bytes_max": counts["stencil.array_bytes_max"],
            "geometry.stencil.l2_share": counts["stencil.array_bytes_max"] / L2_BYTES,
            "geometry.assemble.calls": assembled,
            "geometry.assemble.self_s": self_by_name["geometry.assemble"],
            "geometry.assemble.p50_us": _percentile(durations["geometry.assemble"], 50),
            "geometry.assemble.used_ratio": counts["states_read"] / assembled if assembled else 0.0,
            "flow.steps": len(durations["flow.step"]),
            "flow.step.p50_us": _percentile(durations["flow.step"], 50),
            "flow.step.p99_us": _percentile(durations["flow.step"], 99),
            "flow.run.self_s": self_by_name["flow.run"],
            "harnack.monitor.calls": len(durations["harnack.monitor"]),
            "harnack.monitor.s": total("harnack.monitor"),
            "harnack.monitor.p50_us": _percentile(durations["harnack.monitor"], 50),
            "flow.time_derivative.calls": len(durations["flow.time_derivative"]),
            "flow.time_derivative.s": total("flow.time_derivative"),
            "cli.emit.s": total("cli.emit"),
            "cli.emit.bytes": counts["emit.bytes"],
            "verify.residual.calls": len(durations["verify.residual"]),
            "verify.residual.s": total("verify.residual"),
            "symfunc.eigensystem.calls": len(durations["symfunc.eigensystem"]),
            "symfunc.eigensystem.matrices": counts["eigen.matrices"],
            "symfunc.eigensystem.s": total("symfunc.eigensystem"),
            "symfunc.eigensystem.matrices_per_sample":
                counts["eigen.matrices"] / hf_samples if hf_samples else 0.0,
            "verify.scan.samples": counts["scan.samples"],
            "verify.scan.s": scan_s,
            "verify.scan.samples_per_s": counts["scan.samples"] / scan_s if scan_s else 0.0,
            "trace.overhead_s": len(self.spans) * _span_cost() if self.spans else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for name, s in self_by_name.items()
                                         if name.split(".", 1)[0] == layer)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": round(start - t0, 9), "end": round(end - t0, 9),
                                     "parent": parent}) + "\n")
