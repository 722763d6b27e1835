"""One iteration of a workload, in a fresh interpreter.

    python3 perfbench/child.py --subcommand simulate --config c.cfg --out dir \
        --seed 1 --result r.json --run-id id [--trace] [--env] \
        --spawned <time.monotonic() of the parent just before the spawn>

Runs `harnack-lab <subcommand>` through `harnacklab.cli.main`, so the exit
code is the CLI's own, and writes the measurements to --result:

- setup_s: from the spawn to the config loaded, which covers interpreter
  start-up and the imports of numpy/scipy;
- wall_s, cpu_s: wall and process CPU time (user + sys, all threads) of the
  subcommand handler, from the parsed config to all files written;
- peak_rss_mb: this process's ru_maxrss;
- layers: the tracer's per-layer metrics, with --trace only; the spans go
  to spans.jsonl next to --result.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    opts = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harnacklab import cli

    marks = {}
    real_load_config = cli.load_config

    def load_config(path, subcommand):
        cfg = real_load_config(path, subcommand)
        marks["setup_s"] = time.monotonic() - opts.spawned
        return cfg

    cli.load_config = load_config

    tracer = None
    if opts.trace:
        from tracing import Tracer
        tracer = Tracer(opts.run_id)
        tracer.install(cli, opts.subcommand)

    handler = cli.HANDLERS[opts.subcommand]

    def timed_handler(args, cfg):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            return handler(args, cfg)
        finally:
            marks["wall_s"] = time.perf_counter() - wall0
            marks["cpu_s"] = time.process_time() - cpu0

    cli.HANDLERS[opts.subcommand] = timed_handler
    code = cli.main([opts.subcommand, "--config", opts.config, "--out", opts.out,
                     "--seed", str(opts.seed), "--force"])
    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"exit_code": code, **marks}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(os.path.dirname(opts.result), "spans.jsonl"))
    if opts.env:
        result["env"] = _environment()
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
