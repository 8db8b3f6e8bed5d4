"""One benchmark process: set up, time passes of a workload's jobs, check outputs.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; reads one JSON request
on stdin::

    {"workload": ..., "jobs": [[experiment, config], ...], "seconds": s,
     "trace": bool, "setup_only": bool, "trace_out": path or null}

and writes one JSON result line on stdout.  A pass runs every job once.  The
process is ready, and its set-up over, once nlslab is imported, the configs
are validated and a small untimed warm-up has run.  Untraced passes repeat
until ``seconds`` have passed; a traced request alternates untraced and
traced passes so that the tracing overhead is measured in the same process.
Untraced passes run ``probe.SpeedProbe``, which gives their normalised times.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time


def _calibration_s() -> float:
    """Seconds for a fixed pure-Python loop, to compare machines and sessions."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _machine(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    req = json.load(sys.stdin)
    import numpy as np

    from nlslab import cli

    import checks
    import metrics
    from probe import SpeedProbe
    from spans import Tracer
    from workloads import WARMUP, run_job

    jobs = [(exp, cfg) for exp, cfg in req["jobs"]]
    params = [cli.resolve_params(cli.EXPERIMENTS[exp], cfg) for exp, cfg in jobs]
    setup_counts = {}
    if req["trace"]:
        from nlslab.symbols import support_tuples

        supports = [p["support"] for (exp, _), p in zip(jobs, params) if exp == "energy-track"]
        setup_counts = {
            "symbols.tuples6_valid": sum(len(support_tuples(s, 6)) for s in supports),
            "symbols.tuples10_valid": sum(len(support_tuples(s, 10)) for s in supports),
        }
    for exp in dict.fromkeys(exp for exp, _ in jobs):
        run_job(cli, exp, dict(WARMUP[exp], seed=0))
    ready = time.monotonic()
    if req["setup_only"]:
        print(json.dumps({"ready": ready}))
        return 0

    calibration = _calibration_s()
    # {"wall", "cpu", "traced", "outs": [(doc or None, csv or error)]}, and on an
    # untraced pass "net_wall", "net_cpu" (without the probe) and its "scale"
    passes = []
    speed = SpeedProbe()
    traced_layers = []
    t_end = time.perf_counter() + req["seconds"]
    while True:
        traced = req["trace"] and len(passes) % 2 == 1
        tracer = Tracer()
        gc.collect()
        if traced:
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        if not traced:
            speed.start()
        outs = []
        for exp, cfg in jobs:
            try:
                outs.append(run_job(cli, exp, cfg))
            except Exception as e:  # a failing job is counted, the run goes on
                outs.append((None, f"{exp}: {type(e).__name__}: {e}"))
        if not traced:
            speed.stop()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        tracer.uninstall()
        passes.append({"wall": wall, "cpu": cpu, "traced": traced, "outs": outs})
        if traced:
            docs = [doc for doc, _ in outs if doc is not None]
            traced_layers.append((metrics.pass_layers(tracer.spans, docs, wall), tracer.spans))
        else:
            passes[-1].update(net_wall=wall - speed.wall, net_cpu=cpu - speed.cpu,
                              scale=speed.scale(), samples=len(speed.samples))
        if time.perf_counter() >= t_end and (not req["trace"] or len(passes) >= 2):
            break

    problems, attempted, failed = checks.tally(
        jobs, params, [p["outs"] for p in passes], checks.load_reference(req["workload"]))

    untraced = [p for p in passes if not p["traced"]]
    result = {
        "ready": ready,
        "walls": [p["wall"] for p in untraced],
        "cpus": [p["cpu"] for p in untraced],
        "norm_walls": [p["net_wall"] * p["scale"] for p in untraced],
        "norm_cpus": [p["net_cpu"] * p["scale"] for p in untraced],
        "probe_samples": sum(p["samples"] for p in untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calibration,
        "machine": _machine(np),
    }
    if req["trace"]:
        try:
            layers = metrics.combine_passes([lay for lay, _ in traced_layers])
        except ValueError as e:
            layers = metrics.combine_passes([traced_layers[0][0]])
            result["failed"] += 1
            result["problems"].append(str(e))
        layers.update(setup_counts)
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in passes if p["traced"])
            - statistics.median(p["net_wall"] for p in untraced))
        result["layers"] = layers
        if req["trace_out"]:
            with open(req["trace_out"], "w", encoding="utf-8") as fh:
                json.dump([spans for _, spans in traced_layers], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
