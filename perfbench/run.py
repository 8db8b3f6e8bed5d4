"""nlslab benchmark: time to a correct result on four paper workloads.

Run from the repository root::

    python3 perfbench/run.py --workload strichartz-growth --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every measurement runs in a fresh child process (``child.py``) with ``src``
on its path and BLAS pinned to one thread; children run one at a time.  With
``--trace 0`` the last line of output is the JSON result with the end-to-end
metrics; with ``--trace 1`` one traced run gives the per-layer metrics and
its spans are written under ``perfbench/out/``.  ``--workload all`` prints
the end-to-end table of every workload.

The gated pass times, ``wall_norm_s`` and ``cpu_norm_s``, are rescaled to a
fixed machine speed by ``probe.py``, because the shared host's own speed
moves raw pass times of the same code by more than their bound; the raw
``wall_s`` and ``cpu_s`` are printed beside them.  ``setup_s`` stays raw: it
is mostly imports and page faults, which the probe does not represent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, tail_percentile
from workloads import WORKLOADS, jobs

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # set-ups per run, the main child's included; setup_s is their median
RUN_LIMIT_S = 175.0  # a run ends within 180 s


def _child(request: dict, deadline: float) -> tuple[dict, float]:
    """Run one child to completion; returns its result and its set-up seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "child.py")], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark child ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    request = {"workload": workload, "jobs": jobs(workload, seed), "seconds": seconds,
               "trace": trace, "setup_only": False, "trace_out": None}
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(dict(request, setup_only=True), deadline)[1])
    else:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        request["trace_out"] = str(out_dir / f"trace-{workload}-seed{seed}.json")
    result, setup = _child(request, deadline)
    setups.append(setup)
    result["setups"] = setups
    return result


def _print_summary(workload: str, seed: int, r: dict) -> None:
    walls, m = r["norm_walls"], r["machine"]
    tail = tail_percentile(walls)
    tail_txt = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 passes beyond it"
    print(f"{workload} seed {seed}: {len(walls)} untraced passes, "
          f"{r['attempted']} jobs attempted, {r['failed']} failed")
    print(f"  wall_norm_s {statistics.median(walls):.4f} s   median of n={len(walls)}; {tail_txt}")
    print(f"  cpu_norm_s  {statistics.median(r['norm_cpus']):.4f} s   median of n={len(walls)}")
    print(f"  setup_s     {statistics.median(r['setups']):.4f} s   median of n={len(r['setups'])}")
    print(f"  peak_rss_mb {r['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  {r['failed'] / r['attempted']:.4f}   ({r['failed']}/{r['attempted']})")
    print(f"  raw, not gated: wall_s {statistics.median(r['walls']):.4f} s, "
          f"cpu_s {statistics.median(r['cpus']):.4f} s; {r['probe_samples']} probe samples")
    print(f"  machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} calibration_s={r['calibration_s']:.4f}")
    for p in r["problems"]:
        print(f"  problem: {p}")


def _e2e(r: dict) -> dict:
    values = {
        "wall_norm_s": statistics.median(r["norm_walls"]),
        "setup_s": statistics.median(r["setups"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "cpu_norm_s": statistics.median(r["norm_cpus"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nlslab" / "cli.py").is_file():
        print(f"no nlslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()

    if args.trace:
        r = run_workload(args.workload, args.seed, args.seconds, True, start + RUN_LIMIT_S)
        _print_summary(args.workload, args.seed, r)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        for name, unit in units.items():
            print(f"  {name:32s} {r['layers'][name]:.6g} {unit}")
        metrics = {name: {"value": r["layers"][name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        r = run_workload(workload, args.seed, args.seconds, False,
                         time.monotonic() + RUN_LIMIT_S if args.workload == "all" else start + RUN_LIMIT_S)
        _print_summary(workload, args.seed, r)
        attempted += r["attempted"]
        failed += r["failed"]
        e2e = _e2e(r)
        if args.workload == "all":
            e2e = {f"{workload}.{k}": v for k, v in e2e.items()}
            e2e[f"{workload}.fail_ratio"] = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
        metrics.update(e2e)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
