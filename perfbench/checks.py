"""Output checks that do not trust the run being checked.

A job whose config equals one in the committed reference (the seed-0 jobs)
is compared row by row with it: integers and strings exactly, floats within
the acceptance suite's tolerance or the computation's own error budget.
Every job, reference or not, must also meet seed-independent invariants.

Not checked: the ``method`` column of strichartz-scan (which route a member
takes is an implementation choice), ``arg_n``/``arg_tau`` of trilinear-scan
(ties between maximisers; the sup itself is checked exactly), and the
operator leg of symbol-bound-scan beyond ``max_ratio <= 1e-10``, since those
values are roundoff.

Run ``python3 perfbench/checks.py`` from the repository root to rewrite the
reference from the current code.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT = "exact"
SKIP = "skip"

#: experiment -> column -> EXACT, SKIP or a relative tolerance.
COLUMNS: dict[str, dict[str, object]] = {
    "reduction-verify": {c: EXACT for c in (
        "scale", "offset_r0", "offset_r1", "offset_r2", "cells", "failures", "spot_checked", "passed")},
    "hypothesis-scan": {"n": EXACT, "center_id": EXACT, "center_x": EXACT, "center_y": EXACT,
                        "count": EXACT, "normalized": 1e-12},
    "trilinear-scan": {"geometry": EXACT, "lam": EXACT, "sup": EXACT, "normalized": 1e-12,
                       "arg_n": SKIP, "arg_tau": SKIP},
    # c04 holds the exact and quadrature routes to 1e-6 of the integral.
    "strichartz-scan": {"n": EXACT, "member": EXACT, "r_value": 1e-6, "method": SKIP},
    "symbol-bound-scan": {"kind": EXACT, "N": EXACT, "count": EXACT, "gap_count": EXACT,
                          "collapsed_count": EXACT, "max_ratio": 1e-9, "collapsed_max": 1e-9},
    # mass: the integrator's mass_tol; energies: c10's drift and residual budgets.
    "energy-track": {"t": 1e-12, "mass": 1e-8, "hamiltonian": 1e-6, "e1": 1e-6},
}

OPERATOR_CEILING = 1e-10  # c09: the operator leg's ratios are roundoff


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare_rows(experiment: str, got: list[dict], want: list[dict]) -> list[str]:
    """Differences between result rows and reference rows."""
    if len(got) != len(want):
        return [f"{experiment}: {len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        for col, rule in COLUMNS[experiment].items():
            if rule == SKIP:
                continue
            if experiment == "symbol-bound-scan" and w["kind"] == "operator" and col == "max_ratio":
                continue  # held to the ceiling by the invariants instead
            a, b = g[col], w[col]
            same = a == b if rule == EXACT else _close(float(a), float(b), rule)
            if not same:
                problems.append(f"{experiment} row {i} {col}: {a!r}, reference {b!r}")
    return problems


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) and x > 0


def invariants(experiment: str, params: dict, doc: dict) -> list[str]:
    """Seed-independent properties of one job's output."""
    rows, meta = doc["rows"], doc["meta"]
    bad = []
    if experiment == "reduction-verify":
        for r in rows:
            if r["passed"] is not True or r["failures"] != 0:
                bad.append(f"reduction-verify: passed={r['passed']} failures={r['failures']}")
    elif experiment == "hypothesis-scan":
        from nlslab.lattice import (CLOSED_CLOSED, HEX_FORM, AnnulusSpec, annulus_width,
                                    count_points_naive)
        for r in rows:
            want = r["count"] / float(r["n"]) ** params["alpha"]
            if not (_finite_positive(r["normalized"]) and _close(r["normalized"], want, 1e-12)):
                bad.append(f"hypothesis-scan: n={r['n']} {r['center_id']} normalized {r['normalized']!r}")
        # the row counter against the naive counter, on the small annuli
        for r in [r for r in rows if r["n"] <= 32]:
            r1sq = Fraction(r["n"] ** 2)
            spec = AnnulusSpec((Fraction(r["center_x"]), Fraction(r["center_y"])), r1sq,
                               r1sq + annulus_width(r["n"], params["alpha"]), CLOSED_CLOSED)
            naive = count_points_naive(HEX_FORM, spec)
            if naive != r["count"]:
                bad.append(f"hypothesis-scan: n={r['n']} {r['center_id']} count {r['count']}, naive {naive}")
    elif experiment == "trilinear-scan":
        for r in rows:
            if not (isinstance(r["sup"], int) and r["sup"] > 0 and _finite_positive(r["normalized"])):
                bad.append(f"trilinear-scan: {r['geometry']} lam={r['lam']} sup {r['sup']!r}")
    elif experiment == "strichartz-scan":
        members = params["n_random"] + int(params["include_constant"])
        if len(rows) != members * len(params["N_list"]):
            bad.append(f"strichartz-scan: {len(rows)} rows for {members} members per N")
        bad += [f"strichartz-scan: n={r['n']} {r['member']} r_value {r['r_value']!r}"
                for r in rows if not _finite_positive(r["r_value"])]
    elif experiment == "symbol-bound-scan":
        for r in rows:
            if r["kind"] == "operator":
                ok = 0 <= r["max_ratio"] <= OPERATOR_CEILING
            else:
                ok = _finite_positive(r["max_ratio"]) if r["count"] else r["max_ratio"] == 0.0
            if not ok:
                bad.append(f"symbol-bound-scan: {r['kind']} N={r['N']} max_ratio {r['max_ratio']!r}")
    elif experiment == "energy-track":
        if not meta["mass_drift"] <= params["mass_tol"]:
            bad.append(f"energy-track: mass_drift {meta['mass_drift']!r} > {params['mass_tol']!r}")
        if len(rows) != params["n_samples"]:
            bad.append(f"energy-track: {len(rows)} rows for n_samples={params['n_samples']}")
        bad += [f"energy-track: t={r['t']} mass {r['mass']!r}"
                for r in rows if not _finite_positive(r["mass"])]
    return bad


def load_reference(workload: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_job(experiment: str, config: dict, params: dict, doc: dict, reference: list[dict]) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    problems = invariants(experiment, params, doc)
    for ref in reference:
        if ref["experiment"] == experiment and ref["config"] == config:
            problems += compare_rows(experiment, doc["rows"], ref["rows"])
            if experiment == "energy-track" and doc["meta"]["dt_effective"] != ref["dt_effective"]:
                problems.append(f"energy-track: dt_effective {doc['meta']['dt_effective']!r}, "
                                f"reference {ref['dt_effective']!r}")
    return problems


def tally(jobs: list, params: list[dict], outs: list[list[tuple]], reference: list[dict]):
    """Check a run's outputs: ``outs[p][j]`` is pass p's ``(document, csv)``
    for job j, or ``(None, error)`` if it raised.  Each job is checked once
    and every pass is compared with its first successful one.  Returns
    ``(problems, attempted, failed)``; a job fails in a pass if it raised,
    its output misses a check, or its CSV differs from the other passes'.
    """
    problems, attempted, failed = [], 0, 0
    for j, ((experiment, config), prm) in enumerate(zip(jobs, params)):
        results = [out[j] for out in outs]
        good = next((r for r in results if r[0] is not None), None)
        job_problems = check_job(experiment, config, prm, good[0], reference) if good else []
        problems += job_problems
        for doc, text in results:
            attempted += 1
            if doc is None:
                problems.append(text)
            elif text != good[1]:
                problems.append(f"{experiment}: CSV differs between passes of one run")
            if doc is None or text != good[1] or job_problems:
                failed += 1
    return problems, attempted, failed


def _write_reference() -> None:
    sys.path.insert(0, str(REFERENCE_DIR.parents[1] / "src"))
    from nlslab import cli
    from workloads import WORKLOADS, jobs, run_job

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        entries = []
        for experiment, config in jobs(workload, 0):
            doc, _ = run_job(cli, experiment, config)
            entry = {"experiment": experiment, "config": config, "rows": doc["rows"]}
            if experiment == "energy-track":
                entry["dt_effective"] = doc["meta"]["dt_effective"]
            entries.append(entry)
        with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"wrote {workload}: {sum(len(e['rows']) for e in entries)} rows")


if __name__ == "__main__":
    _write_reference()
