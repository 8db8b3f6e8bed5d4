"""Metric names, units and the per-layer numbers derived from a traced pass.

``END_TO_END`` is what ``--trace 0`` reports and ``PER_LAYER`` what
``--trace 1`` reports; both must match ``BENCHMARK.json``.  Each per-layer
entry also names the end-to-end metric and workload it should move, so a
later change can state its claim in these names before measuring.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import covered_share, self_times

#: name -> unit.  fail_ratio is printed beside these; it is 0 on a correct
#: run, so it travels as the result's ``attempted``/``failed`` counts rather
#: than as a bounded metric.
END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_norm_s": "s"}

#: (name, unit, better, what it should move)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("strichartz.exact_s", "s", "lower", "wall_norm_s on strichartz-growth"),
    ("strichartz.exact_calls", "count", "lower", "wall_norm_s on strichartz-growth"),
    ("strichartz.quadrature_s", "s", "lower", "wall_norm_s and peak_rss_mb on strichartz-growth"),
    ("strichartz.quadrature_members", "count", "higher", "wall_norm_s and peak_rss_mb on strichartz-growth"),
    ("plane.calibrate_s", "s", "lower", "wall_norm_s on lattice-reduction"),
    ("plane.verify_s", "s", "lower", "wall_norm_s on lattice-reduction"),
    ("plane.cells_verified", "count", "higher", "work size on lattice-reduction"),
    ("plane.spot_checked", "count", "higher", "work size on lattice-reduction"),
    ("lattice.count_points_s", "s", "lower", "wall_norm_s on lattice-reduction"),
    ("lattice.count_points_calls", "count", "lower", "wall_norm_s on lattice-reduction"),
    ("trilinear.sup_count_s", "s", "lower", "wall_norm_s on lattice-reduction"),
    ("trilinear.sup_count_calls", "count", "lower", "wall_norm_s on lattice-reduction"),
    ("galerkin.ftc_self_s", "s", "lower", "wall_norm_s and peak_rss_mb on energy-flux"),
    ("galerkin.integrate_s", "s", "lower", "wall_norm_s on energy-flux"),
    ("galerkin.rk4_steps", "count", "lower", "wall_norm_s on energy-flux"),
    ("symbols.tuples6_valid", "count", "higher", "work size on energy-flux"),
    ("symbols.tuples10_valid", "count", "higher", "work size on energy-flux"),
    ("symbols.bound_scan_self_s", "s", "lower", "wall_norm_s on symbol-envelope"),
    ("symbols.tuples_sampled", "count", "higher", "work size on symbol-envelope"),
    ("symbols.lambda_n_s", "s", "lower", "wall_norm_s on symbol-envelope"),
    ("symbols.lambda_n_calls", "count", "lower", "wall_norm_s on symbol-envelope"),
    ("symbols.energy_e1i_s", "s", "lower", "wall_norm_s on energy-flux, under 1%"),
    ("cli.self_s", "s", "lower", "wall_norm_s on all workloads, under 1%"),
    ("cli.render_s", "s", "lower", "wall_norm_s on all workloads, under 1%"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced raw wall_s per pass"),
    ("trace.noncli_share", "ratio", "higher", "none: share of traced raw wall_s inside non-cli spans"),
]

COUNTS = {name for name, unit, _, _ in PER_LAYER if unit == "count"}


def _rows(docs: list[dict], experiment: str) -> list[dict]:
    return [row for doc in docs if doc["experiment"] == experiment for row in doc["rows"]]


def pass_layers(spans: list[dict], docs: list[dict], wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, except the setup counts and overhead.

    Times are self times; counts come from the pass's inputs and results.
    """
    st = self_times(spans)
    calls = Counter(s["name"] for s in spans)
    energy = [d for d in docs if d["experiment"] == "energy-track"]
    scans = [d for d in docs if d["experiment"] == "symbol-bound-scan"]
    return {
        "strichartz.exact_s": st.get("strichartz.l6_time_integral_exact", 0.0),
        "strichartz.exact_calls": calls["strichartz.l6_time_integral_exact"],
        "strichartz.quadrature_s": st.get("strichartz.strichartz_scan", 0.0),
        "strichartz.quadrature_members": sum(
            r["method"] == "quadrature" for r in _rows(docs, "strichartz-scan")),
        "plane.calibrate_s": st.get("plane.calibrate_reduction", 0.0),
        "plane.verify_s": st.get("plane.verify_reduction", 0.0),
        "plane.cells_verified": sum(r["cells"] for r in _rows(docs, "reduction-verify")),
        "plane.spot_checked": sum(r["spot_checked"] for r in _rows(docs, "reduction-verify")),
        "lattice.count_points_s": st.get("lattice.count_points", 0.0),
        "lattice.count_points_calls": calls["lattice.count_points"],
        "trilinear.sup_count_s": st.get("trilinear.sup_count_A", 0.0),
        "trilinear.sup_count_calls": calls["trilinear.sup_count_A"],
        "galerkin.ftc_self_s": st.get("galerkin.ftc_residual", 0.0),
        "galerkin.integrate_s": st.get("galerkin.integrate_galerkin", 0.0),
        "galerkin.rk4_steps": sum(
            round(d["params"]["T"] / d["meta"]["dt_effective"]) for d in energy),
        "symbols.bound_scan_self_s": st.get("symbols.bound_scan_symbols", 0.0),
        "symbols.tuples_sampled": sum(
            d["params"]["samples"] * len(d["params"]["N_list"]) for d in scans),
        "symbols.lambda_n_s": st.get("symbols.lambda_n_evaluate", 0.0),
        "symbols.lambda_n_calls": calls["symbols.lambda_n_evaluate"],
        "symbols.energy_e1i_s": st.get("symbols.energy_e1i", 0.0),
        "cli.self_s": st.get("cli.run_experiment", 0.0),
        "cli.render_s": st.get("cli.render", 0.0),
        "trace.noncli_share": covered_share(spans, wall),
    }


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes; a count is taken from the first pass and
    must repeat exactly in the others."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNTS:
            if len(set(values)) != 1:
                raise ValueError(f"count {name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]
