"""Experiment runner: one subcommand per scan, JSON/CSV reports.

Config files are flat JSON objects (one document per experiment); every key
must be a declared parameter of the chosen experiment.  The seed resolves as
--seed flag > config "seed" > 0.  Reports carry {experiment, params, rows,
meta}; rows are a pure function of (config, seed, version), so reruns are
byte-identical (meta.wall_ms excepted in JSON).

Exit codes: 0 success, 2 validation error, 3 cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .errors import (
    CalibrationError,
    CapExceededError,
    ConfigError,
    IntegrationError,
)
from .fourier import FourierState
from .galerkin import (
    check_flux_cap,
    energy_drift,
    ftc_residual,
    hamiltonian_energy,
    integrate_galerkin,
)
from .lattice import (
    CLOSED_CLOSED,
    CLOSED_OPEN,
    AnnulusSpec,
    HEX_FORM,
    SQUARE_FORM,
    annulus_area,
    count_points,
    scan_hypothesis_h,
)
from .plane import calibrate_reduction, verify_reduction
from .rng import stream
from .strichartz import h_spectrum, strichartz_scan, sup_dyadic_block_average
from .symbols import MultiplierParams, bound_scan_symbols
from .trilinear import DEFAULT_BOX_CAP, normalized_sup_trend, standard_geometries


@dataclass(frozen=True)
class Param:
    """One declared config field; declaration order fixes echo/column order."""

    name: str
    kind: str  # int | float | bool | str | ints | rat
    default: object = None
    choices: Optional[tuple] = None
    nonempty: bool = False


def _parse_rat(raw, where: str) -> Fraction:
    # floats are rejected: annulus geometry is exact-rational by contract
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ConfigError(f"{where}: expected an integer or 'p/q' string")
    try:
        return Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ConfigError(f"{where}: expected an integer or 'p/q' string") from None


def _coerce(p: Param, raw, where: str):
    if p.kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{where}: expected an integer")
        return raw
    if p.kind == "float":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{where}: expected a number")
        return float(raw)
    if p.kind == "bool":
        if not isinstance(raw, bool):
            raise ConfigError(f"{where}: expected true/false")
        return raw
    if p.kind == "str":
        if not isinstance(raw, str):
            raise ConfigError(f"{where}: expected a string")
        if p.choices and raw not in p.choices:
            raise ConfigError(f"{where}: must be one of {sorted(p.choices)}")
        return raw
    if p.kind == "ints":
        if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in raw
        ):
            raise ConfigError(f"{where}: expected a list of integers")
        if p.nonempty and not raw:
            raise ConfigError(f"{where}: must be nonempty")
        return list(raw)
    if p.kind == "rat":
        return _parse_rat(raw, where)
    raise AssertionError(p.kind)


def resolve_params(exp: "Experiment", config: dict) -> dict:
    declared = {p.name for p in exp.params}
    for key in config:
        if key != "seed" and key not in declared:
            raise ConfigError(f"{exp.name}.{key}: unknown parameter")
    out = {}
    for p in exp.params:
        where = f"{exp.name}.{p.name}"
        if p.name in config:
            out[p.name] = _coerce(p, config[p.name], where)
        elif p.default is None:
            raise ConfigError(f"{where}: required parameter missing")
        else:
            out[p.name] = _coerce(p, p.default, where)
    return out


# ---------------------------------------------------------------------------
# experiment runners: fn(params, seed) -> (rows, meta_extras)


def _run_annulus_count(q: dict, seed: int):
    form = HEX_FORM if q["form"] == "hex" else SQUARE_FORM
    bounds = CLOSED_CLOSED if q["bounds"] == "closed-closed" else CLOSED_OPEN
    spec = AnnulusSpec((q["center_x"], q["center_y"]), q["r1sq"], q["r2sq"], bounds)
    cnt = count_points(form, spec)
    row = {
        "form": q["form"],
        "center_x": str(q["center_x"]),
        "center_y": str(q["center_y"]),
        "r1sq": str(q["r1sq"]),
        "r2sq": str(q["r2sq"]),
        "bounds": q["bounds"],
        "count": cnt,
        "gauss_error": cnt - annulus_area(form, spec),
    }
    return [row], {}


def _run_hypothesis_scan(q: dict, seed: int):
    records, sups = scan_hypothesis_h(
        q["alpha"],
        q["N_list"],
        k_random=q["k_random"],
        seed=seed,
        include_adversarial=q["include_adversarial"],
    )
    rows = [
        {
            "n": r.n,
            "center_id": r.center_id,
            "center_x": str(r.center[0]),
            "center_y": str(r.center[1]),
            "count": r.count,
            "normalized": r.normalized,
        }
        for r in records
    ]
    return rows, {"sup_by_n": {str(n): v for n, v in sorted(sups.items())}}


def _run_reduction_verify(q: dict, seed: int):
    ns = range(q["n_min"], q["n_max"] + 1)
    calib = calibrate_reduction(ns, q["K_list"], q["radius_cap"])
    rep = verify_reduction(
        calib, ns, q["K_list"], q["radius_cap"], spot_checks=q["spot_checks"], seed=seed
    )
    row = {
        "scale": str(calib.radius_scale),
        "offset_r0": f"{calib.offsets[0][0]},{calib.offsets[0][1]}",
        "offset_r1": f"{calib.offsets[1][0]},{calib.offsets[1][1]}",
        "offset_r2": f"{calib.offsets[2][0]},{calib.offsets[2][1]}",
        "cells": rep.total,
        "failures": len(rep.failures),
        "spot_checked": rep.spot_checked,
        "passed": rep.passed,
    }
    return [row], {}


def _run_h_spectrum(q: dict, seed: int):
    N = q["N"]
    if q["profile"] == "constant":
        mags = {j: 1.0 for j in range(-N, N + 1)}
    else:
        rng = stream(seed, 1)
        mags = {j: float(abs(rng.normal())) for j in range(-N, N + 1)}
    h = h_spectrum(mags, N, n_cap=q["n_cap"])
    rows = [{"tau": t, "h": h.values[t]} for t in sorted(h.values)]
    sup, arg_k = sup_dyadic_block_average(h, q["alpha"])
    return rows, {
        "tau_max": h.tau_max,
        "h0": h[0],
        "block_sup": sup,
        "block_arg_K": arg_k,
    }


def _run_strichartz_scan(q: dict, seed: int):
    res = strichartz_scan(
        q["alpha"],
        q["N_list"],
        n_random=q["n_random"],
        include_constant=q["include_constant"],
        seed=seed,
    )
    rows = [
        {"n": r.n, "member": r.member, "r_value": r.r_value, "method": r.method}
        for r in res.records
    ]
    return rows, {
        "slope": res.slope,
        "max_r": {str(n): v for n, v in sorted(res.max_r.items())},
        "time_nodes": {str(n): w[1] for n, w in sorted(res.work.items())},
        "panels": {str(n): w[0] for n, w in sorted(res.work.items())},
        "grid": {str(n): w[2] for n, w in sorted(res.work.items())},
    }


def _run_trilinear_scan(q: dict, seed: int):
    names = [n for n, _ in standard_geometries(q["lam_list"][0])]
    chosen = names if q["geometry"] == "all" else [q["geometry"]]
    rows, slopes, triples, counted = [], {}, {}, {}
    for name in chosen:
        rep = normalized_sup_trend(name, q["lam_list"], box_cap=q["box_cap"])
        slopes[name] = rep.slope
        triples[name] = {str(pt.lam): pt.triples for pt in rep.points}
        counted[name] = {str(pt.lam): pt.counted for pt in rep.points}
        for pt in rep.points:
            rows.append(
                {
                    "geometry": name,
                    "lam": pt.lam,
                    "sup": pt.sup,
                    "normalized": pt.normalized,
                    "arg_n": "" if pt.arg_n is None else str(pt.arg_n),
                    "arg_tau": "" if pt.arg_tau is None else str(pt.arg_tau),
                }
            )
    return rows, {"slopes": slopes, "triples": triples, "counted": counted}


def _run_symbol_bound_scan(q: dict, seed: int):
    rep = bound_scan_symbols(
        q["s"],
        q["samples"],
        q["N_list"],
        seed,
        lam=q["lam"],
        operator_modes=q["operator_modes"],
        operator_states=q["operator_states"],
    )
    rows = [
        {
            "kind": r.kind,
            "N": r.N,
            "max_ratio": r.max_ratio,
            "count": r.count,
            "gap_count": r.gap_count,
            "collapsed_count": r.collapsed_count,
            "collapsed_max": r.collapsed_max,
        }
        for r in rep.records
    ]
    return rows, {
        "classified": {str(n): c for n, c, _ in rep.work},
        "operator_tuples": {str(n): t for n, _, t in rep.work},
    }


def _run_energy_track(q: dict, seed: int):
    if q["sign"] not in (1, -1):
        raise ConfigError("energy-track.sign: must be 1 or -1")
    for name in ("T", "dt", "mass_tol"):
        if not q[name] > 0:  # NaN too
            raise ConfigError(f"energy-track.{name}: must be positive")
    if q["n_samples"] < 3 or q["n_samples"] % 2 == 0:
        raise ConfigError("energy-track.n_samples: must be odd and at least 3")
    support = q["support"]
    if len(set(support)) != len(support):
        raise ConfigError("energy-track.support: modes must be distinct")
    check_flux_cap(len(support))
    p = MultiplierParams(q["multiplier_N"], q["s"])
    rng = stream(seed, 0)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    state = FourierState.from_uhat(q["lam"], dict(zip(support, amps)))
    traj = integrate_galerkin(
        state,
        q["T"],
        dt=q["dt"],
        sign=q["sign"],
        n_samples=q["n_samples"],
        mass_tol=q["mass_tol"],
    )
    rep = ftc_residual(traj, p)
    rows = [
        {
            "t": float(traj.times[i]),
            "mass": float(np.sum(np.abs(traj.uhats[i]) ** 2)),
            "hamiltonian": hamiltonian_energy(traj.state(i), q["sign"]),
            "e1": rep.e1[i],
        }
        for i in range(traj.n_samples)
    ]
    return rows, {
        "residual": rep.residual,
        "relative": rep.relative,
        "resonant_integral": rep.resonant_integral,
        "tenlinear_integral": rep.tenlinear_integral,
        "mass_drift": rep.mass_drift,
        "energy_drift": energy_drift(traj),
        "dt_effective": traj.dt,
        "rk4_steps": traj.rk4_steps,
        "quintic_points": traj.quintic_points,
        "halvings": traj.halvings,
    }


@dataclass(frozen=True)
class Experiment:
    name: str
    params: tuple
    row_fields: tuple
    run: Callable


EXPERIMENTS = {
    e.name: e
    for e in [
        Experiment(
            "annulus-count",
            (
                Param("form", "str", "hex", choices=("hex", "square")),
                Param("center_x", "rat", 0),
                Param("center_y", "rat", 0),
                Param("r1sq", "rat", 0),
                Param("r2sq", "rat", 400),
                Param(
                    "bounds",
                    "str",
                    "closed-closed",
                    choices=("closed-closed", "closed-open"),
                ),
            ),
            ("form", "center_x", "center_y", "r1sq", "r2sq", "bounds", "count", "gauss_error"),
            _run_annulus_count,
        ),
        Experiment(
            "hypothesis-scan",
            (
                Param("alpha", "float", 0.68),
                Param("N_list", "ints", [16, 32, 64, 128, 256], nonempty=True),
                Param("k_random", "int", 8),
                Param("include_adversarial", "bool", True),
            ),
            ("n", "center_id", "center_x", "center_y", "count", "normalized"),
            _run_hypothesis_scan,
        ),
        Experiment(
            "reduction-verify",
            (
                Param("n_min", "int", -30),
                Param("n_max", "int", 30),
                Param("K_list", "ints", [1, 2, 4, 8], nonempty=True),
                Param("radius_cap", "int", 900),
                Param("spot_checks", "int", 32),
            ),
            (
                "scale",
                "offset_r0",
                "offset_r1",
                "offset_r2",
                "cells",
                "failures",
                "spot_checked",
                "passed",
            ),
            _run_reduction_verify,
        ),
        Experiment(
            "h-spectrum",
            (
                Param("N", "int", 8),
                Param("profile", "str", "constant", choices=("constant", "random")),
                Param("alpha", "float", 0.7),
                Param("n_cap", "int", 16),
            ),
            ("tau", "h"),
            _run_h_spectrum,
        ),
        Experiment(
            "strichartz-scan",
            (
                Param("alpha", "float", 0.7),
                Param("N_list", "ints", [16, 32, 64, 128], nonempty=True),
                Param("n_random", "int", 4),
                Param("include_constant", "bool", True),
            ),
            ("n", "member", "r_value", "method"),
            _run_strichartz_scan,
        ),
        Experiment(
            "trilinear-scan",
            (
                Param(
                    "geometry",
                    "str",
                    "all",
                    choices=("all", "separated", "enhanced", "comparable"),
                ),
                Param("lam_list", "ints", [8, 16, 32, 64], nonempty=True),
                Param("box_cap", "int", DEFAULT_BOX_CAP),
            ),
            ("geometry", "lam", "sup", "normalized", "arg_n", "arg_tau"),
            _run_trilinear_scan,
        ),
        Experiment(
            "symbol-bound-scan",
            (
                Param("s", "float", 0.5),
                Param("samples", "int", 20000),
                Param("N_list", "ints", [64, 256, 1024], nonempty=True),
                Param("lam", "int", 1),
                Param("operator_modes", "int", 9),
                Param("operator_states", "int", 8),
            ),
            (
                "kind",
                "N",
                "max_ratio",
                "count",
                "gap_count",
                "collapsed_count",
                "collapsed_max",
            ),
            _run_symbol_bound_scan,
        ),
        Experiment(
            "energy-track",
            (
                Param("lam", "float", 4.0),
                Param("support", "ints", [0, 4, 8, 20], nonempty=True),
                Param("T", "float", 0.1),
                Param("dt", "float", 0.025),
                Param("n_samples", "int", 5),
                Param("sign", "int", 1),
                Param("mass_tol", "float", 1e-8),
                Param("multiplier_N", "int", 4),
                Param("s", "float", 0.5),
            ),
            ("t", "mass", "hamiltonian", "e1"),
            _run_energy_track,
        ),
    ]
}


# ---------------------------------------------------------------------------
# document assembly and serialization


def _echo(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def run_experiment(name: str, config: dict, seed: int, threads: int) -> dict:
    exp = EXPERIMENTS[name]
    q = resolve_params(exp, config)
    t0 = time.perf_counter()
    rows, extras = exp.run(q, seed)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    for row in rows:
        if tuple(row) != exp.row_fields:
            raise AssertionError(f"row schema drift in {name}")
    meta = {"seed": seed, "version": __version__, "wall_ms": wall_ms}
    meta.update(extras)
    if threads != 1:
        meta["threads"] = threads
    return {
        "experiment": name,
        "params": {p.name: _echo(q[p.name]) for p in exp.params},
        "rows": rows,
        "meta": meta,
    }


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # shortest round-trip decimal
    return str(v)


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    exp = EXPERIMENTS[doc["experiment"]]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(exp.row_fields)
    for row in doc["rows"]:
        w.writerow([_csv_cell(row[f]) for f in exp.row_fields])
    return buf.getvalue()


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab", description="Deterministic experiment runner."
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, metavar="PATH")
        sp.add_argument("--seed", type=int, default=None, metavar="U64")
        sp.add_argument("--out", default=None, metavar="PATH")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--threads", type=int, default=1, metavar="N")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError("seed: expected an unsigned 64-bit integer")
        if args.threads < 1:
            raise ConfigError("threads: must be at least 1")
        doc = run_experiment(args.experiment, config, seed, args.threads)
        text = render(doc, args.format)
    except CapExceededError as e:
        print(f"nlslab: cap refusal: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"nlslab: error: {e}", file=sys.stderr)
        return 2
    except (CalibrationError, IntegrationError, ArithmeticError) as e:
        print(f"nlslab: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
