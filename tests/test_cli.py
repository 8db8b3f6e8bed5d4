"""End-to-end tests for the experiment runner: schemas, determinism, exit codes."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nlslab
from nlslab import cli, symbols
from nlslab.cli import EXPERIMENTS, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

ANNULUS_CSV_GOLDEN = (
    "form,center_x,center_y,r1sq,r2sq,bounds,count,gauss_error\n"
    "hex,0,0,0,400,closed-closed,1459,7.960508612625517\n"
)


#: trilinear-scan at its default config, as computed by the full-grid
#: enumeration with a window search at every shell position.
TRILINEAR_CSV_GOLDEN = (
    "geometry,lam,sup,normalized,arg_n,arg_tau\n"
    "separated,8,11,0.5288461538461539,22,291\n"
    "separated,16,37,0.550595238095238,22,37309/128\n"
    "separated,32,137,0.5785472972972973,22,149357/512\n"
    "separated,64,535,0.6057518115942029,23,634745/2048\n"
    "enhanced,8,2,0.23371880706025563,73,135791/32\n"
    "enhanced,16,3,0.16457142857142856,73,135791/32\n"
    "enhanced,32,7,0.1710794297352342,73,2138187/512\n"
    "enhanced,64,24,0.24080267558528426,77,8736723/2048\n"
    "comparable,8,18,0.6136363636363636,32,4531/8\n"
    "comparable,16,59,0.5822368421052632,31,67129/128\n"
    "comparable,32,221,0.5919642857142857,31,269307/512\n"
    "comparable,64,862,0.6030783582089553,31,67187/128\n"
)


def run_cli(tmp_path, args, config=None):
    """Invoke main() with an optional config dict; returns (rc, out_path)."""
    out = tmp_path / "report.out"
    argv = list(args) + ["--out", str(out)]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    return main(argv), out


class TestGoldenFiles:
    def test_annulus_count_csv(self, tmp_path):
        rc, out = run_cli(tmp_path, ["annulus-count", "--format", "csv"])
        assert rc == 0
        assert out.read_text() == ANNULUS_CSV_GOLDEN

    def test_annulus_count_json_round_trip(self, tmp_path):
        rc, out = run_cli(tmp_path, ["annulus-count"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "annulus-count"
        # parameter echo preserves declared order
        assert list(doc["params"]) == [p.name for p in EXPERIMENTS["annulus-count"].params]
        assert doc["rows"] == [
            {
                "form": "hex",
                "center_x": "0",
                "center_y": "0",
                "r1sq": "0",
                "r2sq": "400",
                "bounds": "closed-closed",
                "count": 1459,
                "gauss_error": 7.960508612625517,
            }
        ]
        for key in ("seed", "version", "wall_ms"):
            assert key in doc["meta"]

    def test_annulus_count_counts_once(self, tmp_path, monkeypatch):
        from nlslab import lattice

        calls, lattice_count = [], lattice.count_points

        def counted(*args):
            calls.append(args)
            return lattice_count(*args)

        monkeypatch.setattr(lattice, "count_points", counted)
        monkeypatch.setattr(cli, "count_points", counted)
        rc, out = run_cli(tmp_path, ["annulus-count", "--format", "csv"])
        assert rc == 0 and out.read_text() == ANNULUS_CSV_GOLDEN
        assert len(calls) == 1

    def test_csv_columns_match_declared_order(self, tmp_path):
        rc, out = run_cli(tmp_path, ["h-spectrum", "--format", "csv"], config={"N": 2})
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",") == list(EXPERIMENTS["h-spectrum"].row_fields)


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = {"N_list": [16, 32], "k_random": 3}
        rc1, out1 = run_cli(
            tmp_path, ["hypothesis-scan", "--seed", "5", "--format", "csv"], config=cfg
        )
        text1 = out1.read_text()
        rc2, out2 = run_cli(
            tmp_path, ["hypothesis-scan", "--seed", "5", "--format", "csv"], config=cfg
        )
        assert rc1 == rc2 == 0
        assert text1 == out2.read_text()

    def test_seed_flag_overrides_config(self, tmp_path):
        rc, out = run_cli(
            tmp_path, ["h-spectrum", "--seed", "9"], config={"seed": 4, "N": 2}
        )
        assert json.loads(out.read_text())["meta"]["seed"] == 9
        rc, out = run_cli(tmp_path, ["h-spectrum"], config={"seed": 4, "N": 2})
        assert json.loads(out.read_text())["meta"]["seed"] == 4

    def test_csv_floats_round_trip_to_json_values(self, tmp_path):
        cfg = {"N_list": [16], "k_random": 2, "include_adversarial": False}
        _, jout = run_cli(tmp_path, ["hypothesis-scan", "--seed", "1"], config=cfg)
        doc = json.loads(jout.read_text())
        _, cout = run_cli(
            tmp_path, ["hypothesis-scan", "--seed", "1", "--format", "csv"], config=cfg
        )
        lines = cout.read_text().splitlines()
        for row, line in zip(doc["rows"], lines[1:]):
            assert float(line.split(",")[-1]) == row["normalized"]

    def test_lf_line_endings(self, tmp_path):
        _, out = run_cli(tmp_path, ["annulus-count", "--format", "csv"])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestValidation:
    def test_unknown_experiment_is_parse_error(self):
        with pytest.raises(SystemExit) as ei:
            main(["no-such-experiment"])
        assert ei.value.code == 2

    def test_empty_n_list_rejected(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, ["hypothesis-scan"], config={"N_list": []})
        assert rc == 2
        assert "hypothesis-scan.N_list" in capsys.readouterr().err

    def test_unknown_key_reports_field_path(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, ["hypothesis-scan"], config={"bogus": 1})
        assert rc == 2
        assert "hypothesis-scan.bogus" in capsys.readouterr().err

    def test_float_rejected_for_rational_field(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, ["annulus-count"], config={"center_x": 0.5})
        assert rc == 2
        assert "annulus-count.center_x" in capsys.readouterr().err

    def test_rational_string_accepted(self, tmp_path):
        rc, out = run_cli(
            tmp_path,
            ["annulus-count", "--format", "csv"],
            config={"center_x": "1/2", "center_y": "1/2", "r2sq": 100},
        )
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("hex,1/2,1/2,")

    def test_cap_refusal_exit_code(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, ["h-spectrum"], config={"N": 32})
        assert rc == 3
        assert "cap" in capsys.readouterr().err

    def test_trilinear_box_cap_refusal(self, tmp_path, capsys):
        # comparable at lam = 1024 has a 4097 x 4097 candidate grid, above
        # the default 10M cap; lam = 512 (2049 x 2049) is within it
        rc, out = run_cli(
            tmp_path,
            ["trilinear-scan"],
            config={"geometry": "comparable", "lam_list": [8, 1024]},
        )
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    def test_reduction_radius_cap_refusal(self, tmp_path, capsys):
        config = {"n_min": 0, "n_max": 2, "K_list": [64], "radius_cap": 100_001}
        rc, out = run_cli(tmp_path, ["reduction-verify"], config=config)
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    def test_reduction_grid_missing_a_residue_is_refused(self, tmp_path, capsys):
        # one plane of residue 0: no offset of residue 1 or 2 could be checked
        config = {"n_min": 0, "n_max": 0, "K_list": [64], "radius_cap": 200_000}
        rc, out = run_cli(tmp_path, ["reduction-verify"], config=config)
        assert rc == 2
        assert "residue" in capsys.readouterr().err
        assert not out.exists()

    def test_energy_track_cap_refusal(self, tmp_path, capsys, monkeypatch):
        # 13 modes exceed the arity-6 cap of the flow identity's tables; the
        # refusal comes before any flow is integrated
        from nlslab import cli

        def no_flow(*args, **kwargs):
            raise AssertionError("flow integrated for an over-cap support")

        monkeypatch.setattr(cli, "integrate_galerkin", no_flow)
        config = {"support": list(range(0, 52, 4)), "T": 1.0, "dt": 1e-4}
        rc, out = run_cli(tmp_path, ["energy-track"], config=config)
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    def test_energy_track_grid_cap_refusal(self, tmp_path, capsys):
        # three modes on a compressed grid of 10**7 + 1: the quintic would
        # take 3 * 10**7 - 1 evaluation points, and E and F about 1.4 GB; the
        # refusal comes before either is allocated
        tracemalloc.start()
        try:
            rc, out = run_cli(tmp_path, ["energy-track"], config={"support": [0, 1, 10**7]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 24

    def test_energy_track_bad_multiplier_before_flow(self, tmp_path, capsys, monkeypatch):
        # a non-dyadic cutoff is refused before the 10,000-step flow runs
        def no_flow(*args, **kwargs):
            raise AssertionError("flow integrated for an invalid multiplier_N")

        monkeypatch.setattr(cli, "integrate_galerkin", no_flow)
        config = {"multiplier_N": 3, "T": 1.0, "dt": 1e-4}
        rc, out = run_cli(tmp_path, ["energy-track"], config=config)
        assert rc == 2
        assert "dyadic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,field,message",
        [
            ({"T": 0.0}, "T", "must be positive"),
            ({"T": 0.0, "n_samples": 4}, "T", "must be positive"),
            ({"n_samples": 4}, "n_samples", "must be odd and at least 3"),
            ({"dt": 0.0}, "dt", "must be positive"),
            ({"mass_tol": -1}, "mass_tol", "must be positive"),
            ({"mass_tol": 0}, "mass_tol", "must be positive"),
            ({"mass_tol": float("nan")}, "mass_tol", "must be positive"),
        ],
        ids=["T0", "T0-even", "even", "dt0", "tol-neg", "tol0", "tol-nan"],
    )
    def test_energy_track_bad_window_before_flow(self, tmp_path, capsys, monkeypatch, config, field, message):
        # a T = 0 window used to write one row whatever n_samples said, an
        # even count or dt = 0 failed with the library's text, naming no
        # field, and a mass_tol that no drift can meet ran every halving
        def no_flow(*args, **kwargs):
            raise AssertionError("flow integrated for an invalid window")

        monkeypatch.setattr(cli, "integrate_galerkin", no_flow)
        rc, out = run_cli(tmp_path, ["energy-track"], config=config)
        assert rc == 2
        assert f"energy-track.{field}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,module,work",
        [
            ("symbol-bound-scan", "symbols", "_classify_batch"),
            ("strichartz-scan", "strichartz", "_scan_members"),
            ("hypothesis-scan", "lattice", "count_points"),
        ],
        ids=["symbol-bound-scan", "strichartz-scan", "hypothesis-scan"],
    )
    def test_bad_cutoff_before_work(self, tmp_path, capsys, monkeypatch, experiment, module, work):
        # the invalid cutoff is last in N_list; it is refused before the
        # valid one ahead of it is worked on
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before the cutoffs were validated")

        monkeypatch.setattr(importlib.import_module(f"nlslab.{module}"), work, no_work)
        rc, out = run_cli(tmp_path, [experiment], config={"N_list": [16, 0]})
        assert rc == 2
        assert "N must be" in capsys.readouterr().err
        assert not out.exists()

    # neither reaches a row: the scanned symbols do not depend on the sign,
    # and the cutoffs are the N_list values
    @pytest.mark.parametrize("name,value", [("sign", -1), ("multiplier_N", 16)], ids=["sign", "multiplier_N"])
    def test_symbol_bound_scan_rejects_dead_fields(self, tmp_path, capsys, name, value):
        rc, _ = run_cli(tmp_path, ["symbol-bound-scan"], config={name: value})
        assert rc == 2
        assert f"symbol-bound-scan.{name}: unknown parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment,config,name",
        [
            ("symbol-bound-scan", {"operator_states": -5}, "operator_states"),
            ("symbol-bound-scan", {"operator_modes": 0}, "operator_modes"),
            ("hypothesis-scan", {"k_random": -3}, "k_random"),
            ("reduction-verify", {"spot_checks": -4}, "spot_checks"),
        ],
        ids=["operator-states", "operator-modes", "k-random", "spot-checks"],
    )
    def test_negative_counts_rejected(self, tmp_path, capsys, experiment, config, name):
        rc, out = run_cli(tmp_path, [experiment], config=config)
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [{"n_random": -1}, {"n_random": 0, "include_constant": False}],
        ids=["negative-n-random", "no-members"],
    )
    def test_strichartz_scan_without_members_rejected(self, tmp_path, capsys, config):
        rc, out = run_cli(tmp_path, ["strichartz-scan"], config=dict(config, N_list=[4, 8]))
        assert rc == 2
        assert "n_random" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_threads(self, tmp_path):
        rc, _ = run_cli(tmp_path, ["annulus-count", "--threads", "0"])
        assert rc == 2

    def test_bad_format_flag(self):
        with pytest.raises(SystemExit) as ei:
            main(["annulus-count", "--format", "xml"])
        assert ei.value.code == 2


#: Per experiment, a tiny base config and one perturbed value for each of its
#: declared settings.
PERTURBATIONS = {
    "annulus-count": (
        {},
        {"form": "square", "center_x": "1/2", "center_y": "1/3", "r1sq": 100, "r2sq": 300, "bounds": "closed-open"},
    ),
    "hypothesis-scan": (
        {"N_list": [16], "k_random": 1},
        {"alpha": 0.5, "N_list": [32], "k_random": 2, "include_adversarial": False},
    ),
    "reduction-verify": (
        {"n_min": -3, "n_max": 3, "K_list": [1, 2], "radius_cap": 100, "spot_checks": 2},
        {"n_min": -4, "n_max": 4, "K_list": [1, 2, 4], "radius_cap": 50, "spot_checks": 3},
    ),
    "h-spectrum": (
        {"N": 4, "profile": "random"},
        {"N": 8, "profile": "constant", "alpha": 0.5, "n_cap": 3},
    ),
    "strichartz-scan": (
        {"N_list": [4], "n_random": 1},
        {"alpha": 0.5, "N_list": [8], "n_random": 2, "include_constant": False},
    ),
    "trilinear-scan": (
        {"geometry": "separated", "lam_list": [8, 16]},
        {"geometry": "enhanced", "lam_list": [8, 32], "box_cap": 10},
    ),
    "symbol-bound-scan": (
        {"samples": 200, "N_list": [16], "operator_modes": 3, "operator_states": 1},
        {"s": 0.3, "samples": 300, "N_list": [32], "lam": 2, "operator_modes": 4, "operator_states": 2},
    ),
    "energy-track": (
        {"T": 0.05, "dt": 0.025, "n_samples": 3},
        {"lam": 2.0, "support": [0, 4, 8], "T": 0.1, "dt": 0.0125, "n_samples": 5, "sign": -1,
         "mass_tol": 1e-16, "multiplier_N": 8, "s": 0.3},
    ),
}


#: The perturbations above that must fail, with their exit codes; every other
#: one must still succeed, so its change shows in the rows or the meta.
PERTURBED_EXIT = {("h-spectrum", "n_cap"): 3, ("trilinear-scan", "box_cap"): 3, ("energy-track", "mass_tol"): 2}


def outcome(tmp_path, experiment, config):
    """(exit code, rows, meta without wall_ms); rows and meta None on failure."""
    rc, out = run_cli(tmp_path, [experiment], config=config)
    if rc:
        return rc, None, None
    doc = json.loads(out.read_text())
    doc["meta"].pop("wall_ms")
    return rc, doc["rows"], doc["meta"]


class TestNoDeadSettings:
    def test_every_setting_is_perturbed(self):
        declared = {name: {p.name for p in exp.params} for name, exp in EXPERIMENTS.items()}
        assert {name: set(changes) for name, (_, changes) in PERTURBATIONS.items()} == declared

    @pytest.mark.parametrize(
        "experiment,name",
        [(e, n) for e, (_, changes) in PERTURBATIONS.items() for n in changes],
        ids=lambda v: v,
    )
    def test_setting_reaches_the_output(self, tmp_path, experiment, name):
        # a setting that changes neither the rows, the meta nor the exit code
        # does nothing
        base, changes = PERTURBATIONS[experiment]
        before = outcome(tmp_path, experiment, base)
        assert before[0] == 0
        after = outcome(tmp_path, experiment, dict(base, **{name: changes[name]}))
        assert after[0] == PERTURBED_EXIT.get((experiment, name), 0)
        assert after != before


class TestExperiments:
    def test_reduction_verify_default_grid_all_pass(self, tmp_path):
        rc, out = run_cli(tmp_path, ["reduction-verify"])
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["passed"] is True and row["failures"] == 0
        assert row["scale"] == "1/2"

    def test_h_spectrum_rows_sorted(self, tmp_path):
        rc, out = run_cli(
            tmp_path, ["h-spectrum"], config={"N": 4, "profile": "random"}
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        taus = [r["tau"] for r in doc["rows"]]
        assert taus == sorted(taus) and taus[0] == 0
        assert doc["meta"]["h0"] == doc["rows"][0]["h"]

    def test_strichartz_scan_meta(self, tmp_path):
        rc, out = run_cli(
            tmp_path,
            ["strichartz-scan"],
            config={"N_list": [16, 32], "n_random": 1},
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["meta"]["max_r"]) == {"16", "32"}
        assert len(doc["rows"]) == 4  # (const + 1 random) per N
        # GL-64 panels of omega*L <= 166.39 with omega = floor(8N²/3), at
        # T = N^-0.7; grid: the smallest 5-smooth size >= 6N + 1
        assert doc["meta"]["panels"] == {"16": 1, "32": 2}
        assert doc["meta"]["time_nodes"] == {"16": 64, "32": 128}
        assert doc["meta"]["grid"] == {"16": 100, "32": 200}

    def test_symbol_bound_scan_work_counts(self, tmp_path):
        # meta counts the tuples classified and the operator tables' stored
        # rows per cutoff.  One mode stores 1 six-tuple; two distinct modes
        # a, b store 20: the triple sums 3a, 2a+b, a+2b, 3b occur 1, 3, 3, 1
        # times and a stored row pairs two triples of one sum.
        for modes, per_state in ((1, 1), (2, 20)):
            config = {"samples": 300, "N_list": [16, 64], "operator_states": 3, "operator_modes": modes}
            rc, out = run_cli(tmp_path, ["symbol-bound-scan", "--seed", "4"], config=config)
            assert rc == 0
            meta = json.loads(out.read_text())["meta"]
            assert meta["classified"] == {"16": 300, "64": 300}
            assert meta["operator_tuples"] == {"16": 3 * per_state, "64": 3 * per_state}
            # the CSV rows are the plain library scan's records, byte for byte
            rc, out = run_cli(tmp_path, ["symbol-bound-scan", "--seed", "4", "--format", "csv"], config=config)
            assert rc == 0
            rep = symbols.bound_scan_symbols(0.5, 300, [16, 64], 4, operator_modes=modes, operator_states=3)
            plain = {"experiment": "symbol-bound-scan", "rows": [dataclasses.asdict(r) for r in rep.records]}
            assert out.read_bytes() == cli.render(plain, "csv").encode()

    def test_energy_track_rows(self, tmp_path):
        rc, out = run_cli(
            tmp_path,
            ["energy-track", "--seed", "9"],
            config={"T": 0.05, "dt": 0.0125, "n_samples": 5},
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 5
        masses = [r["mass"] for r in doc["rows"]]
        assert max(masses) - min(masses) <= 1e-8
        assert doc["meta"]["relative"] <= 1e-9
        # four sample intervals of 0.0125 at dt 0.0125, accepted first time
        assert (doc["meta"]["rk4_steps"], doc["meta"]["halvings"]) == (4, 0)
        # positions 0, 1, 2, 5 of [0, 4, 8, 20] on a grid of L = 6: M = 3L - 2
        assert doc["meta"]["quintic_points"] == 16

    def test_energy_track_counts_every_attempt(self):
        # two sample intervals of 0.1: dt 0.1 halves twice to 0.025, whose
        # mass drift meets the tolerance, after 2 + 4 + 8 steps
        doc = cli.run_experiment("energy-track", {"T": 0.2, "dt": 0.1, "n_samples": 3}, 0, 1)
        meta = doc["meta"]
        assert (meta["dt_effective"], meta["halvings"], meta["rk4_steps"]) == (0.025, 2, 14)

    @pytest.mark.parametrize("workload", sorted(p.stem for p in (BENCH / "reference").glob("*.json")))
    def test_workload_matches_benchmark_reference(self, workload):
        # the benchmark's jobs at seed 0 against its committed rows, through
        # the benchmark's own comparison and invariants (for energy-track:
        # mass to 1e-8, hamiltonian and e1 to 1e-6, dt_effective exactly)
        spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        reference = checks.load_reference(workload)
        assert reference
        for ref in reference:
            config = ref["config"]
            doc = cli.run_experiment(ref["experiment"], config, config["seed"], 1)
            assert checks.check_job(ref["experiment"], config, doc["params"], doc, reference) == []

    def test_workload_supports_within_candidate_cap(self):
        # traced benchmark runs count every energy-track support's arity-6
        # and arity-10 tuples at set-up, so each must enumerate under the cap
        spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        supports = [
            cli.resolve_params(EXPERIMENTS[exp], config)["support"]
            for jobs in workloads.WORKLOADS.values()
            for exp, config in jobs
            if exp == "energy-track"
        ]
        assert supports
        for support in supports:
            for arity in (6, 10):
                # raises CapExceededError above symbols.CANDIDATE_CAP
                assert len(symbols.support_tuples(support, arity)) > 0

    def test_benchmark_warmups_run(self):
        # the benchmark runs each warm-up config once before its passes and
        # outside the guard that counts a failing job, so a warm-up that
        # raises ends the whole benchmark run
        spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert {exp for jobs in workloads.WORKLOADS.values() for exp, _ in jobs} <= set(workloads.WARMUP)
        for exp, config in workloads.WARMUP.items():
            doc, text = workloads.run_job(cli, exp, dict(config, seed=0))
            assert doc["rows"] and text

    # exact Omega = 0 rows in nonresonant classes, which go to the resonant
    # part; both configs exited 2 before that rule
    @pytest.mark.parametrize(
        "config",
        [
            {"support": [0, 8, 16, 40], "multiplier_N": 1, "T": 0.025, "dt": 0.00625},
            {"support": [0, 32, 64, 160], "multiplier_N": 8, "T": 0.0015625, "dt": 0.000390625},
        ],
        ids=["c2-N1", "c8-N8"],
    )
    def test_energy_track_closes_flux_at_zero_gap(self, tmp_path, config):
        rc, out = run_cli(tmp_path, ["energy-track"], config=config)
        assert rc == 0
        assert json.loads(out.read_text())["meta"]["relative"] <= 1e-6

    @pytest.mark.parametrize(
        "support",
        [
            [0, 4, 8],
            [0, 4, 12],
            [0, 4, 8, 12],
            [-31, -30, -17, -7, -5, 19, 37, 38],
            [-30, -26, -20, -19, -17, -12, -9, 0, 18, 20, 25, 32],
        ],
    )
    def test_energy_track_roundoff_tenlinear_term(self, tmp_path, support):
        # the ten-linear flow term is zero up to roundoff on the first three
        # supports, so its imaginary residue is only measurable against its
        # terms; the 8- and 12-mode supports run through arity-6 tables
        # only, up to the mode cap
        rc, _ = run_cli(tmp_path, ["energy-track"], config={"support": support})
        assert rc == 0

    def test_trilinear_single_geometry(self, tmp_path):
        rc, out = run_cli(
            tmp_path,
            ["trilinear-scan"],
            config={"geometry": "separated", "lam_list": [8, 16]},
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [r["lam"] for r in doc["rows"]] == [8, 16]
        assert "separated" in doc["meta"]["slopes"]

    def test_trilinear_default_rows_and_work(self, tmp_path):
        rc, out = run_cli(tmp_path, ["trilinear-scan", "--format", "csv"])
        assert rc == 0
        assert out.read_text() == TRILINEAR_CSV_GOLDEN
        doc = cli.run_experiment("trilinear-scan", {}, 0, 1)
        triples, counted = doc["meta"]["triples"], doc["meta"]["counted"]
        lams = ["8", "16", "32", "64"]
        for name in ("separated", "enhanced", "comparable"):
            assert list(triples[name]) == lams and list(counted[name]) == lams
            assert all(0 < counted[name][k] <= triples[name][k] for k in lams)

    def test_console_script(self):
        proc = subprocess.run(
            ["nlslab", "annulus-count", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == ANNULUS_CSV_GOLDEN

    def test_module_entry_matches(self):
        # the child imports the same package the suite does, installed or not
        src = str(Path(nlslab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nlslab.cli", "annulus-count", "--format", "csv"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0 and proc.stdout == ANNULUS_CSV_GOLDEN
