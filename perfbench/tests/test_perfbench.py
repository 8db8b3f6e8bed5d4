"""Tests of the benchmark's own code: span arithmetic, metric names, output checks."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span("cli.a", 0.0, 10.0, None),
        _span("x.b", 1.0, 4.0, 0),
        _span("x.c", 2.0, 3.0, 1),  # grandchild: only x.b loses it
        _span("x.d", 5.0, 7.0, 0),
        _span("x.d", 6.0, 8.0, 0),  # overlaps its sibling: [5, 8] counts once for cli.a
        _span("x.e", 9.0, 11.0, 0),  # runs past its parent: only [9, 10] counts for cli.a
    ]
    st = spans.self_times(tree)
    assert st["cli.a"] == pytest.approx(10.0 - 3.0 - 3.0 - 1.0)
    assert st["x.b"] == pytest.approx(2.0)
    assert st["x.c"] == pytest.approx(1.0)
    assert st["x.d"] == pytest.approx(4.0)
    # non-cli spans cover [1, 4], [5, 8] and [9, 11] of a 10 s pass
    assert spans.covered_share(tree, 10.0) == pytest.approx(0.8)


def test_tracer_wraps_from_imports_and_restores_them():
    from nlslab import lattice, plane

    original = plane.count_points
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert plane.count_points is lattice.count_points is not original
        spec = lattice.AnnulusSpec((0, 0), 0, 25)
        assert plane.count_points(lattice.HEX_FORM, spec) == original(lattice.HEX_FORM, spec)
    finally:
        tracer.uninstall()
    assert plane.count_points is original and lattice.count_points is original
    assert [s["name"] for s in tracer.spans] == ["lattice.count_points"]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_trimmed_mean_drops_both_tails():
    assert probe.trimmed_mean([100.0] + [1.0] * 8 + [0.0]) == 1.0
    assert probe.trimmed_mean([2.0, 4.0]) == 3.0  # too few samples to trim
    with pytest.raises(ValueError):
        probe.trimmed_mean([])


def test_speed_probe_samples_while_running_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe(interval=0.01)
    speed.start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        sum(range(1000))
    speed.stop()
    assert len(speed.samples) >= 5
    assert speed.wall >= sum(speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scale() == probe.NOMINAL_PROBE_S / probe.trimmed_mean(speed.samples)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile([1.0] * 10) is None
    assert metrics.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)


def test_checker_rejects_a_perturbed_reference_row_and_counts_it():
    ref = checks.load_reference("lattice-reduction")
    entry = ref[0]
    assert entry["experiment"] == "reduction-verify"
    jobs = [(entry["experiment"], entry["config"])]
    params = [{}]
    good = {"rows": entry["rows"], "meta": {}}
    two_passes = [[(good, "csv")], [(good, "csv")]]
    assert checks.tally(jobs, params, two_passes, ref) == ([], 2, 0)

    bad = {"rows": [dict(entry["rows"][0], cells=entry["rows"][0]["cells"] + 1)], "meta": {}}
    problems, attempted, failed = checks.tally(jobs, params, [[(bad, "csv")]] * 2, ref)
    assert failed / attempted == 1.0
    assert any("cells" in p for p in problems)


def test_checker_counts_a_raising_job_and_unstable_csv():
    ref = checks.load_reference("lattice-reduction")
    entry = ref[0]
    jobs = [(entry["experiment"], entry["config"])]
    good = {"rows": entry["rows"], "meta": {}}
    outs = [[(good, "a")], [(good, "b")], [(None, "ValueError: boom")]]
    problems, attempted, failed = checks.tally(jobs, [{}], outs, ref)
    assert (attempted, failed) == (3, 2)
    assert "ValueError: boom" in problems


def test_float_columns_pass_within_tolerance_and_fail_beyond():
    want = [{"n": 16, "member": "const", "r_value": 1.0, "method": "exact"}]
    near = [dict(want[0], r_value=1.0 + 1e-8, method="quadrature")]
    far = [dict(want[0], r_value=1.0 + 1e-4)]
    assert checks.compare_rows("strichartz-scan", near, want) == []
    assert checks.compare_rows("strichartz-scan", far, want)


def test_jobs_carry_the_seed_in_every_config():
    for name in workloads.WORKLOADS:
        for experiment, config in workloads.jobs(name, 7):
            assert config["seed"] == 7
            assert experiment in workloads.WARMUP
