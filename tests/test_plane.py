import random
from fractions import Fraction as F

import numpy as np
import pytest

import nlslab.plane as plane
from nlslab.errors import CalibrationError, CapExceededError
from nlslab.lattice import CLOSED_OPEN, HEX_FORM, AnnulusSpec, count_points, count_points_naive
from nlslab.plane import (
    CellCheck,
    PlaneSliceSpec,
    ReductionCalibration,
    calibrate_reduction,
    count_plane_slice,
    verify_reduction,
)

DEEP_A = (F(1, 3), F(1, 3))
DEEP_B = (F(2, 3), F(2, 3))


def test_examples():
    assert count_plane_slice(PlaneSliceSpec(0, 0, 1)) == 1
    # origin plus six signed permutations of (1,-1,0)
    assert count_plane_slice(PlaneSliceSpec(0, 0, 4)) == 7
    # three permutations of (1,0,0) at squared distance 2/3
    assert count_plane_slice(PlaneSliceSpec(1, 0, 1)) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        PlaneSliceSpec(0, -1, 1)
    with pytest.raises(ValueError):
        PlaneSliceSpec(0, 0, 0)
    with pytest.raises(ValueError):
        PlaneSliceSpec(0, 0, 1, boundary="open-open")
    with pytest.raises(CapExceededError):
        PlaneSliceSpec(0, 10, 5, radius_cap=50)
    with pytest.raises(ValueError):
        ReductionCalibration(F(1), ((F(0), F(0)),))


def test_slice_counts_match_naive_triple_loop():
    rnd = random.Random(5)
    for _ in range(25):
        n = rnd.randint(-7, 7)
        ell = rnd.randint(0, 6)
        K = rnd.randint(1, 5)
        spec = PlaneSliceSpec(n, ell, K)
        lo9, hi9 = 9 * ell * K, 9 * (ell + 1) * K
        r = 12
        naive = 0
        for n1 in range(-r + n, r + n + 1):
            for n2 in range(-r + n, r + n + 1):
                n3 = n - n1 - n2
                D = (3 * n1 - n) ** 2 + (3 * n2 - n) ** 2 + (3 * n3 - n) ** 2
                if lo9 <= D < hi9:
                    naive += 1
        assert count_plane_slice(spec) == naive, spec


def test_partition_periodicity_symmetry():
    cap, base = 144, (-5, 0, 2, 7)
    ns = sorted({m for n in base for m in (n, n + 3, -n)})
    hists = plane._plane_histograms(ns, (1, 3, 4), cap)
    for n in base:
        for K, rows in hists.items():
            h = rows[ns.index(n)]
            # the slabs partition the ball: totals agree with a direct count
            nbins = cap // K
            smax = int(np.sqrt(9 * K * nbins)) // 3 + 2
            total = 0
            for n1 in range(n - smax, n + smax + 1):
                for n2 in range(n - smax, n + smax + 1):
                    n3 = n - n1 - n2
                    D = (3 * n1 - n) ** 2 + (3 * n2 - n) ** 2 + (3 * n3 - n) ** 2
                    total += D < 9 * K * nbins
            assert int(h.sum()) == total
            assert np.array_equal(h, rows[ns.index(n + 3)])
            assert np.array_equal(h, rows[ns.index(-n)])


def test_plane_histograms_match_slice_counts():
    ns, cap = [-4, 0, 5], 30
    hists = plane._plane_histograms(ns, (1, 4, 7, 31), cap)
    assert hists[31].shape == (3, 0)
    for K, rows in hists.items():
        for i, n in enumerate(ns):
            want = [count_plane_slice(PlaneSliceSpec(n, ell, K)) for ell in range(cap // K)]
            assert rows[i].tolist() == want


def test_hex_histogram_matches_direct_counts():
    for off in [(F(0), F(0)), DEEP_A, DEEP_B, (F(1, 2), F(0))]:
        for K in (1, 4):
            h = plane._hex_histogram(off, F(1, 2), K, 40)
            for ell in (0, 1, len(h) - 1):
                spec = AnnulusSpec(off, F(ell * K, 2), F((ell + 1) * K, 2), CLOSED_OPEN)
                assert h[ell] == count_points(HEX_FORM, spec)


def test_hex_histogram_big_denominator_fallback():
    off = (F(1, 9999), F(2, 7001))
    h = plane._hex_histogram(off, F(1, 2), 2, 8)
    for ell in range(len(h)):
        spec = AnnulusSpec(off, F(ell * 2, 2), F((ell + 1) * 2, 2), CLOSED_OPEN)
        assert h[ell] == count_points(HEX_FORM, spec)


def test_hex_histogram_object_path_matches_count_points():
    # e > 2**32, so e**2 alone leaves int64 and the histogram takes Python ints
    off = (F(1, 3**21), F(2, 5**14))
    h = plane._hex_histogram(off, F(1, 2), 2, 12)
    assert len(h) == 6 and h.sum() > 0
    for ell in range(len(h)):
        spec = AnnulusSpec(off, F(ell * 2, 2), F((ell + 1) * 2, 2), CLOSED_OPEN)
        assert h[ell] == count_points(HEX_FORM, spec)


def test_deep_hole_centers_are_count_equivalent():
    for K in (1, 2):
        a = plane._hex_histogram(DEEP_A, F(1, 2), K, 60)
        b = plane._hex_histogram(DEEP_B, F(1, 2), K, 60)
        assert np.array_equal(a, b)


def test_calibration_result():
    cal = calibrate_reduction(range(-6, 7), [1, 2, 4], 100)
    assert cal.verified
    assert cal.radius_scale == F(1, 2)
    assert cal.offsets[0] == (F(0), F(0))
    assert cal.offsets[1] in (DEEP_A, DEEP_B)
    assert cal.offsets[2] in (DEEP_A, DEEP_B)
    # the scale is pinned uniquely; offsets only up to the inverse deep hole
    assert cal.scale_alternates == ()
    assert set(cal.alternates[1]) <= {DEEP_A, DEEP_B}
    # the forcing cell: 7 triples vs the hex form's ball counts
    assert count_points(HEX_FORM, AnnulusSpec.disk((0, 0), F(2), CLOSED_OPEN)) == 7
    assert count_points(HEX_FORM, AnnulusSpec.disk((0, 0), F(4), CLOSED_OPEN)) == 13


def test_calibration_degenerate_single_cell():
    cal = calibrate_reduction([0, 1, 2], [1], 1)
    # one cell per plane: the origin alone for n = 0 and three triples for
    # n = 1, 2, matched by the origin and the deep holes at scale 1 and 1/2;
    # preference order picks 1
    assert cal.radius_scale == F(1)
    assert cal.offsets[0] == (F(0), F(0))
    assert F(1, 2) in cal.scale_alternates


def brute_cells(ns, k_set, radius_cap, scale, offset):
    """Mismatching cells in (K, n, ell) order, one slice enumeration and one
    naive 2D count per cell."""
    out = []
    for K in k_set:
        for n in ns:
            for ell in range(radius_cap // K):
                lhs = count_plane_slice(PlaneSliceSpec(n, ell, K, radius_cap=radius_cap))
                spec = AnnulusSpec(offset, scale * ell * K, scale * (ell + 1) * K, CLOSED_OPEN)
                rhs = count_points_naive(HEX_FORM, spec)
                if lhs != rhs:
                    out.append(CellCheck(n, ell, K, lhs, rhs))
    return out


def test_calibration_failure_is_structured(monkeypatch):
    monkeypatch.setattr(plane, "CANDIDATE_SCALES", (F(3),))
    with pytest.raises(CalibrationError) as exc:
        calibrate_reduction(range(-3, 4), [1, 2], 36)
    # the candidate with the smallest worst miss (first one on ties) is
    # reported with its first 20 bad cells
    best = None
    for r in range(3):
        ns = [n for n in range(-3, 4) if n % 3 == r]
        for off in plane.CANDIDATE_OFFSETS:
            bad = brute_cells(ns, [1, 2], 36, F(3), off)
            worst = max((abs(c.lhs - c.rhs) for c in bad), default=0)
            if bad and (best is None or worst < best[0]):
                best = (worst, bad[:20])
    assert len(best[1]) == 20
    assert exc.value.failures == best[1]
    assert f"misses by {best[0]} (first bad cell: {best[1][0]})" in str(exc.value)


def test_verify_failures_match_per_cell_check():
    # wrong offsets for residues 0 and 2, right scale and residue-1 offset
    bad = ReductionCalibration(F(1, 2), ((F(1, 2), F(1, 2)), DEEP_A, (F(0), F(0))))
    ns, k_set, cap = range(-7, 8), [1, 2, 4, 8], 40
    rep = verify_reduction(bad, ns, k_set, cap, spot_checks=0)
    want = []
    for off in dict.fromkeys(bad.offsets[n % 3] for n in ns):  # first-seen order
        group = [n for n in ns if bad.offsets[n % 3] == off]
        want += brute_cells(group, k_set, cap, bad.radius_scale, off)
    assert rep.failures == want
    assert {c.n % 3 for c in want} == {0, 2}


def test_verify_passes_on_calibration_grid():
    cal = calibrate_reduction(range(-6, 7), [1, 2, 4], 100)
    rep = verify_reduction(cal, range(-6, 7), [1, 2, 4], 100, seed=3)
    assert rep.passed and rep.total > 0 and rep.spot_checked > 0


def test_verify_reports_wrong_offset():
    bad = ReductionCalibration(F(1, 2), ((F(1, 2), F(0)), DEEP_A, DEEP_A))
    rep = verify_reduction(bad, [0], [4], 4, spot_checks=0)
    assert not rep.passed
    cell = rep.failures[0]
    assert (cell.n, cell.ell, cell.K, cell.lhs) == (0, 0, 4, 7)
    assert cell.rhs != 7 and not cell.ok


def test_calibration_refuses_a_grid_missing_a_residue():
    # no plane of residue 1 or 2 would be compared, so no offset is checked
    with pytest.raises(ValueError, match="residue"):
        calibrate_reduction([0], [64], 200)
    with pytest.raises(ValueError, match="residue"):
        calibrate_reduction(range(-9, 10, 3), [1, 2], 40)


def test_radius_cap_is_refused_above_the_default():
    ok = calibrate_reduction([0, 1, 2], [1], 9)
    with pytest.raises(CapExceededError):
        calibrate_reduction([0, 1, 2], [1], plane.DEFAULT_RADIUS_CAP + 1)
    with pytest.raises(CapExceededError):
        verify_reduction(ok, [0, 1, 2], [1], plane.DEFAULT_RADIUS_CAP + 1)


class TestWorkCounts:
    """Each plane ball and each hexagonal histogram is built once on the
    default reduction-verify grid: 61 planes, K in {1, 2, 4, 8}, cap 900."""

    NS, KS, CAP = range(-30, 31), [1, 2, 4, 8], 900

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(plane, name)

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(plane, name, wrapper)
        return calls

    def test_calibration_builds_each_hex_histogram_once(self, monkeypatch):
        calls = self.counted(monkeypatch, "_hex_histogram")
        calibrate_reduction(self.NS, self.KS, self.CAP)
        assert len(calls) == len(set(calls)) == 3 * 4 * 4  # scales x offsets x K

    def test_each_ball_is_enumerated_once(self, monkeypatch):
        balls = self.counted(monkeypatch, "_coord_range")
        cal = calibrate_reduction(self.NS, self.KS, self.CAP)
        assert len(balls) == 61
        balls.clear()
        verify_reduction(cal, self.NS, self.KS, self.CAP, spot_checks=0)
        assert len(balls) == 61


def test_verify_determinism():
    cal = calibrate_reduction(range(-3, 4), [1, 2], 40)
    r1 = verify_reduction(cal, range(-8, 9), [1, 2], 60, seed=11)
    r2 = verify_reduction(cal, range(-8, 9), [1, 2], 60, seed=11)
    assert r1.total == r2.total and r1.spot_checked == r2.spot_checked
    assert r1.failures == r2.failures
