"""Tests for exact trilinear interaction counting and the space-time ratio."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from nlslab.errors import CapExceededError
from nlslab.fourier import FourierState
from nlslab.rng import stream
from nlslab.trilinear import (
    DEFAULT_MODE_CAP,
    TrilinearSpec,
    count_A_set,
    enhanced_gain_K,
    normalized_sup_trend,
    standard_geometries,
    sup_count_A,
    trilinear_l2_ratio,
    uv_change_of_variables_check,
    _densest_window,
    _shell_values,
    _uv_residual,
)

SEP = TrilinearSpec(1, (0, 2), (4, 6), (16, 18), n13=10, n23=10, c_tol=1)


def count_oracle(spec, n, tau):
    # direct Fraction transcription of the membership conditions
    n, tau = F(n), F(tau)
    total = 0
    for x in range(spec.i1[0], spec.i1[1] + 1):
        for y in range(spec.i2[0], spec.i2[1] + 1):
            n1, n2 = F(x, spec.lam), F(y, spec.lam)
            n3 = n - n1 - n2
            z = n3 * spec.lam
            if z.denominator != 1 or not spec.i3[0] <= z <= spec.i3[1]:
                continue
            if abs(n1 - n3) < spec.n13 or abs(n2 - n3) < spec.n23:
                continue
            if abs(tau - (n1 * n1 + n2 * n2 + n3 * n3)) <= spec.c_tol:
                total += 1
    return total


# Test-only references: the shell values and the densest window as they were
# before band enumeration and the pruned window search.  The fast paths must
# reproduce them bit for bit.


def reference_shell_values(spec, ln):
    """(sorted S, box triples with sum ln) from the full I1 x I2 grid."""
    (a1, b1), (a2, b2), (a3, b3) = spec.i1, spec.i2, spec.i3
    big = max(abs(a1), abs(b1), abs(a2), abs(b2), abs(ln) + abs(a1) + abs(b1) + abs(a2) + abs(b2))
    dtype = np.int64 if 3 * big * big < 1 << 62 else object
    i1 = np.arange(a1, b1 + 1, dtype=dtype)[:, None]
    i2 = np.arange(a2, b2 + 1, dtype=dtype)[None, :]
    i3 = ln - i1 - i2
    ok = (i3 >= a3) & (i3 <= b3)
    in_box = int(ok.sum())
    ok &= np.abs(i1 - i3) >= math.ceil(spec.n13 * spec.lam)
    ok &= np.abs(i2 - i3) >= math.ceil(spec.n23 * spec.lam)
    S = i1 * i1 + i2 * i2 + i3 * i3
    return np.sort(S[ok]), in_box


def reference_window(s, width):
    """(count, first r) of the densest window, searched at every position."""
    first = np.searchsorted(s, s - width, side="left")
    cnt = np.arange(1, len(s) + 1) - first
    r = int(np.argmax(cnt))
    return int(cnt[r]), r


def reference_sup(spec):
    """(sup, arg_n, arg_tau, per-n maxima) by the reference bodies."""
    lam = spec.lam
    lo = sum(iv[0] for iv in (spec.i1, spec.i2, spec.i3))
    hi = sum(iv[1] for iv in (spec.i1, spec.i2, spec.i3))
    w = math.floor(spec.c_tol * lam * lam)
    s_lo = sum(0 if a <= 0 <= b else min(a * a, b * b) for a, b in (spec.i1, spec.i2, spec.i3))
    best, arg, maxima = 0, (None, None), []
    for n in range(-((-lo) // lam), hi // lam + 1):
        s = reference_shell_values(spec, n * lam)[0]
        if len(s) == 0:
            continue
        cnt, r = reference_window(s, 2 * w)
        maxima.append(cnt)
        if cnt > best:
            best, arg = cnt, (F(n), F(max(int(s[r]) - w, s_lo), lam * lam))
    return best, arg[0], arg[1], maxima


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def random_spec(rng, lam, shift=0):
    starts = rng.integers(-12, 13, size=3) + shift
    lens = np.sort(rng.integers(0, 8, size=3))
    iv = [(int(s), int(s + l)) for s, l in zip(starts, lens)]
    return TrilinearSpec(
        lam,
        *iv,
        n13=F(int(rng.integers(0, 13)), int(rng.integers(1, 4))),
        n23=F(int(rng.integers(1, 13)), int(rng.integers(1, 4))),
        c_tol=F(int(rng.integers(1, 9)), int(rng.integers(1, 5))),
    )


class TestBand:
    def test_band_matches_grid_reference(self):
        # every scaled sum the box reaches, plus one on each side, on random
        # boxes with negative endpoints and binding gaps; every fifth box
        # sits near 2**31, where the shell values leave int64
        rng = stream(14, 0)
        bound = emptied = empty = objects = 0
        for trial in range(150):
            lam = (1, 3, 4)[trial % 3]
            spec = random_spec(rng, lam, shift=2**31 if trial % 5 == 4 else 0)
            lo = sum(iv[0] for iv in (spec.i1, spec.i2, spec.i3))
            hi = sum(iv[1] for iv in (spec.i1, spec.i2, spec.i3))
            for ln in range(lo - 1, hi + 2):
                got, total = _shell_values(spec, ln)
                want, in_box = reference_shell_values(spec, ln)
                assert_same_array(got, want)
                assert total == in_box
                bound += 0 < len(got) < total
                emptied += len(got) == 0 < total
                empty += total == 0
                objects += got.dtype == object
        assert bound and emptied and empty and objects

    def test_standard_geometries_match_grid_reference(self):
        for lam in (4, 8, 16):
            for _, spec in standard_geometries(lam):
                lo = sum(iv[0] for iv in (spec.i1, spec.i2, spec.i3))
                hi = sum(iv[1] for iv in (spec.i1, spec.i2, spec.i3))
                for n in range(lo // lam - 1, hi // lam + 2):
                    got, total = _shell_values(spec, n * lam)
                    want, in_box = reference_shell_values(spec, n * lam)
                    assert_same_array(got, want)
                    assert total == in_box

    def test_band_bounds_near_2_62(self):
        # i1 near -2**62 and i2, i3 near 2**62: ln - i1 - b3 is about 2**63
        # and would wrap as an int64 band bound.  The count stays exact on
        # the object path and its witness recounts.
        big = 2**62
        spec = TrilinearSpec(
            1, (-big - 2, -big), (big, big + 3), (big, big + 4), n13=1, n23=2, c_tol=3
        )
        lo = sum(iv[0] for iv in (spec.i1, spec.i2, spec.i3))
        hi = sum(iv[1] for iv in (spec.i1, spec.i2, spec.i3))
        for ln in range(lo - 1, hi + 2):
            got, total = _shell_values(spec, ln)
            want, in_box = reference_shell_values(spec, ln)
            assert got.dtype == object
            assert_same_array(got, want)
            assert total == in_box
        rep = sup_count_A(spec)
        sup, arg_n, arg_tau, _ = reference_sup(spec)
        assert (rep.sup, rep.arg_n, rep.arg_tau) == (sup, arg_n, arg_tau)
        assert rep.sup > 0
        assert count_A_set(spec, rep.arg_n, rep.arg_tau) == rep.sup
        assert count_oracle(spec, rep.arg_n, rep.arg_tau) == rep.sup


class TestWindow:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_pruned_window_matches_full_search(self, dtype):
        rng = stream(15, 0)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            s = np.sort(rng.integers(0, int(rng.integers(1, 200)), size=n)).astype(dtype)
            width = int(rng.integers(0, 30))
            cnt, r, counted = _densest_window(s, width)
            assert (cnt, r) == reference_window(s, width)
            assert 1 <= counted <= n

    def test_hand_built_ties(self):
        cases = [
            (np.zeros(40, dtype=np.int64), 0),  # one run of equal S
            (np.arange(100, dtype=np.int64), 3),  # equal counts at every r >= 3
            (np.repeat(np.arange(0, 500, 50), 7), 10),  # equal runs, equal maxima
            # two equal clusters; the first one, split by a block edge, wins
            (np.array([0] * 10 + [5] * 9 + [1000] * 19, dtype=np.int64), 5),
            (np.array([0] * 17 + [1000] * 17 + [2000] * 16, dtype=np.int64), 0),
            (np.array([7], dtype=np.int64), 0),
        ]
        for s, width in cases:
            cnt, r, _ = _densest_window(s, width)
            assert (cnt, r) == reference_window(s, width)
        # one run of 100 equal values, then 100 isolated ones: only the block
        # holding the run's end can reach the anchor count 97 at r = 96
        s = np.concatenate([np.zeros(100), np.arange(1, 101) * 1000]).astype(np.int64)
        assert _densest_window(s, 0) == (100, 99, 16)

    def test_sup_matches_reference_with_ties_across_n(self):
        # random boxes, many of them with the same maximum at several n:
        # the smallest such n and its first shell position must win
        rng = stream(15, 1)
        tied = 0
        for trial in range(60):
            spec = random_spec(rng, (1, 3, 4)[trial % 3])
            if max(spec.n13, spec.n23) == 0:
                continue
            rep = sup_count_A(spec)
            sup, arg_n, arg_tau, maxima = reference_sup(spec)
            assert (rep.sup, rep.arg_n, rep.arg_tau) == (sup, arg_n, arg_tau)
            tied += sup > 0 and maxima.count(sup) >= 2
        assert tied > 0

    def test_work_counters(self):
        spec = dict(standard_geometries(8))["comparable"]
        rep = sup_count_A(spec)
        i1, i2, i3 = (np.arange(a, b + 1) for a, b in (spec.i1, spec.i2, spec.i3))
        sums = (i1[:, None, None] + i2[None, :, None] + i3[None, None, :]).ravel()
        assert rep.triples == int((sums % spec.lam == 0).sum())
        admissible = sum(
            len(reference_shell_values(spec, n * spec.lam)[0]) for n in range(25, 38)
        )
        assert 0 < rep.counted <= admissible <= rep.triples


class TestCount:
    def test_frozen_example(self):
        # n=22, tau=340: the only admissible triple is (0, 4, 18)
        assert count_A_set(SEP, 22, 340) == 1
        narrowed = TrilinearSpec(1, (0, 0), (4, 4), (18, 18), n13=10, n23=10)
        assert count_A_set(narrowed, 22, 340) == 1
        assert count_A_set(SEP, 22, 500) == 0
        assert count_A_set(SEP, F(45, 2), 340) == 0  # off-grid sum

    def test_validation(self):
        with pytest.raises(ValueError):
            TrilinearSpec(0, (0, 1), (0, 1), (0, 1), n13=1, n23=1)
        with pytest.raises(ValueError):
            TrilinearSpec(1, (2, 0), (0, 1), (0, 1), n13=1, n23=1)
        with pytest.raises(ValueError):  # lengths out of order
            TrilinearSpec(1, (0, 5), (0, 1), (0, 9), n13=1, n23=1)
        with pytest.raises(ValueError):
            TrilinearSpec(1, (0, 1), (0, 1), (0, 1), n13=-1, n23=1)
        with pytest.raises(ValueError):
            TrilinearSpec(1, (0, 1), (0, 1), (0, 1), n13=1, n23=1, c_tol=0)
        with pytest.raises(ValueError):
            TrilinearSpec.from_intervals(2, (0, F(1, 3)), (0, 1), (0, 2), n13=1, n23=1)
        with pytest.raises(CapExceededError):
            count_A_set(SEP, 22, 340, box_cap=4)

    def test_against_oracle(self):
        # every tenth trial sits near 2**31, where the squares leave int64
        rng = stream(11, 0)
        shifted_hits = 0
        for trial in range(100):
            lam = int(rng.integers(1, 5))
            shift = 2**31 if trial % 10 == 1 else 0
            starts = rng.integers(-15, 16, size=3) + shift
            lens = np.sort(rng.integers(0, 7, size=3))
            iv = [(int(s), int(s + l)) for s, l in zip(starts, lens)]
            spec = TrilinearSpec(
                lam,
                *iv,
                n13=F(int(rng.integers(0, 9)), int(rng.integers(1, 4))),
                n23=F(int(rng.integers(0, 9)), int(rng.integers(1, 4))),
                c_tol=F(int(rng.integers(1, 5)), int(rng.integers(1, 3))),
                j_radius=int(rng.integers(0, 11)),
            )
            picks = [int(rng.integers(a, b + 1)) for a, b in iv]
            n = F(sum(picks), lam)
            if trial % 5 == 0:
                n += F(1, 2 * lam)  # push off the grid
            tau = F(sum(p * p for p in picks), lam * lam) + F(
                int(rng.integers(-3, 4)), int(rng.integers(1, 4))
            )
            got = count_A_set(spec, n, tau)
            assert got == count_oracle(spec, n, tau)
            shifted_hits += bool(shift and got)
        assert shifted_hits > 0

    def test_negation_symmetry(self):
        rng = stream(12, 0)
        for _ in range(25):
            lam = int(rng.integers(1, 4))
            starts = rng.integers(-9, 10, size=3)
            lens = np.sort(rng.integers(0, 5, size=3))
            iv = [(int(s), int(s + l)) for s, l in zip(starts, lens)]
            spec = TrilinearSpec(lam, *iv, n13=2, n23=1, c_tol=2)
            neg = TrilinearSpec(
                lam, *[(-b, -a) for a, b in iv], n13=2, n23=1, c_tol=2
            )
            n = F(int(rng.integers(-40, 41)), lam)
            tau = F(int(rng.integers(0, 300)), lam * lam)
            assert count_A_set(spec, n, tau) == count_A_set(neg, -n, tau)

    def test_c_tol_monotone(self):
        base = dict(n13=10, n23=10)
        prev = 0
        for c in (F(1, 4), 1, 4, 30, 400):
            spec = TrilinearSpec(1, (0, 2), (4, 6), (16, 18), c_tol=c, **base)
            cur = count_A_set(spec, 22, 320)
            assert cur >= prev
            prev = cur
        assert prev == 6  # every sum-22 triple passes both gaps

    def test_grid_refinement_monotone(self):
        # the same real configuration re-expressed on a finer grid keeps
        # every coarse solution
        prev = 0
        for lam in (1, 2, 4):
            spec = TrilinearSpec.from_intervals(
                lam, (0, 2), (4, 6), (16, 18), n13=10, n23=10
            )
            cur = count_A_set(spec, 22, 340)
            assert cur >= max(prev, 1)
            prev = cur


class TestGain:
    def test_gain_example(self):
        spec = TrilinearSpec(1, (0, 2), (10, 60), (100, 160), n13=10, n23=50, j_radius=100)
        rep = enhanced_gain_K(spec)
        assert rep.m_value == F(102, 25)
        assert float(rep.m_value) == pytest.approx(4.08)
        assert rep.enhanced and rep.k_value == F(102, 25)

    def test_point_interval(self):
        spec = TrilinearSpec(1, (5, 5), (10, 60), (100, 160), n13=10, n23=50, j_radius=100)
        rep = enhanced_gain_K(spec)
        assert rep.m_value == 0 and rep.enhanced and rep.k_value == 0

    def test_comparable_intervals_fall_back(self):
        # equal-length I1, I2: base constant even though M itself is tiny
        spec = TrilinearSpec(1, (0, 2), (10, 12), (30, 32), n13=10, n23=40)
        rep = enhanced_gain_K(spec)
        assert rep.m_value == F(1, 10)
        assert not rep.enhanced and rep.k_value == 2

    def test_zero_n23_rejected(self):
        spec = TrilinearSpec(1, (0, 1), (4, 5), (9, 10), n13=1, n23=0)
        with pytest.raises(ValueError):
            enhanced_gain_K(spec)


class TestSup:
    def test_matches_exhaustive(self):
        spec = TrilinearSpec(1, (0, 2), (4, 7), (10, 13), n13=3, n23=3, c_tol=2)
        rep = sup_count_A(spec)
        # brute force over the same default grids
        lo = sum(iv[0] for iv in (spec.i1, spec.i2, spec.i3))
        hi = sum(iv[1] for iv in (spec.i1, spec.i2, spec.i3))
        smax = 3 * 13 * 13
        brute = max(
            count_A_set(spec, n, t)
            for n in range(lo, hi + 1)
            for t in range(smax + 1)
        )
        assert rep.sup == brute > 0
        assert count_A_set(spec, rep.arg_n, rep.arg_tau) == rep.sup

    def test_fractional_scale_witness(self):
        spec = TrilinearSpec.from_intervals(4, (0, 2), (4, 6), (16, 18), n13=10, n23=10)
        rep = sup_count_A(spec)
        assert rep.sup >= 1
        assert (rep.arg_tau * spec.lam**2).denominator == 1
        assert count_A_set(spec, rep.arg_n, rep.arg_tau) == rep.sup
        # near 2**31 the shell values leave int64; the witness must still recount
        big = 2**31
        spec = TrilinearSpec(
            1, (big, big + 1), (big, big + 2), (big + 5, big + 8), n13=1, n23=1
        )
        rep = sup_count_A(spec)
        assert rep.sup == 2
        assert count_A_set(spec, rep.arg_n, rep.arg_tau) == rep.sup

    def test_empty_configuration(self):
        spec = TrilinearSpec(1, (0, 1), (4, 5), (9, 10), n13=500, n23=1)
        rep = sup_count_A(spec)
        assert rep.sup == 0 and rep.normalized == 0.0
        assert rep.arg_n is None and rep.arg_tau is None

    def test_normalization_denominator(self):
        rep = sup_count_A(SEP)
        gain = enhanced_gain_K(SEP)
        denom = float(F(1) * gain.k_value / 10 + 1)
        assert rep.normalized == pytest.approx(rep.sup / denom)
        assert rep.k_value == gain.k_value and rep.gap_scale == 10


class TestUv:
    def test_identity_spot(self):
        assert _uv_residual(F(1), F(2), F(3), F(4), F(5)) == 0
        assert _uv_residual(F(-7, 3), F(11, 5), F(0), F(9, 2), F(1, 6)) == 0

    def test_sampled_identity(self):
        rep = uv_change_of_variables_check(1000, seed=0)
        assert rep.n_samples == 1000
        assert rep.all_zero and rep.max_abs_residual == 0

    def test_perturbed_form_fails(self):
        # the (3/4) weight is load-bearing: any other weight breaks exactness
        x, y, at, bt, lam = F(1), F(2), F(3), F(4), F(5)
        u, v, a, b = x - y, x + y, at - bt, (at + bt) / 3
        lhs = x * x + y * y + x * y + lam * (x * at + y * bt)
        wrong = (
            F(1, 4) * (u + lam * a) ** 2
            + F(2, 3) * (v + lam * b) ** 2
            - lam * lam * a * a / 4
            - F(2, 3) * 3 * lam * lam * b * b / 4
        )
        assert lhs - wrong != 0


class TestRatio:
    def test_single_modes_closed_form(self):
        lam, T = 3.0, 0.7
        ph = [FourierState.from_uhat(lam, {k: a}) for k, a in ((2, 1.5), (5, 0.3 - 1j), (17, 2.0))]
        r = trilinear_l2_ratio(*ph, T)
        assert r == pytest.approx(math.sqrt(T) / (2 * math.pi * lam), rel=1e-12)

    def test_against_quadrature(self):
        lam, T = 2.0, 0.4
        rng = stream(13, 0)

        def rand_state(js):
            amps = rng.normal(size=len(js)) + 1j * rng.normal(size=len(js))
            return FourierState.from_uhat(lam, dict(zip(js, amps)))

        states = [rand_state([0, 1, 2]), rand_state([4, 6]), rand_state([16, 17, 18])]
        exact = trilinear_l2_ratio(*states, T)

        mx = 32  # > twice the frequency span of the triple product
        xs = np.arange(mx) * (2 * np.pi * lam / mx)
        prev = None
        for mt in (65, 129, 257, 513, 1025, 2049):
            ts = np.linspace(0.0, T, mt)
            w = np.ones((mt, mx), dtype=np.complex128)
            for s in states:
                ks = s.indices / lam
                ph = np.exp(
                    1j * ks[None, None, :] * xs[None, :, None]
                    - 1j * (ks**2)[None, None, :] * ts[:, None, None]
                )
                w *= (ph @ s.uhat_array()) / lam
            sq = np.sum(np.abs(w) ** 2, axis=1) * (2 * np.pi * lam / mx)
            val = float(np.trapezoid(sq, ts))
            est = math.sqrt(val) / math.prod(s.l2_norm() for s in states)
            if prev is not None and abs(est - prev) <= 1e-9 * abs(est):
                break
            prev = est
        assert exact == pytest.approx(est, rel=1e-7)

    def test_validation(self):
        lam = 2.0
        a = FourierState.from_uhat(lam, {0: 1.0})
        b = FourierState.from_uhat(lam, {4: 1.0})
        c = FourierState.from_uhat(lam, {16: 1.0})
        with pytest.raises(ValueError):
            trilinear_l2_ratio(a, b, c, 0.0)
        with pytest.raises(ValueError):
            trilinear_l2_ratio(a, FourierState.from_uhat(3.0, {4: 1.0}), c, 1.0)
        with pytest.raises(ValueError):
            trilinear_l2_ratio(a, FourierState(lam, [], []), c, 1.0)
        # 129^3 > DEFAULT_MODE_CAP = 2^21: refused before any class collapse
        assert DEFAULT_MODE_CAP == 1 << 21
        wide = FourierState(lam, np.arange(129), np.ones(129, dtype=complex))
        with pytest.raises(CapExceededError):
            trilinear_l2_ratio(wide, wide, wide, 1.0)
        spec = TrilinearSpec(2, (0, 2), (4, 6), (16, 18), n13=1, n23=1)
        assert trilinear_l2_ratio(a, b, c, 1.0, spec=spec) > 0
        with pytest.raises(ValueError):  # support leaves I2
            trilinear_l2_ratio(a, FourierState.from_uhat(lam, {9: 1.0}), c, 1.0, spec=spec)
        with pytest.raises(ValueError):  # grid scale mismatch
            trilinear_l2_ratio(
                a, b, c, 1.0, spec=TrilinearSpec(3, (0, 2), (4, 6), (16, 18), n13=1, n23=1)
            )


class TestGeometries:
    def test_layouts_and_refinement(self):
        for lam in (8, 16):
            geoms = dict(standard_geometries(lam))
            assert set(geoms) == {"separated", "enhanced", "comparable"}
        with pytest.raises(ValueError):
            standard_geometries(6)
        # refining the grid never loses admissible triples
        for name in ("separated", "enhanced", "comparable"):
            s8 = sup_count_A(dict(standard_geometries(8))[name]).sup
            s16 = sup_count_A(dict(standard_geometries(16))[name]).sup
            assert s16 >= s8

    def test_enhancement_split(self):
        geoms = dict(standard_geometries(8))
        assert enhanced_gain_K(geoms["enhanced"]).enhanced
        assert not enhanced_gain_K(geoms["separated"]).enhanced
        assert not enhanced_gain_K(geoms["comparable"]).enhanced

    def test_trend_bounded(self):
        rep = normalized_sup_trend("separated", [8, 16, 32])
        assert len(rep.points) == 3
        assert all(p.normalized < 1.0 for p in rep.points)
        assert abs(rep.slope) <= 0.1
        with pytest.raises(ValueError):
            normalized_sup_trend("separated", [8])
