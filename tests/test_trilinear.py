"""Tests for exact trilinear interaction counting and the space-time ratio."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from nlslab.errors import CapExceededError
from nlslab.fourier import FourierState
from nlslab.rng import stream
from nlslab.trilinear import (
    TrilinearSpec,
    count_A_set,
    enhanced_gain_K,
    normalized_sup_trend,
    standard_geometries,
    sup_count_A,
    trilinear_l2_ratio,
    uv_change_of_variables_check,
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
        with pytest.raises(CapExceededError):
            trilinear_l2_ratio(a, b, c, 1.0, mode_cap=0)
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
