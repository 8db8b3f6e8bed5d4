"""Acceptance battery.

One test per headline guarantee, each at its stated tolerance and budget;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
Scans that stand in for asymptotic claims assert constant-stability (bounded
spread across scales) rather than limits.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from nlslab.fourier import FourierState
from nlslab.galerkin import energy_drift, ftc_residual, integrate_galerkin
from nlslab.lattice import (
    CLOSED_CLOSED,
    CLOSED_OPEN,
    HEX_FORM,
    SQUARE_FORM,
    AnnulusSpec,
    count_points,
    count_points_naive,
    scan_hypothesis_h,
)
from nlslab.plane import (
    PlaneSliceSpec,
    calibrate_reduction,
    count_plane_slice,
    verify_reduction,
)
from nlslab.rng import stream
from nlslab.strichartz import (
    chain_inequality_ratio,
    l6_norm_quadrature,
    l6_time_integral_exact,
    strichartz_scan,
)
from nlslab.symbols import (
    FreqTuple,
    MultiplierParams,
    apply_I,
    bound_scan_symbols,
    evaluate_symbol,
    homogeneous_h1_sq,
    l6_now,
    lambda_n_evaluate,
    omega_n,
    symbol_fn,
)
from nlslab.trilinear import (
    TrilinearSpec,
    count_A_set,
    normalized_sup_trend,
    standard_geometries,
    uv_change_of_variables_check,
)


def report(k: int, detail: str):
    print(f"criterion {k}: PASS — {detail}")


def test_c01_annulus_counts_match_naive_oracle():
    """Exact agreement between the O(r) row counter and brute-force
    enumeration on 200 random forms/centers/annuli with r^2 <= 400."""
    t0 = time.perf_counter()
    rng = stream(101, 0)
    for i in range(200):
        form = HEX_FORM if i % 2 == 0 else SQUARE_FORM
        center = (
            F(int(rng.integers(-8192, 8193)), 4096),
            F(int(rng.integers(-8192, 8193)), 4096),
        )
        r2sq = F(int(rng.integers(0, 1601)), 4)
        r1sq = min(r2sq, r2sq * F(int(rng.integers(0, 10)), 8))  # degenerate included
        bounds = CLOSED_CLOSED if rng.integers(0, 2) else CLOSED_OPEN
        spec = AnnulusSpec(center, r1sq, r2sq, bounds)
        assert count_points(form, spec) == count_points_naive(form, spec), spec
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"200/200 exact, {elapsed:.2f}s")


def test_c02_plane_reduction_calibrates_and_verifies():
    """A unique scale + per-residue offsets reduce 3D slice counts to 2D
    annulus counts, exactly, over the full grid; spot values agree."""
    t0 = time.perf_counter()
    ns = range(-30, 31)
    k_set = (1, 2, 4, 8)
    calib = calibrate_reduction(ns, k_set, 900)
    assert calib.verified
    # scale pinned uniquely; offsets unique up to count-equivalent deep holes
    assert calib.scale_alternates == ()
    from nlslab.lattice import DEEP_HOLE_OFFSETS

    for alts in calib.alternates:
        assert set(alts) <= set(DEEP_HOLE_OFFSETS)
    rep = verify_reduction(calib, ns, k_set, 900, spot_checks=32, seed=0)
    assert rep.passed and rep.total > 0
    # spot pair: the K=4 base cell at n=0 and the open hex disk of Q < 2
    lhs = count_plane_slice(PlaneSliceSpec(0, 0, 4))
    off = calib.offsets[0]
    rhs = count_points(HEX_FORM, AnnulusSpec(off, F(0), F(2), CLOSED_OPEN))
    assert lhs == rhs == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"{rep.total} cells exact, scale {calib.radius_scale}, {elapsed:.1f}s")


def test_c03_hypothesis_constant_stays_bounded():
    """Normalized annulus-count suprema at alpha=0.68 do not grow across
    N = 2^4 .. 2^12: top-three-N max within 2.5x the mid-range max."""
    t0 = time.perf_counter()
    n_list = [2**e for e in range(4, 13)]
    _, sups = scan_hypothesis_h(0.68, n_list, k_random=64, seed=0)
    top = max(sups[n] for n in (2**10, 2**11, 2**12))
    mid = max(sups[n] for n in (2**7, 2**8, 2**9))
    assert top <= 2.5 * mid
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(3, f"top/mid = {top / mid:.3f} <= 2.5, {elapsed:.1f}s")


def test_c04_l6_integral_oracles_agree():
    """Fourier-side exact sixth-power integrals vs quadrature at 1e-6 on 32
    seeded states, plus closed forms at 1e-12."""
    rng = stream(104, 0)
    worst = 0.0
    for i in range(32):
        k = int(rng.integers(1, 10))
        js = rng.choice(np.arange(-8, 9), size=k, replace=False)
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        u = FourierState(1.0, np.sort(js), amps)
        span = int(u.indices[-1] - u.indices[0])
        mx = 1 << (3 * span + 1).bit_length()
        for T, mt in ((0.1, 8001), (1.0, 40001)):
            # trapezoid error ~ (omega*T/mt)^2/12 with omega <= 3*8^2; the
            # node counts leave three orders of headroom under 1e-6
            exact = l6_time_integral_exact(u, T)
            quad = l6_norm_quadrature(u, T, mx, mt)
            worst = max(worst, abs(quad - exact) / exact)
    assert worst <= 1e-6
    one = FourierState.from_uhat(1.0, {5: 2.0 - 1.0j})
    two = FourierState.from_uhat(1.0, {0: 1.0, 3: 1.0})
    for T in (0.1, 1.0):
        want = 2 * math.pi * T * abs(2.0 - 1.0j) ** 6
        assert l6_time_integral_exact(one, T) == pytest.approx(want, rel=1e-12)
        assert l6_time_integral_exact(two, T) == pytest.approx(
            40 * math.pi * T, rel=1e-12
        )
    report(4, f"worst oracle mismatch {worst:.2e} <= 1e-6, closed forms 1e-12")


def test_c05_strichartz_ratio_slope_flat():
    """Sixth-norm ratios for 33 ensemble members stay flat in N over
    16..1024: fitted log-log slope at most 0.05."""
    t0 = time.perf_counter()
    res = strichartz_scan(
        0.7, [16, 32, 64, 128, 256, 512, 1024], n_random=32, seed=0
    )
    elapsed = time.perf_counter() - t0
    assert res.slope <= 0.05
    assert elapsed < 600.0
    report(5, f"slope {res.slope:.5f} <= 0.05, {elapsed:.0f}s")


def test_c06_chain_inequality_ratio_stable():
    """The sixth-power integral vs its h-spectrum majorant: ratio finite and
    within a factor 2 across N in {4, 8, 16} for a nonnegative profile."""
    ratios = []
    for N in (4, 8, 16):
        mags = {j: 1.0 for j in range(-N, N + 1)}
        rep = chain_inequality_ratio(mags, N, 0.7)
        assert math.isfinite(rep.ratio) and rep.ratio > 0
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    assert spread < 2.0
    report(6, f"ratios {[f'{r:.3f}' for r in ratios]}, spread x{spread:.2f} < 2")


def _count_A_oracle(spec: TrilinearSpec, n, tau) -> int:
    """Brute-force reference: exact rational scan of the full triple grid."""
    (a1, b1), (a2, b2), (a3, b3) = spec.i1, spec.i2, spec.i3
    lam, total = spec.lam, 0
    for x in range(a1, b1 + 1):
        for y in range(a2, b2 + 1):
            z3 = F(n) - F(x, lam) - F(y, lam)
            z = z3 * lam
            if z.denominator != 1 or not a3 <= z <= b3:
                continue
            z = int(z)
            if abs(F(x - z, lam)) < spec.n13 or abs(F(y - z, lam)) < spec.n23:
                continue
            shell = F(x * x + y * y + z * z, lam * lam)
            if abs(shell - F(tau)) <= spec.c_tol:
                total += 1
    return total


def test_c07_trilinear_counts_and_uv_identity():
    """Counting-bound scan slope <= 0.1 over lam in {8,..,64} on the three
    reference layouts; exact oracle agreement on 100 instances; the uv
    substitution residual is identically zero on 1000 rational samples."""
    for name, _ in standard_geometries(8):
        rep = normalized_sup_trend(name, [8, 16, 32, 64])
        assert rep.slope <= 0.1, (name, rep.slope)
    rng = stream(107, 0)
    for trial in range(100):
        lam = int(rng.integers(1, 5))
        starts = rng.integers(-12, 13, size=3)
        lens = np.sort(rng.integers(0, 7, size=3))
        iv = [(int(s), int(s + l)) for s, l in zip(starts, lens)]
        spec = TrilinearSpec(
            lam,
            *iv,
            n13=F(int(rng.integers(0, 7)), int(rng.integers(1, 4))),
            n23=F(int(rng.integers(0, 7)), int(rng.integers(1, 4))),
            c_tol=F(int(rng.integers(1, 5)), int(rng.integers(1, 3))),
            j_radius=int(rng.integers(0, 11)),
        )
        picks = [int(rng.integers(a, b + 1)) for a, b in iv]
        n = F(sum(picks), lam) + (F(1, 2 * lam) if trial % 7 == 0 else 0)
        tau = F(sum(p * p for p in picks), lam * lam) + F(
            int(rng.integers(-2, 3)), int(rng.integers(1, 4))
        )
        assert count_A_set(spec, n, tau) == _count_A_oracle(spec, n, tau)
    uv = uv_change_of_variables_check(1000, seed=0)
    assert uv.n_samples == 1000 and uv.all_zero
    assert uv.max_abs_residual == 0
    report(7, "slopes <= 0.1, 100/100 counts exact, uv residual == 0 x1000")


def test_c08_quadratic_and_sextic_forms_match_norms():
    """The hyperplane forms reproduce smoothed-norm functionals to 1e-10 on
    100 seeded states, and the normalized symbol quotient is exactly 1 below
    the multiplier cutoff."""
    rng = stream(108, 0)
    p16 = MultiplierParams(16, 0.5)
    p4 = MultiplierParams(4, 0.75)
    worst = 0.0
    for i in range(100):
        k = int(rng.integers(1, 10))
        js = np.sort(rng.choice(np.arange(-24, 25), size=k, replace=False))
        amps = rng.normal(size=k) + 1j * rng.normal(size=k)
        lam = float(rng.choice([1.0, 2.0, 4.0]))
        u = FourierState(lam, js, amps)
        p = p16 if i % 2 else p4
        sign = +1 if i % 4 < 2 else -1
        v = apply_I(u, p)
        got2 = lambda_n_evaluate(symbol_fn("sigma2", p), [u, u])
        want2 = 0.5 * homogeneous_h1_sq(v)
        got6 = lambda_n_evaluate(symbol_fn("sigma6", p, sign=sign), [u] * 6)
        want6 = sign * l6_now(v) / 6.0
        worst = max(
            worst,
            abs(got2 - want2) / max(1e-30, abs(want2)),
            abs(got6 - want6) / max(1e-30, abs(want6)),
        )
    assert worst <= 1e-10
    p64 = MultiplierParams(64, 0.5)
    seen = 0
    for i in range(400):
        js5 = rng.integers(-64, 65, size=5)
        js = np.append(js5, -js5.sum())
        if abs(int(js[-1])) > 64:
            continue
        t = FreqTuple(js)
        if omega_n(t) == 0:
            continue
        assert evaluate_symbol("quotient", t, p64) == 1.0  # exact, not approx
        seen += 1
    assert seen > 200
    report(8, f"worst norm-form mismatch {worst:.2e} <= 1e-10, quotient == 1 x{seen}")


def test_c09_symbol_envelope_ratios_stable_across_N():
    """Measured |sigma6~| against its envelope and |M6bar| against the
    per-case bounds: max ratios spread by less than a factor 2 over
    N in {64, 256, 1024} at 1e5 samples each."""
    t0 = time.perf_counter()
    rep = bound_scan_symbols(0.5, 100_000, [64, 256, 1024], seed=7)
    kinds = {}
    for r in rep.records:
        kinds.setdefault(r.kind, {})[r.N] = r.max_ratio
        assert r.gap_count == 0
    lines = []
    for kind, ratios in sorted(kinds.items()):
        vals = [ratios[n] for n in (64, 256, 1024)]
        if kind == "operator":
            # consistency residuals, zero up to roundoff; no spread to measure
            assert max(vals) <= 1e-10
            continue
        low = min(v for v in vals if v > 0)
        assert max(vals) / low < 2.0, (kind, vals)
        lines.append(f"{kind} x{max(vals) / low:.2f}")
    elapsed = time.perf_counter() - t0
    report(9, f"spreads {', '.join(lines)} all < 2, {elapsed:.1f}s")


def test_c10_flow_identity_closes_under_refinement():
    """Endpoint change of the corrected energy equals its integrated flux on
    4-mode defocusing data: relative residual <= 1e-6, refinement order >= 2,
    mass drift <= 1e-8, energy drift <= 1e-6."""
    rng = stream(9, 0)
    support = (0, 4, 8, 20)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    u0 = FourierState.from_uhat(4.0, dict(zip(support, amps)))
    p = MultiplierParams(4, 0.5)
    rels = []
    for div in (4, 8, 16):
        traj = integrate_galerkin(
            u0, 0.1, dt=0.1 / div, sign=+1, n_samples=div + 1
        )
        assert traj.mass_drift <= 1e-8
        assert energy_drift(traj) <= 1e-6
        rep = ftc_residual(traj, p)
        rels.append(rep.relative)
    assert rels[0] <= 1e-6
    order = -np.polyfit(np.log([4, 8, 16]), np.log(rels), 1)[0]
    assert order >= 2.0
    report(10, f"residual {rels[0]:.2e} <= 1e-6, order {order:.2f} >= 2")
