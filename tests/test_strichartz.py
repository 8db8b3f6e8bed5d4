import math
from itertools import product

import numpy as np
import pytest

from nlslab import strichartz
from nlslab.errors import CapExceededError
from nlslab.fourier import FourierState
from nlslab.rng import stream
from nlslab.strichartz import (
    DEFAULT_SUPPORT_CAP,
    QUAD_RTOL,
    HSpectrum,
    _gl_panel,
    _r_value_quadrature,
    _scan_members,
    _sigma_bandwidth,
    _spatial_l6,
    _time_panels,
    chain_inequality_ratio,
    dyadic_block_average,
    h_spectrum,
    l6_grid_size,
    l6_norm_quadrature,
    l6_time_integral_exact,
    strichartz_scan,
    sup_dyadic_block_average,
)

TWO_MODE = FourierState.from_uhat(1.0, {0: 1.0, 1: 1.0})


def h_naive(mags, N):
    """Direct sum over five free indices; reference oracle."""
    js = [j for j, v in mags.items() if v != 0]
    out: dict[int, float] = {}
    for n1, n2, n3, m1, m2 in product(js, repeat=5):
        m3 = n1 + n2 + n3 - m1 - m2
        if m3 not in mags or abs(m3) > 2 * N:
            continue
        tau = abs(n1**2 + n2**2 + n3**2 - m1**2 - m2**2 - m3**2)
        w = mags[n1] * mags[n2] * mags[n3] * mags[m1] * mags[m2] * mags[m3]
        out[tau] = out.get(tau, 0.0) + w
    return {t: v for t, v in out.items() if v != 0.0}


def test_l6_closed_forms():
    A = 2.0 - 1.0j
    one = FourierState.from_uhat(1.0, {5: A})
    for T in (0.3, 1.7):
        assert l6_time_integral_exact(one, T) == pytest.approx(
            2 * math.pi * T * abs(A) ** 6, rel=1e-13
        )
    assert l6_time_integral_exact(TWO_MODE, 0.9) == pytest.approx(
        40 * math.pi * 0.9, rel=1e-12
    )
    assert l6_time_integral_exact(one, 0.0) == 0.0
    with pytest.raises(ValueError):
        l6_time_integral_exact(one, -1.0)


def test_l6_support_cap():
    # refused before any class collapse, so the over-cap state costs nothing
    assert DEFAULT_SUPPORT_CAP == 160
    big = FourierState(1.0, np.arange(161), np.ones(161, dtype=complex))
    with pytest.raises(CapExceededError):
        l6_time_integral_exact(big, 1.0)


def test_l6_lambda_scaling_invariance():
    # rescaling by nu maps (T, value) -> (nu^2 T, same value): substitution in
    # the space-time integral, |u^nu|^6 dx dt picks up nu^{-3} * nu * nu^2
    from nlslab.fourier import rescale

    rng = np.random.default_rng(3)
    st = FourierState(1.0, np.arange(-4, 5), rng.standard_normal(9) + 1j * rng.standard_normal(9))
    base = l6_time_integral_exact(st, 0.7)
    scaled = l6_time_integral_exact(rescale(st, 2.0), 0.7 * 4.0)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_l6_direct_and_dense_routes_agree(monkeypatch):
    rng = np.random.default_rng(1)
    st = FourierState(1.0, np.arange(-20, 21), rng.standard_normal(41) + 1j * rng.standard_normal(41))
    monkeypatch.setattr(strichartz, "_DIRECT_PAIR_LIMIT", 10**9)
    a = l6_time_integral_exact(st, 0.2)
    monkeypatch.setattr(strichartz, "_DIRECT_PAIR_LIMIT", 0)
    b = l6_time_integral_exact(st, 0.2)
    assert a == pytest.approx(b, rel=1e-11)


def test_l6_spread_support_pairs_within_each_group(monkeypatch):
    # q spans 1.2e9 over the whole support, but a sigma group only a little:
    # placed at their own origin the dense groups still need an FFT of 2**31,
    # more than the 1.2e6 products of pairing them directly, so they pair
    # directly and no FFT buffer is allocated
    rng = np.random.default_rng(1)
    amps = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    st = FourierState(1.0, 1000 * np.arange(-20, 21), amps)
    a = l6_time_integral_exact(st, 0.2)
    monkeypatch.setattr(strichartz, "_DIRECT_PAIR_LIMIT", 10**9)
    b = l6_time_integral_exact(st, 0.2)
    assert a == pytest.approx(b, rel=1e-11)


def test_quadrature_guards():
    with pytest.raises(ValueError):
        l6_norm_quadrature(TWO_MODE, 1.0, 3, 5)  # needs 3*span+1 = 4
    with pytest.raises(ValueError):
        l6_norm_quadrature(TWO_MODE, 1.0, 16, 1)
    with pytest.raises(ValueError):
        l6_norm_quadrature(TWO_MODE, -1.0, 16, 4)


def test_quadrature_single_mode_any_mt():
    one = FourierState.from_uhat(1.0, {3: 1.5})
    want = 2 * math.pi * 0.8 * 1.5**6
    for mt in (2, 3, 7):
        assert l6_norm_quadrature(one, 0.8, 1, mt) == pytest.approx(want, rel=1e-12)


def test_quadrature_two_modes_t_independent():
    # |u|^2 = 2+2cos(x-t) translates in x, so even coarse time grids are exact
    want = 40 * math.pi * 0.9
    for mt in (2, 5):
        assert l6_norm_quadrature(TWO_MODE, 0.9, 16, mt) == pytest.approx(want, rel=1e-11)


def test_quadrature_trapezoid_order():
    # a 3-mode state has genuinely time-dependent integrand: halving the step
    # divides the error by about 4
    st = FourierState.from_uhat(1.0, {0: 1.0, 1: 1.0, 3: 0.5})
    exact = l6_time_integral_exact(st, 0.5)
    errs = [abs(l6_norm_quadrature(st, 0.5, 32, mt) - exact) for mt in (9, 17, 33)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_quadrature_matches_exact_random_states():
    rng = np.random.default_rng(7)
    for _ in range(6):
        js = np.sort(rng.choice(np.arange(-8, 9), size=8, replace=False))
        st = FourierState(1.0, js, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        for T in (0.1, 1.0):
            ex = l6_time_integral_exact(st, T)
            mt, prev = 33, None
            while True:
                qd = l6_norm_quadrature(st, T, 64, mt)
                if prev is not None and abs(qd - prev) <= 1e-7 * abs(qd):
                    break
                prev, mt = qd, 2 * (mt - 1) + 1
            assert qd == pytest.approx(ex, rel=1e-6)


def test_h_examples():
    assert h_spectrum({0: 1.0}, 1).values == {0: 1.0}
    assert h_spectrum({0: 1.0, 1: 1.0}, 1).values == {0: 20.0}
    assert h_spectrum({0: 1.0, 2: 1.0}, 1).values == {0: 20.0}


def test_h_validation():
    with pytest.raises(ValueError):
        h_spectrum({0: 1.0}, 3)  # not dyadic
    with pytest.raises(CapExceededError):
        h_spectrum({0: 1.0}, 32)
    with pytest.raises(ValueError):
        h_spectrum({5: 1.0}, 2)
    with pytest.raises(ValueError):
        h_spectrum({0: -1.0}, 1)
    with pytest.raises(ValueError):
        HSpectrum(1, {99: 1.0})
    with pytest.raises(ValueError):
        HSpectrum(1, {0: -2.0})


def test_h_against_naive_oracle():
    # dyadic-rational magnitudes keep every addition exact in both routes
    cases = [
        ({0: 1.0, 1: 1.0, 2: 1.0}, 1),
        ({-2, -1, 0, 1, 2}, 1),
        ({0: 1.0, 1: 0.5, 3: 2.0, -2: 0.25}, 2),
        ({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}, 2),
    ]
    for mags, N in cases:
        if isinstance(mags, set):
            mags = {j: 1.0 for j in mags}
        assert h_spectrum(mags, N).values == h_naive(mags, N)


def test_h_window_and_conjugation_invariance():
    mags = {j: abs(complex(j, 1)) for j in range(-2, 3)}
    a = h_spectrum(mags, 1)
    b = h_spectrum(mags, 2)  # wider window, same support: identical spectrum
    assert a.values == pytest.approx(b.values)
    assert all(v >= 0 for v in a.values.values())


def test_dyadic_block_average():
    h0 = h_spectrum({0: 1.0}, 1)
    for K in (1, 2, 5):
        assert dyadic_block_average(h0, K) == 0.0
    K = 5
    flat = HSpectrum(2, {t: 1.0 for t in range(K, 2 * K + 1)})
    assert dyadic_block_average(flat, K) == pytest.approx((K + 1) / K)
    with pytest.raises(ValueError):
        dyadic_block_average(flat, 0)


def test_block_average_vs_naive_enumeration():
    mags = {j: 1.0 for j in range(5)}
    h = h_spectrum(mags, 2)
    naive = h_naive(mags, 2)
    want = sum(naive.get(t, 0.0) for t in range(4, 9)) / 4
    assert dyadic_block_average(h, 4) == pytest.approx(want)
    assert want > 0


def test_sup_block_average():
    h = HSpectrum(2, {7: 8.0})
    sup, k = sup_dyadic_block_average(h, 0.01)  # base K = 1
    # blocks [1,2],[2,4],[4,8],[8,16]: tau=7 is caught by K=4 at weight 1/4
    assert (sup, k) == (2.0, 4)


def test_chain_ratio_single_mode_is_one():
    for (j, a, N) in [(0, 1.0, 4), (3, 2.5, 8)]:
        rep = chain_inequality_ratio({j: a}, N, 0.7)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.block_sup == 0.0


def test_chain_ratio_constant_profile():
    rep = chain_inequality_ratio({j: 1.0 for j in range(-4, 5)}, 4, 0.7)
    assert 0 < rep.ratio < 10
    assert rep.lhs > 0 and rep.h0_term > 0


def test_chain_lhs_matches_exact_sextuple_sum():
    # the chain reads its left side off h; the sextuple sum is its oracle
    rng = stream(31, 0)
    for N in (1, 2, 4, 8, 16):
        js = range(-N, N + 1)
        for mags in ({j: 1.0 for j in js}, {j: float(rng.uniform()) for j in js}):
            T = float(N) ** -0.7
            exact = l6_time_integral_exact(FourierState.from_uhat(1.0, mags), T)
            rep = chain_inequality_ratio(mags, N, 0.7)
            assert rep.lhs == pytest.approx(exact, rel=1e-12)


def test_scan_structure_and_determinism():
    res1 = strichartz_scan(0.7, [4, 8], n_random=2, seed=3)
    res2 = strichartz_scan(0.7, [4, 8], n_random=2, seed=3)
    assert [r.r_value for r in res1.records] == [r.r_value for r in res2.records]
    assert res1.max_r == res2.max_r
    assert {r.member for r in res1.records} == {"const", "random-0", "random-1"}
    assert all(r.method == "quadrature" for r in res1.records)
    with pytest.raises(ValueError):
        strichartz_scan(0.7, [])


def test_scan_quadrature_route_matches_exact():
    res = strichartz_scan(0.7, [4, 16, 32], n_random=1, seed=2)
    members = {
        (n, name): state for n in (4, 16, 32) for name, state in _scan_members(n, 1, True, 2)
    }
    assert len(res.records) == len(members) == 6
    for r in res.records:
        state = members[(r.n, r.member)]
        exact = l6_time_integral_exact(state, r.n ** -0.7) ** (1 / 6) / state.l2_norm()
        assert r.r_value == pytest.approx(exact, rel=QUAD_RTOL)


def test_scan_small_slope():
    res = strichartz_scan(0.7, [4, 8, 16], n_random=2, seed=5)
    assert abs(res.slope) < 0.05


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_l6_grid_size_is_the_smallest_alias_free_5_smooth_size():
    assert l6_grid_size(0) == 1
    assert l6_grid_size(512) == 1600
    assert l6_grid_size(2048) == 6250  # 6144 = 3 * 2048 aliases
    for span in range(0, 3000):
        mx = l6_grid_size(span)
        assert mx >= 3 * span + 1 and _is_5_smooth(mx)
        if span < 400:
            assert not any(_is_5_smooth(m) for m in range(3 * span + 1, mx))


def _stack(states):
    return states[0].indices, np.stack([s.uhat_array() for s in states])


def test_spatial_l6_rows_do_not_depend_on_block_size(monkeypatch):
    rng = np.random.default_rng(11)
    ts = np.sort(rng.uniform(0.0, 0.05, 97))
    dense = [st for _, st in _scan_members(32, 3, True, 4)]
    sparse_js = np.array([-9, -4, 0, 3, 17, 40])
    sparse = [FourierState(2.0, sparse_js, rng.standard_normal(6) + 1j * rng.standard_normal(6))]
    for states in (dense, sparse):
        js, uh = _stack(states)
        lam = states[0].lam
        mx = l6_grid_size(int(js[-1] - js[0]))
        outs = []
        for elems in (1, 1 << 11, 1 << 13, 1 << 16, 1 << 22):
            monkeypatch.setattr(strichartz, "_BLOCK_ELEMS", elems)
            outs.append(_spatial_l6(js, lam, uh, ts, mx))
        assert outs[0].shape == (len(states), len(ts))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])


def test_spatial_l6_batch_matches_one_member_calls():
    ts = np.linspace(0.0, 0.04, 61)
    states = [st for _, st in _scan_members(64, 4, True, 9)]
    js, uh = _stack(states)
    mx = l6_grid_size(128)
    batch = _spatial_l6(js, 1.0, uh, ts, mx)
    for i in range(len(states)):
        assert np.array_equal(batch[i], _spatial_l6(js, 1.0, uh[i : i + 1], ts, mx)[0])
    rs = _r_value_quadrature(states, 64**-0.7)
    assert rs == [_r_value_quadrature([st], 64**-0.7)[0] for st in states]
    with pytest.raises(ValueError):
        _r_value_quadrature([states[0], TWO_MODE], 0.1)


@pytest.mark.parametrize("n", [16, 256])
def test_r_value_on_5_smooth_grid_matches_power_of_two_grid(n, monkeypatch):
    states = [st for _, st in _scan_members(n, 3, True, 17)]
    T = float(n) ** -0.7
    smooth = _r_value_quadrature(states, T)
    monkeypatch.setattr(strichartz, "l6_grid_size", lambda span: 1 << (3 * span + 1).bit_length())
    pow2 = _r_value_quadrature(states, T)
    assert l6_grid_size(2 * n) != 1 << (6 * n + 1).bit_length()
    for a, b in zip(smooth, pow2):
        assert abs(a - b) <= 1e-14 * abs(b)


def _brute_bandwidth(js):
    """max |q - q'| over index triples of js with equal sigma, by enumeration."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for t in product([int(j) for j in js], repeat=3):
        sig, q = sum(t), sum(j * j for j in t)
        lo[sig] = min(lo.get(sig, q), q)
        hi[sig] = max(hi.get(sig, q), q)
    return max(hi[s] - lo[s] for s in hi)


BANDWIDTH_SUPPORTS = {
    "single": [5],
    "two-symmetric": [-7, 7],
    "symmetric-3": list(range(-3, 4)),
    "symmetric-8": list(range(-8, 9)),
    "shifted": list(range(2, 9)),
    "negative-shifted": list(range(-40, -31)),
    "gapped": [-3, -1, 0, 2, 5, 6],
    "squares": [0, 1, 4, 9],
    "sparse": [-9, -4, 0, 3, 17, 40],
}


@pytest.mark.parametrize("name", sorted(BANDWIDTH_SUPPORTS))
def test_sigma_bandwidth_bounds_brute_force(name):
    js = np.array(BANDWIDTH_SUPPORTS[name], dtype=np.int64)
    bound = _sigma_bandwidth(js)
    assert bound >= _brute_bandwidth(js)
    assert bound <= 3 * int(np.max(js**2) - np.min(js**2))


def test_sigma_bandwidth_values():
    # brute force / bound, from the enumeration above
    assert (_brute_bandwidth(range(2, 9)), _sigma_bandwidth(np.arange(2, 9))) == (24, 24)
    gapped = np.array([-3, -1, 0, 2, 5, 6])
    assert (_brute_bandwidth(gapped), _sigma_bandwidth(gapped)) == (54, 54)
    assert (_brute_bandwidth([0, 1, 4, 9]), _sigma_bandwidth(np.array([0, 1, 4, 9]))) == (48, 54)
    assert _sigma_bandwidth(np.array([5])) == 0
    assert _sigma_bandwidth(np.array([-7, 7])) == 0  # every triple has q = 147


def test_sigma_bandwidth_on_symmetric_support():
    for n in range(1, 9):
        js = np.arange(-n, n + 1)
        assert _sigma_bandwidth(js) == _brute_bandwidth(js) == 8 * n * n // 3
    for n in (64, 256, 1024, 2**40):
        js = np.array([-n, 0, n])
        assert _sigma_bandwidth(js) == 8 * n * n // 3 < 3 * n * n


def test_gl_panel_at_admissible_width():
    x, w, wl = _gl_panel()
    assert len(x) == 64 and wl == pytest.approx(166.39, abs=0.01)
    assert not x.flags.writeable and _gl_panel() is _gl_panel()

    def panel_error(omega, a, L):
        ts = a + (L / 2.0) * (x + 1.0)
        got = np.sum(np.exp(1j * omega * ts) * w) * (L / 2.0)
        want = (np.exp(1j * omega * (a + L)) - np.exp(1j * omega * a)) / (1j * omega)
        return abs(got - want) / L

    for L in (0.003, 1.0, 7.5):
        for a in (0.0, 0.37):
            for omega in (wl / L, -wl / L, 0.9 * wl / L):
                assert panel_error(omega, a, L) <= QUAD_RTOL / 10.0
            # the remainder bound is not loose by much: 30% wider fails
            assert panel_error(1.3 * wl / L, a, L) > QUAD_RTOL


def test_time_panels_keep_the_panel_admissible():
    wl = _gl_panel()[2]
    for js, lam, T in ((np.arange(-64, 65), 1.0, 64**-0.7), (np.array([-9, -4, 0, 3, 17, 40]), 2.0, 1.0)):
        panels = _time_panels(js, lam, T)
        omega = _sigma_bandwidth(js) / lam**2
        assert omega * T / panels <= wl < omega * T / (panels - 1)
    assert _time_panels(np.array([3]), 1.0, 100.0) == 1


@pytest.mark.parametrize(
    "js, lam, Ts",
    [
        ([2, 3, 4, 5, 6, 7, 8], 1.0, (0.3, 5.0, 40.0)),
        ([-9, -4, 0, 3, 17, 40], 2.0, (0.05, 0.4, 2.0)),
    ],
    ids=["shifted", "sparse"],
)
def test_r_value_quadrature_matches_exact_off_the_scan_support(js, lam, Ts):
    rng = np.random.default_rng(23)
    js = np.array(js)
    states = [
        FourierState(lam, js, rng.standard_normal(len(js)) + 1j * rng.standard_normal(len(js)))
        for _ in range(3)
    ] + [FourierState(lam, js, np.ones(len(js), dtype=np.complex128))]
    for T in Ts:
        assert _time_panels(js, lam, T) >= (T > 1.0)
        rs = _r_value_quadrature(states, T)
        for r, st in zip(rs, states):
            exact = l6_time_integral_exact(st, T)
            assert (r * st.l2_norm()) ** 6 == pytest.approx(exact, rel=QUAD_RTOL)
