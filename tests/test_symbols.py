"""Tests for the frequency-cutoff multiplier, resonance classification, and
multilinear symbol evaluation."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from nlslab import symbols
from nlslab.errors import CapExceededError
from nlslab.fourier import FourierState
from nlslab.rng import stream
from nlslab.symbols import (
    CANDIDATE_CAP,
    DEFAULT_THRESHOLDS,
    GAMMA_MODE_CAPS,
    KIND_NAMES,
    SCAN_THRESHOLDS,
    FreqTuple,
    MultiplierParams,
    Thresholds,
    apply_I,
    bound_scan_symbols,
    classify_resonance,
    dyadic_class,
    energy_e1i,
    evaluate_symbol,
    homogeneous_h1_sq,
    in_upsilon6,
    l6_now,
    lambda_n_evaluate,
    multiplier_m,
    omega_n,
    support_tuples,
    symbol_fn,
    _class_batch,
    _classify_batch,
    _omega_int,
    _sample_tuples,
    _sort_groups,
    _symbol_batch,
    _zero_sum_rows,
)

P16 = MultiplierParams(16, 0.5)
P4 = MultiplierParams(4, 0.5)


def rand_state(rng, lam, js):
    amps = rng.normal(size=len(js)) + 1j * rng.normal(size=len(js))
    return FourierState.from_uhat(float(lam), dict(zip(map(int, js), amps)))


def rand_gamma_tuple(rng, width):
    js = rng.integers(-width, width + 1, size=5)
    return np.append(js, -js.sum())


# Test-only references: the classifier and the tuple enumerator as they were
# before the sorting network, the frexp classes and the broadcast partial
# sums.  The fast paths must reproduce them bit for bit.


def reference_class_batch(num, lam):
    """Dyadic class of num/lam by log2 with an exact fix-up pass each way."""
    t = -((-num) // lam)  # ceil(num/lam)
    u = np.maximum(t - 1, 0)
    e = np.ceil(np.log2(u + 1.0)).astype(np.int64)
    cls = np.int64(1) << e
    low = cls < t
    cls[low] <<= 1
    high = (cls >> 1) >= np.maximum(t, 1)
    cls[high] >>= 1
    return cls


def reference_sort_groups(js):
    """Canonical slot order by two stable argsorts per group."""

    def sort_block(block):
        # stable composition: secondary value desc first, magnitude desc last
        key = np.argsort(-block, axis=1, kind="stable")
        block = np.take_along_axis(block, key, axis=1)
        key2 = np.argsort(-np.abs(block), axis=1, kind="stable")
        return np.take_along_axis(block, key2, axis=1)

    out = js.copy()
    for cols in ((0, 2, 4), (1, 3, 5)):
        out[:, cols] = sort_block(out[:, cols])
    om, em = np.abs(out[:, (0, 2, 4)]), np.abs(out[:, (1, 3, 5)])
    swap = np.zeros(len(out), dtype=bool)
    undecided = np.ones(len(out), dtype=bool)
    for c in range(3):
        swap |= undecided & (em[:, c] > om[:, c])
        undecided &= em[:, c] == om[:, c]
    if swap.any():
        sub = -out[swap][:, (1, 0, 3, 2, 5, 4)]
        for cols in ((0, 2, 4), (1, 3, 5)):
            sub[:, cols] = sort_block(sub[:, cols])
        out[swap] = sub
    return out


def reference_classify_batch(js, lam, p, th=DEFAULT_THRESHOLDS):
    """(codes, upsilon, can, cls, scls) with per-row sorts throughout."""
    js = np.asarray(js, dtype=np.int64)
    can = reference_sort_groups(js)
    mags = np.abs(can)
    cls = reference_class_batch(mags, lam)
    smags = -np.sort(-mags, axis=1)
    scls = -np.sort(-cls, axis=1)

    upsilon = th.sim(scls[:, 0], scls[:, 1]) & (smags[:, 1] > p.N * lam)
    preamble = th.sim(cls[:, 0], cls[:, 1])
    k1, k2 = can[:, 0], can[:, 1]
    sum12 = np.abs(k1 + k2)
    diff12 = np.abs(k1 - k2)
    case_i = (
        th.sim(scls[:, 0], scls[:, 1])
        & th.sim(scls[:, 2], scls[:, 3])
        & th.gg(scls[:, 0], scls[:, 2])
        & (k1 * k2 < 0)
        & (sum12 * diff12 <= th.c_window * lam**2 * scls[:, 2] ** 2)
    )
    gate_ii = th.sim(scls[:, 0], scls[:, 3]) & th.gg(scls[:, 0], scls[:, 4])

    def topfour(idx):
        sub = -np.sort(-cls[:, idx], axis=1)
        return (sub == scls[:, :4]).all(axis=1)

    def sign_spread(anchor, others):
        a = can[:, anchor]
        ok = np.ones(len(can), dtype=bool)
        allpos = np.ones(len(can), dtype=bool)
        allneg = np.ones(len(can), dtype=bool)
        for c in others:
            v = can[:, c]
            allpos &= v > 0
            allneg &= v < 0
            dcls = reference_class_batch(np.abs(a - v), lam)
            pcls = reference_class_batch(np.abs(a + v), lam)
            ok &= ~(a * v > 0) | th.sim(dcls, scls[:, 0])
            ok &= ~(a * v < 0) | th.sim(pcls, scls[:, 0])
        return ok & ~(allpos | allneg)

    case_iia = gate_ii & topfour([0, 1, 2, 3])
    case_iib = gate_ii & topfour([0, 1, 3, 5]) & sign_spread(0, (1, 3, 5))
    case_iic = gate_ii & topfour([0, 1, 2, 4]) & sign_spread(1, (0, 2, 4))
    case_iii = th.sim(scls[:, 0], scls[:, 4])
    codes = np.select(
        [~preamble, case_i, case_iia, case_iib, case_iic, case_iii],
        [0, 1, 2, 3, 4, 5],
        default=0,
    ).astype(np.int8)
    codes[~upsilon] = 0
    return codes, upsilon, can, cls, scls


def reference_zero_sum_rows(supports):
    """Stored zero-sum tuples by divmod of every candidate index."""
    slots = [s if i % 2 == 0 else -s for i, s in enumerate(supports[:-1])]
    last = supports[-1]
    rem = np.arange(math.prod(len(s) for s in slots), dtype=np.int64)
    digits, ssum = [], 0
    for s in slots:
        rem, d = np.divmod(rem, len(s))
        digits.append(d)
        ssum = ssum + s[d]
    pos = np.clip(np.searchsorted(last, ssum), 0, len(last) - 1)
    ok = last[pos] == ssum
    digits = np.stack([d[ok] for d in digits], axis=1).astype(np.int32)
    js = np.column_stack([s[d] for s, d in zip(slots, digits.T)] + [-ssum[ok]])
    return digits, pos[ok].astype(np.int32), js


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestMultiplier:
    def test_breakpoints(self):
        p = MultiplierParams(8, 0.25)
        assert multiplier_m(3.0, p) == 1.0
        assert multiplier_m(8.0, p) == 1.0
        assert multiplier_m(16.0, p) == pytest.approx(2.0 ** (0.25 - 1.0), rel=1e-15)
        assert multiplier_m(32.0, p) == pytest.approx(4.0 ** (0.25 - 1.0), rel=1e-15)

    def test_monotone_and_growth(self):
        # m decreasing, while r -> r * m(r) keeps increasing
        p = MultiplierParams(16, 0.7)
        rs = np.linspace(0.5, 300.0, 700)
        ms = np.array([multiplier_m(r, p) for r in rs])
        assert (np.diff(ms) <= 1e-15).all()
        assert (np.diff(rs * ms) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiplierParams(12, 0.5)  # not a power of two
        with pytest.raises(ValueError):
            MultiplierParams(0, 0.5)
        with pytest.raises(ValueError):
            MultiplierParams(8, 0.0)
        with pytest.raises(ValueError):
            MultiplierParams(8, 1.0)

    def test_apply_identity_below_cutoff(self):
        u = FourierState.from_uhat(2.0, {-7: 1.0 + 2j, 0: 0.5, 8: -1j})
        v = apply_I(u, P4)  # |k| = j/lam <= 4 throughout
        assert np.array_equal(u.amps, v.amps)

    def test_smoothing_bound(self):
        # sum m^2 k^2 |c|^2 <= N^{2-2s} sum |k|^{2s} |c|^2, pointwise in k
        rng = stream(21, 0)
        for _ in range(100):
            lam = float(rng.integers(1, 4))
            p = MultiplierParams(int(2 ** rng.integers(1, 6)), float(rng.uniform(0.1, 0.9)))
            js = rng.choice(np.arange(-60, 61), size=9, replace=False)
            u = rand_state(rng, lam, np.sort(js))
            k = u.indices / lam
            lhs = homogeneous_h1_sq(apply_I(u, p))
            rhs = p.N ** (2 - 2 * p.s) * math.tau * np.sum(
                np.abs(k) ** (2 * p.s) * np.abs(u.amps) ** 2
            )
            assert lhs <= rhs * (1 + 1e-12)


class TestTuples:
    def test_freq_tuple_basics(self):
        t = FreqTuple((64, -64, 2, -1, -1, 0))
        assert t.arity == 6 and t.on_gamma()
        assert t.ks == tuple(F(j) for j in t.js)
        assert not FreqTuple((1, 2)).on_gamma()
        assert FreqTuple((3, -6), lam=2).ks == (F(3, 2), F(-3))
        with pytest.raises(ValueError):
            FreqTuple((1, 2, 3))
        with pytest.raises(ValueError):
            FreqTuple((1, -1), lam=0)

    def test_omega_values(self):
        assert omega_n(FreqTuple((64, -64, 2, -1, -1, 0))) == 4
        assert omega_n(FreqTuple((5, -5, 3, -3, 1, -1))) == 0
        assert omega_n(FreqTuple((13, -12, 0, 3, 0, -4))) == 0
        assert omega_n(FreqTuple((7, -5), lam=2)) == F(49 - 25, 4)

    def test_dyadic_class_scalar(self):
        assert [dyadic_class(x) for x in (0, 1, 2, 3, 4, 5, 63, 64, 65)] == [
            1, 1, 2, 4, 4, 8, 64, 64, 128,
        ]
        assert dyadic_class(F(13, 4)) == 4
        assert dyadic_class(2.5) == 4
        with pytest.raises(ValueError):
            dyadic_class(-1)

    def test_class_batch_matches_scalar(self):
        rng = stream(21, 1)
        for lam in (1, 2, 3, 8):
            nums = rng.integers(0, 100_000, size=400)
            got = _class_batch(nums, lam)
            want = [dyadic_class(F(int(n), lam)) for n in nums]
            assert got.tolist() == want

    @pytest.mark.parametrize("lam", [1, 3, 8])
    def test_class_batch_exact_to_the_int64_limit(self, lam):
        # 2**k - 1, 2**k, 2**k + 1 up to k = 62: above 2**53 the float of
        # ceil(num/lam) - 1 rounds, and the frexp exponent must be fixed up
        nums = [0, 1] + [2**k + d for k in range(1, 63) for d in (-1, 0, 1)]
        want = [dyadic_class(F(n, lam)) for n in nums]
        fits = [n for n, w in zip(nums, want) if w <= 2**62]
        got = _class_batch(np.array(fits, dtype=np.int64), lam)
        assert got.dtype == np.int64
        assert got.tolist() == [w for w in want if w <= 2**62]
        # a class of 2**63 does not fit int64: refused, never wrapped
        for n in set(nums) - set(fits):
            with pytest.raises(OverflowError):
                _class_batch(np.array([n], dtype=np.int64), lam)
        assert len(fits) == len(nums) - (lam == 1)


CLASSIFIER_CASES = [
    ((64, -64, 64, -64, 64, -64), "Resonant-iii"),
    ((64, -64, 2, -1, -1, 0), "Resonant-i"),
    ((96, -64, -16, -8, -4, -4), "NonResonant"),
    ((64, -63, 33, -34, 1, -1), "Resonant-iia"),
    ((64, -47, -5, -45, 0, 33), "Resonant-iib"),
    ((97, 33, -66, 6, -70, 0), "Resonant-iic"),
    ((100, -3, -101, 2, 1, 1), "NonResonant"),
]


class TestClassifier:
    @pytest.mark.parametrize("js,kind", CLASSIFIER_CASES)
    def test_fixed_verdicts(self, js, kind):
        v = classify_resonance(FreqTuple(js), P16)
        assert v.kind == kind
        assert v.witness["cutoff"] == 16
        assert v.witness["thresholds"] == (2, 8, 4)
        assert len(v.witness["canonical"]) == 6

    def test_pair_window_is_deciding(self):
        # the same giant-pair geometry flips to case (i) once k1+k2 shrinks
        far = classify_resonance(FreqTuple((96, -64, -16, -8, -4, -4)), P16)
        near = classify_resonance(FreqTuple((66, -64, -16, 8, 2, 4)), P16)
        assert far.kind == "NonResonant" and near.kind == "Resonant-i"

    def test_upsilon_gate(self):
        t = FreqTuple((64, -64, 2, -1, -1, 0))
        assert in_upsilon6(t, P16)
        assert not in_upsilon6(t, MultiplierParams(64, 0.5))  # not strictly above N
        assert not in_upsilon6(FreqTuple((300, -128, -60, -50, -40, -22)), P16)
        with pytest.raises(ValueError):
            in_upsilon6(FreqTuple((1, -1, 1, -1)), P16)

    @pytest.mark.parametrize("th", [DEFAULT_THRESHOLDS, SCAN_THRESHOLDS, Thresholds(3, 5, 4)])
    def test_relations_on_arrays_match_scalar_calls(self, th):
        rng = stream(22, 4)
        a = np.concatenate([[0, 1, 2, 4, 8, 64], rng.integers(0, 300, size=200)]).astype(np.int64)
        b = np.concatenate([[0, 4, 1, 1, 2, 8], rng.integers(0, 300, size=200)]).astype(np.int64)
        for rel in (th.sim, th.gg):
            got = rel(a, b)
            assert got.dtype == bool
            assert got.tolist() == [bool(rel(int(x), int(y))) for x, y in zip(a, b)]
        assert type(in_upsilon6(FreqTuple((64, -64, 2, -1, -1, 0)), P16)) is bool

    def test_rejections(self):
        with pytest.raises(ValueError):
            classify_resonance(FreqTuple((1, 2, 3, 4, 5, 6)), P16)  # off hyperplane
        with pytest.raises(ValueError):
            classify_resonance(FreqTuple((3, -3, 2, -2, 1, -1)), P16)  # off Upsilon
        with pytest.raises(ValueError):
            classify_resonance(FreqTuple((17, -17)), P16)

    def test_slot_group_permutation_invariance(self):
        rng = stream(22, 0)
        for _ in range(60):
            js = rand_gamma_tuple(rng, 120)
            t = FreqTuple(tuple(int(j) for j in js))
            if not in_upsilon6(t, P16):
                continue
            base = classify_resonance(t, P16).kind
            po, pe = rng.permutation((0, 2, 4)), rng.permutation((1, 3, 5))
            shuf = [0] * 6
            for a, b in zip((0, 2, 4), po):
                shuf[a] = int(js[b])
            for a, b in zip((1, 3, 5), pe):
                shuf[a] = int(js[b])
            assert classify_resonance(FreqTuple(tuple(shuf)), P16).kind == base

    def test_total_and_deterministic(self):
        rng = stream(22, 1)
        kinds = set()
        for _ in range(300):
            js = rand_gamma_tuple(rng, 90)
            t = FreqTuple(tuple(int(j) for j in js))
            if not in_upsilon6(t, P16):
                continue
            v1 = classify_resonance(t, P16)
            v2 = classify_resonance(t, P16)
            assert v1.kind == v2.kind
            kinds.add(v1.kind)
        assert kinds  # the sample reached the classifier at all

    def test_batch_matches_scalar(self):
        rng = stream(22, 2)
        rows = []
        while len(rows) < 50:
            js = rand_gamma_tuple(rng, 200)
            if in_upsilon6(FreqTuple(tuple(int(j) for j in js)), P16):
                rows.append(js)
        mat = np.array(rows)
        codes, upsilon, *_ = _classify_batch(mat, 1, P16, DEFAULT_THRESHOLDS)
        want, want_upsilon, *_ = reference_classify_batch(mat, 1, P16, DEFAULT_THRESHOLDS)
        assert upsilon.all() and want_upsilon.all()
        assert codes.tolist() == want.tolist()
        for row, code in zip(rows, want):
            v = classify_resonance(FreqTuple(tuple(int(j) for j in row)), P16)
            assert v.kind == KIND_NAMES[code]

    @pytest.mark.parametrize("th", [DEFAULT_THRESHOLDS, SCAN_THRESHOLDS], ids=["default", "scan"])
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_classifier_matches_reference_on_samples(self, th, lam):
        for N in (1, 16, 64, 1024):
            js = _sample_tuples(stream(23, lam, N), 4000, N, lam)
            pN = MultiplierParams(N, 0.5)
            got = _classify_batch(js, lam, pN, th)
            assert_same_bits(got, reference_classify_batch(js, lam, pN, th))
            assert_same_bits([_sort_groups(js.T).T], [reference_sort_groups(js)])

    def test_classifier_matches_reference_on_ties(self):
        # every sign and order of small magnitudes: v and -v in one group,
        # zeros, equal magnitude profiles in both groups (the conjugation
        # swap tie) and all six magnitudes equal
        small = np.array(list(itertools.product(range(-2, 3), repeat=6)), dtype=np.int64)
        hand = np.array(
            [
                (64, -64, 64, -64, 64, -64),  # all magnitudes equal
                (-64, 64, -64, 64, -64, 64),
                (64, 64, -64, -64, 64, 64),
                (5, -5, -5, 5, 0, 0),  # v and -v in each group, zeros
                (0, 0, 0, 0, 0, 0),
                (40, -40, 3, 3, -3, -3),  # same magnitude profile in both groups
                (-40, 40, 3, -3, -3, 3),
                (65, -64, 33, 33, -1, 0),
                (64, -65, 33, 33, 0, -1),  # the even group leads
            ],
            dtype=np.int64,
        )
        # the classifier runs in int32 up to max |entry| = 46340, whose
        # square is the last below 2**31, and in int64 from 46341 on
        edges = [
            np.array(
                [(a, -a, 2, -1, -1, 0), (a, -a, a, -a, a, -a), (a, 1 - a, a // 2, -(a // 2), 3, -4),
                 (-a, a - 7, 7, 0, 0, 0), (a, 5, -a, -3, 1, 0)],
                dtype=np.int64,
            )
            for a in (46340, 46341)
        ]
        cases = [(small, 1), (small * 33, 16), (hand, 16), (hand, 1)] + [(e, N) for e in edges for N in (1, 16)]
        for rows, N in cases:
            assert_same_bits([_sort_groups(rows.T).T], [reference_sort_groups(rows)])
            for th in (DEFAULT_THRESHOLDS, SCAN_THRESHOLDS):
                for lam in (1, 3):
                    pN = MultiplierParams(N, 0.5)
                    got = _classify_batch(rows, lam, pN, th)
                    assert_same_bits(got, reference_classify_batch(rows, lam, pN, th))
        codes = _classify_batch(small * 33, 1, P16, SCAN_THRESHOLDS)[0]
        assert set(codes.tolist()) >= {0, 1, 2, 5}  # the ties reach the cases

    def test_merge_network_on_zero_one_inputs(self):
        # by the 0-1 principle the network merges every pair of sorted
        # triples when it merges every pair of sorted 0-1 triples: all 64
        # 0-1 inputs, slot-major, each triple sorted descending first
        x = np.array(list(itertools.product((0, 1), repeat=6))).T
        x[0::2] = -np.sort(-x[0::2], axis=0)
        x[1::2] = -np.sort(-x[1::2], axis=0)
        assert (symbols._merge_groups(x) == -np.sort(-x, axis=0)).all()

    def test_int64_range_is_checked(self):
        # (a, -a, 2, -1, -1, 0) is case (i) at every a; at a = 2**32 the
        # product k1*k2 = -2**64 once wrapped to 0 and read NonResonant.
        # 3037000499 is the largest a whose square fits int64.
        for a in (64, 2**20, 2**31, 3037000499):
            assert classify_resonance(FreqTuple((a, -a, 2, -1, -1, 0)), P16).kind == "Resonant-i"
        for a in (3037000500, 2**32):
            with pytest.raises(OverflowError):
                classify_resonance(FreqTuple((a, -a, 2, -1, -1, 0)), P16)
        rows = np.array([(64, -64, 2, -1, -1, 0), (2**32, -(2**32), 2, -1, -1, 0)])
        with pytest.raises(OverflowError):  # one out-of-range row refuses the batch
            _classify_batch(rows, 1, P16)

    def test_case_i_window_saturates(self):
        # pair term 4000 * 76000, third class 4096: the window holds for
        # c_window >= 19, and for c_window >= 2**39 the cap c_window * 4096**2
        # leaves int64 (it wrapped to -2**63 and to 0 before)
        js = np.array([(40000, -36000, 4000, -4000, -2000, -2000)], dtype=np.int64)
        for c, kind in ((4, 0), (19, 1), (2**30, 1), (2**39, 1), (2**40, 1), (2**70, 1)):
            codes = _classify_batch(js, 1, P16, Thresholds(c_window=c))[0]
            assert codes.tolist() == [kind]

    def test_wider_thresholds_only_grow_the_resonant_set(self):
        rng = stream(22, 3)
        n_flipped = 0
        for _ in range(400):
            js = rand_gamma_tuple(rng, 150)[None, :]
            c_def, u_def, *_ = _classify_batch(js, 1, P16, DEFAULT_THRESHOLDS)
            c_scan, u_scan, *_ = _classify_batch(js, 1, P16, SCAN_THRESHOLDS)
            if u_def[0] and u_scan[0] and c_def[0] > 0:
                assert c_scan[0] > 0
            if u_def[0] and u_scan[0] and c_def[0] == 0 and c_scan[0] > 0:
                n_flipped += 1
        assert n_flipped > 0  # the widened constants are not a no-op


class TestSymbols:
    def test_sigma2_value(self):
        assert evaluate_symbol("sigma2", FreqTuple((7, -7)), P16) == 24.5
        v = evaluate_symbol("sigma2", FreqTuple((20, -20)), P16)
        assert v == pytest.approx(0.5 * (multiplier_m(20, P16) * 20) ** 2, rel=1e-15)

    def test_sigma6_sign(self):
        t = FreqTuple((5, -5, 3, -3, 1, -1))
        assert evaluate_symbol("sigma6", t, P16) == pytest.approx(1 / 6)
        assert evaluate_symbol("sigma6", t, P16, sign=-1) == pytest.approx(-1 / 6)

    def test_m6_exact_zero_below_cutoff(self):
        rng = stream(23, 0)
        p = MultiplierParams(1024, 0.5)
        for lam in (1, 2, 4):
            for _ in range(300):
                js = rand_gamma_tuple(rng, 800)
                if abs(int(js[-1])) > 1023:
                    continue
                t = FreqTuple(tuple(int(j) for j in js), lam)
                assert evaluate_symbol("M6", t, p) == 0.0

    def test_shared_multiplier_matches_separate_evaluations(self):
        # sigma6, M6_1 and M6 read one multiplier evaluation; each must equal
        # the formula with its own evaluation, bit for bit
        js = _sample_tuples(stream(23, 2), 3000, 256, 2)
        for p in (P16, MultiplierParams(256, 0.3)):
            k = js / 2
            m = symbols._m_batch(np.abs(k), p)
            v = m * m * k * k
            m6_1 = ((v[:, 0] + v[:, 2] + v[:, 4]) - (v[:, 1] + v[:, 3] + v[:, 5])) / 6.0
            prod = symbols._m_batch(np.abs(js / 2), p).prod(axis=1)
            m6 = m6_1 - prod * (_omega_int(js) / 4.0) / 6.0
            assert_same_bits(
                [_symbol_batch(s, js, 2, p, sign=-1) for s in ("sigma6", "M6_1", "M6")],
                [-1 * prod / 6.0, m6_1, m6],
            )
            # several ids from one call read the bits of each id alone; the
            # support adds Omega = 0 rows, where quotient is refused
            both = np.concatenate([js, support_tuples((-3, 0, 4, 12, 13), 6)])
            gap = both[_omega_int(both) != 0]
            for rows, ids in ((both, ("sigma6tilde", "M6", "sigma6", "M6bar", "M6_1")), (gap, ("quotient", "M6bar"))):
                stacked = _symbol_batch(ids, rows, 2, p, sign=-1)
                assert stacked.shape == (len(ids), len(rows))
                assert_same_bits(stacked, [_symbol_batch(s, rows, 2, p, sign=-1) for s in ids])

    def test_m6_equals_m6_1_on_gap(self):
        t = FreqTuple((5, -5, 3, -3, 1, -1))  # omega = 0
        assert evaluate_symbol("M6", t, P4) == evaluate_symbol("M6_1", t, P4)

    def test_m6bar_selects_resonant(self):
        iia = FreqTuple((64, -63, 33, -34, 1, -1))
        assert evaluate_symbol("M6bar", iia, P16) == evaluate_symbol("M6_1", iia, P16)
        assert evaluate_symbol("M6bar", iia, P16) != 0.0
        non = FreqTuple((96, -64, -16, -8, -4, -4))
        assert evaluate_symbol("M6bar", non, P16) == 0.0
        below = FreqTuple((3, -3, 2, -2, 1, -1))  # off Upsilon entirely
        assert evaluate_symbol("M6bar", below, P16) == 0.0

    def test_sigma6tilde_zero_over_zero(self):
        balanced = FreqTuple((20, -20, 20, -20, 20, -20))
        assert evaluate_symbol("sigma6tilde", balanced, P16) == 0.0

    def test_gap_tuple_joins_resonant_part(self):
        # Omega = 0 in a nonresonant class: no correction can remove M6 there,
        # so M6bar carries it and sigma6tilde is exactly 0
        gap = FreqTuple((13, -12, 0, 3, 0, -4))
        assert omega_n(gap) == 0
        assert classify_resonance(gap, P4).kind == "NonResonant"
        assert evaluate_symbol("M6bar", gap, P4) == evaluate_symbol("M6_1", gap, P4) == -3.5
        assert evaluate_symbol("sigma6tilde", gap, P4) == 0.0
        row = np.array([gap.js])
        assert symbol_fn("M6bar", P4)(row, 1)[0] == symbol_fn("M6_1", P4)(row, 1)[0] == -3.5
        assert symbol_fn("sigma6tilde", P4)(row, 1)[0] == 0.0

    def test_m6_1_antisymmetric_and_batch_independent(self):
        # each row reads the same bits alone as in its batch, and its
        # conjugate (groups exchanged, values negated) reads the exact negation,
        # up to the sign of zero
        js = support_tuples((0, 8, 16, 40), 6)
        p = MultiplierParams(1, 0.5)
        batch = _symbol_batch("M6_1", js, 4, p)
        alone = np.array([_symbol_batch("M6_1", js[i : i + 1], 4, p)[0] for i in range(len(js))])
        assert batch.tobytes() == alone.tobytes()
        conj = -js[:, [1, 0, 3, 2, 5, 4]]
        assert (_symbol_batch("M6_1", conj, 4, p) == -batch).all()
        assert (batch[_omega_int(js) == 0] == 0.0).all()

    def test_quotient_exact_one_below_cutoff(self):
        rng = stream(23, 1)
        p = MultiplierParams(1024, 0.5)
        seen = 0
        for lam in (1, 2):
            for _ in range(200):
                js = rand_gamma_tuple(rng, 700)
                if abs(int(js[-1])) > p.N * lam:
                    continue
                t = FreqTuple(tuple(int(j) for j in js), lam)
                if omega_n(t) == 0:
                    continue
                assert evaluate_symbol("quotient", t, p) == 1.0
                seen += 1
        assert seen > 300

    def test_quotient_rejects_vanishing_gap(self):
        with pytest.raises(ValueError):
            evaluate_symbol("quotient", FreqTuple((5, -5, 3, -3, 1, -1)), P16)

    def test_phase_gap_is_exact_or_refused(self):
        # Omega = 2**65 leaves int64, where it wraps to 0: M6 would be taken
        # as if the gap vanished and the quotient would report a vanishing gap
        t = FreqTuple((2**32, 0, 2**32, -(2**32), -(2**32), 0))
        assert omega_n(t) == 2**65
        for sid in ("M6", "quotient"):
            with pytest.raises(OverflowError):
                evaluate_symbol(sid, t, P16)
        # entries past 2**30 give the exact sum while it fits int64, up to
        # both ends of the range
        top = 2**31
        edge = np.array([(top, 0, top, 0, 0, 1), (0, top, 0, top, 0, 0), (top, top, 0, 0, 3, 2)])
        assert _omega_int(edge).tolist() == [2**63 - 1, -(2**63), 5]
        with pytest.raises(OverflowError):
            _omega_int(np.array([(1, 2, 3, 4, 5, 6), (top, 0, top, 0, 0, 0)]))
        rng = stream(23, 9)
        js = rng.integers(-(2**31), 2**31, size=(3000, 6)) >> rng.integers(0, 8, size=(3000, 6))
        want = np.array([sum((-1) ** i * v * v for i, v in enumerate(row)) for row in js.tolist()], dtype=object)
        fits = np.array([-(2**63) <= v < 2**63 for v in want])
        assert 0 < fits.sum() < len(js)
        assert _omega_int(js[fits]).tolist() == want[fits].tolist()

    def test_arity_and_id_validation(self):
        with pytest.raises(ValueError):
            evaluate_symbol("sigma2", FreqTuple((1, -1, 1, -1, 1, -1)), P16)
        with pytest.raises(ValueError):
            evaluate_symbol("sigma6", FreqTuple((1, -1)), P16)
        with pytest.raises(ValueError):
            evaluate_symbol("nope", FreqTuple((1, -1)), P16)
        with pytest.raises(ValueError):
            symbol_fn("nope", P16)


class TestLambdaForms:
    def test_h1_identity(self):
        rng = stream(24, 0)
        for _ in range(50):
            lam = float(rng.integers(1, 5))
            p = MultiplierParams(int(2 ** rng.integers(1, 6)), float(rng.uniform(0.2, 0.9)))
            js = np.sort(rng.choice(np.arange(-40, 41), size=7, replace=False))
            u = rand_state(rng, lam, js)
            lhs = lambda_n_evaluate(symbol_fn("sigma2", p), [u, u])
            rhs = 0.5 * homogeneous_h1_sq(apply_I(u, p))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_l6_identity(self):
        rng = stream(24, 1)
        for sign in (+1, -1):
            for _ in range(25):
                lam = float(rng.integers(1, 4))
                p = MultiplierParams(int(2 ** rng.integers(2, 5)), 0.5)
                js = np.sort(rng.choice(np.arange(-15, 16), size=6, replace=False))
                u = rand_state(rng, lam, js)
                lhs = lambda_n_evaluate(symbol_fn("sigma6", p, sign=sign), [u] * 6)
                rhs = sign * l6_now(apply_I(u, p)) / 6.0
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_single_mode_closed_form(self):
        lam, A = 4.0, 1.5 - 0.7j
        u = FourierState.from_uhat(lam, {0: A})
        val = lambda_n_evaluate(symbol_fn("sigma6", P4), [u] * 6)
        assert val == pytest.approx(math.tau / lam**5 * abs(A) ** 6 / 6, rel=1e-12)

    def test_mode_cap(self):
        js = np.arange(-6, 7)  # 13 modes, arity-6 cap is 12
        u = FourierState.from_uhat(1.0, {int(j): 1.0 for j in js})
        with pytest.raises(CapExceededError):
            lambda_n_evaluate(symbol_fn("sigma6", P4), [u] * 6)
        assert GAMMA_MODE_CAPS[6] == 12

    def test_imag_residue_surfaces(self):
        u = FourierState.from_uhat(1.0, {1: 1.0 + 1.0j})
        v = FourierState.from_uhat(1.0, {1: 2.0 - 3.0j})
        with pytest.raises(ArithmeticError):
            lambda_n_evaluate(symbol_fn("sigma2", P16), [u, v])

    def test_asymmetric_symbol_surfaces_on_multimode_support(self):
        # M6_1 flips sign under the conjugate pairing, so its form is purely
        # imaginary: the residue is of the size of the summed terms
        u = rand_state(stream(24, 3), 2.0, [-4, -1, 0, 2, 6])
        with pytest.raises(ArithmeticError):
            lambda_n_evaluate(symbol_fn("M6_1", P4), [u] * 6)

    def test_empty_and_mismatched_states(self):
        u = FourierState.from_uhat(1.0, {1: 1.0})
        empty = FourierState(1.0, [], [])
        assert lambda_n_evaluate(symbol_fn("sigma2", P16), [u, empty]) == 0.0
        w = FourierState.from_uhat(2.0, {1: 1.0})
        with pytest.raises(ValueError):
            lambda_n_evaluate(symbol_fn("sigma2", P16), [u, w])
        with pytest.raises(ValueError):
            lambda_n_evaluate(symbol_fn("sigma2", P16), [u])

    def test_energy_forms_agree(self):
        rng = stream(24, 2)
        for sign in (+1, -1):
            u = rand_state(rng, 2.0, [-8, -3, 0, 5, 9])
            v = apply_I(u, P4)
            manual = 0.5 * homogeneous_h1_sq(v) + sign * l6_now(v) / 6.0
            # the call cross-checks the symbol form internally
            assert energy_e1i([u], P4, sign=sign)[0] == pytest.approx(manual, rel=1e-12)

    def test_batched_energy_matches_per_state_bitwise(self):
        rng = stream(24, 5)
        support = [-8, -3, 0, 5, 9]
        states = [rand_state(rng, 2.0, support) for _ in range(4)]
        for sign in (+1, -1):
            batched = energy_e1i(states, P4, sign=sign)
            single = [energy_e1i([u], P4, sign=sign)[0] for u in states]
            assert np.array(batched).tobytes() == np.array(single).tobytes()
        other_support = rand_state(rng, 2.0, [-8, -3, 0, 5, 10])
        other_lam = FourierState(4.0, states[0].indices, states[0].amps)
        for odd in (other_support, other_lam):
            with pytest.raises(ValueError):
                energy_e1i([states[0], odd], P4)


ENUM_SUPPORTS = [
    (5,),
    (0, 3, 7),
    (-6, -1, 0, 4, 9),
    tuple(range(-4, 5)),
    (-30, -26, -20, -19, -17, -12, -9, 0, 18, 20, 25, 32),
]


class TestZeroSumEnumeration:
    @pytest.mark.parametrize("support", ENUM_SUPPORTS, ids=lambda s: f"{len(s)}-modes")
    def test_arity6_matches_reference(self, support):
        S = np.array(support, dtype=np.int64)
        got = _zero_sum_rows([S] * 6)
        assert_same_bits(got, reference_zero_sum_rows([S] * 6))
        assert len(got[2]) > 0

    def test_arity2_and_mixed_supports_match_reference(self):
        # energy_e1i's sigma2 table, and a table whose slots draw from
        # different states' supports
        S = np.array(ENUM_SUPPORTS[3], dtype=np.int64)
        mixed = [np.array(s, dtype=np.int64) for s in ((0, 3, 7), (-2, 3), (-6, -1, 0, 4, 9), (1,), (0, 3, 7), (-4, 0, 4))]
        for supports in ([S] * 2, mixed):
            got = _zero_sum_rows(supports)
            assert_same_bits(got, reference_zero_sum_rows(supports))
            assert len(got[2]) > 0

    def test_candidate_cap_refuses_before_enumerating(self):
        # 6^9 ~ 10.1M candidates: refused before any partial sum is formed
        assert CANDIDATE_CAP == 1 << 21
        with pytest.raises(CapExceededError):
            support_tuples(range(6), 10)
        u = FourierState.from_uhat(1.0, {j: 1.0 for j in range(6)})
        with pytest.raises(CapExceededError):
            lambda_n_evaluate(symbol_fn("sigma6", P4, sign=+1), [u] * 10)

class TestSupportAudit:
    def test_tuple_enumeration(self):
        # odd slots draw from the mode set, even slots from its negation
        rows = support_tuples((0, 1), 2)
        assert sorted(map(tuple, rows.tolist())) == [(0, 0), (1, -1)]
        assert len(support_tuples((0, 4, 8, 20), 6)) == 370
        for support, arity in (((-2, 0, 1, 3), 2), ((-2, 0, 1, 3), 6), ((0, 1, 3), 10)):
            slots = [support if i % 2 == 0 else [-j for j in support] for i in range(arity)]
            want = sorted(t for t in itertools.product(*slots) if sum(t) == 0)
            assert sorted(map(tuple, support_tuples(support, arity).tolist())) == want

    def test_gap_free_supports(self):
        # these mode sets reach no nonresonant Omega = 0 row with M6 != 0, so
        # sigma6tilde is (M6 - M6bar) / Omega wherever Omega != 0 and finite
        for support, lam, p, count in (
            ((0, 4, 8, 20), 4, P4, 370),
            ((-2, 0, 1, 3), 1, P4, 412),
            ((-4, -3, 3, 4), 1, MultiplierParams(2, 0.5), 400),
        ):
            js = support_tuples(support, 6)
            assert len(js) == count
            codes = _classify_batch(js, lam, p)[0]
            zero = _omega_int(js) == 0
            m6 = _symbol_batch("M6", js, lam, p)
            tilde = _symbol_batch("sigma6tilde", js, lam, p)
            assert not (zero & (codes == 0) & (m6 != 0.0)).any()
            assert np.isfinite(tilde).all()
            bar = _symbol_batch("M6bar", js[~zero], lam, p)
            omega = _omega_int(js[~zero]).astype(np.float64) / float(lam * lam)
            assert tilde[~zero].tobytes() == ((m6[~zero] - bar) / omega).tobytes()

    def test_gap_rows_join_resonant_part(self):
        # the mode set reaches Omega = 0 rows in nonresonant classes with
        # M6 != 0, such as (12, 0, 4, 0, -3, -13); on every Omega = 0 row
        # M6bar is M6 and sigma6tilde exactly 0, elsewhere (M6 - M6bar) / Omega
        js = support_tuples((-3, 0, 4, 12, 13), 6)
        codes, upsilon = _classify_batch(js, 1, P4)[:2]
        zero = _omega_int(js) == 0
        m6 = _symbol_batch("M6", js, 1, P4)
        bar = _symbol_batch("M6bar", js, 1, P4)
        tilde = _symbol_batch("sigma6tilde", js, 1, P4)
        assert (zero & (codes == 0) & (m6 != 0.0)).any()
        assert bar[zero].tobytes() == m6[zero].tobytes()
        assert tilde[zero].tobytes() == np.zeros(zero.sum()).tobytes()
        omega = _omega_int(js[~zero]).astype(np.float64)
        assert tilde[~zero].tobytes() == ((m6[~zero] - bar[~zero]) / omega).tobytes()


class TestBoundScan:
    def test_report_shape_and_determinism(self):
        rep = bound_scan_symbols(0.5, 4000, [16, 64], seed=5, operator_states=2)
        kinds = {r.kind for r in rep.records}
        assert kinds == {
            "nonresonant",
            "resonant-case-i",
            "resonant-case-ii",
            "resonant-case-iii",
            "resonant-case-iv",
            "operator",
        }
        assert len(rep.records) == 12
        again = bound_scan_symbols(0.5, 4000, [16, 64], seed=5, operator_states=2)
        assert rep == again

    def test_ratios_bounded(self):
        rep = bound_scan_symbols(0.5, 20_000, [32, 128], seed=3, operator_states=2)
        non = rep.ratios("nonresonant")
        assert set(non) == {32, 128}
        for v in non.values():
            assert 0 < v < 3.0
        for case in ("i", "ii", "iii", "iv"):
            for v in rep.ratios(f"resonant-case-{case}").values():
                assert v < 3.0
        for r in rep.records:
            if r.kind == "nonresonant":
                assert r.count > 1000
                assert r.gap_count == 0
                assert r.collapsed_count < r.count // 20

    # (2, 16, 0) holds one nonresonant sample with Omega = 0
    @pytest.mark.parametrize("lam,N,seed,gaps", [(2, 16, 0, 1), (1, 64, 3, 0), (3, 32, 1, 0)])
    def test_symbols_read_off_the_scan_classification(self, lam, N, seed, gaps):
        # the scan reads sigma6tilde on its nonresonant rows and M6bar on its
        # resonant rows through _symbol_batch with its own verdicts; there
        # they must be the closed forms M6 / Omega (0 where Omega = 0) and
        # M6_1, bit for bit
        pN = MultiplierParams(N, 0.5)
        js = _sample_tuples(stream(seed, 31, N), 20_000, N, lam)
        codes, upsilon, *_ = _classify_batch(js, lam, pN, SCAN_THRESHOLDS)
        non, res = upsilon & (codes == 0), upsilon & (codes > 0)
        om = _omega_int(js[non])
        m6 = _symbol_batch("M6", js[non], lam, pN)
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = np.where(om == 0, 0.0, m6 / (om / float(lam * lam)))
        got = _symbol_batch("sigma6tilde", js[non], lam, pN, verdicts=(codes[non], upsilon[non]))
        assert got.tobytes() == expect.tobytes()
        bar = _symbol_batch("M6bar", js[res], lam, pN, verdicts=(codes[res], upsilon[res]))
        assert bar.tobytes() == _symbol_batch("M6_1", js[res], lam, pN).tobytes()
        assert non.sum() > 1000 and res.sum() > 1000
        assert (om == 0).sum() == gaps
        rep = bound_scan_symbols(0.5, 20_000, [N], seed, lam=lam, operator_states=0)
        (rec,) = [r for r in rep.records if r.kind == "nonresonant"]
        assert (rec.count, rec.gap_count) == (non.sum(), gaps)

    def test_classifies_once_per_cutoff(self, monkeypatch):
        calls = []

        def counted(js, *args, **kwargs):
            calls.append(len(js))
            return _classify_batch(js, *args, **kwargs)

        monkeypatch.setattr(symbols, "_classify_batch", counted)
        bound_scan_symbols(0.5, 3000, [16, 64, 256], seed=2, operator_states=0)
        assert calls == [3000, 3000, 3000]

    def test_collapsed_count_is_exact_at_large_N(self):
        # at N = 2**28 both sides of c_window |Omega| < lam^2 (N3*)^2 can
        # leave int64; compared after wrapping, 93 rows would count
        N = 2**28
        rep = bound_scan_symbols(0.5, 20_000, [N], seed=0, operator_states=0)
        (rec,) = [r for r in rep.records if r.kind == "nonresonant"]
        js = _sample_tuples(stream(0, 31, N), 20_000, N, 1)
        codes, upsilon, _, _, scls = _classify_batch(js, 1, MultiplierParams(N, 0.5), SCAN_THRESHOLDS)
        non = upsilon & (codes == 0)
        recount = sum(
            SCAN_THRESHOLDS.c_window * abs(sum((-1) ** i * v * v for i, v in enumerate(row))) < s3 * s3
            for row, s3 in zip(js[non].tolist(), scls[non, 2].tolist())
        )
        assert rec.collapsed_count == recount == 39

    def test_collapsed_tuples_are_separated(self):
        # the recorded collapsed max may exceed every envelope; the clean max
        # must not silently include it
        rep = bound_scan_symbols(0.5, 50_000, [64], seed=7, operator_states=2)
        (rec,) = [r for r in rep.records if r.kind == "nonresonant"]
        assert rec.collapsed_count > 0
        assert rec.collapsed_max > rec.max_ratio
