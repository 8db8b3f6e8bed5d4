"""Sixth-power space-time integrals of free Schrödinger evolutions, the h(tau)
resonance spectrum, and constant-growth scans.

The workhorse reduction: |e^{itD}u|^6 integrated in x couples two cubic terms,
and a cubic term only enters through the pair (sigma, q) = (j1+j2+j3,
j1^2+j2^2+j3^2) of its index triple.  Everything here first collapses the
M^3 triples to their (sigma, q) classes with summed coefficient products,
then pairs classes with equal sigma: the time kernel depends only on the
integer difference of the q's, so zero/nonzero resonance decisions are exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CapExceededError
from .fourier import FourierState
from .rng import stream

_TAU = math.tau

#: Largest support size accepted by the exact sextuple evaluation.
DEFAULT_SUPPORT_CAP = 160

#: Relative accuracy to which the scan's Gauss-Legendre panels are sized.
QUAD_RTOL = 1e-7

#: Complex elements in one block of `_spatial_l6`, summed over members: 1 MB
#: of complex128, within a core's L2 cache.
_BLOCK_ELEMS = 1 << 16

#: Per-sigma class counts up to this size are paired by direct outer product;
#: larger groups go through one shared FFT autocorrelation pass, unless its
#: length exceeds the products that pairing them directly would form.
_DIRECT_PAIR_LIMIT = 48


# ---------------------------------------------------------------------------
# (sigma, q) class collapse


def _product_classes(j_arrays, v_arrays):
    """Collapse triples drawn from three (index, value) lists to (sigma, q)
    classes.

    Returns (sig, q, acc) arrays sorted by (sigma, q), where acc[i] is the sum
    of v1[a]*v2[b]*v3[c] over triples in the class."""
    j1, j2, j3 = (np.asarray(j, dtype=np.int64) for j in j_arrays)
    v1, v2, v3 = v_arrays
    sig = (j1[:, None, None] + j2[None, :, None] + j3[None, None, :]).ravel()
    q = (j1[:, None, None] ** 2 + j2[None, :, None] ** 2 + j3[None, None, :] ** 2).ravel()
    w = (v1[:, None, None] * v2[None, :, None] * v3[None, None, :]).ravel()
    qspan = int(q.max()) - int(q.min()) + 1
    key = (sig - sig.min()) * qspan + (q - q.min())
    uniq, inv = np.unique(key, return_inverse=True)
    if np.iscomplexobj(w):
        acc = np.bincount(inv, weights=w.real) + 1j * np.bincount(inv, weights=w.imag)
    else:
        acc = np.bincount(inv, weights=w)
    usig = uniq // qspan + sig.min()
    uq = uniq % qspan + q.min()
    return usig, uq, acc


def _triple_classes(js: np.ndarray, vals: np.ndarray):
    """(sigma, q) collapse of all triples from one coefficient list."""
    return _product_classes((js, js, js), (vals, vals, vals))


def _sigma_groups(sig: np.ndarray):
    """Slices of consecutive equal-sigma runs (input sorted by sigma)."""
    bounds = np.flatnonzero(np.diff(sig)) + 1
    starts = np.concatenate(([0], bounds))
    stops = np.concatenate((bounds, [len(sig)]))
    return list(zip(starts, stops))


def _kernel(omega: np.ndarray, T: float) -> np.ndarray:
    """Integral of exp(-i t omega) over [0, T], with an exact zero branch."""
    omega = np.asarray(omega, dtype=np.float64)
    out = np.full(omega.shape, complex(T), dtype=np.complex128)
    nz = omega != 0
    om = omega[nz]
    out[nz] = (1.0 - np.exp(-1j * T * om)) / (1j * om)
    return out


# ---------------------------------------------------------------------------
# exact L^6 time integral


def l6_time_integral_exact(state: FourierState, T: float) -> float:
    """∫₀ᵀ ∫ |e^{itΔ}u|⁶ dx dt, evaluated exactly on the Fourier side.

    The sextuple sum runs over triples against conjugate triples with equal
    index sum; each pair contributes prod(uhat) * conj(prod(uhat)) times the
    time kernel at omega = (q_n - q_m)/lam².  Zero-resonance decisions are
    integer comparisons.  The assembled total must be real: an imaginary
    residue above 1e-12 relative is reported as an arithmetic failure.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if state.n_modes > DEFAULT_SUPPORT_CAP:
        raise CapExceededError(
            f"support size {state.n_modes} exceeds the sextuple cap {DEFAULT_SUPPORT_CAP}"
        )
    if state.n_modes == 0 or T == 0:
        return 0.0
    sig, q, P = _triple_classes(state.indices, state.amps)
    return _paired_time_integral(sig, q, P, state.lam, T)


def _paired_time_integral(
    sig: np.ndarray,
    q: np.ndarray,
    P: np.ndarray,
    lam: float,
    T: float,
) -> float:
    """Pair (sigma, q) classes against their own conjugates under the time
    kernel and return (2 pi / lam^2) * sum, which must come out real."""
    inv_lam2 = 1.0 / (lam * lam)
    groups = [(q[a:b], P[a:b]) for a, b in _sigma_groups(sig)]
    dense = [(qs, Ps) for qs, Ps in groups if len(qs) > _DIRECT_PAIR_LIMIT]
    # each dense group sits at qs - qs[0]: only differences inside a group
    # pair, so the FFT spans the widest group, not the whole q range
    span = max((int(qs[-1] - qs[0]) for qs, _ in dense), default=0) + 1
    nfft = 1 << (2 * span - 1).bit_length()
    if nfft > sum(len(qs) ** 2 for qs, _ in dense):
        dense = []  # pairing directly forms fewer products than the FFT length
    total = 0.0 + 0.0j
    for qs, Ps in groups:
        if dense and len(qs) > _DIRECT_PAIR_LIMIT:
            continue
        dq = qs[:, None] - qs[None, :]
        kern = _kernel(dq * inv_lam2, T)
        total += np.einsum("i,j,ij->", Ps, Ps.conj(), kern)

    if dense:
        power = np.zeros(nfft, dtype=np.float64)
        for qs, Ps in dense:
            buf = np.zeros(nfft, dtype=np.complex128)
            buf[qs - qs[0]] = Ps
            power += np.abs(np.fft.fft(buf)) ** 2
        corr = np.fft.ifft(power)  # corr[d] = sum_q P[q+d] conj(P[q])
        deltas = np.arange(-(span - 1), span)
        kern = _kernel(deltas * inv_lam2, T)
        total += np.sum(corr[deltas % nfft] * kern)

    scale = _TAU / lam**2  # (2 pi / lam^5) with uhat = c*sqrt(lam) absorbed
    total *= scale
    mag = abs(total)
    if mag > 0 and abs(total.imag) > 1e-12 * mag:
        raise ArithmeticError(
            f"imaginary residue {total.imag:.3e} exceeds 1e-12 of magnitude {mag:.3e}"
        )
    return max(float(total.real), 0.0)


# ---------------------------------------------------------------------------
# quadrature cross-check


def l6_grid_size(span: int) -> int:
    """Number of equispaced nodes on which `_spatial_l6` integrates |u|⁶:
    the smallest 2·3·5-smooth integer mx ≥ 3·span + 1.

    Aliasing bound: if u's modes span `span` integers, |u|⁶ = u³·conj(u)³
    carries frequencies in [−3·span, 3·span], and mx equispaced nodes sum
    every frequency d with d ≢ 0 (mod mx) to exactly zero.  So the rule is
    exact iff no nonzero frequency is a multiple of mx, i.e. mx ≥ 3·span + 1.
    Among those sizes the smallest with prime factors 2, 3 and 5 keeps the
    FFT on its fast radix passes: 6250 for span 2048, where the power of
    two would be 8192 and 6144 aliases.  A single mode (span 0) needs 1.
    """
    need = 3 * span + 1
    best = 1 << (need - 1).bit_length()  # a power of two always qualifies
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < need:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _spatial_l6(
    js: np.ndarray, lam: float, uhats: np.ndarray, ts: np.ndarray, mx: int
) -> np.ndarray:
    """∫ |e^{itΔ}u|⁶ dx for every row u of ``uhats`` (members × modes, all on
    the support ``js`` at scale ``lam``) at every time in ``ts``, by exact
    equispaced quadrature on mx nodes; returns a members × times array.

    mx must be alias-free, at least 3·span + 1 (see `l6_grid_size`, whose
    5-smooth size the scan and `l6_now` use; `l6_norm_quadrature` passes its
    own).  The time nodes stream through in blocks of about `_BLOCK_ELEMS`
    complex elements across all members, so that a block's scatter, FFT and
    |u|⁶ pass stay in cache.  Each block's phase table exp(-i t k²) is
    computed once and shared by every member, and one zeroed buffer is
    reused for every block.  A row's FFT and sum do not depend on the block
    it sits in, so the output does not depend on the block size.
    """
    members = len(uhats)
    # the phase depends on k² alone: modes ±j share one column of the table
    k2, k2_col = np.unique((js / lam) ** 2, return_inverse=True)
    # modes sit at js - js[0]: that multiplies u by the unimodular e^{-i js[0] x},
    # which leaves |u| unchanged, and a contiguous support becomes one slice.
    cols = js - js[0]
    if len(cols) == cols[-1] + 1:
        cols = slice(0, len(cols))
    nb = max(1, min(len(ts), _BLOCK_ELEMS // (members * mx)))
    buf = np.zeros((members, nb, mx), dtype=np.complex128)
    work = np.empty_like(buf)
    sums = np.empty((members, len(ts)), dtype=np.float64)
    for a in range(0, len(ts), nb):
        tc = ts[a : a + nb]
        m = len(tc)
        buf[:, :m, cols] = uhats[:, None, :] * np.exp(-1j * np.outer(tc, k2))[:, k2_col]
        # the unnormalized inverse transform gives lam * u at each node
        u = np.fft.ifft(buf[:, :m], axis=-1, norm="forward", out=work[:, :m])
        s = np.square(u.real)
        s += np.square(u.imag)
        s6 = np.square(s)
        s6 *= s
        sums[:, a : a + m] = np.sum(s6, axis=-1)
    return sums * (_TAU / (mx * lam**5))


def l6_norm_quadrature(state: FourierState, T: float, mx: int, mt: int) -> float:
    """Cross-check of `l6_time_integral_exact` by quadrature.

    Space: mx equispaced nodes, exact for |u|^6 provided mx is at least three
    times the support width plus one (6N+1 for support in [-N, N]).  Time:
    composite trapezoid on mt nodes; second-order in 1/mt.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if mt < 2:
        raise ValueError("mt must be at least 2")
    if state.n_modes == 0:
        return 0.0
    span = int(state.indices[-1] - state.indices[0])
    if mx < 3 * span + 1:
        raise ValueError(f"mx={mx} aliases |u|^6; need at least {3 * span + 1}")
    ts = np.linspace(0.0, T, mt)
    vals = _spatial_l6(state.indices, state.lam, state.uhat_array()[None], ts, mx)[0]
    return float(np.trapezoid(vals, ts))


# ---------------------------------------------------------------------------
# h(tau) spectrum and dyadic block averages


@dataclass(frozen=True)
class HSpectrum:
    """Nonnegative weights h(tau) of resonance level sets at window 2N."""

    N: int
    values: dict[int, float]

    def __post_init__(self):
        cap = 6 * (2 * self.N) ** 2
        for tau, v in self.values.items():
            if tau < 0 or tau > cap:
                raise ValueError(f"tau={tau} outside [0, {cap}]")
            if v < 0:
                raise ValueError("h values must be nonnegative")

    def __getitem__(self, tau: int) -> float:
        return self.values.get(abs(int(tau)), 0.0)

    @property
    def tau_max(self) -> int:
        return max(self.values, default=0)


def _is_dyadic(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def h_spectrum(
    magnitudes: Mapping[int, float], N: int, *, n_cap: int = 16
) -> HSpectrum:
    """h(tau) = sum over sextuples (n, m) with equal index sums, all indices in
    [-2N, 2N], and |sum n_i^2 - sum m_i^2| = tau, of the product of the six
    magnitudes.

    Additions are plain (FFT-free) accumulations, so structural zeros stay
    exactly zero and integer-valued inputs give integer h values.
    """
    if not _is_dyadic(N):
        raise ValueError("N must be a dyadic integer")
    if N > n_cap:
        raise CapExceededError(f"N={N} exceeds the spectrum cap {n_cap}")
    js, vals = [], []
    for j, v in magnitudes.items():
        j = int(j)
        if v < 0:
            raise ValueError("magnitudes must be nonnegative")
        if v == 0:
            continue
        if abs(j) > 2 * N:
            raise ValueError(f"mode {j} outside the window [-2N, 2N]")
        js.append(j)
        vals.append(float(v))
    if not js:
        return HSpectrum(N, {})
    sig, q, P = _triple_classes(np.array(js), np.array(vals))
    h = np.zeros(3 * (2 * N) ** 2 + 1, dtype=np.float64)
    for a, b in _sigma_groups(sig):
        qs, Ps = q[a:b], P[a:b]
        step = max(1, 2_000_000 // max(1, b - a))
        for i in range(a, b, step):
            qc, pc = q[i : min(i + step, b)], P[i : min(i + step, b)]
            d = np.abs(qc[:, None] - qs[None, :]).ravel()
            w = (pc[:, None] * Ps[None, :]).ravel()
            h += np.bincount(d, weights=w, minlength=len(h))
    values = {int(t): float(v) for t, v in enumerate(h) if v != 0.0}
    return HSpectrum(N, values)


def dyadic_block_average(h: HSpectrum, K: int) -> float:
    """(1/K) * sum of h(tau) over K <= tau <= 2K."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return sum(h.values.get(t, 0.0) for t in range(K, 2 * K + 1)) / K


def sup_dyadic_block_average(h: HSpectrum, alpha: float) -> tuple[float, int]:
    """Supremum of the block average over K = ceil(N^alpha) * 2^j.

    The nominal K-grid N^alpha * 2^j is not integral; blocks here start at the
    integer ceiling.  Returns (sup, argmax K).
    """
    base = max(1, math.ceil(float(h.N) ** alpha))
    best, best_k = 0.0, base
    K = base
    while K <= max(h.tau_max, base):
        v = dyadic_block_average(h, K)
        if v > best:
            best, best_k = v, K
        K *= 2
    return best, best_k


@dataclass(frozen=True)
class ChainReport:
    """One comparison of the L^6 integral against its h-spectrum majorant."""

    N: int
    alpha: float
    lhs: float
    h0_term: float
    block_sup: float
    sup_K: int

    @property
    def ratio(self) -> float:
        rhs = _TAU * (self.h0_term + self.block_sup)
        return self.lhs / rhs if rhs > 0 else math.inf


def chain_inequality_ratio(
    magnitudes: Mapping[int, float], N: int, alpha: float
) -> ChainReport:
    """Compare ∫₀^{N^{-alpha}}∫|e^{itΔ}f|⁶ with 2π(N^{-alpha} h(0) + sup_K avg)
    for a nonnegative-coefficient f supported in [-N, N]; the reported ratio is
    1 for single modes and should stay O(1) across N.  The left side is read
    off the same h as 2π(T h(0) + Σ_{τ≥1} h(τ) sin(τT)/τ), which is the exact
    sextuple sum `l6_time_integral_exact` for nonnegative magnitudes."""
    for j in magnitudes:
        if abs(int(j)) > N:
            raise ValueError("support must lie in [-N, N]")
    T = float(N) ** (-alpha)
    h = h_spectrum(magnitudes, N)
    # at lam = 1 a pair of sextuples with |q - q'| = tau, counted in both
    # orders in h(tau), contributes the real part of its kernel, sin(tau T)/tau
    osc = sum(v * math.sin(tau * T) / tau for tau, v in h.values.items() if tau > 0)
    lhs = _TAU * (T * h[0] + osc)
    sup, sup_k = sup_dyadic_block_average(h, alpha)
    return ChainReport(N, alpha, lhs, T * h[0], sup, sup_k)


# ---------------------------------------------------------------------------
# constant-growth scan


@dataclass(frozen=True)
class ScanRecord:
    n: int
    member: str
    r_value: float
    method: str
    seed: int


@dataclass
class StrichartzScanResult:
    alpha: float
    records: list[ScanRecord]
    max_r: dict[int, float]
    slope: float
    #: per N: (GL panels, time nodes, spatial grid size) of the quadrature
    work: dict[int, tuple[int, int, int]]


def _sigma_bandwidth(js: np.ndarray) -> int:
    """Bound on |q - q'| over index triples from the sorted support ``js``
    with equal sigma = j1+j2+j3, where q = j1²+j2²+j3²: the integrand of the
    L⁶ time integral carries only the time frequencies (q - q')/lam².

    Two bounds hold; the smaller is returned.  Every q lies in [3·min j²,
    3·max j²], so 3·(max j² - min j²) bounds every difference.  And over the
    real hull [A, B] of the support, sigma fixed: q is smallest, sigma²/3, at
    a = (sigma/3)·(1, 1, 1), and largest at a vertex of {a ∈ [A, B]³ :
    Σa = sigma}, where two entries sit at A or B.  The excess over sigma²/3
    is convex in sigma between the breakpoints 3A, 2A+B, A+2B, 3B, so its
    maximum sits at one of them: 0 at 3A and 3B, and 2(B - A)²/3 at the
    other two, with vertices (A, A, B) and (A, B, B).  q - q' is an integer,
    so the floor of that bound holds too.  On [-N, N] it is ⌊8N²/3⌋, the
    exact maximum, against 3N² from the first bound; on two modes ±N the
    first bound is 0, also exact.
    """
    span = int(js[-1]) - int(js[0])
    mags = np.abs(js)
    lo, hi = int(mags.min()), int(mags.max())  # Python integers from here on
    return min(2 * span * span // 3, 3 * (hi * hi - lo * lo))


@functools.cache
def _gl_panel() -> tuple[np.ndarray, np.ndarray, float]:
    """The scan's Gauss-Legendre panel rule: nodes and weights on [-1, 1],
    and the largest omega·L at which one panel of length L integrates
    e^{i omega t} to QUAD_RTOL/10 relative to L.

    The GL-n remainder on a panel of length L is L^{2n+1}·(n!)⁴/((2n+1)·
    ((2n)!)³)·f^{(2n)}(xi).  The real and imaginary parts of e^{i omega t}
    have |f^{(2n)}| ≤ omega^{2n}, so the complex error relative to L is at
    most √2·(omega·L)^{2n}·(n!)⁴/((2n+1)·((2n)!)³); the admissible omega·L
    solves that against QUAD_RTOL/10, in logarithms by `lgamma`.  n = 64
    admits omega·L up to 166.4, 0.385 nodes per unit of omega·T; GL-32 needs
    0.438 and GL-128 0.361, but every panel computes all its nodes, so the
    last panel's waste grows with n.  Of the three, GL-64 measured fastest
    on the scan over N = 16..256 (GL-128 was 4% faster at N = 512 and 1024
    alone).  Computed once per process; the arrays are read-only.
    """
    n = 64
    log_wl = (
        math.log(QUAD_RTOL / 10.0)
        + math.log(2 * n + 1)
        + 3.0 * math.lgamma(2 * n + 1)
        - 4.0 * math.lgamma(n + 1)
        - 0.5 * math.log(2.0)
    ) / (2 * n)
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w, math.exp(log_wl)


def _time_panels(js: np.ndarray, lam: float, T: float) -> int:
    """Panels of `_gl_panel` on [0, T] for states on support ``js`` at scale
    ``lam``: the fewest that keep omega·L admissible, omega being
    `_sigma_bandwidth` / lam².  One panel when omega is 0."""
    omega = _sigma_bandwidth(js) / (lam * lam)
    return max(1, math.ceil(omega * T / _gl_panel()[2]))


def _r_value_quadrature(states: Sequence[FourierState], T: float) -> list[float]:
    """R = (∫₀ᵀ∫|e^{itΔ}u|⁶)^{1/6} / ‖u‖₂ for states sharing one support and
    one lam, by composite Gauss-Legendre sized from the bandwidth.

    The integrand is a trig polynomial whose time frequencies are bounded by
    omega = `_sigma_bandwidth` / lam², the largest |q - q'| inside one sigma
    group.  `_time_panels` cuts [0, T] into equal panels of the GL-64 rule
    `_gl_panel`, short enough that the GL remainder √2·(omega·L)^{128}·
    (64!)⁴/(129·(128!)³) stays within QUAD_RTOL/10 on every tone, so the
    rule is certain to QUAD_RTOL -- no adaptive refinement.  All states go
    through one `_spatial_l6` call on the `l6_grid_size` grid, sharing its
    phase table."""
    if not states:
        return []
    js, lam = states[0].indices, states[0].lam
    if any(s.lam != lam or not np.array_equal(s.indices, js) for s in states):
        raise ValueError("batched states must share one support and lam")
    panels = _time_panels(js, lam, T)
    x, w, _ = _gl_panel()
    n = len(x)
    L = T / panels
    offs = (np.arange(panels) + 0.5) * L
    ts = (offs[:, None] + (L / 2.0) * x[None, :]).ravel()
    uhats = np.stack([s.uhat_array() for s in states])
    vals = _spatial_l6(js, lam, uhats, ts, l6_grid_size(int(js[-1] - js[0])))
    est = np.sum(vals.reshape(len(states), panels, n) * (L / 2.0) * w, axis=(1, 2))
    return [float(e) ** (1.0 / 6.0) / s.l2_norm() for e, s in zip(est, states)]


def _scan_members(n: int, n_random: int, include_constant: bool, seed: int):
    """The scan's (name, state) members at cutoff n: the constant profile
    and seeded complex-Gaussian profiles on [-n, n], at lam=1 so that amps
    coincide with uhat."""
    js = np.arange(-n, n + 1, dtype=np.int64)
    if include_constant:
        yield "const", FourierState(1.0, js, np.ones(len(js), dtype=np.complex128))
    for i in range(n_random):
        g = stream(seed, 3, n, i)
        z = g.standard_normal(len(js)) + 1j * g.standard_normal(len(js))
        yield f"random-{i}", FourierState(1.0, js, z / math.sqrt(2.0))


def strichartz_scan(
    alpha: float,
    n_list: Sequence[int],
    *,
    n_random: int = 4,
    include_constant: bool = True,
    seed: int = 0,
) -> StrichartzScanResult:
    """Growth scan of R(f, N) = (∫₀^{N^{-alpha}}∫|e^{itΔ}P_{≤N}f|⁶)^{1/6}/‖f‖₂.

    Members per N: the constant profile (uhat = 1 on [-N, N]) and seeded
    complex-Gaussian profiles.  They share the support, lam = 1, T and so the
    time rule: equal panels of GL-64 (`_gl_panel`), as few as keep the GL
    remainder √2·(omega·L)^{128}·(64!)⁴/(129·(128!)³) within QUAD_RTOL/10,
    where omega = ⌊8N²/3⌋ bounds |q - q'| inside one sigma group
    (`_sigma_bandwidth`).  They share the spatial grid too: the smallest
    5-smooth size that is alias-free for |u|⁶ (`l6_grid_size`).  So all
    members of one N go through one `_spatial_l6` call, which streams the
    time nodes in cache-sized blocks and computes each block's phase table
    once for every member.  ``work`` reports the panels, time nodes and grid
    per N.  `l6_time_integral_exact` is the oracle the route is tested
    against.  The slope is the least-squares log-log slope of the per-N
    maxima.
    """
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if n_random < 0:
        raise ValueError("n_random must be nonnegative")
    if n_random == 0 and not include_constant:
        raise ValueError("the scan has no members: set n_random > 0 or include_constant")
    if any(n < 1 for n in n_list):
        raise ValueError("N must be positive")
    records: list[ScanRecord] = []
    max_r: dict[int, float] = {}
    work: dict[int, tuple[int, int, int]] = {}
    for n in n_list:
        T = float(n) ** (-alpha)
        members = list(_scan_members(n, n_random, include_constant, seed))
        rs = _r_value_quadrature([state for _, state in members], T)
        records += [
            ScanRecord(int(n), name, r, "quadrature", seed)
            for (name, _), r in zip(members, rs)
        ]
        max_r[int(n)] = max(rs, default=0.0)
        js = members[0][1].indices
        panels = _time_panels(js, 1.0, T)
        work[int(n)] = (panels, panels * len(_gl_panel()[0]), l6_grid_size(int(js[-1] - js[0])))
    ns = sorted(max_r)
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log([float(n) for n in ns]), np.log([max_r[n] for n in ns]), 1)[0])
    else:
        slope = 0.0
    return StrichartzScanResult(alpha, records, max_r, slope, work)
