"""Counting and norm experiments for trilinear frequency interactions.

A trilinear configuration lives on the grid (1/lam)Z: three frequency
intervals I1, I2, I3 (scaled-integer endpoints), separation thresholds N13,
N23 between the outer intervals and the third, and a shell thickness c_tol.
The admissible set A(n, tau) collects triples (n1, n2, n3) with n1+n2+n3 = n,
n_i in I_i, the separation gaps satisfied, and |tau - (n1^2+n2^2+n3^2)| <=
c_tol.  All membership tests are exact rational comparisons; after clearing
denominators every decision is an integer comparison, so counts carry no
floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError
from .fourier import FourierState
from .rng import stream
from .strichartz import _paired_time_integral, _product_classes

_TAU = math.tau

#: Largest I1 x I2 candidate-pair grid a single count may enumerate.
DEFAULT_BOX_CAP = 10_000_000

#: Product-of-supports cap for the exact trilinear space-time norm.
DEFAULT_MODE_CAP = 1 << 21

#: "a is much smaller than b" is read as a <= b / LL_FACTOR.
LL_FACTOR = 8


@dataclass(frozen=True)
class TrilinearSpec:
    """Interval data for one trilinear configuration at grid scale 1/lam.

    Each interval is stored by scaled integer endpoints: ``i1 = (a, b)`` is
    the grid set {a/lam, ..., b/lam}.  Interval lengths must be ordered
    |I1| <= |I2| <= |I3|.
    """

    lam: int
    i1: tuple[int, int]
    i2: tuple[int, int]
    i3: tuple[int, int]
    n13: Fraction
    n23: Fraction
    c_tol: Fraction = Fraction(1)
    j_radius: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.lam, int) or self.lam < 1:
            raise ValueError("lam must be a positive integer")
        for name in ("i1", "i2", "i3"):
            a, b = getattr(self, name)
            a, b = int(a), int(b)
            if a > b:
                raise ValueError(f"{name} endpoints out of order: ({a}, {b})")
            object.__setattr__(self, name, (a, b))
        for name in ("n13", "n23", "c_tol", "j_radius"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.n13 < 0 or self.n23 < 0:
            raise ValueError("separation thresholds must be nonnegative")
        if self.c_tol <= 0:
            raise ValueError("c_tol must be positive")
        if self.j_radius < 0:
            raise ValueError("j_radius must be nonnegative")
        l1, l2, l3 = self.lengths
        if not l1 <= l2 <= l3:
            raise ValueError(f"interval lengths must be ordered: {l1}, {l2}, {l3}")

    @property
    def lengths(self) -> tuple[Fraction, Fraction, Fraction]:
        """Real-frequency lengths (|I1|, |I2|, |I3|)."""
        return tuple(
            Fraction(b - a, self.lam) for a, b in (self.i1, self.i2, self.i3)
        )

    @classmethod
    def from_intervals(cls, lam, i1, i2, i3, **kw) -> "TrilinearSpec":
        """Build from real-frequency endpoints; each must land on the grid."""
        scaled = []
        for lo, hi in (i1, i2, i3):
            a, b = Fraction(lo) * lam, Fraction(hi) * lam
            if a.denominator != 1 or b.denominator != 1:
                raise ValueError(f"endpoint ({lo}, {hi}) not on the 1/{lam} grid")
            scaled.append((int(a), int(b)))
        return cls(lam, *scaled, **kw)


@dataclass(frozen=True)
class GainReport:
    m_value: Fraction
    k_value: Fraction
    enhanced: bool


def enhanced_gain_K(spec: TrilinearSpec) -> GainReport:
    """Gain parameter M = |I1|(J + |I1|)/N23 and the resulting constant K.

    The enhanced branch is claimed only when M is much smaller than both |I2|
    and N23 *and* I1 is much shorter than I2 (comparable outer intervals fall
    back to the base constant K = |I2|).  "Much smaller" means a factor of
    LL_FACTOR.
    """
    if spec.n23 == 0:
        raise ValueError("N23 must be positive to form the gain parameter")
    l1, l2, _ = spec.lengths
    m = l1 * (spec.j_radius + l1) / spec.n23
    enhanced = m * LL_FACTOR <= min(l2, spec.n23) and l1 * LL_FACTOR <= l2
    k = max(m, l1) if enhanced else l2
    return GainReport(m_value=m, k_value=k, enhanced=enhanced)


# ---------------------------------------------------------------------------
# exact admissible-set counting


def _check_box(spec: TrilinearSpec, box_cap: int) -> None:
    (a1, b1), (a2, b2) = spec.i1, spec.i2
    pairs = (b1 - a1 + 1) * (b2 - a2 + 1)
    if pairs > box_cap:
        raise CapExceededError(f"candidate grid {pairs} exceeds cap {box_cap}")


def _gap_free(lo: int, hi: int, g: int) -> bool:
    """Whether every integer x in [lo, hi] has |x| >= g."""
    return g <= 0 or lo >= g or hi <= -g


def _shell_values(spec: TrilinearSpec, ln: int) -> tuple[np.ndarray, int]:
    """Sorted S = i1^2+i2^2+i3^2 over the admissible triples with scaled sum
    ln, and the number of box triples with that sum.

    Admissible means i1 in I1, i2 in I2, i3 = ln - i1 - i2 in I3 and both
    separation gaps met.  For fixed i1, i3 in I3 is the band
    i2 in [max(a2, ln - i1 - b3), min(b2, ln - i1 - a3)], so only the box
    triples with sum ln are enumerated: one ragged band per i1, laid out by
    one repeat and one arange.  The bounds are taken as offsets from
    (a1, a2), with ln - b3 and ln - a3 clamped in Python ints to the range
    where a change can still move a band; every offset is then at most the
    box side, so nothing wraps in int64 however large the endpoints.  The
    gap masks run unless interval arithmetic on the range each index takes
    at this sum shows that every band triple meets both gaps.  The arrays
    are int64 while every S fits with room to spare and Python ints
    (dtype=object) beyond, so S is exact at any size.
    """
    (a1, b1), (a2, b2), (a3, b3) = spec.i1, spec.i2, spec.i3
    big = max(abs(a1), abs(b1), abs(a2), abs(b2), abs(ln) + abs(a1) + abs(b1) + abs(a2) + abs(b2))
    dtype = np.int64 if 3 * big * big < 1 << 62 else object
    l1, l2 = b1 - a1, b2 - a2
    # band of row x = i1 - a1: offsets y = i2 - a2 in [max(0, c - x), min(l2, d - x)]
    c = min(max(ln - b3 - a1 - a2, 0), l1 + l2 + 1)
    d = min(max(ln - a3 - a1 - a2, -1), l1 + l2)
    x = np.arange(l1 + 1)
    lo = np.maximum(c - x, 0)
    width = np.maximum(np.minimum(d - x, l2) - lo + 1, 0)
    total = int(width.sum())
    i2 = np.arange(total)
    i2 += np.repeat(lo - (np.cumsum(width) - width), width)
    i1 = np.repeat(x, width)
    if dtype is object:
        i1, i2 = i1.astype(object), i2.astype(object)
    i1 += a1
    i2 += a2
    i3 = ln - i1
    i3 -= i2
    # at this sum ik runs over [lok, hik]; |i - i3| is an integer, so
    # |i - i3| >= N*lam iff it is >= ceil(N*lam)
    lo1, hi1 = max(a1, ln - b2 - b3), min(b1, ln - a2 - a3)
    lo2, hi2 = max(a2, ln - b1 - b3), min(b2, ln - a1 - a3)
    lo3, hi3 = max(a3, ln - b1 - b2), min(b3, ln - a1 - a2)
    g13, g23 = math.ceil(spec.n13 * spec.lam), math.ceil(spec.n23 * spec.lam)
    masked = total > 0 and not (
        _gap_free(lo1 - hi3, hi1 - lo3, g13) and _gap_free(lo2 - hi3, hi2 - lo3, g23)
    )
    if masked:
        gap = i1 - i3
        np.abs(gap, out=gap)
        ok = gap >= g13
        np.subtract(i2, i3, out=gap)
        np.abs(gap, out=gap)
        ok &= gap >= g23
    S = i1
    S *= S
    i2 *= i2
    i3 *= i3
    S += i2
    S += i3
    if masked:
        S = S[ok]
    S.sort()
    return S, total


def count_A_set(
    spec: TrilinearSpec,
    n,
    tau,
    *,
    box_cap: int = DEFAULT_BOX_CAP,
) -> int:
    """|A(n, tau)|: admissible triples with the given sum and shell value.

    n and tau are rationals.  The count is zero unless n lies on the 1/lam
    grid, since n3 = n - n1 - n2 must.  Raises CapExceededError when the
    I1 x I2 candidate grid exceeds ``box_cap`` pairs.
    """
    _check_box(spec, box_cap)
    ln = Fraction(n) * spec.lam
    if ln.denominator != 1:
        return 0
    # |lam^2 tau - S| <= lam^2 c_tol for integer S is an integer window
    tau, lam2 = Fraction(tau), spec.lam * spec.lam
    lo = math.ceil((tau - spec.c_tol) * lam2)
    hi = math.floor((tau + spec.c_tol) * lam2)
    s = _shell_values(spec, int(ln))[0]
    return int(np.searchsorted(s, hi, side="right") - np.searchsorted(s, lo, side="left"))


# ---------------------------------------------------------------------------
# supremum over (n, tau)


@dataclass(frozen=True)
class SupReport:
    sup: int
    arg_n: Optional[Fraction]
    arg_tau: Optional[Fraction]
    normalized: float
    k_value: Fraction
    gap_scale: Fraction  # max(N13, N23), the normalization gap
    triples: int  # box triples enumerated, summed over n
    counted: int  # shell positions whose window was counted exactly


def _box_shell_min(spec: TrilinearSpec) -> int:
    """Smallest i1^2+i2^2+i3^2 over the box I1 x I2 x I3."""
    return sum(0 if a <= 0 <= b else min(a * a, b * b) for a, b in (spec.i1, spec.i2, spec.i3))


#: Spacing of the anchor positions in the densest-window search.
_ANCHOR_STEP = 16


def _densest_window(s: np.ndarray, width) -> tuple[int, int, int]:
    """(count, r, counted) for sorted integers s: count is the largest number
    of values in a window [s[r] - width, s[r]], r the first position that
    attains it, and counted the positions whose window was counted exactly.

    With first[r] the first position at or above s[r] - width, the window at
    r holds r + 1 - first[r] values, and first is nondecreasing.  Only the
    anchors r = 0, K, 2K, ... are searched first: each anchor's count is a
    lower bound on the maximum, and min(r + K, len(s)) - first[r] bounds every
    count in the block [r, r + K) from above.  Only the blocks whose upper
    bound reaches the best anchor count are counted exactly.  Every position
    that attains the maximum lies in such a block, so the maximum and its
    first position are exactly those of the full search.
    """
    n = len(s)
    anchors = np.arange(0, n, _ANCHOR_STEP)
    first = np.searchsorted(s, s[anchors] - width, side="left")
    upper = np.minimum(anchors + _ANCHOR_STEP, n) - first
    kept = anchors[upper >= (anchors + 1 - first).max()]
    r = (kept[:, None] + np.arange(_ANCHOR_STEP)).ravel()
    r = r[r < n]
    cnt = r + 1 - np.searchsorted(s, s[r] - width, side="left")
    i = int(np.argmax(cnt))
    return int(cnt[i]), int(r[i]), len(r)


def sup_count_A(spec: TrilinearSpec, *, box_cap: int = DEFAULT_BOX_CAP) -> SupReport:
    """Supremum of |A(n, tau)| over every integer n and every rational tau.

    n runs over every integer whose scaled sum the box can reach, in
    ascending order, and enumerates only the triples with that sum (see
    ``_shell_values``).  For fixed n the sup over tau is exact: a window
    |lam^2 tau - S| <= lam^2 c_tol slides over the sorted integer shell
    values, and the densest one is found by the pruned search of
    ``_densest_window``, which returns the same count and the same first
    position as counting the window at every position.  The witness tau has
    lam^2 tau an integer; ties go to the smallest n, then the smallest shell
    position.  The normalized value divides by lam^2 K / max(N13, N23) + lam.
    ``triples`` and ``counted`` report the work: the box triples enumerated
    and the shell positions counted exactly after pruning.
    """
    gain = enhanced_gain_K(spec)
    gap = max(spec.n13, spec.n23)
    if gap == 0:
        raise ValueError("normalization needs a positive separation threshold")
    denom = float(Fraction(spec.lam**2) * gain.k_value / gap + spec.lam)
    _check_box(spec, box_cap)

    lam = spec.lam
    lo = spec.i1[0] + spec.i2[0] + spec.i3[0]
    hi = spec.i1[1] + spec.i2[1] + spec.i3[1]
    # the densest width-2w window of integers is centered at an integer
    w = math.floor(spec.c_tol * lam * lam)
    s_lo = _box_shell_min(spec)
    best = triples = counted = 0
    arg: tuple[Optional[Fraction], Optional[Fraction]] = (None, None)
    for n in range(-((-lo) // lam), hi // lam + 1):
        s, enumerated = _shell_values(spec, n * lam)
        triples += enumerated
        if len(s) == 0:
            continue
        cnt, r, k = _densest_window(s, 2 * w)
        counted += k
        if cnt > best:
            best = cnt
            arg = (Fraction(n), Fraction(max(int(s[r]) - w, s_lo), lam * lam))

    return SupReport(
        sup=best,
        arg_n=arg[0],
        arg_tau=arg[1],
        normalized=best / denom,
        k_value=gain.k_value,
        gap_scale=gap,
        triples=triples,
        counted=counted,
    )


# ---------------------------------------------------------------------------
# change of variables identity


@dataclass(frozen=True)
class UvReport:
    n_samples: int
    max_abs_residual: Fraction
    all_zero: bool


def _uv_residual(x: Fraction, y: Fraction, at: Fraction, bt: Fraction, lam: Fraction) -> Fraction:
    u, v = x - y, x + y
    a, b = at - bt, (at + bt) / 3
    lhs = x * x + y * y + x * y + lam * (x * at + y * bt)
    rhs = (
        Fraction(1, 4) * (u + lam * a) ** 2
        + Fraction(3, 4) * (v + lam * b) ** 2
        - lam * lam * a * a / 4
        - 3 * lam * lam * b * b / 4
    )
    return lhs - rhs


def uv_change_of_variables_check(n_samples: int = 1000, seed: int = 0) -> UvReport:
    """Check the quadratic-form diagonalization used to decouple the pair sum.

    Substituting u = x - y, v = x + y, a = a~ - b~, b = (a~ + b~)/3 must turn
    x^2 + y^2 + xy + lam(x a~ + y b~) into (1/4)(u + lam a)^2 +
    (3/4)(v + lam b)^2 minus the completing-the-square constants.  Sampled
    over random rationals; every residual must be exactly zero.
    """
    rng = stream(seed, 7)
    worst = Fraction(0)
    for _ in range(n_samples):
        nums = rng.integers(-99, 100, size=5)
        dens = rng.integers(1, 13, size=5)
        x, y, at, bt = (
            Fraction(int(p), int(q)) for p, q in zip(nums[:4], dens[:4])
        )
        lam = Fraction(int(abs(nums[4])) + 1, int(dens[4]))
        worst = max(worst, abs(_uv_residual(x, y, at, bt, lam)))
    return UvReport(n_samples=n_samples, max_abs_residual=worst, all_zero=worst == 0)


# ---------------------------------------------------------------------------
# trilinear space-time norm


def trilinear_l2_ratio(
    phi1: FourierState,
    phi2: FourierState,
    phi3: FourierState,
    T: float,
    *,
    spec: Optional[TrilinearSpec] = None,
) -> float:
    """||prod_j e^{it D} phi_j||_{L^2([0,T] x circle)} / prod_j ||phi_j||_{L^2}.

    The numerator is evaluated exactly on the Fourier side: mixed triples
    collapse to (sigma, q) classes and pair under the resonance time kernel,
    as in the sixth-power integral.  Zero profiles are rejected, all three
    states must share a circumference, and when a spec is supplied each
    support must sit inside its interval.
    """
    states = (phi1, phi2, phi3)
    lam = phi1.lam
    if any(s.lam != lam for s in states):
        raise ValueError("profiles must share one circumference")
    if any(s.n_modes == 0 for s in states):
        raise ValueError("zero profile has no ratio")
    if T <= 0:
        raise ValueError("T must be positive")
    if phi1.n_modes * phi2.n_modes * phi3.n_modes > DEFAULT_MODE_CAP:
        raise CapExceededError("support product exceeds the trilinear cap")
    if spec is not None:
        if spec.lam != lam:
            raise ValueError("spec grid scale differs from the profiles")
        for s, (a, b) in zip(states, (spec.i1, spec.i2, spec.i3)):
            if s.indices[0] < a or s.indices[-1] > b:
                raise ValueError("profile support leaves its interval")
    sig, q, P = _product_classes(
        (phi1.indices, phi2.indices, phi3.indices),
        (phi1.amps, phi2.amps, phi3.amps),
    )
    value = _paired_time_integral(sig, q, P, lam, T)
    return math.sqrt(value) / (phi1.l2_norm() * phi2.l2_norm() * phi3.l2_norm())


# ---------------------------------------------------------------------------
# reference geometries and scaling trend


def standard_geometries(lam: int = 8) -> list[tuple[str, TrilinearSpec]]:
    """Reference interval layouts with fixed real endpoints at grid scale 1/lam.

    Refining lam only densifies the admissible grid, so counts are monotone
    in lam for each layout.  lam must be a multiple of 4 (one layout has a
    quarter-integer endpoint).
    """
    if lam % 4:
        raise ValueError("lam must be a multiple of 4")
    mk = TrilinearSpec.from_intervals
    return [
        ("separated", mk(lam, (0, 2), (4, 6), (16, 18), n13=10, n23=10, j_radius=20)),
        (
            "enhanced",
            mk(lam, (0, Fraction(1, 4)), (8, 16), (64, 72), n13=48, n23=48, j_radius=80),
        ),
        ("comparable", mk(lam, (0, 4), (5, 9), (20, 24), n13=12, n23=12, j_radius=30)),
    ]


@dataclass(frozen=True)
class TrendPoint:
    lam: int
    sup: int
    normalized: float
    arg_n: Optional[Fraction]
    arg_tau: Optional[Fraction]
    triples: int
    counted: int


@dataclass(frozen=True)
class TrendReport:
    geometry: str
    points: tuple[TrendPoint, ...]
    slope: float  # of normalized sup against log lam


def normalized_sup_trend(
    geometry: str,
    lams: Sequence[int],
    *,
    box_cap: int = DEFAULT_BOX_CAP,
) -> TrendReport:
    """Normalized sup counts for one reference layout across grid scales."""
    if len(lams) < 2:
        raise ValueError("need at least two scales for a trend")
    points = []
    for lam in lams:
        spec = dict(standard_geometries(lam))[geometry]
        rep = sup_count_A(spec, box_cap=box_cap)
        points.append(
            TrendPoint(
                lam, rep.sup, rep.normalized, rep.arg_n, rep.arg_tau, rep.triples, rep.counted
            )
        )
    slope = float(
        np.polyfit(np.log([p.lam for p in points]), [p.normalized for p in points], 1)[0]
    )
    return TrendReport(geometry=geometry, points=tuple(points), slope=slope)
