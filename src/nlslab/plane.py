"""Integer triples on the plane n1+n2+n3 = n, sliced by cylindrical annuli.

The slice P_n ∩ C_ell collects triples whose squared distance to the plane's
centroid (n/3, n/3, n/3) lies in [ell*K, (ell+1)*K).  Multiplying through by 9
turns that distance into the integer (3n1-n)^2 + (3n2-n)^2 + (3n3-n)^2, so
membership is decided exactly.  These 3D counts are then calibrated against 2D
annulus counts of the hexagonal Gram form: a radius scale and one center
offset per residue class n mod 3 are searched until every grid cell matches
exactly, and `verify_reduction` re-checks the match on larger grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CalibrationError, CapExceededError
from .lattice import CLOSED_CLOSED, CLOSED_OPEN, HEX_FORM, AnnulusSpec, count_points
from .rng import stream

#: Largest admissible (ell+1)*K for a single slice; keeps enumeration boxes sane.
DEFAULT_RADIUS_CAP = 100_000

#: Center offsets tried during calibration: origin, both deep-hole classes of
#: the hexagonal lattice, and the edge midpoint.
CANDIDATE_OFFSETS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(0), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(1, 2)),
)

#: Radius scales tried during calibration, in preference order.
CANDIDATE_SCALES: tuple[Fraction, ...] = (Fraction(1), Fraction(1, 2), Fraction(2))


@dataclass(frozen=True)
class PlaneSliceSpec:
    """One cell (n, ell, K): sum-n triples at squared centroid distance in
    [ell*K, (ell+1)*K), closed-open by default."""

    n: int
    ell: int
    K: int
    boundary: str = CLOSED_OPEN
    radius_cap: int = DEFAULT_RADIUS_CAP

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.boundary not in (CLOSED_CLOSED, CLOSED_OPEN):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        if (self.ell + 1) * self.K > self.radius_cap:
            raise CapExceededError(
                f"(ell+1)*K = {(self.ell + 1) * self.K} exceeds radius cap {self.radius_cap}"
            )


def _coord_range(n: int, smax: int) -> np.ndarray:
    # integers within smax of n/3 (padded)
    lo = -((3 * smax - n) // 3)
    hi = (n + 3 * smax) // 3
    return np.arange(lo, hi + 1, dtype=np.int64)


def count_plane_slice(spec: PlaneSliceSpec) -> int:
    """Exact size of ℤ³ ∩ {sum = n} ∩ {dist² to centroid in the K-slab}."""
    n, ell, K = spec.n, spec.ell, spec.K
    lo9 = 9 * ell * K
    hi9 = 9 * (ell + 1) * K
    smax = isqrt((ell + 1) * K) + 1  # per-coordinate |n_i - n/3| bound, padded
    xs = _coord_range(n, smax)
    n1 = xs[:, None]
    n2 = xs[None, :]
    n3 = n - n1 - n2
    D = (3 * n1 - n) ** 2 + (3 * n2 - n) ** 2 + (3 * n3 - n) ** 2
    if spec.boundary == CLOSED_OPEN:
        mask = (D >= lo9) & (D < hi9)
    else:
        mask = (D >= lo9) & (D <= hi9)
    return int(mask.sum())


def _plane_histograms(
    ns: Sequence[int], k_set: Sequence[int], radius_cap: int
) -> dict[int, np.ndarray]:
    """Per K, the (len(ns), radius_cap // K) array whose row i holds
    count_plane_slice(ns[i], ell, K) for all ell with (ell+1)K ≤ cap.

    Each plane's solid ball is enumerated once: it does not depend on K, only
    its binning does, so every K takes one bincount of the same distances.
    """
    smax = isqrt(radius_cap) + 1
    hists = {K: np.empty((len(ns), radius_cap // K), dtype=np.int64) for K in k_set}
    for i, n in enumerate(ns):
        xs = _coord_range(n, smax)
        n1 = xs[:, None]
        n2 = xs[None, :]
        n3 = n - n1 - n2
        D = ((3 * n1 - n) ** 2 + (3 * n2 - n) ** 2 + (3 * n3 - n) ** 2).ravel()
        D = D[D < 9 * radius_cap]
        for K, h in hists.items():
            # D // 9K reaches at most cap // K, one past the last full slab
            h[i] = np.bincount(D // (9 * K), minlength=h.shape[1] + 1)[: h.shape[1]]
    return hists


def _hex_histogram(
    offset: tuple[Fraction, Fraction], scale: Fraction, K: int, radius_cap: int
) -> np.ndarray:
    """Counts of Q(x-cx, y-cy) ∈ [scale·ell·K, scale·(ell+1)·K) per ell for the
    hexagonal form, ell ranging over the same grid as `_plane_histograms`.

    With e the center's common denominator, x = floor(cx) + i for |i| ≤ h+1
    and u = e·x - e·cx, so |u| ≤ e(h+1), likewise v, and every partial sum of
    e²·Q = u² + uv + v² is at most 3e²(h+1)².  Times the scale's denominator
    d that is the largest value formed (the top bin edge e²·d·qmax is lower,
    as 3(h+1)² > 8·qmax), so the arrays are int64 while 3e²(h+1)²·d < 2⁶³
    and Python ints (dtype=object) beyond: every count is exact.
    """
    nbins = radius_cap // K
    cx, cy = Fraction(offset[0]), Fraction(offset[1])
    e = math.lcm(cx.denominator, cy.denominator)
    qmax = scale * K * nbins  # exclusive bound on Q
    h = int(math.sqrt(float(qmax) / 0.375)) + 3  # 3/8 lower-bounds the form
    d = scale.denominator
    dtype = np.int64 if 3 * (e * (h + 1)) ** 2 * d < 1 << 63 else object
    i = np.arange(-h, h + 2).astype(dtype)
    u = e * i[:, None] - int(e * cx) % e
    v = e * i[None, :] - int(e * cy) % e
    qnum = (u * u + u * v + v * v).ravel()  # Q = qnum / e²
    # ell = floor(qnum·d / (e²·p·K)) with scale = p/d, exact in integers
    den = e * e * scale.numerator * K
    num = qnum * d
    num = num[num < den * nbins]
    return np.bincount((num // den).astype(np.int64), minlength=nbins)


@dataclass(frozen=True)
class ReductionCalibration:
    """Radius scale plus per-residue center offsets matching 3D slice counts
    to 2D hexagonal annulus counts.

    `offsets[r]` applies to planes with n ≡ r (mod 3).  `alternates[r]` lists
    further offsets that match equally well (count-equivalent centers, e.g. a
    deep hole and its inverse); `scale_alternates` likewise for the scale.
    `verified` is only set when every cell of the calibration grid matched
    exactly.
    """

    radius_scale: Fraction
    offsets: tuple[tuple[Fraction, Fraction], ...]
    verified: bool = False
    alternates: tuple[tuple[tuple[Fraction, Fraction], ...], ...] = ((), (), ())
    scale_alternates: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if len(self.offsets) != 3:
            raise ValueError("offsets must have one entry per residue class mod 3")


@dataclass(frozen=True)
class CellCheck:
    """One grid cell comparison; lhs is the 3D slice count, rhs the 2D count."""

    n: int
    ell: int
    K: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class VerificationReport:
    total: int
    failures: list[CellCheck]
    spot_checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


def _mismatches(
    ns: Sequence[int],
    rows: np.ndarray,
    plane: dict[int, np.ndarray],
    hexes: dict[int, np.ndarray],
) -> Iterator[CellCheck]:
    """Cells of the planes ns[rows] whose 3D count differs from the hexagonal
    one, in (K, n, ell) order.  A `CellCheck` is built only as each cell is
    taken, so a caller that keeps the first few pays for those alone."""
    for K, hex_h in hexes.items():
        plane_h = plane[K][rows]
        for i, ell in zip(*np.nonzero(plane_h - hex_h)):
            yield CellCheck(ns[rows[i]], int(ell), K, int(plane_h[i, ell]), int(hex_h[ell]))


def calibrate_reduction(
    n_range: Iterable[int], k_set: Iterable[int], radius_cap: int
) -> ReductionCalibration:
    """Search scale and per-residue offsets until every (n, ell, K) cell count
    equals the matching 2D annulus count; raise CalibrationError otherwise.

    The grid must hold a plane of every residue n mod 3, since each residue
    gets its own offset.  Each (scale, offset, K) hexagonal histogram is built
    once and compared with every plane of the grid in one pass, which gives
    the worst miss of each plane and so of each residue.
    """
    ns = sorted(set(int(n) for n in n_range))
    k_set = sorted(set(int(k) for k in k_set))
    if not ns or not k_set:
        raise ValueError("calibration grid must be nonempty")
    if any(k < 1 for k in k_set):
        raise ValueError("K values must be positive")
    if {n % 3 for n in ns} != {0, 1, 2}:
        raise ValueError("calibration grid must hold a plane of every residue n mod 3")
    if radius_cap < 1:
        raise ValueError("radius_cap must be positive")
    if radius_cap > DEFAULT_RADIUS_CAP:
        raise CapExceededError(f"radius_cap {radius_cap} exceeds {DEFAULT_RADIUS_CAP}")

    plane = _plane_histograms(ns, k_set, radius_cap)
    by_residue = [np.flatnonzero(np.array(ns) % 3 == r) for r in range(3)]

    matches: dict[Fraction, list[list[tuple[Fraction, Fraction]]]] = {}
    # the smallest worst miss; ties go to the earliest scale, residue, offset
    best_failure: tuple[tuple[int, int, int], list[CellCheck]] | None = None
    for si, scale in enumerate(CANDIDATE_SCALES):
        per_res: list[list[tuple[Fraction, Fraction]]] = [[], [], []]
        for off in CANDIDATE_OFFSETS:
            hexes = {K: _hex_histogram(off, scale, K, radius_cap) for K in k_set}
            # largest |3D count - 2D count| per plane
            worst = np.max(
                [np.abs(plane[K] - h).max(axis=1, initial=0) for K, h in hexes.items()], axis=0
            )
            for r, rows in enumerate(by_residue):
                key = (int(worst[rows].max()), si, r)
                if not key[0]:
                    per_res[r].append(off)
                elif best_failure is None or key < best_failure[0]:
                    best_failure = (key, list(islice(_mismatches(ns, rows, plane, hexes), 20)))
        if all(per_res):
            matches[scale] = per_res

    if not matches:
        (miss, _, _), cells = best_failure
        raise CalibrationError(
            f"no (scale, offsets) combination matches the grid; "
            f"closest candidate still misses by {miss} (first bad cell: {cells[0]})",
            failures=cells,
        )

    scales = [s for s in CANDIDATE_SCALES if s in matches]
    scale = scales[0]
    per_res = matches[scale]
    return ReductionCalibration(
        radius_scale=scale,
        offsets=tuple(per_res[r][0] for r in range(3)),
        verified=True,
        alternates=tuple(tuple(per_res[r][1:]) for r in range(3)),
        scale_alternates=tuple(scales[1:]),
    )


def verify_reduction(
    calib: ReductionCalibration,
    n_range: Iterable[int],
    k_set: Iterable[int],
    radius_cap: int,
    *,
    spot_checks: int = 32,
    seed: int = 0,
) -> VerificationReport:
    """Exact re-check of a calibration on an arbitrary grid.

    Bulk comparison goes through per-n histograms; `spot_checks` randomly
    chosen cells are additionally recounted from scratch (direct slice
    enumeration vs direct 2D annulus count) to guard the fast path.
    """
    ns = sorted(set(int(n) for n in n_range))
    k_set = sorted(set(int(k) for k in k_set))
    if not ns or not k_set:
        raise ValueError("verification grid must be nonempty")
    if spot_checks < 0:
        raise ValueError("spot_checks must be nonnegative")
    if radius_cap > DEFAULT_RADIUS_CAP:
        raise CapExceededError(f"radius_cap {radius_cap} exceeds {DEFAULT_RADIUS_CAP}")

    plane = _plane_histograms(ns, k_set, radius_cap)
    total = sum(h.size for h in plane.values())
    # planes grouped by offset, so each (offset, K) histogram is built once
    by_offset: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i, n in enumerate(ns):
        by_offset.setdefault(calib.offsets[n % 3], []).append(i)
    failures: list[CellCheck] = []
    for off, rows in by_offset.items():
        hexes = {K: _hex_histogram(off, calib.radius_scale, K, radius_cap) for K in k_set}
        failures.extend(_mismatches(ns, np.array(rows), plane, hexes))

    rng = stream(seed, 101)
    done = 0
    for _ in range(spot_checks):
        n = ns[int(rng.integers(len(ns)))]
        K = k_set[int(rng.integers(len(k_set)))]
        nbins = radius_cap // K
        if nbins == 0:
            continue
        ell = int(rng.integers(nbins))
        lhs = count_plane_slice(PlaneSliceSpec(n, ell, K, radius_cap=radius_cap))
        off = calib.offsets[n % 3]
        s = calib.radius_scale
        rhs = count_points(
            HEX_FORM, AnnulusSpec(off, s * ell * K, s * (ell + 1) * K, CLOSED_OPEN)
        )
        if lhs != rhs:
            failures.append(CellCheck(n, ell, K, lhs, rhs))
        done += 1
    return VerificationReport(total=total, failures=failures, spot_checked=done)
