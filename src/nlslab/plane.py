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


def _plane_histogram(n: int, K: int, radius_cap: int) -> np.ndarray:
    """Counts of count_plane_slice(n, ell, K) for all ell with (ell+1)K ≤ cap,
    from one enumeration of the solid ball."""
    nbins = radius_cap // K
    if nbins == 0:
        return np.zeros(0, dtype=np.int64)
    smax = isqrt(radius_cap) + 1
    xs = _coord_range(n, smax)
    n1 = xs[:, None]
    n2 = xs[None, :]
    n3 = n - n1 - n2
    D = ((3 * n1 - n) ** 2 + (3 * n2 - n) ** 2 + (3 * n3 - n) ** 2).ravel()
    D = D[D < 9 * K * nbins]
    return np.bincount(D // (9 * K), minlength=nbins)


def _hex_histogram(
    offset: tuple[Fraction, Fraction], scale: Fraction, K: int, radius_cap: int
) -> np.ndarray:
    """Counts of Q(x-cx, y-cy) ∈ [scale·ell·K, scale·(ell+1)·K) per ell for the
    hexagonal form, ell ranging over the same grid as `_plane_histogram`."""
    nbins = radius_cap // K
    if nbins == 0:
        return np.zeros(0, dtype=np.int64)
    cx, cy = Fraction(offset[0]), Fraction(offset[1])
    e = math.lcm(cx.denominator, cy.denominator)
    if e > 5000:  # keep int64 arithmetic safe; rare path
        out = []
        for ell in range(nbins):
            spec = AnnulusSpec((cx, cy), scale * ell * K, scale * (ell + 1) * K, CLOSED_OPEN)
            out.append(count_points(HEX_FORM, spec))
        return np.asarray(out, dtype=np.int64)
    px, py = e * cx, e * cy  # integers
    qmax = scale * K * nbins  # exclusive bound on Q
    h = int(math.sqrt(float(qmax) / 0.375)) + 3  # 3/8 lower-bounds the form
    xs = np.arange(math.floor(float(cx)) - h, math.ceil(float(cx)) + h + 1, dtype=np.int64)
    ys = np.arange(math.floor(float(cy)) - h, math.ceil(float(cy)) + h + 1, dtype=np.int64)
    u = e * xs[:, None] - int(px)
    v = e * ys[None, :] - int(py)
    qnum = (u * u + u * v + v * v).ravel()  # Q = qnum / e²
    # ell = floor(qnum·q / (e²·p·K)) with scale = p/q, exact in integers
    den = e * e * scale.numerator * K
    num = qnum * scale.denominator
    num = num[num < den * nbins]
    return np.bincount(num // den, minlength=nbins)


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


def _grid_mismatches(
    ns: Sequence[int],
    k_set: Sequence[int],
    radius_cap: int,
    scale: Fraction,
    offset: tuple[Fraction, Fraction],
    plane_hists,
) -> tuple[int, Iterator[CellCheck]]:
    """Largest |3D count - 2D count| over the grid, and the mismatching cells
    in (K, n, ell) order.

    Each K's plane histograms are stacked into one (len(ns), nbins) array and
    compared with the hexagonal histogram in one pass.  Only reported cells
    become objects: the iterator builds a `CellCheck` as each cell is taken,
    so a caller that keeps the first few pays for those alone.
    """
    if not ns:
        return 0, iter(())
    worst = 0
    blocks = []
    for K in k_set:
        hex_h = _hex_histogram(offset, scale, K, radius_cap)
        plane_h = np.stack([plane_hists[(n, K)] for n in ns])
        diff = plane_h - hex_h
        if diff.any():
            worst = max(worst, int(np.abs(diff).max()))
            blocks.append((K, plane_h, hex_h, diff))

    def cells() -> Iterator[CellCheck]:
        for K, plane_h, hex_h, diff in blocks:
            for i, ell in zip(*np.nonzero(diff)):
                yield CellCheck(ns[i], int(ell), K, int(plane_h[i, ell]), int(hex_h[ell]))

    return worst, cells()


def calibrate_reduction(
    n_range: Iterable[int], k_set: Iterable[int], radius_cap: int
) -> ReductionCalibration:
    """Search scale and per-residue offsets until every (n, ell, K) cell count
    equals the matching 2D annulus count; raise CalibrationError otherwise."""
    ns = sorted(set(int(n) for n in n_range))
    k_set = sorted(set(int(k) for k in k_set))
    if not ns or not k_set:
        raise ValueError("calibration grid must be nonempty")
    if any(k < 1 for k in k_set):
        raise ValueError("K values must be positive")
    if radius_cap < 1:
        raise ValueError("radius_cap must be positive")

    plane_hists = {(n, K): _plane_histogram(n, K, radius_cap) for n in ns for K in k_set}
    by_residue = {r: [n for n in ns if n % 3 == r] for r in range(3)}

    matches: dict[Fraction, list[list[tuple[Fraction, Fraction]]]] = {}
    best_failure: tuple[int, list[CellCheck]] | None = None
    for scale in CANDIDATE_SCALES:
        per_res: list[list[tuple[Fraction, Fraction]]] = []
        for r in range(3):
            good = []
            for off in CANDIDATE_OFFSETS:
                worst, bad = _grid_mismatches(
                    by_residue[r], k_set, radius_cap, scale, off, plane_hists
                )
                if not worst:
                    good.append(off)
                elif best_failure is None or worst < best_failure[0]:
                    best_failure = (worst, list(islice(bad, 20)))
            per_res.append(good)
        if all(per_res[r] for r in range(3)):
            matches[scale] = per_res

    if not matches:
        worst, cells = best_failure if best_failure else (0, [])
        raise CalibrationError(
            f"no (scale, offsets) combination matches the grid; "
            f"closest candidate still misses by {worst} (first bad cell: "
            f"{cells[0] if cells else 'n/a'})",
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

    plane_hists = {(n, K): _plane_histogram(n, K, radius_cap) for n in ns for K in k_set}
    total = sum(len(h) for h in plane_hists.values())
    # planes grouped by offset, so each (offset, K) histogram is built once
    by_offset: dict[tuple[Fraction, Fraction], list[int]] = {}
    for n in ns:
        by_offset.setdefault(calib.offsets[n % 3], []).append(n)
    failures: list[CellCheck] = []
    for off, group in by_offset.items():
        failures.extend(
            _grid_mismatches(group, k_set, radius_cap, calib.radius_scale, off, plane_hists)[1]
        )

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
