"""Exact lattice point counting in shifted disks and thin annuli.

Counts integer pairs (x, y) with r1sq <= Q(x - bx, y - by) <= r2sq for a
positive definite binary quadratic form Q.  Each row y contributes the
integers in an interval whose endpoints are computed for all rows at once in
float64; a row is counted from them only where a derived error bound
certifies both floors, and every other row is decided in integer arithmetic
after clearing denominators.  So annuli of width much smaller than 1 are
counted exactly.  The hexagonal (triangular) lattice is handled through its
Gram form x^2 + xy + y^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from .rng import stream

CLOSED_CLOSED = "closed-closed"
CLOSED_OPEN = "closed-open"


@dataclass(frozen=True)
class QuadraticForm2:
    """Binary quadratic form a*x^2 + b*x*y + c*y^2 with exact rational
    coefficients.  Must be positive definite (a > 0 and 4ac - b^2 > 0)."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if not (self.a > 0 and 4 * self.a * self.c - self.b * self.b > 0):
            raise ValueError("form must be positive definite")

    @property
    def discriminant(self) -> Fraction:
        return 4 * self.a * self.c - self.b * self.b

    def __call__(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return self.a * x * x + self.b * x * y + self.c * y * y


#: Gram form of the hexagonal (triangular) lattice with unit minimal vectors.
HEX_FORM = QuadraticForm2(Fraction(1), Fraction(1), Fraction(1))
#: Gram form of the square lattice.
SQUARE_FORM = QuadraticForm2(Fraction(1), Fraction(0), Fraction(1))

#: Offsets (in lattice coordinates) realizing the two deep-hole classes of the
#: hexagonal lattice; both sit at squared form-distance 1/3 from the lattice.
DEEP_HOLE_OFFSETS = (
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(2, 3)),
)


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus r1sq <= Q <= r2sq (or < r2sq) around a rational center.

    Squared radii are exact rationals; `boundary` selects whether the outer
    boundary is included ("closed-closed", default) or not ("closed-open").
    The inner boundary is always included.
    """

    center: tuple
    r1sq: Fraction
    r2sq: Fraction
    boundary: str = CLOSED_CLOSED

    def __post_init__(self):
        cx, cy = self.center
        object.__setattr__(self, "center", (Fraction(cx), Fraction(cy)))
        object.__setattr__(self, "r1sq", Fraction(self.r1sq))
        object.__setattr__(self, "r2sq", Fraction(self.r2sq))
        if self.r1sq < 0:
            raise ValueError("r1sq must be nonnegative")
        if self.r1sq > self.r2sq:
            raise ValueError("r1sq must not exceed r2sq")
        if self.boundary not in (CLOSED_CLOSED, CLOSED_OPEN):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @classmethod
    def disk(cls, center, r2sq, boundary: str = CLOSED_CLOSED) -> "AnnulusSpec":
        return cls(center, Fraction(0), r2sq, boundary)


def _count_row_le(alpha: int, beta: int, gamma: int, t: int) -> int:
    """#(integer X with alpha X^2 + beta X + gamma <= t), alpha > 0.

    Roots are (-beta +- sqrt(disc)) / (2 alpha); for integer q one has
    q <= sqrt(n) iff q <= isqrt(n), so floor/ceil of the roots come out of
    integer floor division exactly (the interval may contain no integer).
    """
    disc = beta * beta - 4 * alpha * (gamma - t)
    if disc < 0:
        return 0
    s = isqrt(disc)
    two_a = 2 * alpha
    hi = (s - beta) // two_a  # floor of the larger root
    lo = -((s + beta) // two_a)  # ceil of the smaller root
    return max(0, hi - lo + 1)


#: Unit roundoff of float64 (eps in the `count_points` error bound).
_U = 2.0**-53
#: Integers below this are exact in float64.
_EXACT = 2**53


def _float_rows(
    v: np.ndarray, p2: float, b: float, two_ad: float, four_a: float, disc4: float, tq: float
) -> tuple[int, np.ndarray]:
    """Counts of the rows the error bound derived in `count_points` decides,
    and a mask of the rows it leaves to the exact count."""
    xc = (p2 - b * v) / two_ad
    a = four_a * tq
    s = disc4 * (v * v)
    rad = a - s
    e_rad = 6 * _U * (a + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(rad)
        hw = root / two_ad
        err = 16 * _U * (np.abs(xc) + hw) + e_rad / (root * two_ad)
        up, down = xc + hw, xc - hw
        hi = np.floor(up - err)
        lo = np.ceil(down + err)
        decided = (rad > e_rad) & (np.floor(up + err) == hi) & (np.ceil(down - err) == lo)
    counts = np.maximum(hi[decided] - lo[decided] + 1, 0).astype(np.int64)
    return int(counts.sum()), ~(decided | (rad < -e_rad))


def count_points(form: QuadraticForm2, spec: AnnulusSpec) -> int:
    """Exact count of integer points (x, y) in the annulus.

    Denominators are cleared: the center is (px, py)/d and m*Q has integer
    coefficients A, B, C, so Q(x - bx, y - by) <= R reads
    g*(A u^2 + B u v + C v^2) <= t with u = d*x - px, v = d*y - py and
    integers g, t (t already lowered by 1 for a strict bound).  On row y
    the admissible x form the interval xc -+ hw with

        xc = (2A*px - B*v) / (2A*d),  hw = sqrt(rad) / (2A*d),
        rad = 4A*T - disc4*v^2,  T = t/g,  disc4 = 4AC - B^2,

    and the row holds floor(xc + hw) - ceil(xc - hw) + 1 points.  All rows
    are evaluated at once in float64 (`_float_rows`).

    Error bound.  The integer inputs v, 2A*px, B*v, 2A*d, 4A and disc4 are
    exact in float64 (checked below), T is one correctly rounded quotient,
    and every further operation rounds once, with relative error at most
    eps = 2^-53 (to first order; the factor-2 slack below absorbs the rest):

    * xc is one subtraction and one division: |xc_f - xc| <= 2eps|xc|.
    * With a = 4A*T_f and s = disc4*fl(v*v) as computed,
      |rad_f - rad| <= eps|a - s| + 2eps(a + s) <= 3eps(a + s).  The code uses
      e_rad = 6eps(a + s), twice that: rad_f < -e_rad proves rad < 0 (no
      points), rad_f > e_rad proves rad > 0, and in between the row is open.
    * |sqrt(rad_f) - sqrt(rad)| = |rad_f - rad| / (sqrt(rad_f) + sqrt(rad))
      <= e_rad / (2 sqrt(rad_f)); the square root and the division by 2A*d
      add 2eps*hw.
    * xc -+ hw rounds once more, so each endpoint is within
      3eps(|xc| + hw) + e_rad / (2 sqrt(rad_f) * 2A*d) of the true one.

    err = 16eps(|xc_f| + hw_f) + e_rad / (sqrt(rad_f) * 2A*d) is at least
    twice that, so the true endpoint lies within err/2 of the float one, and
    the roundings in endpoint -+ err (at most eps(|endpoint| + err) <= err/2)
    cannot carry it across an integer.  A row is counted in float64 when
    floor of the upper endpoint (ceil of the lower) is the same at both ends
    of its err interval.

    Fallback.  The other rows are recounted exactly with integer square
    roots (`_count_row_le`): rows with a lattice point on a boundary (an
    endpoint on an integer, where the closed and open modes differ), rows
    whose endpoint lies closer to an integer than float64 resolves (a bound
    lowered by 1/g for a huge g), and rows at the top and bottom of the
    ellipse whose radicand is within e_rad of 0.  When v, 2A*px, B*v, 2A*d,
    4A or disc4 reaches 2^53, float64 no longer holds the inputs exactly and
    every row is counted that way.  Either way the cost is O(linear extent)
    regardless of annulus width.
    """
    bx, by = spec.center
    d = math.lcm(bx.denominator, by.denominator)
    px, py = bx.numerator * (d // bx.denominator), by.numerator * (d // by.denominator)
    m = math.lcm(form.a.denominator, form.b.denominator, form.c.denominator)
    A = form.a.numerator * (m // form.a.denominator)
    B = form.b.numerator * (m // form.b.denominator)
    C = form.c.numerator * (m // form.c.denominator)

    t1f = spec.r1sq * m * d * d
    t2f = spec.r2sq * m * d * d
    g = math.lcm(t1f.denominator, t2f.denominator)
    t1 = t1f.numerator * (g // t1f.denominator)
    t2 = t2f.numerator * (g // t2f.denominator)
    if spec.boundary == CLOSED_OPEN:
        t2 -= 1
    t1 -= 1  # inner boundary: strict complement of Q < r1sq
    if t2 < 0:
        return 0

    alpha = g * A * d * d
    disc4 = 4 * A * C - B * B  # > 0, scaled by m^2
    vmax = isqrt(4 * A * t2 // (g * disc4)) + 1  # |v| <= vmax on every row

    y_lo = -((vmax - py) // d)  # ceil((py - vmax)/d)
    y_hi = (vmax + py) // d  # floor((py + vmax)/d)
    gd = g * d

    def exact(y: int, t: int) -> int:
        v = d * y - py
        beta = gd * (B * v - 2 * A * px)
        gamma = g * ((A * px - B * v) * px + C * v * v)
        return _count_row_le(alpha, beta, gamma, t)

    fits = max(vmax, abs(2 * A * px), abs(B) * vmax, 2 * A * d, 4 * A, disc4) < _EXACT
    if fits:
        v = (d * y_lo - py) + d * np.arange(y_hi - y_lo + 1, dtype=np.int64)
        row_args = (v.astype(np.float64), *map(float, (2 * A * px, B, 2 * A * d, 4 * A, disc4)))
    total = 0
    for t, sign in ((t2, 1), (t1, -1)):
        if t < 0:
            continue
        n, rows = 0, range(y_lo, y_hi + 1)
        if fits:
            n, undecided = _float_rows(*row_args, t / g)
            rows = (y_lo + np.flatnonzero(undecided)).tolist()
        total += sign * (n + sum(exact(y, t) for y in rows))
    return total


def count_points_naive(form: QuadraticForm2, spec: AnnulusSpec, box_cap: int = 10**6) -> int:
    """Reference double loop over the bounding box.

    Deliberately simple — no row intervals, no root isolation; the form is
    evaluated at every candidate point.  Denominators are cleared up front so
    the inner comparisons are exact integer arithmetic.
    """
    bx, by = spec.center
    lam_min = form.discriminant / (4 * (form.a + form.c))  # lower eigenvalue bound
    r = math.sqrt(float(spec.r2sq / lam_min)) if spec.r2sq > 0 else 0.0
    x_lo, x_hi = math.floor(float(bx) - r) - 1, math.ceil(float(bx) + r) + 1
    y_lo, y_hi = math.floor(float(by) - r) - 1, math.ceil(float(by) + r) + 1
    if (x_hi - x_lo + 1) * (y_hi - y_lo + 1) > box_cap:
        raise ValueError("bounding box too large for the naive counter")
    strict_outer = spec.boundary == CLOSED_OPEN

    d = math.lcm(bx.denominator, by.denominator)
    px, py = bx.numerator * (d // bx.denominator), by.numerator * (d // by.denominator)
    m = math.lcm(form.a.denominator, form.b.denominator, form.c.denominator)
    A = form.a.numerator * (m // form.a.denominator)
    B = form.b.numerator * (m // form.b.denominator)
    C = form.c.numerator * (m // form.c.denominator)
    # Q(x-bx, y-by) compared with r^2 <=> den(r^2) * q compared with num(r^2) * m * d^2
    s1, t1 = spec.r1sq.denominator, spec.r1sq.numerator * m * d * d
    s2, t2 = spec.r2sq.denominator, spec.r2sq.numerator * m * d * d

    total = 0
    for x in range(x_lo, x_hi + 1):
        u = d * x - px
        for y in range(y_lo, y_hi + 1):
            v = d * y - py
            q = A * u * u + B * u * v + C * v * v
            if s1 * q < t1:
                continue
            w = s2 * q
            if w > t2 or (strict_outer and w == t2):
                continue
            total += 1
    return total


def annulus_area(form: QuadraticForm2, spec: AnnulusSpec) -> float:
    """Area of the annulus: the region {Q <= r^2} has area
    2*pi*r^2 / sqrt(4ac - b^2)."""
    return 2.0 * math.pi * float(spec.r2sq - spec.r1sq) / math.sqrt(float(form.discriminant))


def gauss_error(form: QuadraticForm2, spec: AnnulusSpec) -> float:
    """Signed difference between the point count and the annulus area."""
    return count_points(form, spec) - annulus_area(form, spec)


@dataclass(frozen=True)
class CountRecord:
    """One annulus count from a hypothesis scan."""

    n: int
    alpha: float
    center_id: str
    center: tuple
    count: int
    normalized: float
    seed: int


def adversarial_centers() -> list[tuple[str, tuple]]:
    """Centers that historically concentrate lattice points: a lattice point
    (count-equivalent to the origin), both deep-hole classes, and the edge
    midpoint."""
    out = [("origin", (Fraction(0), Fraction(0))), ("lattice", (Fraction(1), Fraction(1)))]
    out.append(("deep-hole-a", DEEP_HOLE_OFFSETS[0]))
    out.append(("deep-hole-b", DEEP_HOLE_OFFSETS[1]))
    out.append(("edge-midpoint", (Fraction(1, 2), Fraction(1, 2))))
    return out


def random_centers(k: int, seed: int, denom: int = 4096) -> list[tuple[str, tuple]]:
    """k seeded rational centers, uniform on a denominator-`denom` grid in the
    fundamental cell [0,1)^2."""
    rng = stream(seed, 0)
    out = []
    for i in range(k):
        cx = Fraction(int(rng.integers(0, denom)), denom)
        cy = Fraction(int(rng.integers(0, denom)), denom)
        out.append((f"random-{i}", (cx, cy)))
    return out


def annulus_width(n: int, alpha: float) -> Fraction:
    """Exact rational stand-in for the width N^alpha (binary-float lift, so the
    same value is used by the counter and by any reference enumeration)."""
    return Fraction(float(n) ** alpha)


def scan_hypothesis_h(
    alpha: float,
    n_list: Sequence[int],
    *,
    form: QuadraticForm2 = HEX_FORM,
    k_random: int = 8,
    seed: int = 0,
    include_adversarial: bool = True,
) -> tuple[list[CountRecord], dict[int, float]]:
    """Count lattice points in the annuli [N^2, N^2 + N^alpha] over a battery
    of shifted centers.

    Returns all count records plus, per N, the supremum over centers of
    count / N^alpha.  The center set is held fixed across N.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if k_random < 0:
        raise ValueError("k_random must be nonnegative")
    if any(n < 1 for n in n_list):
        raise ValueError("N must be positive")
    centers: list[tuple[str, tuple]] = []
    if include_adversarial:
        centers.extend(adversarial_centers())
    centers.extend(random_centers(k_random, seed))

    records: list[CountRecord] = []
    sups: dict[int, float] = {}
    for n in n_list:
        r1sq = Fraction(n * n)
        r2sq = r1sq + annulus_width(n, alpha)
        best = 0.0
        for cid, center in centers:
            spec = AnnulusSpec(center, r1sq, r2sq, CLOSED_CLOSED)
            cnt = count_points(form, spec)
            normalized = cnt / float(n) ** alpha
            records.append(CountRecord(n, alpha, cid, center, cnt, normalized, seed))
            best = max(best, normalized)
        sups[n] = best
    return records, sups
