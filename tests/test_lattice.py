import math
import random
from fractions import Fraction as F
from math import isqrt

import pytest

import nlslab.lattice as lattice
from nlslab.lattice import (
    CLOSED_CLOSED,
    CLOSED_OPEN,
    DEEP_HOLE_OFFSETS,
    HEX_FORM,
    SQUARE_FORM,
    AnnulusSpec,
    QuadraticForm2,
    _count_row_le,
    adversarial_centers,
    annulus_area,
    annulus_width,
    count_points,
    count_points_naive,
    gauss_error,
    random_centers,
    scan_hypothesis_h,
)

MIXED_FORM = QuadraticForm2(F(2), F(1), F(3))


def count_points_rowloop(form: QuadraticForm2, spec: AnnulusSpec) -> int:
    """Test-only reference: the exact counter with every row through
    `_count_row_le`, one Python iteration per row (no float64 rows)."""
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
    vmax = isqrt(4 * A * t2 // (g * disc4)) + 1

    y_lo = -((vmax - py) // d)  # ceil((py - vmax)/d)
    y_hi = (vmax + py) // d  # floor((py + vmax)/d)
    total = 0
    gd = g * d
    for y in range(y_lo, y_hi + 1):
        v = d * y - py
        beta = gd * (B * v - 2 * A * px)
        gamma = g * ((A * px - B * v) * px + C * v * v)
        n_out = _count_row_le(alpha, beta, gamma, t2)
        if n_out == 0:
            continue
        if t1 >= 0:
            n_out -= _count_row_le(alpha, beta, gamma, t1)
        total += n_out
    return total


def test_form_rejects_indefinite():
    with pytest.raises(ValueError):
        QuadraticForm2(F(1), F(3), F(1))  # 4ac - b^2 = -5
    with pytest.raises(ValueError):
        QuadraticForm2(F(-1), F(0), F(1))


def test_annulus_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec((0, 0), F(2), F(1))
    with pytest.raises(ValueError):
        AnnulusSpec((0, 0), F(-1), F(1))
    with pytest.raises(ValueError):
        AnnulusSpec((0, 0), F(0), F(1), "open-open")


def test_disk_counts_examples():
    assert count_points(SQUARE_FORM, AnnulusSpec.disk((0, 0), F(25))) == 81
    # below the first positive value of the hex form only the origin survives
    assert count_points(HEX_FORM, AnnulusSpec.disk((0, 0), F(99, 100))) == 1
    # four unit-square corners at exact squared distance 1/2
    assert count_points(SQUARE_FORM, AnnulusSpec.disk((F(1, 2), F(1, 2)), F(1, 2))) == 4
    assert count_points(HEX_FORM, AnnulusSpec((0, 0), F(16), F(20))) == 18


def test_boundary_modes():
    # hex values in [16,20]: 16 (x6) and 19 (x12)
    assert count_points(HEX_FORM, AnnulusSpec((0, 0), F(16), F(19))) == 18
    assert count_points(HEX_FORM, AnnulusSpec((0, 0), F(16), F(19), CLOSED_OPEN)) == 6
    assert count_points(SQUARE_FORM, AnnulusSpec((0, 0), F(25), F(25))) == 12
    assert count_points(SQUARE_FORM, AnnulusSpec((0, 0), F(25), F(25), CLOSED_OPEN)) == 0


def test_deep_holes_at_form_distance_one_third():
    for off in DEEP_HOLE_OFFSETS:
        # three nearest lattice points at exactly 1/3, none closer
        assert count_points(HEX_FORM, AnnulusSpec.disk(off, F(1, 3))) == 3
        assert count_points(HEX_FORM, AnnulusSpec.disk(off, F(1, 3), CLOSED_OPEN)) == 0


def test_gauss_error_examples():
    assert gauss_error(SQUARE_FORM, AnnulusSpec.disk((0, 0), F(0))) == 1.0
    err = gauss_error(SQUARE_FORM, AnnulusSpec.disk((0, 0), F(25)))
    assert err == pytest.approx(81 - 25 * math.pi, abs=1e-12)
    assert annulus_area(SQUARE_FORM, AnnulusSpec((0, 0), F(9), F(25))) == pytest.approx(16 * math.pi)
    # hex disk of squared radius 1-eps: one point, area -> pi*(1)/(sqrt(3)/2)
    eps = F(1, 10**6)
    err = gauss_error(HEX_FORM, AnnulusSpec.disk((0, 0), 1 - eps))
    assert err == pytest.approx(1 - 2 * math.pi / math.sqrt(3), abs=1e-4)


def test_oracle_equivalence_200_instances():
    # exact agreement with the naive bounding-box enumeration
    rnd = random.Random(2024)
    forms = [SQUARE_FORM, HEX_FORM, MIXED_FORM]
    for trial in range(200):
        form = rnd.choice(forms)
        den = rnd.randint(1, 12)
        center = (F(rnd.randint(-24, 24), den), F(rnd.randint(-24, 24), den))
        r2 = F(rnd.randint(0, 4800), 12)
        r1 = r2 * F(rnd.randint(0, 12), 12)
        bnd = rnd.choice([CLOSED_CLOSED, CLOSED_OPEN])
        spec = AnnulusSpec(center, r1, r2, bnd)
        assert count_points(form, spec) == count_points_naive(form, spec), spec


def test_thin_annulus_against_naive():
    # widths far below 1 around radius ~30: float boundaries would misfire here
    for n in (8, 16, 30):
        r1 = F(n * n)
        spec = AnnulusSpec((F(5, 7), F(3, 11)), r1, r1 + annulus_width(n, 0.68))
        assert count_points(HEX_FORM, spec) == count_points_naive(HEX_FORM, spec)


def test_float_rows_match_naive_on_boundary_cases():
    # centers and radii where row endpoints land exactly on integers, plus
    # annuli far thinner than any float margin, in both boundary modes
    rnd = random.Random(4099)
    centers = [c for _, c in adversarial_centers()]
    widths = [F(0), F(1, 2), F(1), F(3, 2), F(7), F(1, 10**7), F(3, 10**9)]
    for trial in range(400):
        form = rnd.choice([SQUARE_FORM, HEX_FORM, MIXED_FORM])
        cx, cy = rnd.choice(centers)
        far = 10 ** rnd.randint(0, 9)  # far centers: the row midpoint rounds
        center = (cx + rnd.randint(-far, far), cy + rnd.randint(-far, far))
        r1 = F(rnd.randint(0, 600), rnd.choice([1, 2]))
        r2 = r1 + rnd.choice(widths)
        if rnd.random() < 0.3:  # thin shell just below an exact value
            r1, r2 = max(r1 - F(1, 10**7), F(0)), r1
        spec = AnnulusSpec(center, r1, r2, rnd.choice([CLOSED_CLOSED, CLOSED_OPEN]))
        assert count_points(form, spec) == count_points_naive(form, spec), (form, spec)


def test_rounded_radicand_on_boundary_rows():
    # Q = x^2 + C y^2 with C ~ 1e15: on row y the radicand 4(r^2 - C y^2) is
    # the difference of two rounded ~1e16 floats, off by 4 from 4 x0^2, which
    # moves the endpoint x0 of the boundary point (x0, y) by ~1e-6
    for c, y, x0 in (
        (1459910838950901, 5, 656117),
        (1156617091325865, 4, 577541),
        (1954515471999694, 4, 495715),
    ):
        form = QuadraticForm2(F(1), F(0), F(c))
        r2 = F(c * y * y + x0 * x0)
        for r1 in (r2, r2 - 1):
            for bnd in (CLOSED_CLOSED, CLOSED_OPEN):
                spec = AnnulusSpec((0, 0), r1, r2, bnd)
                assert count_points(form, spec) == count_points_rowloop(form, spec), spec


def test_boundary_rows_take_the_exact_fallback(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _count_row_le(*args)

    monkeypatch.setattr(lattice, "_count_row_le", counting)
    # square values 25 on the circle: (5,0), (3,4), (4,3) and their signs
    closed = count_points(SQUARE_FORM, AnnulusSpec((0, 0), F(25), F(25)))
    assert closed == 12
    assert 0 < len(calls) < 13  # some of the 13 rows, not all of them
    assert count_points(SQUARE_FORM, AnnulusSpec((0, 0), F(25), F(25), CLOSED_OPEN)) == 0
    # closed-open, outer bound 1e-30 above 25: float64 sees 25 on both sides
    calls.clear()
    thin = AnnulusSpec((0, 0), F(25), F(25) + F(1, 10**30), CLOSED_OPEN)
    assert count_points(SQUARE_FORM, thin) == 12
    assert calls


def test_huge_denominator_takes_exact_rows(monkeypatch):
    # d ~ 2^61: the scaled integers no longer fit float64, the box stays small
    def refuse(*args):
        raise AssertionError("float64 rows used beyond 2^53")

    monkeypatch.setattr(lattice, "_float_rows", refuse)
    den = 2**61 - 1
    for center in ((F(den // 3, den), F(den // 7, den)), (F(1, 3) + F(1, den), F(1, 3))):
        for form in (HEX_FORM, MIXED_FORM):
            for r1, r2 in ((F(0), F(50)), (F(1, 3), F(1, 3)), (F(17), F(17) + F(1, den))):
                for bnd in (CLOSED_CLOSED, CLOSED_OPEN):
                    spec = AnnulusSpec(center, r1, r2, bnd)
                    assert count_points(form, spec) == count_points_naive(form, spec), spec


def test_scan_battery_matches_rowloop_at_large_n():
    # the hypothesis-scan battery (5 adversarial + 3 random centers) at sizes
    # where the naive box is out of reach
    for n in (2**14, 2**16):
        records, _ = scan_hypothesis_h(0.68, [n], k_random=3, seed=0)
        assert len(records) == 8
        r1 = F(n * n)
        r2 = r1 + annulus_width(n, 0.68)
        for rec in records:
            spec = AnnulusSpec(rec.center, r1, r2, CLOSED_CLOSED)
            assert rec.count == count_points_rowloop(HEX_FORM, spec), rec


def test_monotonicity_and_additivity():
    rnd = random.Random(7)
    for _ in range(40):
        c = (F(rnd.randint(0, 11), 12), F(rnd.randint(0, 11), 12))
        r1 = F(rnd.randint(0, 200), 3)
        r2 = r1 + F(rnd.randint(0, 60), 7)
        r3 = r2 + F(rnd.randint(0, 60), 7)
        inner = count_points(HEX_FORM, AnnulusSpec(c, r1, r2, CLOSED_OPEN))
        outer = count_points(HEX_FORM, AnnulusSpec(c, r2, r3))
        full = count_points(HEX_FORM, AnnulusSpec(c, r1, r3))
        assert inner + outer == full
        assert count_points(HEX_FORM, AnnulusSpec(c, r1, r3)) >= count_points(
            HEX_FORM, AnnulusSpec(c, r1, r2)
        )
        assert count_points(HEX_FORM, AnnulusSpec(c, r2, r3)) <= full


def test_translation_invariance():
    rnd = random.Random(11)
    for _ in range(25):
        c = (F(rnd.randint(-6, 6), 5), F(rnd.randint(-6, 6), 5))
        shift = (rnd.randint(-9, 9), rnd.randint(-9, 9))
        c2 = (c[0] + shift[0], c[1] + shift[1])
        r1 = F(rnd.randint(0, 120), 4)
        r2 = r1 + F(rnd.randint(0, 50), 6)
        for form in (HEX_FORM, MIXED_FORM):
            a = count_points(form, AnnulusSpec(c, r1, r2))
            b = count_points(form, AnnulusSpec(c2, r1, r2))
            assert a == b


def test_wider_annulus_subdivision_bound():
    # a width-N^a' annulus is covered by ceil(N^(a'-a))+1 width-N^a pieces,
    # so its count is at most that multiple of the narrow-annulus sup
    alpha, alpha2 = 0.6, 1.1
    for n in (8, 16, 32):
        w = annulus_width(n, alpha)
        w2 = annulus_width(n, alpha2)
        m = math.ceil(float(n) ** (alpha2 - alpha))
        assert m * w >= w2 or (m + 1) * w >= w2
        r1 = F(n * n)
        c = (F(1, 3), F(1, 3))
        full = count_points(HEX_FORM, AnnulusSpec(c, r1, r1 + w2))
        pieces = []
        lo = r1
        for j in range(m + 1):
            hi = min(r1 + (j + 1) * w, r1 + w2)
            mode = CLOSED_CLOSED if hi == r1 + w2 else CLOSED_OPEN
            pieces.append(count_points(HEX_FORM, AnnulusSpec(c, lo, hi, mode)))
            if hi == r1 + w2:
                break
            lo = hi
        assert sum(pieces) == full
        assert full <= (m + 1) * max(pieces)


def test_scan_example_alpha_one():
    records, sups = scan_hypothesis_h(1.0, [4], k_random=0, seed=0)
    origin = [r for r in records if r.center_id == "origin"]
    assert len(origin) == 1
    assert origin[0].count == 18
    assert origin[0].normalized == pytest.approx(4.5, rel=1e-9)
    assert sups[4] >= 4.5


def test_scan_validation_and_determinism():
    with pytest.raises(ValueError):
        scan_hypothesis_h(0.5, [])
    with pytest.raises(ValueError):
        scan_hypothesis_h(2.5, [4])
    r1, s1 = scan_hypothesis_h(0.68, [16, 32], k_random=4, seed=9)
    r2, s2 = scan_hypothesis_h(0.68, [16, 32], k_random=4, seed=9)
    assert s1 == s2
    assert [(r.center_id, r.count) for r in r1] == [(r.center_id, r.count) for r in r2]
    # same centers across N
    ids = [r.center_id for r in r1]
    assert ids[: len(ids) // 2] == ids[len(ids) // 2 :]


def test_random_centers_in_fundamental_cell():
    for _, (cx, cy) in random_centers(32, seed=3):
        assert 0 <= cx < 1 and 0 <= cy < 1


def test_empty_annulus_possible():
    # at radius^2=256 the hex form's next value upward is 259; width 2 sees nothing
    spec = AnnulusSpec((0, 0), F(257), F(258))
    assert count_points(HEX_FORM, spec) == 0
