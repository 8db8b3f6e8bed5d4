import math
import random
from fractions import Fraction as F

import pytest

from nlslab.lattice import (
    CLOSED_CLOSED,
    CLOSED_OPEN,
    DEEP_HOLE_OFFSETS,
    HEX_FORM,
    SQUARE_FORM,
    AnnulusSpec,
    QuadraticForm2,
    annulus_width,
    count_points,
    count_points_naive,
    gauss_error,
    random_centers,
    scan_hypothesis_h,
)

MIXED_FORM = QuadraticForm2(F(2), F(1), F(3))


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
