import math

import numpy as np
import pytest

from nlslab.fourier import FourierState, evolve_linear, rescale


def test_from_uhat_round_trip():
    coeffs = {0: 1.0 + 0j, 3: 2.0 - 1.0j, -5: 0.25j}
    s = FourierState.from_uhat(2.0, coeffs)
    assert s.uhat() == pytest.approx(coeffs)
    assert s.n_modes == 3
    assert s.cutoff == 5 / 2.0
    assert set(s.coeffs()) == {0.0, 1.5, -2.5}


def test_validation_and_zero_pruning():
    with pytest.raises(ValueError):
        FourierState(0.0, np.array([1]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        FourierState(1.0, np.array([1, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FourierState(1.0, np.array([1, 2]), np.array([1.0]))
    s = FourierState(1.0, np.array([4, -2, 7]), np.array([0.0, 1.0, 0.0], dtype=complex))
    assert list(s.indices) == [-2]
    assert s.cutoff == 2.0
    empty = FourierState(1.0, np.array([], dtype=int), np.array([], dtype=complex))
    assert empty.cutoff == 0.0 and empty.l2_norm_sq == 0.0


def test_norms():
    s = FourierState.from_uhat(1.0, {0: 1.0, 1: 1.0})
    assert s.l2_norm_sq == pytest.approx(4 * math.pi, rel=1e-15)
    assert s.coeff_norm_sq == pytest.approx(2.0, rel=1e-15)
    # lam != 1: (1/lam) sum |uhat|^2
    s3 = FourierState.from_uhat(3.0, {0: 1.0, 1: 1.0})
    assert s3.coeff_norm_sq == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s3.l2_norm_sq == pytest.approx(2 * math.pi * 2.0 / 3.0, rel=1e-15)
    mode = FourierState.from_uhat(2.0, {4: 1.0 + 1.0j})
    k = 4 / 2.0
    assert mode.sobolev_norm_sq(1.0) == pytest.approx((1 + k * k) * 2.0 / 2.0)


def test_rescale_is_exact():
    s = FourierState.from_uhat(1.0, {-3: 1.0 + 2.0j, 2: -0.5})
    assert rescale(s, 1.0) is not None
    r = rescale(s, 2.0)
    assert r.lam == 2.0
    # frequencies k/nu, amplitudes sqrt(nu)*uhat
    assert np.allclose(r.frequencies, s.frequencies / 2.0)
    assert np.allclose(r.uhat_array(), math.sqrt(2.0) * s.uhat_array())
    # norm carried bit-exactly, group law bit-exact
    assert r.coeff_norm_sq == s.coeff_norm_sq
    back = rescale(r, 0.5)
    assert back.lam == s.lam
    assert np.array_equal(back.amps, s.amps)
    with pytest.raises(ValueError):
        rescale(s, 0.0)


def test_evolve_linear_identity_and_unitarity():
    s = FourierState.from_uhat(1.0, {-9: 1 + 1j, 0: 2.0, 13: -0.5j})
    assert evolve_linear(s, 0.0) is s
    for t in (0.37, 5.5, -12.0):
        e = evolve_linear(s, t)
        assert np.array_equal(e.indices, s.indices)
        assert np.allclose(np.abs(e.amps), np.abs(s.amps), rtol=1e-14)
        assert e.l2_norm_sq == pytest.approx(s.l2_norm_sq, rel=1e-13)


def test_evolve_linear_period_is_exact():
    s = FourierState.from_uhat(1.0, {-101: 1 + 1j, 7: 2.0, 40: -0.5j})
    e = evolve_linear(s, 2 * math.pi)
    assert np.array_equal(e.amps, s.amps)
    e2 = evolve_linear(s, -6 * math.pi)
    assert np.array_equal(e2.amps, s.amps)


def test_evolve_linear_phase_values():
    s = FourierState.from_uhat(2.0, {3: 1.0, -4: 1.0j})
    t = 0.21
    e = evolve_linear(s, t)
    want = s.amps * np.exp(-1j * (s.indices / 2.0) ** 2 * t)
    assert np.allclose(e.amps, want, rtol=1e-12)

