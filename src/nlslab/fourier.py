"""Finitely supported Fourier data on a rescaled torus.

A state lives on the circle of circumference 2*pi*lam and is stored through
integer mode indices j with physical frequencies k = j/lam:

    u(x) = (1/lam) * sum_j uhat_j * exp(i j x / lam).

Internally the amplitudes are kept in the orthonormal frame c_j =
uhat_j/sqrt(lam), so the coefficient norm sum |c|^2 = (1/lam) sum |uhat|^2 is
carried across rescalings without touching a single bit: rescaling only
multiplies `lam` and reinterprets the indices.  The physical L^2 norm is
2*pi times the coefficient norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

_TAU = math.tau


@dataclass(frozen=True)
class FourierState:
    """Coefficients on (1/lam)Z, finitely supported.

    `amps[i]` is the orthonormal-frame amplitude c_j for j = indices[i]; use
    `from_uhat` / `uhat` to convert from/to the transform normalization
    uhat(k) = integral of exp(-ikx) u(x) over the 2*pi*lam circle's dual
    convention (uhat = c * sqrt(lam)).
    """

    lam: float
    indices: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        idx = np.asarray(self.indices, dtype=np.int64)
        amp = np.asarray(self.amps, dtype=np.complex128)
        if idx.shape != amp.shape or idx.ndim != 1:
            raise ValueError("indices and amps must be matching 1-d arrays")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("duplicate mode indices")
        keep = amp != 0
        idx, amp = idx[keep], amp[keep]
        order = np.argsort(idx)
        object.__setattr__(self, "indices", idx[order])
        object.__setattr__(self, "amps", amp[order])
        self.indices.setflags(write=False)
        self.amps.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_uhat(cls, lam: float, coeffs: Mapping[int, complex]) -> "FourierState":
        js = np.array(sorted(coeffs), dtype=np.int64)
        uh = np.array([coeffs[int(j)] for j in js], dtype=np.complex128)
        return cls(lam, js, uh / math.sqrt(lam))

    # -- views -------------------------------------------------------------

    @property
    def n_modes(self) -> int:
        return len(self.indices)

    @property
    def frequencies(self) -> np.ndarray:
        """Physical frequencies k = j/lam."""
        return self.indices / self.lam

    @property
    def cutoff(self) -> float:
        """Largest |k| carrying a nonzero amplitude (0 for the zero state)."""
        if self.n_modes == 0:
            return 0.0
        return float(np.max(np.abs(self.indices)) / self.lam)

    def uhat_array(self) -> np.ndarray:
        return self.amps * math.sqrt(self.lam)

    def uhat(self) -> dict[int, complex]:
        return {int(j): complex(u) for j, u in zip(self.indices, self.uhat_array())}

    def coeffs(self) -> dict[float, complex]:
        """Map physical frequency -> uhat amplitude."""
        return {float(k): complex(u) for k, u in zip(self.frequencies, self.uhat_array())}

    # -- norms -------------------------------------------------------------

    @property
    def coeff_norm_sq(self) -> float:
        """(1/lam) sum |uhat|^2, exactly invariant under rescale."""
        return float(np.sum(np.abs(self.amps) ** 2))

    @property
    def l2_norm_sq(self) -> float:
        """The integral of |u|^2 over the circle: 2*pi*(1/lam)*sum|uhat|^2."""
        return _TAU * self.coeff_norm_sq

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq)

    def sobolev_norm_sq(self, s: float) -> float:
        """sum (1+k^2)^s |c_j|^2 (coefficient-frame Sobolev weight)."""
        k = self.frequencies
        return float(np.sum((1.0 + k * k) ** s * np.abs(self.amps) ** 2))


def rescale(state: FourierState, nu: float) -> FourierState:
    """The scaling u(x) -> nu^{-1/2} u(x/nu) on coefficients.

    New torus scale nu*lam, frequencies k/nu, uhat multiplied by sqrt(nu);
    realized without touching stored amplitudes, so norms are preserved
    bit-for-bit and rescale(2) then rescale(1/2) is the exact identity.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    return FourierState(state.lam * nu, state.indices, state.amps)


def evolve_linear(state: FourierState, t: float) -> FourierState:
    """Free propagator: multiply each amplitude by exp(-i k^2 t).

    Phases are reduced modulo 2*pi before exponentiation (t first, then each
    j^2 * t), so t equal to a float multiple of 2*pi at lam=1 reproduces the
    input amplitudes exactly.
    """
    if state.n_modes == 0 or t == 0:
        return state
    teff = t / (state.lam * state.lam)
    tr = math.remainder(teff, _TAU)  # exact IEEE remainder
    if tr == 0.0:
        return state
    theta = state.indices.astype(np.float64) ** 2 * tr
    theta -= np.round(theta / _TAU) * _TAU
    return FourierState(state.lam, state.indices, state.amps * np.exp(-1j * theta))
