"""Truncated quintic Schrodinger flow and energy bookkeeping along it.

The flow is the Hamiltonian restriction of i u_t + u_xx = sign*|u|^4 u to a
fixed finite mode set: the quintic term is computed exactly and projected
back onto the support.  The support's modes sit at positions (S - S[0]) /
gcd(S - S[0]) of a compressed grid of length L, which keeps every signed
5-sum of modes that lands in S.  |u|^4 u is evaluated pointwise at M = 3L - 2
equispaced points, enough that no signed 5-sum aliases onto a position:
one fixed matrix E takes the coefficients to the points and one fixed
matrix F takes |v|^4 v back to the support, with the 1/lam^4 folded in.
Both are built once per support, and the stepper and the flux check share
them through one kernel, so there is one quintic.  Time stepping is RK4 in
the interaction picture (the linear phase is applied exactly), with
automatic step halving until the mass drift meets tolerance; the four
stages of a step run in the frame of the step start, and the phases of the
step starts of each block of steps are one table.

The fundamental-theorem check integrates the two flow terms of the second
modified energy and compares against the endpoint difference of the first.
One arity-6 symbols._FrozenLambda table, built once for the fixed support,
holds the three hyperplane symbols of the identity and E1's sigma6 as rows
of values, so the support's zero-sum 6-tuples are enumerated once per run;
E1 at all samples is checked against that sigma6 row.  The ten-linear term
takes no arity-10 table: its five collapsed slots sum to the projected
quintic Q, so Lambda10(m10; u) = sum_{j=0..5} (-1)^j Lambda6(sigma6 +
mu*sigma6tilde; Q in slot j, u elsewhere), and supports above
GAMMA_MODE_CAPS[6] modes are refused by check_flux_cap before any flow is
integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceededError, IntegrationError
from .fourier import FourierState
from .symbols import (
    GAMMA_MODE_CAPS,
    MultiplierParams,
    _FrozenLambda,
    _energy_e1i,
    _real_part,
    _symbol_batch,
    homogeneous_h1_sq,
    l6_now,
)


# ---------------------------------------------------------------------------
# flow


#: RK4 steps per phase table, so the tables stay O(block x modes) in memory.
_PHASE_BLOCK = 1 << 8

#: Most evaluation points M = 3L - 2 of a support's quintic; bounds the
#: n x M evaluation matrices, which a sparse support with a long compressed
#: grid would otherwise size without limit.
QUINTIC_POINTS_CAP = 1 << 16


def _grid(S: np.ndarray) -> tuple[np.ndarray, int]:
    """Positions of the support on its compressed grid, and the grid length.

    With g = gcd(S - S[0]) (1 for a single mode), mode S[0] + g*x sits at x.
    A signed 5-sum j1 - j2 + j3 - j4 + j5 of modes is S[0] + g*(x1 - x2 + x3
    - x4 + x5), so it is a mode of S exactly when the same signed sum of
    positions is a position of S: the projected quintic keeps the same terms.
    """
    base = int(S[0])
    g = int(np.gcd.reduce(S - base)) or 1
    pos = (S - base) // g
    return pos, int(pos[-1]) + 1


def _eval_matrices(S: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation matrices E (n x M) and F (M x n) of the quintic on S.

    With positions pos and length L from ``_grid``, M = 3L - 2 equispaced
    points theta_m = 2*pi*m/M, E[j, m] = exp(i pos_j theta_m) and F[m, k] =
    exp(-i theta_m pos_k) / (M lam^4).  A signed 5-sum of positions lies in
    [-2(L-1), 3(L-1)], so it differs from a position by less than M and
    F projects |v|^4 v exactly onto S (with the quintic's 1/lam^4) as long as
    M >= 3L - 2; no sum aliases onto a position.  The phases are reduced
    mod M in integers before the exponential.  M above QUINTIC_POINTS_CAP
    raises CapExceededError before anything is allocated.
    """
    pos, L = _grid(S)
    M = 3 * L - 2
    if M > QUINTIC_POINTS_CAP:
        raise CapExceededError(
            f"quintic on {M} evaluation points exceeds the cap {QUINTIC_POINTS_CAP}"
        )
    E = np.exp((2j * np.pi / M) * (np.multiply.outer(pos, np.arange(M)) % M))
    F = np.ascontiguousarray(E.conj().T) / (M * lam**4)
    return E, F


def _quintic_points(b: np.ndarray, E: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|v|^4 v at the evaluation points of v = b @ E, written into out.

    Products here and in the stepper use np.dot, which costs less per call
    than @ at these sizes.
    """
    v = np.dot(b, E)
    m = np.abs(v)
    m *= m
    m *= m
    return np.multiply(v, m, out=out)


def _quintic(uhat: np.ndarray, E: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Projected coefficient array of |u|^4 u on a support, through its
    evaluation matrices E, F from ``_eval_matrices``."""
    return np.dot(_quintic_points(uhat, E, np.empty(E.shape[1], dtype=np.complex128)), F)


@dataclass(frozen=True)
class Trajectory:
    """Equally spaced samples of a truncated flow.

    ``uhats[i]`` holds the coefficients on ``support`` at ``times[i]``; the
    stepper is classical RK4 in the interaction picture.  ``rk4_steps``
    counts the steps of every attempt, ``halvings`` the step halvings before
    the accepted one and ``quintic_points`` the evaluation points M of the
    support's quintic (see ``_eval_matrices``).
    """

    lam: float
    support: np.ndarray
    times: np.ndarray
    uhats: np.ndarray
    dt: float
    sign: int
    mass_drift: float
    rk4_steps: int
    halvings: int
    quintic_points: int

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def state(self, i: int) -> FourierState:
        return FourierState(
            self.lam, self.support, self.uhats[i] / math.sqrt(self.lam)
        )


def integrate_galerkin(
    state: FourierState,
    T: float,
    dt: Optional[float] = None,
    *,
    sign: int = +1,
    n_samples: Optional[int] = None,
    mass_tol: float = 1e-8,
    max_halvings: int = 6,
) -> Trajectory:
    """Integrate the truncated flow over [0, T].

    ``sign`` +1 is defocusing, -1 focusing, 0 drops the nonlinearity (free
    flow).  ``n_samples`` (default 21) must be odd and at least 3, so that
    Simpson's rule applies downstream.  The step is halved until the relative
    mass drift across samples is at most ``mass_tol``; persistent failure
    raises IntegrationError.

    The interaction-picture variable a = exp(i k^2 t) * uhat keeps its
    absolute phase.  Per sample interval, in blocks of at most
    ``_PHASE_BLOCK`` steps, the step times come from one running sum (bit for
    bit the sequential t += h) and the phases exp(i k^2 t) at the step starts
    from one array pass.  Each step runs its four stages in the frame of its
    start, b = exp(-i k^2 t) * a, where the stage arguments need only the
    constant factors P = exp(-i k^2 h/2) and P^2; each stage is one
    ``_quintic_points`` through the matrices of ``_eval_matrices``.  With r_s
    the projected quintic of stage s, the arguments are b, b P + c P r_1,
    b P + c r_2 and b P^2 + 2 c P r_3 with c = -i*sign*h/2, and the update
    is a + exp(i k^2 (t + h)) * (W @ K): W holds the four stages' point
    values and K (4M x n) stacks F times -i*sign*h/6 * (P^2, 2P, 2P, 1).
    Those factors depend on h alone, so they are built once per attempt,
    folded into F.
    """
    if state.n_modes == 0:
        raise ValueError("empty support")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if sign not in (-1, 0, 1):
        raise ValueError("sign must be -1, 0, or +1")
    S = state.indices
    lam = state.lam
    uhat0 = state.uhat_array()
    E, F = _eval_matrices(S, lam)
    M = E.shape[1]
    if T == 0:
        return Trajectory(
            lam=lam,
            support=S,
            times=np.zeros(1),
            uhats=uhat0[None, :].copy(),
            dt=0.0,
            sign=sign,
            mass_drift=0.0,
            rk4_steps=0,
            halvings=0,
            quintic_points=M,
        )
    if n_samples is None:
        n_samples = 21
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("need an odd count of at least 3 samples over a positive window")
    if dt is None:
        dt = T / 80.0
    if dt <= 0:
        raise ValueError("dt must be positive")

    k2 = (S / lam).astype(np.float64) ** 2
    ik2 = 1j * k2
    cmu = -1j * float(sign)

    def run(step: float):
        times = np.linspace(0.0, T, n_samples)
        out = np.empty((n_samples, len(S)), dtype=np.complex128)
        out[0] = uhat0
        delta = times[1] - times[0]
        nsub = max(1, math.ceil(delta / step - 1e-12))
        h = delta / nsub
        half = np.exp(-0.5 * h * ik2)  # P
        full = half * half  # P^2
        c = cmu * h / 2
        g2, g3, g4 = F * (c * half), F * c, F * (2 * c * half)
        K = np.concatenate([F * (c / 3 * x) for x in (full, 2 * half, 2 * half, 1.0)])
        W = np.empty((4, M), dtype=np.complex128)  # the stages' point values
        w1, w2, w3, w4 = W
        w = W.reshape(-1)
        a = uhat0.astype(np.complex128)  # interaction-picture variable
        t = 0.0
        for i in range(1, n_samples):
            for start in range(0, nsub, _PHASE_BLOCK):
                m = min(_PHASE_BLOCK, nsub - start)
                ts = np.full(m + 1, h)
                ts[0] = t
                ts = np.add.accumulate(ts)  # bit for bit the running t += h
                fwd = np.exp(np.multiply.outer(ts, ik2))
                back = np.conj(fwd)
                for n in range(m):
                    b = a * back[n]
                    bh = b * half
                    _quintic_points(b, E, w1)
                    _quintic_points(bh + np.dot(w1, g2), E, w2)
                    _quintic_points(bh + np.dot(w2, g3), E, w3)
                    _quintic_points(b * full + np.dot(w3, g4), E, w4)
                    a = a + fwd[n + 1] * np.dot(w, K)
                t = ts[-1]
            out[i] = a * np.exp(-1j * k2 * t)
        return times, out, h, (n_samples - 1) * nsub

    mass0 = float(np.sum(np.abs(uhat0) ** 2))
    step = float(dt)
    rk4_steps = 0
    for halvings in range(max_halvings + 1):
        times, uhats, h_used, steps = run(step)
        rk4_steps += steps
        masses = np.sum(np.abs(uhats) ** 2, axis=1)
        drift = float(np.max(np.abs(masses - mass0)) / mass0)
        if drift <= mass_tol:
            return Trajectory(
                lam=lam,
                support=S,
                times=times,
                uhats=uhats,
                dt=h_used,
                sign=sign,
                mass_drift=drift,
                rk4_steps=rk4_steps,
                halvings=halvings,
                quintic_points=M,
            )
        step /= 2.0
    raise IntegrationError(
        f"mass drift {drift:.3e} above {mass_tol:g} after {max_halvings} halvings",
        drift=drift,
        dt=step,
    )


def hamiltonian_energy(state: FourierState, sign: int = +1) -> float:
    """Conserved energy of the truncation: (1/2)||u_x||^2 ± (1/6)||u||_L6^6."""
    return 0.5 * homogeneous_h1_sq(state) + sign * l6_now(state) / 6.0


def energy_drift(traj: Trajectory) -> float:
    """Worst Hamiltonian-energy drift across the trajectory samples, relative
    to max(1, |E(0)|)."""
    vals = np.array(
        [hamiltonian_energy(traj.state(i), traj.sign) for i in range(traj.n_samples)]
    )
    return float(np.max(np.abs(vals - vals[0]))) / max(1.0, abs(float(vals[0])))


# ---------------------------------------------------------------------------
# flow-identity ingredients


def check_flux_cap(n_modes: int) -> None:
    """Refuse a support whose arity-6 tables would exceed the mode cap."""
    if n_modes > GAMMA_MODE_CAPS[6]:
        raise CapExceededError(
            f"support with {n_modes} modes exceeds the arity-6 cap {GAMMA_MODE_CAPS[6]}"
        )


def _flux_table(S: np.ndarray, lam: float, p: MultiplierParams, sign: int) -> _FrozenLambda:
    """Arity-6 table over S with rows of values sigma6tilde (endpoint
    correction), M6bar (resonant term), sigma6 + mu*sigma6tilde (ten-linear)
    and sigma6 (E1's Lambda_6), read off one symbol pass over the tuples;
    row 3 sums bit for bit as E1's own sigma6 table."""

    def symbol(js: np.ndarray, ilam: int) -> np.ndarray:
        tilde, bar, sigma6 = _symbol_batch(("sigma6tilde", "M6bar", "sigma6"), js, ilam, p, sign=sign)
        return np.stack([tilde, bar, sigma6 + sign * tilde, sigma6])

    return _FrozenLambda(symbol, [S] * 6, lam)


def _flux_sums(table: _FrozenLambda, uhat: np.ndarray, E: np.ndarray, F: np.ndarray):
    """(sum, summed term magnitudes) of the three flux functionals at u on
    the table's support, whose evaluation matrices are E, F; the ten-linear
    one substitutes Q = _quintic(u) into each slot j of the third row alone
    with sign (-1)^j, and odd slots supply conj(Q)."""
    tilde, bar = table.row(slice(0, 2))([uhat] * 6)
    ten = table.row(2)
    q = _quintic(uhat, E, F)
    z, mass = 0j, 0.0
    for j in range(6):
        zj, mj = ten([q if i == j else uhat for i in range(6)])
        z += zj if j % 2 == 0 else -zj
        mass += mj
    return tilde, bar, (z, mass)


def _simpson(values: np.ndarray, h: float) -> float:
    n = len(values)
    if n == 1:
        return 0.0
    if n % 2 == 0 or n < 3:
        raise ValueError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


# ---------------------------------------------------------------------------
# fundamental-theorem check


@dataclass(frozen=True)
class FtcReport:
    """Endpoint-vs-integrated bookkeeping for the second modified energy, with
    the first modified energy ``e1`` at each trajectory sample."""

    residual: float
    relative: float
    e1: tuple[float, ...]
    correction_initial: float
    correction_final: float
    resonant_integral: float
    tenlinear_integral: float
    n_samples: int
    mass_drift: float


def ftc_residual(traj: Trajectory, p: MultiplierParams) -> FtcReport:
    """Residual of the integrated flow identity for the modified energy.

    Computes E1(t) - E1(0) + mu*[Lambda6(sigma6tilde)] at the endpoints minus
    the time integral of the two flow terms (resonant six-linear plus gated
    ten-linear), Simpson-integrated on the trajectory's own samples.  The
    three arity-6 functionals and E1's sigma6 are rows of one _flux_table,
    and E1 at every sample is checked against its sigma6 row as energy_e1i
    checks against its own table; a support above GAMMA_MODE_CAPS[6] modes
    raises CapExceededError.  A trivial trajectory (T=0) yields an exact
    zero.
    """
    if traj.sign == 0:
        raise ValueError("flow identity concerns the nonlinear flow; sign is 0")
    check_flux_cap(len(traj.support))
    mu = float(traj.sign)
    S, lam = traj.support, traj.lam

    table = _flux_table(S, lam, p, traj.sign)
    e1 = _energy_e1i([traj.state(i) for i in range(traj.n_samples)], p, traj.sign, table.row(3))
    E, F = _eval_matrices(S, lam)
    sums = [_flux_sums(table, u, E, F) for u in traj.uhats]
    corr_0 = _real_part(*sums[0][0], "endpoint correction")
    corr_t = _real_part(*sums[-1][0], "endpoint correction")
    g_bar = [_real_part(1j * mu * zb, mb, "resonant flow term") for _, (zb, mb), _ in sums]
    g_ten = [_real_part(-1j * mu * zt, mt, "ten-linear flow term") for *_, (zt, mt) in sums]
    h = float(traj.times[1] - traj.times[0]) if traj.n_samples > 1 else 0.0
    integral_bar = _simpson(np.array(g_bar), h)
    integral_ten = _simpson(np.array(g_ten), h)

    residual = (e1[-1] - e1[0]) + mu * (corr_t - corr_0) - integral_bar - integral_ten
    scale = max(
        abs(e1[0]), abs(e1[-1]), abs(corr_0), abs(corr_t),
        abs(integral_bar), abs(integral_ten), 1e-300,
    )
    return FtcReport(
        residual=float(residual),
        relative=float(abs(residual) / scale),
        e1=tuple(e1),
        correction_initial=corr_0,
        correction_final=corr_t,
        resonant_integral=integral_bar,
        tenlinear_integral=integral_ten,
        n_samples=traj.n_samples,
        mass_drift=traj.mass_drift,
    )
