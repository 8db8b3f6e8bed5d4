"""Tests for the truncated quintic flow and the modified-energy flow identity."""

import itertools
import math

import numpy as np
import pytest

from nlslab.errors import CapExceededError, IntegrationError
from nlslab.fourier import FourierState, evolve_linear
from nlslab import galerkin
from nlslab.galerkin import (
    FtcReport,
    Trajectory,
    _flux_sums,
    _flux_table,
    _quintic,
    _simpson,
    energy_drift,
    ftc_residual,
    hamiltonian_energy,
    integrate_galerkin,
)
from nlslab.rng import stream
from nlslab.symbols import (
    MultiplierParams,
    _FrozenLambda,
    _symbol_batch,
    energy_e1i,
    lambda_n_evaluate,
    symbol_fn,
)

P4 = MultiplierParams(4, 0.5)
P2 = MultiplierParams(2, 0.5)


def seeded_state(key, lam, support):
    rng = stream(9, key)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return FourierState.from_uhat(float(lam), dict(zip(support, amps)))


ACCEPT = seeded_state(0, 4.0, (0, 4, 8, 20))
ACTIVE = seeded_state(5, 1.0, (-4, -3, 3, 4))

QUINTIC_SUPPORTS = [
    (0, 4, 8, 20),
    (-9, -6, 0, 12),  # gcd 3 from a negative first mode
    (5,),  # one mode: gcd.reduce gives 0, the grid step is 1
    (-6, -1, 0, 4),
    (-30, -26, -20, -19, -17, -12, -9, 0, 18, 20, 25, 32),
    (0, 1, 60),  # sparse and wide: 3 modes on a grid of 61
]


def reference_quintic(uhat, S, lam):
    """Projected |u|^4 u by four convolutions on the uncompressed grid
    S[0]..S[-1], the stepper's former quintic."""
    jmin = int(S[0])
    L = int(S[-1]) - jmin + 1
    dense = np.zeros(L, dtype=np.complex128)
    dense[S - jmin] = uhat
    flip = np.conj(dense)[::-1]
    off_f = -(jmin + L - 1)
    c, o = np.convolve(dense, flip), jmin + off_f
    c, o = np.convolve(c, dense), o + jmin
    c, o = np.convolve(c, flip), o + off_f
    c, o = np.convolve(c, dense), o + jmin
    return c[S - o] / lam**4


def brute_quintic(uhat, S, lam):
    """Projected |u|^4 u term by term: every 5-tuple of modes whose signed sum
    j1 - j2 + j3 - j4 + j5 is a mode of S."""
    idx = np.indices((len(S),) * 5).reshape(5, -1)
    k = S[idx[0]] - S[idx[1]] + S[idx[2]] - S[idx[3]] + S[idx[4]]
    c, cc = uhat, np.conj(uhat)
    w = c[idx[0]] * cc[idx[1]] * c[idx[2]] * cc[idx[3]] * c[idx[4]]
    return np.array([w[k == j].sum() for j in S]) / lam**4


def reference_integrate(state, T, dt, sign, n_samples, mass_tol=1e-8, max_halvings=6):
    """The stepper's former loop: the phase recomputed at every RK4 stage and
    reference_quintic.  Returns (times, uhats, dt, halvings, steps) with steps
    summed over every attempt; n_samples must be odd."""
    S, lam, uhat0 = state.indices, state.lam, state.uhat_array()
    k2 = (S / lam).astype(np.float64) ** 2
    mu = float(sign)

    def f(tt, aa):
        ph = np.exp(1j * k2 * tt)
        return -1j * mu * ph * reference_quintic(aa * np.conj(ph), S, lam)

    def run(step):
        times = np.linspace(0.0, T, n_samples)
        out = np.empty((n_samples, len(S)), dtype=np.complex128)
        out[0] = uhat0
        delta = times[1] - times[0]
        nsub = max(1, math.ceil(delta / step - 1e-12))
        h = delta / nsub
        a = uhat0.astype(np.complex128).copy()
        t = 0.0
        for i in range(1, n_samples):
            for _ in range(nsub):
                f1 = f(t, a)
                f2 = f(t + h / 2, a + h / 2 * f1)
                f3 = f(t + h / 2, a + h / 2 * f2)
                f4 = f(t + h, a + h * f3)
                a = a + h / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
                t += h
            out[i] = a * np.exp(-1j * k2 * t)
        return times, out, h, (n_samples - 1) * nsub

    mass0 = float(np.sum(np.abs(uhat0) ** 2))
    step, steps = float(dt), 0
    for halvings in range(max_halvings + 1):
        times, uhats, h, n = run(step)
        steps += n
        masses = np.sum(np.abs(uhats) ** 2, axis=1)
        if np.max(np.abs(masses - mass0)) / mass0 <= mass_tol:
            return times, uhats, h, halvings, steps
        step /= 2.0
    raise AssertionError("reference flow exhausted its halvings")


def brute_force_sum(symbol, states):
    """Complex hyperplane sum term by term over every slot assignment."""
    lam = states[0].lam
    coeffs = [s.uhat_array() for s in states]
    rows, weights = [], []
    for picks in itertools.product(*(range(s.n_modes) for s in states)):
        js, w = [], 1.0 + 0.0j
        for i, (s, k) in enumerate(zip(states, picks)):
            c = coeffs[i][k]
            js.append(int(s.indices[k]) if i % 2 == 0 else -int(s.indices[k]))
            w *= c if i % 2 == 0 else c.conjugate()
        if sum(js) == 0:
            rows.append(js)
            weights.append(w)
    vals = symbol(np.array(rows, dtype=np.int64), int(lam))
    return math.tau / lam ** (len(states) - 1) * complex(np.dot(vals, weights))


def m10_reference_symbol(S, p, sign):
    """Ten-frequency commutator symbol with support-gated slot collapses:
    slots j..j+4 contract to their sum K, kept when K's mode is in S."""
    mode_set = np.asarray(S, dtype=np.int64)

    def fn(js, lam):
        out = np.zeros(len(js))
        for j in range(6):
            K = js[:, j : j + 5].sum(axis=1)
            mode = K if j % 2 == 0 else -K
            ok = np.isin(mode, mode_set)
            if not ok.any():
                continue
            cols = np.concatenate([js[ok, :j], K[ok, None], js[ok, j + 5 :]], axis=1)
            vals = _symbol_batch("sigma6", cols, lam, p, sign=sign)
            vals = vals + sign * _symbol_batch("sigma6tilde", cols, lam, p)
            out[ok] += (1.0 if j % 2 == 0 else -1.0) * vals
        return out

    return fn


def frozen_sum(symbol, states):
    table = _FrozenLambda(symbol, [s.indices for s in states], states[0].lam)
    return table([s.uhat_array() for s in states])[0]


class TestQuintic:
    @pytest.mark.parametrize("support", QUINTIC_SUPPORTS)
    def test_matches_oracles(self, support):
        # the compressed grid and the alias-free evaluation points reorder
        # the sums only, so both oracles agree to roundoff; lam=3 checks the
        # 1/lam^4
        S = np.asarray(support, dtype=np.int64)
        rng = stream(10, len(S))
        for lam in (1.0, 3.0):
            u = rng.normal(size=len(S)) + 1j * rng.normal(size=len(S))
            got = _quintic(u, *galerkin._eval_matrices(S, lam))
            for want in (brute_quintic(u, S, lam), reference_quintic(u, S, lam)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "state", [ACCEPT, ACTIVE, seeded_state(11, 3.0, (0, 1, 60))], ids=["accept", "active", "sparse"]
    )
    def test_stepper_stages_match_quintic_bitwise(self, state, monkeypatch):
        # every RK4 stage goes through the kernel of _quintic with the same
        # evaluation matrices, so its points, projected, are _quintic's bits
        S, lam = state.indices, state.lam
        stages = []

        def recording(b, E, out):
            got = kernel(b, E, out)
            stages.append((b.copy(), got.copy()))
            return got

        kernel = galerkin._quintic_points
        monkeypatch.setattr(galerkin, "_quintic_points", recording)
        traj = integrate_galerkin(state, 0.01, dt=0.0025, sign=+1, n_samples=3)
        monkeypatch.undo()
        assert len(stages) == 4 * traj.rk4_steps
        E, F = galerkin._eval_matrices(S, lam)
        for b, points in stages:
            assert np.dot(points, F).tobytes() == _quintic(b, E, F).tobytes()


class TestIntegrator:
    @pytest.mark.parametrize(
        "state, T, dt, n_samples",
        [(ACTIVE, 0.1, 0.005, 5), (ACCEPT, 0.1, 0.025, 5)],
        ids=["halving", "accepted"],
    )
    def test_matches_reference_rk4(self, state, T, dt, n_samples):
        # ACTIVE halves six times and amplifies roundoff along the flow: by
        # T=0.2 the reference loop itself moves by 4e-14 relative when its
        # quintic is summed term by term instead, so the window ends at 0.1
        times, uhats, h, halvings, steps = reference_integrate(state, T, dt, +1, n_samples)
        traj = integrate_galerkin(state, T, dt=dt, sign=+1, n_samples=n_samples)
        assert (traj.dt, traj.halvings, traj.rk4_steps) == (h, halvings, steps)
        assert (halvings > 0) == (state is ACTIVE)
        np.testing.assert_array_equal(traj.times, times)
        assert np.max(np.abs(traj.uhats - uhats)) <= 1e-13 * np.max(np.abs(uhats))

    def test_phase_blocks_do_not_change_bits(self, monkeypatch):
        # the running step time restarts at each block boundary from the
        # last one, so the block size leaves every bit in place
        want = integrate_galerkin(ACTIVE, 0.2, dt=0.005, sign=+1, n_samples=5)
        monkeypatch.setattr(galerkin, "_PHASE_BLOCK", 3)
        got = integrate_galerkin(ACTIVE, 0.2, dt=0.005, sign=+1, n_samples=5)
        assert got.uhats.tobytes() == want.uhats.tobytes()
        assert (got.dt, got.rk4_steps, got.halvings) == (want.dt, want.rk4_steps, want.halvings)

    def test_free_flow_matches_linear_propagator(self):
        u0 = seeded_state(1, 2.0, (-6, -1, 0, 4))
        traj = integrate_galerkin(u0, 0.8, dt=0.05, sign=0, n_samples=9)
        for i in range(traj.n_samples):
            want = evolve_linear(u0, float(traj.times[i]))
            np.testing.assert_allclose(
                traj.state(i).amps, want.amps, rtol=0, atol=1e-12
            )

    def test_mass_and_energy_conserved(self):
        traj = integrate_galerkin(ACCEPT, 1.0, dt=1.0 / 100, sign=+1, n_samples=11)
        assert traj.mass_drift <= 1e-8
        assert energy_drift(traj) <= 1e-6
        # focusing run conserves its own Hamiltonian too
        traj2 = integrate_galerkin(ACTIVE, 0.5, dt=0.5 / 200, sign=-1, n_samples=11)
        assert energy_drift(traj2) <= 1e-6

    def test_trajectory_layout(self):
        traj = integrate_galerkin(ACCEPT, 0.2, dt=0.01, sign=+1, n_samples=5)
        assert traj.n_samples == 5
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(0.2)
        assert traj.uhats.shape == (5, 4)
        np.testing.assert_array_equal(traj.state(0).indices, ACCEPT.indices)

    def test_t_zero_single_sample(self):
        traj = integrate_galerkin(ACTIVE, 0.0, sign=+1)
        assert traj.n_samples == 1 and traj.dt == 0.0 and traj.mass_drift == 0.0
        assert traj.rk4_steps == 0 and traj.halvings == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_galerkin(FourierState(1.0, [], []), 1.0)
        with pytest.raises(ValueError):
            integrate_galerkin(ACTIVE, -1.0)
        with pytest.raises(ValueError):
            integrate_galerkin(ACTIVE, 1.0, sign=2)
        with pytest.raises(ValueError):
            integrate_galerkin(ACTIVE, 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_galerkin(ACTIVE, 1.0, n_samples=2)
        with pytest.raises(ValueError):  # Simpson's rule needs an odd count
            integrate_galerkin(ACTIVE, 1.0, n_samples=4)

    def test_step_halving_recovers_coarse_start(self):
        # dt=0.005 is too coarse for this state's nonlinearity; the integrator
        # must halve its way down until the mass tolerance holds
        traj = integrate_galerkin(ACTIVE, 0.2, dt=0.005, sign=+1, n_samples=5)
        assert traj.mass_drift <= 1e-8
        assert traj.dt < 0.005

    def test_integration_error_when_halving_exhausted(self):
        with pytest.raises(IntegrationError) as ei:
            integrate_galerkin(
                ACTIVE, 0.2, dt=0.005, sign=+1, n_samples=5, max_halvings=0
            )
        assert ei.value.drift > 1e-8
        assert ei.value.dt > 0

    def test_hamiltonian_sign_split(self):
        u = seeded_state(2, 1.0, (-2, 0, 1))
        kinetic = hamiltonian_energy(u, sign=0)
        assert hamiltonian_energy(u, +1) > kinetic > hamiltonian_energy(u, -1)


class TestFrozenLambda:
    def test_matches_generic_evaluation(self):
        # M6_1 flips sign under the conjugate pairing, so its form is purely
        # imaginary; compare the raw complex sums rather than the
        # real-checking evaluator
        u = seeded_state(3, 2.0, (-4, -1, 0, 2, 6))
        for sym, arity in (("sigma2", 2), ("sigma6", 6), ("M6_1", 6)):
            want = brute_force_sum(symbol_fn(sym, P4), [u] * arity)
            got = frozen_sum(symbol_fn(sym, P4), [u] * arity)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # the ten-linear form by substitution of the projected quintic into
        # the flow-identity table agrees with the 10-tuple sum of the
        # collapsing symbol; it cancels to roundoff on many supports, not on
        # these, and lam=2 checks the 2*pi/lam^9 scale
        for lam, support in ((1.0, (0, 1, 3)), (2.0, (0, 2, 6))):
            w = seeded_state(4, lam, support)
            want = brute_force_sum(m10_reference_symbol(w.indices, P2, +1), [w] * 10)
            assert abs(want) > 1e-3
            table = _flux_table(w.indices, w.lam, P2, +1)
            got = _flux_sums(table, w.uhat_array(), *galerkin._eval_matrices(w.indices, w.lam))[2][0]
            assert got == pytest.approx(want, rel=1e-12)
        # mixed states: each slot reads its own support and coefficients
        v = seeded_state(6, 2.0, (-1, 2, 3, 6))
        for sym, arity in (("sigma2", 2), ("sigma6", 6)):
            want = brute_force_sum(symbol_fn(sym, P4), [u, v] * (arity // 2))
            assert abs(want) > 1e-3
            got = frozen_sum(symbol_fn(sym, P4), [u, v] * (arity // 2))
            assert got == pytest.approx(want, rel=1e-12)
        want = brute_force_sum(symbol_fn("sigma2", P4), [u, u]).real
        assert lambda_n_evaluate(symbol_fn("sigma2", P4), [u, u]) == pytest.approx(want, rel=1e-12)

    def test_stacked_rows_match_single_symbol_tables_bitwise(self):
        # each row of a multi-symbol table sums and weighs exactly as its own
        # single-symbol table, at equal and at substituted coefficients
        u = seeded_state(7, 2.0, (-5, -2, 0, 3, 4, 9))
        ids = ("sigma6tilde", "M6bar", "sigma6")

        def stacked(js, lam):
            return np.stack([symbol_fn(s, P4)(js, lam) for s in ids])

        S = u.indices
        multi = _FrozenLambda(stacked, [S] * 6, u.lam)
        singles = [_FrozenLambda(symbol_fn(s, P4), [S] * 6, u.lam) for s in ids]
        assert multi.values.shape == (3, len(singles[0].values))
        c = u.uhat_array()
        for coeffs in ([c] * 6, [c, c, c[::-1], c, c, c]):
            got = multi(coeffs)
            want = [t(coeffs) for t in singles]
            for (zg, mg), (zw, mw) in zip(got, want):
                assert np.complex128(zg).tobytes() == np.complex128(zw).tobytes()
                assert np.float64(mg).tobytes() == np.float64(mw).tobytes()

    def test_single_mode_diagonal_pair(self):
        # only the diagonal (5, -5) survives: sigma2 = 12.5 * m(5)^2 = 10 at
        # N=4, s=1/2, so the form is 2*pi*10 exactly
        u = FourierState.from_uhat(1.0, {5: 1.0})
        got = frozen_sum(symbol_fn("sigma2", P4), [u, u])
        assert got.real == pytest.approx(20.0 * math.pi, rel=1e-14)
        assert got.imag == 0.0

    def test_simpson_weights(self):
        xs = np.linspace(0.0, 1.0, 9)
        assert _simpson(xs**3, float(xs[1])) == pytest.approx(0.25, rel=1e-14)
        assert _simpson(np.array([7.0]), 0.1) == 0.0
        with pytest.raises(ValueError):
            _simpson(np.ones(4), 0.1)


class TestFlowIdentity:
    def test_kinetic_flux_matches_derivative(self):
        # d/dt Lambda_2(sigma2) along the flow equals Re[i*mu*Lambda_6(M6_1)],
        # checked by centered differences at second order
        u0 = ACTIVE
        lam2 = _FrozenLambda(symbol_fn("sigma2", P2), [u0.indices] * 2, u0.lam)
        m61 = _FrozenLambda(symbol_fn("M6_1", P2), [u0.indices] * 6, u0.lam)
        errs = []
        for n in (33, 65):
            traj = integrate_galerkin(u0, 0.02, dt=0.02 / (n - 1), sign=+1, n_samples=n)
            h = float(traj.times[1] - traj.times[0])
            vals = np.array([lam2([traj.uhats[i]] * 2)[0].real for i in range(n)])
            mid = (vals[2:] - vals[:-2]) / (2 * h)
            flux = np.array(
                [(1j * m61([traj.uhats[i]] * 6)[0]).real for i in range(1, n - 1)]
            )
            errs.append(np.max(np.abs(mid - flux)))
        assert errs[1] < errs[0] / 3  # second-order shrink

    def test_t_zero_residual_exactly_zero(self):
        traj = integrate_galerkin(ACTIVE, 0.0, sign=+1)
        rep = ftc_residual(traj, P2)
        assert rep.residual == 0.0 and rep.n_samples == 1

    def test_single_mode_exact(self):
        u = FourierState.from_uhat(4.0, {8: 1.25 - 0.5j})
        traj = integrate_galerkin(u, 1.0, dt=0.01, sign=+1, n_samples=5)
        rep = ftc_residual(traj, P4)
        assert rep.relative <= 1e-12

    def test_acceptance_geometry_converges_fourth_order(self):
        rels = []
        for div in (4, 8, 16):
            traj = integrate_galerkin(
                ACCEPT, 0.1, dt=0.1 / div, sign=+1, n_samples=div + 1
            )
            rep = ftc_residual(traj, P4)
            rels.append(rep.relative)
            assert rep.mass_drift <= 1e-8
        assert rels[0] <= 1e-6
        order = np.polyfit(np.log([4, 8, 16]), np.log(rels), 1)[0]
        assert -order >= 2.0

    def test_active_resonant_support(self):
        traj = integrate_galerkin(ACTIVE, 0.1, dt=0.1 / 64, sign=+1, n_samples=65)
        rep = ftc_residual(traj, P2)
        assert rep.relative <= 1e-4
        assert rep.resonant_integral == pytest.approx(3.6228, rel=1e-3)
        assert rep.correction_initial != 0.0

    def test_focusing_sign(self):
        traj = integrate_galerkin(ACTIVE, 0.05, dt=0.05 / 32, sign=-1, n_samples=33)
        rep = ftc_residual(traj, P2)
        assert rep.relative <= 1e-3

    def test_table_builds_once_per_run(self, monkeypatch):
        # one energy-track run builds E1's sigma2 table and one arity-6
        # table, whose rows hold the flow-identity symbols and E1's sigma6,
        # whatever its sample count
        from nlslab import cli

        arities = []
        build = _FrozenLambda.__init__

        def counting(self, symbol, supports, lam):
            arities.append(len(supports))
            build(self, symbol, supports, lam)

        monkeypatch.setattr(_FrozenLambda, "__init__", counting)
        for n_samples in (5, 11):
            arities.clear()
            doc = cli.run_experiment("energy-track", {"n_samples": n_samples}, 0, 1)
            assert len(doc["rows"]) == n_samples
            assert sorted(arities) == [2, 6]

    def test_e1_per_sample(self):
        traj = integrate_galerkin(ACCEPT, 0.1, dt=0.025, sign=+1, n_samples=5)
        rep = ftc_residual(traj, P4)
        assert len(rep.e1) == traj.n_samples
        for i in range(traj.n_samples):
            assert rep.e1[i] == energy_e1i([traj.state(i)], P4, sign=+1)[0]

    def test_over_cap_support_refused(self):
        u = seeded_state(8, 1.0, tuple(range(13)))
        traj = integrate_galerkin(u, 0.0, sign=+1)
        with pytest.raises(CapExceededError):
            ftc_residual(traj, P2)

    def test_free_flow_rejected(self):
        traj = integrate_galerkin(ACTIVE, 0.1, dt=0.01, sign=0, n_samples=5)
        with pytest.raises(ValueError):
            ftc_residual(traj, P2)
