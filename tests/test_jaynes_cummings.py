import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covlind import (
    DensityMatrix,
    JCParams,
    collapse_envelope,
    hermitian_eig,
    jc_block_propagator,
    jc_dressed_states,
    jc_eigenoperators,
    jc_hamiltonian,
    jc_kraus_reduce,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    matrix_exp,
    partial_trace,
    qubit_ops,
    touchard,
    touchard_asymptotic,
    uhlmann_fidelity,
)
from covlind.errors import ContractError, TruncationError
from covlind.jaynes_cummings import (
    _autonomous_states,
    default_kraus_window,
    fit_gaussian_envelope,
    jc_autonomous_trajectory,
    jc_kraus_completeness,
)
from covlind.operators import coherent_state, validate_states
from oracles import kraus_sum_oracle

Q = qubit_ops()
RNG = np.random.default_rng(31415)


def full_space_reduction(rho_q, p, t, n_max):
    """Oracle: propagate qubit (x) truncated mode exactly, trace the mode."""
    h = jc_hamiltonian(p, n_max)
    mode = coherent_state(p.alpha, n_max=n_max)
    rho_mode = np.outer(mode, mode.conj())
    rho0 = np.kron(rho_q, rho_mode)
    u = matrix_exp(-1j * h.data * t)
    rho_t = u @ rho0 @ u.conj().T
    joint = DensityMatrix.from_matrix(rho_t, (2, n_max + 1), trace_tol=1e-8)
    return partial_trace(joint, keep=0).data


class TestParams:
    @pytest.mark.parametrize("rabi", [-2.0, -0.5, 0.2, math.nan])
    def test_with_rabi_below_detuning_rejected(self, rabi):
        # a negative rabi is not |rabi|: Omega = sqrt(delta^2 + 4 g^2 nbar) >= |delta|
        with pytest.raises(ContractError, match="rabi must be at least"):
            JCParams.with_rabi(1.0, -0.3, rabi, 2.0)


class TestHamiltonian:
    def test_uncoupled_diagonal(self):
        p = JCParams(1.0, 1.3, 0.0, 0.0)
        h = jc_hamiltonian(p, n_max=3).data
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        # |g, n): omega_c (n + 1/2) - omega_eg / 2
        for n in range(4):
            assert h[n, n] == pytest.approx(1.0 * (n + 0.5) - 0.65)
            assert h[4 + n, 4 + n] == pytest.approx(1.0 * (n + 0.5) + 0.65)

    def test_block_coupling_amplitude(self):
        p = JCParams(1.0, 1.0, 0.2, 0.0)
        n_max = 5
        h = jc_hamiltonian(p, n_max).data
        for n in range(1, n_max + 1):
            # <e, n-1| H |g, n> = g sqrt(n)
            row = (n_max + 1) + (n - 1)
            col = n
            assert h[row, col] == pytest.approx(0.2 * math.sqrt(n))
        # no other off-diagonal couplings
        off = h - np.diag(np.diag(h))
        assert np.count_nonzero(np.abs(off) > 1e-15) == 2 * n_max

    def test_eigenvalues_match_block_formula(self):
        p = JCParams(1.0, 1.2, 0.13, 0.0)
        n_max = 20
        w = np.linalg.eigvalsh(jc_hamiltonian(p, n_max).data)
        expected = [p.omega_c * 0.5 - 0.5 * p.omega_eg]  # uncoupled |g, 0>
        for n in range(1, n_max + 1):
            om = float(p.omega_n(n))
            expected += [n * p.omega_c - om / 2, n * p.omega_c + om / 2]
        # the top block is truncated (|e, n_max> has no partner)
        expected.append(p.omega_c * (n_max + 0.5) + 0.5 * p.omega_eg)
        assert np.allclose(np.sort(w)[: 2 * n_max], np.sort(expected)[: 2 * n_max],
                           atol=1e-10)


class TestBlockPropagator:
    def test_identity_at_zero(self):
        p = JCParams(1.0, 1.1, 0.3, 0.0)
        assert np.allclose(jc_block_propagator(4, 0.0, p), np.eye(2))

    def test_resonant_quarter_period(self):
        # delta = 0, g sqrt(n) = 1, t = pi/2: full transfer, diagonal zero
        p = JCParams(1.0, 1.0, 1.0, 0.0)
        u = jc_block_propagator(1, math.pi / 2, p)
        assert abs(u[0, 0]) < 1e-12 and abs(u[1, 1]) < 1e-12
        expected = -1j * np.exp(-1j * 1.0 * math.pi / 2)
        assert u[0, 1] == pytest.approx(expected)

    def test_against_exponential_oracle(self):
        p = JCParams(1.0, 1.37, 0.21, 0.0)
        for n, t in ((1, 0.7), (3, 2.9), (10, 11.3)):
            hn = (n * p.omega_c * np.eye(2)
                  - 0.5 * p.delta * np.array([[1, 0], [0, -1]], dtype=complex)
                  + math.sqrt(n) * p.g * Q["sx"])
            oracle = matrix_exp(-1j * hn * t)
            assert np.max(np.abs(jc_block_propagator(n, t, p) - oracle)) < 1e-10

    def test_unitary(self):
        p = JCParams(1.0, 1.2, 0.4, 0.0)
        u = jc_block_propagator(7, 5.1, p)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestKrausReduction:
    def test_decoupled_free_precession(self):
        p = JCParams(1.0, 1.3, 0.0, 2.0)
        rho0 = DensityMatrix.from_ket([1, 1])
        t = 2.1
        out = jc_kraus_reduce(rho0, p, t).data
        u = matrix_exp(-1j * 0.5 * p.omega_eg * Q["sz"] * t)
        expected = u @ rho0.data @ u.conj().T
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_vacuum_rabi_oscillation(self):
        p = JCParams(1.0, 1.2, 0.3, 0.0)
        rho0 = DensityMatrix.from_ket([0, 1])  # |e>
        om1 = float(p.omega_n(1))
        for t in (0.4, 1.9, 5.0):
            out = jc_kraus_reduce(rho0, p, t).data
            # population of |e> from the n = 1 block closed form
            pe = 1.0 - (4 * p.g ** 2 / om1 ** 2) * math.sin(om1 * t / 2) ** 2
            assert out[1, 1].real == pytest.approx(pe, abs=1e-12)

    def test_against_full_space_oracle(self):
        p = JCParams(1.0, 1.3, 0.17, 2.2 * np.exp(0.6j))
        rho0 = DensityMatrix.from_ket([1, 1])
        for t in (0.7, 3.1):
            oracle = full_space_reduction(rho0.data, p, t, n_max=40)
            out = jc_kraus_reduce(rho0, p, t, window=(0, 40)).data
            assert np.max(np.abs(out - oracle)) < 1e-12

    def test_completeness(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 5.0)
        assert jc_kraus_completeness(p, 3.0) < 1e-8

    def test_fig2_alpha5_fidelity_dips(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 5.0)
        rho0 = DensityMatrix.from_ket([1, 1])
        times = np.linspace(0.0, 20.0, 400)
        autos = jc_autonomous_trajectory(rho0, p, times)
        fids = []
        for t, rho in zip(times, autos):
            u = jc_semiclassical_propagator(t, p)
            fids.append(uhlmann_fidelity(rho, u @ rho0.data @ u.conj().T))
        fids = np.array(fids)
        assert fids.min() < 0.98
        # decaying agreement over the window: late minima beat early ones
        assert fids[:200].min() > fids[200:].min()


def random_psd(rng, d=2):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestKrausKernel:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.5, 30.0),
           phase=st.floats(-math.pi, math.pi), delta=st.floats(-0.5, 0.5),
           g=st.floats(0.01, 0.5))
    def test_matches_per_m_oracle(self, seed, modulus, phase, delta, g):
        rng = np.random.default_rng(seed)
        p = JCParams(1.0, 1.0 + delta, g, modulus * np.exp(1j * phase))
        rho0 = random_psd(rng)
        times = np.sort(rng.uniform(0.0, 40.0, size=3))
        states = _autonomous_states(rho0, p, times)
        for t, rho in zip(times, states):
            oracle = kraus_sum_oracle(rho0, p, t, default_kraus_window(p))
            oracle /= np.trace(oracle).real
            assert np.max(np.abs(rho - oracle)) < 1e-12

    def test_bitwise_independent_of_chunk(self):
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 7.0 * np.exp(0.3j))
        rho0 = DensityMatrix.from_matrix(random_psd(np.random.default_rng(5)))
        times = np.linspace(0.0, 20.0, 41)
        default = _autonomous_states(rho0.data, p, times)
        for chunk in (1, 7):
            assert np.array_equal(_autonomous_states(rho0.data, p, times, chunk=chunk),
                                  default)
        wrapped = jc_autonomous_trajectory(rho0, p, times, chunk=7)
        assert np.array_equal(np.array([s.data for s in wrapped]), default)

    def test_narrow_window_raises_with_context(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 5.0)
        rho0 = DensityMatrix.from_ket([1, 1])
        with pytest.raises(TruncationError) as info:
            jc_autonomous_trajectory(rho0, p, np.linspace(0.5, 3.0, 6), window=(20, 30))
        message = str(info.value)
        assert "alpha=5," in message
        assert "[20, 30]" in message
        assert "t in [0.5, 3]" in message
        assert info.value.deficit > 1e-6


    def test_memory_bounded_at_large_alpha(self):
        # alpha = 1000 opens a 20 021-term window; the 4 MiB chunk budget
        # keeps the traced peak near 20 MiB, where holding every time's
        # Kraus terms at once would take about 165 MB
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 1000.0)
        lo, hi = default_kraus_window(p)
        assert hi - lo + 1 == 20_021
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        times = np.linspace(0.0, 20.0, 129)
        tracemalloc.start()
        try:
            states = _autonomous_states(rho0, p, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (129, 2, 2)
        assert peak < 32 << 20, f"traced peak {peak / 2**20:.1f} MiB"


class TestStackedStates:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
    def test_fidelity_stack_matches_items_bitwise(self, seed, d):
        rng = np.random.default_rng(seed)
        a = np.array([random_psd(rng, d) for _ in range(9)])
        b = np.array([random_psd(rng, d) for _ in range(9)])
        stacked = uhlmann_fidelity(a, b)
        assert stacked.shape == (9,)
        single = [uhlmann_fidelity(x, y) for x, y in zip(a, b)]
        assert all(isinstance(f, float) for f in single)
        assert np.array_equal(stacked, single)

    def test_validation_stack_matches_items_bitwise(self):
        rng = np.random.default_rng(11)
        states = np.array([random_psd(rng) for _ in range(12)])
        # one state with a tiny negative eigenvalue exercises the clip branch
        w, v = np.linalg.eigh(states[3])
        states[3] = (v * np.array([-1e-9, 1.0 + 1e-9])) @ v.conj().T
        checked = validate_states(states, eig_tol=1e-7)
        assert np.linalg.eigvalsh(checked[3])[0] >= -1e-15
        for rho, item in zip(states, checked):
            assert np.array_equal(DensityMatrix.from_matrix(rho, eig_tol=1e-7).data, item)

    def test_validation_names_offending_state(self):
        states = np.array([np.eye(2) / 2] * 3, dtype=complex)
        states[2] = np.diag([0.7, 0.5])
        with pytest.raises(ContractError, match=r"\(state 2\)"):
            validate_states(states)

    def test_semiclassical_propagator_stack_matches_items(self):
        p = JCParams(1.0, 1.2, 0.2, 1.5 * np.exp(0.4j))
        times = np.linspace(0.0, 12.0, 25)
        stacked = jc_semiclassical_propagator(times, p)
        assert stacked.shape == (25, 2, 2)
        assert np.array_equal(stacked, [jc_semiclassical_propagator(t, p) for t in times])


class TestSemiclassical:
    def test_alpha_zero_static(self):
        p = JCParams(1.0, 1.4, 0.3, 0.0)
        h0 = jc_semiclassical_hamiltonian(0.0, p)
        h1 = jc_semiclassical_hamiltonian(5.0, p)
        assert np.max(np.abs(h0 - 0.5 * p.omega_eg * Q["sz"])) == 0.0
        assert np.max(np.abs(h0 - h1)) == 0.0

    def test_real_alpha_sigma_x_coupling(self):
        p = JCParams(1.0, 1.0, 0.25, 2.0)
        h = jc_semiclassical_hamiltonian(0.0, p)
        assert np.max(np.abs(h - (0.5 * Q["sz"] + 0.5 * Q["sx"]))) < 1e-12

    def test_periodicity(self):
        p = JCParams(1.0, 1.2, 0.2, 1.5 * np.exp(0.7j))
        t = 1.234
        h1 = jc_semiclassical_hamiltonian(t, p)
        h2 = jc_semiclassical_hamiltonian(t + 2 * math.pi / p.omega_c, p)
        assert np.max(np.abs(h1 - h2)) < 1e-12

    def test_propagator_identity_at_zero(self):
        p = JCParams(1.0, 1.2, 0.2, 1.5)
        assert np.allclose(jc_semiclassical_propagator(0.0, p), np.eye(2))

    def test_resonant_half_period_inversion(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 3.0)
        u = jc_semiclassical_propagator(math.pi / 2, p)
        assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_rk4_integration(self):
        p = JCParams(1.0, 1.31, 0.19, 1.8 * np.exp(1.2j))
        t1, n = 5.0, 20000
        u = np.eye(2, dtype=complex)
        dt = t1 / n
        for k in range(n):
            t = k * dt

            def rhs(tt, m):
                return -1j * jc_semiclassical_hamiltonian(tt, p) @ m

            k1 = rhs(t, u)
            k2 = rhs(t + dt / 2, u + dt / 2 * k1)
            k3 = rhs(t + dt / 2, u + dt / 2 * k2)
            k4 = rhs(t + dt, u + dt * k3)
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(u - jc_semiclassical_propagator(t1, p))) < 1e-8

    def test_unitary(self):
        p = JCParams(1.0, 0.9, 0.3, 2.0 * np.exp(0.4j))
        for t in (0.3, 4.4, 17.0):
            u = jc_semiclassical_propagator(t, p)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_autonomous_limit_form_agrees_up_to_phase(self):
        # Kraus-limit construction diag(1, e^{-i wc t}) R U_eff R^dag equals
        # the rotating-frame propagator up to a global phase
        from covlind.eigenoperators import deviation_up_to_phase
        p = JCParams(1.0, 1.17, 0.23, 2.0 * np.exp(0.9j))
        rng = np.random.default_rng(7)
        om = p.rabi
        phi = -np.angle(p.alpha)
        r = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
        for t in rng.uniform(0.0, 30.0, size=100):
            c, s = math.cos(om * t / 2), math.sin(om * t / 2)
            u_eff = np.array([[c + 1j * p.delta * s / om,
                               -2j * p.g * abs(p.alpha) * s / om],
                              [-2j * p.g * abs(p.alpha) * s / om,
                               c - 1j * p.delta * s / om]])
            alt = np.diag([1.0, np.exp(-1j * p.omega_c * t)]) @ r @ u_eff @ r.conj().T
            assert deviation_up_to_phase(alt, jc_semiclassical_propagator(t, p)) < 1e-10


class TestEigenoperators:
    def test_eigenfrequencies(self):
        p = JCParams(1.0, 1.3, 0.2, 2.0 * np.exp(0.3j))
        assert p.rabi == pytest.approx(math.sqrt(4 * p.nbar * p.g ** 2 + p.delta ** 2))

    def test_normalization_and_nilpotency_all_times(self):
        p = JCParams(1.0, 1.15, 0.22, 1.9 * np.exp(1.7j))
        f_plus, f_minus, w = jc_eigenoperators(p)
        for t in (0.0, 0.9, 4.4):
            for f in (f_plus(t), f_minus(t)):
                assert abs(np.trace(f.dag().data @ f.data) - 1.0) < 1e-10
                assert np.max(np.abs(f.data @ f.data)) < 1e-10
            assert abs(np.trace(w(t).dag().data @ w(t).data) - 1.0) < 1e-12

    def test_daggers_pair_up(self):
        p = JCParams(1.0, 1.25, 0.2, 2.3 * np.exp(0.5j))
        f_plus, f_minus, _ = jc_eigenoperators(p)
        assert np.max(np.abs(f_plus(1.3).dag().data - f_minus(1.3).data)) < 1e-12

    def test_w_expectation_constant(self):
        p = JCParams(1.0, 1.2, 0.21, 2.0 * np.exp(0.8j))
        _, _, w = jc_eigenoperators(p)
        rho0 = DensityMatrix.from_ket([1, 0.3 + 0.4j])
        vals = []
        for t in np.linspace(0.0, 12.0, 25):
            u = jc_semiclassical_propagator(t, p)
            rho_t = u @ rho0.data @ u.conj().T
            vals.append(np.trace(w(t).data @ rho_t).real)
        assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-8

    def test_alpha_zero_rejected(self):
        with pytest.raises(ContractError):
            jc_eigenoperators(JCParams(1.0, 1.2, 0.3, 0.0))

    @pytest.mark.parametrize("g", [
        0.0,
        1e-10,   # 4 g^2 |alpha|^2 is lost beside delta^2: Omega == delta
    ])
    def test_vanishing_drive_rejected(self, g):
        with pytest.raises(ContractError, match=r"\(g = .*, alpha = 2, "):
            jc_eigenoperators(JCParams(1.0, 1.2, g, 2.0))


class TestDressedStates:
    def test_g_zero_reduces_to_bare(self):
        p = JCParams(1.0, 1.4, 0.0, 0.0)
        psi_p, psi_m, e_p, e_m = jc_dressed_states(2, p)
        # delta > 0: upper state is |e, n-1> (theta = 0)
        assert np.allclose(psi_p, [0, 1])
        assert np.allclose(np.abs(psi_m), [1, 0])
        assert e_p == pytest.approx(2 * p.omega_c + p.delta / 2)

    def test_orthonormality(self):
        p = JCParams(1.0, 1.23, 0.31, 0.0)
        psi_p, psi_m, _, _ = jc_dressed_states(3, p)
        assert abs(psi_p.conj() @ psi_m) < 1e-12
        assert abs(np.linalg.norm(psi_p) - 1) < 1e-12

    def test_energies_match_block_diagonalization(self):
        p = JCParams(1.0, 1.31, 0.27, 0.0)
        for n in (1, 2, 7):
            hn = (n * p.omega_c * np.eye(2)
                  - 0.5 * p.delta * np.array([[1, 0], [0, -1]], dtype=complex)
                  + math.sqrt(n) * p.g * Q["sx"])
            w, _ = hermitian_eig(hn)
            psi_p, psi_m, e_p, e_m = jc_dressed_states(n, p)
            assert np.allclose([e_m, e_p], w, atol=1e-10)
            # eigenstate residual
            hn_basis = (n * p.omega_c * np.eye(2)
                        - 0.5 * p.delta * np.array([[1, 0], [0, -1]], dtype=complex)
                        + math.sqrt(n) * p.g * Q["sx"])
            assert np.max(np.abs(hn_basis @ psi_p - e_p * psi_p)) < 1e-10
            assert np.max(np.abs(hn_basis @ psi_m - e_m * psi_m)) < 1e-10


class TestCollapseEnvelope:
    def test_at_zero(self):
        p = JCParams(1.0, 1.2, 0.2, 3.0)
        assert collapse_envelope(0.0, p) == 1.0

    def test_resonant_exponent(self):
        p = JCParams(1.0, 1.0, 0.1, 5.0)
        t = 3.7
        assert collapse_envelope(t, p) == pytest.approx(math.exp(-0.5 * (p.g * t) ** 2))

    def test_alpha_scaling_at_fixed_g_alpha(self):
        # phi proportional to 1/|alpha|^2 when g|alpha| is held fixed
        t = 2.0
        phis = []
        for alpha in (5.0, 10.0, 20.0):
            p = JCParams(1.0, 1.0, 1.0 / alpha, alpha)
            phis.append(-math.log(collapse_envelope(t, p)))
        assert phis[0] / phis[1] == pytest.approx(4.0)
        assert phis[1] / phis[2] == pytest.approx(4.0)


class TestTouchard:
    def test_low_orders(self):
        assert touchard(0, 3.7) == 1.0
        assert touchard(1, 3.7) == pytest.approx(3.7, rel=1e-14)
        assert touchard(2, 3.0) == pytest.approx(12.0, rel=1e-13)

    def test_against_polynomial_oracle(self):
        # coefficients of x^1.. verified by exact rational summation
        polys = {2: [0, 1, 1], 3: [0, 1, 3, 1], 4: [0, 1, 7, 6, 1],
                 5: [0, 1, 15, 25, 10, 1], 6: [0, 1, 31, 90, 65, 15, 1]}
        for j, cs in polys.items():
            for x in (2.5, 7.0, 40.0):
                oracle = sum(c * x ** i for i, c in enumerate(cs))
                assert touchard(j, x) == pytest.approx(oracle, rel=1e-12)

    def test_bell_numbers_at_unit_argument(self):
        bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for j, b in enumerate(bells):
            assert touchard(j, 1.0) == pytest.approx(b, rel=1e-11)

    def test_asymptotic_residual_scaling(self):
        j = 4
        resid = []
        for x in (1e2, 1e3, 1e4):
            resid.append(abs(touchard(j, x) / x ** j - 1 - j * (j - 1) / (2 * x)))
        # residual drops by ~x^-2 per decade
        assert resid[0] / resid[1] == pytest.approx(100.0, rel=0.2)
        assert touchard_asymptotic(j, 1e3) == pytest.approx(1e12 * (1 + 12 / 2000.0))

    def test_guards(self):
        with pytest.raises(ContractError):
            touchard(13, 2.0)
        with pytest.raises(ContractError):
            touchard(3, -1.0)


class TestEnvelopeFit:
    def test_recovers_known_rate(self):
        t = np.linspace(0, 10, 2000)
        sig = np.cos(4.0 * t) * np.exp(-0.03 * t ** 2)
        assert fit_gaussian_envelope(t, sig) == pytest.approx(0.03, rel=0.02)

    def test_underflowing_times_rejected(self):
        # t^4 underflows to zero: polyfit would divide by a zero column norm
        t = np.linspace(0, 10, 2000) * 1e-126
        sig = np.cos(4.0 * t * 1e126) * np.exp(-0.03 * (t * 1e126) ** 2)
        with pytest.raises(ContractError, match="underflow"):
            fit_gaussian_envelope(t, sig)
