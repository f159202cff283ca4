import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covlind import (
    Channel,
    DensityMatrix,
    DissipatorSpec,
    DrivenGenerator,
    DrivenQubitMasterEquation,
    JCParams,
    Operator,
    build_dissipator,
    check_time_translation,
    choi_matrix,
    detailed_balance_rates,
    fixed_point,
    instantaneous_attractor,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    liouvillian,
    matrix_exp,
    qubit_ops,
    static_eigenoperators,
    total_liouvillian,
    vec,
)
from covlind.bath import BathSpec, jc_kinetic_coefficients
from covlind.errors import ContractError
from covlind.gkls import (
    ZeroTemperatureWarning,
    _deltas_from_rates,
    _apply_dissipator,
    _solve_effective_hamiltonian,
    _unit_normal_matrix,
    lindblad_term,
)
from covlind.operators import hermitian_eig
from oracles import dissipator_kron_oracle, effective_hamiltonian_oracle

Q = qubit_ops()
RNG = np.random.default_rng(4242)
EE = np.array([[0, 0], [0, 1]], dtype=complex)
GG = np.array([[1, 0], [0, 0]], dtype=complex)


def random_hermitian(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def thermal_qubit_spec(omega_eg=1.0, beta=1.0, gamma=0.7):
    eset = static_eigenoperators(0.5 * omega_eg * Q["sz"])
    down = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags)
            if not inv and f > 0][0]
    (g_down, g_up), = detailed_balance_rates([down[1]], beta, [gamma])
    return DissipatorSpec(channels=[Channel(down[0], g_down, g_up)]), eset


def thermal_spec_for(h, beta, base_rate=0.5, rng=RNG, dephasing=True):
    """All-pairs detailed-balance dissipator for a Hamiltonian."""
    eset = static_eigenoperators(h)
    channels = []
    seen = set()
    for op, f, inv, pair in zip(eset.ops, eset.freqs, eset.invariant_flags, eset.pairs):
        if inv or pair is None:
            continue
        if tuple(sorted(pair)) in seen or f <= 0:
            continue
        seen.add(tuple(sorted(pair)))
        g = base_rate * (0.5 + rng.uniform())
        (gd, gu), = detailed_balance_rates([f], beta, [g])
        channels.append(Channel(op, gd, gu))
    deph = []
    if dephasing:
        weights = rng.uniform(0.05, 0.3, size=len(eset.projectors))
        v = sum(w * p.data for w, p in zip(weights, eset.projectors))
        deph = [(v, 0.2)]
    return DissipatorSpec(channels=channels, dephasing_hermitian=deph), eset


class TestBuildDissipator:
    def test_amplitude_damping_action(self):
        spec = DissipatorSpec(channels=[Channel(Q["sm"], 1.0)])
        d_super = build_dissipator(spec)
        out = d_super.apply(EE).data
        assert np.max(np.abs(out - (GG - EE))) < 1e-12

    def test_pure_dephasing_double_commutator(self):
        spec = DissipatorSpec(dephasing_hermitian=[(Q["sz"], 1.0)])
        d_super = build_dissipator(spec)
        out = d_super.apply(Q["sx"]).data
        assert np.max(np.abs(out - (-4.0) * Q["sx"])) < 1e-12

    def test_empty_spec_zero(self):
        d_super = build_dissipator(DissipatorSpec(), d=3)
        assert np.max(np.abs(d_super.data)) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ContractError):
            Channel(Q["sm"], -0.1)

    def test_invariant_dephasing_block(self):
        w = Q["sz"] / math.sqrt(2)
        spec = DissipatorSpec(dephasing_invariant=([w], [[0.8]]))
        d_super = build_dissipator(spec)
        # W rho W - 1/2 {W^2, rho} leaves populations alone, damps coherence
        out = d_super.apply(Q["sx"]).data
        assert np.max(np.abs(out - (-0.8) * Q["sx"])) < 1e-12
        assert np.max(np.abs(d_super.apply(GG).data)) < 1e-12

    def test_chi_must_be_psd(self):
        w = Q["sz"] / math.sqrt(2)
        with pytest.raises(ContractError):
            DissipatorSpec(dephasing_invariant=([w], [[-0.1]]))

    def test_trace_annihilation_random(self):
        spec, _ = thermal_spec_for(random_hermitian(4), beta=0.7)
        d_super = build_dissipator(spec)
        left = vec(np.eye(4)).conj() @ d_super.data
        assert np.max(np.abs(left)) < 1e-10


class TestDetailedBalance:
    def test_infinite_temperature(self):
        (g, grev), = detailed_balance_rates([1.3], 0.0, [0.4])
        assert g == grev == 0.4

    def test_ln2_ratio(self):
        (g, grev), = detailed_balance_rates([math.log(2)], 1.0, [1.0])
        assert abs(g / grev - 2.0) < 1e-12

    def test_zero_temperature(self):
        (g, grev), = detailed_balance_rates([1.0], math.inf, [0.4])
        assert grev == 0.0


class TestFixedPoint:
    def test_thermal_qubit_gibbs(self):
        beta, omega_eg = 1.0, 1.0
        spec, eset = thermal_qubit_spec(omega_eg=omega_eg, beta=beta)
        res = fixed_point(spec, eset)
        z = 1.0 + math.exp(-beta * omega_eg)
        expected = np.diag([1.0, math.exp(-beta * omega_eg)]) / z
        assert np.max(np.abs(res.state.data - expected)) < 1e-12
        assert res.residual < 1e-12

    def test_equal_rates_maximally_mixed(self):
        spec, eset = thermal_qubit_spec(beta=0.0)
        res = fixed_point(spec, eset)
        assert np.max(np.abs(res.state.data - np.eye(2) / 2)) < 1e-12

    def test_two_channel_shared_level_matches_nullspace(self):
        # V-system: two downward channels sharing the ground level
        h = np.diag([0.0, 0.9, 1.7]).astype(complex)
        spec, eset = thermal_spec_for(h, beta=0.8, dephasing=False)
        assert len(spec.channels) == 3
        res = fixed_point(spec, eset)
        assert res.residual < 1e-10
        # oracle: null vector of the dissipator matrix
        d_mat = build_dissipator(spec).data
        w, v = np.linalg.eig(d_mat)
        k = int(np.argmin(np.abs(w)))
        rho = v[:, k].reshape((3, 3), order="F")
        rho = rho / np.trace(rho)
        assert np.max(np.abs(rho - res.state.data)) < 1e-9

    def test_zero_reverse_rate_projector_limit(self):
        eset = static_eigenoperators(0.5 * Q["sz"])
        down = [op for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags)
                if not inv and f > 0][0]
        spec = DissipatorSpec(channels=[Channel(down, 0.8, 0.0)])
        with pytest.warns(ZeroTemperatureWarning):
            res = fixed_point(spec, eset)
        assert np.max(np.abs(res.state.data - GG)) < 1e-14
        assert res.residual < 1e-14
        assert res.zero_temperature

    def test_rejects_non_eigenoperator_channel(self):
        eset = static_eigenoperators(0.5 * Q["sz"])
        spec = DissipatorSpec(channels=[Channel(Q["sx"] / math.sqrt(2), 1.0, 0.5)])
        with pytest.raises(ContractError):
            fixed_point(spec, eset)

    def test_rejects_channels_when_the_set_has_no_transitions(self):
        eset = static_eigenoperators(np.eye(2))
        spec = DissipatorSpec(channels=[Channel(Q["sm"], 1.0, 0.5)])
        with pytest.raises(ContractError, match="not an eigenoperator"):
            fixed_point(spec, eset)

    def test_per_channel_annihilation(self):
        # each channel's own dissipator kills the composite fixed point
        h = np.diag([0.0, 0.7, 1.9, 3.4]).astype(complex)
        spec, eset = thermal_spec_for(h, beta=0.6, dephasing=False)
        res = fixed_point(spec, eset)
        for ch in spec.channels:
            single = build_dissipator(DissipatorSpec(channels=[ch]))
            assert np.max(np.abs(single.apply(res.state.data).data)) < 1e-10


class TestInstantaneousAttractor:
    def test_balanced_rates_give_mixed_state(self):
        res = instantaneous_attractor([(Q["sm"], 0.7, 0.7)])
        assert np.max(np.abs(res.state.data - np.eye(2) / 2)) < 1e-14
        assert res.deltas[0] == 0.0

    def test_e_ratio_populations(self):
        res = instantaneous_attractor([(Q["sm"], math.e, 1.0)])
        z = 1.0 + math.exp(-1.0)
        expected = np.diag([1.0, math.exp(-1.0)]) / z
        assert np.max(np.abs(res.state.data - expected)) < 1e-12
        assert abs(res.deltas[0] - 1.0) < 1e-12

    def test_commutation_relation(self):
        res = instantaneous_attractor([(Q["sm"], 2.0, 0.5)])
        h = res.effective_hamiltonian.data
        delta = res.deltas[0]
        resid = h @ Q["sm"] - Q["sm"] @ h + delta * Q["sm"]
        assert np.max(np.abs(resid)) < 1e-10

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ContractError):
            instantaneous_attractor([(Q["sx"] / math.sqrt(2), 1.0, 0.5)])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            instantaneous_attractor([(2.0 * Q["sm"], 1.0, 0.5)])


def _spectrum(kind, d, rng):
    """Random levels, an equally spaced ladder (Bohr frequencies shared by
    several pairs) or a few repeated levels (degenerate spectrum)."""
    if kind == "random":
        return rng.normal(size=d)
    if kind == "ladder":
        return 0.7 * np.arange(d) + rng.normal()
    w = rng.choice([0.0, 1.0, 2.5], size=d)
    w[:2] = [0.0, 2.5]
    return w


class TestEffectiveHamiltonian:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
           kind=st.sampled_from(["random", "ladder", "degenerate"]),
           beta=st.sampled_from([0.3, 1.0, 2.5, math.inf]))
    def test_matches_stacked_oracle_on_thermal_specs(self, seed, d, kind, beta):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        h = (q * _spectrum(kind, d, rng)) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        spec, eset = thermal_spec_for(h, beta=beta, rng=rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroTemperatureWarning)
            res = fixed_point(spec, eset)
        h_ref, _ = effective_hamiltonian_oracle([ch.op.data for ch in spec.channels],
                                                res.deltas)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(res.deltas))))
        assert np.max(np.abs(res.effective_hamiltonian.data - h_ref)) <= bound
        assert res.residual <= 1e-9
        l_super = liouvillian(h, build_dissipator(spec))
        assert check_time_translation(l_super, h, t=0.8, s=2.3) <= 1e-9

    def test_inconsistent_jumps_match_oracle(self):
        # sigma_x and sigma_minus admit no common potential: both solvers
        # return the same least-squares minimiser and residual
        jumps, deltas = [Q["sx"], Q["sm"]], np.array([0.3, 1.1])
        h_bar, resid = _solve_effective_hamiltonian(jumps, deltas)
        h_ref, resid_ref = effective_hamiltonian_oracle(jumps, deltas)
        assert np.max(np.abs(h_bar - h_ref)) < 1e-12
        assert abs(resid - resid_ref) < 1e-12
        assert resid > 0.1

    def test_solve_memory_stays_small_at_d14(self):
        rng = np.random.default_rng(14)
        spec, _ = thermal_spec_for(random_hermitian(14, rng), beta=0.7, rng=rng,
                                   dephasing=False)
        assert len(spec.channels) == 91
        jumps = [ch.op.data for ch in spec.channels]
        deltas, _ = _deltas_from_rates([ch.rate for ch in spec.channels],
                                       [ch.rate_rev for ch in spec.channels])
        tracemalloc.start()
        try:
            _solve_effective_hamiltonian(jumps, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestLiouvillian:
    def test_pure_commutator(self):
        from covlind import commutator_super
        l_super = liouvillian(Q["sz"], build_dissipator(DissipatorSpec(), d=2))
        assert np.max(np.abs(l_super.data + 1j * commutator_super(Q["sz"]).data)) < 1e-14

    def test_damped_qubit_gibbs_null_vector(self):
        omega, beta = 1.0, 0.7
        spec, eset = thermal_qubit_spec(omega_eg=omega, beta=beta)
        l_super = liouvillian(0.5 * omega * Q["sz"], build_dissipator(spec))
        w, v = np.linalg.eig(l_super.data)
        k = int(np.argmin(np.abs(w)))
        assert abs(w[k]) < 1e-12
        rho = v[:, k].reshape((2, 2), order="F")
        rho /= np.trace(rho)
        z = 1.0 + math.exp(-beta * omega)
        assert np.max(np.abs(rho - np.diag([1, math.exp(-beta * omega)]) / z)) < 1e-10

    def test_trace_annihilation(self):
        spec, _ = thermal_spec_for(random_hermitian(3), beta=1.1)
        h = random_hermitian(3)
        l_super = liouvillian(h, build_dissipator(spec))
        left = vec(np.eye(3)).conj() @ l_super.data
        assert np.max(np.abs(left)) < 1e-9


class TestTimeTranslation:
    def test_eigenoperator_dissipator_commutes(self):
        h = random_hermitian(3)
        spec, _ = thermal_spec_for(h, beta=0.9)
        l_super = liouvillian(h, build_dissipator(spec))
        assert check_time_translation(l_super, h, t=0.8, s=2.3) < 1e-9

    def test_non_eigenoperator_control(self):
        spec = DissipatorSpec(channels=[Channel(Q["sx"] / math.sqrt(2), 1.0)])
        l_super = liouvillian(0.5 * Q["sz"], build_dissipator(spec))
        assert check_time_translation(l_super, 0.5 * Q["sz"], t=1.0, s=1.0) > 0.01

    def test_zero_dissipator(self):
        l_super = liouvillian(Q["sz"], build_dissipator(DissipatorSpec(), d=2))
        assert check_time_translation(l_super, Q["sz"], t=1.0, s=1.0) < 1e-12


class TestCPTPStructure:
    def test_choi_of_unitary_channel(self):
        # brute-force oracle: Choi from explicit Kraus application
        u = matrix_exp(-1j * 0.6 * random_hermitian(2))
        from covlind import sandwich_super
        s = sandwich_super(u, u.conj().T)
        c = choi_matrix(s)
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2), dtype=complex)
                eij[i, j] = 1.0
                out = u @ eij @ u.conj().T
                oracle += np.kron(eij, out)
        assert np.max(np.abs(c - oracle)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_positive_and_trace_preserving(self, d):
        h = random_hermitian(d)
        spec, _ = thermal_spec_for(h, beta=0.8)
        l_super = liouvillian(h, build_dissipator(spec))
        norm = np.linalg.norm(l_super.data, 2)
        idv = vec(np.eye(d)).conj()
        for t in (0.1 / norm, 1.0 / norm, 10.0 / norm):
            prop = matrix_exp(l_super.data * t)
            choi = choi_matrix(Superoperator_like(prop, d))
            wmin = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
            assert wmin > -1e-8
            assert np.max(np.abs(idv @ prop - idv)) < 1e-10

    def test_hermiticity_preservation(self):
        h = random_hermitian(3)
        spec, _ = thermal_spec_for(h, beta=1.2)
        l_super = liouvillian(h, build_dissipator(spec))
        prop = matrix_exp(l_super.data * 0.9)
        a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = (prop @ vec(rho)).reshape((3, 3), order="F")
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def Superoperator_like(mat, d):
    from covlind import Superoperator
    return Superoperator(mat, d)


class TestGibbsProperty:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_detailed_balance_gives_gibbs(self, d):
        beta = 0.4 + 0.2 * d
        h = random_hermitian(d)
        spec, eset = thermal_spec_for(h, beta=beta)
        res = fixed_point(spec, eset)
        w, v = hermitian_eig(h)
        p = np.exp(-beta * (w - w.min()))
        p /= p.sum()
        gibbs = (v * p) @ v.conj().T
        assert np.max(np.abs(res.state.data - gibbs)) < 1e-9
        assert res.residual < 1e-9

    def test_lindblad_term_matches_rhs(self):
        f = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        rho = random_hermitian(3)
        out = lindblad_term(f, 0.9).apply(rho).data
        fd = f.conj().T
        expected = 0.9 * (f @ rho @ fd - 0.5 * (fd @ f @ rho + rho @ fd @ f))
        assert np.max(np.abs(out - expected)) < 1e-12


class TestTotalLiouvillian:
    def test_lamb_shift_enters_unitary_part(self):
        from covlind.gkls import total_liouvillian
        from covlind import commutator_super
        shift = 0.15 * Q["sz"]
        spec = DissipatorSpec(channels=[Channel(Q["sm"], 0.4)], lamb_shift=shift)
        l_with = total_liouvillian(0.5 * Q["sz"], spec)
        l_base = liouvillian(0.5 * Q["sz"] + shift, build_dissipator(spec))
        assert np.max(np.abs(l_with.data - l_base.data)) < 1e-14

    def test_non_hermitian_shift_rejected(self):
        from covlind.gkls import total_liouvillian
        spec = DissipatorSpec(channels=[Channel(Q["sm"], 0.4)], lamb_shift=Q["sm"])
        with pytest.raises(ContractError):
            total_liouvillian(0.5 * Q["sz"], spec)


class TestJCAttractorNullspaceOracle:
    """The driven-qubit master equation assembled by hand from its parts,
    kept as an oracle for DrivenQubitMasterEquation."""

    @staticmethod
    def hand_assembly():
        p = JCParams.with_rabi(1.0, 0.12, 0.5, 2.0 * np.exp(0.7j))
        bath = BathSpec(temperature=0.7, model="ohmic", eta=0.3, omega_cut=12.0)
        g0, gm, gp = jc_kinetic_coefficients(p, bath)
        f_plus, f_minus, w = jc_eigenoperators(p)

        def spec(t):
            return DissipatorSpec(channels=[Channel(f_minus(t), gm, gp)],
                                  dephasing_invariant=([w(t)], [[g0]]))

        return p, bath, (g0, gm, gp), f_minus, spec

    def test_attractor_matches_dissipator_null_vector(self):
        _, _, (_, gm, gp), f_minus, spec = self.hand_assembly()
        res = instantaneous_attractor([(f_minus(0.0), gm, gp)])
        d_mat = build_dissipator(spec(0.0)).data
        assert np.max(np.abs(d_mat @ vec(res.state.data))) < 1e-9
        # oracle: the normalized null vector of D is the same state
        evals, evecs = np.linalg.eig(d_mat)
        k = int(np.argmin(np.abs(evals)))
        rho = evecs[:, k].reshape((2, 2), order="F")
        rho = rho / np.trace(rho)
        assert np.max(np.abs(rho - res.state.data)) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.7, 13.1])
    def test_master_equation_matches_hand_assembly(self, t):
        p, bath, coefficients, _, spec = self.hand_assembly()
        master = DrivenQubitMasterEquation(p, bath)
        assert master.coefficients == coefficients
        got, want = master.spec(t), spec(t)
        (channel,), (want_channel,) = got.channels, want.channels
        assert np.array_equal(channel.op.data, want_channel.op.data)
        assert (channel.rate, channel.rate_rev) == (want_channel.rate, want_channel.rate_rev)
        (w,), chi = got.dephasing_invariant
        (want_w,), want_chi = want.dephasing_invariant
        assert np.array_equal(w.data, want_w.data) and chi == want_chi
        assert not (got.dephasing_hermitian or got.lamb_shift is not None)
        generator = liouvillian(jc_semiclassical_hamiltonian(t, p), build_dissipator(want))
        assert np.array_equal(master.generator(t).data, generator.data)

    def test_attractor_matches_hand_assembly(self):
        p, bath, (_, gm, gp), f_minus, spec = self.hand_assembly()
        got = DrivenQubitMasterEquation(p, bath).attractor()
        want = instantaneous_attractor([(f_minus(0.0), gm, gp)])
        assert np.array_equal(got.state.data, want.state.data)
        assert np.array_equal(got.effective_hamiltonian.data, want.effective_hamiltonian.data)
        assert np.array_equal(got.deltas, want.deltas)
        assert got.zero_temperature == want.zero_temperature
        # the residual is of the full dissipator, dephasing included
        d_full = build_dissipator(spec(0.0))
        assert got.residual == float(np.max(np.abs(d_full.apply(want.state.data).data)))


def random_spec(rng, d, n_channels, n_hermitian, n_invariant):
    """Channels with random (sometimes zero) forward and reverse rates,
    Hermitian double-commutator dephasing and invariant dephasing with a
    random positive semi-definite chi."""
    def rate():
        return 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 1.5))

    def op():
        return (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)

    channels = [Channel(op(), rate(), rate()) for _ in range(n_channels)]
    hermitian = [(random_hermitian(d, rng) / math.sqrt(d), float(rng.uniform(0.0, 1.0)))
                 for _ in range(n_hermitian)]
    invariant = None
    if n_invariant:
        b = rng.normal(size=(n_invariant,) * 2) + 1j * rng.normal(size=(n_invariant,) * 2)
        invariant = ([random_hermitian(d, rng) / math.sqrt(d) for _ in range(n_invariant)],
                     0.5 * b @ b.conj().T / n_invariant)
    return DissipatorSpec(channels=channels, dephasing_hermitian=hermitian,
                          dephasing_invariant=invariant)


class TestAssemblyProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           n_channels=st.integers(0, 3), n_hermitian=st.integers(0, 2),
           n_invariant=st.integers(0, 3))
    def test_random_specs(self, seed, d, n_channels, n_hermitian, n_invariant):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, d, n_channels, n_hermitian, n_invariant)
        d_super = build_dissipator(spec, d=d)
        assert np.array_equal(d_super.data, dissipator_kron_oracle(spec, d))
        h = random_hermitian(d, rng)
        l_super = liouvillian(h, d_super)
        eye = np.eye(d)
        assert np.array_equal(
            l_super.data, -1j * (np.kron(eye, h) - np.kron(h.T, eye)) + d_super.data)
        idv = vec(eye).conj()
        assert np.max(np.abs(idv @ d_super.data), initial=0.0) < 1e-12
        assert np.max(np.abs(idv @ l_super.data), initial=0.0) < 1e-12
        choi = choi_matrix(Superoperator_like(matrix_exp(0.1 * l_super.data), d))
        assert float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]) >= -1e-10


class TestOperatorSpaceDissipator:
    """The fixed point's residual and normal matrix, formed without
    build_dissipator, held to its term-by-term assembly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           n_channels=st.integers(0, 3), n_hermitian=st.integers(0, 2),
           n_invariant=st.integers(0, 3))
    def test_apply_matches_assembly(self, seed, d, n_channels, n_hermitian, n_invariant):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, d, n_channels, n_hermitian, n_invariant)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        want = build_dissipator(spec, d=d).apply(rho).data
        assert np.max(np.abs(_apply_dissipator(spec, rho) - want)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), k=st.integers(1, 6))
    def test_normal_matrix_matches_unit_rate_assembly(self, seed, d, k):
        rng = np.random.default_rng(seed)
        jumps = list((rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d)))
                     / math.sqrt(2 * d))
        want = -build_dissipator(DissipatorSpec([Channel(fm, 1.0, 1.0) for fm in jumps]), d).data
        assert np.max(np.abs(_unit_normal_matrix(jumps) - want)) <= 1e-12 * np.max(np.abs(want))

    # a NaN state, and a finite one whose residual overflows to an infinite
    # trace, which a relative trace bound alone lets through
    @pytest.mark.parametrize("rho", [np.full((2, 2), np.nan, dtype=complex),
                                     np.diag([1e308, 0.0]).astype(complex)])
    def test_non_finite_residual_names_the_stage(self, rho):
        spec = DissipatorSpec([Channel(Q["sm"], 1.5, 1.5)])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="attractor residual"):
            _apply_dissipator(spec, rho)


class TestTraceCheck:
    def test_names_the_stage(self):
        bad = Superoperator_like(np.eye(4, dtype=complex), 2)
        with pytest.raises(ContractError, match="Liouvillian is not trace-annihilating"):
            liouvillian(Q["sz"], bad)


class TestHermitianCheck:
    @pytest.mark.parametrize("bad", [Q["sp"], np.full((2, 2), np.nan)])
    def test_names_the_stage(self, bad):
        with pytest.raises(ContractError, match="effective Hamiltonian is not Hermitian"):
            liouvillian(bad, build_dissipator(DissipatorSpec(), d=2))
        with pytest.raises(ContractError, match="Lamb shift is not Hermitian"):
            total_liouvillian(Q["sz"], DissipatorSpec(lamb_shift=bad))
        with pytest.raises(ContractError, match="dephasing operator is not Hermitian"):
            DissipatorSpec(dephasing_hermitian=[(bad, 0.1)])
        with pytest.raises(ContractError, match="chi is not Hermitian"):
            DissipatorSpec(dephasing_invariant=([Q["sz"], np.eye(2)], bad))
        with pytest.raises(ContractError, match=r"H\(t=0.5\) is not Hermitian"):
            DrivenGenerator(lambda t: bad).matrix(0.5)
