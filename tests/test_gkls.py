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
    TimeGrid,
    build_dissipator,
    check_time_translation,
    choi_matrix,
    commutator_super,
    detailed_balance_rates,
    evolve_static,
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
from covlind.errors import ContractError, DimensionError
from covlind.gkls import (
    _BLOCK_BYTES,
    _SLAB_DIM,
    ZeroTemperatureWarning,
    _deltas_from_rates,
    _apply_dissipator,
    _solve_effective_hamiltonian,
    _unit_normal_matrix,
)
from covlind.operators import hermitian_eig
from oracles import (dissipator_kron_oracle, effective_hamiltonian_oracle,
                     lindblad_pair_oracle)

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

    @pytest.mark.parametrize("c", [1e6, 1e8])
    def test_scaled_rank_one_chi_accepted(self, c):
        # eigvalsh puts the zero eigenvalues of c v v^dag near -1e-10 at
        # c = 1e6 and -1e-8 at 1e8: rounding that grows with chi
        v = np.array([1, 0.3 + 0.7j, -0.2j])
        DissipatorSpec(dephasing_invariant=([Q["sx"], Q["sy"], Q["sz"]],
                                            c * np.outer(v, v.conj())))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lowest=st.sampled_from([0.0, -1e-3, -0.5]),
           log_c=st.floats(-6, 8))
    def test_chi_decision_independent_of_time_unit(self, seed, lowest, log_c):
        # chi = U diag(1, 0.5, lowest) U^dag, a change of time unit scaling
        # it by c: rank-deficient PSD is accepted and a negative eigenvalue
        # rejected at every c, as at c = 1
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        chi = (u * [1.0, 0.5, lowest]) @ u.conj().T
        chi = 0.5 * (chi + chi.conj().T)
        ws = [Q["sx"], Q["sy"], Q["sz"]]

        def accepted(m):
            try:
                DissipatorSpec(dephasing_invariant=(ws, m))
            except ContractError as exc:
                assert "positive semi-definite" in str(exc)
                return False
            return True

        assert accepted(chi) == (lowest == 0.0)
        assert accepted(10.0 ** log_c * chi) == accepted(chi)

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

    def test_jump_stack_built_on_first_use(self):
        # the generator path (build_dissipator, liouvillian) reads only the
        # Lindblad pairs, so it leaves the jump stack unbuilt
        h = np.diag([0.0, 0.9, 1.7]).astype(complex)
        spec, eset = thermal_spec_for(h, beta=0.8)
        liouvillian(h, build_dissipator(spec))
        assert "_jumps" not in vars(spec)
        res = fixed_point(spec, eset)
        assert res.residual < 1e-10
        assert np.array_equal(vars(spec)["_jumps"], [ch.op.data for ch in spec.channels])

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

    def test_rates_in_another_unit_of_time_give_the_same_state(self):
        # the README's three levels with every downward channel: at base rates
        # x 1e8 the trace check of D[rho] rejected |tr D[rho]| = 1.86e-9 while
        # its bound was absolute at a fixed point, where D[rho] is about 0
        h = np.diag([0.0, 0.9, 1.7]).astype(complex)
        eset = static_eigenoperators(h)
        states = []
        for scale in (1.0, 1e8):
            channels = []
            for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags):
                if not inv and f > 0:
                    (gd, gu), = detailed_balance_rates([f], 1.0, [0.4 * scale])
                    channels.append(Channel(op, gd, gu))
            states.append(fixed_point(DissipatorSpec(channels=channels), eset).state.data)
        assert np.max(np.abs(states[1] - states[0])) <= 1e-12

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

    def test_ladder_sharing_a_level(self):
        # |0><1| and |1><2| share level 1: the channel-by-channel closed
        # form sum_k (delta_k/2)(F^dag F - F F^dag) misses the relations
        f01, f12 = np.zeros((3, 3)), np.zeros((3, 3))
        f01[0, 1] = f12[1, 2] = 1.0
        res = instantaneous_attractor([(f01, 1.0, 0.3), (f12, 1.0, 0.6)])
        h = res.effective_hamiltonian.data
        naive = sum(0.5 * dl * (f.T @ f - f @ f.T) for f, dl in zip((f01, f12), res.deltas))

        def commutation_residual(hm):
            return max(np.max(np.abs(hm @ f - f @ hm + dl * f))
                       for f, dl in zip((f01, f12), res.deltas))

        assert commutation_residual(h) < 1e-12
        assert commutation_residual(naive) > 0.5
        assert np.max(np.abs(h - effective_hamiltonian_oracle([f01, f12], res.deltas)[0])) < 1e-12
        assert res.residual < 1e-12

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ContractError):
            instantaneous_attractor([(Q["sx"] / math.sqrt(2), 1.0, 0.5)])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            instantaneous_attractor([(2.0 * Q["sm"], 1.0, 0.5)])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5),
           log_eps=st.floats(-13.0, -7.0), log_c=st.floats(-6.0, 8.0))
    def test_decision_independent_of_time_unit(self, seed, d, log_eps, log_c):
        # rotated transitions |i><j|, i < j, the first with a small |j><i|
        # part that makes F^2 about eps, on either side of the 1e-10 bound;
        # levels the channels share may admit no common H_bar; rates x c
        # are a change of time unit
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
        picks = rng.permutation(len(upper))[:rng.integers(1, min(4, len(upper)) + 1)]
        eps = 10.0 ** log_eps
        jumps = []
        for n, k in enumerate(picks):
            i, j = upper[k]
            f = np.zeros((d, d), dtype=complex)
            f[i, j] = 1.0
            if n == 0:
                f[j, i] = eps
                f /= math.sqrt(1.0 + eps * eps)
            jumps.append(u @ f @ u.conj().T)
        rates = rng.uniform(0.1, 2.0, size=(len(jumps), 2))

        def decide(c):
            try:
                return instantaneous_attractor([(f, c * g, c * grev)
                                                for f, (g, grev) in zip(jumps, rates)])
            except ContractError as exc:
                return str(exc).split(" (")[0]

        want, got = decide(1.0), decide(10.0 ** log_c)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str)
            assert np.max(np.abs(got.state.data - want.state.data)) <= 1e-15


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
        out = build_dissipator(DissipatorSpec(channels=[Channel(f, 0.9)])).apply(rho).data
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
        # the residual and its scale are of the full dissipator, dephasing
        # included, from one D[rho], and the residual agrees with the
        # assembled superoperator's product to rounding
        d_rho, scale = _apply_dissipator(spec(0.0), want.state.data)
        assert got.residual == float(np.max(np.abs(d_rho)))
        assert got.residual_scale == scale
        product = build_dissipator(spec(0.0)).apply(want.state.data).data
        assert abs(got.residual - float(np.max(np.abs(product)))) <= 1e-15 * scale


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


def thermal_two_way_spec(d, rng):
    """Every downward transition of a random Hamiltonian as a two-way
    detailed-balance channel (d (d - 1) / 2 of them) and one Hermitian
    dephasing term built from its energy projectors."""
    eset = static_eigenoperators(random_hermitian(d, rng) / math.sqrt(d))
    down = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags)
            if not inv and f > 0]
    rates = detailed_balance_rates([f for _, f in down], 1.0,
                                   rng.uniform(0.2, 0.8, size=len(down)))
    v = sum(wt * prj.data for wt, prj in zip(rng.uniform(0.05, 0.25, size=d), eset.projectors))
    return DissipatorSpec(channels=[Channel(op, g, grev) for (op, _), (g, grev)
                                    in zip(down, rates)],
                          dephasing_hermitian=[(v, 0.15)])


class TestBlockAssembly:
    """build_dissipator forms its Lindblad pairs in blocks of at most
    _BLOCK_BYTES of terms and adds each term in the library's order."""

    def test_block_boundary_matches_oracle_bitwise(self):
        rng = np.random.default_rng(25)
        d = 8

        def op():
            return (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)

        # every 5th forward and every 7th reverse rate is zero
        channels = [Channel(op(), 0.0 if k % 5 == 0 else float(rng.uniform(0.1, 1.5)),
                            0.0 if k % 7 == 3 else float(rng.uniform(0.1, 1.5)))
                    for k in range(40)]
        ws = [random_hermitian(d, rng) / math.sqrt(d) for _ in range(4)]
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = 0.25 * b @ b.conj().T
        assert np.count_nonzero(chi - np.diag(np.diag(chi))) == 12
        spec = DissipatorSpec(channels=channels,
                              dephasing_hermitian=[(random_hermitian(d, rng) / math.sqrt(d), 0.3)],
                              dephasing_invariant=(ws, chi))
        n_channel = sum((ch.rate != 0) + (ch.rate_rev != 0) for ch in channels)
        # one block holds 16 pairs, and there are 83: the 66 channel pairs
        # cross into the fifth block, which holds the last 2 of them, the
        # Hermitian pair and 13 of the 16 chi pairs; the last 3 fill the sixth
        assert _BLOCK_BYTES // (16 * d**4) == 16
        assert n_channel == 66 and len(spec._coeff) == 83
        got = build_dissipator(spec).data
        assert got.tobytes() == dissipator_kron_oracle(spec, d).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), sparse=st.booleans())
    def test_slab_and_dense_assembly_match_the_oracle_bitwise(self, seed, d, sparse):
        # d = 2..8 takes both formulas: dense blocks below _SLAB_DIM, slab
        # passes from it on
        assert 2 < _SLAB_DIM <= 8
        rng = np.random.default_rng(seed)

        def masked(m):
            # about half the entries an exact zero, of either sign (0 times a
            # negative entry is -0), where only the signs of zeros differ
            return m * (rng.uniform(size=m.shape) < 0.5) if sparse else m

        def op():
            return masked(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)

        def hermitian():
            m = op()
            return 0.5 * (m + m.conj().T)

        def rate():
            return 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.1, 1.5))

        # a zero forward and a zero reverse rate, then random (sometimes zero)
        # ones; a dense chi; the Hermitian term comes between the two groups
        channels = [Channel(op(), 0.0, 0.7), Channel(op(), 0.9, 0.0)]
        channels += [Channel(op(), rate(), rate()) for _ in range(rng.integers(0, 4))]
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        chi = 0.5 * b @ b.conj().T
        assert np.count_nonzero(chi) == 9
        spec = DissipatorSpec(channels=channels,
                              dephasing_hermitian=[(hermitian(), float(rng.uniform(0.0, 1.0)))],
                              dephasing_invariant=([hermitian() for _ in range(3)], chi))
        got = build_dissipator(spec).data
        assert got.tobytes() == dissipator_kron_oracle(spec, d).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
           log_lam=st.floats(-4.0, 4.0), log_v=st.floats(-2.0, 2.0))
    def test_hermitian_pair_is_the_double_commutator(self, seed, d, log_lam, log_v):
        # the pair (V, V, 2 lambda) against -lambda [V, [V, .]] formed from
        # the commutator superoperator, independently of the pair formula
        v = random_hermitian(d, np.random.default_rng(seed)) * 10.0 ** log_v / math.sqrt(d)
        lam = 10.0 ** log_lam
        got = build_dissipator(DissipatorSpec(dephasing_hermitian=[(v, lam)])).data
        cv = commutator_super(v).data
        want = -lam * (cv @ cv)
        bound = 1e-14 * max(1.0, lam * float(np.max(np.abs(v))) ** 2)
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("d", [2, 5])
    def test_lindblad_term_is_the_oracle_pair(self, d):
        rng = np.random.default_rng(d)
        f = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)
        got = build_dissipator(DissipatorSpec(channels=[Channel(f, 0.7)])).data
        want = np.zeros((d * d, d * d), dtype=complex) + lindblad_pair_oracle(f, f.conj().T, 0.7)
        assert got.tobytes() == want.tobytes()

    def test_memory_stays_a_few_blocks(self):
        spec = thermal_two_way_spec(14, np.random.default_rng(14))
        assert len(spec.channels) == 91
        assert all(ch.rate > 0 and ch.rate_rev > 0 for ch in spec.channels)
        tracemalloc.start()
        try:
            build_dissipator(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two 1 MiB block buffers, the (182, 14, 14) pair stacks and the
        # result; the 182 terms at once would take 182 x 0.6 MB = 112 MB
        assert peak < 16 * 2**20

    def test_results_are_read_only_and_unaliased(self):
        p = JCParams.with_rabi(1.0, 0.1, 0.6, 2.0)
        _, f_minus, w = jc_eigenoperators(p)
        fm, wt = f_minus(0.3), w(0.3)
        assert not (fm.data.flags.writeable or wt.data.flags.writeable)
        assert not np.shares_memory(fm.data, f_minus(0.3).data)
        op, wm, chi = fm.data.copy(), wt.data.copy(), np.array([[0.2 + 0j]])
        h = jc_semiclassical_hamiltonian(0.3, p)
        d_super = build_dissipator(DissipatorSpec(channels=[Channel(op, 0.4, 0.1)],
                                                  dephasing_invariant=([wm], chi)))
        l_super = liouvillian(h, d_super)
        before = [m.data.copy() for m in (d_super, l_super)]
        for m in (d_super, l_super):
            assert not m.data.flags.writeable
        assert not np.shares_memory(l_super.data, d_super.data)
        for m in (op, wm, chi, h):
            m[...] = 7.0
        for m, want in zip((d_super, l_super), before):
            assert np.array_equal(m.data, want)
        with pytest.raises(ValueError, match="read-only"):
            d_super.data[0, 0] = 1.0

    @pytest.mark.parametrize("chi", [[[0.1j]], [[np.nan]], [[np.inf]]])
    def test_scalar_chi_must_be_hermitian(self, chi):
        with pytest.raises(ContractError, match="chi is not Hermitian"):
            DissipatorSpec(dephasing_invariant=([Q["sz"]], chi))


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
        assert np.max(np.abs(_apply_dissipator(spec, rho)[0] - want)) <= 1e-12

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


class TestNonFiniteGenerator:
    # an infinite entry makes the largest |entry| infinite, so a check
    # relative to it alone passes whatever the trace rows sum to; a NaN off
    # the trace rows (0 and 3) leaves their sums finite
    @pytest.mark.parametrize("entry, value", [((0, 0), np.inf), ((1, 2), np.inf),
                                              ((1, 2), np.nan)],
                             ids=["inf-diagonal", "inf-off-diagonal", "nan-off-diagonal"])
    def test_non_finite_entry_names_the_stage(self, entry, value):
        l_mat = np.zeros((4, 4), dtype=complex)
        l_mat[entry] = value
        with pytest.raises(ContractError, match="Liouvillian is not trace-annihilating"):
            liouvillian(Q["sz"], Superoperator_like(l_mat, 2))
        with pytest.raises(ContractError, match="generator at t=const is not trace-annihilating"):
            evolve_static(Superoperator_like(l_mat, 2), DensityMatrix.from_ket([1, 0]),
                          TimeGrid(0.0, 1.0, 4))


SM_CHANNEL = Channel(Q["sm"], 1.0)


@pytest.mark.parametrize("build, error, match", [
    (lambda: DissipatorSpec(dephasing_hermitian=[(Q["sz"], np.nan)]),
     ContractError, "dephasing weight nan"),
    (lambda: DissipatorSpec(dephasing_hermitian=[(Q["sz"], np.inf)]),
     ContractError, "dephasing weight inf"),
    (lambda: DissipatorSpec(dephasing_hermitian=[(Q["sz"], -0.1)]),
     ContractError, "dephasing weight -0.1"),
    (lambda: DissipatorSpec(channels=[SM_CHANNEL], dephasing_hermitian=[(np.eye(3), 0.1)]),
     DimensionError, r"different dimensions \[2, 3\]"),
    (lambda: DissipatorSpec(channels=[SM_CHANNEL], dephasing_invariant=([np.eye(3)], [[0.1]])),
     DimensionError, r"different dimensions \[2, 3\]"),
    (lambda: DissipatorSpec(dephasing_hermitian=[(Q["sz"], 0.1)],
                            dephasing_invariant=([np.eye(4)], [[0.1]])),
     DimensionError, r"different dimensions \[2, 4\]"),
    (lambda: build_dissipator(DissipatorSpec(channels=[SM_CHANNEL]), d=3),
     DimensionError, "dissipator dimension 3 does not match the spec's terms of dimension 2"),
    (lambda: build_dissipator(DissipatorSpec(dephasing_hermitian=[(Q["sz"], 0.1)]), d=3),
     DimensionError, "dissipator dimension 3 does not match the spec's terms of dimension 2"),
    (lambda: build_dissipator(DissipatorSpec(dephasing_invariant=([Q["sz"]], [[0.1]])), d=3),
     DimensionError, "dissipator dimension 3 does not match the spec's terms of dimension 2"),
    (lambda: DissipatorSpec(dephasing_invariant=([Q["sp"]], [[0.1]])),
     ContractError, "invariant operator is not Hermitian"),
    (lambda: DissipatorSpec(channels=[SM_CHANNEL], lamb_shift=np.eye(3)),
     DimensionError, r"different dimensions \[2, 3\]"),
    (lambda: total_liouvillian(Q["sz"], DissipatorSpec(lamb_shift=np.eye(3))),
     DimensionError, "free Hamiltonian dimension 2 does not match the spec's terms of "
                     "dimension 3"),
    (lambda: instantaneous_attractor([(Q["sm"], 1.0, 0.5), (np.zeros((3, 3)), 1.0, 0.5)]),
     DimensionError, r"different dimensions \[2, 3\]"),
    (lambda: fixed_point(DissipatorSpec(channels=[Channel(Q["sm"], 1.0, 0.5)]),
                         static_eigenoperators(np.diag([0.0, 1.0, 3.0]))),
     DimensionError, "eigenset dimension 3 does not match the spec of dimension 2"),
    (lambda: fixed_point(DissipatorSpec(channels=[Channel(Q["sm"], 1.0, 0.5)]),
                         static_eigenoperators(np.diag([0.0, 1.0, 3.0, 7.0]))),
     DimensionError, "eigenset dimension 4 does not match the spec of dimension 2"),
    (lambda: liouvillian(np.eye(3), build_dissipator(DissipatorSpec(channels=[SM_CHANNEL]))),
     DimensionError, "Hamiltonian dimension 3 does not match the dissipator of dimension 2"),
    (lambda: check_time_translation(build_dissipator(DissipatorSpec(channels=[SM_CHANNEL])),
                                    np.eye(3), 1.0, 0.5),
     DimensionError, "free Hamiltonian dimension 3 does not match the generator of dimension 2"),
    (lambda: Channel(Q["sm"], 1 + 0j), ContractError, r"channel rate must be real, got \(1\+0j\)"),
    (lambda: Channel(Q["sm"], 1.0, np.complex128(0.5)),
     ContractError, r"channel reverse rate must be real, got np.complex128\(0.5\+0j\)"),
    (lambda: DissipatorSpec(dephasing_hermitian=[(Q["sz"], 0.5j)]),
     ContractError, "dephasing weight must be real, got 0.5j"),
    (lambda: DissipatorSpec(dephasing_invariant=([Q["sz"]], [[-0.1]])),
     ContractError, "chi must be positive semi-definite"),
    (lambda: DissipatorSpec(dephasing_invariant=([Q["sz"], Q["sx"]],
                                                 [[-0.2, 0.05j], [-0.05j, -0.1]])),
     ContractError, "chi must be positive semi-definite"),
    (lambda: DissipatorSpec(dephasing_invariant=([], np.zeros((0, 0)))),
     ContractError, "dephasing_invariant needs at least one invariant operator"),
], ids=["nan-weight", "inf-weight", "negative-weight", "channel-vs-dephasing",
        "channel-vs-invariant", "dephasing-vs-invariant", "build-channel", "build-dephasing",
        "build-invariant", "non-hermitian-invariant", "lamb-shift-vs-channel",
        "lamb-shift-vs-hamiltonian", "attractor-mixed", "fixed-point-eigenset-d3",
        "fixed-point-eigenset-d4", "liouvillian-hamiltonian", "time-translation-hamiltonian",
        "complex-rate", "complex-reverse-rate", "complex-weight", "negative-chi-1x1",
        "negative-definite-chi-2x2", "empty-invariant"])
def test_malformed_spec_rejected_by_name(build, error, match):
    with pytest.raises(error, match=match):
        build()
