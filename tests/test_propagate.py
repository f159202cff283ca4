import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covlind import (
    Channel,
    DensityMatrix,
    DissipatorSpec,
    DrivenQubitMasterEquation,
    JCParams,
    Operator,
    Superoperator,
    TimeGrid,
    build_dissipator,
    commutator_super,
    detailed_balance_rates,
    evolve_static,
    evolve_timedep,
    expectation_series,
    fidelity_series,
    fixed_point,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    liouvillian,
    matrix_exp,
    qubit_ops,
    static_eigenoperators,
    uhlmann_fidelity,
    unvec,
    vec,
)
from covlind import operators, propagate
from covlind.bath import BathSpec
from covlind.errors import ContractError, DimensionError, IntegrationError
from oracles import per_step_expm_oracle, per_step_rk4_oracle, three_call_sweep_oracle

Q = qubit_ops()
EXCITED = DensityMatrix.from_ket([0, 1])
GROUND = DensityMatrix.from_ket([1, 0])
# rho0 with a trace 1e-13 off one: validating it again would renormalise its bits
RAW_RHO0 = DensityMatrix(np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, 0.7 + 1e-13]]))
EVOLVERS = pytest.mark.parametrize("evolve", [
    lambda l, rho0, grid: evolve_static(l, rho0, grid),
    lambda l, rho0, grid: evolve_timedep(lambda t: l, rho0, grid),
    lambda l, rho0, grid: evolve_timedep(lambda t: l, rho0, grid, mode="expm"),
], ids=["static", "rk4", "expm"])


def damping_liouvillian(gamma=1.0, omega=0.0):
    spec = DissipatorSpec(channels=[Channel(Q["sm"], gamma)])
    return liouvillian(0.5 * omega * Q["sz"], build_dissipator(spec))


def driven_master():
    """The driven qubit at Omega = 0.6 in an ohmic bath at T = 0.6."""
    p = JCParams.with_rabi(1.0, 0.1, 0.6, 2.0)
    bath = BathSpec(temperature=0.6, model="ohmic", eta=0.35, omega_cut=15.0)
    return DrivenQubitMasterEquation(p, bath)


def driven_damped_qubit():
    """L(t) of the driven qubit damped by F_-(t) with invariant W(t)
    dephasing, and the exact state at t from |g>.

    Covariance makes the driven qubit static in the frame rotating at wc:
    rho(t) = V e^{L_rot t}[rho0] V^dag, L_rot = L(0) + i[wc sz / 2, .].
    """
    master = driven_master()
    p, l_of_t = master.params, master.generator
    l_rot = l_of_t(0.0).data + 1j * commutator_super(0.5 * p.omega_c * Q["sz"]).data

    def exact(t):
        y = matrix_exp(l_rot * t) @ vec(GROUND.data)
        v = matrix_exp(-0.5j * p.omega_c * t * Q["sz"])
        return v @ unvec(y, 2) @ v.conj().T

    return l_of_t, exact


def generators_at_d10():
    """Two 100 x 100 generators at d = 10: L0 of a random H with one
    triangular jump, and the commutator part L1 of a diagonal drive."""
    d = 10
    rng = np.random.default_rng(10)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jump = np.triu(rng.normal(size=(d, d)), 1).astype(complex)
    dissipator = build_dissipator(DissipatorSpec(channels=[Channel(jump, 0.3)]))
    l0 = liouvillian(0.5 * (h + h.conj().T), dissipator).data
    l1 = -1j * commutator_super(np.diag(np.arange(d, dtype=float))).data
    return l0, l1


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ContractError):
            TimeGrid(1.0, 0.5, 10)
        with pytest.raises(ContractError):
            TimeGrid(0.0, 1.0, 0)

    def test_times(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25


class TestEvolveStatic:
    def test_zero_generator_constant(self):
        traj = evolve_static(Superoperator(np.zeros((4, 4))), EXCITED, TimeGrid(0, 1, 10))
        for st in traj.states:
            assert np.max(np.abs(st.data - EXCITED.data)) < 1e-14

    def test_amplitude_damping_decay(self):
        traj = evolve_static(damping_liouvillian(1.0), EXCITED, TimeGrid(0, 5, 200))
        pops = np.array([st.data[1, 1].real for st in traj.states])
        assert np.max(np.abs(pops - np.exp(-traj.times))) < 1e-8

    def test_converges_to_detailed_balance_fixed_point(self):
        beta, omega, gamma = 1.0, 1.0, 1.0
        eset = static_eigenoperators(0.5 * omega * Q["sz"])
        down = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs,
                                              eset.invariant_flags) if not inv and f > 0][0]
        (gd, gu), = detailed_balance_rates([down[1]], beta, [gamma])
        spec = DissipatorSpec(channels=[Channel(down[0], gd, gu)])
        l_super = liouvillian(0.5 * omega * Q["sz"], build_dissipator(spec))
        traj = evolve_static(l_super, EXCITED, TimeGrid(0, 20 / gamma, 400))
        target = fixed_point(spec, eset).state
        dist = np.max(np.abs(traj.states[-1].data - target.data))
        assert dist < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        traj = evolve_static(damping_liouvillian(0.7, omega=1.3), EXCITED,
                             TimeGrid(0, 4, 100))
        for st in traj.states:
            assert abs(np.trace(st.data) - 1) < 1e-8
            assert np.max(np.abs(st.data - st.data.conj().T)) < 1e-9

    def test_state_rows_memory_at_d10(self):
        # the steps write vec(rho) into one (T, d^2) array that the checks
        # read in place, peaking at 4.2x the stack; a list of rows copied
        # into an array peaked at 5.3x
        l_super = Superoperator(generators_at_d10()[0])
        rho0 = DensityMatrix(np.eye(10) / 10)
        tracemalloc.start()
        try:
            traj = evolve_static(l_super, rho0, TimeGrid(0.0, 10.0, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * traj.rhos.nbytes, f"peak {peak / traj.rhos.nbytes:.2f}x the stack"

    def test_semigroup_composition(self):
        l_super = damping_liouvillian(0.5, omega=0.8)
        full = evolve_static(l_super, EXCITED, TimeGrid(0, 2.0, 8)).states[-1]
        half = evolve_static(l_super, EXCITED, TimeGrid(0, 1.2, 6)).states[-1]
        rest = evolve_static(l_super, half, TimeGrid(1.2, 2.0, 2)).states[-1]
        assert np.max(np.abs(full.data - rest.data)) < 1e-10


class TestEvolveTimedep:
    def test_static_consistency(self):
        l_super = damping_liouvillian(0.8, omega=1.1)
        grid = TimeGrid(0, 3, 600)
        a = evolve_static(l_super, EXCITED, grid)
        b = evolve_timedep(lambda t: l_super, EXCITED, grid)
        assert np.max(np.abs(a.states[-1].data - b.states[-1].data)) < 1e-8

    def test_rabi_matches_closed_form(self):
        p = JCParams(1.0, 1.2, 0.2, 1.5 * np.exp(0.4j))
        zero = Superoperator(np.zeros((4, 4)))

        def l_of_t(t):
            return liouvillian(jc_semiclassical_hamiltonian(t, p), zero)

        grid = TimeGrid(0.0, 6.0, 3000)
        traj = evolve_timedep(l_of_t, GROUND, grid)
        u = jc_semiclassical_propagator(6.0, p)
        expected = u @ GROUND.data @ u.conj().T
        assert np.max(np.abs(traj.states[-1].data - expected)) < 1e-7

    def test_attractor_distance_decreases_in_rotating_frame(self):
        master = driven_master()
        p, target = master.params, master.attractor().state
        grid = TimeGrid(0.0, 30.0, 6000)
        traj = evolve_timedep(master.generator, GROUND, grid)
        dists = []
        for t, st in zip(traj.times[::1000], traj.states[::1000]):
            u = jc_semiclassical_propagator(t, p)
            rot = u.conj().T @ st.data @ u
            dists.append(np.max(np.abs(rot - target.data)))
        assert all(b < a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.05 * dists[0]

    def test_step_halving_order(self):
        l_super = damping_liouvillian(0.9, omega=1.7)
        coarse = evolve_timedep(lambda t: l_super, EXCITED, TimeGrid(0, 2, 40))
        fine = evolve_timedep(lambda t: l_super, EXCITED, TimeGrid(0, 2, 160))
        exact = evolve_static(l_super, EXCITED, TimeGrid(0, 2, 1)).states[-1]
        err_c = np.max(np.abs(coarse.states[-1].data - exact.data))
        err_f = np.max(np.abs(fine.states[-1].data - exact.data))
        assert err_c / err_f >= 8.0
        assert coarse.metadata["step_halving_error"] > 0

    @pytest.mark.parametrize("mode", ["rk4", "expm"])
    def test_step_halving_estimate_is_honest(self, mode):
        l_of_t, exact = driven_damped_qubit()
        t_end = 6.0
        traj = evolve_timedep(l_of_t, GROUND, TimeGrid(0.0, t_end, 100), mode=mode)
        actual = np.max(np.abs(vec(traj.states[-1].data) - vec(exact(t_end))))
        ratio = traj.metadata["step_halving_error"] / actual
        assert 0.5 < ratio < 2.0

    @pytest.mark.parametrize("mode", ["rk4", "expm"])
    @pytest.mark.parametrize("steps", [41, 161, 201])
    def test_odd_step_estimate_is_honest(self, mode, steps):
        # for odd N the coarse run ends at t_{N-1}; the estimate is of the
        # fine run's error there
        l_of_t, exact = driven_damped_qubit()
        traj = evolve_timedep(l_of_t, GROUND, TimeGrid(0.0, 6.0, steps), mode=mode)
        k = 2 * (steps // 2)
        actual = np.max(np.abs(traj.states[k].data - exact(traj.times[k])))
        ratio = traj.metadata["step_halving_error"] / actual
        assert 0.5 < ratio < 2.0

    @pytest.mark.parametrize("mode", ["rk4", "expm"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 40, 99, 100, 101, 199, 200, 201, 401])
    def test_one_generator_call_per_time(self, mode, steps):
        l_of_t, _ = driven_damped_qubit()
        calls = []

        def counting(t):
            calls.append(t)
            return l_of_t(t).data

        grid = TimeGrid(0.0, 1.0, steps)
        traj = evolve_timedep(counting, GROUND, grid, mode=mode)
        expected = 2 * steps + 1 if mode == "rk4" else 1 + steps + steps // 2
        assert len(calls) == expected
        assert all(a < b for a, b in zip(calls, calls[1:])), calls
        # tidied as the library tidies its states: the raw oracle's trace
        # drifts by 1.4e-14 over 401 expm steps
        oracle = propagate._checked_states(
            list(three_call_sweep_oracle(counting, vec(GROUND.data), grid.times(), mode)),
            GROUND, grid.times())
        assert np.max(np.abs(traj.rhos - oracle)) < 1e-14
        # 100-step blocks here, which keep the per-step loop's bits
        per_step = per_step_rk4_oracle if mode == "rk4" else per_step_expm_oracle
        rhos, err = per_step(counting, GROUND, grid)
        assert traj.rhos.tobytes() == rhos.tobytes()
        assert traj.metadata["step_halving_error"] == err

    def test_rk4_block_memory_at_d10(self):
        # L is 100 x 100: 100-step blocks would hold over 100 MB, so the
        # block length follows D, here 6 steps, and the shorter blocks keep
        # the per-step bits
        l0, l1 = generators_at_d10()
        rho0 = DensityMatrix(np.eye(10) / 10)
        grid = TimeGrid(0.0, 0.2, 200)

        def generator(t):
            return l0 + math.cos(t) * l1

        tracemalloc.start()
        try:
            traj = evolve_timedep(generator, rho0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= propagate._RK4_BLOCK_BYTES + 2 * 2**20
        rhos, err = per_step_rk4_oracle(generator, rho0, grid)
        assert traj.rhos.tobytes() == rhos.tobytes()
        assert traj.metadata["step_halving_error"] == err

    def test_expm_block_memory_at_d10(self):
        # the exponentials of a block hold matrix_exp's Pade temporaries as
        # well as the generators, so the block length is 4 steps here, and
        # the blocks keep the per-step bits
        l0, l1 = generators_at_d10()
        rho0 = DensityMatrix(np.eye(10) / 10)
        grid = TimeGrid(0.0, 0.2, 201)

        def generator(t):
            return l0 + math.cos(t) * l1

        tracemalloc.start()
        try:
            traj = evolve_timedep(generator, rho0, grid, mode="expm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= propagate._RK4_BLOCK_BYTES + 2 * 2**20
        rhos, err = per_step_expm_oracle(generator, rho0, grid)
        assert traj.rhos.tobytes() == rhos.tobytes()
        assert traj.metadata["step_halving_error"] == err

    @pytest.mark.parametrize("bad", [
        lambda t: np.full((4, 4), np.nan, dtype=complex),
        lambda t: 1e300 * driven_master().generator(t).data,
        lambda t: 1e300 * np.eye(4, dtype=complex),
    ], ids=["nan", "scaled-generator", "scaled-identity"])
    def test_expm_of_non_finite_generator_drifts_trace(self, bad):
        # from t = 0.5 on the step maps are NaN, or overflow in matrix_exp's
        # squarings, with no RuntimeWarning (the suite makes one an error);
        # the trace check names the first state they reach
        good = driven_master().generator

        def l_of_t(t):
            return good(t).data if t < 0.5 else bad(t)

        with pytest.raises(IntegrationError, match=r"^trace drifted to nan at t=0\.75$"):
            evolve_timedep(l_of_t, GROUND, TimeGrid(0, 1, 4), mode="expm")

    def test_rk4_maps_of_an_empty_stack(self):
        empty = np.empty((0, 4, 4), dtype=complex)
        assert propagate._rk4_maps(empty, empty, empty, 0.1).shape == (0, 4, 4)

    def test_rejects_badly_shaped_generator(self):
        good = damping_liouvillian(0.5)

        def l_of_t(t):
            return good if t < 0.5 else np.eye(9, dtype=complex)

        with pytest.raises(DimensionError, match=r"t=0\.5.*\(9, 9\)"):
            evolve_timedep(l_of_t, EXCITED, TimeGrid(0, 1, 4))

    def test_trace_check_names_the_stage(self):
        bad = Superoperator(np.eye(4, dtype=complex), 2)
        with pytest.raises(ContractError, match="generator at t=0 is not trace"):
            evolve_timedep(lambda t: bad, EXCITED, TimeGrid(0, 1, 10))
        with pytest.raises(ContractError, match="generator at t=const is not trace"):
            evolve_static(bad, EXCITED, TimeGrid(0, 1, 10))
        nan = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(ContractError, match="generator at t=0 is not trace"):
            evolve_timedep(lambda t: nan, EXCITED, TimeGrid(0, 1, 10))

    def test_expm_mode(self):
        l_super = damping_liouvillian(0.6, omega=0.9)
        grid = TimeGrid(0, 2, 100)
        a = evolve_timedep(lambda t: l_super, EXCITED, grid, mode="expm")
        b = evolve_static(l_super, EXCITED, grid)
        assert np.max(np.abs(a.states[-1].data - b.states[-1].data)) < 1e-12

    @pytest.mark.parametrize("mode, t_bad", [("rk4", "0.5"), ("expm", "0.6")])
    def test_trace_drift_names_t(self, mode, t_bad):
        # trace-preserving at t0, where the generator is checked, and not from
        # t = 0.5 on; rk4 first uses L(0.5) on the step to 0.5, expm on the
        # step whose midpoint is 0.55
        good = damping_liouvillian(0.5)
        bad = Superoperator(np.eye(4, dtype=complex), 2)
        with pytest.raises(IntegrationError, match=rf"trace drifted .* at t={t_bad}"):
            evolve_timedep(lambda t: good if t < 0.5 - 1e-12 else bad, EXCITED,
                           TimeGrid(0, 1, 10), mode=mode)

    def test_rejects_trace_violating_generator(self):
        bad = Superoperator(np.eye(4, dtype=complex), 2)
        with pytest.raises(ContractError):
            evolve_timedep(lambda t: bad, EXCITED, TimeGrid(0, 1, 10))


@functools.lru_cache(maxsize=None)
def thermal_trajectory_d6():
    """A d = 6 trajectory under every downward transition of a random
    Hamiltonian H as a detailed-balance channel, from a random pure state,
    with H and a random unitary U (seed 3)."""
    d = 6
    rng = np.random.default_rng(3)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T) / math.sqrt(d)
    eset = static_eigenoperators(h)
    down = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs, eset.invariant_flags)
            if not inv and f > 0]
    rates = detailed_balance_rates([f for _, f in down], 1.0,
                                   rng.uniform(0.2, 0.8, size=len(down)))
    spec = DissipatorSpec(channels=[Channel(op, g, grev)
                                    for (op, _), (g, grev) in zip(down, rates)])
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    traj = evolve_static(liouvillian(h, build_dissipator(spec)),
                         DensityMatrix.from_ket(psi / np.linalg.norm(psi)), TimeGrid(0.0, 2.0, 40))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return traj, h, u


def rotated_diagonal(u, c):
    """U c diag(0, 1, ..., d - 1) U^dag, Hermitian up to rounding."""
    return u @ (c * np.diag(np.arange(float(len(u))))) @ u.conj().T


class TestSeries:
    def test_scaled_hamiltonian_series_is_real(self):
        # tr(c H rho) has an imaginary part of about 6e-9 at c = 1e8, which
        # an absolute 1e-10 bound rejected
        traj, h, _ = thermal_trajectory_d6()
        vals = expectation_series(traj, 1e8 * h)
        assert vals.dtype.kind == "f"

    @pytest.mark.parametrize("c", [1.0, 1e4])
    def test_rotated_diagonal_series_is_real(self, c):
        # |O - O^dag| is about 2e-12 at c = 1e4, which an absolute 1e-12
        # bound took for a non-Hermitian observable
        traj, _, u = thermal_trajectory_d6()
        assert expectation_series(traj, rotated_diagonal(u, c)).dtype.kind == "f"

    @settings(max_examples=40, deadline=None)
    @given(log_c=st.floats(-6.0, 8.0), kind=st.sampled_from(["hamiltonian", "rotated",
                                                            "non-hermitian"]))
    def test_decision_independent_of_unit(self, log_c, kind):
        traj, h, u = thermal_trajectory_d6()
        # a non-Hermitian part of relative size 1e-3 stays far above the
        # bound at every c
        skew = 1e-3j * np.triu(np.ones((6, 6)))
        base = {"hamiltonian": h, "rotated": rotated_diagonal(u, 1.0),
                "non-hermitian": rotated_diagonal(u, 1.0) + skew}[kind]
        want = expectation_series(traj, base)
        got = expectation_series(traj, 10.0 ** log_c * base)
        assert got.dtype == want.dtype
        assert want.dtype.kind == ("c" if kind == "non-hermitian" else "f")

    def test_identity_expectation(self):
        traj = evolve_static(damping_liouvillian(0.5), EXCITED, TimeGrid(0, 2, 20))
        vals = expectation_series(traj, np.eye(2))
        assert np.max(np.abs(vals - 1.0)) < 1e-10

    def test_resonant_rabi_sigma_z(self):
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 4.0)
        zero = Superoperator(np.zeros((4, 4)))

        def l_of_t(t):
            return liouvillian(jc_semiclassical_hamiltonian(t, p), zero)

        grid = TimeGrid(0.0, 2 * math.pi, 4000)
        traj = evolve_timedep(l_of_t, GROUND, grid)
        vals = expectation_series(traj, Q["sz"])
        assert np.max(np.abs(vals - (-np.cos(p.rabi * traj.times)))) < 1e-6

    def test_w_constant_on_free_evolution(self):
        p = JCParams(1.0, 1.25, 0.24, 1.7 * np.exp(0.6j))
        _, _, w = jc_eigenoperators(p)
        rho0 = DensityMatrix.from_ket([1, 0.6])
        times = np.linspace(0.0, 9.0, 40)
        vals = []
        for t in times:
            u = jc_semiclassical_propagator(t, p)
            vals.append(np.trace(w(t).data @ (u @ rho0.data @ u.conj().T)).real)
        assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-8

    def test_fidelity_series_identical(self):
        traj = evolve_static(damping_liouvillian(0.5), EXCITED, TimeGrid(0, 1, 10))
        assert np.max(np.abs(fidelity_series(traj, traj) - 1.0)) < 1e-10

    def test_fidelity_series_orthogonal(self):
        grid = TimeGrid(0, 1, 5)
        a = evolve_static(Superoperator(np.zeros((4, 4))), EXCITED, grid)
        b = evolve_static(Superoperator(np.zeros((4, 4))), GROUND, grid)
        assert np.max(fidelity_series(a, b)) < 1e-10

    def test_fidelity_series_grid_mismatch(self):
        a = evolve_static(Superoperator(np.zeros((4, 4))), EXCITED, TimeGrid(0, 1, 5))
        b = evolve_static(Superoperator(np.zeros((4, 4))), EXCITED, TimeGrid(0, 1, 6))
        with pytest.raises(DimensionError):
            fidelity_series(a, b)

    def test_fidelity_series_grids_one_ulp_apart_near_1e5(self):
        # grids that start one ulp apart at t = 1e5 differ by 1.5e-11, which
        # an absolute 1e-12 bound took for another grid; the bound is
        # 1e-12 max(1, max|t|), so a change of time unit changes no decision
        t0 = 1e5
        zero = Superoperator(np.zeros((4, 4)))
        a = evolve_static(zero, EXCITED, TimeGrid(t0, t0 + 1.0, 5))
        b = evolve_static(zero, EXCITED, TimeGrid(np.nextafter(t0, np.inf), t0 + 1.0, 5))
        assert 1e-12 < np.max(np.abs(a.times - b.times)) <= 1e-12 * t0
        assert np.array_equal(fidelity_series(a, b), np.ones(6))
        shifted = evolve_static(zero, EXCITED, TimeGrid(t0 + 2e-7, t0 + 1.0, 5))
        with pytest.raises(DimensionError, match="not on the same grid"):
            fidelity_series(a, shifted)

    def test_fidelity_series_matches_pairwise(self):
        a = evolve_static(damping_liouvillian(0.5, omega=1.1), EXCITED, TimeGrid(0, 2, 30))
        b = evolve_static(damping_liouvillian(0.9), GROUND, TimeGrid(0, 2, 30))
        pairwise = [uhlmann_fidelity(x, y) for x, y in zip(a.states, b.states)]
        assert np.array_equal(fidelity_series(a, b), pairwise)

    def test_hermitian_observable_gives_real(self):
        traj = evolve_static(damping_liouvillian(0.4, omega=0.5), EXCITED,
                             TimeGrid(0, 1, 10))
        vals = expectation_series(traj, Q["sx"])
        assert vals.dtype.kind == "f"


class TestPositivityMonitor:
    def test_invalid_generator_breaches_positivity(self):
        # a negative-rate channel is not CPTP; the monitor must flag it
        bad = -build_dissipator(DissipatorSpec(channels=[Channel(Q["sm"], 1.0)])).data
        from covlind.errors import PositivityError
        with pytest.raises(PositivityError):
            evolve_timedep(lambda t: bad, EXCITED, TimeGrid(0, 4.0, 200))


class TestStateChecks:
    @EVOLVERS
    def test_eigvalsh_calls_do_not_grow_with_steps(self, monkeypatch, evolve):
        # the integrated states are checked as one stack, not one by one;
        # a qubit stack's smallest eigenvalues take a closed form, so the
        # checks are counted where eigvalsh would be called
        l_super = damping_liouvillian(0.7, omega=1.3)
        eigvalsh, min_eigenvalues = np.linalg.eigvalsh, operators._min_eigenvalues
        calls = []

        def counting(real):
            def count(a, *args, **kwargs):
                calls.append(np.shape(a))
                return real(a, *args, **kwargs)
            return count

        monkeypatch.setattr(np.linalg, "eigvalsh", counting(eigvalsh))
        monkeypatch.setattr(operators, "_min_eigenvalues", counting(min_eigenvalues))
        monkeypatch.setattr(propagate, "_min_eigenvalues", counting(min_eigenvalues))
        counts = []
        for steps in (10, 200):
            calls.clear()
            traj = evolve(l_super, EXCITED, TimeGrid(0, 2, steps))
            assert len(traj.states) == steps + 1
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("mode", ["rk4", "expm"])
    def test_states_are_read_only_rows_of_one_stack(self, monkeypatch, mode):
        # each state wraps its row of the checked stack without a copy: the
        # same bytes as a copying wrap, read-only, and no Operator built
        l_super = damping_liouvillian(0.7, omega=1.3)
        grid = TimeGrid(0, 2, 40)
        post_init = Operator.__post_init__
        calls = []

        def counting(self):
            calls.append(type(self))
            post_init(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        traj = evolve_timedep(lambda t: l_super, EXCITED, grid, mode=mode)
        monkeypatch.undo()
        assert calls == []
        states = traj.states[1:]
        assert all(type(s) is DensityMatrix and s.dims == (2,) for s in states)
        assert not any(s.data.flags.writeable for s in states)
        assert len({id(s.data.base) for s in states}) == 1
        with pytest.raises(ValueError, match="read-only"):
            states[0].data[0, 0] = 1.0

        def copying_wrap(cls, data, dims=()):
            state = object.__new__(cls)
            object.__setattr__(state, "data", data)
            object.__setattr__(state, "dims", dims)
            Operator.__post_init__(state)
            return state

        monkeypatch.setattr(DensityMatrix, "_wrap", classmethod(copying_wrap))
        copied = evolve_timedep(lambda t: l_super, EXCITED, grid, mode=mode)
        assert np.array([s.data for s in states]).tobytes() == \
            np.array([s.data for s in copied.states[1:]]).tobytes()


class TestTrajectoryStack:
    @EVOLVERS
    def test_rhos_is_one_read_only_stack_led_by_rho0(self, evolve):
        grid = TimeGrid(0, 2, 25)
        traj = evolve(damping_liouvillian(0.7, omega=1.3), RAW_RHO0, grid)
        assert type(traj.rhos) is np.ndarray and traj.rhos.shape == (26, 2, 2)
        assert len(traj) == 26 and traj.dims == (2,)
        assert not traj.rhos.flags.writeable
        assert traj.rhos[0].tobytes() == RAW_RHO0.data.tobytes()
        assert all(np.shares_memory(s.data, traj.rhos) for s in traj.states)
        with pytest.raises(ValueError, match="read-only"):
            traj.rhos[-1, 0, 0] = 1.0

    @EVOLVERS
    def test_no_wrapper_built_in_propagation_or_series(self, monkeypatch, evolve):
        l_super = damping_liouvillian(0.7, omega=1.3)
        calls = []
        monkeypatch.setattr(Operator, "__post_init__", lambda self: calls.append(self))
        monkeypatch.setattr(DensityMatrix, "_wrap",
                            classmethod(lambda cls, data, dims=(): calls.append(data)))
        a = evolve(l_super, EXCITED, TimeGrid(0, 2, 30))
        b = evolve(l_super, GROUND, TimeGrid(0, 2, 30))
        expectation_series(a, [Q["sx"], Q["sz"]])
        fidelity_series(a, b)
        assert calls == []

    @EVOLVERS
    def test_rhos_bytes_are_rho0_then_the_validated_stack(self, monkeypatch, evolve):
        # replay of the list of states the stack replaces: rho0 as given,
        # then one validate_states call on the integrated rows
        checked = propagate._checked_states
        seen = []

        def recording(ys, rho0, times):
            seen.append(list(ys))
            return checked(ys, rho0, times)

        monkeypatch.setattr(propagate, "_checked_states", recording)
        traj = evolve(damping_liouvillian(0.7, omega=1.3), RAW_RHO0, TimeGrid(0, 2, 40))
        rows = np.array(seen[0][1:]).reshape(-1, 2, 2).swapaxes(-1, -2)
        tidied = operators.validate_states(rows, propagate.TRACE_DRIFT_TOL, 1e-9,
                                           propagate.POSITIVITY_BREACH)
        states = [RAW_RHO0] + [DensityMatrix._wrap(a, (2,)) for a in tidied]
        assert traj.rhos.tobytes() == np.array([s.data for s in states]).tobytes()
        assert len(traj) == len(states) == len(traj.times)
