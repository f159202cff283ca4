import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from covlind import (
    DrivenGenerator,
    JCParams,
    frequency_eigenoperators,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    monodromy_eigenoperators,
    qubit_ops,
    static_eigenoperators,
    verify_eigenoperator,
    vec,
)
from covlind.eigenoperators import (
    DegeneracyWarning,
    deviation_up_to_phase,
    hermitian_unitary,
    integrate_unitary,
)
from covlind import eigenoperators
from covlind.errors import ContractError, DimensionError, IntegrationError
from covlind.propagate import TimeGrid
from oracles import (
    frequency_kernel_oracle,
    monodromy_kron_oracle,
    random_hermitian,
    static_eigenoperators_oracle,
    unitary_path_oracle,
)

Q = qubit_ops()
RNG = np.random.default_rng(77)


def op_vectors(eset):
    """The rows vec(op) of a set's eigenoperators."""
    return np.array([vec(op) for op in eset.ops])


def invariants(eset):
    return [op for op, inv in zip(eset.ops, eset.invariant_flags) if inv]


def rabi_params(delta=0.1, rabi=0.4, alpha=2.0 * np.exp(0.4j)):
    return JCParams.with_rabi(1.0, delta, rabi, alpha)


def rabi_generator(p):
    return DrivenGenerator(lambda t: jc_semiclassical_hamiltonian(t, p),
                           period=2 * np.pi / p.omega_c)


def unit_scaled_levels(c):
    """Q diag(c [0, 0.9, 1.7, 3.1]) Q^dag for a fixed random unitary Q: at
    c = 1e6 |H - H^dag| is 1.16e-10, 7e-17 of max |H|."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q @ np.diag(c * np.array([0.0, 0.9, 1.7, 3.1])) @ q.conj().T


class TestStatic:
    def test_qubit_transitions(self):
        omega_eg = 1.3
        eset = static_eigenoperators(0.5 * omega_eg * Q["sz"])
        lowering = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs,
                                                  eset.invariant_flags) if not inv]
        assert len(lowering) == 2
        by_freq = {round(f, 9): op for op, f in lowering}
        assert set(by_freq) == {omega_eg, -omega_eg}
        # |g><e| carries the positive Bohr frequency
        assert deviation_up_to_phase(by_freq[omega_eg].data, Q["sm"]) < 1e-12
        assert deviation_up_to_phase(by_freq[-omega_eg].data, Q["sp"]) < 1e-12

    def test_jc_block_dressed_splitting(self):
        p = JCParams(1.0, 1.4, 0.3, 0.0)
        n = 2
        block = (n * p.omega_c * np.eye(2) - 0.5 * p.delta * np.array([[1, 0], [0, -1]])
                 + math.sqrt(n) * p.g * Q["sx"])
        eset = static_eigenoperators(block)
        freqs = sorted(f for f, inv in zip(eset.freqs, eset.invariant_flags) if not inv)
        omega_n = math.sqrt(p.delta ** 2 + 4 * p.g ** 2 * n)
        assert np.allclose(freqs, [-omega_n, omega_n], atol=1e-12)

    def test_fully_degenerate_hamiltonian(self):
        eset = static_eigenoperators(np.eye(3))
        assert len(eset.non_invariant()) == 0
        # projectors span the diagonal subalgebra
        stack = np.array([vec(p.data) for p in eset.projectors])
        assert np.linalg.matrix_rank(stack) == 3

    def test_rejects_nan_hamiltonian(self):
        # NaN used to pass the Hermiticity check and give NaN Bohr frequencies
        with pytest.raises(ContractError, match="not Hermitian"):
            static_eigenoperators(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("c", [1e6, 1e8])
    def test_hermiticity_does_not_depend_on_the_unit_of_time(self, c):
        # rejected with "hermitian_eig input is not Hermitian (1.16e-10)" at
        # c = 1e6 and (1.49e-08) at c = 1e8 while the bound was absolute
        eset = static_eigenoperators(unit_scaled_levels(c))
        ref = static_eigenoperators(unit_scaled_levels(1.0))
        assert np.max(np.abs(eset.freqs / c - ref.freqs)) < 1e-12

    def test_completeness_and_orthonormality(self):
        h = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        h = 0.5 * (h + h.conj().T)
        eset = static_eigenoperators(h)
        vs = op_vectors(eset)
        assert np.linalg.matrix_rank(vs, tol=1e-8) == 16
        assert np.max(np.abs(vs.conj() @ vs.T - np.eye(len(eset.ops)))) < 1e-8


class TestMonodromy:
    def test_static_recovers_transitions(self):
        # T = 2.0 keeps |theta| < pi so the principal branch is exact
        gen = DrivenGenerator(lambda t: 0.5 * Q["sz"], period=2.0)
        eset = monodromy_eigenoperators(gen)
        non = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs,
                                             eset.invariant_flags) if not inv]
        freqs = sorted(f for _, f in non)
        assert np.allclose(freqs, [-1.0, 1.0], atol=1e-9)
        by_freq = {round(f): op for op, f in non}
        # Heisenberg convention: the raising operator carries +omega_eg
        assert deviation_up_to_phase(by_freq[1].data, Q["sp"]) < 1e-7
        assert deviation_up_to_phase(by_freq[-1].data, Q["sm"]) < 1e-7
        invs = invariants(eset)
        assert len(invs) == 2
        assert deviation_up_to_phase(invs[0].data, np.eye(2) / math.sqrt(2)) < 1e-9
        assert deviation_up_to_phase(invs[1].data, Q["sz"] / math.sqrt(2)) < 1e-7

    def test_static_agrees_with_static_eigenoperators(self):
        h = 0.5 * 1.3 * Q["sz"]
        period = 1.7  # below pi / max Bohr frequency
        eset_m = monodromy_eigenoperators(DrivenGenerator(lambda t: h, period=period))
        eset_s = static_eigenoperators(h)
        for op, f, inv in zip(eset_m.ops, eset_m.freqs, eset_m.invariant_flags):
            if inv:
                continue
            # static sets are labeled by Bohr frequency = -heisenberg lambda
            matches = [s_op for s_op, s_f, s_inv in zip(eset_s.ops, eset_s.freqs,
                                                        eset_s.invariant_flags)
                       if not s_inv and abs(-s_f - f) < 1e-7]
            assert len(matches) == 1
            assert deviation_up_to_phase(op.data, matches[0].data) < 1e-7

    def test_jc_matches_analytic_eigenoperators(self):
        p = rabi_params()
        eset = monodromy_eigenoperators(rabi_generator(p))
        f_plus, f_minus, _ = jc_eigenoperators(p)
        non = [(op, f) for op, f, inv in zip(eset.ops, eset.freqs,
                                             eset.invariant_flags) if not inv]
        freqs = sorted(f for _, f in non)
        assert np.allclose(freqs, [-p.rabi, p.rabi], atol=1e-7)
        for target, lam in ((f_plus(0.0), p.rabi), (f_minus(0.0), -p.rabi)):
            best = min(deviation_up_to_phase(op.data, target.data) for op, f in non
                       if abs(f - lam) < 1e-6)
            assert best < 1e-7

    def test_zero_hamiltonian_all_invariant(self):
        gen = DrivenGenerator(lambda t: np.zeros((2, 2)), period=1.0)
        # a fully degenerate generator legitimately trips the fold warning
        with pytest.warns(DegeneracyWarning):
            eset = monodromy_eigenoperators(gen)
        assert all(eset.invariant_flags)
        assert np.linalg.matrix_rank(op_vectors(eset), tol=1e-8) == 4

    def test_degenerate_warning_at_folding(self):
        # rabi = omega_c makes exp(i Omega T) collide with the invariants
        p = JCParams.with_rabi(1.0, 0.0, 1.0, 2.0)
        with pytest.warns(DegeneracyWarning):
            eset = monodromy_eigenoperators(rabi_generator(p))
            _ = eset

    def test_non_finite_monodromy_fails_unitarity(self, monkeypatch):
        # a NaN residual must fail the check, not slip past `resid > tol`
        monkeypatch.setattr(eigenoperators, "integrate_unitary",
                            lambda *args: np.full((2, 2), np.nan))
        with pytest.raises(IntegrationError, match="not unitary"):
            monodromy_eigenoperators(DrivenGenerator(lambda t: Q["sz"], period=1.0))

    def test_requires_period(self):
        with pytest.raises(ContractError):
            monodromy_eigenoperators(DrivenGenerator(lambda t: Q["sz"]))

    def test_w_invariant_recovered(self):
        p = rabi_params(delta=0.2, rabi=0.45)
        eset = monodromy_eigenoperators(rabi_generator(p))
        _, _, w = jc_eigenoperators(p)
        invs = invariants(eset)
        best = min(deviation_up_to_phase(op.data, w(0.0).data) for op in invs)
        assert best < 1e-7


def scaled_hermitian(d, rng, norm):
    h = random_hermitian(d, rng)
    return h * (norm / np.linalg.norm(h, 2))


def max_eigenrelation_residual(eset, u, period):
    return max(float(np.max(np.abs(u.conj().T @ op.data @ u
                                   - np.exp(1j * lam * period) * op.data)))
               for op, lam in zip(eset.ops, eset.freqs))


class CountingHamiltonian:
    def __init__(self, h_of_t):
        self.h_of_t, self.calls = h_of_t, 0

    def __call__(self, t):
        self.calls += 1
        return self.h_of_t(t)


class TestFloquetMonodromy:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    def test_random_drive_matches_kron_oracle(self, seed, d):
        # |H0| + |V| <= 0.35 keeps every |lambda| below pi / T = 1: nothing folds
        rng = np.random.default_rng(seed)
        h0, v = scaled_hermitian(d, rng, 0.25), scaled_hermitian(d, rng, 0.1)
        gen = DrivenGenerator(lambda t: h0 + math.cos(2.0 * t) * v, period=math.pi)
        eset = monodromy_eigenoperators(gen, steps=1024)
        ref = monodromy_kron_oracle(gen, steps=1024)
        assert np.max(np.abs(np.sort(eset.freqs) - np.sort(ref.freqs))) < 1e-9
        u = integrate_unitary(gen, 0.0, math.pi, 1024)
        assert max_eigenrelation_residual(eset, u, math.pi) < 1e-8
        vs = op_vectors(eset)
        assert len(eset.ops) == d * d and np.linalg.matrix_rank(vs, tol=1e-8) == d * d
        assert np.max(np.abs(vs.conj() @ vs.T - np.eye(d * d))) < 1e-10
        assert int(eset.invariant_flags.sum()) == d
        assert np.max(np.abs(invariants(eset)[0].data - np.eye(d) / math.sqrt(d))) < 1e-15

    def test_static_d40_beyond_former_cap(self):
        rng = np.random.default_rng(4040)
        h = scaled_hermitian(40, rng, 0.4)
        eset = monodromy_eigenoperators(DrivenGenerator(lambda t: h, period=2.0))
        assert len(eset.ops) == 1600 and int(eset.invariant_flags.sum()) == 40
        assert max_eigenrelation_residual(eset, hermitian_unitary(h, 2.0), 2.0) < 1e-8
        w = np.linalg.eigvalsh(h)
        bohr = [w[i] - w[j] for i in range(40) for j in range(40) if i != j]
        non_invariant = eset.freqs[~eset.invariant_flags]
        assert np.max(np.abs(np.sort(non_invariant) - np.sort(bohr))) < 1e-9

    def test_equally_spaced_spectrum_collides(self):
        # |0><1| and |1><2| share lambda = -0.3
        gen = DrivenGenerator(lambda t: np.diag([-0.3, 0.0, 0.3]), period=1.0)
        with pytest.warns(DegeneracyWarning, match="2-fold degenerate"):
            eset = monodromy_eigenoperators(gen)
        assert int(eset.invariant_flags.sum()) == 3
        assert np.linalg.matrix_rank(op_vectors(eset), tol=1e-8) == 9


def haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def floquet_phases(family, d, rng):
    """d eigenphases of a monodromy-like unitary, drawn from one family."""
    if family == "degenerate":  # 1 to d - 1 distinct phases, each repeated
        return rng.choice(rng.uniform(-math.pi, math.pi, rng.integers(1, d)), d)
    if family == "plus-minus":
        theta = rng.uniform(0.0, math.pi, (d + 1) // 2)
        return np.concatenate([theta, -theta])[:d]
    if family == "near-zero":
        return rng.uniform(-1e-3, 1e-3, d)
    # clusters 1e-9 wide about a few centres
    centres = rng.uniform(-math.pi, math.pi, rng.integers(1, d))
    return rng.choice(centres, d) + rng.uniform(-5e-10, 5e-10, d)


class TestFloquetStates:
    @pytest.mark.parametrize("family", ["haar", "degenerate", "plus-minus",
                                        "near-zero", "clusters"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 24), rotate=st.booleans())
    def test_matches_schur(self, family, seed, d, rotate):
        # unrotated, the eigenvalues of a diagonal unitary are exactly
        # degenerate where its phases are
        rng = np.random.default_rng(seed)
        if family == "haar":
            u = haar_unitary(d, rng)
        else:
            u = np.diag(np.exp(1j * floquet_phases(family, d, rng)))
            if rotate:
                v = haar_unitary(d, rng)
                u = v @ u @ v.conj().T
        z, u_diag = eigenoperators._floquet_states(u)
        assert np.max(np.abs(u @ z - z * u_diag)) <= 1e-12
        assert np.max(np.abs(z.conj().T @ z - np.eye(d))) <= 1e-12
        schur_diag = np.diag(scipy.linalg.schur(u, output="complex")[0])
        rows, cols = scipy.optimize.linear_sum_assignment(
            np.abs(u_diag[:, None] - schur_diag[None, :]))
        assert np.max(np.abs(u_diag[rows] - schur_diag[cols])) <= 1e-12


class TestHamiltonianCalls:
    def test_integrate_unitary(self):
        h = CountingHamiltonian(lambda t: math.cos(t) * Q["sx"])
        integrate_unitary(DrivenGenerator(h), 0.0, 1.0, 37)
        assert h.calls == 2 * 37 + 1

    def test_monodromy(self):
        h = CountingHamiltonian(lambda t: 0.5 * Q["sz"] + math.cos(2.0 * t) * Q["sx"])
        monodromy_eigenoperators(DrivenGenerator(h, period=math.pi), steps=512)
        assert h.calls == 2 * 512 + 1

    def test_verify_eigenoperator(self):
        h = CountingHamiltonian(lambda t: 0.5 * Q["sz"])
        verify_eigenoperator(Q["sm"], -1.0, DrivenGenerator(h), TimeGrid(0.0, 6.0, 30),
                             substeps=7)
        assert h.calls == 2 * 30 * 7 + 1


class TestFrequencyDomain:
    def test_omega_zero_reduction(self):
        h = np.diag([0.2, 0.9, 1.7])
        vals, _ = frequency_eigenoperators(h, 0.0)
        gaps = sorted(a - b for a in np.diag(h).real for b in np.diag(h).real)
        assert np.allclose(sorted(vals), gaps, atol=1e-12)

    def test_qubit_closed_form(self):
        delta, omega = 0.8, 0.3
        vals, _ = frequency_eigenoperators(0.5 * delta * Q["sz"], omega)
        expected = sorted([delta - omega, -delta - omega, -omega, -omega])
        assert np.allclose(sorted(vals), expected, atol=1e-12)

    def test_eigenvalues_real(self):
        h = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        h = 0.5 * (h + h.conj().T)
        vals, ops = frequency_eigenoperators(h, 0.77)
        assert np.all(np.isreal(vals))
        # kernel acts as [H, F] - omega F on the returned operators
        for val, op in zip(vals[:4], ops[:4]):
            resid = h @ op.data - op.data @ h - 0.77 * op.data - val * op.data
            assert np.max(np.abs(resid)) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", ["random", "ladder", "degenerate"])
    def test_matches_kernel_eigensolve(self, d, kind):
        rng = np.random.default_rng(10 * d + len(kind))
        levels = {"random": rng.normal(size=d), "ladder": 0.7 * np.arange(d),
                  "degenerate": rng.choice([0.0, 1.5], size=d)}[kind]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        h = (q * levels) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        omega = 0.37
        vals, ops = frequency_eigenoperators(h, omega)
        ref_vals, ref_ops = frequency_kernel_oracle(h, omega)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(levels))))
        assert np.max(np.abs(vals - ref_vals)) <= tol
        assert np.all(np.diff(vals) >= 0)
        vs = np.array([vec(op) for op in ops])
        ref_vs = np.array([vec(op) for op in ref_ops])
        # orthonormal, and each operator satisfies [H, F] - omega F = lambda F
        assert np.max(np.abs(vs.conj() @ vs.T - np.eye(d * d))) <= 1e-12
        for val, op in zip(vals, ops):
            f = op.data
            assert np.max(np.abs(h @ f - f @ h - omega * f - val * f)) <= 1e-10
        # the bases of a repeated value differ, but they span one eigenspace
        for block in np.split(np.arange(d * d), np.flatnonzero(np.diff(vals) > 1e-9) + 1):
            proj = vs[block].T @ vs[block].conj()
            ref_proj = ref_vs[block].T @ ref_vs[block].conj()
            assert np.max(np.abs(proj - ref_proj)) <= 1e-10

    def test_decomposes_only_d_by_d(self):
        h = random_hermitian(6, np.random.default_rng(6))
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            frequency_eigenoperators(h, 0.5)
        assert [c.args[0].shape for c in eigh.call_args_list] == [(6, 6)]


class TestVerifyEigenoperator:
    def test_static_lowering(self):
        gen = DrivenGenerator(lambda t: 0.5 * Q["sz"])
        grid = TimeGrid(0.0, 6.0, 60)
        # Heisenberg picture: |g><e| evolves with exp(-i omega t)
        assert verify_eigenoperator(Q["sm"], -1.0, gen, grid) < 1e-8

    def test_jc_analytic_over_ten_rabi_periods(self):
        p = rabi_params()
        gen = rabi_generator(p)
        f_plus, f_minus, _ = jc_eigenoperators(p)
        grid = TimeGrid(0.0, 10 * 2 * np.pi / p.rabi, 400)
        assert verify_eigenoperator(f_plus, p.rabi, gen, grid) < 1e-6
        assert verify_eigenoperator(f_minus, -p.rabi, gen, grid) < 1e-6

    def test_non_eigenoperator_control(self):
        gen = DrivenGenerator(lambda t: 0.5 * Q["sz"])
        grid = TimeGrid(0.0, 6.0, 30)
        assert verify_eigenoperator(Q["sx"], 1.0, gen, grid) > 0.5


    def test_nan_residual_is_reported(self):
        # NaN at the first grid point must survive the max over the rest
        gen = DrivenGenerator(lambda t: 0.5 * Q["sz"])
        grid = TimeGrid(0.0, 6.0, 60)
        first = grid.times()[1]

        def p_of_t(t):
            return np.full((2, 2), np.nan) if t == first else Q["sm"]

        assert math.isnan(verify_eigenoperator(p_of_t, -1.0, gen, grid))

    @pytest.mark.parametrize("p", [np.eye(3), lambda t: np.eye(3)], ids=["fixed", "callable"])
    def test_foreign_dimension_named(self, p):
        gen = DrivenGenerator(lambda t: 0.5 * Q["sz"])
        with pytest.raises(DimensionError, match="eigenoperator dimension 3 does not "
                                                 "match H\\(t\\) of dimension 2"):
            verify_eigenoperator(p, 0.0, gen, TimeGrid(0.0, 1.0, 4))

    def test_foreign_dimension_found_before_the_sweep(self):
        calls = []

        def h_of_t(t):
            calls.append(t)
            return 0.5 * Q["sz"] + 0.1 * np.cos(t) * Q["sx"]

        with pytest.raises(DimensionError, match="eigenoperator dimension 3"):
            verify_eigenoperator(np.eye(3), 0.0, DrivenGenerator(h_of_t),
                                 TimeGrid(0.0, 10.0, 400))
        # the sweep would make 2 * 400 * 40 + 1 = 32 001 calls
        assert len(calls) <= 2


class TestHeisenbergResiduals:
    @pytest.mark.parametrize("drive", ["static", "rabi"])
    def test_one_sweep_matches_separate_calls(self, drive):
        if drive == "static":
            gen = DrivenGenerator(lambda t: 0.5 * Q["sz"])
            grid = TimeGrid(0.0, 6.0, 30)
            pairs = [(Q["sm"], -1.0), (Q["sx"], 1.0)]
        else:
            p = rabi_params()
            gen = rabi_generator(p)
            f_plus, f_minus, w = jc_eigenoperators(p)
            grid = TimeGrid(0.0, 2 * 2 * np.pi / p.rabi, 80)
            pairs = [(f_plus, p.rabi), (f_minus, -p.rabi), (w, 0.0)]
        middle = grid.times()[grid.steps // 2]
        op0, lam0 = pairs[0]

        def nan_in_the_middle(t):
            if t == middle:
                return np.full((2, 2), np.nan)
            return op0(t) if callable(op0) else op0

        pairs.append((nan_in_the_middle, lam0))
        shared = eigenoperators._heisenberg_residuals(pairs, gen, grid, substeps=9)
        separate = [verify_eigenoperator(op, lam, gen, grid, substeps=9) for op, lam in pairs]
        assert np.array_equal(shared, separate, equal_nan=True)
        assert math.isnan(shared[-1]) and not np.isnan(shared[:-1]).any()


class TestIntegrateUnitary:
    def test_static_matches_exponential(self):
        h = 0.5 * Q["sz"]
        u = integrate_unitary(DrivenGenerator(lambda t: h), 0.0, 2.0, 2000)
        exact = np.diag([np.exp(1j * 1.0), np.exp(-1j * 1.0)])
        assert np.max(np.abs(u - exact)) < 1e-10

    def test_rabi_matches_closed_form(self):
        p = rabi_params(delta=0.3, rabi=0.9, alpha=1.5 * np.exp(1.1j))
        gen = rabi_generator(p)
        t1 = 7.3
        u = integrate_unitary(gen, 0.0, t1, 8000)
        assert np.max(np.abs(u - jc_semiclassical_propagator(t1, p))) < 1e-9

    @pytest.mark.parametrize("t1, steps, where", [
        (1.0, 10, "t = 1 (dt = 0.1)"),      # caught at the last step
        (25.0, 250, "t = 10 (dt = 0.1)"),   # caught at the 100th step's re-unitarisation
    ])
    def test_overflowing_sweep_names_t_and_dt(self, t1, steps, where):
        # |H dt| = 1e9: every RK4 step multiplies U by ~1e35
        gen = DrivenGenerator(lambda t: 1e10 * Q["sz"])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError) as exc:
            integrate_unitary(gen, 0.0, t1, steps)
        assert f"RK4 unitary sweep diverged by {where}" in str(exc.value)


    def test_drive_in_other_units_passes_the_hermiticity_check(self):
        # H x 1e6 over a time 1e-6 as long is the same sweep in other units;
        # each H(t) is off Hermitian by 1.16e-10, which the absolute bound
        # rejected at H(t=0.0)
        x = np.kron(Q["sx"], np.eye(2))

        def drive(c):
            hc = unit_scaled_levels(c)
            return DrivenGenerator(lambda t: hc + c * math.cos(c * t) * x)

        ref = eigenoperators._unitary_path(drive(1.0), 0.0, 2.0, 400, 4)
        got = eigenoperators._unitary_path(drive(1e6), 0.0, 2e-6, 400, 4)
        assert np.max(np.abs(got - ref)) < 1e-9


class TestFloquetTiling:
    """A sweep over whole drive periods integrates one and tiles the rest by
    U(t + n T) = U(t) U(t0 + T)^n."""

    def test_jc_defaults_match_the_untiled_sweep(self):
        p = JCParams.with_rabi(1.0, 0.0, 0.4, 2.0)
        h = CountingHamiltonian(lambda t: jc_semiclassical_hamiltonian(t, p))
        t1 = 10 * 2 * np.pi / p.rabi
        tiled = eigenoperators._unitary_path(DrivenGenerator(h, period=2 * np.pi),
                                             0.0, t1, 16_000, 40)
        assert h.calls == 2 * 640 + 1
        plain = eigenoperators._unitary_path(DrivenGenerator(h), 0.0, t1, 16_000, 40)
        assert np.max(np.abs(tiled - plain)) < 1e-12

    def test_random_drive_matches_dop853(self):
        rng = np.random.default_rng(606)
        d, t0, periods, m, every = 6, 0.3, 6, 128, 8
        h0, v = scaled_hermitian(d, rng, 1.0), scaled_hermitian(d, rng, 0.5)

        def h(t):
            return h0 + math.cos(2.0 * t) * v

        t1 = t0 + periods * math.pi
        counted = CountingHamiltonian(h)
        tiled = eigenoperators._unitary_path(DrivenGenerator(counted, period=math.pi),
                                             t0, t1, periods * m, every)
        assert counted.calls == 2 * m + 1
        plain = eigenoperators._unitary_path(DrivenGenerator(h), t0, t1, periods * m, every)
        times = t0 + (t1 - t0) / (periods * m) * np.arange(every, periods * m + 1, every)
        sol = scipy.integrate.solve_ivp(
            lambda t, y: (-1j * h(t) @ y.reshape(d, d)).reshape(-1), (t0, t1),
            np.eye(d, dtype=complex).reshape(-1), method="DOP853", rtol=1e-12, atol=1e-12,
            t_eval=times)
        ref = sol.y.T.reshape(-1, d, d)
        assert np.max(np.abs(tiled - ref)) < 1e-7
        assert np.max(np.abs(plain - ref)) < 1e-7

    def test_period_off_the_step_grid_is_not_tiled(self):
        rng = np.random.default_rng(7)
        h0, v = scaled_hermitian(3, rng, 1.0), scaled_hermitian(3, rng, 0.5)

        def h(t):
            return h0 + math.cos(2.0 * t) * v

        args = (0.3, 0.3 + 5 * math.pi, 5 * 64, 8)
        plain = eigenoperators._unitary_path(DrivenGenerator(h), *args)
        off = eigenoperators._unitary_path(DrivenGenerator(h, period=math.pi * (1 + 1e-9)),
                                           *args)
        assert off.tobytes() == plain.tobytes()
        on = eigenoperators._unitary_path(DrivenGenerator(h, period=math.pi), *args)
        assert on.tobytes() != plain.tobytes()

    def test_overflow_past_the_first_period_is_caught(self):
        # two finite steps (|U| ~ 1e70) per period; their fifth power overflows
        gen = DrivenGenerator(lambda t: 1e10 * Q["sz"], period=0.2)
        with pytest.raises(IntegrationError,
                           match=r"RK4 unitary sweep diverged by t = 1 \(dt = 0.1\)"):
            eigenoperators._unitary_path(gen, 0.0, 1.0, 10, 1)


class RecordingHamiltonian:
    def __init__(self, h_of_t):
        self.h_of_t, self.times = h_of_t, []

    def __call__(self, t):
        self.times.append(t)
        return self.h_of_t(t)


class TestBlockedSweep:
    """The sweep forms the RK4 maps of 100 steps at once and chains U through
    them; the per-step loop of ``unitary_path_oracle`` is its reference."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), periods=st.integers(1, 4),
           per_period=st.integers(1, 60), every=st.sampled_from([1, 2, 5, 8]),
           tiled=st.booleans(), pass_h0=st.booleans())
    @example(seed=1, d=2, periods=3, per_period=25, every=4, tiled=True, pass_h0=False)
    @example(seed=2, d=3, periods=1, per_period=37, every=7, tiled=False, pass_h0=True)
    def test_matches_the_per_step_oracle(self, seed, d, periods, per_period, every,
                                         tiled, pass_h0):
        # m = per_period * every steps per period, 1 to 480: block sizes that
        # are and are not multiples of 100, sweeps of one block and of several
        rng = np.random.default_rng(seed)
        h0, v = scaled_hermitian(d, rng, 1.0), scaled_hermitian(d, rng, 0.5)
        # dyadic t0 and period keep m dt within the tiling test's rounding bound
        t0, period, m = rng.integers(-4, 5) / 4, 1.25, per_period * every

        def h(t):
            return h0 + math.cos(2 * math.pi * t / period) * v

        got_h, ref_h = RecordingHamiltonian(h), RecordingHamiltonian(h)
        args = (t0, t0 + periods * period, periods * m, every)
        got = eigenoperators._unitary_path(
            DrivenGenerator(got_h, period=period if tiled else None), *args,
            h0=h(t0) if pass_h0 else None)
        ref = unitary_path_oracle(DrivenGenerator(ref_h, period=period if tiled else None),
                                  *args, h0=h(t0) if pass_h0 else None)
        assert got.shape == ref.shape == (periods * per_period, d, d)
        assert np.max(np.abs(got - ref)) < 1e-12
        # the same H(t) calls at the same float times, in the same order
        assert got_h.times == ref_h.times
        assert len(got_h.times) == 2 * (m if tiled else periods * m) + (not pass_h0)

    @pytest.mark.parametrize("t1, steps, every, period", [
        (7.3, 1030, 1, None),                   # ten full blocks and a partial one
        (25 * 2 * np.pi, 25 * 640, 40, 2 * np.pi),  # the eigenops sweep, tiled
    ])
    def test_stacked_drive_gives_the_scalar_drive_bytes(self, t1, steps, every, period):
        p = rabi_params()
        sizes = []

        def h(t):
            sizes.append(np.size(t))
            return jc_semiclassical_hamiltonian(t, p)

        scalar = eigenoperators._unitary_path(DrivenGenerator(h, period), 0.0, t1, steps, every)
        m = len(sizes) // 2  # steps integrated, 2 m + 1 times
        assert sizes == [1] * (2 * m + 1)
        sizes.clear()
        stacked = eigenoperators._unitary_path(DrivenGenerator(h, period, stacked=True),
                                               0.0, t1, steps, every)
        assert stacked.tobytes() == scalar.tobytes()
        # H(t0), then one call per block of 100 steps
        assert sum(sizes) == 2 * m + 1 and len(sizes) == 1 + -(-m // 100)

    @pytest.mark.parametrize("shape", [lambda n: (n, 3, 3), lambda n: (n - 1, 2, 2),
                                       lambda n: (2, 2)])
    def test_stacked_h_of_the_wrong_shape_is_named(self, shape):
        def h(t):
            return np.zeros(shape(len(t))) if isinstance(t, np.ndarray) else 0.5 * Q["sz"]

        gen = DrivenGenerator(h, stacked=True)
        # dt = 0.01: the block's first time is a midpoint, its last an endpoint
        with pytest.raises(DimensionError, match=re.escape(
                "H(t) stacked over t = 0.005 ... 1.0 has shape")):
            integrate_unitary(gen, 0.0, 1.0, 100)

    def test_huge_hamiltonian_on_a_short_step_does_not_overflow(self):
        # |H| = 1e200 with |H dt| = 5e-3: a product of two unscaled
        # generators would be 1e400
        gen = DrivenGenerator(lambda t: 1e200 * (0.5 * Q["sz"]))
        u = integrate_unitary(gen, 0.0, 1e-199, 1000)
        assert np.max(np.abs(u - hermitian_unitary(0.5 * Q["sz"], 10.0))) < 1e-8

    def test_non_hermitian_h_in_the_second_block_is_named(self):
        dt = 0.01
        bad = [0.0 + 150 * dt + dt / 2, 0.0 + 181 * dt]  # a midpoint, then an endpoint

        def h(t):
            return Q["sp"] if t in bad else 0.5 * Q["sz"]

        with pytest.raises(ContractError,
                           match=re.escape(f"H(t={bad[0]}) is not Hermitian (1.00e+00)")):
            integrate_unitary(DrivenGenerator(h), 0.0, 2.5, 250)

    def test_store_on_a_renormalisation_step_is_the_polar_factor(self):
        # dt = 0.05 leaves the raw RK4 product visibly off the unitary group
        def h(t):
            return 0.5 * Q["sz"] + math.cos(t) * Q["sx"]

        dt = 5.0 / 100
        path = eigenoperators._unitary_path(DrivenGenerator(h), 0.0, 5.0, 100, 1)
        t = 0.0 + 99 * dt
        a0, am, a1 = (-1j * h(s) for s in (t, t + dt / 2, 0.0 + 100 * dt))
        u = path[98]
        k1 = a0 @ u
        k2 = am @ (u + dt / 2 * k1)
        k3 = am @ (u + dt / 2 * k2)
        raw = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + a1 @ (u + dt * k3))
        assert np.max(np.abs(raw.conj().T @ raw - np.eye(2))) > 1e-9
        w, _, vh = np.linalg.svd(raw)
        assert np.max(np.abs(path[99] - w @ vh)) < 1e-14
        assert np.max(np.abs(path[99].conj().T @ path[99] - np.eye(2))) < 1e-14


class TestInvariantCommutation:
    def test_static_invariants_commute_with_hamiltonian(self):
        h = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        h = 0.5 * (h + h.conj().T)
        eset = static_eigenoperators(h)
        for op in invariants(eset):
            assert np.max(np.abs(h @ op.data - op.data @ h)) < 1e-10


def spectrum_hamiltonian(kind, d, rng):
    """A d x d Hamiltonian with a random, equally spaced or degenerate
    spectrum in a random eigenbasis."""
    if kind == "random":
        return random_hermitian(d, rng)
    levels = 0.7 * (np.arange(d) if kind == "equal" else rng.integers(0, 3, size=d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * levels) @ q.conj().T


def bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestStaticMatchesLoops:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8),
           kind=st.sampled_from(["random", "equal", "degenerate"]))
    def test_bitwise_equal_to_pair_loops(self, seed, d, kind):
        h = spectrum_hamiltonian(kind, d, np.random.default_rng(seed))
        got, ref = static_eigenoperators(h), static_eigenoperators_oracle(h)
        assert bits(op.data for op in got.ops) == bits(op.data for op in ref.ops)
        assert bits([got.freqs, got.invariant_flags]) == bits([ref.freqs, ref.invariant_flags])
        assert got.pairs == ref.pairs
        assert bits(p.data for p in got.projectors) == bits(p.data for p in ref.projectors)

    def test_memory_at_d30(self):
        # the eigenrelation is checked on the d x d decomposition, and the ops
        # are copied from views of one (d, d, d, d) outer-product array
        h = random_hermitian(30, np.random.default_rng(30))
        tracemalloc.start()
        try:
            eset = static_eigenoperators(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sum(op.data.nbytes for op in eset.ops)


class TestMonodromyClassification:
    @pytest.mark.parametrize("levels", [[0.0, math.pi - 1e-9], [0.0, math.pi - 1e-9, 0.5]],
                             ids=["d2", "d3"])
    def test_wrap_around_collision_warns(self, levels):
        # lambda = +-(pi - 1e-9) sit at the two ends of (-pi, pi] and 2e-9
        # apart on the circle; at d = 3 four phases lie between them
        gen = DrivenGenerator(lambda t: np.diag(levels), period=1.0)
        with pytest.warns(DegeneracyWarning, match="2-fold degenerate") as record:
            eset = monodromy_eigenoperators(gen)
        (message,) = [str(w.message) for w in record if "degenerate" in str(w.message)]
        assert "(0, 1)" in message and "(1, 0)" in message
        assert int(eset.invariant_flags.sum()) == len(levels)

    def test_invariants_lead_and_phases_ascend(self):
        rng = np.random.default_rng(5)
        h0, v = scaled_hermitian(4, rng, 0.25), scaled_hermitian(4, rng, 0.1)
        gen = DrivenGenerator(lambda t: h0 + math.cos(2.0 * t) * v, period=math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eset = monodromy_eigenoperators(gen, steps=1024)
        assert eset.invariant_flags.tolist() == [True] * 4 + [False] * 12
        assert np.all(eset.freqs[:4] == 0.0) and np.all(np.diff(eset.freqs[4:]) >= 0)
        assert np.array_equal(eset.ops[0].data, np.eye(4) / 2.0)

    def test_invariant_window_is_symmetric(self):
        # phases +-6e-8 both lie within 1e-7 of the invariants: the pairs
        # (0, 1) and (1, 0) fold onto them, after I / sqrt(2) and the completion
        gen = DrivenGenerator(lambda t: np.diag([0.0, 2 * math.pi + 6e-8]), period=1.0)
        with pytest.warns(DegeneracyWarning, match="4 invariant eigenoperators"):
            eset = monodromy_eigenoperators(gen)
        assert eset.invariant_flags.all() and np.all(eset.freqs == 0.0)
        # ascending phase: |0><1| at -6e-8, then |1><0|
        assert deviation_up_to_phase(eset.ops[2].data, [[0, 1], [0, 0]]) < 1e-12
        assert deviation_up_to_phase(eset.ops[3].data, [[0, 0], [1, 0]]) < 1e-12
