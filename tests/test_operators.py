import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covlind import (
    DensityMatrix,
    Operator,
    coherence_rel_entropy,
    coherent_state,
    commutator_super,
    destroy,
    hermitian_eig,
    kron,
    matrix_exp,
    partial_trace,
    qubit_ops,
    sandwich_super,
    uhlmann_fidelity,
    unvec,
    vec,
)
from covlind.bath import BathSpec
from covlind.errors import ContractError, DimensionError, TruncationError
from covlind.gkls import detailed_balance_rates
from covlind.jaynes_cummings import JCParams, default_kraus_window
from covlind.operators import liouville_unitary
from covlind.propagate import TimeGrid

Q = qubit_ops()
RNG = np.random.default_rng(20240811)


def random_hermitian(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def random_state(d, rng=RNG, dims=()):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix.from_matrix(rho / np.trace(rho), dims)


class TestVec:
    def test_column_stacking_order(self):
        # (a, b, c, d) from [[a, c], [b, d]]
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip_random(self):
        for d in (2, 3, 5, 16):
            a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
            assert np.array_equal(unvec(vec(a), d), a)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(DimensionError):
            unvec(np.arange(5.0))

    def test_sandwich_identity(self):
        m = np.eye(3)
        x = RNG.normal(size=(3, 3))
        assert np.allclose(vec(m @ x @ m), sandwich_super(m, m).data @ vec(x))

    def test_vec_axb_identity(self):
        a, x, b = (RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)).data, np.eye(4))

    def test_sigma_z_with_identity(self):
        out = kron(Q["sz"], np.eye(2))
        # qubit convention sigma_z = diag(-1, +1)
        assert np.array_equal(np.diag(out.data).real, [-1, -1, 1, 1])
        assert out.dims == (2, 2)

    def test_superoperator_matches_elementwise(self):
        sxx = np.kron(Q["sx"], Q["sx"])
        for i in range(4):
            for j in range(4):
                expected = Q["sx"][i // 2, j // 2] * Q["sx"][i % 2, j % 2]
                assert sxx[i, j] == expected


class TestCommutatorSuper:
    def test_sigma_z_spectrum(self):
        sup = commutator_super(Q["sz"] / 2)
        vals = np.sort(np.linalg.eigvalsh(sup.data))
        assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_identity_gives_zero(self):
        assert np.max(np.abs(commutator_super(np.eye(3)).data)) == 0.0

    def test_hermitian_for_hermitian_input(self):
        h = random_hermitian(4)
        m = commutator_super(h).data
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_liouville_propagator_unitary(self):
        h = random_hermitian(3)
        for t in (0.3, 2.0, 11.0):
            u = matrix_exp(1j * t * commutator_super(h).data)
            assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-10


class TestSandwich:
    def test_lowering_action(self):
        ee = np.array([[0, 0], [0, 1]], dtype=complex)
        out = sandwich_super(Q["sm"], Q["sp"]).apply(ee)
        assert np.allclose(out.data, [[1, 0], [0, 0]])

    def test_random_against_direct_product(self):
        a, x, b = (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)) for _ in range(3))
        out = sandwich_super(a, b).apply(x)
        assert np.max(np.abs(out.data - a @ x @ b)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sandwich_super(np.eye(2), np.eye(3))


class TestHermitianEig:
    def test_sigma_z(self):
        w, v = hermitian_eig(Q["sz"])
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_jc_block_resonant_splitting(self):
        # block form n*wc*I - (delta/2)sz + sqrt(n)*g*sx at delta = 0
        n, wc, g = 3, 1.0, 0.2
        block = n * wc * np.eye(2) + math.sqrt(n) * g * Q["sx"]
        w, _ = hermitian_eig(block)
        assert np.allclose(w, [n * wc - g * math.sqrt(n), n * wc + g * math.sqrt(n)])

    def test_reconstruction_residual(self):
        h = random_hermitian(8)
        w, v = hermitian_eig(h)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) < 1e-10

    def test_phase_convention(self):
        h = random_hermitian(5)
        _, v = hermitian_eig(h)
        for k in range(5):
            first = v[np.flatnonzero(np.abs(v[:, k]) > 1e-8)[0], k]
            assert abs(first.imag) < 1e-10 and first.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_pauli_rotation(self):
        out = matrix_exp(-1j * math.pi / 2 * Q["sx"])
        assert np.max(np.abs(out - (-1j) * Q["sx"])) < 1e-12

    def test_anti_hermitian_gives_unitary(self):
        a = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        k = a - a.conj().T
        u = matrix_exp(k)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_commuting_product_rule(self):
        a = np.diag(RNG.normal(size=5) + 1j * RNG.normal(size=5))
        b = np.diag(RNG.normal(size=5) + 1j * RNG.normal(size=5))
        lhs = matrix_exp(a + b)
        rhs = matrix_exp(a) @ matrix_exp(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rho_s = random_state(2)
        rho_c = random_state(3)
        joint = kron(rho_s, rho_c)
        joint = DensityMatrix(joint.data, joint.dims)
        out = partial_trace(joint, keep=0)
        assert np.max(np.abs(out.data - rho_s.data)) < 1e-12

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = DensityMatrix.from_ket(bell, dims=(2, 2))
        out = partial_trace(rho, keep=1)
        assert np.max(np.abs(out.data - np.eye(2) / 2)) < 1e-12

    def test_fock_product(self):
        ket = np.zeros(2 * 8, dtype=complex)
        ket[0 * 8 + 5] = 1.0  # |g, 5>
        rho = DensityMatrix.from_ket(ket, dims=(2, 8))
        out = partial_trace(rho, keep=0)
        assert np.allclose(out.data, [[1, 0], [0, 0]])

    def test_trace_and_positivity_preserved(self):
        for dims in ((2, 3), (2, 2, 2)):
            d = math.prod(dims)
            rho = random_state(d, dims=dims)
            for keep in range(len(dims)):
                red = partial_trace(rho, keep=keep)
                assert abs(np.trace(red.data) - 1) < 1e-12
                assert np.linalg.eigvalsh(red.data)[0] > -1e-12

    def test_bad_index(self):
        rho = random_state(4, dims=(2, 2))
        with pytest.raises(DimensionError):
            partial_trace(rho, keep=2)


class TestUhlmannFidelity:
    def test_self_fidelity(self):
        rho = random_state(4)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_states(self):
        g = DensityMatrix.from_ket([1, 0])
        e = DensityMatrix.from_ket([0, 1])
        assert uhlmann_fidelity(g, e) < 1e-12

    def test_mixed_vs_pure(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        g = DensityMatrix.from_ket([1, 0])
        assert abs(uhlmann_fidelity(mixed, g) - 0.5) < 1e-12

    def test_symmetry(self):
        a, b = random_state(3), random_state(3)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-10


class TestCoherence:
    def test_diagonal_state_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        assert abs(coherence_rel_entropy(rho, np.eye(2))) < 1e-12

    def test_plus_state_ln2(self):
        plus = DensityMatrix.from_ket([1, 1])
        assert abs(coherence_rel_entropy(plus, np.eye(2)) - math.log(2)) < 1e-12

    def test_invariant_under_diagonal_phases(self):
        rho = random_state(4)
        basis = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))[0]
        phases = np.diag(np.exp(1j * RNG.uniform(0, 2 * np.pi, size=4)))
        c1 = coherence_rel_entropy(rho, basis)
        c2 = coherence_rel_entropy(rho, basis @ phases)
        assert abs(c1 - c2) < 1e-10
        assert c1 >= -1e-10


class TestCoherentState:
    def test_vacuum(self):
        amps = coherent_state(0.0)
        assert amps[0] == 1.0 and np.max(np.abs(amps[1:])) == 0.0

    def test_mean_photon_number(self):
        amps = coherent_state(5.0, n_max=120)
        n = np.arange(121)
        assert abs(np.sum(n * np.abs(amps) ** 2) - 25.0) < 1e-8

    def test_annihilation_eigenvalue(self):
        alpha = 5.0 * np.exp(0.3j)
        amps = coherent_state(alpha)
        a = destroy(len(amps))
        assert abs(amps.conj() @ (a @ amps) - alpha) < 1e-8

    def test_truncation_error(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(6.0, n_max=10)
        assert err.value.deficit > 1e-12

    def test_large_alpha_no_overflow(self):
        amps = coherent_state(100.0)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [200.0, 500.0, 1000.0, 3000.0])
    def test_default_window_loses_no_weight_at_large_alpha(self, alpha):
        # 1 - sum |amp|^2 reads 5e-11 to 2e-8 here from rounding alone; the Poisson
        # tail past the window is ~7e-24
        amps = coherent_state(alpha)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    def test_memory_peak_at_large_alpha(self):
        # the amplitudes are built in place: beside the result, at most the Fock
        # numbers and one real array are alive (five full temporaries peaked at 3.5x)
        tracemalloc.start()
        try:
            amps = coherent_state(1000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * amps.nbytes, f"peak {peak / amps.nbytes:.2f}x the result"

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 5.0, 37.5 * np.exp(0.7j), 100.0])
    def test_default_truncation_is_the_kraus_window_top(self, alpha):
        p = JCParams(1.0, 1.0, 0.1, alpha)
        assert len(coherent_state(alpha)) == default_kraus_window(p)[1] + 1


class TestDensityMatrixIsOperator:
    def test_constructor_checks_and_keeps_the_matrix(self):
        m = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
        rho = DensityMatrix(m, (2,))
        assert isinstance(rho, Operator)
        assert np.array_equal(rho.data, m) and rho.dims == (2,)
        assert not rho.data.flags.writeable

    def test_operator_algebra_applies(self):
        rho = DensityMatrix.from_ket([1, 1])
        assert rho.dim == 2 and rho.trace() == pytest.approx(1.0)
        prod = rho @ rho
        assert type(prod) is Operator
        assert np.allclose(prod.data, rho.data)

    def test_dims_must_multiply_to_dimension(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_partial_trace_keeps_the_type(self):
        rho = random_state(6, dims=(2, 3))
        assert type(partial_trace(rho, keep=1)) is DensityMatrix
        op = Operator(rho.data, rho.dims)
        assert type(partial_trace(op, keep=1)) is Operator


class TestTypes:
    def test_operator_dim_consistency(self):
        with pytest.raises(DimensionError):
            Operator(np.eye(4), (2, 3))

    def test_density_matrix_validation(self):
        with pytest.raises(ContractError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ContractError):
            DensityMatrix.from_matrix(np.array([[1.5, 0], [0, -0.5]]))

    def test_superoperator_defining_action(self):
        a, b = (RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)) for _ in range(2))
        s = sandwich_super(a, b)
        x = RNG.normal(size=(3, 3))
        assert np.max(np.abs(s.apply(x).data - a @ x @ b)) < 1e-12

    def test_liouville_unitary_matches_conjugation(self):
        h = random_hermitian(3)
        rho = random_state(3)
        u = matrix_exp(-1j * 0.7 * h)
        out = liouville_unitary(h, 0.7).apply(rho.data)
        assert np.max(np.abs(out.data - u @ rho.data @ u.conj().T)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(d=st.integers(min_value=2, max_value=16), seed=st.integers(0, 2**32 - 1))
def test_vec_round_trip_property(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.array_equal(unvec(vec(a), d), a)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_positivity_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a @ a.conj().T
    rho = DensityMatrix.from_matrix(rho / np.trace(rho), dims=(2, 3))
    for keep in (0, 1):
        red = partial_trace(rho, keep=keep)
        assert abs(np.trace(red.data) - 1) < 1e-10
        assert np.linalg.eigvalsh(red.data)[0] > -1e-10


class TestFidelityContract:
    def test_rejects_non_state_inputs(self):
        rho = random_state(2)
        with pytest.raises(ContractError):
            uhlmann_fidelity(rho, 2.0 * np.eye(2))
        with pytest.raises(ContractError):
            uhlmann_fidelity(np.array([[0.5, 1.0], [0.0, 0.5]]), rho)


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: JCParams(math.nan, 1.0, 0.2), "omega_c", id="JCParams-omega_c-nan"),
    pytest.param(lambda: JCParams(1.0, math.inf, 0.2), "omega_eg", id="JCParams-omega_eg-inf"),
    pytest.param(lambda: JCParams(1.0, 1.0, math.nan), "g", id="JCParams-g-nan"),
    pytest.param(lambda: JCParams(1.0, 1.0, 0.2, math.nan), "alpha", id="JCParams-alpha-nan"),
    pytest.param(lambda: JCParams(1.0, 1.0, 0.2, complex(1.0, math.inf)), "alpha",
                 id="JCParams-alpha-inf"),
    pytest.param(lambda: BathSpec(math.nan), "temperature", id="BathSpec-temperature-nan"),
    pytest.param(lambda: BathSpec(math.inf), "temperature", id="BathSpec-temperature-inf"),
    pytest.param(lambda: BathSpec(1.0, eta=math.nan), "eta", id="BathSpec-eta-nan"),
    pytest.param(lambda: detailed_balance_rates([1.0], math.nan, [0.3]), "beta",
                 id="detailed_balance_rates-beta-nan"),
    pytest.param(lambda: detailed_balance_rates([1.0], 1.0, [math.nan]), "base rates",
                 id="detailed_balance_rates-base-nan"),
    pytest.param(lambda: detailed_balance_rates([math.nan], 1.0, [0.3]), "channel frequency",
                 id="detailed_balance_rates-freq-nan"),
    pytest.param(lambda: detailed_balance_rates([1.0, 2.0], 1.0, [0.3]),
                 "2 channel frequencies but 1 base rates", id="detailed_balance_rates-lengths"),
    pytest.param(lambda: TimeGrid(0.0, math.nan, 10), "t1", id="TimeGrid-t1-nan"),
    pytest.param(lambda: TimeGrid(0.0, math.inf, 10), "t1", id="TimeGrid-t1-inf"),
    pytest.param(lambda: TimeGrid(math.nan, 1.0, 10), "t0", id="TimeGrid-t0-nan"),
    pytest.param(lambda: TimeGrid(0.0, 1.0, 2.5), "steps", id="TimeGrid-steps-float"),
    pytest.param(lambda: coherent_state(2.0, n_max=-1), "n_max", id="coherent_state-n_max-neg"),
])
def test_malformed_value_rejected_by_name(build, name):
    # NaN fails every comparison, so an `x < 0` guard lets it through
    with pytest.raises(ContractError, match=name):
        build()
