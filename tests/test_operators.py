import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy.special import gammaln

from covlind import (
    Channel,
    DensityMatrix,
    DissipatorSpec,
    Operator,
    build_dissipator,
    coherence_rel_entropy,
    commutator_super,
    hermitian_eig,
    liouvillian,
    matrix_exp,
    partial_trace,
    qubit_ops,
    sandwich_super,
    uhlmann_fidelity,
    unvec,
    vec,
)
from covlind.bath import BathSpec, bose_einstein, gamma_one_sided
from covlind.eigenoperators import (DrivenGenerator, integrate_unitary,
                                    monodromy_eigenoperators, verify_eigenoperator)
from covlind.errors import ContractError, DimensionError, TruncationError
from covlind.gkls import detailed_balance_rates
from covlind.jaynes_cummings import (JCParams, default_kraus_window, touchard,
                                     touchard_asymptotic)
from covlind.operators import (_LOG_FACT_CUT, _THETA13, POSITIVITY_TOL, _add_log_factorial,
                               _check_hermitian, _coherent_amplitudes, _eigen_fidelity,
                               _min_eigenvalues, _poisson_window, liouville_unitary,
                               validate_states)
from covlind.propagate import TimeGrid
from oracles import (coherent_amplitudes_oracle, coherent_state, destroy,
                     hermitian_eig_loop_oracle, jc_block_propagator, jc_hamiltonian)

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

    @pytest.mark.parametrize("d", range(1, 25))
    def test_bitwise_equal_to_column_loop(self, d):
        # complex, real and degenerate (sparse eigenvectors with leading
        # zeros) inputs; the dtype of V must match too
        rng = np.random.default_rng(d)
        levels = np.diag(rng.choice([0.0, 1.0, 2.5], size=d))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        for h in (random_hermitian(d, rng), random_hermitian(d, rng).real, levels,
                  q @ levels @ q.T):
            w, v = hermitian_eig(h)
            w_ref, v_ref = hermitian_eig_loop_oracle(h)
            assert v.dtype == v_ref.dtype
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckHermitian:
    """|M - M^dag| <= 1e-10 max(1, max |M|): relative above scale 1, absolute
    below it."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1e-6])
    def test_no_looser_below_scale_one(self, scale):
        m = np.array([[scale, 2e-10], [0.0, scale]], dtype=complex)
        with pytest.raises(ContractError, match=re.escape("M is not Hermitian (2.00e-10)")):
            _check_hermitian(m, "M")
        with pytest.raises(ContractError, match=re.escape("M0 is not Hermitian (2.00e-10)")):
            _check_hermitian(m[None], lambda i: f"M{i}")

    def test_stack_names_the_first_failure_after_a_scaled_pass(self):
        # row 0 is 1.5e-10 off, 1.5e-16 of its size; row 2 fails at scale 1
        ok = np.array([[1e6, 1.5e-10], [0.0, 1e6]], dtype=complex)
        bad = np.array([[1.0, 2e-10], [0.0, 1.0]], dtype=complex)
        _check_hermitian(ok, "M")
        with pytest.raises(ContractError, match=re.escape("M2 is not Hermitian (2.00e-10)")):
            _check_hermitian(np.array([ok, np.eye(2), bad, ok]), lambda i: f"M{i}")

    def test_non_finite_fails_at_any_scale(self):
        m = np.array([[1.0, np.inf], [5.0, 1.0]], dtype=complex)
        with pytest.raises(ContractError, match=re.escape("M is not Hermitian (inf)")):
            _check_hermitian(m, "M")
        with pytest.raises(ContractError, match=re.escape("M0 is not Hermitian (inf)")):
            _check_hermitian(m[None], lambda i: f"M{i}")


def random_generator(kind, n, rng):
    """An n x n matrix: a complex Gaussian one, -i H for a random Hermitian
    H, or a GKLS generator (n = d^2) of a random H and two random jumps."""
    if kind == "random":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "hermitian":
        return -1j * random_hermitian(n, rng)
    d = math.isqrt(n)
    jumps = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    spec = DissipatorSpec(channels=[Channel(f, rng.uniform(0.1, 1.0)) for f in jumps])
    return liouvillian(random_hermitian(d, rng), build_dissipator(spec)).data


class TestMatrixExp:
    @pytest.mark.parametrize("squarings", range(9))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "hermitian", "gkls"]),
           n=st.integers(1, 16), frac=st.floats(0.0, 1.0))
    def test_matches_scipy(self, squarings, seed, kind, n, frac):
        # 1-norms from 1e-8 up to theta_13 = 5.37 take no squaring; the
        # range (theta 2^(s-1), theta 2^s] takes s, up to s = 8 at 1e3
        rng = np.random.default_rng(seed)
        if kind == "gkls":
            n = (2, 3, 4)[n % 3] ** 2
        a = random_generator(kind, n, rng)
        theta = _THETA13
        norm = (10 ** (-8 + frac * math.log10(1e8 * theta)) if squarings == 0
                else min(1e3, theta * 2 ** (squarings - 1 + frac)))
        a = a * (norm / np.abs(a).sum(axis=0).max())
        with np.errstate(over="ignore", invalid="ignore"):
            expected = scipy.linalg.expm(a)
        assume(np.isfinite(expected).all())  # e^a overflows for some random a near 1e3
        # each product rounds at about n u, and the relative condition of
        # e^a grows as ||a||: the s squarings scale the Pade error by 2^s,
        # about ||a|| / theta (a scalar a with Re a near -700 comes within a
        # factor 4 of this bound); a result that underflows compares absolutely
        u = np.finfo(float).eps / 2
        tol = 256 * n * u * max(1.0, norm) * np.abs(expected).max() + np.finfo(float).tiny
        assert np.abs(matrix_exp(a) - expected).max() <= tol

    def test_stack_rows_equal_single_calls(self):
        # 1-norms from 1e-8 to 1e3 give each matrix its own squaring count;
        # non-finite and zero matrices share the stack
        n = 9
        x = np.stack([random_generator(kind, n, RNG) for kind in ("random", "hermitian", "gkls")
                      for _ in range(4)])
        x = x * (np.logspace(-8, 3, len(x)) / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]
        x[2, 1, 4] = np.nan
        x[5, 0, 0] = np.inf
        x[7] = 0.0
        x = x.reshape(3, 4, n, n)
        out = matrix_exp(x)
        assert out.shape == x.shape
        for idx in np.ndindex(3, 4):
            assert out[idx].tobytes() == matrix_exp(x[idx]).tobytes(), idx
        # the same matrices in another order and grouping
        assert matrix_exp(x.reshape(-1, n, n)[::-1])[::-1].tobytes() == out.tobytes()

    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))
        assert np.array_equal(matrix_exp(np.zeros((2, 5, 3, 3))),
                              np.broadcast_to(np.eye(3), (2, 5, 3, 3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_gives_non_finite_quietly(self, entry):
        # no exception and no RuntimeWarning (the suite makes one an error)
        a = np.eye(4, dtype=complex)
        a[2, 1] = entry
        assert not np.isfinite(matrix_exp(a)).any()
        out = matrix_exp(np.stack([np.eye(4), a, 1e300 * np.eye(4)]))
        assert out[0].tobytes() == matrix_exp(np.eye(4)).tobytes()
        assert not np.isfinite(out[1]).any()
        assert not np.isfinite(out[2]).all()  # e^1e300 overflows in the squarings

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
        joint = DensityMatrix(np.kron(rho_s.data, rho_c.data), (2, 3))
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


def _qubit(theta, phi, mix):
    """(1 - mix) |psi><psi| + mix I/2 for the Bloch angles (theta, phi)."""
    psi = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
    return (1.0 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(2) / 2


_MIX = st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 1.0))


def _exact_qubit_fidelity(rho, sigma):
    """tr(rho sigma) + 2 sqrt(det rho det sigma) in rationals, for states given
    as (rho_00, Re rho_01, Im rho_01) whose determinant product is a square."""
    (a, ar, ai), (b, br, bi) = rho, sigma
    overlap = a * b + (1 - a) * (1 - b) + 2 * (ar * br + ai * bi)
    det = (a * (1 - a) - ar * ar - ai * ai) * (b * (1 - b) - br * br - bi * bi)
    root = Fraction(math.isqrt(det.numerator), math.isqrt(det.denominator))
    assert root * root == det
    return overlap + 2 * root


def _rational_state(a, re, im):
    return np.array([[a, complex(re, im)], [complex(re, -im), 1 - a]], dtype=complex)


class TestQubitFidelity:
    """The qubit closed form against the eigenvalue path and exact values."""

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(0.0, math.pi), phi=st.floats(-math.pi, math.pi), mix_a=_MIX,
           d_theta=st.one_of(st.floats(-1e-4, 1e-4), st.floats(-math.pi, math.pi)),
           d_phi=st.one_of(st.floats(-1e-4, 1e-4), st.floats(-math.pi, math.pi)), mix_b=_MIX)
    def test_matches_eigenvalue_path(self, theta, phi, mix_a, d_theta, d_phi, mix_b):
        a = _qubit(theta, phi, mix_a)
        b = _qubit(theta + d_theta, phi + d_phi, mix_b)
        oracle = float(np.clip(_eigen_fidelity(a[None], b[None])[0], 0.0, 1.0))
        assert abs(uhlmann_fidelity(a, b) - oracle) < 1e-7

    @pytest.mark.parametrize("rho, sigma", [
        ((Fraction(1, 2), Fraction(1, 4), 0), (Fraction(3, 4), 0, 0)),            # 7/8
        ((Fraction(1, 2), 0, Fraction(1, 4)), (Fraction(1, 2), 0, Fraction(-1, 4))),  # 3/4
        ((Fraction(1, 2), Fraction(1, 2), 0), (Fraction(3, 4), 0, 0)),            # pure: 1/2
        ((Fraction(1), 0, 0), (Fraction(0), 0, 0)),                              # orthogonal
        ((Fraction(5, 8), Fraction(1, 8), Fraction(1, 8)),) * 2,                  # itself: 1
    ])
    def test_exact_on_rational_states(self, rho, sigma):
        expected = _exact_qubit_fidelity(rho, sigma)
        assert uhlmann_fidelity(_rational_state(*rho), _rational_state(*sigma)) == expected

    def test_exact_values_in_a_stack(self):
        rhos = np.array([_rational_state(0.5, 0.25, 0.0), _rational_state(0.5, 0.0, 0.25)])
        sigmas = np.array([_rational_state(0.75, 0.0, 0.0), _rational_state(0.5, 0.0, -0.25)])
        assert np.array_equal(uhlmann_fidelity(rhos, sigmas), [0.875, 0.75])


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
            amps = _coherent_amplitudes(1000.0, np.arange(_poisson_window(1000.0)[1] + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * amps.nbytes, f"peak {peak / amps.nbytes:.2f}x the result"

    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-3.0, 3.5), phase=st.floats(-math.pi, math.pi))
    def test_amplitudes_match_gammaln_oracle(self, log_a, phase):
        # two log-space evaluations whose roundings differ agree to a few ulp
        # of the largest log-space term (a^2, 2 n |ln a|, ln n!, or n for the
        # phase n arg alpha), not of the amplitude: 1.3 ulp at worst over 400
        # random alpha in this range
        alpha = 10.0 ** log_a * np.exp(1j * phase)
        lo, hi = _poisson_window(alpha)
        n = np.arange(lo, hi + 1)
        want = coherent_amplitudes_oracle(alpha, n)
        a = abs(alpha)
        scale = np.maximum.reduce([np.full(len(n), max(1.0, a * a)),
                                   2.0 * n * abs(math.log(a)), gammaln(n + 1.0), n * 1.0])
        rel = np.abs(_coherent_amplitudes(alpha, n) - want) / np.abs(want)
        assert np.all(rel <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 5.0, 37.5 * np.exp(0.7j), 100.0])
    def test_default_truncation_is_the_kraus_window_top(self, alpha):
        p = JCParams(1.0, 1.0, 0.1, alpha)
        assert len(coherent_state(alpha)) == default_kraus_window(p)[1] + 1


class TestLogFactorial:
    """ln n! without scipy: a stdlib table below n = 32, Stirling's series above."""

    def test_table_is_lgamma(self):
        n = np.arange(_LOG_FACT_CUT)
        got = _add_log_factorial(np.zeros(len(n)), n)
        assert got.tolist() == [math.lgamma(k + 1.0) for k in range(_LOG_FACT_CUT)]

    @settings(max_examples=60, deadline=None)
    @given(n=st.lists(st.one_of(st.integers(0, 200), st.integers(0, 10**7)),
                      min_size=1, max_size=50),
           offset=st.floats(-1e3, 1e3))
    def test_matches_gammaln(self, n, offset):
        # gammaln is itself up to 3 ulp from ln n!, the series 2 ulp
        n = np.array(n)
        want = gammaln(n + 1.0)
        got = _add_log_factorial(np.zeros(len(n)), n)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        # the terms go into acc in place
        acc = np.full(len(n), offset)
        assert _add_log_factorial(acc, n) is acc
        small = n < _LOG_FACT_CUT
        assert np.array_equal(acc[small], offset + got[small])


class TestMinEigenvalues:
    """The closed-form smallest eigenvalue of qubit stacks against eigvalsh."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
           scale=st.floats(1e-6, 1e6))
    def test_random_qubit_stacks(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        h = np.array([random_hermitian(2, rng) for _ in range(n)]) * scale
        # eigvalsh is accurate to a few ulp of the largest entry; so is the
        # closed form
        tol = 8 * np.finfo(float).eps * np.abs(h).max(axis=(1, 2))
        assert np.all(np.abs(_min_eigenvalues(h) - np.linalg.eigvalsh(h)[:, 0]) <= tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
           mixing=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]))
    def test_near_pure_states(self, seed, n, mixing):
        # a pure state mixed with a little of its orthogonal complement:
        # the smallest eigenvalue is about ``mixing``, a rounding-level
        # difference of two numbers near 1/2
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        perp = np.stack([-kets[:, 1].conj(), kets[:, 0].conj()], axis=1)
        rho = ((1 - mixing) * kets[:, :, None] * kets[:, None, :].conj()
               + mixing * perp[:, :, None] * perp[:, None, :].conj())
        rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
        got, want = _min_eigenvalues(rho), np.linalg.eigvalsh(rho)[:, 0]
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps)
        assert np.all(np.abs(got - mixing) <= 4 * np.finfo(float).eps)

    def test_larger_matrices_take_eigvalsh(self):
        h = np.array([random_hermitian(3) for _ in range(5)])
        assert np.array_equal(_min_eigenvalues(h), np.linalg.eigvalsh(h)[:, 0])

    def test_clipped_qubit_keeps_the_eigh_path(self):
        # a tail of -1e-9 is within the looser tolerance and clipped by eigh,
        # bit for bit; the untouched states and the clipped one are read-only
        w = np.array([1.0 + 1e-9, -1e-9])
        v = np.linalg.qr(random_hermitian(2) + 3j * np.eye(2))[0]
        tail = (v * w) @ v.conj().T
        tail = 0.5 * (tail + tail.conj().T)
        stack = np.array([random_state(2).data, tail, random_state(2).data])
        out = validate_states(stack, eig_tol=1e-7)
        assert not out.flags.writeable
        hermitized = 0.5 * (stack + stack.conj().swapaxes(1, 2))
        assert _min_eigenvalues(hermitized)[1] < -POSITIVITY_TOL
        a = hermitized[1] / np.trace(hermitized[1]).real
        ew, ev = np.linalg.eigh(a[None])
        fixed = (ev * np.clip(ew, 0.0, None)[..., None, :]) @ ev.conj().swapaxes(-1, -2)
        assert out[1].tobytes() == (fixed / np.trace(fixed, axis1=1, axis2=2).real)[0].tobytes()
        for k in (0, 2):
            assert out[k].tobytes() == (hermitized[k] / np.trace(hermitized[k]).real).tobytes()


class TestDensityMatrixIsOperator:
    def test_constructor_checks_and_keeps_the_matrix(self):
        m = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
        rho = DensityMatrix(m, (2,))
        assert isinstance(rho, Operator)
        assert np.array_equal(rho.data, m) and rho.dims == (2,)
        assert not rho.data.flags.writeable

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


def _h_never_called(t):
    pytest.fail(f"H({t}) called before the step count was checked")


# a step count is checked before the sweep evaluates H(t)
_UNCALLED = DrivenGenerator(_h_never_called, period=1.0)


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
    pytest.param(lambda: coherent_state(2.0, n_max=30.5), "n_max",
                 id="coherent_state-n_max-float"),
    pytest.param(lambda: coherent_state(math.nan), "alpha", id="coherent_state-alpha-nan"),
    pytest.param(lambda: BathSpec(1.0, model="band", omega_lo=2.0, omega_hi=1.0), "omega_hi",
                 id="BathSpec-band-inverted"),
    pytest.param(lambda: BathSpec(1.0, omega_lo=math.nan), "omega_lo",
                 id="BathSpec-omega_lo-nan"),
    pytest.param(lambda: BathSpec(1.0, omega_lo=-1.0), "omega_lo", id="BathSpec-omega_lo-neg"),
    pytest.param(lambda: BathSpec(1.0, omega_lo=math.inf), "omega_lo",
                 id="BathSpec-omega_lo-inf"),
    pytest.param(lambda: bose_einstein(math.nan, 1.0), "omega", id="bose_einstein-omega-nan"),
    pytest.param(lambda: gamma_one_sided(math.nan, BathSpec(1.0)), "nu",
                 id="gamma_one_sided-nu-nan"),
    pytest.param(lambda: integrate_unitary(_UNCALLED, 0.0, 1.0, 0), "steps",
                 id="integrate_unitary-steps-zero"),
    pytest.param(lambda: monodromy_eigenoperators(_UNCALLED, steps=0), "steps",
                 id="monodromy-steps-zero"),
    pytest.param(lambda: monodromy_eigenoperators(_UNCALLED, steps=-4), "steps",
                 id="monodromy-steps-neg"),
    pytest.param(lambda: monodromy_eigenoperators(_UNCALLED, steps=2.5), "steps",
                 id="monodromy-steps-float"),
    pytest.param(lambda: verify_eigenoperator(np.eye(2), 0.0, _UNCALLED, TimeGrid(0.0, 1.0, 4),
                                              substeps=0), "substeps",
                 id="verify_eigenoperator-substeps-zero"),
    pytest.param(lambda: verify_eigenoperator(np.eye(2), 0.0, _UNCALLED, TimeGrid(0.0, 1.0, 4),
                                              substeps=-1), "substeps",
                 id="verify_eigenoperator-substeps-neg"),
    pytest.param(lambda: touchard(2.5, 3.0), "integer 0 <= j", id="touchard-j-float"),
    pytest.param(lambda: touchard_asymptotic(3, 0.0), "x != 0", id="touchard_asymptotic-x-zero"),
    pytest.param(lambda: jc_block_propagator(1.5, 0.3, JCParams(1.0, 1.0, 0.2)), "block index n",
                 id="jc_block_propagator-n-float"),
    pytest.param(lambda: jc_hamiltonian(JCParams(1.0, 1.0, 0.2), 2.5), "n_max",
                 id="jc_hamiltonian-n_max-float"),
])
def test_malformed_value_rejected_by_name(build, name):
    # NaN fails every comparison, so an `x < 0` guard lets it through
    with pytest.raises(ContractError, match=name):
        build()


@pytest.mark.parametrize("k", [3, 150], ids=["first-block", "second-block"])
def test_sweep_hamiltonian_changing_dimension_is_named(k):
    # the sweep stacks each block's H(t); a foreign dimension is named by its t
    dt = 0.01
    switch = 0.0 + k * dt + dt / 2
    gen = DrivenGenerator(lambda t: np.eye(3) if t >= switch else 0.5 * Q["sz"])
    with pytest.raises(DimensionError, match=re.escape(
            f"H(t={switch}) dimension 3 does not match H(t=0.0) of dimension 2")):
        integrate_unitary(gen, 0.0, 2.5, 250)
