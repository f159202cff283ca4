import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from covlind import (
    DensityMatrix,
    JCParams,
    collapse_envelope,
    jc_eigenoperators,
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
from covlind import jaynes_cummings
from covlind.errors import ContractError, TruncationError
from covlind.jaynes_cummings import (
    _autonomous_states,
    _grid_step,
    _kraus_kernel,
    default_kraus_window,
    fit_gaussian_envelope,
    jc_autonomous_trajectory,
    jc_kraus_completeness,
)
from covlind.operators import validate_states
from oracles import (coherent_state, envelope_peaks_oracle, jc_block_propagator, jc_hamiltonian,
                     kraus_completeness_oracle, kraus_row_sums_oracle, kraus_strided_sums_oracle,
                     kraus_sum_oracle, touchard_exact)

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

    @settings(max_examples=30, deadline=None)
    @given(modulus=st.floats(0.1, 12.0), phase=st.floats(-math.pi, math.pi),
           delta=st.floats(-0.5, 0.5), g=st.floats(0.0, 0.5), t=st.floats(0.0, 40.0),
           lo=st.integers(0, 160), width=st.integers(0, 160))
    def test_completeness_matches_per_m_oracle(self, modulus, phase, delta, g, t, lo, width):
        p = JCParams(1.0, 1.0 + delta, g, modulus * np.exp(1j * phase))
        window = (lo, lo + width)
        oracle = kraus_completeness_oracle(p, t, window)
        expected = np.max(np.abs(oracle - np.eye(2)))
        assert abs(jc_kraus_completeness(p, t, window) - expected) < 1e-12

    def test_bitwise_independent_of_chunk(self):
        # off a uniform grid each time's state is its own: the same for any
        # rows per chunk, down to one time per chunk
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 7.0 * np.exp(0.3j))
        rho0 = DensityMatrix.from_matrix(random_psd(np.random.default_rng(5)))
        times = np.linspace(0.0, 20.0, 41)
        jittered = times + np.random.default_rng(6).uniform(0.0, 1e-3, size=41)
        lo, hi = default_kraus_window(p)
        default = _autonomous_states(rho0.data, p, jittered)
        for rows in (1, 7):
            with mock.patch.object(jaynes_cummings, "_KRAUS_CHUNK_TERMS", rows * (hi - lo + 1)):
                assert np.array_equal(_autonomous_states(rho0.data, p, jittered), default)
        wrapped = jc_autonomous_trajectory(rho0, p, times)
        assert np.array_equal(np.array([s.data for s in wrapped]),
                              _autonomous_states(rho0.data, p, times))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.5, 1000.0),
           phase=st.floats(-math.pi, math.pi), delta=st.floats(-0.5, 0.5),
           g=st.floats(0.0, 0.5), t0=st.floats(-30.0, 30.0), span=st.floats(0.1, 40.0),
           n=st.integers(1, 40), jitter=st.booleans())
    @example(seed=1, modulus=1000.0, phase=0.7, delta=0.2, g=0.1, t0=0.0, span=20.0,
             n=7, jitter=False)
    @example(seed=2, modulus=1000.0, phase=-2.0, delta=-0.3, g=0.4, t0=5.0, span=1.0,
             n=4, jitter=True)
    def test_sums_match_the_six_row_oracle(self, seed, modulus, phase, delta, g, t0,
                                           span, n, jitter):
        # the weighted trig products reorder the arithmetic of the six entry
        # rows and their 19 pairwise dots, but not the phases; alpha up to
        # 1000 opens windows of more than _DOT_TERMS Fock numbers, and n = 1
        # is a single time
        p = JCParams(1.0, 1.0 + delta, g, modulus * np.exp(1j * phase))
        lo, hi = default_kraus_window(p)
        times = np.linspace(t0, t0 + span, n)
        if jitter:
            times += np.random.default_rng(seed).uniform(0.0, 1e-3, size=n)
        rows, sums = _kraus_kernel(p, times, lo, hi)
        oracle = kraus_row_sums_oracle(p, times, lo, hi)
        for k0 in range(0, n, rows):
            s = sums(k0)[0]
            assert s.keys() == oracle.keys()
            for key, value in s.items():
                assert np.max(np.abs(value - oracle[key][k0:k0 + rows])) < 1e-14, (k0, key)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.5, 1000.0),
           phase=st.floats(-math.pi, math.pi), delta=st.floats(-0.5, 0.5),
           g=st.floats(0.0, 0.5), t0=st.floats(-30.0, 30.0), span=st.floats(0.1, 40.0),
           n=st.integers(1, 40), jitter=st.booleans())
    @example(seed=1, modulus=1000.0, phase=0.7, delta=0.2, g=0.1, t0=0.0, span=20.0,
             n=7, jitter=False)
    @example(seed=2, modulus=600.0, phase=-2.0, delta=-0.3, g=0.4, t0=5.0, span=1.0,
             n=9, jitter=True)
    @example(seed=3, modulus=100.0, phase=0.4, delta=0.1, g=0.05, t0=0.5, span=19.5,
             n=40, jitter=False)
    @example(seed=4, modulus=3.0, phase=1.0, delta=0.0, g=0.3, t0=2.0, span=1.0,
             n=1, jitter=False)
    def test_sums_bitwise_the_strided_products(self, seed, modulus, phase, delta, g, t0,
                                               span, n, jitter):
        # the cross products run over each chunk's rows end to end, through
        # flat views of its workspace; the sums keep the bits of the same
        # products on strided views.  alpha above 500 opens windows of more
        # than _DOT_TERMS Fock numbers (3 to 4 rows per chunk, so partial
        # last chunks), alpha = 100 splits 40 times into 32 and 8, n = 1 is
        # a single time
        p = JCParams(1.0, 1.0 + delta, g, modulus * np.exp(1j * phase))
        lo, hi = default_kraus_window(p)
        times = np.linspace(t0, t0 + span, n)
        if jitter:
            times += np.random.default_rng(seed).uniform(0.0, 1e-3, size=n)
        rows, sums = _kraus_kernel(p, times, lo, hi)
        oracle = kraus_strided_sums_oracle(p, times, lo, hi)
        views, real_flat = [], jaynes_cummings._flat

        def flat(a):
            views.append((a, real_flat(a)))
            return views[-1][1]

        with mock.patch.object(jaynes_cummings, "_flat", flat):
            for k0 in range(0, n, rows):
                s = sums(k0)[0]
                assert s.keys() == oracle.keys()
                for key, value in s.items():
                    assert np.array_equal(value, oracle[key][k0:k0 + rows]), (k0, key)
        # cos, sin and the trig temporary of every chunk, each a view of the
        # one workspace that the thread keeps
        assert len(views) == 3 * len(range(0, n, rows))
        workspace = views[0][0].base
        for a, a_flat in views:
            assert a.base is workspace and a_flat.base is workspace
            assert a_flat.shape == (a.size,) and np.shares_memory(a_flat, a)

    def test_flat_view_rejects_a_strided_array(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            jaynes_cummings._flat(np.zeros((3, 4))[:, :-1])

    def test_first_chunk_workspace_fits_two_megabytes(self):
        # alpha = 100: M = 2022 and 32 rows per chunk; cos, sin and the trig
        # temporary take 3 x 32 x 2023 x 8 B = 1.55 MB, and six (32, 2022)
        # entry rows, the first in the temporary's buffer, would add 2.6 MB
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 100.0 * np.exp(0.4j))
        lo, hi = default_kraus_window(p)
        assert hi - lo + 1 == 2022
        rows, sums = _kraus_kernel(p, np.linspace(0.0, 20.0, 100), lo, hi)
        assert rows == 32
        tracemalloc.start()
        try:
            deficit = sums(0)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deficit < 1e-6
        assert peak <= 2_000_000, f"traced peak {peak / 1e6:.2f} MB"

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

    def test_memory_bounded_at_large_alpha_on_four_workers(self):
        # each worker holds one chunk in flight; the same bound holds
        with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: 4):
            self.test_memory_bounded_at_large_alpha()

    def test_single_time_workspace_is_one_row(self):
        # alpha = 25: M = 521 and 125 rows per chunk, so a full-chunk
        # workspace would take about 4.2 MB; one time needs only one row
        p = JCParams.with_rabi(1.0, 0.0, 2.0, 25.0)
        lo, hi = default_kraus_window(p)
        assert hi - lo + 1 == 521
        assert _kraus_kernel(p, np.zeros(2), lo, hi)[0] == 125
        tracemalloc.start()
        try:
            deficit = jc_kraus_completeness(p, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deficit < 1e-6
        assert peak < 1 << 20, f"traced peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("alpha, n, jitter", [
        (5.0, 3 * 682 + 100, False), (5.0, 3 * 682 + 100, True),  # 682 rows, last chunk of 100
        (1000.0, 10, False), (1000.0, 10, True),                  # 3 rows, last chunk of 1
    ])
    def test_workspace_reuse_leaves_no_trace(self, alpha, n, jitter):
        # one kernel on one thread computes the partial last chunk, then
        # chunks 0 and 1 and the last one again in the same workspace; each
        # result is that of a fresh kernel and owns its memory
        p = JCParams.with_rabi(1.0, 0.2, 2.0, alpha * np.exp(0.7j))
        lo, hi = default_kraus_window(p)
        times = np.linspace(0.0, 20.0, n)
        if jitter:
            times += np.random.default_rng(4).uniform(0.0, 1e-3, size=n)
            assert _grid_step(times) is None
        rows, sums = _kraus_kernel(p, times, lo, hi)
        last = (n - 1) // rows * rows
        assert 0 < n - last < rows
        assert (hi - lo + 1 > jaynes_cummings._DOT_TERMS) == (alpha == 1000.0)
        order = [last, 0, rows, last]
        results = [sums(k0) for k0 in order]
        for k0, (s, deficit) in zip(order, results):
            fresh, fresh_deficit = _kraus_kernel(p, times, lo, hi)[1](k0)
            assert deficit == fresh_deficit
            assert s.keys() == fresh.keys()
            assert all(np.array_equal(s[key], fresh[key]) for key in s), k0
        arrays = [(i, x) for i, (s, _) in enumerate(results) for x in s.values()]
        assert not any(np.shares_memory(x, y) for i, x in arrays for j, y in arrays if i != j)


class TestPhaseTables:
    """The uniform-grid phase tables of ``_kraus_kernel`` against direct trig
    of each phase."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), modulus=st.floats(0.5, 200.0),
           delta=st.floats(-0.5, 0.5), t0=st.floats(0.1, 50.0), sign=st.sampled_from([-1, 1]),
           span=st.floats(0.1, 60.0), n=st.integers(2, 3000))
    def test_tables_match_direct_trig(self, seed, modulus, delta, t0, sign, span, n):
        rng = np.random.default_rng(seed)
        p = JCParams.with_rabi(1.0, delta, 2.0, modulus * np.exp(1j * rng.uniform(-3, 3)))
        times = np.linspace(sign * t0, sign * t0 + span, n)
        lo, hi = default_kraus_window(p)
        rows, tables = _kraus_kernel(p, times, lo, hi)
        with mock.patch.object(jaynes_cummings, "_grid_step", lambda ts: None):
            direct = _kraus_kernel(p, times, lo, hi)[1]
        for k0 in range(0, n, rows):
            table_sums, direct_sums = tables(k0)[0], direct(k0)[0]
            for key, value in table_sums.items():
                assert np.max(np.abs(value - direct_sums[key])) < 1e-13, (k0, key)

        rho0 = random_psd(rng)
        states = _autonomous_states(rho0, p, times)
        with mock.patch.object(jaynes_cummings, "_grid_step", lambda ts: None):
            direct_states = _autonomous_states(rho0, p, times)
        assert np.max(np.abs(states - direct_states)) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(t0=st.floats(-1e6, 1e6), span=st.floats(-1e6, 1e6), n=st.integers(2, 3000))
    def test_every_linspace_grid_is_uniform(self, t0, span, n):
        times = np.linspace(t0, t0 + span, n)
        assert _grid_step(times) == (times[-1] - times[0]) / (n - 1)

    def test_jittered_grid_takes_the_direct_path(self):
        # on the direct path each time's sums are those of that time alone,
        # which a single time (no grid step) computes by direct trig;
        # alpha = 100 splits the 60 times into chunks of 32 and 28
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 100.0 * np.exp(0.4j))
        lo, hi = default_kraus_window(p)
        times = np.linspace(0.5, 20.0, 60)
        jittered = times.copy()
        jittered[17] += 1e-9
        assert _grid_step(jittered) is None
        assert _grid_step(times[:1]) is None
        for ts, direct in ((jittered, True), (times, False)):
            rows, sums = _kraus_kernel(p, ts, lo, hi)
            assert rows == 32
            chunks = [sums(k0)[0] for k0 in range(0, len(ts), rows)]
            alone = [_kraus_kernel(p, ts[k:k + 1], lo, hi)[1](0)[0] for k in range(len(ts))]
            same = all(np.array_equal(np.concatenate([chunk[key] for chunk in chunks]),
                                      [one[key][0] for one in alone]) for key in alone[0])
            assert same == direct

    def test_chunk_boundaries_match_oracle_at_large_alpha(self):
        # alpha = 1000 leaves 3 rows per chunk: the times 0-2, 3-5 and a
        # partial last chunk holding time 6
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 1000.0 * np.exp(0.7j))
        lo, hi = default_kraus_window(p)
        times = np.linspace(0.0, 20.0, 7)
        assert _kraus_kernel(p, times, lo, hi)[0] == 3
        rho0 = random_psd(np.random.default_rng(3))
        states = _autonomous_states(rho0, p, times)
        for k in (2, 3, 6):
            oracle = kraus_sum_oracle(rho0, p, times[k], (lo, hi))
            oracle /= np.trace(oracle).real
            assert np.max(np.abs(states[k] - oracle)) < 1e-12, k


def _counting_threads():
    return mock.patch.object(threading, "Thread", wraps=threading.Thread)


class TestKrausThreads:
    """The Kraus chunks on the calling thread and helper threads against the
    same chunks on the calling thread alone."""

    def test_single_chunk_starts_no_thread(self):
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 25.0 * np.exp(0.5j))
        rho0 = DensityMatrix.from_ket([1, 1])
        with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: 4), \
                _counting_threads() as thread:
            jc_kraus_reduce(rho0, p, 3.0)
            jc_kraus_completeness(p, 3.0)
            jc_autonomous_trajectory(rho0, p, np.linspace(0.0, 5.0, 11))
        assert thread.call_count == 0

    def test_one_cpu_runs_inline(self):
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 100.0)
        times = np.linspace(0.0, 20.0, 100)  # 4 chunks of up to 32 rows
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: 1), \
                _counting_threads() as thread:
            _autonomous_states(rho0, p, times)
        assert thread.call_count == 0

    @pytest.mark.parametrize("alpha, n, jitter", [
        (5.0, 2501, False), (5.0, 2501, True),        # 682 rows: 4 chunks
        (100.0, 150, False), (100.0, 150, True),      # 32 rows: 5 chunks
        (1000.0, 13, False),                          # 3 rows: 5 chunks, the last of 1
    ])
    def test_states_bitwise_equal_for_any_worker_count(self, alpha, n, jitter):
        p = JCParams.with_rabi(1.0, 0.2, 2.0, alpha * np.exp(0.7j))
        times = np.linspace(0.0, 20.0, n)
        if jitter:
            times += np.random.default_rng(8).uniform(0.0, 1e-3, size=n)
            assert _grid_step(times) is None
        rows = _kraus_kernel(p, times, *default_kraus_window(p))[0]
        chunks = -(-n // rows)
        assert chunks >= 4
        rho0 = random_psd(np.random.default_rng(9))
        with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: 1):
            serial = _autonomous_states(rho0, p, times)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads hand over the interpreter often
        try:
            for workers in (2, 3, 4):
                with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: workers), \
                        _counting_threads() as thread:
                    threaded = _autonomous_states(rho0, p, times)
                assert thread.call_count == workers - 1
                assert np.array_equal(threaded, serial), workers
        finally:
            sys.setswitchinterval(switch)

    def test_narrow_window_raises_the_serial_message(self):
        # every chunk of this window fails; the first one is named
        p = JCParams.with_rabi(1.0, 0.3, 2.0, 30.0)
        rho0 = DensityMatrix.from_ket([1, 1])
        times = np.linspace(0.0, 40.0, 600)
        messages = []
        for workers in (1, 4):
            with mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: workers), \
                    pytest.raises(TruncationError) as info:
                jc_autonomous_trajectory(rho0, p, times, window=(600, 1040))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "t in [0, 9.81636]" in messages[0]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_earliest_failing_chunk_named_when_it_finishes_last(self, workers):
        # chunks 0 and 1 pass but finish after chunk 2 fails: the error names
        # chunk 2; every chunk from 2 on fails and stops its worker, so each
        # worker takes at most one of them and none past 1 + workers starts
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 100.0)
        times = np.linspace(0.0, 20.0, 40 * 32)
        real_kernel = jaynes_cummings._kraus_kernel
        started = []

        def kernel(p, ts, lo, hi):
            rows, sums = real_kernel(p, ts, lo, hi)

            def sums_failing_from_chunk_2(k0):
                started.append(k0 // rows)
                s, deficit = sums(k0)
                if k0 < 2 * rows:
                    time.sleep(0.05)
                    return s, deficit
                return s, 1.0

            return rows, sums_failing_from_chunk_2

        threads = threading.active_count()
        with mock.patch.object(jaynes_cummings, "_kraus_kernel", kernel), \
                mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: workers), \
                pytest.raises(TruncationError, match=r"t in \[1.00078, 1.48554\]"):
            _autonomous_states(0.5 * np.ones((2, 2), dtype=complex), p, times)
        assert max(started) <= 1 + workers
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_kernel_exception_stops_every_worker(self, workers):
        # chunk 2 of 8 raises 20 ms in, while every other chunk takes 50 ms:
        # chunks start in time order, none after the failure, and the caller
        # raises the kernel's own exception once every worker has returned
        p = JCParams.with_rabi(1.0, 0.2, 2.0, 100.0)
        times = np.linspace(0.0, 20.0, 8 * 32)
        real_kernel = jaynes_cummings._kraus_kernel
        failure = RuntimeError("chunk 2 failed")
        started, before_failure = [], []

        def kernel(p, ts, lo, hi):
            rows, sums = real_kernel(p, ts, lo, hi)
            assert rows == 32

            def sums_raising_on_chunk_2(k0):
                started.append(k0 // rows)
                if k0 == 2 * rows:
                    time.sleep(0.02)
                    before_failure.extend(started)
                    raise failure
                time.sleep(0.05)
                return sums(k0)

            return rows, sums_raising_on_chunk_2

        threads = threading.active_count()
        with mock.patch.object(jaynes_cummings, "_kraus_kernel", kernel), \
                mock.patch.object(jaynes_cummings, "_usable_cpus", lambda: workers), \
                pytest.raises(RuntimeError) as info:
            _autonomous_states(0.5 * np.ones((2, 2), dtype=complex), p, times)
        assert info.value is failure
        assert sorted(started) == sorted(before_failure) == list(range(len(started)))
        assert 2 in started
        assert threading.active_count() == threads

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(jaynes_cummings.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(jaynes_cummings.os, "cpu_count", lambda: None)
        assert jaynes_cummings._usable_cpus() == 1
        monkeypatch.setattr(jaynes_cummings.os, "cpu_count", lambda: 3)
        assert jaynes_cummings._usable_cpus() == 3

    def test_row_dots_sum_blocks_of_dot_terms(self):
        # a window of more than _DOT_TERMS terms is summed in blocks, so no
        # BLAS call is long enough for BLAS to split it over its threads
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 3, 25_000))
        n = jaynes_cummings._DOT_TERMS
        blocks = np.vecdot(a[:, :n], b[:, :n])
        blocks += np.vecdot(a[:, n:2 * n], b[:, n:2 * n])
        blocks += np.vecdot(a[:, 2 * n:], b[:, 2 * n:])
        assert np.array_equal(jaynes_cummings._row_dots(a, b), blocks)
        exact = [math.fsum(x * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
        assert np.max(np.abs(blocks - exact)) < 1e-10
        assert np.array_equal(jaynes_cummings._row_dots(a[:, :n], b[:, :n]),
                              np.vecdot(a[:, :n], b[:, :n]))


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


class TestCoRotatingFrame:
    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 1e3), phase=st.floats(-math.pi, math.pi),
           delta=st.floats(-0.5, 0.5), g=st.floats(0.01, 0.5))
    def test_drive_is_conjugated_by_the_frame(self, t, phase, delta, g):
        # covariance: X(t) = V(t) X(0) V(t)^dag with V(t) = exp(-i omega_c sigma_z t / 2)
        p = JCParams(1.0, 1.0 + delta, g, 2.0 * np.exp(1j * phase))
        v = scipy.linalg.expm(-0.5j * p.omega_c * t * Q["sz"])
        pairs = [(jc_semiclassical_hamiltonian(t, p), jc_semiclassical_hamiltonian(0.0, p))]
        pairs += [(x(t).data, x(0.0).data) for x in jc_eigenoperators(p)]
        for at_t, at_zero in pairs:
            assert np.max(np.abs(at_t - v @ at_zero @ v.conj().T)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e3, 1e6]),
           phase=st.floats(-math.pi, math.pi), delta=st.floats(-0.5, 0.5))
    def test_stacked_times_match_single_times_bitwise(self, seed, scale, phase, delta):
        # H, F_plus, F_minus and W at an array of times are one (n, 2, 2)
        # array whose matrices are the single-time calls' bytes
        p = JCParams(1.0, 1.0 + delta, 0.2, 2.0 * np.exp(1j * phase))
        ts = np.random.default_rng(seed).uniform(-scale, scale, size=40)
        for fn in [lambda t: jc_semiclassical_hamiltonian(t, p), *jc_eigenoperators(p)]:
            stack = fn(ts)
            assert isinstance(stack, np.ndarray) and stack.shape == (40, 2, 2)
            for t, x in zip(ts.tolist(), stack):
                single = fn(t)
                assert getattr(single, "data", single).tobytes() == x.tobytes()


class TestSharedFrame:
    """H_sc, F_- and W at one float time share one cached co-rotation
    frame, keyed on (t, omega_c); no call is served another key's frame."""

    @staticmethod
    def stacked(fn, t):
        # the ndarray path forms its own phases, without the cache
        return fn(np.array([t], dtype=float))[0]

    @staticmethod
    def single(fn, t):
        x = fn(t)
        return getattr(x, "data", x)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(-1e3, 1e3), wc=st.floats(0.5, 2.0), shift=st.floats(1e-9, 0.5))
    def test_parameters_with_another_omega_c_at_the_same_time(self, t, wc, shift):
        ps = [JCParams(wc, wc + 0.1, 0.2, 2.0), JCParams(wc + shift, wc + 0.1, 0.2, 2.0)]
        fns = [[lambda x, p=p: jc_semiclassical_hamiltonian(x, p), *jc_eigenoperators(p)]
               for p in ps]
        # alternate the two frequencies at one time, three times over
        for _ in range(3):
            for row in fns:
                for fn in row:
                    assert self.single(fn, t).tobytes() == self.stacked(fn, t).tobytes()

    @pytest.mark.parametrize("t", [0.0, -0.0, 0.3, 1.0, -2.5, 7.0])
    def test_float_and_numpy_scalar_times(self, t):
        p = JCParams.with_rabi(1.0, 0.1, 0.6, 2.0)
        fns = [lambda x: jc_semiclassical_hamiltonian(x, p), *jc_eigenoperators(p)]
        # keys that compare equal: a float32 time is the float of its value
        times = [t, np.float64(t), np.float32(t), float(np.float32(t))]
        times += [int(t)] if t == int(t) else []
        for fn in fns:
            for x in times + times[::-1]:
                want = self.stacked(fn, float(x)).tobytes()
                assert self.single(fn, x).tobytes() == want

    def test_frame_is_read_only_and_results_fresh(self):
        p = JCParams.with_rabi(1.0, 0.1, 0.6, 2.0)
        h1, h2 = jc_semiclassical_hamiltonian(0.4, p), jc_semiclassical_hamiltonian(0.4, p)
        assert not np.shares_memory(h1, h2)
        h1[...] = 7.0
        assert jc_semiclassical_hamiltonian(0.4, p).tobytes() == h2.tobytes()
        assert not jaynes_cummings._frame(0.4, p.omega_c).flags.writeable

    def test_equal_parameters_do_not_share_a_stale_hamiltonian(self):
        # JCParams(g = 0.0) == JCParams(g = -0.0), but H_sc(0) differs in the
        # sign of its zero drive; each parameter set forms its own
        plus, minus = JCParams(1.0, 1.1, 0.0, 2.0), JCParams(1.0, 1.1, -0.0, 2.0)
        assert plus == minus
        got = {}
        for p in (plus, minus, plus, minus):
            drive = p.g * np.conj(p.alpha)
            h0 = np.array([[-0.5 * p.omega_eg, drive], [np.conj(drive), 0.5 * p.omega_eg]],
                          dtype=complex)
            want = jaynes_cummings._co_rotating(h0, np.array([0.5]), p.omega_c)[0]
            got[id(p)] = jc_semiclassical_hamiltonian(0.5, p).tobytes()
            assert got[id(p)] == want.tobytes()
        assert got[id(plus)] != got[id(minus)]


class TestZeroRabiFrequency:
    """Omega = 0, where sin(Omega t / 2) / Omega is t / 2; hypothesis rarely
    draws delta = 0.0 exactly, so these are explicit."""

    def test_block_propagator_is_free_phase(self):
        p = JCParams(1.0, 1.0, 0.0, 0.0)
        for n, t in ((1, 0.7), (4, 13.0), (9, 250.0)):
            free = np.exp(-1j * n * p.omega_c * t) * np.eye(2)
            assert np.max(np.abs(jc_block_propagator(n, t, p) - free)) < 1e-15

    def test_semiclassical_propagator_is_the_frame(self):
        p = JCParams(1.3, 1.3, 0.4, 0.0)
        times = np.linspace(0.0, 50.0, 11)
        frames = [scipy.linalg.expm(-0.5j * p.omega_c * t * Q["sz"]) for t in times]
        assert np.max(np.abs(jc_semiclassical_propagator(times, p) - frames)) < 1e-14

    @pytest.mark.parametrize("g", [0.3, 0.0])
    def test_kraus_kernel_matches_per_m_oracle(self, g):
        p = JCParams(1.0, 1.0, g, 1.5 * np.exp(0.7j))
        window = default_kraus_window(p)
        assert window[0] == 0                     # Omega_0 = |delta| = 0 is in the window
        rho0 = random_psd(np.random.default_rng(3))
        times = np.linspace(0.0, 30.0, 7)
        for t, rho in zip(times, _autonomous_states(rho0, p, times)):
            oracle = kraus_sum_oracle(rho0, p, t, window)
            assert np.max(np.abs(rho - oracle / np.trace(oracle).real)) < 1e-12
            expected = np.max(np.abs(kraus_completeness_oracle(p, t, window) - np.eye(2)))
            assert abs(jc_kraus_completeness(p, t, window) - expected) < 1e-12


class TestEigenoperators:
    def test_eigenfrequencies(self):
        p = JCParams(1.0, 1.3, 0.2, 2.0 * np.exp(0.3j))
        assert p.rabi == pytest.approx(math.sqrt(4 * p.nbar * p.g ** 2 + p.delta ** 2))

    def test_normalization_and_nilpotency_all_times(self):
        p = JCParams(1.0, 1.15, 0.22, 1.9 * np.exp(1.7j))
        f_plus, f_minus, w = jc_eigenoperators(p)
        for t in (0.0, 0.9, 4.4):
            for f in (f_plus(t), f_minus(t)):
                assert abs(np.trace(f.data.conj().T @ f.data) - 1.0) < 1e-10
                assert np.max(np.abs(f.data @ f.data)) < 1e-10
            assert abs(np.trace(w(t).data.conj().T @ w(t).data) - 1.0) < 1e-12

    def test_daggers_pair_up(self):
        p = JCParams(1.0, 1.25, 0.2, 2.3 * np.exp(0.5j))
        f_plus, f_minus, _ = jc_eigenoperators(p)
        assert np.max(np.abs(f_plus(1.3).data.conj().T - f_minus(1.3).data)) < 1e-12

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


class TestTouchardExactness:
    @settings(max_examples=200, deadline=None)
    @given(j=st.integers(0, 12), log_x=st.floats(-3.0, 6.0))
    def test_matches_exact_stirling_sum(self, j, log_x):
        x = 10.0 ** log_x
        exact = touchard_exact(j, x)
        assert abs(touchard(j, x) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("x", [1e4, 1e6])
    def test_first_moment_is_the_mean(self, x):
        assert touchard(1, x) == x

    def test_numpy_integer_order(self):
        assert touchard(np.int64(3), 2.0) == touchard(3, 2.0) == 22.0


class TestEnvelopeFit:
    def test_peaks_bitwise_equal_to_sample_scan(self):
        t = np.linspace(0, 10, 2000)
        # rounding flattens each peak into a plateau of equal samples
        sig = np.round(np.cos(4.0 * t) * np.exp(-0.03 * t ** 2), 3)
        idx = envelope_peaks_oracle(sig)
        y = np.abs(sig)
        want = float(-np.polyfit(t[idx] ** 2, np.log(y[idx]), 1)[0])
        assert fit_gaussian_envelope(t, sig) == want

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
