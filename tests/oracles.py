"""Independent numerical oracles shared by the test modules."""

import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.special import gammaln, pdtrc

from covlind import JCParams, Operator, commutator_super, matrix_exp, qubit_ops, unvec, vec
from covlind import eigenoperators, jaynes_cummings, propagate
from covlind.eigenoperators import (
    DegeneracyWarning,
    EigenoperatorSet,
    hermitian_unitary,
    integrate_unitary,
)
from covlind.errors import ContractError, IntegrationError, TruncationError
from covlind.jaynes_cummings import _rabi_block, jc_eigenoperators, jc_semiclassical_propagator
from covlind.operators import (_as_matrix, _check_count, _check_hermitian,
                               _coherent_amplitudes, _poisson_window, hermitian_eig)

Q = qubit_ops()


def decompose_sigma_x_amplitudes(p: JCParams, n_samples=3001, t_max=250.0):
    """Squared amplitudes of U^dag sigma_x U in the eigenoperator basis.

    Least-squares fit over a long time window at the six analytic
    frequencies (carrier and Mollow side-bands); ordered as
    [+wc, -wc, wc-Om, -(wc+Om), wc+Om, -(wc-Om)] carrying
    [F0, F0, F+, F+, F-, F-].
    """
    om, wc = p.rabi, p.omega_c
    f_plus, f_minus, w_norm = jc_eigenoperators(p)
    f0 = w_norm(0.0).data
    fp, fm = f_plus(0.0).data, f_minus(0.0).data
    freqs = [wc, -wc, wc - om, -(wc + om), wc + om, -(wc - om)]
    ops = [f0, f0, fp, fp, fm, fm]
    basis = [Q["sm"], Q["sp"], Q["sz"] / math.sqrt(2), np.eye(2) / math.sqrt(2)]
    ts = np.linspace(0.0, t_max, n_samples)
    y = np.empty((n_samples, 4), dtype=complex)
    for i, t in enumerate(ts):
        u = jc_semiclassical_propagator(t, p)
        sxt = u.conj().T @ Q["sx"] @ u
        y[i] = [np.trace(b.conj().T @ sxt) for b in basis]
    comp = np.array([[np.trace(b.conj().T @ o) for b in basis] for o in ops])
    mat = np.zeros((n_samples * 4, 6), dtype=complex)
    for k in range(6):
        mat[:, k] = (np.exp(-1j * ts * freqs[k])[:, None] * comp[k][None, :]).reshape(-1)
    amps, *_ = np.linalg.lstsq(mat, y.reshape(-1), rcond=None)
    return np.abs(amps) ** 2


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def destroy(n_levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to n_levels Fock states."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1).astype(complex)


def coherent_state(alpha: complex, n_max: int | None = None) -> np.ndarray:
    """Normalized coherent-state amplitudes on Fock states 0..n_max.

    ``n_max`` defaults to the top of the 10-sigma Poisson window; the
    truncated vector is renormalized.  An explicit n_max that loses more
    than 1e-12 of the weight raises TruncationError.
    """
    if not math.isfinite(abs(alpha)):
        raise ContractError(f"alpha must be finite, got {alpha}")
    if n_max is None:
        n_max = _poisson_window(alpha)[1]
    _check_count(n_max, 0, "n_max")
    # the lost weight is the exact Poisson tail beyond n_max: 1 - sum |amp|^2
    # would measure the amplitudes' rounding (5e-10 at |alpha| = 1000) instead
    deficit = float(pdtrc(n_max, abs(alpha) ** 2))
    if deficit > 1e-12:
        raise TruncationError(
            f"n_max={n_max} keeps only {1.0 - deficit:.15f} of the coherent weight",
            deficit=deficit)
    amps = _coherent_amplitudes(alpha, np.arange(n_max + 1))
    weights = np.abs(amps)
    weights **= 2
    amps /= math.sqrt(float(np.sum(weights)))
    return amps


def coherent_amplitudes_oracle(alpha: complex, n: np.ndarray) -> np.ndarray:
    """<n|alpha> for Fock numbers n >= 0 with |alpha| > 0, each in one
    log-space expression around scipy's gammaln for ln n!."""
    a = abs(alpha)
    return np.exp(n * math.log(a) - 0.5 * a * a - 0.5 * gammaln(n + 1.0)
                  + 1j * n * np.angle(alpha))


def jc_hamiltonian(p: JCParams, n_max: int) -> Operator:
    """The truncated-Fock Jaynes-Cummings Hamiltonian on qubit (x) mode,
    H = omega_c (a^dag a + 1/2) + (omega_eg/2) sigma_z + g (sm a^dag + sp a)."""
    _check_count(n_max, 1, "n_max")
    a = destroy(n_max + 1)
    num = a.conj().T @ a
    eye_m = np.eye(n_max + 1, dtype=complex)
    h = (p.omega_c * (np.kron(np.eye(2), num + 0.5 * eye_m))
         + 0.5 * p.omega_eg * np.kron(Q["sz"], eye_m)
         + p.g * (np.kron(Q["sm"], a.conj().T) + np.kron(Q["sp"], a)))
    return Operator(h, (2, n_max + 1))


def jc_block_propagator(n: int, t: float, p: JCParams) -> np.ndarray:
    """Closed-form propagator of the n'th block in basis {|g,n>, |e,n-1>}:
    the Rabi block with coupling g sqrt(n) and the global phase
    exp(-i n omega_c t)."""
    _check_count(n, 1, "block index n")
    block = _rabi_block(float(p.omega_n(n)), p.g * math.sqrt(n), p.delta, t)
    return np.exp(-1j * n * p.omega_c * t) * block


def kraus_operators_oracle(p: JCParams, t: float, window):
    """The Kraus operators chi_m = <m| U |alpha> on the qubit, one m at a time
    from the block propagators.

    |g, m> and |e, m - 1> share block m, so chi_m = [[B_m[0,0] c_m,
    B_m[0,1] c_{m-1}], [B_{m+1}[1,0] c_{m+1}, B_{m+1}[1,1] c_m]] with the
    coherent amplitudes c_n; the uncoupled |g, 0> only picks up the phase
    e^{i delta t / 2}.
    """
    lo, hi = window
    a = abs(p.alpha)

    def amp(n):
        if n < 0:
            return 0.0
        log_mod = -0.5 * a * a + n * math.log(a) - 0.5 * math.lgamma(n + 1.0)
        return math.exp(log_mod) * np.exp(1j * n * np.angle(p.alpha))

    def block(n):
        if n == 0:
            return np.diag([np.exp(0.5j * p.delta * t), 0.0])
        return jc_block_propagator(n, t, p)

    for m in range(lo, hi + 1):
        low, high = block(m), block(m + 1)
        yield np.array([[low[0, 0] * amp(m), low[0, 1] * amp(m - 1)],
                        [high[1, 0] * amp(m + 1), high[1, 1] * amp(m)]])


def kraus_sum_oracle(rho0, p: JCParams, t: float, window):
    """sum_m chi_m rho0 chi_m^dag over ``kraus_operators_oracle``."""
    out = np.zeros((2, 2), dtype=complex)
    for chi in kraus_operators_oracle(p, t, window):
        out += chi @ rho0 @ chi.conj().T
    return out


def kraus_completeness_oracle(p: JCParams, t: float, window):
    """sum_m chi_m^dag chi_m over ``kraus_operators_oracle``."""
    out = np.zeros((2, 2), dtype=complex)
    for chi in kraus_operators_oracle(p, t, window):
        out += chi.conj().T @ chi
    return out


KRAUS_SUMS = "AA BB CC EE FF GG AC BC EF EG AE BE AF BG AG BF CE CG CF".split()


def _kraus_entry_rows(p: JCParams, ts, lo: int, hi: int):
    """For each chunk of ``jaynes_cummings._kraus_kernel``'s rows, yield
    (k0, coef, trig): entry P of the Kraus operators is coef[P] * trig[P],
    coef[P] its time-independent (M,) coefficient row and trig[P] its
    (times, M) cos or sin row, a strided view of the M + 1 phases.

    The rows are A = r_m c_m, B = delta r_m s_m, C = 2 g sqrt(m) r_{m-1} s_m,
    E = 2 g sqrt(m+1) r_{m+1} s_{m+1}, F = r_m c_{m+1}, G = delta r_m s_{m+1}.
    The phases are the kernel's: each phase by angle addition from the
    chunk's first time and a table of offsets on a uniform grid, and from
    its own time with the zero offset on any other grid.
    """
    ts = np.asarray(ts, dtype=float)
    ext = np.arange(lo - 1, hi + 2)
    r = np.zeros(len(ext))
    r[ext >= 0] = _coherent_amplitudes(abs(p.alpha), ext[ext >= 0]).real
    ms, r_m = ext[1:-1], r[1:-1]
    om = p.omega_n(ext[1:])
    inv = np.divide(1.0, om, out=np.zeros_like(om), where=om > 0)
    coef = {"A": r_m, "B": p.delta * r_m * inv[:-1],
            "C": 2.0 * p.g * np.sqrt(ms) * r[:-2] * inv[:-1],
            "E": 2.0 * p.g * np.sqrt(ms + 1) * r[2:] * inv[1:],
            "F": r_m, "G": p.delta * r_m * inv[1:]}
    rows = jaynes_cummings._KRAUS_CHUNK_TERMS // (hi - lo + 1)
    dt = jaynes_cummings._grid_step(ts)
    for k0 in range(0, len(ts), rows):
        t = ts[k0:k0 + rows]
        if dt is None:
            base, c_j, s_j = t[:, None], 1.0, 0.0
        else:
            offset = om * (np.arange(len(t)) * dt / 2.0)[:, None]
            base, c_j, s_j = t[:1, None], np.cos(offset), np.sin(offset)
        half = om * base / 2.0
        c_q, s_q = np.cos(half), np.sin(half)
        cos, sin = c_q * c_j - s_q * s_j, s_q * c_j + c_q * s_j
        yield k0, coef, {"A": cos[:, :-1], "B": sin[:, :-1], "C": sin[:, :-1],
                         "E": sin[:, 1:], "F": cos[:, 1:], "G": sin[:, 1:]}


def kraus_row_sums_oracle(p: JCParams, ts, lo: int, hi: int) -> dict:
    """The 19 Kraus sums PQ = sum_m P_m Q_m of ``jaynes_cummings._kraus_kernel``
    at every time, from six real (times, M) entry rows
    (``_kraus_entry_rows``) and 19 pairwise row dot products."""
    out = {key: np.empty(len(ts)) for key in KRAUS_SUMS}
    for k0, coef, trig in _kraus_entry_rows(p, ts, lo, hi):
        row = {key: coef[key] * trig[key] for key in coef}
        for pq in KRAUS_SUMS:
            out[pq][k0:k0 + len(trig["A"])] = jaynes_cummings._row_dots(row[pq[0]], row[pq[1]])
    return out


def kraus_strided_sums_oracle(p: JCParams, ts, lo: int, hi: int) -> dict:
    """The 19 Kraus sums with the kernel's arithmetic, each product formed on
    strided (times, M) views: sum PQ is ``_row_dots`` of the product of P's
    and Q's phase rows against the weight coef[P] coef[Q].  A product of two
    doubles is the same in either order, so these are the kernel's bits
    whichever factor it takes first and however it lays the products out."""
    out = {key: np.empty(len(ts)) for key in KRAUS_SUMS}
    for k0, coef, trig in _kraus_entry_rows(p, ts, lo, hi):
        for pq in KRAUS_SUMS:
            xy, w = trig[pq[0]] * trig[pq[1]], coef[pq[0]] * coef[pq[1]]
            out[pq][k0:k0 + len(xy)] = jaynes_cummings._row_dots(xy, w)
    return out


def check_hermitian_oracle(m, stage):
    """_check_hermitian on one matrix with numpy throughout: the same
    decision and message as the library's Python-scalar branch for d <= 2."""
    worst = float(np.maximum.reduce(np.abs(m - m.conj().T), axis=None))
    if not worst <= 1e-10 and not worst < 1e-10 * float(np.abs(m).max()):
        raise ContractError(f"{stage} is not Hermitian ({worst:.2e})")


def check_trace_annihilating_oracle(l_mat, d, stage):
    """_check_trace_annihilating with numpy throughout: the same decision
    and message as the library's Python-scalar branch for d <= 2."""
    worst = float(np.maximum.reduce(np.abs(np.add.reduce(l_mat[::d + 1])), axis=None))
    scale = float(np.maximum.reduce(np.abs(l_mat), axis=None))
    if not (math.isfinite(scale) and worst <= 1e-10 * max(1.0, scale)):
        raise ContractError(f"{stage} is not trace-annihilating ({worst:.2e}; "
                            f"largest entry {scale:.2e})")


def liouvillian_kron_oracle(h, d_super):
    """-1j (kron(I, H) - kron(H^T, I)) + D with np.kron."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye)) + d_super


def lindblad_pair_oracle(a, b, coeff):
    """coeff (A . B - 1/2 {B A, .}) with np.kron: kron(B.T, A) for X -> A X B."""
    eye = np.eye(a.shape[0])
    ba = b @ a
    return (np.kron(b.T, a) - 0.5 * (np.kron(eye.T, ba) + np.kron(ba.T, eye))) * coeff


def dissipator_kron_oracle(spec, d):
    """build_dissipator spelled out term by term with np.kron.

    Every superoperator is kron(B.T, A) for X -> A X B and the terms are
    added in the library's order with the same arithmetic, so a correct
    assembly matches this bitwise.
    """
    total = np.zeros((d * d, d * d), dtype=complex)
    for ch in spec.channels:
        f = np.asarray(ch.op, dtype=complex)
        if ch.rate:
            total = total + lindblad_pair_oracle(f, f.conj().T, ch.rate)
        if ch.rate_rev:
            total = total + lindblad_pair_oracle(f.conj().T, f, ch.rate_rev)
    for v, lam in spec.dephasing_hermitian:
        # -lam [V, [V, .]] is the pair (V, V, 2 lam)
        v = np.asarray(v, dtype=complex)
        total = total + lindblad_pair_oracle(v, v, 2 * lam)
    if spec.dephasing_invariant is not None:
        ws, chi = spec.dephasing_invariant
        chi = np.asarray(chi, dtype=complex)
        for i, wi in enumerate(ws):
            for j, wj in enumerate(ws):
                if chi[i, j] != 0:
                    total = total + lindblad_pair_oracle(np.asarray(wi, dtype=complex),
                                                         np.asarray(wj, dtype=complex),
                                                         chi[i, j])
    return total


def three_call_sweep_oracle(l_of_t, y0, times, mode="rk4"):
    """Fixed-step sweep evaluating the generator afresh at every stage:
    L(t), L(t + dt/2), L(t + dt) per RK4 step, L(t + dt/2) per exponential
    step.  Returns the vec'd state at every time."""
    y = np.asarray(y0, dtype=complex)
    out = [y.copy()]
    for i in range(len(times) - 1):
        t, dt = times[i], times[i + 1] - times[i]
        if mode == "expm":
            y = scipy.linalg.expm(l_of_t(t + dt / 2) * dt) @ y
        else:
            l1, l2, l3 = l_of_t(t), l_of_t(t + dt / 2), l_of_t(t + dt)
            k1 = l1 @ y
            k2 = l2 @ (y + dt / 2 * k1)
            k3 = l2 @ (y + dt / 2 * k2)
            k4 = l3 @ (y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y.copy())
    return np.array(out)


def per_step_rk4_oracle(l_of_t, rho0, grid):
    """RK4 ``evolve_timedep`` as one ``_rk4_maps`` call per step: L at each
    endpoint, then the midpoint, and the step-halving companion from L at
    t_{k-1}, t_k and t_{k+1} after every odd step k.  Returns the checked
    stack of states and the error estimates (``halving_estimates``)."""
    times = grid.times()
    l_prev = np.asarray(l_of_t(times[0]), dtype=complex)
    y = vec(rho0.data)
    ys, coarse, gaps = [y], y, [0.0]
    for i in range(grid.steps):
        t, dt = times[i], times[i + 1] - times[i]
        l_next = np.asarray(l_of_t(times[i + 1]), dtype=complex)
        y = propagate._rk4_maps(l_prev, np.asarray(l_of_t(t + dt / 2), dtype=complex),
                                l_next, dt) @ y
        if i % 2:
            coarse = propagate._rk4_maps(l_even, l_prev, l_next,
                                         times[i + 1] - times[i - 1]) @ coarse
            gaps.append(float(np.max(np.abs(y - coarse))))
        else:
            l_even = l_prev
        l_prev = l_next
        ys.append(y)
    return propagate._checked_states(ys, rho0, times), halving_estimates(gaps, times, 15.0)


def per_step_expm_oracle(l_of_t, rho0, grid):
    """Expm ``evolve_timedep`` as one ``matrix_exp`` call per step: L at
    each midpoint, and the step-halving companion from L at t_k before
    every odd step k.  Returns the checked stack of states and the error
    estimates (``halving_estimates``)."""
    times = grid.times()
    y = vec(rho0.data)
    ys, coarse, gaps = [y], y, [0.0]
    for i in range(grid.steps):
        t, dt = times[i], times[i + 1] - times[i]
        if i % 2:
            l_mid = np.asarray(l_of_t(t), dtype=complex)
            coarse = matrix_exp(l_mid * (times[i + 1] - times[i - 1])) @ coarse
        y = matrix_exp(np.asarray(l_of_t(t + dt / 2), dtype=complex) * dt) @ y
        if i % 2:
            gaps.append(float(np.max(np.abs(y - coarse))))
        ys.append(y)
    return propagate._checked_states(ys, rho0, times), halving_estimates(gaps, times, 3.0)


def halving_estimates(gaps, times, divisor) -> dict:
    """The step-halving metadata of ``evolve_timedep`` from gaps[p], the
    max |fine - companion| at the even grid point t_{2p}: the estimate at
    the last of them, the largest, and the first time it is reached."""
    worst = int(np.argmax(gaps))
    return {"step_halving_error": gaps[-1] / divisor,
            "max_step_halving_error": gaps[worst] / divisor,
            "max_step_halving_error_t": float(times[2 * worst])}


def unitary_path_oracle(gen, t0, t1, steps, every, h0=None):
    """The unitary sweep one RK4 step at a time: U(t0 + k dt) for k = every,
    2 every, ..., steps with H called at t, t + dt/2 and t + dt per step
    (H(t + dt) reused as the next H(t)), U re-unitarised every 100 steps and
    the sweep tiled from its first period as ``_unitary_path`` does."""
    dt = (t1 - t0) / steps
    m = eigenoperators._period_steps(gen.period, dt, steps, every)
    a_prev = -1j * (gen.matrix(t0) if h0 is None else h0)
    u = np.eye(a_prev.shape[0], dtype=complex)
    path = np.empty((steps // every,) + u.shape, dtype=complex)
    for k in range(m):
        t = t0 + k * dt
        a_mid = -1j * gen.matrix(t + dt / 2)
        a_next = -1j * gen.matrix(t0 + (k + 1) * dt)
        k1 = a_prev @ u
        k2 = a_mid @ (u + dt / 2 * k1)
        k3 = a_mid @ (u + dt / 2 * k2)
        k4 = a_next @ (u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % 100 == 0:
            a, _, b = np.linalg.svd(u)
            u = a @ b
        a_prev = a_next
        if (k + 1) % every == 0:
            path[k // every] = u
    block = m // every
    for n in range(block, len(path), block):
        for i in range(n, min(n + block, len(path))):
            path[i] = path[i - n] @ np.linalg.matrix_power(u, n // block)
    return path


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        phase = col[idx] / abs(col[idx])
        out[:, k] = col / phase
    return out


def monodromy_kron_oracle(gen, steps: int = 4096,
                          unitary_tol: float = 1e-8,
                          invariant_tol: float = 1e-8) -> EigenoperatorSet:
    """monodromy_eigenoperators as the library first wrote it, kept as the
    reference for the Floquet-state construction.

    Builds U(T) by time-ordered integration, forms the Heisenberg Liouville
    map X -> U^dag X U, and diagonalizes it.  Eigenvalues exp(i theta_k)
    give average eigenfrequencies lambda_k = theta_k / T with theta the
    principal phase; frequencies beyond half the drive frequency are not
    identifiable from a single period.  Colliding eigenvalues are reported
    as a DegeneracyWarning and their subspace re-orthonormalized.
    """
    if gen.period is None:
        raise ContractError("monodromy requires gen.period")
    d = gen.matrix(0.0).shape[0]
    if d > 32:
        raise ContractError("dense monodromy limited to dimension <= 32")
    T = float(gen.period)
    u = integrate_unitary(gen, 0.0, T, steps)
    unit_resid = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if unit_resid > unitary_tol:
        raise IntegrationError(f"monodromy is not unitary within {unitary_tol} "
                               f"(residual {unit_resid:.2e}); increase steps")
    k_map = np.kron(u.T, u.conj().T)
    evals, evecs = np.linalg.eig(k_map)
    thetas = np.angle(evals)

    # cluster colliding eigenvalues on the unit circle (wrap-aware) and
    # orthonormalize inside each cluster
    order = np.argsort(thetas)
    thetas = thetas[order]
    evecs = evecs[:, order]
    clusters: list[list[int]] = []
    for i in range(len(thetas)):
        if clusters and abs(np.exp(1j * thetas[i]) - np.exp(1j * thetas[clusters[-1][0]])) < 1e-7:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(np.exp(1j * thetas[clusters[0][0]])
                                 - np.exp(1j * thetas[clusters[-1][-1]])) < 1e-7:
        clusters[0] = clusters.pop() + clusters[0]
    for cl in clusters:
        if len(cl) > 1:
            block = evecs[:, cl]
            q, _ = np.linalg.qr(block)
            evecs[:, cl] = q

    id_vec = vec(np.eye(d)) / np.sqrt(d)
    ops, freqs, flags = [], [], []
    for cl in clusters:
        block = evecs[:, cl]
        id_weight = float(np.linalg.norm(id_vec.conj() @ block))
        holds_identity = id_weight > 0.99
        invariant_cluster = (holds_identity
                             or abs(np.exp(1j * thetas[cl[0]]) - 1.0) < invariant_tol)
        if invariant_cluster:
            if len(cl) > d:
                warnings.warn(
                    f"invariant cluster has {len(cl)} members (> dim {d}); "
                    "eigenfrequencies commensurate with the drive may have "
                    "folded onto the invariants", DegeneracyWarning)
            # the identity direction is trivial; list it first, then the rest
            coeffs = id_vec.conj() @ block
            residual_block = block - np.outer(id_vec, coeffs)
            q, r = np.linalg.qr(residual_block)
            keep = [j for j in range(q.shape[1]) if abs(r[j, j]) > 1e-7]
            members = ([id_vec] if holds_identity else []) + [q[:, j] for j in keep]
            for mvec in members:
                ops.append(Operator(unvec(_phase_fix(mvec[:, None])[:, 0], d)))
                freqs.append(0.0)
                flags.append(True)
        else:
            if len(cl) > 1:
                warnings.warn(
                    f"monodromy eigenvalue exp(i{thetas[cl[0]]:.6f}) is "
                    f"{len(cl)}-fold degenerate; subspace indices {cl} are arbitrary",
                    DegeneracyWarning)
            for i in cl:
                ops.append(Operator(unvec(_phase_fix(evecs[:, i:i + 1])[:, 0], d)))
                freqs.append(thetas[i] / T)
                flags.append(False)
    # normalize to unit Hilbert-Schmidt norm (eigenvectors already near-unit)
    ops = [Operator(op.data / np.linalg.norm(op.data)) for op in ops]
    return EigenoperatorSet(ops, np.array(freqs), np.array(flags))


def static_eigenoperators_oracle(h_d) -> EigenoperatorSet:
    """static_eigenoperators as one np.outer per ordered pair (n, m), n != m
    row by row, then the projectors: the reference for its op order and its
    bits."""
    hm = _as_matrix(h_d)
    w, v = hermitian_eig(hm)
    d = hm.shape[0]
    scale = max(1.0, float(np.max(np.abs(w))) if d else 1.0)
    ops, freqs, flags, pairs = [], [], [], []
    for n in range(d):
        for m in range(d):
            if n == m:
                continue
            g = np.outer(v[:, n], v[:, m].conj())
            ops.append(Operator(g))
            freqs.append(w[m] - w[n])
            flags.append(bool(abs(w[m] - w[n]) < 1e-9 * scale))
            pairs.append((n, m))
    projectors = [Operator(np.outer(v[:, j], v[:, j].conj())) for j in range(d)]
    for p in projectors:
        ops.append(p)
        freqs.append(0.0)
        flags.append(True)
        pairs.append(None)

    t_check = 0.7 / scale
    u = hermitian_unitary(hm, t_check)
    for g, om in zip(ops[: d * (d - 1)], freqs[: d * (d - 1)]):
        resid = np.max(np.abs(u @ g.data @ u.conj().T - np.exp(1j * om * t_check) * g.data))
        if resid > 1e-8:
            raise ContractError(f"transition operator failed the eigenrelation ({resid:.2e})")
    return EigenoperatorSet(ops, np.array(freqs), np.array(flags), projectors, pairs)


def _hermitian_basis(d: int):
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j / math.sqrt(2)
            e[j, i] = 1j / math.sqrt(2)
            basis.append(e)
    return basis


def effective_hamiltonian_oracle(jumps, deltas):
    """Least-squares Hermitian H with [H, F_k] = -delta_k F_k for all k.

    Solved as one tall real (2 K d^2) x d^2 system over an orthonormal
    parametrization of Hermitian matrices; the minimum-norm solution
    reduces to sum_k (delta_k/2)(F^dag F - F F^dag) when the channels do not
    share levels, and otherwise picks the unique potential consistent with
    every channel at once.
    """
    d = jumps[0].shape[0]
    basis = np.array(_hermitian_basis(d))
    cols = []
    rhs = []
    for fm, dl in zip(jumps, deltas):
        # row k of comm.transpose(0, 2, 1) flattened is vec([B_k, F])
        comm = basis @ fm - fm @ basis
        cols.append(comm.transpose(0, 2, 1).reshape(d * d, d * d).T)
        rhs.append(-dl * vec(fm))
    a_mat = np.vstack(cols)
    b_vec = np.concatenate(rhs)
    a_real = np.vstack([a_mat.real, a_mat.imag])
    b_real = np.concatenate([b_vec.real, b_vec.imag])
    x, *_ = np.linalg.lstsq(a_real, b_real, rcond=None)
    h_bar = np.tensordot(x, basis, axes=1)
    resid = max(np.max(np.abs(h_bar @ fm - fm @ h_bar + dl * fm))
                for fm, dl in zip(jumps, deltas))
    return h_bar, float(resid)


def touchard_exact(j: int, x: float) -> Fraction:
    """T_j(x) = sum_k S(j, k) x^k in exact rationals, with the Stirling
    numbers from the explicit sum S(j, k) = sum_i (-1)^i C(k, i) (k - i)^j / k!."""
    xf = Fraction(x)
    return sum(Fraction(sum((-1) ** i * math.comb(k, i) * (k - i) ** j for i in range(k + 1)),
                        math.factorial(k)) * xf ** k
               for k in range(j + 1))


def hermitian_eig_loop_oracle(h):
    """hermitian_eig with its phase fixed column by column, as the library
    first wrote it: the reference for its bits."""
    hm = _as_matrix(h)
    _check_hermitian(hm, "hermitian_eig input")
    w, v = np.linalg.eigh(hm)
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-8)
        if idx.size:
            phase = col[idx[0]] / abs(col[idx[0]])
            v[:, k] = col / phase
    return w, v


def envelope_peaks_oracle(signal) -> list:
    """Indices of the local maxima of |signal| above 1e-6 that
    fit_gaussian_envelope fits, one sample at a time."""
    y = np.abs(np.asarray(signal, dtype=float))
    return [i for i in range(1, len(y) - 1)
            if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] > 1e-6]


def frequency_kernel_oracle(h_s, omega: float):
    """frequency_eigenoperators as the library first wrote it: eigh of the
    d^2 x d^2 kernel kron(I, H) - kron(H.T, I) - omega I, values ascending
    and the operators unvec'd from its eigenvectors."""
    hm = _as_matrix(h_s)
    d = hm.shape[0]
    kernel = commutator_super(hm).data - omega * np.eye(d * d)
    vals, vecs = hermitian_eig(kernel)
    return vals, [Operator(unvec(vecs[:, k], d)) for k in range(d * d)]
