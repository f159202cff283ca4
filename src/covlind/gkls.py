"""Thermodynamically consistent GKLS dissipators, fixed points and
instantaneous attractors.

Jump operators are transition-type eigenoperators of the free dynamics.
Direction convention: a channel with jump operator G = |psi_n><psi_m| and
forward rate gamma induces the transition |psi_m> -> |psi_n>; the reverse
rate belongs to G^dag.  With eta = ln(gamma/gamma_rev) the channel pins the
population ratio p_source/p_target = exp(-eta) of its stationary state.

A fixed point is exp(-H_bar)/Z with [H_bar, F_k] = -delta_k F_k for every
jump.  The least-squares normal equations of these relations, paired with
their adjoints, are the dissipator of the same jumps at unit forward and
reverse rates, D_1, with -D_1[H_bar] = sum_k delta_k [F_k^dag, F_k].  D_1
is formed from one product of the stacked jumps, and the fixed point's
residual applies the spec's GKLS formula to the d x d state, so neither
assembles a dissipator term by term.

hbar = 1 throughout; all frequencies in rad/time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .operators import (
    DensityMatrix,
    Operator,
    Superoperator,
    _as_matrix,
    _check_hermitian,
    _check_trace_annihilating,
    _commutator,
    _kron,
    liouville_unitary,
    matrix_exp,
    unvec,
    vec,
)

# ln(Gamma/Gamma_rev) replacement for a vanishing reverse rate; exp(-DELTA_CAP)
# underflows to exactly 0.0, realizing the zero-temperature projector limit.
DELTA_CAP = 1500.0


class ZeroTemperatureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Channel:
    """One dissipation channel: jump operator, forward and reverse rates."""

    op: object
    rate: float
    rate_rev: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.rate_rev)):
            raise ContractError("channel rates must be finite")
        if self.rate < 0 or self.rate_rev < 0:
            raise ContractError(
                f"negative rate ({self.rate}, {self.rate_rev}): non-Markovian "
                "inputs are rejected at this layer")


@dataclass
class DissipatorSpec:
    """Channels plus a dephasing block.

    ``dephasing_hermitian`` lists (V_j, lambda_j) double-commutator terms
    -lambda [V, [V, .]] with Hermitian V built from energy projectors
    (autonomous form).  ``dephasing_invariant`` is (W_list, chi) with
    Hermitian invariant operators and a positive semi-definite coefficient
    matrix (driven form).  ``lamb_shift`` is carried along for the unitary
    part and does not enter the dissipator.
    """

    channels: list = field(default_factory=list)
    dephasing_hermitian: list = field(default_factory=list)
    dephasing_invariant: tuple | None = None
    lamb_shift: object = None

    def __post_init__(self):
        for v, lam in self.dephasing_hermitian:
            if lam < 0:
                raise ContractError(f"dephasing weight {lam} < 0")
            _check_hermitian(_as_matrix(v), "dephasing operator")
        if self.dephasing_invariant is not None:
            ws, chi = self.dephasing_invariant
            chi = np.asarray(chi, dtype=complex)
            if chi.shape != (len(ws), len(ws)):
                raise DimensionError("chi must be square over the invariant list")
            _check_hermitian(chi, "chi")
            if float(np.linalg.eigvalsh(chi)[0]) < -1e-10:
                raise ContractError("chi must be positive semi-definite")

    @property
    def dim(self) -> int:
        if self.channels:
            return _as_matrix(self.channels[0].op).shape[0]
        if self.dephasing_hermitian:
            return _as_matrix(self.dephasing_hermitian[0][0]).shape[0]
        if self.dephasing_invariant is not None and self.dephasing_invariant[0]:
            return _as_matrix(self.dephasing_invariant[0][0]).shape[0]
        raise DimensionError("empty DissipatorSpec has no dimension")


def _lindblad(a: np.ndarray, b: np.ndarray, coeff) -> np.ndarray:
    """Matrix of coeff * (A . B - 1/2 {B A, .}); B = A^dag gives a channel."""
    eye = np.eye(a.shape[0])
    ba = b @ a
    return (_kron(b.T, a) - 0.5 * (_kron(eye, ba) + _kron(ba.T, eye))) * coeff


def lindblad_term(f, rate: float = 1.0) -> Superoperator:
    """GKLS channel rate * (F . F^dag - 1/2 {F^dag F, .})."""
    fm = _as_matrix(f)
    return Superoperator(_lindblad(fm, fm.conj().T, rate), fm.shape[0])


def build_dissipator(spec: DissipatorSpec, d: int | None = None) -> Superoperator:
    """Assemble the dissipator superoperator from a DissipatorSpec.

    The result annihilates the trace: vec(I)^dag D = 0 within 1e-10.
    An empty spec with an explicit dimension gives the zero superoperator.
    """
    if d is None:
        d = spec.dim
    total = np.zeros((d * d, d * d), dtype=complex)
    for ch in spec.channels:
        fm = _as_matrix(ch.op)
        if fm.shape[0] != d:
            raise DimensionError("channel dimension mismatch")
        fdag = fm.conj().T
        if ch.rate:
            total += _lindblad(fm, fdag, ch.rate)
        if ch.rate_rev:
            total += _lindblad(fdag, fm, ch.rate_rev)
    for v, lam in spec.dephasing_hermitian:
        cv = _commutator(_as_matrix(v))
        total -= (cv @ cv) * lam
    if spec.dephasing_invariant is not None:
        ws, chi = spec.dephasing_invariant
        chi = np.asarray(chi, dtype=complex)
        wms = [_as_matrix(w) for w in ws]
        for i, wim in enumerate(wms):
            for j, wjm in enumerate(wms):
                if chi[i, j] != 0:
                    total += _lindblad(wim, wjm, chi[i, j])
    _check_trace_annihilating(total, d, "assembled dissipator")
    return Superoperator(total, d)


def _jump_stack(spec: DissipatorSpec, d: int) -> np.ndarray:
    """The spec's jump operators as one (K, d, d) array."""
    jumps = [_as_matrix(ch.op) for ch in spec.channels]
    if any(fm.shape[0] != d for fm in jumps):
        raise DimensionError("channel dimension mismatch")
    return np.array(jumps).reshape(-1, d, d)


def _apply_dissipator(spec: DissipatorSpec, rho: np.ndarray) -> np.ndarray:
    """D[rho] for the d x d matrix rho, from the spec's GKLS formula at
    O(K d^3), without the d^2 x d^2 matrix of ``build_dissipator``.

    Raises ContractError unless D[rho] is finite and |tr D[rho]| is at most
    1e-10 times max(1, its largest |entry|), the check the assembled
    dissipator runs on itself.
    """
    f = _jump_stack(spec, rho.shape[0])
    fdag = f.conj().transpose(0, 2, 1)
    g = np.array([ch.rate for ch in spec.channels])[:, None, None]
    grev = np.array([ch.rate_rev for ch in spec.channels])[:, None, None]
    out = (g * (f @ rho @ fdag) + grev * (fdag @ rho @ f)).sum(axis=0)
    anti = (g * (fdag @ f) + grev * (f @ fdag)).sum(axis=0)
    for v, lam in spec.dephasing_hermitian:
        vm = _as_matrix(v)
        c = vm @ rho - rho @ vm
        out = out - lam * (vm @ c - c @ vm)
    if spec.dephasing_invariant is not None:
        ws, chi = spec.dephasing_invariant
        chi = np.asarray(chi, dtype=complex)
        wms = [_as_matrix(w) for w in ws]
        for i, j in zip(*np.nonzero(chi)):
            out = out + chi[i, j] * (wms[i] @ rho @ wms[j])
            anti = anti + chi[i, j] * (wms[j] @ wms[i])
    out = out - 0.5 * (anti @ rho + rho @ anti)
    trace = abs(np.trace(out))
    if not (np.isfinite(out).all() and trace <= 1e-10 * max(1.0, float(np.abs(out).max()))):
        raise ContractError(f"attractor residual D[rho] is not finite and trace-free "
                            f"(|tr D[rho]| = {trace:.2e})")
    return out


def liouvillian(h_eff, d_super: Superoperator) -> Superoperator:
    """L = -i [H_eff, .] + D; trace-annihilating by construction."""
    hm = _as_matrix(h_eff)
    _check_hermitian(hm, "effective Hamiltonian")
    d = d_super.source_dim
    l_mat = -1j * _commutator(hm) + d_super.data
    _check_trace_annihilating(l_mat, d, "Liouvillian")
    return Superoperator(l_mat, d)


def total_liouvillian(h_free, spec: DissipatorSpec) -> Superoperator:
    """Full generator: free Hamiltonian plus the spec's Lamb shift in the
    unitary part, dissipator from the spec."""
    hm = _as_matrix(h_free)
    if spec.lamb_shift is not None:
        shift = _as_matrix(spec.lamb_shift)
        _check_hermitian(shift, "Lamb shift")
        hm = hm + shift
    return liouvillian(hm, build_dissipator(spec, d=hm.shape[0]))


def detailed_balance_rates(freqs, beta: float, base) -> list[tuple[float, float]]:
    """Pair each base rate with its detailed-balance reverse rate.

    For a channel labeled by Bohr frequency omega the reverse rate is
    gamma_rev = gamma * exp(-beta * omega), so the downward channel
    (omega > 0) dominates at positive beta.  beta = inf is the
    zero-temperature limit (upward rate zero); at that limit channels must
    be labeled by positive frequency.
    """
    if not beta >= 0:
        raise ContractError(f"inverse temperature beta must be nonnegative, got {beta}")
    freqs, base = np.atleast_1d(freqs), np.atleast_1d(base)
    if len(freqs) != len(base):
        raise ContractError(f"{len(freqs)} channel frequencies but {len(base)} base rates")
    out = []
    for om, g in zip(freqs, base):
        if not math.isfinite(om):
            raise ContractError(f"channel frequency must be finite, got {om}")
        if not g >= 0:
            raise ContractError(f"base rates must be nonnegative, got {g}")
        if math.isinf(beta):
            if om > 0:
                out.append((float(g), 0.0))
            elif om == 0:
                out.append((float(g), float(g)))
            else:
                raise ContractError(
                    "at zero temperature label channels by positive frequency")
        else:
            x = beta * om
            if x < -700:
                raise ContractError("beta*omega overflows; label the channel by "
                                    "its positive (downward) frequency")
            out.append((float(g), float(g) * math.exp(-x)))
    return out


@dataclass
class AttractorResult:
    """Stationary state of a channel set with its generating Hamiltonian.

    ``residual`` is ||D[state]||_max, the spec's dissipator applied to the
    state, reported honestly (<= 1e-9 for consistent inputs).
    """

    state: DensityMatrix
    effective_hamiltonian: Operator
    deltas: np.ndarray
    residual: float
    zero_temperature: bool = False


def _unit_normal_matrix(jumps) -> np.ndarray:
    """-D_1 as a d^2 x d^2 matrix, D_1 the dissipator of ``jumps`` at unit
    forward and reverse rates.

    Over the stack G of the 2K operators F_k and F_k^dag, D_1 is
    sum_G kron(conj G, G) - (1/2)(kron(I, S) + kron(S^T, I)) with
    S = sum_G G^dag G, and the kron sum is one (d^2, 2K) . (2K, d^2)
    product.
    """
    f = np.asarray(jumps, dtype=complex)
    k, d = f.shape[:2]
    g = np.concatenate([f, f.conj().transpose(0, 2, 1)]).reshape(2 * k, d * d)
    # entry ((p, r), (q, s)) of conj(g)^T g is sum_G conj(G[p, r]) G[q, s],
    # which is entry ((p, q), (r, s)) of sum_G kron(conj G, G)
    m = (g.conj().T @ g).reshape(d, d, d, d)
    s = np.einsum("prps->rs", m)
    sandwich = m.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d)
    normal = 0.5 * (_kron(eye, s) + _kron(s.T, eye)) - sandwich
    _check_trace_annihilating(normal, d, "unit-rate normal matrix")
    return normal


def _solve_effective_hamiltonian(jumps, deltas):
    """Least-squares Hermitian H with [H, F_k] = -delta_k F_k for all k.

    Each relation is paired with its adjoint [H, F_k^dag] = delta_k F_k^dag,
    which a Hermitian H satisfies exactly when it satisfies the first.  The
    normal equations of the pairs are -D_1[H] = sum_k delta_k [F_k^dag, F_k]
    with D_1 the dissipator of the same jumps at unit forward and reverse
    rates, formed by ``_unit_normal_matrix`` from one product of the stacked
    jumps.  D_1 maps Hermitian matrices to Hermitian matrices, so the
    minimum-norm solution of this d^2 x d^2 system is the minimum-norm
    Hermitian least-squares H: sum_k (delta_k/2)(F^dag F - F F^dag) when the
    channels do not share levels, and otherwise the unique potential
    consistent with every channel at once.
    """
    d = jumps[0].shape[0]
    normal = _unit_normal_matrix(jumps)
    rhs = sum(dl * (fm.conj().T @ fm - fm @ fm.conj().T) for fm, dl in zip(jumps, deltas))
    x, *_ = np.linalg.lstsq(normal, vec(rhs), rcond=None)
    h = unvec(x, d)
    h_bar = 0.5 * (h + h.conj().T)
    resid = max(np.max(np.abs(h_bar @ fm - fm @ h_bar + dl * fm))
                for fm, dl in zip(jumps, deltas))
    return h_bar, float(resid)


def _gibbs_of(h_bar: np.ndarray, dims=()) -> DensityMatrix:
    w, v = np.linalg.eigh(h_bar)
    # subtract the minimum before exponentiating so huge (capped) deltas
    # underflow to exact zeros instead of overflowing
    p = np.exp(-(w - w.min()))
    p /= p.sum()
    rho = (v * p) @ v.conj().T
    return DensityMatrix.from_matrix(rho, dims)


def _deltas_from_rates(rates, rates_rev):
    deltas = []
    zero_t = False
    for g, grev in zip(rates, rates_rev):
        if g <= 0:
            raise ContractError("forward rates must be positive for a fixed point")
        if grev <= 0:
            zero_t = True
            deltas.append(DELTA_CAP)
        else:
            deltas.append(math.log(g / grev))
    if zero_t:
        warnings.warn("zero reverse rate: returning the zero-temperature "
                      "projector limit", ZeroTemperatureWarning)
    return np.array(deltas), zero_t


def _gibbs_attractor(spec: DissipatorSpec, tol: float, failure: str) -> AttractorResult:
    """Gibbs-like state of the spec's channels and its dissipator residual.

    The commutation residual of H_bar must stay below ``tol`` times the
    largest |delta| (at positive temperature); otherwise ContractError with
    ``failure`` formatted with the residual.
    """
    jumps = _jump_stack(spec, spec.dim)
    deltas, zero_t = _deltas_from_rates([ch.rate for ch in spec.channels],
                                        [ch.rate_rev for ch in spec.channels])
    h_bar, comm_resid = _solve_effective_hamiltonian(jumps, deltas)
    if not zero_t and comm_resid > tol * max(1.0, float(np.max(np.abs(deltas)))):
        raise ContractError(failure.format(comm_resid))
    state = _gibbs_of(h_bar)
    resid = float(np.max(np.abs(_apply_dissipator(spec, state.data))))
    return AttractorResult(state, Operator(h_bar), deltas, resid, zero_t)


def fixed_point(spec: DissipatorSpec, eigenset=None) -> AttractorResult:
    """Fixed point exp(-H_bar)/Z of an eigenoperator-built dissipator.

    Channel ratios determine eta = ln(gamma/gamma_rev) and thereby the
    effective Hamiltonian; the dephasing block never moves populations, so
    the same state annihilates the full dissipator.  When ``eigenset`` is
    given, each jump operator must coincide (up to phase) with one of its
    non-invariant eigenoperators.
    """
    if not spec.channels:
        raise ContractError("fixed_point needs at least one channel")
    jumps = [_as_matrix(ch.op) for ch in spec.channels]
    if eigenset is not None:
        fv = np.array([vec(fm) for fm in jumps])
        pool = np.array([vec(op) for op in eigenset.non_invariant()]).reshape(-1, fv.shape[1])
        fv /= np.linalg.norm(fv, axis=1, keepdims=True)
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        best = np.abs(fv.conj() @ pool.T).max(axis=1, initial=0.0)
        if not (best >= 1.0 - 1e-8).all():
            raise ContractError("channel jump operator is not an "
                                "eigenoperator of the provided set")
    return _gibbs_attractor(spec, 1e-8, "channel ratios admit no common Gibbs-like "
                                        "fixed point (commutation residual {:.2e})")


def instantaneous_attractor(channels) -> AttractorResult:
    """Instantaneous attractor exp(-H_bar)/Z of paired transition channels.

    ``channels`` holds (F_k, Gamma_k, Gamma_minus_k) with orthonormal,
    nilpotent F_k.  H_bar = sum_k (delta_k/2)(F^dag F - F F^dag) with
    delta_k = ln(Gamma_k / Gamma_minus_k) satisfies
    [H_bar, F_k] = -delta_k F_k, which makes each channel annihilate the
    state.
    """
    if not channels:
        raise ContractError("instantaneous_attractor needs at least one channel")
    jumps = np.array([_as_matrix(f) for f, _, _ in channels])
    if np.max(np.abs(jumps @ jumps)) > 1e-10:
        raise ContractError("jump operator violates F^2 = 0")
    flat = jumps.reshape(len(jumps), -1)
    if np.max(np.abs(flat.conj() @ flat.T - np.eye(len(jumps)))) > 1e-8:
        raise ContractError("jump operators must be orthonormal")
    spec = DissipatorSpec(channels=[Channel(fm, g, grev)
                                    for fm, (_, g, grev) in zip(jumps, channels)])
    return _gibbs_attractor(spec, 1e-10, "[H_bar, F_k] = -delta_k F_k violated "
                                         "(residual {:.2e})")


def check_time_translation(l_super: Superoperator, h_d, t: float, s: float) -> float:
    """Commutation residual || e^{Lt} U_D(s) - U_D(s) e^{Lt} ||_max.

    U_D(s) is the Liouville unitary of the free Hamiltonian.  Dissipators
    built from eigenoperators of H_D (with dephasing diagonal in the energy
    projectors) commute with the free map to numerical precision.
    """
    prop = matrix_exp(l_super.data * t)
    free = liouville_unitary(h_d, s).data
    return float(np.max(np.abs(prop @ free - free @ prop)))


def choi_matrix(s_super: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|) of a superoperator.

    Positive semi-definite iff the map is completely positive; the trace
    equals d for a trace-preserving map.
    """
    d = s_super.source_dim
    t = s_super.data.reshape(d, d, d, d)  # axes (b, a, j, i) of S[b*d+a, j*d+i]
    return t.transpose(3, 1, 2, 0).reshape(d * d, d * d)
