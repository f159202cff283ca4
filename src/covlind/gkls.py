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
and every assembled dissipator come from one formula: the matrix product
of the stacked Lindblad pairs, less the anticommutator read off its
diagonal.  The fixed point's residual applies the spec's GKLS formula to
the d x d state instead, an independent check of that assembly.

A DissipatorSpec converts, checks and dimensions its operators once, and
every function here reads that normal form; a Hamiltonian, Lamb shift or
eigenset of another dimension raises DimensionError naming both.  Every
dissipator term is one Lindblad pair c (A . B - 1/2 {B A, .}), the
Hermitian dephasing -lambda [V, [V, .]] too, as (V, V, 2 lambda); the
assembly and the residual D[rho] both sum the spec's one list of pairs.

hbar = 1 throughout; all frequencies in rad/time.
"""

from __future__ import annotations

import functools
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
    _check_count,
    _check_dim,
    _check_hermitian,
    _check_trace_annihilating,
    _commutator,
    _identity,
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


def _check_real(value, name: str):
    """Raise ContractError naming ``name`` if ``value`` is complex; a float
    (np.float64 too) is real without asking numpy."""
    if not isinstance(value, float) and np.iscomplexobj(value):
        raise ContractError(f"{name} must be real, got {value!r}")


def _finite_real_entry(chi) -> complex | None:
    """c of a chi given as the nested list [[c]] of a finite real Python
    float or complex (NumPy's float64 and complex128 too), as a complex;
    None for any other chi, which takes the array path."""
    if type(chi) in (list, tuple) and len(chi) == 1:
        row = chi[0]
        if type(row) in (list, tuple) and len(row) == 1 and isinstance(row[0], (float, complex)):
            c = complex(row[0])
            if c.imag == 0.0 and math.isfinite(c.real):
                return c
    return None


@dataclass(frozen=True)
class Channel:
    """One dissipation channel: jump operator, forward and reverse rates."""

    op: object
    rate: float
    rate_rev: float = 0.0

    def __post_init__(self):
        _check_real(self.rate, "channel rate")
        _check_real(self.rate_rev, "channel reverse rate")
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
    -lambda [V, [V, .]] with Hermitian V built from energy projectors and
    finite lambda >= 0 (autonomous form).  ``dephasing_invariant`` is
    (W_list, chi) with Hermitian invariant operators and a positive
    semi-definite coefficient matrix (driven form).  ``lamb_shift`` is
    carried along for the unitary part and does not enter the dissipator.
    All terms, the Lamb shift included, share one dimension.

    Construction converts and checks every operator once and keeps the
    normal form all readers use: the Lamb shift, the dimension (None for an
    empty spec) and the Lindblad pairs (A, B, c) as one (2, n, d, d) stack
    of A and B and an (n,) stack of c, in order: (F, F^dag, rate) and
    (F^dag, F, rate_rev) per channel, skipping zero rates; then
    (V, V, 2 lambda) per Hermitian term; then (W_i, W_j, chi_ij) per
    nonzero chi entry, in row order.  The (K, d, d) jump stack, which only
    the fixed point and the attractors read, is built on first use.  A
    spec is never modified after construction.
    """

    channels: list = field(default_factory=list)
    dephasing_hermitian: list = field(default_factory=list)
    dephasing_invariant: tuple | None = None
    lamb_shift: object = None

    def __post_init__(self):
        ops = []  # every operator, for the dimension check
        pairs = []  # the terms as Lindblad pairs (A, B, c), in order
        for ch in self.channels:
            fm = _as_matrix(ch.op)
            fdag = fm.conj().T
            ops.append(fm)
            if ch.rate:
                pairs.append((fm, fdag, ch.rate))
            if ch.rate_rev:
                pairs.append((fdag, fm, ch.rate_rev))
        for v, lam in self.dephasing_hermitian:
            _check_real(lam, "dephasing weight")
            if not 0 <= lam < math.inf:
                raise ContractError(f"dephasing weight {lam} must be finite and >= 0")
            vm = _as_matrix(v)
            _check_hermitian(vm, "dephasing operator")
            ops.append(vm)
            pairs.append((vm, vm, 2 * lam))
        if self.dephasing_invariant is not None:
            ws, chi = self.dephasing_invariant
            if len(ws) == 0:
                raise ContractError("dephasing_invariant needs at least one invariant "
                                    "operator, got an empty list")
            wms = [_as_matrix(w) for w in ws]
            for wm in wms:
                _check_hermitian(wm, "invariant operator")
            ops += wms
            c = _finite_real_entry(chi) if len(wms) == 1 else None
            if c is not None:
                # a finite real [[c]] is Hermitian and its own eigenvalue
                lowest, rows = c.real, [[c]]
            else:
                chi = np.asarray(chi, dtype=complex)
                if chi.shape != (len(ws), len(ws)):
                    raise DimensionError("chi must be square over the invariant list")
                _check_hermitian(chi, "chi")
                # a Hermitian 1x1 chi is its own (real) eigenvalue
                lowest = float(chi[0, 0].real if chi.shape == (1, 1)
                               else np.linalg.eigvalsh(chi)[0])
                rows = chi.tolist()
            # the bound is -1e-10 max(1, max |chi|), as a change of time unit
            # scales chi (the scale taken only where -1e-10 fails)
            if lowest < -1e-10 and lowest < -1e-10 * float(np.abs(rows).max()):
                raise ContractError("chi must be positive semi-definite")
            pairs += [(wi, wj, c) for wi, row in zip(wms, rows)
                      for wj, c in zip(wms, row) if c != 0]
        self._lamb = None if self.lamb_shift is None else _as_matrix(self.lamb_shift)
        ops.append(self._lamb)
        dims = {m.shape[0] for m in ops if m is not None}
        if len(dims) > 1:
            raise DimensionError(f"DissipatorSpec terms have different dimensions "
                                 f"{sorted(dims)}")
        self._dim = dims.pop() if dims else None
        a_ops, b_ops, coeffs = zip(*pairs) if pairs else ((), (), ())
        self._ab = np.array(a_ops + b_ops, dtype=complex)
        self._coeff = np.array(coeffs, dtype=complex)

    @functools.cached_property
    def _jumps(self) -> np.ndarray:
        return np.array([_as_matrix(ch.op) for ch in self.channels], dtype=complex)

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise DimensionError("empty DissipatorSpec has no dimension")
        return self._dim


def _pair_sum(ab: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Sum of coeff_n (A_n . B_n - 1/2 {B_n A_n, .}) over the pairs of the
    (2, n, d, d) stack of the A_n and the B_n, a fresh d^2 x d^2 matrix.

    With the A_n and the B_n flattened to (n, d^2) rows, M = (c B)^T A,
    one matrix product for all pairs, has entry ((k, i), (j, l))
    sum_n c_n B_n[k, i] A_n[j, l]; G = sum_n c_n B_n A_n is read off it as
    G_il = sum_k M[i, k, k, l].  Entry ((i, j), (k, l)) of the sum is then
    M[k, i, j, l] - (delta_ik G_jl + G_ki delta_jl)/2: M's transpose, less
    the anticommutator's two broadcasts, each formed in M's buffer, so the
    result and M are the only d^2 x d^2 arrays held.
    """
    _, n, d = ab.shape[:3]
    rows = ab.reshape(2, n, d * d)
    m = ((coeff[:, None] * rows[1]).T @ rows[0]).reshape(d, d, d, d)
    half = m.trace(axis1=1, axis2=2)
    half *= 0.5
    total = m.transpose(1, 2, 0, 3).copy()
    eye = _identity(d)
    total -= np.multiply(eye[:, None, :, None], half[:, None, :], out=m)
    total -= np.multiply(half.T[:, None, :, None], eye[:, None, :], out=m)
    return total.reshape(d * d, d * d)


def build_dissipator(spec: DissipatorSpec, d: int | None = None) -> Superoperator:
    """Assemble the dissipator superoperator from a DissipatorSpec.

    The sum of the spec's Lindblad pairs (A, B, c), each the term
    c (A . B - 1/2 {B A, .}), formed by ``_pair_sum`` from one matrix
    product over all pairs.  Beside the result it holds M, of the result's
    size, and, during the product, the scaled B rows, half the size of the
    spec's pair stack: no per-pair d^2 x d^2 term.  Where BLAS splits that product over threads, the
    last bits of the sum may follow the BLAS thread count.

    The result annihilates the trace: vec(I)^dag D = 0 within 1e-10.
    An empty spec with an explicit dimension gives the zero superoperator;
    any other spec takes only its own dimension.  An explicit d must be an
    integer >= 1.  The returned matrix is read-only and shares no memory
    with the spec.
    """
    if d is None:
        d = spec.dim
    else:
        _check_count(d, 1, "dissipator dimension d")
        if spec._dim is not None:
            _check_dim(d, spec._dim, "dissipator", "the spec's terms")
    total = _pair_sum(spec._ab.reshape(2, -1, d, d), spec._coeff)
    _check_trace_annihilating(total, d, "assembled dissipator")
    return Superoperator._adopt(total, d)


def _apply_dissipator(spec: DissipatorSpec, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """D[rho] = sum c A rho B - 1/2 {sum c B A, rho} over the spec's
    Lindblad pairs (A, B, c), for the d x d matrix rho at O(n d^3), without
    the d^2 x d^2 matrix of ``build_dissipator``, and its scale max(1, the
    largest |entry| of D[rho], the largest |entry| of sum c B A).

    Raises ContractError unless D[rho] is finite and |tr D[rho]| is at most
    1e-10 times the scale: at a fixed point D[rho] is about 0, while the
    terms whose traces cancel scale with the rates, so a change of time
    unit changes no decision.
    """
    a, b = spec._ab.reshape(2, -1, *rho.shape)  # (0, d, d) stacks without terms
    c = spec._coeff[:, None, None]
    anti = (c * (b @ a)).sum(axis=0)
    out = (c * (a @ rho @ b)).sum(axis=0) - 0.5 * (anti @ rho + rho @ anti)
    trace = abs(np.trace(out))
    scale = max(1.0, float(np.abs(out).max()), float(np.abs(anti).max()))
    if not (np.isfinite(out).all() and trace <= 1e-10 * scale):
        raise ContractError(f"attractor residual D[rho] is not finite and trace-free "
                            f"(|tr D[rho]| = {trace:.2e})")
    return out, scale


def liouvillian(h_eff, d_super: Superoperator) -> Superoperator:
    """L = -i [H_eff, .] + D; trace-annihilating by construction.

    L is formed in the commutator's fresh matrix, -1j (kron(I, H) -
    kron(H^T, I)) + D with the arithmetic of that expression, and returned
    read-only without a copy; it shares no memory with ``h_eff`` or
    ``d_super``.
    """
    hm = _as_matrix(h_eff)
    _check_hermitian(hm, "effective Hamiltonian")
    d = d_super.source_dim
    _check_dim(hm.shape[0], d, "Hamiltonian", "the dissipator")
    l_mat = _commutator(hm)
    l_mat *= -1j
    l_mat += d_super.data
    _check_trace_annihilating(l_mat, d, "Liouvillian")
    return Superoperator._adopt(l_mat, d)


def total_liouvillian(h_free, spec: DissipatorSpec) -> Superoperator:
    """Full generator: free Hamiltonian plus the spec's Lamb shift in the
    unitary part, dissipator from the spec."""
    hm = _as_matrix(h_free)
    if spec._dim is not None:
        _check_dim(hm.shape[0], spec._dim, "free Hamiltonian", "the spec's terms")
    d_super = build_dissipator(spec, d=hm.shape[0])
    if spec._lamb is not None:
        _check_hermitian(spec._lamb, "Lamb shift")
        hm = hm + spec._lamb
    return liouvillian(hm, d_super)


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
    state, reported honestly (<= 1e-9 for consistent inputs at O(1) rates).
    ``residual_scale`` is the scale of ``_apply_dissipator`` for the same
    dissipator and state; a change of time unit scales both alike, so
    residual / residual_scale does not depend on it.
    """

    state: DensityMatrix
    effective_hamiltonian: Operator
    deltas: np.ndarray
    residual: float
    residual_scale: float
    zero_temperature: bool = False


def _unit_normal_matrix(jumps) -> np.ndarray:
    """-D_1 as a d^2 x d^2 matrix, D_1 the dissipator of ``jumps`` at unit
    forward and reverse rates: ``_pair_sum`` of the pairs (F_k, F_k^dag)
    and (F_k^dag, F_k) at coefficient -1."""
    f = np.asarray(jumps, dtype=complex)
    fdag = f.conj().transpose(0, 2, 1)
    ab = np.stack([np.concatenate([f, fdag]), np.concatenate([fdag, f])])
    normal = _pair_sum(ab, np.full(2 * len(f), -1.0))
    _check_trace_annihilating(normal, f.shape[1], "unit-rate normal matrix")
    return normal


def _solve_effective_hamiltonian(jumps, deltas):
    """Least-squares Hermitian H with [H, F_k] = -delta_k F_k for all k.

    Each relation is paired with its adjoint [H, F_k^dag] = delta_k F_k^dag,
    which a Hermitian H satisfies exactly when it satisfies the first.  The
    normal equations of the pairs are -D_1[H] = sum_k delta_k [F_k^dag, F_k]
    with D_1 the dissipator of the same jumps at unit forward and reverse
    rates, formed by ``_unit_normal_matrix`` with ``build_dissipator``'s one
    product over the pairs, so its last bits, and H's, may follow the BLAS
    thread count where BLAS splits that product.  D_1 maps Hermitian matrices to Hermitian matrices, so the
    minimum-norm solution of this d^2 x d^2 system is the minimum-norm
    Hermitian least-squares H: sum_k (delta_k/2)(F^dag F - F F^dag) when the
    channels do not share levels, and otherwise the unique potential
    consistent with every channel at once.
    """
    normal = _unit_normal_matrix(jumps)
    rhs = sum(dl * (fm.conj().T @ fm - fm @ fm.conj().T) for fm, dl in zip(jumps, deltas))
    x, *_ = np.linalg.lstsq(normal, vec(rhs), rcond=None)
    h = unvec(x)
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
    for k, (g, grev) in enumerate(zip(rates, rates_rev)):
        if g <= 0:
            raise ContractError(f"forward rates must be positive for a fixed point: "
                                f"channel {k} has forward rate {g:g} and reverse "
                                f"rate {grev:g}")
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
    deltas, zero_t = _deltas_from_rates([ch.rate for ch in spec.channels],
                                        [ch.rate_rev for ch in spec.channels])
    h_bar, comm_resid = _solve_effective_hamiltonian(spec._jumps, deltas)
    if not zero_t and comm_resid > tol * max(1.0, float(np.max(np.abs(deltas)))):
        raise ContractError(failure.format(comm_resid))
    state = _gibbs_of(h_bar)
    d_rho, scale = _apply_dissipator(spec, state.data)
    return AttractorResult(state, Operator(h_bar), deltas, float(np.max(np.abs(d_rho))),
                           scale, zero_t)


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
    if eigenset is not None:
        _check_dim(_as_matrix(eigenset.ops[0]).shape[0], spec.dim, "eigenset", "the spec")
        fv = np.array([vec(fm) for fm in spec._jumps])
        pool = np.array([vec(op) for op in eigenset.non_invariant()]).reshape(-1, fv.shape[1])
        fv /= np.linalg.norm(fv, axis=1, keepdims=True)
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        best = np.abs(fv.conj() @ pool.T).max(axis=1, initial=0.0)
        if not (best >= 1.0 - 1e-8).all():
            raise ContractError("channel jump operator is not an "
                                "eigenoperator of the provided set")
    return _gibbs_attractor(spec, 1e-8, "channel ratios admit no common Gibbs-like "
                                        "fixed point (commutation residual {:.2e})")


def _instantaneous(spec: DissipatorSpec) -> AttractorResult:
    """Instantaneous attractor of the spec's channels, whose jumps must be
    orthonormal and nilpotent; its residual and scale are those of the
    whole spec, dephasing included."""
    if not spec.channels:
        raise ContractError("instantaneous_attractor needs at least one channel")
    # the unit norm the orthonormality check asks for makes this bound free
    # of the unit of time, which scales only the rates
    if np.max(np.abs(spec._jumps @ spec._jumps)) > 1e-10:
        raise ContractError("jump operator violates F^2 = 0")
    flat = spec._jumps.reshape(len(spec.channels), -1)
    if np.max(np.abs(flat.conj() @ flat.T - np.eye(len(spec.channels)))) > 1e-8:
        raise ContractError("jump operators must be orthonormal")
    return _gibbs_attractor(spec, 1e-10, "[H_bar, F_k] = -delta_k F_k violated "
                                         "(residual {:.2e})")


def instantaneous_attractor(channels) -> AttractorResult:
    """Instantaneous attractor exp(-H_bar)/Z of paired transition channels.

    ``channels`` holds (F_k, Gamma_k, Gamma_minus_k) with orthonormal,
    nilpotent F_k.  H_bar is the least-squares Hermitian solution of
    [H_bar, F_k] = -delta_k F_k, delta_k = ln(Gamma_k / Gamma_minus_k), for
    all k at once: sum_k (delta_k/2)(F^dag F - F F^dag) only when no two
    channels share a level.  A residual above 1e-10 max(1, |delta|) raises.
    """
    return _instantaneous(DissipatorSpec(channels=[Channel(f, g, grev)
                                                   for f, g, grev in channels or ()]))


def check_time_translation(l_super: Superoperator, h_d, t: float, s: float) -> float:
    """Commutation residual || e^{Lt} U_D(s) - U_D(s) e^{Lt} ||_max.

    U_D(s) is the Liouville unitary of the free Hamiltonian.  Dissipators
    built from eigenoperators of H_D (with dephasing diagonal in the energy
    projectors) commute with the free map to numerical precision.
    """
    free = liouville_unitary(h_d, s)
    _check_dim(free.source_dim, l_super.source_dim, "free Hamiltonian", "the generator")
    prop, free = matrix_exp(l_super.data * t), free.data
    return float(np.max(np.abs(prop @ free - free @ prop)))


def choi_matrix(s_super: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|) of a superoperator.

    Positive semi-definite iff the map is completely positive; the trace
    equals d for a trace-preserving map.
    """
    d = s_super.source_dim
    t = s_super.data.reshape(d, d, d, d)  # axes (b, a, j, i) of S[b*d+a, j*d+i]
    return t.transpose(3, 1, 2, 0).reshape(d * d, d * d)
