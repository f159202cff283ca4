"""Eigenoperators of the free dynamics.

Static case: the transition operators |psi_n><psi_m| of a Hermitian
Hamiltonian, labeled by Bohr frequencies omega_nm = eps_m - eps_n, plus the
energy projectors as invariants.  The Schroedinger-picture map
rho -> U rho U^dag multiplies |psi_n><psi_m| by exp(+i omega_nm t); the
Heisenberg picture by exp(-i omega_nm t).

Driven case: for a periodic drive the eigenoperators of the one-period
Heisenberg map X -> U(T)^dag X U(T) are the outer products |v_i><v_j| of
the Floquet states U(T) v_i = u_i v_i, with frequencies from the
quasienergy differences (Shirley, Phys. Rev. 138, B979 (1965)) in the
Heisenberg convention of d/dt P^H = i lambda P^H (a raising-type operator
carries positive lambda).  One d x d decomposition of U(T) gives all d^2 of
them.  The phases are principal values, so reported frequencies live in
(-pi/T, pi/T]; drives whose eigenfrequencies exceed half the drive
frequency fold back and are flagged as degenerate when they collide.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import ContractError, IntegrationError
from .operators import (
    Operator,
    Superoperator,
    commutator_super,
    hermitian_eig,
    unvec,
    vec,
    _as_matrix,
    _check_hermitian,
)
from .propagate import _rk4_step


class DegeneracyWarning(UserWarning):
    """Monodromy eigenvalues collided; the affected subspace is arbitrary."""


@dataclass
class EigenoperatorSet:
    """Eigenoperators with frequencies and invariant flags.

    ``pairs`` records, for static sets, which (n, m) eigenstate pair each
    non-invariant transition operator connects.
    """

    ops: list
    freqs: np.ndarray
    invariant_flags: np.ndarray
    projectors: list = field(default_factory=list)
    pairs: list = field(default_factory=list)

    def non_invariant(self):
        return [op for op, inv in zip(self.ops, self.invariant_flags) if not inv]

    def invariant(self):
        return [op for op, inv in zip(self.ops, self.invariant_flags) if inv]

    def gram(self) -> np.ndarray:
        vs = np.array([vec(op) for op in self.ops])
        return vs.conj() @ vs.T

    def completeness_rank(self, tol: float = 1e-8) -> int:
        vs = np.array([vec(op) for op in self.ops])
        return int(np.linalg.matrix_rank(vs, tol=tol))


@dataclass
class DrivenGenerator:
    """Time-dependent Hermitian Hamiltonian t -> H(t), optionally periodic."""

    h_of_t: Callable[[float], object]
    period: float | None = None

    def matrix(self, t: float) -> np.ndarray:
        h = _as_matrix(self.h_of_t(t))
        _check_hermitian(h, f"H(t={t})")
        return h

    @property
    def dim(self) -> int:
        return self.matrix(0.0).shape[0]


def static_eigenoperators(h_d, tol: float = 1e-10) -> EigenoperatorSet:
    """Transition operators and projectors of a static Hamiltonian.

    Verifies the dynamical-map eigenrelation U G U^dag = exp(i omega t) G at
    one sample time before returning.
    """
    hm = _as_matrix(h_d)
    w, v = hermitian_eig(hm, tol=max(tol, 1e-10))
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
            # a vanishing Bohr frequency (degenerate levels) commutes with H
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


def hermitian_unitary(h, t: float) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition (H Hermitian)."""
    w, v = np.linalg.eigh(_as_matrix(h))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def bohr_nondegenerate(h_d, rel_tol: float = 1e-9):
    """Check that all Bohr frequencies of a Hamiltonian are distinct.

    Returns (ok, offending) where offending lists colliding ordered pairs
    ((n, m), (k, l)).  A vanishing Bohr frequency (degenerate levels) counts
    as a collision with the invariant sector.
    """
    hm = _as_matrix(h_d)
    w, _ = hermitian_eig(hm)
    d = hm.shape[0]
    entries = []
    for n in range(d):
        for m in range(d):
            if n != m:
                entries.append(((n, m), w[m] - w[n]))
    scale = max(1.0, float(np.max(np.abs(w))) if d else 1.0)
    tol = rel_tol * scale
    offending = []
    for i in range(len(entries)):
        if abs(entries[i][1]) < tol:
            offending.append((entries[i][0], None))
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if abs(entries[i][1] - entries[j][1]) < tol:
                offending.append((entries[i][0], entries[j][0]))
    return len(offending) == 0, offending


def heisenberg_generator(gen: DrivenGenerator, t: float) -> Superoperator:
    """Liouville matrix of X -> i [H(t), X] (Schroedinger-frame kernel)."""
    return 1j * commutator_super(gen.matrix(t))


# a diverging sweep overflows on its way to the check that raises; no warning
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _unitary_sweep(gen: DrivenGenerator, t0: float, t1: float, steps: int,
                   renorm_every: int = 100):
    """Yield U(t0 + k dt) for k = 1..steps, where dU/dt = -i H(t) U, U(t0) = I.

    Classical RK4 on -i H at t, t + dt/2 and t + dt; H(t + dt) is reused as
    the next step's H(t), so a full sweep calls H 2 * steps + 1 times.
    A step too long for the drive makes U overflow; that is caught at each
    re-unitarisation and at the last step as an IntegrationError.  The
    consumers silence the overflow with ``_QUIET_OVERFLOW``; set in here,
    it would leak into the caller's code between steps.
    """
    dt = (t1 - t0) / steps
    a_prev = -1j * gen.matrix(t0)
    u = np.eye(a_prev.shape[0], dtype=complex)
    for k in range(steps):
        t = t0 + k * dt
        a_mid = -1j * gen.matrix(t + dt / 2)
        a_next = -1j * gen.matrix(t0 + (k + 1) * dt)
        u = _rk4_step(u, a_prev, a_mid, a_next, dt)
        renorm = (k + 1) % renorm_every == 0
        if (renorm or k + 1 == steps) and not np.isfinite(u).all():
            raise IntegrationError(f"RK4 unitary sweep diverged by t = {t0 + (k + 1) * dt:g} "
                                   f"(dt = {dt:g}); the step is too long for H(t)")
        if renorm:
            # polar projection keeps the propagator on the unitary group
            a, _, b = np.linalg.svd(u)
            u = a @ b
        a_prev = a_next
        yield u


@_QUIET_OVERFLOW
def integrate_unitary(gen: DrivenGenerator, t0: float, t1: float, steps: int,
                      renorm_every: int = 100) -> np.ndarray:
    """RK4 U(t1) of dU/dt = -i H(t) U, U(t0) = I; calls H(t) 2 * steps + 1 times."""
    for u in _unitary_sweep(gen, t0, t1, steps, renorm_every):
        pass
    return u


def monodromy_eigenoperators(gen: DrivenGenerator, steps: int = 4096,
                             unitary_tol: float = 1e-8,
                             invariant_tol: float = 1e-8) -> EigenoperatorSet:
    """Eigenoperators of the one-period Heisenberg propagator.

    Builds U(T) by time-ordered integration and decomposes it into Floquet
    states U(T) v_i = u_i v_i.  The Heisenberg map X -> U^dag X U sends
    |v_i><v_j| to conj(u_i) u_j |v_i><v_j|, so the d^2 outer products are
    its eigenoperators, with average eigenfrequencies
    lambda = angle(conj(u_i) u_j) / T (principal phase); frequencies beyond
    half the drive frequency are not identifiable from a single period.
    The invariant sector lists the identity first, then an orthonormal
    completion from the Floquet projectors |v_i><v_i|.  Colliding phases
    are reported as a DegeneracyWarning.
    """
    if gen.period is None:
        raise ContractError("monodromy requires gen.period")
    T = float(gen.period)
    u = integrate_unitary(gen, 0.0, T, steps)
    d = u.shape[0]
    unit_resid = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if not unit_resid <= unitary_tol:
        raise IntegrationError(f"monodromy is not unitary within {unitary_tol} "
                               f"(residual {unit_resid:.2e}); increase steps")
    # U is normal, so its complex Schur form is diagonal and the Schur
    # vectors are orthonormal Floquet states even for degenerate u_i
    tri, z = scipy.linalg.schur(u, output="complex")
    top = z[np.argmax(np.abs(z), axis=0), np.arange(d)]
    v = z * (np.abs(top) / top)  # largest entry of each Floquet state real positive
    u_diag = np.diag(tri)
    outer = np.einsum("ai,bj->ijab", v, v.conj())  # outer[i, j] = |v_i><v_j|
    # pair (i, j) sits at index i * d + j
    thetas = np.angle(np.outer(u_diag.conj(), u_diag)).ravel()

    # cluster colliding phases on the unit circle (wrap-aware)
    order = np.argsort(thetas, kind="stable")
    thetas = thetas[order]
    clusters: list[list[int]] = []
    for i in range(len(thetas)):
        if clusters and abs(np.exp(1j * thetas[i]) - np.exp(1j * thetas[clusters[-1][0]])) < 1e-7:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and abs(np.exp(1j * thetas[clusters[0][0]])
                                 - np.exp(1j * thetas[clusters[-1][-1]])) < 1e-7:
        clusters[0] = clusters.pop() + clusters[0]

    ops, freqs, flags = [], [], []
    for cl in clusters:
        pairs = [divmod(int(order[k]), d) for k in cl]
        # the diagonal pairs have phase exactly 0 and share one cluster
        holds_identity = any(i == j for i, j in pairs)
        if holds_identity or abs(np.exp(1j * thetas[cl[0]]) - 1.0) < invariant_tol:
            if len(cl) > d:
                warnings.warn(
                    f"invariant cluster has {len(cl)} members (> dim {d}); "
                    "eigenfrequencies commensurate with the drive may have "
                    "folded onto the invariants", DegeneracyWarning)
            members = [outer[i, j] for i, j in pairs if i != j]
            if holds_identity:
                # columns of q: ones / sqrt(d), then an orthonormal
                # completion; sum_i q[i, k] |v_i><v_i| are orthonormal invariants
                q, _ = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, 1:]]))
                members = ([np.eye(d, dtype=complex) / np.sqrt(d)]
                           + [(v * q[:, k]) @ v.conj().T for k in range(1, d)]
                           + members)
            ops += [Operator(m) for m in members]
            freqs += [0.0] * len(members)
            flags += [True] * len(members)
        else:
            if len(cl) > 1:
                warnings.warn(
                    f"monodromy eigenvalue exp(i{thetas[cl[0]]:.6f}) is "
                    f"{len(cl)}-fold degenerate; subspace indices {cl} are arbitrary",
                    DegeneracyWarning)
            ops += [Operator(outer[i, j]) for i, j in pairs]
            freqs += [thetas[k] / T for k in cl]
            flags += [False] * len(cl)
    return EigenoperatorSet(ops, np.array(freqs), np.array(flags))


def frequency_eigenoperators(h_s, omega: float):
    """Eigenpairs of the single-harmonic frequency-domain kernel.

    Diagonalizes kron(I, H) - kron(H.T, I) - omega * I, which is Hermitian
    for Hermitian H; returns (values, operators) where the values are the
    kernel eigenvalues (the negatives of the drive eigenfrequencies) in
    ascending order and the operators are the unvec'd eigenvectors.
    """
    hm = _as_matrix(h_s)
    d = hm.shape[0]
    kernel = commutator_super(hm).data - omega * np.eye(d * d)
    vals, vecs = hermitian_eig(kernel)
    ops = [Operator(unvec(vecs[:, k], d)) for k in range(d * d)]
    return vals, ops


def deviation_up_to_phase(a, b) -> float:
    """max-entry deviation between operators after optimal global phase."""
    am, bm = _as_matrix(a), _as_matrix(b)
    ip = np.trace(am.conj().T @ bm)
    phase = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.max(np.abs(am * phase - bm)))


@_QUIET_OVERFLOW
def verify_eigenoperator(p, lam: float, gen: DrivenGenerator, grid,
                         substeps: int = 40) -> float:
    """Residual of the Heisenberg eigenvalue relation along a time grid.

    ``p`` is either a fixed Operator or a callable t -> Operator giving the
    Schroedinger-picture eigenoperator family; the residual is
    max_t || U^dag(t) P(t) U(t) - exp(i lam (t - t0)) P(t0) ||_max.
    U(t) comes from one RK4 sweep with ``substeps`` steps per grid interval,
    which calls H(t) 2 * grid.steps * substeps + 1 times.  A non-finite
    residual at any grid point makes the result NaN.
    """
    p_of_t = p if callable(p) else (lambda _t: p)
    p0 = _as_matrix(p_of_t(grid.t0))
    sweep = _unitary_sweep(gen, grid.t0, grid.t1, grid.steps * substeps)
    resid = 0.0
    # one pass: every substeps-th U of the sweep sits on the next grid point
    for t, u in zip(grid.times()[1:], itertools.islice(sweep, substeps - 1, None, substeps)):
        lhs = u.conj().T @ _as_matrix(p_of_t(t)) @ u
        rhs = np.exp(1j * lam * (t - grid.t0)) * p0
        # np.maximum propagates NaN, where max(resid, nan) would keep resid
        resid = np.maximum(resid, np.max(np.abs(lhs - rhs)))
    return float(resid)
