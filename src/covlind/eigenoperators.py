"""Eigenoperators of the free dynamics.

Static case: the transition operators |psi_n><psi_m| of a Hermitian
Hamiltonian for n != m row by row, labeled by Bohr frequencies
omega_nm = eps_m - eps_n, then the energy projectors as invariants.  The
Schroedinger-picture map rho -> U rho U^dag multiplies |psi_n><psi_m| by
exp(+i omega_nm t); the Heisenberg picture by exp(-i omega_nm t).

Driven case: for a periodic drive the eigenoperators of the one-period
Heisenberg map X -> U(T)^dag X U(T) are the outer products |v_i><v_j| of
the Floquet states U(T) v_i = u_i v_i, with frequencies from the
quasienergy differences (Shirley, Phys. Rev. 138, B979 (1965)) in the
Heisenberg convention of d/dt P^H = i lambda P^H (a raising-type operator
carries positive lambda).  One d x d decomposition of U(T) gives all d^2 of
them and a d x d table of their phases.  A pair is invariant when its phase
factor lies within 1e-7 of 1; the set lists I / sqrt(d), a completion from
the Floquet projectors and any folded off-diagonal invariants, then the
other pairs by ascending phase.  The phases are principal values, so
reported frequencies live in (-pi/T, pi/T]; drives whose eigenfrequencies
exceed half the drive frequency fold back, and a DegeneracyWarning flags
more than d invariants or a run of phases within 1e-7 on the circle.

One RK4 integrator, on ``propagate._rk4_blocks``, returns U(t) on a whole
grid as one array: the monodromy takes its last entry, and the Heisenberg
check U^dag(t) P(t) U(t) = exp(i lambda t) P(0) of any number of pairs is
stacked on one sweep.  On a periodic drive whose period is a whole number
of steps, the sweep integrates one period and tiles the rest as
U(t + n T) = U(t) U(t0 + T)^n, so its H(t) evaluations scale with the
period, not the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, IntegrationError
from .operators import (
    Operator,
    hermitian_eig,
    _as_matrix,
    _check_count,
    _check_dim,
    _check_hermitian,
)
from .propagate import _RK4_BLOCK, _rk4_blocks


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


@dataclass
class DrivenGenerator:
    """Time-dependent Hermitian Hamiltonian t -> H(t), optionally periodic.

    ``stacked`` says that ``h_of_t`` also takes a 1-D ndarray of n times
    and returns the (n, d, d) stack of H at them, as
    ``jc_semiclassical_hamiltonian`` does; the unitary sweep then asks for
    each block's times in one call.
    """

    h_of_t: Callable[[float], object]
    period: float | None = None
    stacked: bool = False

    def matrix(self, t: float) -> np.ndarray:
        h = _as_matrix(self.h_of_t(t))
        _check_hermitian(h, f"H(t={t})")
        return h

    def fill(self, ts: np.ndarray, out: np.ndarray, ref: str):
        """Write H(ts[i]) into out[i] for the n times ``ts``, out being
        (n, d, d): one call of a stacked ``h_of_t``, else one call per time.
        An H of another dimension raises DimensionError naming its t (for a
        stack of another shape, the first and last t) and ``ref``, the
        matrix that set d; Hermiticity is left to the caller."""
        d = out.shape[-1]
        if self.stacked:
            hs = self.h_of_t(ts)
            if np.shape(hs) != out.shape:
                raise DimensionError(f"H(t) stacked over t = {ts[0]} ... {ts[-1]} has shape "
                                     f"{np.shape(hs)}, not {out.shape}: {ref} has "
                                     f"dimension {d}")
            out[...] = hs
            return
        for i, t in enumerate(ts.tolist()):
            h = _as_matrix(self.h_of_t(t))
            if h.shape[0] != d:  # naming t costs more than the check
                _check_dim(h.shape[0], d, f"H(t={t})", ref)
            out[i] = h


def static_eigenoperators(h_d) -> EigenoperatorSet:
    """Transition operators and projectors of a static Hamiltonian.

    Lists |psi_n><psi_m| for n != m row by row, then the projectors.
    Verifies the dynamical-map eigenrelation U G U^dag = exp(i omega t) G at
    one sample time before returning.
    """
    hm = _as_matrix(h_d)
    w, v = hermitian_eig(hm)
    d = len(w)
    n, m = np.nonzero(~np.eye(d, dtype=bool))
    bohr = w[m] - w[n]
    tol = 1e-9 * float(np.abs(w).max(initial=1.0))  # under it a Bohr frequency is zero
    t_check = 7e-10 / tol  # 0.7 / max(1, |w|)
    u = hermitian_unitary(hm, t_check)
    # |U psi - psi e^{-iwt}| <= e entrywise bounds every |psi_n><psi_m| by 2e + e^2
    e = float(np.abs(u @ v - v * np.exp(-1j * w * t_check)).max(initial=0.0))
    resid = 2.0 * e + e * e
    if not resid <= 1e-8:
        raise ContractError(f"transition operator failed the eigenrelation ({resid:.2e})")
    # outer[n, m] = |psi_n><psi_m|, bitwise equal to np.outer (einsum is not)
    outer = v.T[:, None, :, None] * v.conj().T[None, :, None, :]
    projectors = [Operator(outer[j, j]) for j in range(d)]
    # a vanishing Bohr frequency (degenerate levels) commutes with H
    return EigenoperatorSet([Operator(outer[i, j]) for i, j in zip(n, m)] + projectors,
                            np.concatenate([bohr, np.zeros(d)]),
                            np.concatenate([np.abs(bohr) < tol, np.ones(d, dtype=bool)]),
                            projectors, list(zip(n.tolist(), m.tolist())) + [None] * d)


def hermitian_unitary(h, t: float) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition (H Hermitian)."""
    w, v = np.linalg.eigh(_as_matrix(h))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _diverged(t: float, dt: float) -> IntegrationError:
    return IntegrationError(f"RK4 unitary sweep diverged by t = {t:g} "
                            f"(dt = {dt:g}); the step is too long for H(t)")


def _period_steps(period, dt: float, steps: int, every: int) -> int:
    """RK4 steps m in one drive period when the period is a whole number of
    steps to rounding (|T - m dt| <= 4 m eps T), ``every`` divides m and
    m < steps; ``steps`` otherwise, so the sweep is not tiled."""
    if period is None or not dt or not 0 < period / dt < steps:
        return steps
    m = round(period / dt)
    if m % every or abs(period - m * dt) > 4 * m * np.finfo(float).eps * period:
        return steps
    return m


def _unitary_path(gen: DrivenGenerator, t0: float, t1: float, steps: int,
                  every: int, h0: np.ndarray | None = None) -> np.ndarray:
    """U(t0 + k dt), k = every, 2 every, ..., steps, as a (steps // every, d, d)
    array, where dU/dt = -i H(t) U, U(t0) = I and dt = (t1 - t0) / steps.

    Classical RK4 on -i H, on ``_rk4_blocks``.  Each H(t) of a block, from
    ``gen.fill``, must have H(t0)'s dimension, and one Hermiticity check
    covers them, naming the first failing t.  U is chained through the
    block's maps one product per step and re-unitarised every
    ``_RK4_BLOCK`` steps.  When ``gen.period`` is a whole number m < steps
    of steps that ``every`` divides, RK4 covers the first period only and
    Floquet's theorem U(t + n T) = U(t) U(t0 + T)^n tiles the rest, one
    batched product per period; otherwise m = steps.  A sweep evaluates H at
    2 m + 1 times, or 2 m when the caller passes H(t0) as ``h0``.  A step
    too long for the drive makes U overflow, silently, until the next
    re-unitarisation or the finiteness check of the whole path raises an
    IntegrationError.
    """
    dt = (t1 - t0) / steps
    m = _period_steps(gen.period, dt, steps, every)
    a_start = -1j * (gen.matrix(t0) if h0 is None else h0)

    def fill(ts, out):
        gen.fill(ts, out, f"H(t={t0})")
        _check_hermitian(out, lambda i: f"H(t={ts[i]})")
        np.multiply(-1j, out, out=out)

    u = np.eye(len(a_start), dtype=complex)
    path = np.empty((steps // every,) + u.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, _, maps in _rk4_blocks(fill, a_start, t0 + np.arange(m + 1) * dt, np.full(m, dt)):
            for k, step in enumerate(maps, k0):
                u = step @ u
                if (k + 1) % _RK4_BLOCK == 0:
                    if not np.isfinite(u).all():
                        raise _diverged(t0 + (k + 1) * dt, dt)
                    # polar projection keeps the propagator on the unitary group
                    w, _, vh = np.linalg.svd(u)
                    u = w @ vh
                if (k + 1) % every == 0:
                    path[k // every] = u
        block = m // every
        power = u
        for start in range(block, len(path), block):
            stop = min(start + block, len(path))
            np.matmul(path[:stop - start], power, out=path[start:stop])
            power = power @ u
        if not np.isfinite(path).all():
            raise _diverged(t1, dt)
    return path


def integrate_unitary(gen: DrivenGenerator, t0: float, t1: float, steps: int) -> np.ndarray:
    """RK4 U(t1) of dU/dt = -i H(t) U, U(t0) = I; calls H(t) 2 * steps + 1
    times whatever ``gen.period``: a path of one point is never tiled."""
    _check_count(steps, 1, "steps")
    return _unitary_path(gen, t0, t1, steps, steps)[-1]


def _floquet_states(u: np.ndarray):
    """Orthonormal eigenvectors z and eigenvalues of a unitary u, u z_i = u_i z_i,
    in the order in which np.linalg.eig returns the eigenvalues."""
    _, z = np.linalg.eig(u)
    # eig's eigenvectors span u's orthogonal eigenspaces but are orthogonal
    # only to rounding, within a degenerate one not at all; their polar
    # factor is orthonormal and spans the same eigenspaces
    w, _, vh = np.linalg.svd(z)
    z = w @ vh
    return z, np.diag(z.conj().T @ u @ z)


def monodromy_eigenoperators(gen: DrivenGenerator, steps: int = 4096) -> EigenoperatorSet:
    """Eigenoperators of the one-period Heisenberg propagator.

    Builds U(T) by time-ordered integration and decomposes it into Floquet
    states U(T) v_i = u_i v_i, indexed in the order in which np.linalg.eig
    returns the eigenvalues of U(T).  X -> U^dag X U sends |v_i><v_j| to
    exp(i theta_ij) |v_i><v_j|, theta_ij = angle(conj(u_i) u_j), at average
    eigenfrequency theta_ij / T in (-pi/T, pi/T].  A pair is invariant when
    |exp(i theta_ij) - 1| < 1e-7, as the diagonal is exactly.  The set lists
    I / sqrt(d), an orthonormal completion from the Floquet projectors
    |v_i><v_i| and the folded off-diagonal invariants, then the other pairs
    by ascending phase.  A DegeneracyWarning flags more than d invariants,
    and names the pairs of each run of non-invariant phases whose
    neighbours on the circle (the last and the first too) lie within 1e-7.
    """
    if gen.period is None:
        raise ContractError("monodromy requires gen.period")
    T = float(gen.period)
    u = integrate_unitary(gen, 0.0, T, steps)
    d = u.shape[0]
    unit_resid = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if not unit_resid <= 1e-8:
        raise IntegrationError(f"monodromy is not unitary within 1e-08 "
                               f"(residual {unit_resid:.2e}); increase steps")
    z, u_diag = _floquet_states(u)
    top = z[np.argmax(np.abs(z), axis=0), np.arange(d)]
    v = z * (np.abs(top) / top)  # largest entry of each Floquet state real positive
    outer = np.einsum("ai,bj->ijab", v, v.conj())  # outer[i, j] = |v_i><v_j|
    # pair (i, j) sits at flat index i * d + j, the diagonal at i * (d + 1)
    thetas = np.angle(np.outer(u_diag.conj(), u_diag)).ravel()
    order = np.argsort(thetas, kind="stable")
    invariant = np.abs(np.exp(1j * thetas[order]) - 1.0) < 1e-7
    if invariant.sum() > d:
        warnings.warn(f"{invariant.sum()} invariant eigenoperators (> dim {d}); "
                      "eigenfrequencies commensurate with the drive may have "
                      "folded onto the invariants", DegeneracyWarning)
    folded, transitions = order[invariant & (order % (d + 1) != 0)], order[~invariant]

    # transitions[k] neighbours transitions[k + 1] on the circle, and the
    # last neighbours the first; a run of collisions starts after each gap
    points = np.exp(1j * thetas[transitions])
    gap = ~(np.abs(np.diff(points, append=points[:1])) < 1e-7)
    shift = -(np.flatnonzero(gap)[-1] + 1) if gap.any() else 0
    ring, gap = np.roll(transitions, shift), np.roll(gap, shift)
    for run in np.split(ring, np.flatnonzero(gap[:-1]) + 1):
        if len(run) > 1:
            warnings.warn(f"monodromy eigenvalue exp(i{thetas[run[0]]:.6f}) is "
                          f"{len(run)}-fold degenerate; the eigenoperators of pairs "
                          f"(i, j) {[divmod(int(k), d) for k in run]} are arbitrary",
                          DegeneracyWarning)

    # columns of q: ones / sqrt(d), then an orthonormal completion;
    # sum_i q[i, k] |v_i><v_i| are orthonormal invariants
    q, _ = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, 1:]]))
    rows, cols = np.divmod(np.concatenate([folded, transitions]), d)
    ops = ([Operator(np.eye(d, dtype=complex) / np.sqrt(d))]
           + [Operator((v * q[:, k]) @ v.conj().T) for k in range(1, d)]
           + [Operator(outer[i, j]) for i, j in zip(rows, cols)])
    fixed = d + len(folded)
    return EigenoperatorSet(ops, np.concatenate([np.zeros(fixed), thetas[transitions] / T]),
                            np.arange(d * d) < fixed)


def frequency_eigenoperators(h_s, omega: float):
    """Eigenpairs of the frequency-domain kernel X -> [H, X] - omega X.

    With H psi_n = E_n psi_n it sends |psi_n><psi_m| to (E_n - E_m - omega)
    |psi_n><psi_m|; returns (values, operators) with the values (negated
    drive eigenfrequencies) ascending, ties row by row in (n, m).
    """
    w, v = hermitian_eig(h_s)
    vals = (w[:, None] - w[None, :]).ravel() - omega
    order = np.argsort(vals, kind="stable")
    # outer[n, m] = |psi_n><psi_m|, bitwise equal to np.outer
    outer = v.T[:, None, :, None] * v.conj().T[None, :, None, :]
    return vals[order], [Operator(outer[n, m]) for n, m in zip(*np.divmod(order, len(w)))]


def deviation_up_to_phase(a, b) -> float:
    """max-entry deviation between operators after optimal global phase."""
    am, bm = _as_matrix(a), _as_matrix(b)
    ip = np.trace(am.conj().T @ bm)
    phase = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.max(np.abs(am * phase - bm)))


def verify_eigenoperator(p, lam: float, gen: DrivenGenerator, grid,
                         substeps: int = 40) -> float:
    """Residual of the Heisenberg eigenvalue relation along a time grid.

    ``p`` is either a fixed Operator or a callable t -> Operator giving the
    Schroedinger-picture eigenoperator family; the residual is
    max_t || U^dag(t) P(t) U(t) - exp(i lam (t - t0)) P(t0) ||_max.
    U(t) comes from one RK4 sweep with ``substeps`` steps per grid interval,
    which calls H(t) 2 * grid.steps * substeps + 1 times, or 2 m + 1 when
    ``gen.period`` is m steps spanning whole grid intervals and the sweep is
    tiled from its first period.  A non-finite residual at any grid point
    makes the result NaN.
    """
    return _heisenberg_residuals([(p, lam)], gen, grid, substeps)[0]


def _heisenberg_residuals(pairs, gen: DrivenGenerator, grid, substeps: int = 40) -> list[float]:
    """``verify_eigenoperator`` of each (p, lam) in ``pairs``, all from one
    sweep.  p may also be the (T, d, d) ndarray of P at the T times of
    ``grid.times()``, as a stacked callable gives it in one call; each
    operator's dimension is checked against H(t0)'s first."""
    _check_count(substeps, 1, "substeps")
    times = grid.times()
    h0 = gen.matrix(grid.t0)
    stacks = []
    for p, lam in pairs:
        if not (isinstance(p, np.ndarray) and p.ndim == 3):
            p = np.array([_as_matrix(p(t) if callable(p) else p) for t in times])
        _check_dim(p.shape[-1], h0.shape[0], "eigenoperator", "H(t)")
        stacks.append((p, lam))
    us = _unitary_path(gen, grid.t0, grid.t1, grid.steps * substeps, substeps, h0)
    u_dag = us.conj().transpose(0, 2, 1)
    residuals = []
    for ps, lam in stacks:
        rhs = np.exp(1j * lam * (times[1:] - grid.t0))[:, None, None] * ps[0]
        # np.max propagates NaN, so a non-finite point makes the residual NaN
        residuals.append(float(np.max(np.abs(u_dag @ ps[1:] @ us - rhs))))
    return residuals
