"""Time evolution of density matrices under static and time-dependent
Liouvillians, with trajectory records and observable series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, IntegrationError, PositivityError
from .operators import (
    DensityMatrix,
    Superoperator,
    _as_matrix,
    _check_count,
    _check_dim,
    _check_trace_annihilating,
    _min_eigenvalues,
    matrix_exp,
    uhlmann_fidelity,
    validate_states,
    vec,
)

TRACE_DRIFT_TOL = 1e-8
POSITIVITY_BREACH = 1e-6
_HALVING_DIVISOR = {"rk4": 15.0, "expm": 3.0}
# the most steps and bytes of a block of RK4 or exponential steps: 7 complex
# D x D a step for ``_rk4_blocks``, _EXPM_STEP_MATRICES for ``_expm_blocks``
_RK4_BLOCK = 100
_RK4_BLOCK_BYTES = 8 << 20
# per step: A at 1.5 times, its 1.5 scaled copies, matrix_exp's peak of 8
# times its input and the previous block's 1.5 maps
_EXPM_STEP_MATRICES = 13


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` intervals between t0 and t1."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not -np.inf < self.t0 < self.t1 < np.inf:
            raise ContractError(f"TimeGrid requires finite t1 > t0, got [{self.t0}, {self.t1}]")
        _check_count(self.steps, 1, "TimeGrid steps")

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps


@dataclass
class Trajectory:
    """The states rho(t_k) at ``times``, kept as ``rhos``: one read-only
    (T, d, d) stack that is never copied, row 0 holding rho0's bytes.
    ``states`` wraps its rows as ``DensityMatrix`` views on request, for the
    API edge; library code reads ``rhos``."""

    times: np.ndarray
    rhos: np.ndarray
    dims: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def states(self) -> list:
        return [DensityMatrix._wrap(rho, self.dims) for rho in self.rhos]

    def __len__(self):
        return len(self.rhos)


def _checked_states(ys: np.ndarray, rho0: DensityMatrix, times: np.ndarray) -> np.ndarray:
    """The read-only (T, d, d) stack of the states vec(rho) = ys[k] at
    times[k], ys being (T, d^2) with ys[0] = vec(rho0): row 0 is rho0's own
    bytes, unchecked, and the later rows are checked as one stack, read in
    place.  The first trace drift or eigenvalue breach raises
    IntegrationError or PositivityError naming its t, then one
    ``validate_states`` call tidies the rows."""
    rhos = np.asarray(ys)[1:].reshape(-1, *rho0.data.shape).swapaxes(-1, -2)
    times = times[1:]
    tr = np.trace(rhos, axis1=1, axis2=2).real
    drift = ~(np.abs(tr - 1.0) <= TRACE_DRIFT_TOL)
    n = int(np.argmax(drift)) if drift.any() else len(rhos)  # drifted states skip the check
    wmin = _min_eigenvalues(0.5 * (rhos[:n] + rhos[:n].conj().swapaxes(-1, -2)))
    breach = np.flatnonzero(wmin < -POSITIVITY_BREACH)
    if breach.size:
        raise PositivityError(f"state eigenvalue {wmin[breach[0]]:.2e} at t={times[breach[0]]}; "
                              f"step too large or invalid generator")
    if n < len(rhos):
        raise IntegrationError(f"trace drifted to {tr[n]} at t={times[n]}")
    checked = validate_states(rhos, TRACE_DRIFT_TOL, 1e-9, POSITIVITY_BREACH)
    stack = np.concatenate([rho0.data[None], checked])
    stack.setflags(write=False)
    return stack


def evolve_static(l_super: Superoperator, rho0: DensityMatrix, grid: TimeGrid) -> Trajectory:
    """Propagate under a constant generator with one exponential per grid.

    Uses the semigroup property: a single step matrix exp(L dt) is applied
    repeatedly.
    """
    d = rho0.data.shape[0]
    _check_dim(l_super.source_dim, d, "generator", "the state")
    _check_trace_annihilating(l_super.data, d, "generator at t=const")
    step = matrix_exp(l_super.data * grid.dt)
    times = grid.times()
    ys = np.empty((len(times), d * d), dtype=complex)  # row k: vec(rho(t_k))
    ys[0] = vec(rho0.data)
    for k in range(grid.steps):
        np.matmul(step, ys[k], out=ys[k + 1])
    return Trajectory(times, _checked_states(ys, rho0, times), rho0.dims,
                      {"mode": "static-expm", "dt": grid.dt})


def _rk4_maps(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, dt) -> np.ndarray:
    """Classical RK4 step maps P, y(t + dt) = P y(t) for dy/dt = A(t) y, from A
    at t, t + dt/2 and t + dt: the stages k_i = X_i y are regrouped as
    X_2 = A_m + dt/2 A_m A_0, X_3 = A_m + dt/2 A_m X_2, X_4 = A_1 + dt A_1 X_3
    and P = I + dt/6 (A_0 + 2 X_2 + 2 X_3 + X_4).  Stacks of generators give
    a stack of maps, one step is a stack of one, and ``dt`` may be an array
    broadcasting against the stack.  One factor of each product is scaled by
    dt, so a huge generator on a short step does not overflow."""
    # in place: a block's stack can outgrow the cache, where every extra
    # pass and allocation shows
    half = dt / 2 * am
    x2 = half @ a0
    x2 += am
    x3 = half @ x2
    x3 += am
    x4 = (dt * a1) @ x3
    x4 += a1
    x2 += x3
    x2 *= 2
    x2 += a0
    x2 += x4
    x2 *= dt / 6
    x2.reshape(x2.shape[:-2] + (a0.shape[-1] ** 2,))[..., ::a0.shape[-1] + 1] += 1
    return x2


def _block_steps(step_bytes: int) -> int:
    """Steps per block: the largest even number <= _RK4_BLOCK whose
    ``step_bytes`` each fit in _RK4_BLOCK_BYTES, at least 2."""
    return max(2, min(_RK4_BLOCK, _RK4_BLOCK_BYTES // step_bytes) // 2 * 2)


def _rk4_blocks(fill, a_start: np.ndarray, times: np.ndarray, widths: np.ndarray):
    """Classical RK4 for dy/dt = A(t) y, step k from times[k] over widths[k],
    in blocks of n steps from k0: yields (k0, a, maps), a the (2n + 1, D, D)
    stack of A at times[k0] and each step's midpoint and endpoint, maps the
    n maps of one ``_rk4_maps`` call.  ``fill(ts, out)`` writes A(ts) into
    out; row 0, ``a_start`` or the previous block's last row, is not asked
    again.  n: ``_block_steps`` at 7 matrices a step; the last block may be
    shorter.  A block lasts until the next."""
    n = _block_steps(7 * 16 * a_start.size)
    stack = np.empty((2 * min(len(widths), n) + 1,) + a_start.shape, dtype=complex)
    for k0 in range(0, len(widths), n):
        tk, dt = times[k0:k0 + n + 1], widths[k0:k0 + n]
        a = stack[:2 * len(dt) + 1]
        a[0] = stack[-1] if k0 else a_start  # the last A of the previous (full) block
        fill(np.column_stack([tk[:-1] + dt / 2, tk[1:]]).ravel(), a[1:])
        yield k0, a, _rk4_maps(a[:-1:2], a[1::2], a[2::2], dt[:, None, None])


def _expm_blocks(fill, times: np.ndarray, dd: int):
    """The midpoint exponentials of dy/dt = A(t) y, A being dd x dd, in
    blocks of n steps from k0: yields (k0, fine, coarse), fine the n maps
    e^{A(t_k + dt_k/2) dt_k} of the steps t_k -> t_{k+1}, coarse the n/2
    maps e^{A(t_k) (t_{k+1} - t_{k-1})} of the companion steps t_{k-1} ->
    t_{k+1} at odd k, each stack from one ``matrix_exp`` call.  One
    ``fill(ts, out)`` per block writes A at the block's times, strictly
    increasing: at odd k, t_k before the midpoint of step k.  n:
    ``_block_steps`` at _EXPM_STEP_MATRICES matrices a step; the last block
    may be shorter, and odd."""
    widths = np.diff(times)
    n = _block_steps(_EXPM_STEP_MATRICES * 16 * dd * dd)
    m = min(len(widths), n)
    stack = np.empty((m + m // 2, dd, dd), dtype=complex)
    for k0 in range(0, len(widths), n):
        tk, dt = times[k0:k0 + n + 1], widths[k0:k0 + n]
        # t_k and the midpoint of step k, dropping t_k at even k
        ts = np.delete(np.column_stack([tk[:-1], tk[:-1] + dt / 2]).ravel(), np.s_[::4])
        a = stack[:len(ts)]
        fill(ts, a)
        fine = a[np.delete(np.arange(len(ts)), np.s_[1::3])]
        fine *= dt[:, None, None]
        coarse = a[1::3] * (tk[2::2] - tk[:-2:2])[:, None, None]
        yield k0, matrix_exp(fine), matrix_exp(coarse)


def evolve_timedep(l_of_t, rho0: DensityMatrix, grid: TimeGrid,
                   mode: str = "rk4") -> Trajectory:
    """Propagate under a time-dependent generator.

    ``mode='rk4'`` integrates vec(rho) by classical RK4 on ``_rk4_blocks``,
    ``mode='expm'`` by a piecewise-constant exponential at each midpoint, on
    ``_expm_blocks``.  Each L(t) needed is evaluated once, in strictly
    increasing time: for N steps RK4 calls ``l_of_t`` 2N + 1 times, expm
    1 + N + N // 2 times.

    A coarse companion run at twice the step, driven by the same generator
    matrices, gives a step-halving (Richardson-style) error estimate, scaled
    for the order of the scheme and stored in
    ``metadata['step_halving_error']``.  It estimates the fine run's error
    at t_{2 floor(N/2)}, the last grid point both runs reach: t1 for even N,
    the point one step before it for odd N.
    """
    if mode not in _HALVING_DIVISOR:
        raise ContractError(f"mode must be 'rk4' or 'expm', got {mode!r}")
    d = rho0.data.shape[0]
    times = grid.times()

    def generator(t):
        l = l_of_t(t)
        lm = l.data if isinstance(l, Superoperator) else np.asarray(l, dtype=complex)
        if lm.shape != (d * d, d * d):
            raise DimensionError(f"generator at t={t} has shape {lm.shape}, "
                                 f"expected {(d * d, d * d)} for a state of dim {d}")
        return lm

    def fill(ts, out):
        for i, t in enumerate(ts):
            out[i] = generator(t)

    l_start = generator(times[0])
    _check_trace_annihilating(l_start, d, f"generator at t={grid.t0}")

    def rk4_blocks():
        pair_dt = (times[2::2] - times[:-2:2])[:, None, None]
        for k0, a, maps in _rk4_blocks(fill, l_start, times, np.diff(times)):
            j = len(maps) // 2  # coarse steps t_k -> t_{k+2}: A at rows 4p, 4p + 2, 4p + 4
            yield k0, maps, _rk4_maps(a[:4 * j:4], a[2:4 * j:4], a[4:4 * j + 1:4],
                                      pair_dt[k0 // 2:k0 // 2 + j])

    ys = np.empty((len(times), d * d), dtype=complex)  # row k: vec(rho(t_k))
    ys[0] = vec(rho0.data)
    coarse = ys[0]  # companion state at the even grid points, t_0, t_2, ...
    for k0, maps, pair_maps in (_expm_blocks(fill, times, d * d) if mode == "expm"
                                else rk4_blocks()):
        for k, step in enumerate(maps, k0):
            np.matmul(step, ys[k], out=ys[k + 1])
        for step in pair_maps:
            coarse = step @ coarse
    # for a scheme of order p the fine run's error is about
    # |fine - coarse| / (2^p - 1): p = 4 for RK4, 2 for the midpoint exponential
    last = ys[2 * (grid.steps // 2)]
    err = float(np.max(np.abs(last - coarse))) / _HALVING_DIVISOR[mode]

    return Trajectory(times, _checked_states(ys, rho0, times), rho0.dims,
                      {"mode": mode, "dt": grid.dt, "step_halving_error": err})


def expectation_series(traj: Trajectory, ops) -> list:
    """tr(O rho(t)) per grid point for each operator in ``ops``.

    Observables Hermitian within 1e-12 max(1, max|O|) yield real series,
    and raise if an imaginary part exceeds 1e-10 max(1, max|O|): both
    bounds scale with O, so a change of its unit changes no decision.
    """
    single = not isinstance(ops, (list, tuple))
    op_list = [ops] if single else list(ops)
    out = []
    for op in op_list:
        om = _as_matrix(op)
        _check_dim(om.shape[0], traj.rhos.shape[-1], "observable", "the trajectory")
        vals = np.trace(om @ traj.rhos, axis1=1, axis2=2)
        scale = max(1.0, float(np.max(np.abs(om))))
        if np.max(np.abs(om - om.conj().T)) <= 1e-12 * scale:
            if np.max(np.abs(vals.imag)) > 1e-10 * scale:
                raise IntegrationError("Hermitian expectation developed an imaginary part")
            vals = vals.real
        out.append(vals)
    return out[0] if single else out


def fidelity_series(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Pointwise Uhlmann fidelity between two aligned trajectories.

    Their grids match when no two times differ by more than
    1e-12 max(1, max|t|), so a change of time unit changes no decision.
    """
    scale = max(1.0, float(np.max(np.abs(a.times))), float(np.max(np.abs(b.times))))
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-12 * scale:
        raise DimensionError("trajectories are not on the same grid")
    return uhlmann_fidelity(a.rhos, b.rhos)
