"""Jaynes-Cummings analytics: exact Kraus reduction of the qubit under the
autonomous block dynamics, the semi-classical (Rabi) propagator, analytic
driven eigenoperators, the collapse envelope and Touchard asymptotics.
Everything is in closed form; no truncated-Fock Hamiltonian is built (the
tests keep one as the reference the closed forms are checked against).

Basis conventions: qubit basis (|g>, |e>) with sigma_z = diag(-1, +1);
the coupled space is ordered |qubit> (x) |n>.  The n'th excitation block
spans {|g, n>, |e, n-1>}.  hbar = 1.

Two primitives carry the closed forms: ``_rabi_block``, the Rabi rotation
of block n at coupling g sqrt(n) (the semi-classical propagator is the same
block at g|alpha| in the drive's frame), and ``_co_rotating``, that frame
X(t) = V(t) X(0) V(t)^dag, V(t) = exp(-i omega_c sigma_z t / 2), which by
covariance carries H_sc, F_pm and W from t = 0.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TruncationError
from .operators import (DensityMatrix, Operator, _coherent_amplitudes, _poisson_window,
                        qubit_ops, validate_states)

_Q = qubit_ops()


@dataclass(frozen=True)
class JCParams:
    """Jaynes-Cummings configuration.

    omega_c: mode frequency; omega_eg: qubit splitting; g: coupling;
    alpha: coherent amplitude of the control mode.  Derived quantities:
    delta = omega_eg - omega_c, nbar = |alpha|^2, and the generalized Rabi
    frequency rabi = sqrt(delta^2 + 4 g^2 nbar).
    """

    omega_c: float
    omega_eg: float
    g: float
    alpha: complex = 0.0

    def __post_init__(self):
        for name, value in (("omega_c", self.omega_c), ("omega_eg", self.omega_eg)):
            if not 0 < value < math.inf:
                raise ContractError(f"{name} must be positive and finite, got {value}")
        # float products give inf or nan where ** raises a bare OverflowError
        g2, nbar = self.g * self.g, abs(self.alpha) * abs(self.alpha)
        if not (self.g >= 0 and math.isfinite(g2)):
            raise ContractError(f"coupling g = {self.g:g} must be nonnegative with finite g^2")
        if not math.isfinite(nbar):
            raise ContractError(f"amplitude alpha = {self.alpha:g} has no finite |alpha|^2")
        if not math.isfinite(self.delta * self.delta + 4.0 * g2 * nbar):
            raise ContractError(f"delta^2 + 4 g^2 |alpha|^2 overflows at delta = "
                                f"{self.delta:g}, g = {self.g:g}, alpha = {self.alpha:g}")

    @property
    def delta(self) -> float:
        return self.omega_eg - self.omega_c

    @property
    def nbar(self) -> float:
        return abs(self.alpha) ** 2

    def omega_n(self, n) -> np.ndarray:
        return np.sqrt(self.delta ** 2 + 4.0 * self.g ** 2 * np.asarray(n, dtype=float))

    @property
    def rabi(self) -> float:
        return float(self.omega_n(self.nbar))

    @functools.cached_property
    def _h_sc0(self) -> np.ndarray:
        """H_sc(0) of ``jc_semiclassical_hamiltonian``, read-only, formed
        once per parameter set."""
        drive = self.g * np.conj(self.alpha)
        h0 = np.array([[-0.5 * self.omega_eg, drive], [np.conj(drive), 0.5 * self.omega_eg]],
                      dtype=complex)
        h0.setflags(write=False)
        return h0

    @classmethod
    def with_rabi(cls, omega_c: float, delta: float, rabi: float, alpha: complex) -> "JCParams":
        """Fix g so the generalized Rabi frequency takes the given value."""
        if abs(alpha) == 0:
            raise ContractError("with_rabi needs a nonzero coherent amplitude")
        if not rabi >= abs(delta):
            raise ContractError(f"rabi must be at least |delta|, got rabi = {rabi:g}, "
                                f"delta = {delta:g}")
        try:
            g = math.sqrt(rabi ** 2 - delta ** 2) / (2.0 * abs(alpha))
        except OverflowError:
            raise ContractError(f"rabi^2 overflows at rabi = {rabi:g}, delta = {delta:g}") from None
        return cls(omega_c, omega_c + delta, g, alpha)


def default_kraus_window(p: JCParams) -> tuple[int, int]:
    """Fock window [nbar - 10|alpha|, nbar + 10|alpha| + 20] (10-sigma)."""
    return _poisson_window(p.alpha)


def _rabi_block(omega: float, kappa: float, delta: float, t) -> np.ndarray:
    """exp(-i t H) = c I - 2i s H for H = kappa X - (delta/2) Z, Z = diag(1, -1),
    omega = sqrt(delta^2 + 4 kappa^2): [[c + i delta s, -2i kappa s],
    [-2i kappa s, c - i delta s]] with c = cos(omega t/2) and
    s = sin(omega t/2) / omega (t/2 at omega = 0); shape t.shape + (2, 2)."""
    t = np.asarray(t, dtype=float)
    half = omega * t / 2.0
    s = np.sin(half) / omega if omega else t / 2.0
    minus_2i_h = np.array([[1j * delta, -2j * kappa], [-2j * kappa, -1j * delta]])
    return np.cos(half)[..., None, None] * np.eye(2) + s[..., None, None] * minus_2i_h


@functools.lru_cache(maxsize=4)
def _frame(t: float, omega_c: float) -> np.ndarray:
    """The read-only factor [[1, e^{i omega_c t}], [e^{-i omega_c t}, 1]] of
    ``_co_rotating`` at one time, shared by the operators co-rotated at the
    same (t, omega_c), as a driven generator's H_sc, F_- and W are.  Keys
    that compare equal give equal bytes: a float t and the same value as an
    int or a NumPy scalar form the same phase, and so do t = 0.0 and -0.0."""
    phase = cmath.exp(1j * omega_c * t)
    frame = np.array([[1.0, phase], [phase.conjugate(), 1.0]])
    frame.setflags(write=False)
    return frame


def _co_rotating(x0: np.ndarray, t, omega_c: float) -> np.ndarray:
    """X(t) = V(t) X(0) V(t)^dag, V(t) = exp(-i omega_c sigma_z t / 2), for a
    2x2 X(0): X_01 gains e^{i omega_c t}, X_10 its conjugate.  A float t
    gives the 2x2 X(t); an ndarray of times gives shape t.shape + (2, 2),
    each matrix bitwise the one its time gives alone."""
    if not isinstance(t, np.ndarray):
        return x0 * _frame(t, omega_c)
    phase = np.exp(1j * omega_c * t.astype(float, copy=False))
    frame = np.ones(phase.shape + (2, 2), dtype=complex)
    frame[..., 0, 1] = phase
    frame[..., 1, 0] = phase.conj()
    return x0 * frame


# Kraus terms per chunk of times: as many as 4 MiB of Kraus operators hold,
# a 2x2 complex block (64 B) each; a chunk's workspace keeps three 8 B
# arrays of them (cos, sin and a trig temporary), about 1.5 MiB
_KRAUS_CHUNK_TERMS = (4 << 20) // 64
# most threads that compute Kraus chunks at once, each holding one chunk
_KRAUS_WORKERS = 4
# terms per BLAS dot product: OpenBLAS splits a longer dot product over its
# own threads, whose count would then set the last bits of the Kraus sums
_DOT_TERMS = 10_000


def _kraus_window(p: JCParams, window) -> tuple[int, int]:
    """The Fock window; one time's Kraus terms must fit a chunk, so memory
    stays bounded as alpha grows (the default window fits up to |alpha| ~ 3000)."""
    lo, hi = window if window is not None else default_kraus_window(p)
    if not 0 <= lo <= hi:
        raise ContractError(f"Kraus window [{lo}, {hi}] needs 0 <= lo <= hi")
    if hi - lo + 1 > _KRAUS_CHUNK_TERMS:
        raise ContractError(f"Kraus window [{lo}, {hi}] at alpha={p.alpha:g} holds more "
                            f"than the {_KRAUS_CHUNK_TERMS} terms of one chunk")
    if hi >= 2 ** 53:
        # past 2^53 the default window's width 20|alpha| rounds away and Fock
        # numbers are no longer exact doubles
        raise ContractError(f"Kraus window [{lo}, {hi}] at alpha={p.alpha:g} reaches "
                            f"past 2^53, where Fock numbers are not exact")
    return int(lo), int(hi)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a (times, M) array with a (times, M) array or
    with one (M,) row for every time, summed over column blocks of at most
    _DOT_TERMS terms, left to right; one np.vecdot call when M <= _DOT_TERMS."""
    total = np.vecdot(a[:, :_DOT_TERMS], b[..., :_DOT_TERMS])
    for j in range(_DOT_TERMS, a.shape[1], _DOT_TERMS):
        total += np.vecdot(a[:, j:j + _DOT_TERMS], b[..., j:j + _DOT_TERMS])
    return total


def _flat(a: np.ndarray) -> np.ndarray:
    """The rows of the C-contiguous array ``a`` end to end, as a view of it;
    a reshape of any other layout would copy, and what is written to the
    copy would be lost."""
    if not a.flags.c_contiguous:
        raise ValueError("a flat view needs a C-contiguous array")
    return a.reshape(-1)


def _grid_step(ts: np.ndarray) -> float | None:
    """The step dt = (t_last - t_0) / (len(ts) - 1) when every ts[k] is
    ts[0] + k dt to within 4 ulp of max |t| plus the rounding of dt summed
    over the steps, which every np.linspace grid meets; None for fewer than
    two times and for any other grid."""
    n = len(ts)
    if n < 2:
        return None
    with np.errstate(all="ignore"):  # a non-finite grid fails the comparison
        dt = (ts[-1] - ts[0]) / (n - 1)
        drift = np.max(np.abs(ts - (np.arange(n) * dt + ts[0])))
        tol = 4.0 * np.spacing(np.max(np.abs(ts))) + (n - 1) * np.spacing(abs(dt))
        return float(dt) if drift <= tol else None


def _kraus_kernel(p: JCParams, ts: np.ndarray, lo: int, hi: int):
    """The Kraus reduction over the Fock window m = lo..hi at the times ``ts``:
    the rows R = _KRAUS_CHUNK_TERMS // (hi - lo + 1) of a chunk and a function
    k0 -> (s, deficit) for the chunk of times k0 .. k0 + R - 1.  ``s`` maps
    each product of real Kraus entries to its (times,) sums over the window
    and ``deficit`` is the chunk's max |sum_m chi_m^dag chi_m - I|.

    The Kraus operators chi_m(t) = e^{i m wc t} <m| U_D |alpha> (the factor
    is the free phase of the m'th excitation block; it cancels in
    chi rho chi^dag and chi^dag chi) conserve excitations, so the phase
    phi = arg(alpha) only rotates them about z:
    chi_m = e^{i m phi} P D [[A + iB, -iC], [-iE, F - iG]] D^dag with
    P = diag(1, e^{-i wc t}), D = diag(1, e^{i phi}) and the real entries
    A = r_m c_m, B = delta r_m s_m, C = 2 g sqrt(m) r_{m-1} s_m,
    E = 2 g sqrt(m+1) r_{m+1} s_{m+1}, F = r_m c_{m+1}, G = delta r_m s_{m+1}
    (``_rabi_block`` entries), where r_n = |<n|alpha>|,
    c_n = cos(Omega_n t / 2), s_n = sin(Omega_n t / 2) / Omega_n.

    Each of the 19 sums PQ = sum_m P_m Q_m is sum_m w_m x_m y_m, where x and
    y are the cosine or sine of Omega_n t / 2 at n = m or m + 1 and the
    weight w is a time-independent product of r_m and the B, C, E, G
    coefficients (with 1/Omega_n folded in); r_n, Omega_n and the weights
    are built once per call, not per chunk.  A chunk forms the seven trig
    products one at a time in its trig temporary and reduces each against
    its weights by ``_row_dots``.  sin^2, cos^2 and cos sin run over the
    M + 1 phases and are read at columns m and m + 1.  The four cross
    products x_m y_{m+1} each run as one contiguous pass over the chunk's
    rows end to end (``_flat`` views of the workspace), where entry M of a
    row pairs its last phase with the next row's first and is never read.
    Each sum is one row reduction, so a time's sums do not depend on the
    other times of its chunk.

    Each phase is a base phase plus an offset: cos = c_q c_j - s_q s_j and
    sin = s_q c_j + c_q s_j.  On a uniform grid (``_grid_step``) a chunk's
    time k0 + j takes the base Omega t_{k0} / 2 and the offset Omega j dt / 2
    from one R-row table, so trig runs on about len(ts) / R + R rows instead
    of len(ts); on any other grid, and for a single time, each time is its
    own base with the zero offset (cos 1, sin 0, exact).

    Each thread that calls ``sums`` gets one workspace on its first chunk:
    cos, sin and the trig temporary, each of shape (n, M + 1) with
    n = min(R, len(ts)), which every chunk overwrites (a partial chunk its
    leading rows).  The returned sums are fresh arrays, which outlive the
    thread's next chunk.
    """
    # |<n|alpha>| for n = lo-1 .. hi+1; n = -1 has none
    ext = np.arange(lo - 1, hi + 2)
    r = np.zeros(len(ext))
    r[ext >= 0] = _coherent_amplitudes(abs(p.alpha), ext[ext >= 0]).real
    ms, r_m = ext[1:-1], r[1:-1]
    om = p.omega_n(ext[1:])                      # Omega_n for n = lo .. hi+1
    # each numerator that meets 1/Omega_n is 0 where Omega_n = 0 (delta = g sqrt(n) = 0)
    inv = np.divide(1.0, om, out=np.zeros_like(om), where=om > 0)
    b, c = p.delta * r_m * inv[:-1], 2.0 * p.g * np.sqrt(ms) * r[:-2] * inv[:-1]
    e, g = 2.0 * p.g * np.sqrt(ms + 1) * r[2:] * inv[1:], p.delta * r_m * inv[1:]
    rr, re = r_m * r_m, r_m * e
    # x_n y_n over the M + 1 phases: the weights at n = m, then at n = m + 1
    same = (("sin", "sin", {"BB": b * b, "CC": c * c, "BC": b * c},
             {"EE": e * e, "GG": g * g, "EG": e * g}),
            ("cos", "cos", {"AA": rr}, {"FF": rr}),
            ("cos", "sin", {"AC": r_m * c}, {"EF": re}))
    # x_m y_{m+1}
    cross = (("cos", "sin", {"AE": re, "AG": r_m * g}),
             ("sin", "cos", {"BF": b * r_m, "CF": c * r_m}),
             ("cos", "cos", {"AF": rr}),
             ("sin", "sin", {"BE": b * e, "BG": b * g, "CE": c * e, "CG": c * g}))

    rows = _KRAUS_CHUNK_TERMS // (hi - lo + 1)
    n = min(rows, len(ts))
    # at M <= _DOT_TERMS, _row_dots would make exactly this one call
    dots = np.vecdot if hi - lo + 1 <= _DOT_TERMS else _row_dots
    dt = _grid_step(ts)
    if dt is not None:
        offset = om * (np.arange(n) * dt / 2.0)[:, None]
        c_r, s_r = np.cos(offset), np.sin(offset)
    local = threading.local()

    def sums(k0: int) -> tuple[dict, float]:
        t = ts[k0:k0 + rows]
        if not hasattr(local, "trig"):
            local.trig = np.empty((3, n, len(om)))
        cos, sin, tmp = local.trig[:, :len(t)]
        base, c_j, s_j = ((t[:, None], 1.0, 0.0) if dt is None
                          else (t[:1, None], c_r[:len(t)], s_r[:len(t)]))
        half = om * base / 2.0
        c_q, s_q = np.cos(half), np.sin(half)
        np.multiply(c_q, c_j, out=cos)
        cos -= np.multiply(s_q, s_j, out=tmp)
        np.multiply(s_q, c_j, out=sin)
        sin += np.multiply(c_q, s_j, out=tmp)
        trig, s = {"cos": cos, "sin": sin}, {}
        for x, y, at_m, at_next in same:
            np.multiply(trig[x], trig[y], out=tmp)
            for weights, xy in ((at_m, tmp[:, :-1]), (at_next, tmp[:, 1:])):
                for key, w in weights.items():
                    s[key] = dots(xy, w)
        # entry M of each row pairs it with the next row and is never read
        flat, flat_tmp = {x: _flat(trig[x]) for x in trig}, _flat(tmp)[:-1]
        for x, y, weights in cross:
            np.multiply(flat[x][:-1], flat[y][1:], out=flat_tmp)
            xy = tmp[:, :-1]
            for key, w in weights.items():
                s[key] = dots(xy, w)
        # D and P are diagonal and unitary, so they keep these entry moduli
        deficit = max(np.max(np.abs(s["AA"] + s["BB"] + s["EE"] - 1.0)),
                      np.max(np.abs(s["CC"] + s["FF"] + s["GG"] - 1.0)),
                      np.max(np.hypot(s["EG"] - s["BC"], s["EF"] - s["AC"])))
        return s, float(deficit)

    return rows, sums


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def jc_kraus_completeness(p: JCParams, t: float, window=None) -> float:
    """max |sum_m chi_m^dag chi_m - I| over the Fock window at time t."""
    lo, hi = _kraus_window(p, window)
    return _kraus_kernel(p, np.array([t], dtype=float), lo, hi)[1](0)[1]


def jc_kraus_reduce(rho_s0: DensityMatrix, p: JCParams, t: float,
                    window=None) -> DensityMatrix:
    """Exact autonomous reduced qubit state at time t via the Kraus sum.

    The control starts in the coherent state |alpha>; the sum runs over the
    10-sigma Poisson window.  A completeness deficit above 1e-6 raises
    TruncationError.
    """
    return jc_autonomous_trajectory(rho_s0, p, np.array([t]), window)[0]


def _autonomous_states(rho0: np.ndarray, p: JCParams, ts, window=None) -> np.ndarray:
    """Validated reduced qubit states at each time, shape (len(ts), 2, 2),
    from the Hermitian initial state ``rho0``.

    Times go in chunks of the kernel's rows (``_kraus_kernel``: as many as
    fit about 4 MiB of Kraus terms, so memory stays bounded as alpha grows).
    Each of min(CPUs, chunks, _KRAUS_WORKERS) workers takes the next chunk
    in time order and writes its states, real combinations of the chunk's
    sums (sum_m chi~ q chi~^dag, q = D^dag rho0 D) over its own times only,
    so the states are bitwise the same for any thread count.  The calling
    thread is one worker and starts a helper thread for each other one, so
    one worker starts no thread.  Workers overlap only in the kernel's
    ufuncs, which release the GIL; its np.vecdot row dots hold it.  A
    failing chunk stops the workers from taking more, and the earliest
    failing chunk's error is raised after the join, as a serial run raises
    it.  P D acts once on the whole stack after the chunks.
    """
    lo, hi = _kraus_window(p, window)
    ts = np.asarray(ts, dtype=float)
    rows, sums = _kraus_kernel(p, ts, lo, hi)
    phi = float(np.angle(p.alpha))
    q00, q11 = rho0[0, 0].real, rho0[1, 1].real
    q01 = rho0[0, 1] * np.exp(1j * phi)
    x, y = q01.real, q01.imag
    rhos = np.empty((len(ts), 2, 2), dtype=complex)
    starts = range(0, len(ts), rows)
    lock, todo, failed = threading.Lock(), iter(starts), {}

    def work() -> None:
        while True:
            with lock:
                k0 = None if failed else next(todo, None)
            if k0 is None:
                return
            part = slice(k0, k0 + rows)
            try:
                s, deficit = sums(k0)
                if deficit > 1e-6:
                    raise TruncationError(
                        f"Kraus completeness deficit {deficit:.2e} exceeds 1e-6 at "
                        f"alpha={p.alpha:g}, Fock window [{lo}, {hi}], "
                        f"t in [{ts[part][0]:g}, {ts[part][-1]:g}]; widen the Fock window",
                        deficit=deficit)
                af_bg, ag_bf = s["AF"] - s["BG"], s["AG"] + s["BF"]
                rhos[part, 0, 0] = (q00 * (s["AA"] + s["BB"]) + q11 * s["CC"]
                                    - 2.0 * (x * s["BC"] + y * s["AC"]))
                rhos[part, 1, 1] = (q00 * s["EE"] + q11 * (s["FF"] + s["GG"])
                                    + 2.0 * (x * s["EG"] + y * s["EF"]))
                rhos[part, 0, 1] = (q00 * -s["BE"] + x * (af_bg + s["CE"]) - y * ag_bf
                                    + q11 * s["CG"]
                                    + 1j * (q00 * s["AE"] + x * ag_bf + y * (af_bg - s["CE"])
                                            - q11 * s["CF"]))
            except BaseException as exc:  # re-raised below, after the join
                with lock:
                    failed[k0] = exc

    helpers = [threading.Thread(target=work)
               for _ in range(min(_usable_cpus(), len(starts), _KRAUS_WORKERS) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[min(failed)]
    rhos[:, 0, 1] *= np.exp(1j * (p.omega_c * ts - phi))
    rhos[:, 1, 0] = rhos[:, 0, 1].conj()
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return validate_states(rhos, trace_tol=1e-6, herm_tol=1e-9, eig_tol=1e-7)


def jc_autonomous_trajectory(rho_s0: DensityMatrix, p: JCParams, ts,
                             window=None) -> list:
    """Reduced qubit states at each time in ``ts`` (Kraus sums), as a list
    of ``DensityMatrix``.

    This is the list-returning API edge of ``_autonomous_states``, which
    sums real Kraus entries laid out (time, Fock index) in chunks of times
    and validates and normalizes the result as one read-only stack; each
    state here wraps its row of that stack without a copy.
    """
    if rho_s0.data.shape[0] != 2:
        raise ContractError("the autonomous reduction acts on a qubit state")
    return [DensityMatrix._wrap(rho, (2,))
            for rho in _autonomous_states(rho_s0.data, p, ts, window)]


def jc_semiclassical_hamiltonian(t, p: JCParams) -> np.ndarray:
    """Rabi Hamiltonian (omega_eg/2) sz + g (sm alpha* e^{i wc t} + h.c.),
    which is V(t) H_sc(0) V(t)^dag (``_co_rotating``).  A float t gives the
    2x2 matrix; an ndarray of n times gives the (n, 2, 2) stack in one
    call, bitwise the single-time matrices."""
    return _co_rotating(p._h_sc0, t, p.omega_c)


def jc_semiclassical_propagator(t, p: JCParams) -> np.ndarray:
    """Closed-form Rabi propagator in the (|g>, |e>) basis.

    U(t) = V(t) D B(t) D^dag solves i dU/dt = H_sc(t) U with U(0) = I: B is
    the Rabi block at coupling g|alpha|, D = diag(1, e^{i arg(alpha)}) makes
    that coupling real, and V(t) = exp(-i omega_c sigma_z t / 2) is the
    frame co-rotating at omega_c, in which H_sc is static.  ``t`` may be an
    array of times, giving shape t.shape + (2, 2); a single time is a stack
    of one, so it matches the same time inside an array bitwise.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    d = np.array([1.0, np.exp(1j * np.angle(p.alpha))])                 # diagonal of D
    v = np.exp(0.5j * p.omega_c * np.multiply.outer(ts, [1.0, -1.0]))   # diagonal of V(t)
    block = _rabi_block(p.rabi, p.g * abs(p.alpha), p.delta, ts)
    return ((v * d)[:, :, None] * block * d.conj()).reshape(t.shape + (2, 2))


def jc_eigenoperators(p: JCParams):
    """Analytic driven eigenoperators (F_plus, F_minus, W) as callables of t.

    F_pm satisfy the Heisenberg eigenvalue relation with frequencies
    +-rabi; W is the invariant (a time-dependent constant of motion),
    returned with unit Hilbert-Schmidt norm.  The unnormalized invariant
    g(alpha* sm e^{i wc t} + alpha sp e^{-i wc t}) + (delta/2) sz is the
    returned W times rabi/sqrt(2).  Each callable gives an Operator at a
    float t, and the (n, 2, 2) array of its matrices at an ndarray of n
    times, bitwise the single-time ones.
    """
    om, dl, g, alpha = p.rabi, p.delta, p.g, p.alpha
    # Omega > |delta| exactly when g |alpha| > 0, unless the drive term is
    # lost to rounding beside delta; either way Delta -+ Omega would vanish
    if not om > abs(dl):
        raise ContractError(f"eigenoperators degenerate where the drive g*|alpha| "
                            f"vanishes (g = {g:g}, alpha = {alpha:g}, delta = {dl:g}); "
                            f"use the static transition operators instead")
    norm = math.sqrt(2.0) * g * abs(alpha) / om

    def f_at_zero(sign: float) -> np.ndarray:
        u1 = math.sqrt(2.0) * g * np.conj(alpha) / (dl + sign * om)
        u2 = math.sqrt(2.0) * g * alpha / (dl - sign * om)
        return norm * (u1 * _Q["sm"] + u2 * _Q["sp"] + _Q["sz"] / math.sqrt(2.0))

    def co_rotated(x0: np.ndarray):
        def at(t):
            x = _co_rotating(x0, t, p.omega_c)
            return Operator._adopt(x, (2,)) if x.ndim == 2 else x
        return at

    w0 = g * (np.conj(alpha) * _Q["sm"] + alpha * _Q["sp"]) + 0.5 * dl * _Q["sz"]
    return co_rotated(f_at_zero(+1.0)), co_rotated(f_at_zero(-1.0)), co_rotated(w0 * math.sqrt(2.0) / om)


def collapse_envelope(t: float, p: JCParams) -> float:
    """Gaussian collapse envelope exp(-phi(t)) of the short-time Rabi
    oscillations, phi = (2 nbar g^2 / (delta^2 + 4 nbar g^2)) (g t)^2."""
    denom = p.delta ** 2 + 4.0 * p.nbar * p.g ** 2
    if denom == 0.0:
        return 1.0
    phi = (2.0 * p.nbar * p.g ** 2 / denom) * (p.g * t) ** 2
    return math.exp(-phi)


def touchard(j: int, x: float) -> float:
    """Touchard polynomial T_j(x) = e^-x sum_k k^j x^k / k! = sum_k S(j, k) x^k.

    Stirling numbers S(n, k) = k S(n-1, k) + S(n-1, k-1) in exact integers;
    Horner's rule on these positive coefficients is exact to a few ulp.
    Guarded to integer 0 <= j <= 12 and 0 < x <= 1e6, where every S(j, k)
    is below 2^53 and T_j(x) below 1e73.
    """
    if not (isinstance(j, (int, np.integer)) and 0 <= j <= 12):
        raise ContractError(f"touchard implemented for integer 0 <= j <= 12, got {j!r}")
    if not 0 < x <= 1e6:
        raise ContractError(f"touchard implemented for 0 < x <= 1e6, got {x}")
    return float(np.polynomial.polynomial.polyval(x, _stirling_row(j)))


def _stirling_row(j: int) -> np.ndarray:
    """Stirling numbers S(j, k) of the second kind for k = 0..j as int64, from
    S(n, k) = k S(n-1, k) + S(n-1, k-1); exact for the orders j <= 12 that
    ``touchard`` allows."""
    row = np.ones(1, dtype=np.int64)  # S(0, k) for k = 0
    for _ in range(j):
        row = np.arange(len(row) + 1) * np.append(row, 0) + np.append(0, row)
    return row


def touchard_asymptotic(j: int, x: float) -> float:
    """Large-x form x^j (1 + j(j-1)/(2x)), for x != 0."""
    if x == 0:
        raise ContractError("touchard_asymptotic needs x != 0, the form expands in 1/x")
    return x ** j * (1.0 + j * (j - 1) / (2.0 * x))


def fit_gaussian_envelope(times, signal) -> float:
    """Decay coefficient b of a Gaussian envelope |signal| ~ A exp(-b t^2).

    Fits ln(peak) against t^2 on the local maxima of |signal|; used for
    the collapse-rate scaling checks.
    """
    t = np.asarray(times, dtype=float)
    y = np.abs(np.asarray(signal, dtype=float))
    inner = y[1:-1]
    idx = 1 + np.flatnonzero((inner >= y[:-2]) & (inner >= y[2:]) & (inner > 1e-6))
    if len(idx) < 3:
        raise ContractError("too few oscillation peaks to fit an envelope")
    tp = t[idx]
    lp = np.log(y[idx])
    # polyfit divides t^2 by its norm sqrt(sum t^4), which must neither
    # overflow nor underflow; the bound on |t| is checked first, so that no
    # power of t is taken that could overflow
    t_max = (np.finfo(float).max / len(tp)) ** 0.25
    if not (np.max(np.abs(tp)) < t_max and np.ptp(tp) > 0 and np.sum(tp ** 4) > 0):
        raise ContractError(f"envelope fit needs peaks at distinct finite times with "
                            f"t^4 above underflow and its sum below overflow, "
                            f"got t in [{tp[0]:g}, {tp[-1]:g}]")
    coeffs = np.polyfit(tp ** 2, lp, 1)
    return float(-coeffs[0])
