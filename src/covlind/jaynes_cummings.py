"""Jaynes-Cummings analytics: autonomous block dynamics, exact Kraus
reduction of the qubit, the semi-classical (Rabi) propagator, analytic
driven eigenoperators, dressed states, the collapse envelope and Touchard
asymptotics.

Basis conventions: qubit basis (|g>, |e>) with sigma_z = diag(-1, +1);
the coupled space is ordered |qubit> (x) |n>.  The n'th excitation block
spans {|g, n>, |e, n-1>}.  hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, TruncationError
from .operators import (DensityMatrix, Operator, _coherent_amplitudes, _poisson_window,
                        destroy, qubit_ops, validate_states)

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
        if self.omega_c <= 0 or self.omega_eg <= 0:
            raise ContractError("frequencies must be positive")
        if self.g < 0:
            raise ContractError("coupling must be nonnegative")

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

    @classmethod
    def with_rabi(cls, omega_c: float, delta: float, rabi: float, alpha: complex) -> "JCParams":
        """Fix g so the generalized Rabi frequency takes the given value."""
        if abs(alpha) == 0:
            raise ContractError("with_rabi needs a nonzero coherent amplitude")
        if not rabi >= abs(delta):
            raise ContractError(f"rabi must be at least |delta|, got rabi = {rabi:g}, "
                                f"delta = {delta:g}")
        g = math.sqrt(rabi ** 2 - delta ** 2) / (2.0 * abs(alpha))
        return cls(omega_c, omega_c + delta, g, alpha)


def default_kraus_window(p: JCParams) -> tuple[int, int]:
    """Fock window [nbar - 10|alpha|, nbar + 10|alpha| + 20] (10-sigma)."""
    return _poisson_window(p.alpha)


def jc_hamiltonian(p: JCParams, n_max: int) -> Operator:
    """H = omega_c (a^dag a + 1/2) + (omega_eg/2) sigma_z + g (sm a^dag + sp a)."""
    if n_max < 1:
        raise ContractError("n_max must be at least 1")
    a = destroy(n_max + 1)
    num = a.conj().T @ a
    eye_m = np.eye(n_max + 1, dtype=complex)
    h = (p.omega_c * (np.kron(np.eye(2), num + 0.5 * eye_m))
         + 0.5 * p.omega_eg * np.kron(_Q["sz"], eye_m)
         + p.g * (np.kron(_Q["sm"], a.conj().T) + np.kron(_Q["sp"], a)))
    return Operator(h, (2, n_max + 1))


def _half_sinc(omega_n, t: float):
    """(t/2) * sin(Omega_n t / 2) / (Omega_n t / 2), stable at Omega_n = 0."""
    return (t / 2.0) * np.sinc(omega_n * t / (2.0 * math.pi))


def jc_block_propagator(n: int, t: float, p: JCParams) -> np.ndarray:
    """Closed-form propagator of the n'th block in basis {|g,n>, |e,n-1>}.

    Includes the global phase exp(-i n omega_c t).
    """
    if n < 1:
        raise ContractError("blocks are defined for n >= 1")
    om = float(p.omega_n(n))
    c = math.cos(om * t / 2.0)
    hs = float(_half_sinc(om, t))
    off = -2j * p.g * math.sqrt(n) * hs
    u = np.array([[c + 1j * p.delta * hs, off],
                  [off, c - 1j * p.delta * hs]], dtype=complex)
    return np.exp(-1j * n * p.omega_c * t) * u


# Kraus terms per chunk of times: 4 MiB of 2x2 complex128 blocks (64 B each)
_KRAUS_CHUNK_TERMS = (4 << 20) // 64


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


def _kraus_stack(p: JCParams, ts: np.ndarray, window=None) -> np.ndarray:
    """Kraus operators chi_m(t) = e^{i m wc t} <m| U_D |alpha> on the window.

    The factor e^{i m wc t} removes the global phase of the m'th Kraus
    operator (the free phase of its excitation block); it cancels in
    chi rho chi^dag and chi^dag chi, so the channel is unchanged.

    Returns an array of shape (len(ts), 2, 2, M) over the M = hi - lo + 1
    Fock indices m = lo..hi of the Poisson window, with the Fock index last
    and contiguous, so chi[t].reshape(2, 2 M) is the row block that the
    batched matmuls of ``_autonomous_states`` contract.  Summing
    chi rho chi^dag over m gives the exact reduced qubit state up to the
    truncated Poisson tail.  The block frequencies Omega_m enter at m and
    m + 1, so their cosines and half-sincs are computed once over
    lo..hi+1 and sliced.
    """
    lo, hi = _kraus_window(p, window)
    ms = np.arange(lo, hi + 1)
    # coherent amplitudes <n|alpha> for n = lo-1 .. hi+1; n = -1 has none
    ext = np.arange(lo - 1, hi + 2)
    amp = np.zeros(len(ext), dtype=complex)
    amp[ext >= 0] = _coherent_amplitudes(p.alpha, ext[ext >= 0])
    c_mm1, c_m, c_mp1 = amp[:-2], amp[1:-1], amp[2:]

    tcol = np.asarray(ts, dtype=float)[:, None]
    om = p.omega_n(ext[1:])                      # Omega_m for m = lo .. hi+1
    cos = np.cos(om * tcol / 2.0)
    hs = _half_sinc(om, tcol)
    phase = np.exp(-1j * p.omega_c * tcol)                # e^{-i wc t} on |e>

    chi = np.empty((len(tcol), 2, 2, len(ms)), dtype=complex)
    chi[:, 0, 0] = c_m * (cos[:, :-1] + 1j * p.delta * hs[:, :-1])
    chi[:, 0, 1] = (-2j * p.g * np.sqrt(ms) * c_mm1) * hs[:, :-1]
    chi[:, 1, 0] = (-2j * p.g * np.sqrt(ms + 1) * c_mp1) * hs[:, 1:] * phase
    chi[:, 1, 1] = c_m * (cos[:, 1:] - 1j * p.delta * hs[:, 1:]) * phase
    return chi


def _completeness_deficit(chi: np.ndarray, chi_conj: np.ndarray) -> float:
    """max |sum_m chi_m^dag chi_m - I| over a (T, 2, 2, M) stack.

    Takes the stack's conjugate too, so a caller that needs it again
    computes it once.
    """
    comp = sum(chi_conj[:, i] @ chi[:, i].transpose(0, 2, 1) for i in range(2))
    return float(np.max(np.abs(comp - np.eye(2))))


def jc_kraus_completeness(p: JCParams, t: float, window=None) -> float:
    chi = _kraus_stack(p, np.array([t]), window)
    return _completeness_deficit(chi, chi.conj())


def jc_kraus_reduce(rho_s0: DensityMatrix, p: JCParams, t: float,
                    window=None) -> DensityMatrix:
    """Exact autonomous reduced qubit state at time t via the Kraus sum.

    The control starts in the coherent state |alpha>; the sum runs over the
    10-sigma Poisson window.  A completeness deficit above 1e-6 raises
    TruncationError.
    """
    return jc_autonomous_trajectory(rho_s0, p, np.array([t]), window)[0]


def _autonomous_states(rho0: np.ndarray, p: JCParams, ts, window=None,
                       chunk: int | None = None) -> np.ndarray:
    """Validated reduced qubit states at each time, shape (len(ts), 2, 2).

    Times go in chunks of ``chunk`` (default: as many as fit about 4 MiB of
    Kraus terms, so memory stays bounded as alpha grows).  Per chunk,
    Y = chi rho0 is one einsum and Y chi^dag one batched matmul over the
    flattened (j, m) axis; every state depends on its own time only, so the
    result is bitwise the same for any chunk size.
    """
    lo, hi = _kraus_window(p, window)
    if chunk is None:
        chunk = max(1, _KRAUS_CHUNK_TERMS // (hi - lo + 1))
    if chunk < 1:
        raise ContractError(f"chunk must be at least 1, got {chunk}")
    ts = np.asarray(ts, dtype=float)
    rhos = np.empty((len(ts), 2, 2), dtype=complex)
    for k0 in range(0, len(ts), chunk):
        part = slice(k0, k0 + chunk)
        chi = _kraus_stack(p, ts[part], (lo, hi))
        chi_conj = chi.conj()
        deficit = _completeness_deficit(chi, chi_conj)
        if deficit > 1e-6:
            raise TruncationError(
                f"Kraus completeness deficit {deficit:.2e} exceeds 1e-6 at "
                f"alpha={p.alpha:g}, Fock window [{lo}, {hi}], "
                f"t in [{ts[part][0]:g}, {ts[part][-1]:g}]; widen the Fock window",
                deficit=deficit)
        n_t, flat = chi.shape[0], 2 * chi.shape[-1]
        y = np.einsum("tijm,jk->tikm", chi, rho0).reshape(n_t, 2, flat)
        rhos[part] = y @ chi_conj.reshape(n_t, 2, flat).transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return validate_states(rhos, trace_tol=1e-6, herm_tol=1e-9, eig_tol=1e-7)


def jc_autonomous_trajectory(rho_s0: DensityMatrix, p: JCParams, ts,
                             window=None, chunk: int | None = None) -> list:
    """Reduced qubit states at each time in ``ts`` (vectorized Kraus sums).

    The states come from ``_autonomous_states``: chunks of times sized to
    about 4 MiB of Kraus terms unless ``chunk`` is given, the Kraus stack
    laid out (T, 2, 2, M) with the Fock index last.  They are validated and
    normalized there and wrapped here as DensityMatrix objects as they are.
    """
    if rho_s0.data.shape[0] != 2:
        raise ContractError("the autonomous reduction acts on a qubit state")
    return [DensityMatrix._wrap(rho, (2,))
            for rho in _autonomous_states(rho_s0.data, p, ts, window, chunk)]


def jc_semiclassical_hamiltonian(t: float, p: JCParams) -> np.ndarray:
    """Rabi Hamiltonian (omega_eg/2) sz + g (sm alpha* e^{i wc t} + h.c.)."""
    drive = p.g * (np.conj(p.alpha) * np.exp(1j * p.omega_c * t) * _Q["sm"]
                   + p.alpha * np.exp(-1j * p.omega_c * t) * _Q["sp"])
    return 0.5 * p.omega_eg * _Q["sz"] + drive


def jc_semiclassical_propagator(t, p: JCParams) -> np.ndarray:
    """Closed-form Rabi propagator in the (|g>, |e>) basis.

    Built by the rotating-frame construction: a z-rotation by -arg(alpha)
    makes the coupling real, the frame rotating at omega_c makes the
    Hamiltonian static, and the remaining 2x2 exponential is elementary.
    Solves i dU/dt = H_sc(t) U with U(0) = I.  ``t`` may be an array of
    times, giving shape t.shape + (2, 2); a single time is a stack of one,
    so it matches the same time inside an array bitwise.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    c = np.cos(p.rabi * ts / 2.0)
    hs = _half_sinc(p.rabi, ts)
    off = -2j * p.g * abs(p.alpha) * hs
    # U = V R U_eff R^dag with V = diag(e^{i wc t/2}, e^{-i wc t/2}) and
    # R = diag(e^{i phi/2}, e^{-i phi/2}), phi = -arg(alpha)
    frame = np.exp(0.5j * p.omega_c * ts)
    tilt = np.exp(-1j * np.angle(p.alpha)) if p.alpha else 1.0
    u = np.empty((len(ts), 2, 2), dtype=complex)
    u[:, 0, 0] = frame * (c + 1j * p.delta * hs)
    u[:, 0, 1] = frame * tilt * off
    u[:, 1, 0] = frame.conj() * np.conj(tilt) * off
    u[:, 1, 1] = frame.conj() * (c - 1j * p.delta * hs)
    return u.reshape(t.shape + (2, 2))


def jc_eigenoperators(p: JCParams):
    """Analytic driven eigenoperators (F_plus, F_minus, W) as callables of t.

    F_pm satisfy the Heisenberg eigenvalue relation with frequencies
    +-rabi; W is the invariant (a time-dependent constant of motion),
    returned with unit Hilbert-Schmidt norm.  The unnormalized invariant
    g(alpha* sm e^{i wc t} + alpha sp e^{-i wc t}) + (delta/2) sz is the
    returned W times rabi/sqrt(2).
    """
    om, dl, g, alpha = p.rabi, p.delta, p.g, p.alpha
    # Omega > |delta| exactly when g |alpha| > 0, unless the drive term is
    # lost to rounding beside delta; either way Delta -+ Omega would vanish
    if not om > abs(dl):
        raise ContractError(f"eigenoperators degenerate where the drive g*|alpha| "
                            f"vanishes (g = {g:g}, alpha = {alpha:g}, delta = {dl:g}); "
                            f"use the static transition operators instead")
    norm = math.sqrt(2.0) * g * abs(alpha) / om

    def f_sign(sign: float):
        u1 = math.sqrt(2.0) * g * np.conj(alpha) / (dl + sign * om)
        u2 = math.sqrt(2.0) * g * alpha / (dl - sign * om)

        def f_of_t(t: float) -> Operator:
            mat = norm * (u1 * np.exp(1j * p.omega_c * t) * _Q["sm"]
                          + u2 * np.exp(-1j * p.omega_c * t) * _Q["sp"]
                          + _Q["sz"] / math.sqrt(2.0))
            return Operator(mat, (2,))

        return f_of_t

    def w_of_t(t: float) -> Operator:
        mat = (g * (np.conj(alpha) * np.exp(1j * p.omega_c * t) * _Q["sm"]
                    + alpha * np.exp(-1j * p.omega_c * t) * _Q["sp"])
               + 0.5 * dl * _Q["sz"])
        return Operator(mat * math.sqrt(2.0) / om, (2,))

    return f_sign(+1.0), f_sign(-1.0), w_of_t


def jc_dressed_states(n: int, p: JCParams):
    """Dressed kets and energies of the n'th block.

    Returns (psi_plus, psi_minus, e_plus, e_minus) with the kets as
    2-vectors in the {|g,n>, |e,n-1>} coordinates:
    psi_plus = sin(theta/2)|g,n> + cos(theta/2)|e,n-1> with the mixing
    angle theta = atan2(2 g sqrt(n), delta), and energies
    n omega_c +- Omega_n / 2.
    """
    if n < 1:
        raise ContractError("dressed states are defined for n >= 1")
    om = float(p.omega_n(n))
    theta = math.atan2(2.0 * p.g * math.sqrt(n), p.delta)
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    psi_plus = np.array([s, c], dtype=complex)
    psi_minus = np.array([-c, s], dtype=complex)
    return psi_plus, psi_minus, n * p.omega_c + om / 2.0, n * p.omega_c - om / 2.0


def collapse_envelope(t: float, p: JCParams) -> float:
    """Gaussian collapse envelope exp(-phi(t)) of the short-time Rabi
    oscillations, phi = (2 nbar g^2 / (delta^2 + 4 nbar g^2)) (g t)^2."""
    denom = p.delta ** 2 + 4.0 * p.nbar * p.g ** 2
    if denom == 0.0:
        return 1.0
    phi = (2.0 * p.nbar * p.g ** 2 / denom) * (p.g * t) ** 2
    return math.exp(-phi)


def touchard(j: int, x: float) -> float:
    """Touchard polynomial T_j(x) = e^-x sum_k k^j x^k / k!.

    Numerically stable truncated summation with log-space terms; the sum
    stops once terms past the Poisson mode drop below 1e-18 of the partial
    sum.  Guarded to j <= 12 to avoid overflow of k^j, and to x <= 1e6 as
    the sum runs over about x terms (~1 s at the bound).
    """
    if j < 0 or j > 12:
        raise ContractError("touchard implemented for 0 <= j <= 12")
    if not 0 < x <= 1e6:
        raise ContractError(f"touchard implemented for 0 < x <= 1e6, got {x}")
    if j == 0:
        return 1.0
    total = 0.0
    k = 1
    log_x = math.log(x)
    while True:
        log_term = -x + k * log_x - math.lgamma(k + 1) + j * math.log(k)
        term = math.exp(log_term) if log_term > -745 else 0.0
        total += term
        if k > x + j and term < 1e-18 * max(total, 1e-300):
            break
        k += 1
    return total


def touchard_asymptotic(j: int, x: float) -> float:
    """Large-x form x^j (1 + j(j-1)/(2x))."""
    return x ** j * (1.0 + j * (j - 1) / (2.0 * x))


def fit_gaussian_envelope(times, signal) -> float:
    """Decay coefficient b of a Gaussian envelope |signal| ~ A exp(-b t^2).

    Fits ln(peak) against t^2 on the local maxima of |signal|; used for
    the collapse-rate scaling checks.
    """
    t = np.asarray(times, dtype=float)
    y = np.abs(np.asarray(signal, dtype=float))
    idx = [i for i in range(1, len(y) - 1)
           if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] > 1e-6]
    if len(idx) < 3:
        raise ContractError("too few oscillation peaks to fit an envelope")
    tp = t[idx]
    lp = np.log(y[idx])
    # polyfit divides t^2 by its norm sqrt(sum t^4), which must not underflow
    if not (np.isfinite(tp ** 2).all() and np.ptp(tp) > 0 and np.sum(tp ** 4) > 0):
        raise ContractError(f"envelope fit needs peaks at distinct finite times with "
                            f"t^4 above underflow, got t in [{tp[0]:g}, {tp[-1]:g}]")
    coeffs = np.polyfit(tp ** 2, lp, 1)
    return float(-coeffs[0])
