"""Jaynes-Cummings analytics: autonomous block dynamics, exact Kraus
reduction of the qubit, the semi-classical (Rabi) propagator, analytic
driven eigenoperators, dressed states, the collapse envelope and Touchard
asymptotics.

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
        for name, value in (("omega_c", self.omega_c), ("omega_eg", self.omega_eg)):
            if not 0 < value < math.inf:
                raise ContractError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.g < math.inf:
            raise ContractError(f"coupling g must be nonnegative and finite, got {self.g}")
        if not cmath.isfinite(self.alpha):
            raise ContractError(f"coherent amplitude alpha must be finite, got {self.alpha}")

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


def _co_rotating(x0: np.ndarray, t: float, omega_c: float) -> np.ndarray:
    """X(t) = V(t) X(0) V(t)^dag, V(t) = exp(-i omega_c sigma_z t / 2), for a
    2x2 X(0) and one time t: X_01 gains e^{i omega_c t}, X_10 its conjugate."""
    phase = cmath.exp(1j * omega_c * t)
    return x0 * np.array([[1.0, phase], [phase.conjugate(), 1.0]])


def jc_block_propagator(n: int, t: float, p: JCParams) -> np.ndarray:
    """Closed-form propagator of the n'th block in basis {|g,n>, |e,n-1>}:
    the Rabi block with coupling g sqrt(n) and the global phase
    exp(-i n omega_c t)."""
    if n < 1:
        raise ContractError("blocks are defined for n >= 1")
    block = _rabi_block(float(p.omega_n(n)), p.g * math.sqrt(n), p.delta, t)
    return np.exp(-1j * n * p.omega_c * t) * block


# Kraus terms per chunk of times: 4 MiB of per-term temporaries, 8 B each for
# the cosine, the sine and the six real entries of one Kraus operator
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


def _kraus_sums(p: JCParams, ts: np.ndarray, lo: int, hi: int) -> tuple[dict, float]:
    """Sums over the Fock window m = lo..hi of products of real Kraus entries
    at each time, and the completeness deficit max |sum_m chi_m^dag chi_m - I|.

    The Kraus operators chi_m(t) = e^{i m wc t} <m| U_D |alpha> (the factor
    is the free phase of the m'th excitation block; it cancels in
    chi rho chi^dag and chi^dag chi) conserve excitations, so the phase
    phi = arg(alpha) only rotates them about z:
    chi_m = e^{i m phi} P D [[A + iB, -iC], [-iE, F - iG]] D^dag with
    P = diag(1, e^{-i wc t}), D = diag(1, e^{i phi}) and the real
    (len(ts), M) rows A = r_m c_m, B = delta r_m s_m,
    C = 2 g sqrt(m) r_{m-1} s_m, E = 2 g sqrt(m+1) r_{m+1} s_{m+1},
    F = r_m c_{m+1}, G = delta r_m s_{m+1} (``_rabi_block`` entries), where
    r_n = |<n|alpha>|, c_n = cos(Omega_n t / 2), s_n = sin(Omega_n t / 2) /
    Omega_n, and 1/Omega_n sits in the per-m coefficients.  Each sum is one
    row reduction, so a time's sums do not depend on the other times.
    """
    # |<n|alpha>| for n = lo-1 .. hi+1; n = -1 has none
    ext = np.arange(lo - 1, hi + 2)
    r = np.zeros(len(ext))
    r[ext >= 0] = _coherent_amplitudes(abs(p.alpha), ext[ext >= 0]).real
    ms, r_m = ext[1:-1], r[1:-1]

    om = p.omega_n(ext[1:])                      # Omega_n for n = lo .. hi+1
    half = om * ts[:, None] / 2.0
    cos, sin = np.cos(half), np.sin(half)
    # each numerator that meets 1/Omega_n is 0 where Omega_n = 0 (delta = g sqrt(n) = 0)
    inv = np.divide(1.0, om, out=np.zeros_like(om), where=om > 0)
    row = {"A": r_m * cos[:, :-1], "B": (p.delta * r_m * inv[:-1]) * sin[:, :-1],
           "C": (2.0 * p.g * np.sqrt(ms) * r[:-2] * inv[:-1]) * sin[:, :-1],
           "E": (2.0 * p.g * np.sqrt(ms + 1) * r[2:] * inv[1:]) * sin[:, 1:],
           "F": r_m * cos[:, 1:], "G": (p.delta * r_m * inv[1:]) * sin[:, 1:]}
    s = {pq: np.vecdot(row[pq[0]], row[pq[1]])
         for pq in "AA BB CC EE FF GG AC BC EF EG AE BE AF BG AG BF CE CG CF".split()}
    # D and P are diagonal and unitary, so they keep these entry moduli
    deficit = max(np.max(np.abs(s["AA"] + s["BB"] + s["EE"] - 1.0)),
                  np.max(np.abs(s["CC"] + s["FF"] + s["GG"] - 1.0)),
                  np.max(np.hypot(s["EG"] - s["BC"], s["EF"] - s["AC"])))
    return s, float(deficit)


def jc_kraus_completeness(p: JCParams, t: float, window=None) -> float:
    """max |sum_m chi_m^dag chi_m - I| over the Fock window at time t."""
    return _kraus_sums(p, np.array([t], dtype=float), *_kraus_window(p, window))[1]


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
    """Validated reduced qubit states at each time, shape (len(ts), 2, 2),
    from the Hermitian initial state ``rho0``.

    Times go in chunks of ``chunk`` (default: as many as fit about 4 MiB of
    Kraus terms, so memory stays bounded as alpha grows).  Per chunk, the
    entries of sum_m chi~ q chi~^dag, q = D^dag rho0 D, are real combinations
    of ``_kraus_sums``; P D acts once on the whole stack after the loop, so the
    result is bitwise the same for any chunk size.
    """
    lo, hi = _kraus_window(p, window)
    if chunk is None:
        chunk = max(1, _KRAUS_CHUNK_TERMS // (hi - lo + 1))
    ts = np.asarray(ts, dtype=float)
    phi = float(np.angle(p.alpha))
    q00, q11 = rho0[0, 0].real, rho0[1, 1].real
    q01 = rho0[0, 1] * np.exp(1j * phi)
    x, y = q01.real, q01.imag
    rhos = np.empty((len(ts), 2, 2), dtype=complex)
    for k0 in range(0, len(ts), chunk):
        part = slice(k0, k0 + chunk)
        s, deficit = _kraus_sums(p, ts[part], lo, hi)
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
        rhos[part, 0, 1] = (q00 * -s["BE"] + x * (af_bg + s["CE"]) - y * ag_bf + q11 * s["CG"]
                            + 1j * (q00 * s["AE"] + x * ag_bf + y * (af_bg - s["CE"])
                                    - q11 * s["CF"]))
    rhos[:, 0, 1] *= np.exp(1j * (p.omega_c * ts - phi))
    rhos[:, 1, 0] = rhos[:, 0, 1].conj()
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return validate_states(rhos, trace_tol=1e-6, herm_tol=1e-9, eig_tol=1e-7)


def jc_autonomous_trajectory(rho_s0: DensityMatrix, p: JCParams, ts,
                             window=None) -> list:
    """Reduced qubit states at each time in ``ts`` (Kraus sums).

    The states come from ``_autonomous_states``, which sums real Kraus
    entries laid out (time, Fock index) in chunks of times and validates
    and normalizes the result; they are wrapped here as they are.
    """
    if rho_s0.data.shape[0] != 2:
        raise ContractError("the autonomous reduction acts on a qubit state")
    return [DensityMatrix._wrap(rho, (2,))
            for rho in _autonomous_states(rho_s0.data, p, ts, window)]


def jc_semiclassical_hamiltonian(t: float, p: JCParams) -> np.ndarray:
    """Rabi Hamiltonian (omega_eg/2) sz + g (sm alpha* e^{i wc t} + h.c.),
    which is V(t) H_sc(0) V(t)^dag (``_co_rotating``)."""
    drive = p.g * np.conj(p.alpha)
    h0 = np.array([[-0.5 * p.omega_eg, drive], [np.conj(drive), 0.5 * p.omega_eg]], dtype=complex)
    return _co_rotating(h0, t, p.omega_c)


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

    def f_at_zero(sign: float) -> np.ndarray:
        u1 = math.sqrt(2.0) * g * np.conj(alpha) / (dl + sign * om)
        u2 = math.sqrt(2.0) * g * alpha / (dl - sign * om)
        return norm * (u1 * _Q["sm"] + u2 * _Q["sp"] + _Q["sz"] / math.sqrt(2.0))

    def co_rotated(x0: np.ndarray):
        return lambda t: Operator(_co_rotating(x0, t, p.omega_c), (2,))

    w0 = g * (np.conj(alpha) * _Q["sm"] + alpha * _Q["sp"]) + 0.5 * dl * _Q["sz"]
    return co_rotated(f_at_zero(+1.0)), co_rotated(f_at_zero(-1.0)), co_rotated(w0 * math.sqrt(2.0) / om)


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
