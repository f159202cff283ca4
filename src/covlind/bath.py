"""Spectral densities, thermal occupation, the driven-qubit kinetic
coefficients and the driven-qubit master equation they enter.

Units: hbar = k_B = 1, temperatures in energy units, frequencies in
rad/time.  The spectral density is only ever evaluated at |omega|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ContractError
from .gkls import (
    AttractorResult,
    Channel,
    DissipatorSpec,
    _instantaneous,
    build_dissipator,
    liouvillian,
)
from .jaynes_cummings import JCParams, jc_eigenoperators, jc_semiclassical_hamiltonian
from .operators import Superoperator

_MODELS = ("ohmic", "cubic", "flat", "band")


@dataclass(frozen=True)
class BathSpec:
    """Bath temperature plus a named spectral-density model.

    Models (omega >= 0):
      ohmic:  J = eta * omega * exp(-omega/omega_cut)
      cubic:  J = eta * omega**3 * exp(-omega/omega_cut)  (3d field)
      flat:   J = eta on [0, omega_cut]
      band:   J = eta on [omega_lo, omega_hi]  (gapped; for suppressing
              individual Mollow side-bands)
    """

    temperature: float
    model: str = "ohmic"
    eta: float = 1.0
    omega_cut: float = 10.0
    omega_lo: float = 0.0
    omega_hi: float = math.inf

    def __post_init__(self):
        for name in ("temperature", "eta", "omega_lo"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ContractError(f"{name} must be finite and >= 0, got {value}")
        if self.model not in _MODELS:
            raise ContractError(f"unknown spectral-density model {self.model!r}; "
                                f"choose from {_MODELS}")
        if not self.omega_cut > 0:
            raise ContractError("omega_cut must be positive")
        if not self.omega_hi >= self.omega_lo:
            raise ContractError(f"omega_hi must be >= omega_lo, got {self.omega_hi}")

    def spectral_density(self, omega: float) -> float:
        """J(omega) for omega >= 0."""
        w = float(omega)
        if w < 0:
            raise ContractError("spectral density is defined for omega >= 0; "
                                "pass |omega|")
        if self.model == "ohmic":
            return self.eta * w * math.exp(-w / self.omega_cut)
        if self.model == "cubic":
            return self.eta * w ** 3 * math.exp(-w / self.omega_cut)
        if self.model == "flat":
            return self.eta if w <= self.omega_cut else 0.0
        return self.eta if self.omega_lo <= w <= self.omega_hi else 0.0


def bose_einstein(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (exp(omega/T) - 1) for omega > 0."""
    if not omega > 0:
        raise ContractError(f"bose_einstein requires omega > 0; pass |omega|, got {omega}")
    if not 0 <= temperature < math.inf:
        raise ContractError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    # expm1 overflows past x ~ 709; there 1 / (e^x - 1) is e^-x to double precision
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def gamma_one_sided(nu: float, bath: BathSpec) -> complex:
    """Real part of the one-sided environment response at frequency nu.

    Emission side (nu > 0): J(nu) (N(nu) + 1); absorption side (nu < 0):
    J(|nu|) N(|nu|), the detailed-balance-consistent continuation.  The
    principal-value (imaginary) part is set to zero; the Lamb shift is out
    of scope.  At nu = 0 the limit is finite for ohmic (eta*T) and cubic
    (zero) models with T > 0 and diverges for flat/band supports containing
    zero.
    """
    if not math.isfinite(nu):
        raise ContractError(f"frequency nu must be finite, got {nu}")
    if nu > 0:
        return complex(bath.spectral_density(nu) * (bose_einstein(nu, bath.temperature) + 1.0))
    if nu < 0:
        if bath.temperature == 0.0:
            return 0.0 + 0.0j
        return complex(bath.spectral_density(-nu) * bose_einstein(-nu, bath.temperature))
    # nu == 0 limits
    if bath.model == "ohmic":
        return complex(bath.eta * bath.temperature)
    if bath.model == "cubic":
        return 0.0 + 0.0j
    if bath.temperature == 0.0 or bath.spectral_density(0.0) == 0.0:
        return 0.0 + 0.0j
    raise ContractError("one-sided response diverges at nu = 0 for a flat "
                        "spectral density with T > 0")


def jc_sideband_weights(params: JCParams) -> tuple[float, float]:
    """(s_plus, s_minus): squared eigenoperator amplitudes at the side-bands.

    s_pm = (Omega pm Delta)^2 / (4 Omega^2) weighs every term of the
    kinetic coefficients evaluated at frequency omega_c pm Omega.
    Equivalently (Delta(Delta pm Omega) + 2 g^2 |alpha|^2) / (2 Omega^2).
    """
    om, dl = params.rabi, params.delta
    try:
        return (om + dl) ** 2 / (4 * om ** 2), (om - dl) ** 2 / (4 * om ** 2)
    except OverflowError:
        raise ContractError(f"sideband weights overflow at delta = {dl:g}, rabi = {om:g}") from None


def jc_kinetic_coefficients(params: JCParams, bath: BathSpec) -> tuple[float, float, float]:
    """Kinetic coefficients (gamma_0, gamma_minus, gamma_plus) of the
    driven-qubit master equation with a sigma_x coupling to a thermal bath.

    gamma_0 multiplies the invariant (dephasing) channel and draws on the
    carrier frequency omega_c; gamma_minus / gamma_plus are the decay and
    excitation rates of the F_-/F_+ channels and draw on the Mollow
    side-bands omega_c +- Omega:

        gamma_0     = k0 * (Gamma(omega_c) + Gamma(-omega_c))
        gamma_minus = s_plus  * Gamma(omega_c + Omega) + s_minus * Gamma(Omega - omega_c)
        gamma_plus  = s_minus * Gamma(omega_c - Omega) + s_plus  * Gamma(-omega_c - Omega)

    with k0 = 2 g^2 |alpha|^2 / Omega^2, Gamma the one-sided response, and
    the side-band weights of :func:`jc_sideband_weights`.  All outputs are
    nonnegative.
    """
    om = params.rabi
    if om <= 0:
        raise ContractError("degenerate drive: Omega must be positive")
    wc = params.omega_c
    k0 = 2.0 * params.g ** 2 * abs(params.alpha) ** 2 / om ** 2
    s_plus, s_minus = jc_sideband_weights(params)
    gamma0 = k0 * (gamma_one_sided(wc, bath) + gamma_one_sided(-wc, bath)).real
    gamma_minus = (s_plus * gamma_one_sided(wc + om, bath)
                   + s_minus * gamma_one_sided(om - wc, bath)).real
    gamma_plus = (s_minus * gamma_one_sided(wc - om, bath)
                  + s_plus * gamma_one_sided(-wc - om, bath)).real
    out = (gamma0, gamma_minus, gamma_plus)
    if not all(x >= 0 for x in out):
        raise ContractError(f"negative kinetic coefficient {out}")
    return out


@dataclass(frozen=True)
class DrivenQubitMasterEquation:
    """The driven-qubit master equation in its semi-classical limit.

    L(t) = -i [H_sc(t), .] + gamma_minus D[F_-(t)] + gamma_plus D[F_-(t)^dag]
           + gamma_0 D[W(t)]

    with the Rabi Hamiltonian H_sc(t), the driven eigenoperator F_-(t) as
    the jump and the invariant W(t) as the dephasing operator, all from
    :func:`jc_eigenoperators`, and the rates from
    :func:`jc_kinetic_coefficients`.  Both are evaluated once, on
    construction; ``coefficients`` is (gamma_0, gamma_minus, gamma_plus).
    """

    params: JCParams
    bath: BathSpec
    coefficients: tuple = field(init=False)
    jump: Callable = field(init=False, repr=False, compare=False)
    invariant: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           jc_kinetic_coefficients(self.params, self.bath))
        _, f_minus, w = jc_eigenoperators(self.params)
        object.__setattr__(self, "jump", f_minus)
        object.__setattr__(self, "invariant", w)

    def spec(self, t: float) -> DissipatorSpec:
        """The dissipator's channels and invariant dephasing at time t."""
        g0, gm, gp = self.coefficients
        return DissipatorSpec(channels=[Channel(self.jump(t), gm, gp)],
                              dephasing_invariant=([self.invariant(t)], [[g0]]))

    def generator(self, t: float) -> Superoperator:
        """The Liouvillian L(t)."""
        return liouvillian(jc_semiclassical_hamiltonian(t, self.params),
                           build_dissipator(self.spec(t)))

    def attractor(self) -> AttractorResult:
        """Instantaneous attractor of the jump channel at t = 0.

        Its ``residual`` is ||D(0)[rho]||_max for the full dissipator,
        invariant dephasing included, not for the jump channel alone, and
        ``residual_scale`` is that dissipator's scale.
        """
        return _instantaneous(self.spec(0.0))
