"""Instantaneous attractor of the driven-qubit master equation and the
Mollow-triplet structure of its kinetic coefficients.

With the driven eigenoperators F+- as jump operators, the rates draw on the
bath response at exactly three frequency families: the carrier omega_c and
the side-bands omega_c +- Omega.  The attractor exp(-H_bar)/Z annihilates
the dissipator instantaneously, with populations set by
delta = ln(gamma_minus / gamma_plus).
"""

import math

import numpy as np

from covlind import DrivenQubitMasterEquation, JCParams
from covlind.bath import BathSpec, gamma_one_sided, jc_kinetic_coefficients

p = JCParams.with_rabi(omega_c=1.0, delta=0.1, rabi=0.5, alpha=2.0)
print(f"drive: Omega = {p.rabi}, side-bands at {p.omega_c - p.rabi:.2f} and "
      f"{p.omega_c + p.rabi:.2f}, carrier {p.omega_c}")

bath = BathSpec(temperature=0.6, model="ohmic", eta=0.35, omega_cut=15.0)
master = DrivenQubitMasterEquation(p, bath)
g0, gm, gp = master.coefficients
print(f"\nohmic bath at T = {bath.temperature}: gamma_0 = {g0:.5f}, "
      f"gamma_- = {gm:.5f}, gamma_+ = {gp:.5f}")
print(f"KMS check on the carrier: Gamma(+wc)/Gamma(-wc) = "
      f"{(gamma_one_sided(p.omega_c, bath) / gamma_one_sided(-p.omega_c, bath)).real:.4f} "
      f"vs exp(wc/T) = {math.exp(p.omega_c / bath.temperature):.4f}")

print("\nnarrow-band baths show which frequencies each coefficient draws on:")
for center, label in ((p.omega_c, "carrier"),
                      (p.omega_c - p.rabi, "lower side-band"),
                      (p.omega_c + p.rabi, "upper side-band"),
                      (2.3 * p.omega_c, "off all families")):
    bump = BathSpec(temperature=0.6, model="band", eta=0.5,
                    omega_lo=center - 0.02, omega_hi=center + 0.02)
    vals = jc_kinetic_coefficients(p, bump)
    print(f"  J supported near {center:.2f} ({label:16s}): "
          f"gamma_0, gamma_-, gamma_+ = "
          + ", ".join(f"{v:.4f}" for v in vals))

res = master.attractor()
print(f"\ninstantaneous attractor (delta = ln(gamma_-/gamma_+) = "
      f"{res.deltas[0]:.4f}):")
print(np.array_str(res.state.data, precision=5, suppress_small=True))
print(f"full dissipator applied to it: ||D[rho]||_max = {res.residual:.2e}")
print("(the attractor is diagonal in the dressed basis of the drive, not of "
      "the bare qubit: energy and coherence mix)")
