"""Eigenoperators of a periodically driven qubit, three ways.

The driven qubit (Rabi model) has Floquet-type eigenoperators: operators
whose Heisenberg evolution under the free drive is a pure phase
exp(i lambda t).  We compute them (1) analytically, (2) from the one-period
monodromy of the Heisenberg propagator, and (3) from the frequency-domain
eigenvalue kernel, and check they agree.
"""

import numpy as np

from covlind import (
    DrivenGenerator,
    JCParams,
    frequency_eigenoperators,
    jc_eigenoperators,
    jc_semiclassical_hamiltonian,
    monodromy_eigenoperators,
    verify_eigenoperator,
)
from covlind.eigenoperators import deviation_up_to_phase
from covlind.propagate import TimeGrid

p = JCParams.with_rabi(omega_c=1.0, delta=0.12, rabi=0.4, alpha=2.0 * np.exp(0.5j))
print(f"Rabi drive: delta = {p.delta:.4g}, g = {p.g:.4f}, |alpha| = {abs(p.alpha):g}, "
      f"generalized Rabi frequency Omega = {p.rabi:.4g}")

f_plus, f_minus, w = jc_eigenoperators(p)
gen = DrivenGenerator(lambda t: jc_semiclassical_hamiltonian(t, p),
                      period=2 * np.pi / p.omega_c)

print("\n(1) analytic eigenoperators: Heisenberg residual over 10 Rabi periods")
grid = TimeGrid(0.0, 10 * 2 * np.pi / p.rabi, 400)
print(f"  F+ (lambda = +Omega): {verify_eigenoperator(f_plus, +p.rabi, gen, grid):.2e}")
print(f"  F- (lambda = -Omega): {verify_eigenoperator(f_minus, -p.rabi, gen, grid):.2e}")

print("\n(2) monodromy of the one-period Heisenberg propagator")
eset = monodromy_eigenoperators(gen)
for op, freq, inv in zip(eset.ops, eset.freqs, eset.invariant_flags):
    kind = "invariant" if inv else "transition"
    dev = min(deviation_up_to_phase(op.data, f(0.0).data)
              for f in (f_plus, f_minus, w))
    print(f"  lambda = {freq:+.6f}  ({kind}); deviation from nearest analytic "
          f"operator {dev:.1e}")

print("\n(3) frequency-domain kernel at the drive frequency")
# the kernel of the static RWA Hamiltonian shifted by omega_c reproduces the
# quasi-frequencies: eigenvalues -lambda_k(omega) = E_n - E_m - omega, from
# one 2 x 2 eigendecomposition of H
h_rwa = w(0.0).data * p.rabi / np.sqrt(2)  # unnormalized invariant = RWA Hamiltonian
vals, _ = frequency_eigenoperators(h_rwa, 0.0)
print(f"  commutator spectrum of the rotating-frame Hamiltonian: "
      f"{[round(float(v), 6) for v in sorted(vals)]}")
print(f"  (the nonzero pair is -/+Omega = -/+{p.rabi})")
