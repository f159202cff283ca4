"""covlind: thermodynamically consistent GKLS master equations for driven
open quantum systems.

The package builds Lindblad dissipators whose jump operators are
eigenoperators of the free dynamics (static Bohr transition operators, or
Floquet-type eigenoperators of a periodic drive), which makes the dynamical
map commute with the free propagation and yields Gibbs-like fixed points and
instantaneous attractors.  A complete Jaynes-Cummings / Rabi worked system
exercises the autonomous-to-semi-classical transition.
"""

__version__ = "0.1.0"

from .operators import (  # noqa: F401
    Operator,
    DensityMatrix,
    Superoperator,
    vec,
    unvec,
    commutator_super,
    sandwich_super,
    liouville_unitary,
    hermitian_eig,
    matrix_exp,
    partial_trace,
    uhlmann_fidelity,
    coherence_rel_entropy,
    von_neumann_entropy,
    qubit_ops,
)
from .eigenoperators import (  # noqa: F401
    EigenoperatorSet,
    DrivenGenerator,
    static_eigenoperators,
    monodromy_eigenoperators,
    frequency_eigenoperators,
    verify_eigenoperator,
)
from .gkls import (  # noqa: F401
    Channel,
    DissipatorSpec,
    AttractorResult,
    build_dissipator,
    detailed_balance_rates,
    fixed_point,
    instantaneous_attractor,
    liouvillian,
    total_liouvillian,
    check_time_translation,
    choi_matrix,
)
from .bath import (  # noqa: F401
    BathSpec,
    DrivenQubitMasterEquation,
    bose_einstein,
    gamma_one_sided,
    jc_kinetic_coefficients,
)
from .jaynes_cummings import (  # noqa: F401
    JCParams,
    jc_kraus_reduce,
    jc_semiclassical_hamiltonian,
    jc_semiclassical_propagator,
    jc_eigenoperators,
    collapse_envelope,
    touchard,
    touchard_asymptotic,
)
from .propagate import (  # noqa: F401
    TimeGrid,
    Trajectory,
    evolve_static,
    evolve_timedep,
    expectation_series,
    fidelity_series,
)
