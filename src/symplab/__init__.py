"""symplab: exact Euler-Lagrange cohomology and a volume-preserving flow lab.

Four layers:

* :mod:`symplab.exterior` -- exact exterior algebra over a symplectic frame,
  the sl(2) operator triple and its identity certificates;
* :mod:`symplab.cohomology` -- invariant (Chevalley-Eilenberg) complexes of
  nilpotent Lie algebras: Betti, Lefschetz, Euler-Lagrange and symplectically
  harmonic dimensions;
* :mod:`symplab.fields` -- polynomial vector fields on R^{2n}: classification
  by closedness of -i_X(omega^k), radial-homotopy potentials, the 2-form to
  volume-preserving-field dictionary, linear systems without potential;
* :mod:`symplab.flows` -- RK4 trajectories, variational (tangent) flows and
  transported chain integrals that verify the conservation laws numerically.
"""

from .cohomology import (
    CEComplex,
    CohomologySpace,
    LieAlgebra,
    betti,
    build_complex,
    bundled_algebra,
    cohomology_space,
    differential,
    el_dim,
    harmonic_dim,
    lefschetz_map_rank,
    parse_algebra,
)
from .exterior import (
    CommutatorReport,
    Form,
    Frame,
    blade_basis,
    commutator_check,
    commutator_checks,
    contraction_rank,
    format_form,
    interior,
    iota_rank,
    omega,
    omega_power,
    op_e,
    op_f,
    op_h,
    wedge,
    wedge_power,
)
from .fields import (
    Classification,
    LinearSystemSpec,
    PolyVectorField,
    TwoFormData,
    build_linear_system,
    classify,
    el_form,
    exterior_derivative,
    hamiltonian_field,
    hamiltonian_two_form,
    lie_derivative,
    linear_system_two_form,
    radial_potential,
    vector_from_two_form,
)
from .flows import (
    ChainIntegral,
    ChainPatch,
    ConservationReport,
    FlowConfig,
    TangentFlow,
    Trajectory,
    chain_integral,
    divergence,
    tangent_flow,
    verify_area_laws,
    verify_area_preservation,
)
from .polynomials import InputError, Poly, format_poly

__version__ = "0.1.0"
