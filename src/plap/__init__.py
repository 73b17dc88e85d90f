"""Three nontrivial critical points of a critical-growth p-Laplace energy.

The package discretizes the Dirichlet energy

    E(u) = (1/p) int |grad u|^p - (1/p*) int |u|^p* - lam int F(u)

with P1 elements on the unit square or cube and minimizes it on three
sign-restricted Nehari-type constraint sets, producing a nonnegative, a
nonpositive and a sign-changing critical point whose energies sit below
the compactness threshold (1/N) S_p^(N/p).
"""

from .errors import (
    ConfigurationError,
    DegenerateConstraintError,
    DegenerateInputError,
    DimensionMismatchError,
    LostSignError,
    NoRootError,
    SignError,
)
from .functional import (
    Nonlinearity,
    RunParameters,
    energy,
    energy_parts,
    energy_residual,
    nonlin_eval,
    plus_minus_parts,
    sobolev_constant,
    sobolev_threshold,
)
from .mesh import (
    LaplacePreconditioner,
    Mesh,
    apply_dirichlet,
    build_mesh,
    gradient_table,
    integrate,
    laplace_stiffness,
)
from .nehari import (
    FiberingCoefficients,
    KIndex,
    ScaleResult,
    constraint_gradient,
    constraint_phi,
    constraint_scale,
    fibering_coefficients,
    fibering_root,
    fibering_upper_bound,
    scale_to_manifold,
    tangent_project,
)
from .optimizer import (
    SolutionTriple,
    SolveReport,
    SolverConfig,
    SweepRow,
    descend,
    initial_point,
    lambda_sweep,
    reference_bump,
    retract,
    solve_three,
)
from .verify import (
    CheckReport,
    check_energy_chain,
    check_euler_lagrange,
    check_membership,
    check_sign_structure,
    infer_kind,
    verify_fields,
)

__version__ = "0.1.0"
