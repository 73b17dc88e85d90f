"""Three nontrivial critical points of a critical-growth p-Laplace energy.

The package discretizes the Dirichlet energy

    E(u) = (1/p) int |grad u|^p - (1/p*) int |u|^p* - lam int F(u)

with P1 elements on the unit square or cube and minimizes it on three
sign-restricted Nehari-type constraint sets, producing a nonnegative, a
nonpositive and a sign-changing critical point whose energies sit below
the compactness threshold (1/N) S_p^(N/p).

The solver's names live in their modules (`plap.mesh`, `plap.functional`,
`plap.nehari`, `plap.optimizer`, `plap.verify`, `plap.cli`); the package
itself binds only the mesh builder and the preconditioner.
"""

from .mesh import LaplacePreconditioner, build_mesh

__version__ = "0.1.0"
