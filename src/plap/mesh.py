"""Uniform simplicial meshes of the unit square and cube with P1 plumbing.

A mesh stores, besides its vertices, everything the nonlinear solver
needs repeatedly: a boundary mask, the lumped vertex weights used by the
nodal quadrature rule

    integral(u) ~ sum_T vol(T) * mean(u at vertices of T),

and one index array that places each entry of the P1 gradient on a grid
edge.  Every simplex has the same volume, a closed form of (dim, m) like
the simplex count, and no solver kernel reads a simplex table, so the
mesh stores neither.

Each square cell holds 2 triangles and each cube cell 6 tetrahedra, one
per path from the cell's origin corner to its opposite corner, one axis
step at a time (Kuhn, IBM J. Res. Dev. 4, 1960).  Every simplex is thus
a translate of one of 2 or 6 integer templates scaled by h = 1/m, and
its geometry is the template's: the volume is h^dim / dim!, rounded
once, and each hat gradient is m times an integer vector with entries
-1, 0 and 1, so no per-simplex algebra is needed.  The paths are
numbered so that path dim! - 1 - t is path t walked backwards.  The
inversion x -> 1 - x reverses the C-ordered vertex grid and the cell
order and walks every path backwards, so it reverses the simplex order
too: simplex s maps onto simplex n_simplices - 1 - s.  Corner o in
{0,1}^dim of a cell lies on |o|! (dim - |o|)! of its Kuhn paths, so the
number of simplices at each vertex, and with it the lumped mass, is a
sum of 2^dim shifted grids.

A grid simplex steps along each axis once, and only the hat functions at
the two ends of that step vary along it, with -m and +m.  So G, with
(G u)[s, k] the k-th partial derivative of u on simplex s, gathers grid
edge differences of m u, and G^T sums a table per edge and sends each
sum to the edge's ends, - at the start and + at the end.  The P1 kernels
at general p are these two: the gradient table of u is G u, and a
p-stiffness co-vector is G^T applied to volume-weighted gradients.  The
Laplace stiffness is G^T diag(vol) G.

On the uniform grid that stiffness, restricted to the interior vertices,
is the 5-point (2D) or 7-point (3D) stencil, a sum over axes of the
tridiagonal matrix tridiag(-1, 2, -1) acting along one axis.
`laplace_apply` applies it by slicing the vertex grid, with no table and
no stored operator; at p = 2 it is the whole Dirichlet term, since
int |grad u|^2 = u . K u for u zero on the boundary.  The discrete sine
transform diagonalizes it exactly, so the Dirichlet Laplace solve of the
descent metric is two transforms and a division by the eigenvalues: the
classical fast Poisson solver (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7, 1970), with no assembly and no factor.

The rule is exact for piecewise-linear integrands, so gradients of P1
fields are integrated exactly and nodal nonlinearities at second order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

__all__ = [
    "Mesh",
    "build_mesh",
    "integrate",
    "gradient_table",
    "apply_dirichlet",
    "laplace_apply",
    "LaplacePreconditioner",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh of (0,1)^dim, immutable after construction.

    Attributes
    ----------
    dim : int
        Space dimension, 2 or 3.
    cells_per_side : int
        Number of grid cells along each axis.
    vertices : ndarray, shape (n_vertices, dim)
    boundary : ndarray of bool, shape (n_vertices,)
    lumped_mass : ndarray, shape (n_vertices,)
        Vertex weights of the nodal quadrature rule; sums to 1.  Built
        from the simplex count per vertex, which is a sum of closed-form
        corner counts.
    edge_index : ndarray of intp, shape (n_simplices, dim)
        Entry (s, k) is k * n_vertices + a, where vertex a starts the step
        of simplex s along axis k: the place of that grid edge in a (dim,
        n_vertices) array whose row k holds the differences along axis k.
        Simplex (c, t) is path t of cell c, cells in C order and paths
        in the order of `_kuhn_paths`.  A
        read-only view of a writeable array, which `_gradient_transpose`
        hands to np.bincount, since bincount copies a read-only index.

    `n_simplices` and the common simplex `volume` are closed forms of
    (dim, cells_per_side).  Equality is identity, so a mesh hashes.
    """

    dim: int
    cells_per_side: int
    vertices: np.ndarray
    boundary: np.ndarray
    lumped_mass: np.ndarray
    edge_index: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.cells_per_side ** self.dim * math.factorial(self.dim)

    @property
    def volume(self) -> float:
        """Volume of every simplex, h^dim / dim! with h = 1/m: the
        simplices tile the unit cube, so it is 1/n_simplices."""
        return 1.0 / self.n_simplices


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise DimensionMismatchError(
            f"field has shape {u.shape}, mesh has {mesh.n_vertices} vertices"
        )
    return u


def _kuhn_paths(dim: int) -> np.ndarray:
    """The axis orders of the Kuhn paths of one cell, shape (dim!, dim),
    numbered so that path dim! - 1 - t is path t walked backwards: the
    paths that precede their reversal, in sorted order, then those
    reversals, last first.  The inversion x -> 1 - x walks each path
    backwards and reverses the cell order, so it maps simplex s onto
    simplex n_simplices - 1 - s."""
    first = [p for p in itertools.permutations(range(dim)) if p < p[::-1]]
    return np.array(first + [p[::-1] for p in reversed(first)])


def _cell_corners(paths: np.ndarray) -> np.ndarray:
    """Integer corner offsets of the simplices of one grid cell, shape
    (simplices per cell, dim+1, dim), for the `_kuhn_paths` table: vertex
    j of template t is the corner that path t reaches after j axis steps.
    Every simplex of the grid is one of these templates, scaled by
    h = 1/m and translated to its cell."""
    dim = paths.shape[1]
    steps = np.eye(dim, dtype=np.int64)[paths]
    corners = np.zeros((len(steps), dim + 1, dim), dtype=np.int64)
    np.cumsum(steps, axis=1, out=corners[:, 1:])
    return corners


def _cell_layout(dim: int, m: int):
    """Vertex index of each cell's origin corner, shape (m^dim,), in C
    order; the index offset of each template vertex from it, shape
    (simplices per cell, dim+1), so that simplex (c, t) holds the
    vertices origin[c] + offsets[t]; and the offset of the vertex that
    starts each template's step along each axis, shape (simplices per
    cell, dim).  Path t steps along x_k from its local vertex j with
    paths[t][j] = k, so the inverse permutation picks each step's start.
    No solver kernel reads a simplex table; the tests build one from
    this layout."""
    paths = _kuhn_paths(dim)
    strides = (m + 1) ** np.arange(dim - 1, -1, -1)
    origin = np.indices((m,) * dim).reshape(dim, -1).T @ strides
    offsets = _cell_corners(paths) @ strides
    start = np.take_along_axis(offsets, np.argsort(paths), axis=1)
    return origin, offsets, start


def build_mesh(dim: int, cells_per_side: int) -> Mesh:
    """Triangulate (0,1)^dim with a uniform grid of `cells_per_side`^dim cells.

    Squares are split into 2 triangles along the (0,0)-(1,1) diagonal;
    cubes into 6 tetrahedra (one per axis permutation, all sharing the
    main diagonal), which keeps the triangulation conforming.

    Every simplex is a translate of one cell template scaled by h = 1/m,
    and each of its edges along an axis is one step of its Kuhn path,
    so the edge index is read from the paths with no per-simplex linear
    algebra.
    """
    if dim not in (2, 3):
        raise ConfigurationError(f"dim must be 2 or 3, got {dim}")
    m = int(cells_per_side)
    if m < 1:
        raise ConfigurationError(f"cells_per_side must be >= 1, got {cells_per_side}")

    side = m + 1
    index = np.indices((side,) * dim).reshape(dim, -1).T   # grid index per vertex
    vertices = np.linspace(0.0, 1.0, side)[index]
    boundary = ((index == 0) | (index == m)).any(axis=1)

    origin, _, start = _cell_layout(dim, m)
    edges = (origin[:, None] + (np.arange(dim) * vertices.shape[0]
                                + start).ravel()).astype(np.intp, copy=False)
    edge_index = edges.reshape(-1, dim)

    # A vertex's weight is vol/(dim+1) from each simplex that holds it.
    # Corner o of a cell lies on |o|! (dim - |o|)! of its Kuhn paths, so
    # the simplex count per vertex is one slice-add per corner on the
    # vertex grid; the counts are exact integers, rounded once here.
    count = np.zeros((side,) * dim, dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=dim):
        steps = sum(corner)
        count[tuple(slice(c, c + m) for c in corner)] += (
            math.factorial(steps) * math.factorial(dim - steps))
    lumped = count.ravel() / (m ** dim * math.factorial(dim + 1))

    for arr in (vertices, boundary, lumped, edge_index):
        arr.flags.writeable = False
    return Mesh(dim, m, vertices, boundary, lumped, edge_index)


def integrate(mesh: Mesh, values: np.ndarray) -> float:
    """Nodal quadrature: sum over simplices of volume times vertex mean."""
    values = _check_field(mesh, values)
    return float(np.dot(mesh.lumped_mass, values))


def gradient_table(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-simplex gradient of the P1 interpolant of u, shape (n_simplices,
    dim): G u, the difference of m u along each simplex's axis steps."""
    u = _check_field(mesh, u)
    mu, side = mesh.cells_per_side * u, mesh.cells_per_side + 1
    # row k: the forward differences along axis k; its last `step`
    # entries start no edge and are never read
    diffs = np.empty((mesh.dim, u.shape[0]))
    for k in range(mesh.dim):
        step = side ** (mesh.dim - 1 - k)
        np.subtract(mu[step:], mu[:-step], out=diffs[k, :-step])
    return diffs.ravel()[mesh.edge_index]    # np.take would copy the index


def _gradient_transpose(mesh: Mesh, table: np.ndarray) -> np.ndarray:
    """G^T table, for a per-simplex table of shape (n_simplices, dim).
    Private, so that bench/spans.py counts it in its caller."""
    n, side = mesh.n_vertices, mesh.cells_per_side + 1
    # per-edge sums, sent to the edge's ends as -sum and +sum; m scales
    # the n-long result rather than the table
    sums = np.bincount(mesh.edge_index.base.reshape(-1),
                       weights=table.reshape(-1),
                       minlength=mesh.dim * n).reshape(mesh.dim, n)
    out = np.zeros(n)
    for k in range(mesh.dim):
        step = side ** (mesh.dim - 1 - k)
        out[step:] += sums[k, :-step]
        out -= sums[k]
    out *= mesh.cells_per_side
    return out


def apply_dirichlet(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Return a copy of u with boundary vertices set to zero. Idempotent."""
    u = _check_field(mesh, u).copy()
    u[mesh.boundary] = 0.0
    return u


def laplace_apply(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """K u on the interior vertices and 0 on the boundary ones, where K is
    the P1 stiffness of -Laplace, G^T diag(vol) G: on an interior row it
    is the axis stencil m^(2-dim) (2 dim u_c - sum of the 2 dim grid
    neighbours of c).

    For u zero on the boundary, u . K u is int |grad u|^2.
    """
    u = _check_field(mesh, u)
    dim, m = mesh.dim, mesh.cells_per_side
    # The vertices are numbered in C order on the grid, so the neighbours
    # of vertex i along the axes are i -+ (m+1)^k.  Every row at least
    # reach = (m+1)^(dim-1) from either end has all of them in range; it
    # holds the interior rows, and its boundary rows are zeroed at the end.
    n, reach = u.shape[0], (m + 1) ** (dim - 1)
    out = np.zeros(n)
    core = out[reach:n - reach]         # a view: writes land in out
    np.multiply(u[reach:n - reach], 2 * dim, out=core)
    for k in range(dim):
        step = (m + 1) ** k
        core -= u[reach - step:n - reach - step]
        core -= u[reach + step:n - reach + step]
    core *= m ** (2.0 - dim)
    out[mesh.boundary] = 0.0
    return out


class LaplacePreconditioner:
    """Dirichlet Laplace solver on the interior vertices, diagonalized by
    the discrete sine transform.

    With n = m - 1 interior vertices per axis and h = 1/m, the interior
    stiffness is K = h^(dim-2) sum_axes I x .. x T x .. x I with
    T = tridiag(-1, 2, -1) of order n.  The orthonormal DST-I matrix
    S_jk = sqrt(2/m) sin(pi j k / m) is symmetric with S^2 = I and
    diagonalizes T with eigenvalues 4 sin^2(pi j / 2m), so K = S^d L S^d,
    where S^d applies S along every axis and L holds the sums
    h^(dim-2) sum_axes 4 sin^2(pi j_axis / 2m).  This K is the interior
    block of the P1 stiffness G^T diag(vol) G, which is never assembled.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.interior = np.where(~mesh.boundary)[0]
        m = mesh.cells_per_side
        j = np.arange(1, m)
        self._sine_matrix = np.sqrt(2.0 / m) * np.sin(
            np.pi * np.outer(j, j) / m)
        axis = 4.0 * np.sin(np.pi * j / (2 * m)) ** 2
        eigenvalues = axis
        for _ in range(mesh.dim - 1):
            eigenvalues = np.add.outer(eigenvalues, axis)
        self._eigenvalues = (m ** (2.0 - mesh.dim) * eigenvalues).ravel()

    def _sine(self, x: np.ndarray) -> np.ndarray:
        """S^d x for an interior field x in C order.  Each pass transforms
        the leading axis and rotates it to the end, so after dim passes
        the axes are back in order."""
        n = self._sine_matrix.shape[0]
        # an explicit shape: reshape(0, -1) fails on the empty interior
        # of a one-cell mesh
        for _ in range(self.mesh.dim):
            x = x.reshape(n, n ** (self.mesh.dim - 1)).T @ self._sine_matrix
        return x.ravel()

    def solve(self, covector: np.ndarray) -> np.ndarray:
        """K^-1 r on the interior, zero on the boundary."""
        out = np.zeros(self.mesh.n_vertices)
        out[self.interior] = self._sine(
            self._sine(covector[self.interior]) / self._eigenvalues)
        return out

    def dual_norm(self, covector: np.ndarray) -> float:
        """Preconditioned norm sqrt(r^T K^-1 r) of a nodal co-vector."""
        sr = self._sine(covector[self.interior])
        return float(np.sqrt(np.dot(sr / self._eigenvalues, sr)))
