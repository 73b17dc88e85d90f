"""Uniform simplicial meshes of the unit square and cube with P1 plumbing.

A mesh stores, besides its vertices, everything the nonlinear solver
needs repeatedly: a boundary mask, the lumped vertex weights used by the
nodal quadrature rule

    integral(u) ~ sum_T vol(T) * mean(u at vertices of T),

and the P1 gradient as one sparse operator G, whose row (T, k) holds the
k-th partial derivative of each hat function of T.  G^T is a CSC view of
G's own arrays, not a second copy.  Every simplex has the same volume, a
closed form of (dim, m) like the simplex count, and no solver kernel
reads a simplex table, so the mesh stores neither.

Each square cell holds 2 triangles and each cube cell 6 tetrahedra, one
per path from the cell's origin corner to its opposite corner (Kuhn,
IBM J. Res. Dev. 4, 1960).  Every simplex is thus a translate of one of
2 or 6 integer templates scaled by h = 1/m, and its geometry is the
template's: the volume is h^dim / dim!, and each hat gradient is m times
an integer vector with entries -1, 0 and 1.  These are computed once per
template, so the gradients are exact, the volume is rounded once, and no
per-simplex algebra is needed.  Corner o in {0,1}^dim of a cell lies on
|o|! (dim - |o|)! of its Kuhn paths, so the number of simplices at each
vertex, and with it the lumped mass, is a sum of 2^dim shifted grids.
Only two hat functions of a grid simplex vary along each axis, so a row
of G has two entries, -m and +m, and G stores no zeros.

The P1 kernels at general p are sparse products with G: the gradient
table of u is G u, a p-stiffness co-vector is G^T applied to
volume-weighted gradients, and the Laplace stiffness is G^T diag(vol) G.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    grad_op : scipy.sparse.csr_array, shape (n_simplices*dim, n_vertices)
        P1 gradient operator: row s*dim + k holds d(phi_i)/dx_k of simplex
        s at the column of its vertex i, so `grad_op @ u` is the gradient
        table.  Simplex (c, t) is template t of cell c, cells in C order.
        Zeros are not stored, which leaves exactly two entries per row,
        -m and +m (m = cells_per_side), at every resolution.  The index
        arrays are int32 below 2^31 entries, which covers every mesh that
        fits in memory.
    grad_op_t : scipy.sparse.csc_array, shape (n_vertices, n_simplices*dim)
        The transpose of `grad_op`: a CSC view that shares its frozen
        `data`, `indices` and `indptr`, stored once so that no call pays
        for a new `.T` object.

    `n_simplices` and the common simplex `volume` are closed forms of
    (dim, cells_per_side).  Equality is identity, so a mesh hashes.
    """

    dim: int
    cells_per_side: int
    vertices: np.ndarray
    boundary: np.ndarray
    lumped_mass: np.ndarray
    grad_op: sparse.csr_array
    grad_op_t: sparse.csc_array

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

    @functools.cached_property
    def simplex_reversal(self) -> np.ndarray:
        """The simplex sigma(s) that the inversion x -> 1 - x maps simplex
        s onto, an involution.  The inversion reverses the vertex order,
        so `gradient_table(v[::-1]) == -gradient_table(v)[sigma]`.

        It maps cell c onto cell n_cells - 1 - c and walks each path
        backwards: the two square templates swap, and the cube path along
        axes (a, b, c) becomes (c, b, a) in the sorted template order.
        """
        flip = np.array([1, 0] if self.dim == 2 else [5, 3, 4, 1, 2, 0])
        n_cells = self.n_simplices // len(flip)
        sigma = (np.arange(n_cells - 1, -1, -1)[:, None] * len(flip)
                 + flip).ravel()
        sigma.flags.writeable = False
        return sigma


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise DimensionMismatchError(
            f"field has shape {u.shape}, mesh has {mesh.n_vertices} vertices"
        )
    return u


def _cell_corners(dim: int) -> np.ndarray:
    """Integer corner offsets of the simplices of one grid cell, shape
    (simplices per cell, dim+1, dim).  Every simplex of the grid is one
    of these templates, scaled by h = 1/m and translated to its cell."""
    if dim == 2:
        return np.array([[(0, 0), (1, 0), (1, 1)],
                         [(0, 0), (1, 1), (0, 1)]])
    # one tetrahedron per axis permutation: the path from the cell's
    # origin corner to its opposite corner, one axis step at a time
    steps = np.eye(3, dtype=np.int64)[sorted(itertools.permutations(range(3)))]
    return np.concatenate(
        [np.zeros((len(steps), 1, 3), dtype=np.int64),
         np.cumsum(steps, axis=1)], axis=1)


def _cell_layout(dim: int, m: int):
    """Vertex index of each cell's origin corner, shape (m^dim,), in C
    order, and the index offset of each template vertex from it, shape
    (simplices per cell, dim+1): simplex (c, t) holds the vertices
    origin[c] + offsets[t]."""
    strides = (m + 1) ** np.arange(dim - 1, -1, -1)
    origin = np.indices((m,) * dim).reshape(dim, -1).T @ strides
    return origin, _cell_corners(dim) @ strides


def _template_gradients(dim: int) -> np.ndarray:
    """Hat gradients of the cell templates in grid units, shape (simplices
    per cell, dim+1, dim), with entries -1, 0 and 1.

    They are the columns of the inverse edge matrix (rows x_i - x_0) for
    vertices 1..dim, and minus their sum for vertex 0.  The edge matrices
    are unimodular, so the inverse is an integer matrix and rounding
    recovers it exactly.
    """
    corners = _cell_corners(dim)
    edges = corners[:, 1:, :] - corners[:, :1, :]
    unit = np.empty(corners.shape, dtype=np.int64)
    unit[:, 1:, :] = np.rint(np.linalg.inv(edges)).astype(np.int64).transpose(0, 2, 1)
    unit[:, 0, :] = -unit[:, 1:, :].sum(axis=1)
    return unit


def _frozen_csr(mat: sparse.csr_array) -> sparse.csr_array:
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def build_mesh(dim: int, cells_per_side: int) -> Mesh:
    """Triangulate (0,1)^dim with a uniform grid of `cells_per_side`^dim cells.

    Squares are split into 2 triangles along the (0,0)-(1,1) diagonal;
    cubes into 6 tetrahedra (one per axis permutation, all sharing the
    main diagonal), which keeps the triangulation conforming.

    Every simplex is a translate of one cell template scaled by h = 1/m,
    so its geometry is that of the template, taken from the integer grid
    with no per-simplex linear algebra.
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

    origin, offsets = _cell_layout(dim, m)
    n_cells = origin.shape[0]
    ns = n_cells * math.factorial(dim)

    unit = _template_gradients(dim)

    # Row (s, k) of the gradient operator holds d(phi_i)/dx_k.  A grid
    # simplex steps along each axis once, so only the hat functions at the
    # two ends of the step along x_k vary in x_k, with -m and +m: every row
    # stores exactly two entries, in local vertex order.  The entry count
    # 2 ns dim leaves int32 only beyond 3.5e8 simplices, whose operator
    # values alone would take over 17 GB.
    nnz = 2 * ns * dim
    index = np.int32 if nnz < 2 ** 31 else np.int64
    tmpl, k, local = np.nonzero(unit.transpose(0, 2, 1))
    grad_op = _frozen_csr(sparse.csr_array(
        (np.tile(m * unit[tmpl, local, k].astype(float), n_cells),
         (origin.astype(index)[:, None]
          + offsets[tmpl, local].astype(index)).ravel(),
         np.arange(0, nnz + 1, 2, dtype=index)),
        shape=(ns * dim, vertices.shape[0]),
    ))

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

    for arr in (vertices, boundary, lumped):
        arr.flags.writeable = False

    # G^T is a CSC view of G's own (frozen) arrays: no copy, and its
    # matvec adds each vertex's entries in ascending row order of G, as
    # the sorted rows of a CSR transpose would
    return Mesh(dim, m, vertices, boundary, lumped, grad_op, grad_op.T)


def integrate(mesh: Mesh, values: np.ndarray) -> float:
    """Nodal quadrature: sum over simplices of volume times vertex mean."""
    values = _check_field(mesh, values)
    return float(np.dot(mesh.lumped_mass, values))


def gradient_table(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-simplex gradient of the P1 interpolant of u, shape (n_simplices, dim)."""
    u = _check_field(mesh, u)
    return (mesh.grad_op @ u).reshape(mesh.n_simplices, mesh.dim)


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

    def norm(self, v: np.ndarray) -> float:
        """Dirichlet energy norm sqrt(v^T K v) of an interior field."""
        sv = self._sine(v[self.interior])
        return float(np.sqrt(np.dot(self._eigenvalues * sv, sv)))

    def dual_norm(self, covector: np.ndarray) -> float:
        """Preconditioned norm sqrt(r^T K^-1 r) of a nodal co-vector."""
        sr = self._sine(covector[self.interior])
        return float(np.sqrt(np.dot(sr / self._eigenvalues, sr)))
