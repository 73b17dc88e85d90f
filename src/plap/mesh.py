"""Uniform simplicial meshes of the unit square and cube with P1 plumbing.

A mesh stores, besides vertices and simplices, everything the nonlinear
solver needs repeatedly: per-simplex volumes, a boundary mask, the lumped
vertex weights used by the nodal quadrature rule

    integral(u) ~ sum_T vol(T) * mean(u at vertices of T),

and the P1 gradient as one sparse operator G (and its transpose), whose
row (T, k) holds the k-th partial derivative of each hat function of T.
Only two hat functions of a grid simplex vary along each axis, so a row
of G has two nonzero entries, and G stores no zeros.  Every P1 kernel is
a sparse product with it: the gradient table of u is G u, a p-stiffness
co-vector is G^T applied to volume-weighted gradients, and the Laplace
stiffness is G^T diag(vol) G.

On the uniform grid that stiffness, restricted to the interior vertices,
is the 5-point (2D) or 7-point (3D) stencil, a sum over axes of the
tridiagonal matrix tridiag(-1, 2, -1) acting along one axis.  The
discrete sine transform diagonalizes it exactly, so the Dirichlet Laplace
solve of the descent metric is two transforms and a division by the
eigenvalues: the classical fast Poisson solver (Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970), with no assembly and no factor.

The rule is exact for piecewise-linear integrands, so gradients of P1
fields are integrated exactly and nodal nonlinearities at second order.
"""

from __future__ import annotations

import itertools
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
    "laplace_stiffness",
    "LaplacePreconditioner",
]


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh of (0,1)^dim, immutable after construction.

    Attributes
    ----------
    dim : int
        Space dimension, 2 or 3.
    cells_per_side : int
        Number of grid cells along each axis.
    vertices : ndarray, shape (n_vertices, dim)
    simplices : ndarray, shape (n_simplices, dim+1)
        Vertex indices; 2 triangles per square cell, 6 tetrahedra per cube.
    volumes : ndarray, shape (n_simplices,)
    shape_gradients : ndarray, shape (n_simplices, dim+1, dim)
        Gradient of each vertex hat function restricted to the simplex,
        zeros included; its nonzero entries are those `grad_op` stores.
    boundary : ndarray of bool, shape (n_vertices,)
    lumped_mass : ndarray, shape (n_vertices,)
        Vertex weights of the nodal quadrature rule; sums to 1.
    grad_op : scipy.sparse.csr_array, shape (n_simplices*dim, n_vertices)
        P1 gradient operator: row s*dim + k holds d(phi_i)/dx_k of simplex
        s at column simplices[s, i], so `grad_op @ u` is the gradient table.
        Zeros are not stored, which leaves two entries per row.  On some
        grids whose spacing is not a power of two (3D res 6, for one), the
        edge-matrix inversion leaves round-off residues of a few 1e-16 in
        place of some zeros, and those rows store them too.
    grad_op_t : scipy.sparse.csr_array, shape (n_vertices, n_simplices*dim)
        The transpose of `grad_op`, stored once as CSR.
    """

    dim: int
    cells_per_side: int
    vertices: np.ndarray
    simplices: np.ndarray
    volumes: np.ndarray
    shape_gradients: np.ndarray
    boundary: np.ndarray
    lumped_mass: np.ndarray
    grad_op: sparse.csr_array
    grad_op_t: sparse.csr_array

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise DimensionMismatchError(
            f"field has shape {u.shape}, mesh has {mesh.n_vertices} vertices"
        )
    return u


def _cell_simplices(dim: int, m: int) -> np.ndarray:
    """Vertex indices of the simplices of the grid, cell by cell in
    lexicographic order, from the corner offsets of one cell."""
    side = m + 1
    strides = side ** np.arange(dim - 1, -1, -1)
    if dim == 2:
        corners = np.array([[(0, 0), (1, 0), (1, 1)],
                            [(0, 0), (1, 1), (0, 1)]])
    else:
        # one tetrahedron per axis permutation: the path from the cell's
        # origin corner to its opposite corner, one axis step at a time
        steps = np.eye(3, dtype=np.int64)[sorted(itertools.permutations(range(3)))]
        corners = np.concatenate(
            [np.zeros((len(steps), 1, 3), dtype=np.int64),
             np.cumsum(steps, axis=1)], axis=1)
    offsets = corners @ strides                       # (per cell, dim+1)
    origin = np.stack(np.meshgrid(*[np.arange(m)] * dim, indexing="ij"),
                      axis=-1).reshape(-1, dim) @ strides
    return (origin[:, None, None] + offsets).reshape(-1, dim + 1)


def _frozen_csr(mat: sparse.csr_array) -> sparse.csr_array:
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def build_mesh(dim: int, cells_per_side: int) -> Mesh:
    """Triangulate (0,1)^dim with a uniform grid of `cells_per_side`^dim cells.

    Squares are split into 2 triangles along the (0,0)-(1,1) diagonal;
    cubes into 6 tetrahedra (one per axis permutation, all sharing the
    main diagonal), which keeps the triangulation conforming.
    """
    if dim not in (2, 3):
        raise ConfigurationError(f"dim must be 2 or 3, got {dim}")
    m = int(cells_per_side)
    if m < 1:
        raise ConfigurationError(f"cells_per_side must be >= 1, got {cells_per_side}")

    side = m + 1
    axes = [np.linspace(0.0, 1.0, side)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack([g.ravel() for g in grids], axis=1)
    simplices = _cell_simplices(dim, m)
    ns, nloc = simplices.shape

    # Per-simplex geometry: edge matrix E rows are x_i - x_0; the hat-function
    # gradients for vertices 1..dim are the columns of inv(E), and vertex 0
    # carries minus their sum so each row block sums to zero.
    coords = vertices[simplices]                       # (ns, dim+1, dim)
    edges = coords[:, 1:, :] - coords[:, :1, :]        # (ns, dim, dim)
    dets = np.linalg.det(edges)
    volumes = np.abs(dets) / np.prod(range(1, dim + 1))
    inv_edges = np.linalg.inv(edges)                   # (ns, dim, dim)
    grads = np.empty((ns, nloc, dim))
    grads[:, 1:, :] = np.transpose(inv_edges, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)

    # Row (s, k) of the gradient operator lists d(phi_i)/dx_k for i = 0..dim.
    # A grid simplex steps along each axis once, so only the two hat
    # functions at the ends of the step along x_k vary in x_k: the other
    # dim - 1 entries of the row vanish and are not stored.  (Inversion
    # round-off can leave a residue in their place on some grids whose
    # spacing is not a power of two; it is kept, so the products are those
    # of the full table.)
    grad_op = sparse.csr_array(
        (grads.transpose(0, 2, 1).ravel(),
         np.repeat(simplices, dim, axis=0).ravel(),
         np.arange(0, ns * dim * nloc + 1, nloc)),
        shape=(ns * dim, vertices.shape[0]),
    )
    grad_op.eliminate_zeros()
    grad_op = _frozen_csr(grad_op)
    grad_op_t = _frozen_csr(grad_op.T.tocsr())

    boundary = np.zeros(vertices.shape[0], dtype=bool)
    for k in range(dim):
        boundary |= np.isclose(vertices[:, k], 0.0) | np.isclose(vertices[:, k], 1.0)

    lumped = np.zeros(vertices.shape[0])
    np.add.at(lumped, simplices.ravel(),
              np.repeat(volumes / (dim + 1), dim + 1))

    for arr in (vertices, simplices, volumes, grads, boundary, lumped):
        arr.flags.writeable = False

    return Mesh(dim, m, vertices, simplices, volumes, grads,
                boundary, lumped, grad_op, grad_op_t)


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


def laplace_stiffness(mesh: Mesh) -> sparse.csr_array:
    """P1 stiffness matrix of -Laplace, G^T diag(vol) G, as CSR (no boundary
    handling). Entries that cancel to exact zeros are not stored."""
    weights = sparse.diags_array(np.repeat(mesh.volumes, mesh.dim))
    return mesh.grad_op_t @ (weights @ mesh.grad_op)


class LaplacePreconditioner:
    """Dirichlet Laplace solver on the interior vertices, diagonalized by
    the discrete sine transform.

    With n = m - 1 interior vertices per axis and h = 1/m, the interior
    stiffness is K = h^(dim-2) sum_axes I x .. x T x .. x I with
    T = tridiag(-1, 2, -1) of order n.  The orthonormal DST-I matrix
    S_jk = sqrt(2/m) sin(pi j k / m) is symmetric with S^2 = I and
    diagonalizes T with eigenvalues 4 sin^2(pi j / 2m), so K = S^d L S^d,
    where S^d applies S along every axis and L holds the sums
    h^(dim-2) sum_axes 4 sin^2(pi j_axis / 2m).  `laplace_stiffness` is
    the assembled operator this solve inverts.
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
