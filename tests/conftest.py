from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from plap.functional import (Nonlinearity, RunParameters, _p_dirichlet,
                             _squared_norms, nonlin_eval, p_stiffness_vector)
from plap.mesh import (Mesh, _cell_corners, _cell_layout, _check_field,
                       _kuhn_paths, build_mesh, gradient_table, integrate)
from plap.nehari import (KIndex, _nonzero_field, _remove_normal, _sign,
                         retract)
from plap.optimizer import SolverConfig, initial_shape, solve_three


def reference_config() -> SolverConfig:
    return SolverConfig(
        params=RunParameters(p=2.0, dim=3, lam=50.0, eps=1e-8),
        nonlin=Nonlinearity(family="signed", q=4.0, r=4.0),
        cells_per_side=8,
        grad_tol=1e-7,
        seed=0,
    )


def coarse_config() -> SolverConfig:
    # small 2d run with p < 2, cheap enough to repeat inside tests
    return SolverConfig(
        params=RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8),
        nonlin=Nonlinearity(family="signed", q=3.0, r=3.0),
        cells_per_side=6,
        grad_tol=1e-6,
        seed=0,
    )


@pytest.fixture(scope="session")
def reference_run():
    config = reference_config()
    mesh = build_mesh(config.params.dim, config.cells_per_side)
    triple = solve_three(config, mesh)
    return config, mesh, triple


@pytest.fixture(scope="session")
def coarse_run():
    config = coarse_config()
    mesh = build_mesh(config.params.dim, config.cells_per_side)
    triple = solve_three(config, mesh)
    return config, mesh, triple


def interior_bump(mesh, seed=None):
    """Positive product-of-sines bump, optionally jittered, zero on the
    boundary."""
    bump = np.prod(np.sin(np.pi * mesh.vertices), axis=1)
    if seed is not None:
        rng = np.random.default_rng(seed)
        bump = bump * (1.0 + 0.1 * rng.random(mesh.n_vertices))
    bump[mesh.boundary] = 0.0
    return bump


class _LUPreconditioner:
    """The Dirichlet Laplace solve from a sparse LU factor of the assembled
    interior stiffness, kept as the oracle for the sine-transform solve of
    `plap.mesh.LaplacePreconditioner`."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.interior = np.where(~mesh.boundary)[0]
        K = laplace_stiffness(mesh)
        self._lu = splu(K[self.interior][:, self.interior].tocsc())

    def solve(self, covector):
        out = np.zeros(self.mesh.n_vertices)
        out[self.interior] = self._lu.solve(covector[self.interior])
        return out

    def dual_norm(self, covector):
        ri = covector[self.interior]
        return float(np.sqrt(max(ri @ self._lu.solve(ri), 0.0)))


def two_loop_direction(pairs, r, g):
    """H r by the L-BFGS two-loop recursion with H0 = gamma K^-1, kept as
    the oracle for the compact direction of `plap.optimizer._LbfgsMemory`.

    `pairs` holds (s, y, K^-1 y, <s, y>), oldest first; g = K^-1 r, and
    gamma = <s, y> / <y, K^-1 y> of the newest pair.  K^-1 is linear, so
    the first loop's K^-1 q is g less the alpha-weighted K^-1 y: no solve.
    With no pairs the direction is g itself.
    """
    if not pairs:
        return g
    r, g, alphas = r.copy(), g.copy(), []
    for s, y, ky, sy in reversed(pairs):
        alphas.append(np.dot(s, r) / sy)
        r -= alphas[-1] * y
        g -= alphas[-1] * ky
    _, y, ky, sy = pairs[-1]
    g *= sy / np.dot(y, ky)
    for (s, y, _, sy), alpha in zip(pairs, reversed(alphas)):
        g += (alpha - np.dot(y, g) / sy) * s
    return g


# Reference code that only the tests call: the mesh's simplex table,
# assembled gradient operator and stiffness, per-simplex hat gradients,
# the growth constants of the source term, the standalone constraint
# calculus that `nehari._Iterate` and `plap.verify.measure` compute in
# fused form, the fibering coefficients with their closed-form root
# bound, and the retracted initial point.


def simplices(mesh: Mesh) -> np.ndarray:
    """Vertex indices of each simplex, shape (n_simplices, dim+1): 2
    triangles per square cell, 6 tetrahedra per cube, cell by cell in C
    order, each in the local vertex order of its template; row s is the
    simplex of rows s*dim .. s*dim + dim-1 of `gradient_operator`."""
    origin, offsets, _ = _cell_layout(mesh.dim, mesh.cells_per_side)
    return (origin[:, None, None] + offsets).reshape(-1, mesh.dim + 1)


def gradient_operator(mesh: Mesh) -> sparse.csr_array:
    """The P1 gradient G as CSR, shape (n_simplices*dim, n_vertices): row
    s*dim + k holds d(phi_i)/dx_k of simplex s at the column of its
    vertex i, so G u is the gradient table.  Assembled through COO from
    the full table of hat gradients, zeros included, then stored without
    them: the oracle for `gradient_table` (G u) and for the edge sums of
    `plap.mesh._gradient_transpose` (G^T)."""
    grads = shape_gradients(mesh)
    ns, nloc, dim = grads.shape
    G = sparse.coo_array(
        (grads.transpose(0, 2, 1).ravel(),
         (np.repeat(np.arange(ns * dim), nloc),
          np.repeat(simplices(mesh), dim, axis=0).ravel())),
        shape=(ns * dim, mesh.n_vertices)).tocsr()
    G.eliminate_zeros()
    return G


def laplace_stiffness(mesh: Mesh) -> sparse.csr_array:
    """P1 stiffness matrix of -Laplace, G^T diag(vol) G, as CSR (no boundary
    handling). Entries that cancel to exact zeros are not stored."""
    G = gradient_operator(mesh)
    weights = sparse.diags_array(np.full(G.shape[0], mesh.volume))
    return (G.T @ (weights @ G)).tocsr()


class GrowthConstants(NamedTuple):
    c3: float
    c1: float
    c4: float


def growth_constants(nl: Nonlinearity) -> GrowthConstants:
    """The tightest constants, as functions of q and r, for which the
    growth sandwich

        c3 |u|_q^q <= k2 int F(u) <= int f(u) u
                   <= c1 int f'(u) u^2 <= c4 |u|_q^q   (for q = r)

    holds pointwise for both families, with k2 = `nl.k2` = r.  Given
    p < r <= q < p*, 0 < c3 < c4."""
    q, r = nl.q, nl.r
    return GrowthConstants(c3=r / q, c1=1.0 / (r - 1.0),
                           c4=1.0 + (q - 1.0) / (r - 1.0))


def shape_gradients(mesh: Mesh) -> np.ndarray:
    """Gradient of each vertex hat function restricted to each simplex,
    shape (n_simplices, dim+1, dim), zeros included; its nonzero
    entries are those `gradient_operator` stores.  Built read-only on
    each call from the corners of the cell templates: the solver reads
    the mesh's edge index only, so a mesh does not hold this table.

    The hat gradients of vertices 1..dim are the columns of the inverse
    edge matrix (rows x_i - x_0), and vertex 0 takes minus their sum.  A
    template's edge matrix is unimodular, so its inverse is an integer
    matrix that rounding recovers exactly."""
    m = mesh.cells_per_side
    corners = _cell_corners(_kuhn_paths(mesh.dim))
    edges = corners[:, 1:, :] - corners[:, :1, :]
    unit = np.empty(corners.shape)
    unit[:, 1:, :] = np.rint(np.linalg.inv(edges)).transpose(0, 2, 1)
    unit[:, 0, :] = -unit[:, 1:, :].sum(axis=1)
    grads = np.tile(m * unit, (m ** mesh.dim, 1, 1))
    grads.flags.writeable = False
    return grads


def plus_minus_parts(u: np.ndarray):
    """Nodal positive and negative parts: u = plus - minus, both >= 0."""
    u = np.asarray(u, dtype=float)
    return np.maximum(u, 0.0), np.maximum(-u, 0.0)


def energy_parts(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                 u: np.ndarray):
    """The three quadrature terms of the energy:
    (1/p) int |grad u|^p,  (1/p*) int |u|^p*,  lam int F(u)."""
    u = _check_field(mesh, u)
    g2 = _squared_norms(gradient_table(mesh, u))
    grad_term = _p_dirichlet(mesh, g2, params.p) / params.p
    crit_term = integrate(mesh, np.abs(u) ** params.pstar) / params.pstar
    _, F, _ = nonlin_eval(nl, u)
    source_term = params.lam * integrate(mesh, F)
    return grad_term, crit_term, source_term


def energy(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
           u: np.ndarray) -> float:
    """E(u), the reference `plap.verify.measure` is held to."""
    grad_term, crit_term, source_term = energy_parts(mesh, nl, params, u)
    return grad_term - crit_term - source_term


def energy_residual(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                    u: np.ndarray) -> np.ndarray:
    """Nodal gradient of the energy, zeroed on the boundary.

    With eps = 0 this is the exact gradient of `energy`; with eps > 0 the
    p-Dirichlet weight |grad u|^(p-2) is replaced by
    (|grad u|^2 + eps^2)^((p-2)/2), which only matters for p < 2.
    """
    u = _check_field(mesh, u)
    g = gradient_table(mesh, u)
    res = p_stiffness_vector(mesh, g, params.p, params.eps,
                             sq_norms=_squared_norms(g))
    f, _, _ = nonlin_eval(nl, u)
    crit = np.sign(u) * np.abs(u) ** (params.pstar - 1.0)
    res -= mesh.lumped_mass * (crit + params.lam * f)
    res[mesh.boundary] = 0.0
    return res


@dataclass(frozen=True)
class FiberingCoefficients:
    """Integrals entering the fibering map of a shape w:
    A = int |grad w|^p, B = int |w|^p*, C = int |w|^q."""

    A: float
    B: float
    C: float


def constraint_phi(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                   u: np.ndarray, which: int) -> float:
    """Evaluate phi1 (which=1) or phi2 (which=2) at u."""
    u = _check_field(mesh, u)
    s = _sign(which)
    part = np.maximum(s * u, 0.0)
    f, _, _ = nonlin_eval(nl, u)
    return (_p_dirichlet(mesh, _squared_norms(gradient_table(mesh, part)),
                         params.p)
            - integrate(mesh, part ** params.pstar)
            - s * params.lam * integrate(mesh, f * part))


def constraint_scale(mesh: Mesh, params: RunParameters, u: np.ndarray,
                     which: int) -> float:
    """Natural scale of phi_which at u: the part's gradient integral
    int |grad u_s|^p.  Used to make constraint tolerances relative."""
    part = np.maximum(_sign(which) * _check_field(mesh, u), 0.0)
    return _p_dirichlet(
        mesh, _squared_norms(gradient_table(mesh, part)), params.p)


def fibering_coefficients(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                          w: np.ndarray) -> FiberingCoefficients:
    """A, B, C for the shape w.  Homogeneous of degree p, p*, q in w."""
    w = _nonzero_field(mesh, w)
    aw = np.abs(w)
    A = _p_dirichlet(mesh, _squared_norms(gradient_table(mesh, w)), params.p)
    return FiberingCoefficients(A, integrate(mesh, aw ** params.pstar),
                                integrate(mesh, aw ** nl.q))


def fibering_upper_bound(A: float, c3: float, lam: float, C: float,
                         q: float, p: float) -> float:
    """t1 = (A / (c3 lam C))^(1/(q-p)), an upper bound for the root
    whenever the source term dominates c3 |u|^q."""
    return (A / (c3 * lam * C)) ** (1.0 / (q - p))


def constraint_gradient(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                        u: np.ndarray, which: int) -> np.ndarray:
    """Nodal gradient of phi_which at u, zeroed on the boundary.

    The positive/negative part is differentiated with the almost-everywhere
    chain rule: the variation of u_plus in direction v is v on {u > 0} and
    0 elsewhere, so every entry at a node of the opposite sign vanishes
    identically, making the K3 cross-pairings exact zeros.
    """
    u = _check_field(mesh, u)
    s = _sign(which)
    part = np.maximum(s * u, 0.0)
    chi = (s * u > 0.0).astype(float)
    p, pstar, lam = params.p, params.pstar, params.lam
    f, _, fu = nonlin_eval(nl, u)
    M = mesh.lumped_mass
    g = gradient_table(mesh, part)
    part_stiff = p_stiffness_vector(mesh, g, p, params.eps,
                                    sq_norms=_squared_norms(g))
    out = (s * (p * chi * part_stiff - pstar * M * part ** (pstar - 1.0))
           - lam * M * (f * chi + s * fu * part))
    out[mesh.boundary] = 0.0
    return out


def tangent_project(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                    u: np.ndarray, v: np.ndarray, k: KIndex) -> np.ndarray:
    """Project a direction v onto the tangent space of the active
    constraints at u, by removing multiples of u_plus and/or u_minus."""
    u = _check_field(mesh, u)
    out = _check_field(mesh, v)
    for which in k.active_constraints:
        out = _remove_normal(out, np.maximum(_sign(which) * u, 0.0),
                             constraint_gradient(mesh, nl, params, u, which))
    return out


def initial_point(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                  k: KIndex, seed: int,
                  tol_rel: float = 1e-10) -> np.ndarray:
    """The seeded initial shape of k, retracted onto its constraint set:
    the first iterate of the descents that `solve_three` runs."""
    return retract(mesh, nl, params, initial_shape(mesh, k, seed), k,
                   tol_rel).u
