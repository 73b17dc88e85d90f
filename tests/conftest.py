import numpy as np
import pytest
from scipy.sparse.linalg import splu

from plap.functional import Nonlinearity, RunParameters
from plap.mesh import build_mesh, laplace_stiffness
from plap.optimizer import SolverConfig, solve_three


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
        self._K_int = K[self.interior][:, self.interior].tocsc()
        self._lu = splu(self._K_int)

    def solve(self, covector):
        out = np.zeros(self.mesh.n_vertices)
        out[self.interior] = self._lu.solve(covector[self.interior])
        return out

    def norm(self, v):
        vi = v[self.interior]
        return float(np.sqrt(max(vi @ (self._K_int @ vi), 0.0)))

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
