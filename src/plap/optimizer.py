"""Projected descent on the sign-restricted constraint sets.

The minimizing sequence for each constraint set is generated by a
Sobolev-gradient loop.  It starts from the retraction of a given field,
so every iterate, the first included, is the state of a retraction
(`nehari._Iterate`): E, E', phi_i, grad phi_i and the constraint scales
of the field, all read from one gradient table per active part.  One
pass:

    1. take the energy gradient from the state and remove its
       constraint-normal components (the multipliers),
    2. precondition it with one discrete Dirichlet-Laplace solve,
    3. project the preconditioned direction onto the constraint tangent,
       with the state's constraint gradients,
    4. retract trial steps with `retract` (clip each part to its sign,
       scale it once onto its constraint) and backtrack until the Armijo
       test holds; each retraction returns the state of its field, whose
       energy comes from the scaling's term list without a new gradient
       table,
    5. keep the accepted trial's state as the next iterate; its E' and
       grad phi_i are evaluated when step 1 first reads them.

The iteration stops when the preconditioned projected-residual norm drops
below grad_tol, at the iteration cap, or when it cannot go on; in every
case it returns its last iterate with the report of that iterate.  Each
accepted iterate is on its constraint set up to the retraction
tolerance, so the recorded energies decrease monotonically along the
constrained path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateConstraintError,
    LostSignError,
    NoRootError,
)
from .functional import Nonlinearity, RunParameters, sobolev_threshold
from .mesh import LaplacePreconditioner, Mesh, apply_dirichlet, build_mesh
from .nehari import KIndex, _Iterate, _sign, scale_to_manifold

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolutionTriple",
    "SweepRow",
    "initial_point",
    "retract",
    "descend",
    "solve_three",
    "lambda_sweep",
]

MAX_BACKTRACKS = 60
STEP_INIT = 1.0         # first trial step, and the cap on later ones
ARMIJO_C = 1e-4         # sufficient-decrease fraction of the slope
BACKTRACK = 0.5         # step factor per rejected trial

# failures that end a descent at its last iterate
_STOPS = (LostSignError, NoRootError, DegenerateConstraintError)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs besides the mesh object itself."""

    params: RunParameters
    nonlin: Nonlinearity
    cells_per_side: int
    max_iters: int = 5000
    grad_tol: float = 1e-7
    constraint_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        self.nonlin.validate(self.params)
        if self.cells_per_side < 4:
            # the sign-changing start puts one bump in each half
            raise ConfigurationError("cells_per_side must be >= 4 for a solve")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if not (0.0 < self.grad_tol < math.inf):
            raise ConfigurationError("grad_tol must be positive and finite")
        if not (0.0 < self.constraint_tol < math.inf):
            raise ConfigurationError(
                "constraint_tol must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one constrained descent."""

    kind: str
    converged: bool
    iterations: int
    energy: float
    constraint_residuals: tuple[float, ...]   # relative, one per active constraint
    max_constraint_residual: float            # worst relative residual over iterates
    projected_norm: float
    below_threshold: bool
    energy_history: tuple[float, ...]
    error: str | None = None


@dataclass(frozen=True)
class SolutionTriple:
    u1: np.ndarray      # nonnegative
    u2: np.ndarray      # nonpositive
    u3: np.ndarray      # sign changing
    reports: tuple[SolveReport, SolveReport, SolveReport]

    def fields(self):
        return (self.u1, self.u2, self.u3)

    def validate_distinct(self) -> None:
        """Raise unless every two of the fields differ somewhere by at
        least 1e-6 times the larger of their maximum moduli."""
        fields = self.fields()
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = fields[i], fields[j]
                scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
                if scale == 0.0 or np.max(np.abs(a - b)) < 1e-6 * scale:
                    raise DegenerateConstraintError(
                        f"solutions {i + 1} and {j + 1} are not distinct"
                    )


@dataclass(frozen=True)
class SweepRow:
    lam: float
    t_lambda: float
    c1: float
    c2: float
    c3: float
    threshold1: bool | None
    threshold2: bool | None
    threshold3: bool | None


def _mirror_first_axis(mesh: Mesh) -> np.ndarray:
    """Vertex permutation realizing x_1 -> 1 - x_1 on the structured grid."""
    side = mesh.cells_per_side + 1
    grid = np.arange(mesh.n_vertices).reshape((side,) * mesh.dim)
    return grid[::-1].reshape(-1)


def _transverse_profile(mesh: Mesh) -> np.ndarray:
    """prod_{i >= 2} sin(pi x_i); constant 1 in the first axis."""
    prof = np.ones(mesh.n_vertices)
    for axis in range(1, mesh.dim):
        prof *= np.sin(np.pi * mesh.vertices[:, axis])
    return prof


def _jittered(mesh: Mesh, profile: np.ndarray, seed: int) -> np.ndarray:
    """profile times a seeded multiplicative jitter in [1, 1.1), zeroed
    on the boundary."""
    rng = np.random.default_rng(seed)
    jitter = 1.0 + 0.1 * rng.random(mesh.n_vertices)
    return apply_dirichlet(mesh, profile * jitter)


def _initial_shape(mesh: Mesh, k: KIndex, seed: int) -> np.ndarray:
    """Seeded smooth bump(s) for the constraint set of k, not yet retracted.

    K1 uses `reference_bump`, a positive product-of-sines bump with a mild
    multiplicative jitter; K2 is its exact negation drawn from the same
    seed, so the two runs start from mirror images.  K3 places one bump in
    each half {x_1 < 1/2}, {x_1 > 1/2} (requires at least 4 cells per
    side), the negative one being the mirrored negation of the positive
    one.
    """
    if k is not KIndex.K3:
        w = reference_bump(mesh, seed)
        return w if k is KIndex.K1 else -w

    if mesh.cells_per_side < 4:
        raise ConfigurationError(
            "sign-changing initial data needs at least 4 cells per side"
        )
    x1 = mesh.vertices[:, 0]
    left = np.where(x1 < 0.5, np.sin(2.0 * np.pi * x1), 0.0)
    w_pos = np.maximum(_jittered(mesh, left * _transverse_profile(mesh), seed),
                       0.0)
    # exact mirrored negation keeps the pair antisymmetric to the last bit
    w_neg = -w_pos[_mirror_first_axis(mesh)]
    return w_pos + w_neg


def initial_point(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                  k: KIndex, seed: int,
                  tol_rel: float = 1e-10) -> np.ndarray:
    """The seeded initial shape of k, retracted onto its constraint set:
    the first iterate of the descents that `solve_three` runs."""
    return retract(mesh, nl, params, _initial_shape(mesh, k, seed), k,
                   tol_rel).u


def retract(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
            u: np.ndarray, k: KIndex, tol_rel: float = 1e-10) -> _Iterate:
    """Map an arbitrary field back onto the constraint set of k.

    Each active part is clipped to its sign, zeroed on the boundary and
    scaled once onto its own constraint.  phi1 reads only the nodes where
    u > 0 and phi2 only those where u < 0, so on K3 the two scalings do
    not interact and one pass leaves both residuals within tol_rel.
    Returns the state of the retracted field (`nehari._Iterate`); its
    `.u` is the field.  Raises LostSignError when clipping removes a
    whole active part.
    """
    scaled = {}
    for which in k.active_constraints:
        s = _sign(which)
        # s u_s = max(u, 0) or min(u, 0), clipped in one pass
        clip = np.maximum if s > 0.0 else np.minimum
        part = apply_dirichlet(mesh, clip(u, 0.0))
        if not np.any(part):
            raise LostSignError(
                f"clipping removed the whole part of sign {s:+g}")
        scaled[which] = (part, scale_to_manifold(mesh, nl, params, part,
                                                 which, tol_rel))
    return _Iterate.scaled(mesh, nl, params, k, scaled)


def descend(mesh: Mesh, config: SolverConfig, k: KIndex,
            initial: np.ndarray,
            precond: LaplacePreconditioner | None = None):
    """Run the constrained descent from the retraction of `initial`.

    Returns (final field, SolveReport).  A descent that cannot go on (no
    acceptable step, a direction that does not descend, every trial step
    clipping away a required part, a missing fibering root or a degenerate
    constraint) stops at its last iterate, and the report of that iterate
    says why in `error`.  If `initial` itself cannot be retracted, the
    field is zero, the energy and residuals are nan and the error starts
    with "initial point failed".
    """
    nl, params = config.nonlin, config.params
    tol_rel = config.constraint_tol
    try:
        state = retract(mesh, nl, params, initial, k, tol_rel)
    except _STOPS as exc:
        nan = float("nan")
        return np.zeros(mesh.n_vertices), SolveReport(
            kind=k.name, converged=False, iterations=0, energy=nan,
            constraint_residuals=(nan,) * len(k.active_constraints),
            max_constraint_residual=nan, projected_norm=nan,
            below_threshold=False, energy_history=(),
            error=f"initial point failed: {exc}")
    P = precond if precond is not None else LaplacePreconditioner(mesh)

    history = [state.energy]
    residuals = state.relative_residuals
    max_resid = max(residuals)
    step = STEP_INIT
    converged = False
    pnorm = float("inf")
    iterations = 0
    error = None

    try:
        for iterations in range(config.max_iters + 1):
            r_proj = state.remove_multipliers(state.residual)
            g = P.solve(r_proj)
            gt = state.tangent_project(g)
            # <r, gt> collapses to the positive form r_proj^T K^-1 r_proj:
            # gt is tangent, and r_proj pairs to zero with the part
            # directions.
            slope = float(np.dot(r_proj, g))
            pnorm = float(np.sqrt(max(slope, 0.0)))
            if pnorm <= config.grad_tol:
                converged = True
                break
            if iterations == config.max_iters:
                break
            if slope <= 0.0:
                error = "projected direction is not a descent direction"
                break
            t = step
            accepted = False
            lost = 0
            for _ in range(MAX_BACKTRACKS):
                try:
                    cand = retract(mesh, nl, params, state.u - t * gt, k,
                                   tol_rel)
                except LostSignError:
                    lost += 1
                    t *= BACKTRACK
                    continue
                if cand.energy <= state.energy - ARMIJO_C * t * slope:
                    accepted = True
                    break
                t *= BACKTRACK
            if not accepted:
                error = ("every trial step clipped away a required part"
                         if lost == MAX_BACKTRACKS else
                         f"no acceptable step in {MAX_BACKTRACKS} backtracks")
                break
            state = cand
            history.append(state.energy)
            residuals = state.relative_residuals
            max_resid = max(max_resid, max(residuals))
            step = min(STEP_INIT, t / BACKTRACK)
    except _STOPS as exc:
        error = str(exc)

    return state.u, SolveReport(
        kind=k.name,
        converged=converged,
        iterations=iterations,
        energy=state.energy,
        constraint_residuals=residuals,
        max_constraint_residual=max_resid,
        projected_norm=pnorm,
        below_threshold=state.energy < sobolev_threshold(params),
        energy_history=tuple(history),
        error=error,
    )


def solve_three(config: SolverConfig, mesh: Mesh | None = None) -> SolutionTriple:
    """Minimize on K1, K2 and K3 and return the three fields with reports."""
    if mesh is None:
        mesh = build_mesh(config.params.dim, config.cells_per_side)
    P = LaplacePreconditioner(mesh)
    fields = []
    reports = []
    for k in (KIndex.K1, KIndex.K2, KIndex.K3):
        u, rep = descend(mesh, config, k,
                         _initial_shape(mesh, k, config.seed), P)
        fields.append(u)
        reports.append(rep)
    triple = SolutionTriple(fields[0], fields[1], fields[2], tuple(reports))
    if all(rep.error is None for rep in reports):
        triple.validate_distinct()
    return triple


def reference_bump(mesh: Mesh, seed: int) -> np.ndarray:
    """The unscaled nonnegative bump shape used by sweeps, fixed per seed."""
    return _jittered(mesh, np.prod(np.sin(np.pi * mesh.vertices), axis=1), seed)


def lambda_sweep(config: SolverConfig, lambdas) -> list[SweepRow]:
    """Scale a fixed reference bump and minimize on all three sets for each
    coupling value.  Couplings must be positive and strictly increasing.
    Only a converged descent gives a critical level: one that stops
    without converging (at the iteration cap or on an error) is recorded
    as a nan level and a None threshold flag."""
    lams = [float(x) for x in lambdas]
    if not lams:
        raise ConfigurationError("lambda sweep needs at least one value")
    if not all(0.0 < x < math.inf for x in lams):
        raise ConfigurationError("sweep couplings must be positive and finite")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigurationError("sweep couplings must be strictly increasing")

    mesh = build_mesh(config.params.dim, config.cells_per_side)
    P = LaplacePreconditioner(mesh)
    w_ref = reference_bump(mesh, config.seed)
    shapes = {k: _initial_shape(mesh, k, config.seed) for k in KIndex}
    nl = config.nonlin
    rows = []
    for lam in lams:
        params = replace(config.params, lam=lam)
        cfg = replace(config, params=params)
        try:
            t_lam = scale_to_manifold(mesh, nl, params, w_ref, 1,
                                      config.constraint_tol).t
        except NoRootError:
            t_lam = float("nan")
        energies = []
        flags = []
        for k in (KIndex.K1, KIndex.K2, KIndex.K3):
            _, rep = descend(mesh, cfg, k, shapes[k], P)
            if rep.converged:
                energies.append(rep.energy)
                flags.append(rep.below_threshold)
            else:
                energies.append(float("nan"))
                flags.append(None)
        rows.append(SweepRow(lam, t_lam, energies[0], energies[1],
                             energies[2], flags[0], flags[1], flags[2]))
    return rows
