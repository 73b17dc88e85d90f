"""Projected descent on the sign-restricted constraint sets.

The minimizing sequence for each constraint set is generated by a
Sobolev-gradient loop.  It starts from the retraction of a given field,
so every iterate, the first included, is the state that
`nehari.retract` builds (`nehari._Iterate`): E, E', phi_i, grad phi_i
and the constraint scales of the field, all read from one Dirichlet
term per active part (at p = 2 the part's stencil image K w, otherwise
its gradient table).  One pass:

    1. take the energy gradient from the state and remove its
       constraint-normal components (the multipliers),
    2. precondition it with one discrete Dirichlet-Laplace solve, the
       H0 of the L-BFGS direction (`_LbfgsMemory`) of the last
       LBFGS_PAIRS changes of iterate and residual, which needs no other
       solve; each kept pair has <s, y> > 0, so H is positive definite
       and the direction descends up to round-off,
    3. keep the part of that direction in the descent's symmetry class
       (see below), then project it onto the constraint tangent, with
       the state's constraint gradients,
    4. backtrack along that one direction from t = 1 until the Armijo
       test holds, retracting each trial with `nehari.retract` (clip each
       part to its sign, scale it once onto its constraint), and clear
       the memory after an iteration that backtracked; each retraction
       returns the state of its field, whose energy comes from the
       scaling's term list and the Dirichlet term of each part: one
       stencil application K w per part at p = 2, where the descent reads
       no gradient table, one gradient table per part otherwise; in the
       inversion-odd class only the positive part is clipped and scaled,
       and the negative part is its mirror image,
    5. keep the accepted trial's state as the next iterate; its E' and
       grad phi_i are evaluated when step 1 first reads them.

Each descent runs in a class of fields fixed by the inversion
x -> 1 - x (`_symmetry_class`): the start and every search direction
are replaced by their part in the class.  The vertices are C-ordered on
the (m+1)^dim grid, so the inversion is the flat reversal i -> n - 1 - i
of a nodal field; it maps the Kuhn mesh onto itself (each simplex is a
monotone path along the axes, and walked backwards it is the same
simplex) and fixes the boundary, the lumped mass and the stencil.  E
does not depend on x, so for either family it keeps E, and
u -> u(1 - x) maps K1 and K2 each onto itself: K1 and K2 are solved in
the inversion-even class u(1 - x) = u(x), from the part
(v + v(1 - x)) / 2.  For odd f, T u = -u(1 - x) keeps E as well and maps K3 onto
itself, so K3 of an odd f is solved in the inversion-odd class T u = u,
from the part (v + T v) / 2.  A critical point of E on either class is
one of E (Palais, Comm. Math. Phys. 69 (1979)).  The classes remove
soft symmetry-breaking modes that the seed's jitter and rounding feed
into an unrestricted descent.  K3 of a non-odd f is not restricted: T
does not keep its energy, and the even part of the sign-changing start
is its lean alone, since the inversion maps each bump onto the other
negated.

Each class part is exact bit for bit (a + b = b + a, a - b = -(b - a)),
and clipping, scaling, the tangent projection and the step all keep it,
so every class iterate is even, or odd, bit for bit.  An odd iterate's
negative part is T of its positive part; `retract` sees that on the
field (u == -u[::-1] on K3 of an odd f) and reads the quantities of the
one from those of the other: one scaling per trial, one part scatter
per pass at p != 2, one coefficient per projection.  K1 and K2 have one
part each, so the even class has no mirror to read.

The iteration stops when the preconditioned projected-residual norm drops
below grad_tol, at the iteration cap, or when it cannot go on; in every
case it returns its last iterate with the report of that iterate.  Each
accepted iterate is on its constraint set up to the retraction
tolerance, so the recorded energies decrease monotonically along the
constrained path.

`solve_three` is the one driver of the three descents: it builds the
Laplace solve and the seeded starts (`initial_shape`), and descends on
K1, K2 and K3 in turn; when f is odd it mirrors K1 for K2 instead of
descending.
`lambda_sweep` runs it once per coupling on one mesh.
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
from .nehari import KIndex, _Iterate, retract, scale_to_manifold

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolutionTriple",
    "SweepRow",
    "coupling_list",
    "descend",
    "initial_shape",
    "solve_three",
    "lambda_sweep",
]

MAX_BACKTRACKS = 60
# square16-p1.5 K3 seeds 0-159: 8/16/32/64 pairs take median 496/321/225/164
LBFGS_PAIRS = 64        # curvature pairs kept; depth costs the direction little
STEP_INIT = 1.0         # first trial step of every line search
ARMIJO_C = 1e-4         # sufficient-decrease fraction of the slope
BACKTRACK = 0.5         # step factor per rejected trial
K3_LEAN = 0.05          # weight of the x_1 = x_2 mode in the K3 start
INVERSION_EVEN = "inversion-even"   # the class of K1 and K2
INVERSION_ODD = "inversion-odd"     # the K3 class of an odd f

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
    energy_history: tuple[float, ...]
    step_history: tuple[float, ...] = ()      # accepted step per iteration
    backtracks: tuple[int, ...] = ()          # rejected trials per iteration
    error: str | None = None
    mirror_of: str | None = None    # kind whose descent this one negates
    symmetry: str | None = None     # class the descent was solved in


@dataclass(frozen=True)
class SolutionTriple:
    u1: np.ndarray      # nonnegative
    u2: np.ndarray      # nonpositive
    u3: np.ndarray      # sign changing
    reports: tuple[SolveReport, SolveReport, SolveReport]

    def fields(self):
        return (self.u1, self.u2, self.u3)


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


def initial_shape(mesh: Mesh, k: KIndex, seed: int) -> np.ndarray:
    """Seeded smooth bump(s) for the constraint set of k, not yet retracted.

    K1 is the positive bump prod sin(pi x_i) times a seeded multiplicative
    jitter in [1, 1.1), zeroed on the boundary; K2 is its exact negation,
    so the two runs start from mirror images, and the sweep scales the K1
    shape.  K3 places one bump in each half {x_1 < 1/2}, {x_1 > 1/2}
    (requires at least 4 cells per side), the negative one being the
    mirrored negation of the positive one, and adds K3_LEAN times
    (x_2 - x_1) prod sin(pi x_i).

    Without that lean the pair is a saddle on the square (p = 1.5), and
    the seed's jitter tips the descent toward either diagonal nodal line.
    Along x_1 = x_2, the cells' shared diagonal, it reaches a discrete
    solution; along x_1 + x_2 = 1 the constrained minimum sits on the
    kink of the clip retraction at vertices with u = 0 and is none.  The
    lean tips the start toward x_1 = x_2 by far more than the jitter does.
    It is not odd under x_1 -> 1 - x_1, and the inversion x -> 1 - x maps
    the midplane x_1 = 1/2 onto itself without fixing its points, so the
    K3 field need not vanish on that plane.
    """
    v = mesh.vertices
    jitter = 1.0 + 0.1 * np.random.default_rng(seed).random(mesh.n_vertices)
    bump = np.prod(np.sin(np.pi * v), axis=1)
    if k is not KIndex.K3:
        w = apply_dirichlet(mesh, bump * jitter)
        return w if k is KIndex.K1 else -w

    if mesh.cells_per_side < 4:
        raise ConfigurationError(
            "sign-changing initial data needs at least 4 cells per side"
        )
    left = np.where(v[:, 0] < 0.5, np.sin(2.0 * np.pi * v[:, 0]), 0.0)
    transverse = np.prod(np.sin(np.pi * v[:, 1:]), axis=1)
    w_pos = apply_dirichlet(mesh, left * transverse * jitter)
    # x_1 -> 1 - x_1 reverses the first axis of the C-ordered vertex grid
    grid = (mesh.cells_per_side + 1,) * mesh.dim
    w_neg = -w_pos.reshape(grid)[::-1].reshape(-1)
    lean = (v[:, 1] - v[:, 0]) * bump
    return w_pos + w_neg + K3_LEAN * apply_dirichlet(mesh, lean)


def _symmetry_class(k: KIndex, nl: Nonlinearity):
    """The class the descent on k runs in, as (label, projector): the
    inversion-even class for K1 and K2, with projector (v + v(1 - x)) / 2,
    the inversion-odd class for K3 of an odd f, with (v - v(1 - x)) / 2,
    and none (label None, the identity) for K3 of a non-odd f.  Either
    part is even, or odd, bit for bit: a + b = b + a, a - b = -(b - a)."""
    if k is not KIndex.K3:
        return INVERSION_EVEN, lambda v: 0.5 * (v + v[::-1])
    if nl.odd:
        return INVERSION_ODD, lambda v: 0.5 * (v - v[::-1])
    return None, lambda v: v


class _LbfgsMemory:
    """The last LBFGS_PAIRS curvature pairs and the L-BFGS direction H r,
    H0 = gamma K^-1, in the compact form of Byrd, Nocedal and Schnabel
    (1994).  Pairs (s, y, K^-1 y) with <s, y> > 0, so H is positive
    definite, are scaled by 1/sqrt(<s, y>), which keeps H and gives
    R = triu(S^T Y) a unit diagonal.  They fill ring slots of three row
    blocks, each doubled when full, and R^-1 is kept in slot order; the
    oldest pair leaves by zeroing its row and column.  A new pair adds one
    column to R^-1, so a direction costs about ten block products at any
    memory depth, where the two-loop recursion makes a few per pair."""

    def __init__(self, n: int):
        self._rows = [np.empty((1, n)) for _ in range(3)]  # S, Y, K^-1 Y
        self._rinv = np.empty((LBFGS_PAIRS, LBFGS_PAIRS))
        self._gamma = 1.0   # <s, y> / <y, K^-1 y> of the newest pair
        self._len = self._next = 0

    def clear(self):
        self._len = self._next = 0

    def append(self, s, y, ky):
        """Keep (s, y, K^-1 y) exactly when <s, y> > 0, which its scaling
        needs; a nan <s, y> is refused too."""
        sy = float(np.dot(s, y))
        if not sy > 0.0:
            return
        slot, m = self._next, min(self._len + 1, LBFGS_PAIRS)
        self._len, self._next = m, (slot + 1) % LBFGS_PAIRS
        for i, v in enumerate((s, y, ky)):
            if m > len(self._rows[i]):   # full: double it, one block at a time
                grown = np.empty((min(2 * m - 2, LBFGS_PAIRS), v.size))
                grown[:m - 1] = self._rows[i]
                self._rows[i] = grown
            np.divide(v, math.sqrt(sy), out=self._rows[i][slot])
        S, Y, KY = (block[:m] for block in self._rows)
        self._gamma = 1.0 / float(np.dot(Y[slot], KY[slot]))
        rinv = self._rinv[:m, :m]
        rinv[slot] = rinv[:, slot] = 0.0     # R^-1 of the other pairs
        rinv[:, slot] = -(rinv @ (S @ Y[slot]))     # R's new column S y_new
        rinv[slot, slot] = 1.0

    def direction(self, r: np.ndarray, g: np.ndarray) -> np.ndarray:
        """H r = z + S^T R^-T (alpha - Y z), alpha = R^-1 S r, z = gamma (g -
        (K^-1 Y)^T alpha), where g = K^-1 r; g itself with no pairs."""
        if not self._len:
            return g
        S, Y, KY = (block[:self._len] for block in self._rows)
        rinv = self._rinv[:self._len, :self._len]
        alpha = rinv @ (S @ r)
        z = self._gamma * (g - alpha @ KY)
        return z + (rinv.T @ (alpha - Y @ z)) @ S


def _armijo_search(mesh: Mesh, config: SolverConfig, k: KIndex,
                   state: _Iterate, gt: np.ndarray, slope: float):
    """Backtrack from t = STEP_INIT along -gt until the retracted trial
    meets the Armijo test; each trial is in the class of `state`, and
    `retract` reads the mirror off an odd one.  Returns (trial state, t,
    rejected trials, trials that clipped away a part); the state is None
    when all MAX_BACKTRACKS trials were rejected."""
    t, lost = STEP_INIT, 0
    for rejected in range(MAX_BACKTRACKS):
        try:
            cand = retract(mesh, config.nonlin, config.params,
                           state.u - t * gt, k, config.constraint_tol)
        except LostSignError:
            lost += 1
        else:
            if cand.energy <= state.energy - ARMIJO_C * t * slope:
                return cand, t, rejected, lost
        t *= BACKTRACK
    return None, t, MAX_BACKTRACKS, lost


def descend(mesh: Mesh, config: SolverConfig, k: KIndex,
            initial: np.ndarray, P: LaplacePreconditioner):
    """Run the constrained descent from the retraction of `initial`.

    Returns (final field, SolveReport).  A descent that cannot go on (a
    search direction that does not descend, no acceptable step, every
    trial step clipping away a required part, a missing fibering root or
    a degenerate constraint) stops at its last iterate, and the report of
    that iterate says why in `error`.  Two such stops are known: for
    p < 2 under strong coupling on a coarse mesh, nodes next to the sign
    interface can flip sign from one iterate to the next, where the energy
    of the clip retraction has a kink; and close to `grad_tol` the
    predicted decrease can fall below the round-off of the energy.  In
    both no trial passes the Armijo test.  If
    `initial` itself cannot be retracted, the field is zero, the energy
    and residuals are nan and the error starts with "initial point
    failed".  `P` is the mesh's Laplace solve, the metric of the descent.
    The descent runs in the symmetry class of k (`_symmetry_class`),
    from the class part of `initial`, and its report's `symmetry` names
    the class: inversion-even on K1 and K2, inversion-odd on K3 of an odd
    f, None on K3 of a non-odd f.
    """
    nl, params = config.nonlin, config.params
    tol_rel = config.constraint_tol
    symmetry, in_class = _symmetry_class(k, nl)
    try:
        state = retract(mesh, nl, params, in_class(initial), k, tol_rel)
    except _STOPS as exc:
        nan = float("nan")
        return np.zeros(mesh.n_vertices), SolveReport(
            kind=k.name, converged=False, iterations=0, energy=nan,
            constraint_residuals=(nan,) * len(k.active_constraints),
            max_constraint_residual=nan, projected_norm=nan, energy_history=(),
            error=f"initial point failed: {exc}", symmetry=symmetry)

    history = [state.energy]
    steps, backtracks = [], []
    residuals = state.relative_residuals
    max_resid = max(residuals)
    prev = None             # (u, r_proj, g) of the previous iterate
    memory = _LbfgsMemory(mesh.n_vertices)
    converged = False
    pnorm = float("inf")
    iterations = 0
    error = None

    try:
        for iterations in range(config.max_iters + 1):
            r_proj = state.remove_multipliers(state.residual)
            g = P.solve(r_proj)
            pnorm = math.sqrt(max(float(np.dot(r_proj, g)), 0.0))
            if pnorm <= config.grad_tol:
                converged = True
                break
            if iterations == config.max_iters:
                break
            if prev is not None:
                memory.append(state.u - prev[0], r_proj - prev[1], g - prev[2])
            prev = (state.u, r_proj, g)
            # <r, gt> collapses to <r_proj, ds>: gt is tangent, and r_proj
            # pairs to zero with the part directions.  H is positive
            # definite, so only round-off makes it nonpositive, and then
            # the Armijo test would accept an energy increase.
            ds = in_class(memory.direction(r_proj, g))
            slope = float(np.dot(r_proj, ds))
            if slope <= 0.0:
                error = "search direction does not descend"
                break
            cand, t, rejected, lost = _armijo_search(
                mesh, config, k, state, state.tangent_project(ds), slope)
            if cand is None:
                error = ("every trial step clipped away a required part"
                         if lost == MAX_BACKTRACKS else
                         f"no acceptable step in {MAX_BACKTRACKS} backtracks")
                break
            if rejected:
                memory.clear()
            state = cand
            history.append(state.energy)
            steps.append(t)
            backtracks.append(rejected)
            residuals = state.relative_residuals
            max_resid = max(max_resid, max(residuals))
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
        energy_history=tuple(history),
        step_history=tuple(steps),
        backtracks=tuple(backtracks),
        error=error,
        symmetry=symmetry,
    )


def solve_three(config: SolverConfig, mesh: Mesh) -> SolutionTriple:
    """Minimize on K1, K2 and K3, each from its seeded start
    (`initial_shape`) with one Laplace solve for all three, and return the
    three fields with reports; `mesh` is the config's
    `build_mesh(params.dim, cells_per_side)`.

    For odd f, E(-u) = E(u), and the K2 start is the exact negation of
    the K1 start, so the K2 descent would retrace K1's, negated, bit for
    bit.  It is not run: u2 is 0 - u1 (which, unlike -u1, writes +0 where
    u1 vanishes, as the descent does) and its report is K1's with kind K2
    and `mirror_of="K1"`.  A K1 descent that stopped on an error is not
    mirrored: error texts name the sign of a part ("part of sign +1"),
    so K2 runs its own descent and reports its own error.
    """
    P = LaplacePreconditioner(mesh)

    def run(k: KIndex):
        start = initial_shape(mesh, k, config.seed)
        return descend(mesh, config, k, start, P)

    u1, rep1 = run(KIndex.K1)
    if config.nonlin.odd and rep1.error is None:
        u2, rep2 = 0.0 - u1, replace(rep1, kind=KIndex.K2.name,
                                     mirror_of=KIndex.K1.name)
    else:
        u2, rep2 = run(KIndex.K2)
    u3, rep3 = run(KIndex.K3)
    return SolutionTriple(u1, u2, u3, (rep1, rep2, rep3))


def coupling_list(values) -> tuple[float, ...]:
    """The couplings of a sweep as floats, or ConfigurationError unless
    each is positive and finite and they strictly increase.  The config
    parser applies it to `lambda-list`."""
    lams = tuple(float(x) for x in values)
    if not all(0.0 < x < math.inf for x in lams):
        raise ConfigurationError("sweep couplings must be positive and finite")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigurationError("sweep couplings must be strictly increasing")
    return lams


def lambda_sweep(config: SolverConfig, lambdas) -> list[SweepRow]:
    """Scale K1's seeded start (`initial_shape`) onto K1 and run
    `solve_three` at each coupling value, on one mesh; the couplings are
    a nonempty `coupling_list`.  Only a converged descent gives a
    critical level: one that stops without converging (at the iteration
    cap or on an error) is recorded as a nan level and a None threshold
    flag.  The K2 level of an odd f is K1's, mirrored by `solve_three`."""
    lams = coupling_list(lambdas)
    if not lams:
        raise ConfigurationError("lambda sweep needs at least one value")

    mesh = build_mesh(config.params.dim, config.cells_per_side)
    w_ref = initial_shape(mesh, KIndex.K1, config.seed)
    threshold = sobolev_threshold(config.params)
    rows = []
    for lam in lams:
        params = replace(config.params, lam=lam)
        try:
            t_lam = scale_to_manifold(mesh, config.nonlin, params, w_ref,
                                      config.constraint_tol).t
        except NoRootError:
            t_lam = float("nan")
        reports = solve_three(replace(config, params=params), mesh).reports
        levels = [rep.energy if rep.converged else float("nan")
                  for rep in reports]
        flags = [rep.energy < threshold if rep.converged else None
                 for rep in reports]
        rows.append(SweepRow(lam, t_lam, *levels, *flags))
    return rows
