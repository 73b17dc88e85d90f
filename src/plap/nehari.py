"""Sign-restricted Nehari-type constraint sets and their calculus.

For a nodal field u with parts u = u_plus - u_minus the two constraint
functionals are the pairings of the energy gradient with the parts.  With
s = +1 for phi1 and s = -1 for phi2, and u_s = max(s u, 0) the part of u
of sign s (u_+1 = u_plus, u_-1 = u_minus), both are one map:

    phi_s(u) = <E'(u), s u_s>
             = int |grad u_s|^p - int u_s^p* - s lam int f(u) u_s

The constraint sets are K1 = {u >= 0, phi1 = 0}, K2 = {u <= 0, phi2 = 0}
and K3 = {phi1 = 0, phi2 = 0} with both parts nontrivial.  On a
sign-definite field both functionals reduce to <E'(u), u>, so any
critical point of the energy restricted to a K set satisfies the full
Euler-Lagrange equation: the multiplier vanishes because the constraint
gradient pairs nondegenerately with the respective part while the
constraint itself is zero.

Scaling a fixed shape w onto the constraint set leads to the scalar
fibering map t -> phi(t w).  For sign-definite w it is a sum of powers,
A t^p - sum_e c_e t^e with A = int |grad w|^p, the critical pair
(p*, int |w|^p*) and the source pairs (e, lam int g_e(w)), and has
exactly one positive root.  When the source term dominates c3 |u|^q, the
root is bounded above by t1 = (A / (c3 lam C))^(1/(q-p)) with
C = int |w|^q; `fibering_coefficients` and `fibering_upper_bound` give
that bound as a standalone formula.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateConstraintError,
    DegenerateInputError,
    NoRootError,
    SignError,
)
from .functional import (
    Nonlinearity,
    RunParameters,
    _odd_power,
    _p_dirichlet,
    _squared_norms,
    nonlin_eval,
    p_stiffness_vector,
    source_power_terms,
)
from .mesh import Mesh, _check_field, gradient_table, integrate

__all__ = [
    "KIndex",
    "FiberingCoefficients",
    "ScaleResult",
    "constraint_phi",
    "constraint_scale",
    "fibering_coefficients",
    "fibering_upper_bound",
    "fibering_root",
    "scale_to_manifold",
    "constraint_gradient",
    "tangent_project",
]

MAX_NEWTON = 100


class KIndex(enum.Enum):
    """Which constraint set a field is restricted to."""

    K1 = 1          # nonnegative fields, phi1 = 0
    K2 = 2          # nonpositive fields, phi2 = 0
    K3 = 3          # sign-changing fields, phi1 = phi2 = 0

    @property
    def active_constraints(self) -> tuple[int, ...]:
        return {1: (1,), 2: (2,), 3: (1, 2)}[self.value]


@dataclass(frozen=True)
class FiberingCoefficients:
    """Integrals entering the fibering map of a shape w:
    A = int |grad w|^p, B = int |w|^p*, C = int |w|^q."""

    A: float
    B: float
    C: float


class ScaleResult(NamedTuple):
    """A shape w scaled onto its constraint: phi(t w) = A t^p - sum of
    c_e t^e over `terms`, whose first pair is the critical one
    (p*, int |w|^p*) and the rest the source pairs (e, lam int g_e(w))."""

    t: float                        # positive root of the fibering map
    A: float                        # int |grad w|^p
    terms: tuple[tuple[float, float], ...]  # (e, c_e), critical pair first
    gradients: np.ndarray           # gradient table of the shape w
    sq_norms: np.ndarray            # |grad w|^2 per simplex


def _sign(which: int) -> float:
    """s = +1 for phi1 and -1 for phi2; the only check of `which`."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    return 1.0 if which == 1 else -1.0


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


def _nonzero_field(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    w = _check_field(mesh, w)
    if not np.any(w != 0.0):
        raise DegenerateInputError("fibering coefficients of the zero field")
    return w


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


def fibering_root(A: float, terms: list[tuple[float, float]], p: float,
                  tol_rel: float = 1e-10) -> float:
    """Unique positive root of phi(t) = A t^p - sum_e c_e t^e.

    `terms` holds the pairs (e, c_e), the critical one (p*, B) included.
    Every exponent must exceed p and every coefficient must be
    nonnegative.  Divided by t^p the map becomes
    h(t) = A - sum_e c_e t^(e-p), which strictly decreases from
    h(0) = A > 0.  Any single term drives h below zero by
    (A / c)^(1/(e-p)), so the smallest of these bounds the root.
    Safeguarded Newton on h (bisection whenever a step leaves the bracket)
    stops once |phi(t)| <= tol_rel * A and |phi(t)| <= tol_rel * t^p * A,
    or once t is resolved to the last bit: the bracket holds no double
    strictly inside, or the Newton update leaves t unchanged.  Rounding
    keeps |h| above about eps_mach * A, so for a root with t^p above about
    tol_rel / eps_mach the tolerance cannot be met and these are the only
    exits.
    """
    if A <= 0.0:
        raise DegenerateInputError(f"need A > 0, got {A}")
    powers = [(e - p, c) for e, c in terms if c != 0.0]
    if not powers or any(a <= 0.0 or c < 0.0 for a, c in powers):
        raise NoRootError("fibering map needs nonnegative coefficients, "
                          "not all zero, on exponents above p")
    # pick the tightest single-term bound in log space: the bounds of
    # negligible terms overflow a float
    a, c = min(powers, key=lambda ac: math.log(A / ac[1]) / ac[0])
    lo = 0.0
    hi = t = (A / c) ** (1.0 / a)
    for _ in range(MAX_NEWTON):
        h = A - sum(c * t ** a for a, c in powers)
        if abs(h) * max(t ** p, 1.0) <= tol_rel * A:
            return t
        if h > 0.0:
            lo = t
        else:
            hi = t
        if math.nextafter(lo, hi) >= hi:
            return t
        slope = -sum(a * c * t ** (a - 1.0) for a, c in powers)
        step = t - h / slope
        if step == t:
            return t
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise NoRootError("fibering root not within tolerance after "
                      f"{MAX_NEWTON} Newton steps")


def scale_to_manifold(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                      w: np.ndarray, which: int,
                      tol_rel: float = 1e-10) -> ScaleResult:
    """Scale a sign-definite shape w onto {phi_which = 0}.

    On sign-definite fields both constraints coincide with <E'(tw), tw>,
    the sum of powers A t^p - sum_e c_e t^e whose coefficients are
    nodal moments of w.  Returns A, the term list (the critical pair
    (p*, int |w|^p*) first) and the unique positive root t, which
    satisfies |phi_which(t w)| <= tol_rel * min(1, t^p) * A or is
    resolved to the last bit where t^p is too large for that.  The
    gradient table of w and its squared norms come along, so a caller
    can evaluate the scaled field t w without touching the mesh again.
    """
    w = _nonzero_field(mesh, w)
    s = _sign(which)
    # s w >= 0 everywhere iff both extremes of s w are: two reductions
    # and no temporary field, since this runs on every line-search trial
    if min(s * w.min(), s * w.max()) < 0.0:
        raise SignError(f"constraint {which} needs a field of sign {s:+g}")
    table = gradient_table(mesh, w)
    sq_norms = _squared_norms(table)
    A = _p_dirichlet(mesh, sq_norms, params.p)
    terms = ((params.pstar, integrate(mesh, np.abs(w) ** params.pstar)),
             *((e, params.lam * integrate(mesh, g))
               for e, g in source_power_terms(nl, w)))
    t = fibering_root(A, terms, params.p, tol_rel)
    return ScaleResult(t, A, terms, table, sq_norms)


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
    part_stiff = p_stiffness_vector(mesh, gradient_table(mesh, part), p,
                                    params.eps)
    out = (s * (p * chi * part_stiff - pstar * M * part ** (pstar - 1.0))
           - lam * M * (f * chi + s * fu * part))
    out[mesh.boundary] = 0.0
    return out


def _remove_normal(v: np.ndarray, along: np.ndarray,
                   against: np.ndarray) -> np.ndarray:
    """v minus the multiple of `along` that pairs to zero with `against`.

    Serves both the tangent projector (along = field part, against =
    constraint gradient) and its transpose, the multiplier removal on
    co-vectors (the roles swapped).  Raises DegenerateConstraintError
    when <against, along> is negligible against the two norms.
    """
    denom = float(np.dot(against, along))
    scale = float(np.linalg.norm(against) * np.linalg.norm(along))
    if scale == 0.0 or abs(denom) <= 1e-14 * scale:
        raise DegenerateConstraintError(
            "constraint gradient pairs degenerately with the field part"
        )
    return v - (float(np.dot(against, v)) / denom) * along


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


@dataclass(eq=False)
class _Iterate:
    """One retracted field u of constraint set k with everything the
    descent reads.

    The energy, the constraint values phi_i and their scales
    int |grad u_s|^p are set on construction from one gradient table
    per active part, that of s u_s: the table of u itself is their sum,
    since u = u_plus - u_minus.  The residual E'(u), the constraint gradients
    and the two projections follow on first use from one `nonlin_eval`
    and one p-stiffness scatter per distinct table: one on K1 and K2,
    where s u_s is u itself, three on K3 (u, u_plus, -u_minus).
    Each table's squared norms per simplex are taken once, when the
    scales are, and the scatters reuse them.
    The standalone functions of this module and `functional` are the
    reference for every quantity.
    """

    mesh: Mesh
    nl: Nonlinearity
    params: RunParameters
    u: np.ndarray
    tables: dict            # which -> gradient table of s u_s
    table: np.ndarray       # gradient table of u
    sq_norms: dict          # which -> squared norms of tables[which]
    sq_norm: np.ndarray     # squared norms of table
    energy: float
    phis: dict              # which -> phi_which(u)
    scales: dict            # which -> int |grad u_s|^p

    @classmethod
    def scaled(cls, mesh, nl, params, k, scaled):
        """State of u = sum_i t_i w_i from the scalings of its parts.

        `scaled` maps each active constraint to its sign-definite shape w_i
        and the ScaleResult of w_i.  The parts have disjoint supports, so
        every nodal integral splits into t_i^e times a moment of w_i that
        the scaling already holds, and so do the squared gradient norms of
        t_i w_i; only int |grad u|^p on K3 reads the summed gradient table.
        """
        p = params.p
        u = np.zeros(mesh.n_vertices)
        tables, sq_norms, phis, scales = {}, {}, {}, {}
        nodal = 0.0                 # (1/p*) int |u|^p* + lam int F(u)
        for which, (w, res) in scaled.items():
            t = res.t
            u += t * w
            tables[which] = t * res.gradients
            sq_norms[which] = t * t * res.sq_norms
            scales[which] = t ** p * res.A
            phis[which] = scales[which] - sum(c * t ** e
                                              for e, c in res.terms)
            nodal += sum(c * t ** e / e for e, c in res.terms)
        if k is KIndex.K3:
            table = tables[1] + tables[2]
            sq_norm = _squared_norms(table)
            grad = _p_dirichlet(mesh, sq_norm, p)
        else:
            (which, table), = tables.items()
            sq_norm = sq_norms[which]
            grad = scales[which]
        return cls(mesh, nl, params, u, tables, table, sq_norms, sq_norm,
                   grad / p - nodal, phis, scales)

    @property
    def relative_residuals(self) -> tuple[float, ...]:
        """|phi_i| / int |grad u_s|^p per active constraint."""
        return tuple(abs(self.phis[w]) / s if s > 0.0 else float("inf")
                     for w, s in self.scales.items())

    @functools.cached_property
    def _calculus(self):
        """Residual E'(u), and per active constraint the part and grad phi."""
        mesh, params, u = self.mesh, self.params, self.u
        p, pstar, lam, eps = params.p, params.pstar, params.lam, params.eps
        f, _, fu = nonlin_eval(self.nl, u)
        M = mesh.lumped_mass
        stiff = p_stiffness_vector(mesh, self.table, p, eps,
                                   sq_norms=self.sq_norm)
        residual = stiff - M * (_odd_power(u, pstar - 1.0) + lam * f)
        residual[mesh.boundary] = 0.0
        parts, grads = {}, {}
        for which, g in self.tables.items():
            s = _sign(which)
            part = np.maximum(s * u, 0.0)
            chi = (s * u > 0.0).astype(float)
            # the scatter of g, the table of s u_s, is s times that of u_s
            part_stiff = s * (stiff if len(self.tables) == 1
                              else p_stiffness_vector(
                                  mesh, g, p, eps,
                                  sq_norms=self.sq_norms[which]))
            crit = pstar * M * part ** (pstar - 1.0)
            grad = (s * (p * chi * part_stiff - crit)
                    - lam * M * (f * chi + s * fu * part))
            grad[mesh.boundary] = 0.0
            parts[which], grads[which] = part, grad
        return residual, parts, grads

    @property
    def residual(self) -> np.ndarray:
        """E'(u) as a nodal co-vector, zeroed on the boundary."""
        return self._calculus[0]

    def constraint_gradient(self, which: int) -> np.ndarray:
        return self._calculus[2][which]

    def remove_multipliers(self, r: np.ndarray) -> np.ndarray:
        """The co-vector r less its constraint-normal components.

        The multipliers are fixed by pairing against the part directions
        that `tangent_project` removes, so the result pairs to zero with
        u_plus and/or u_minus.  Preconditioned, it gives a direction whose
        slope is a positive quadratic form, which certifies the Armijo
        decrease in the descent.
        """
        _, parts, grads = self._calculus
        for which in self.tables:
            r = _remove_normal(r, grads[which], parts[which])
        return r

    def tangent_project(self, v: np.ndarray) -> np.ndarray:
        """As the standalone `tangent_project` at u."""
        _, parts, grads = self._calculus
        for which in self.tables:
            v = _remove_normal(v, parts[which], grads[which])
        return v
