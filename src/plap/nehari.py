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
fibering map t -> phi(t w).  For a w of one sign, its sign alone picks
the constraint, and the map is <E'(tw), tw>, a sum of powers,
A t^p - sum_e c_e t^e with A = int |grad w|^p, the critical pair
(p*, int |w|^p*) and the source pairs (e, lam int g_e(w)), and has
exactly one positive root, which `fibering_root` finds.  When the source
term dominates c3 |u|^q, the root is bounded above by
t1 = (A / (c3 lam C))^(1/(q-p)) with C = int |w|^q.  The descent reads
the calculus of a scaled field (E, E', phi_i, grad phi_i and the tangent
projection) from the private state `_Iterate` that `retract` returns.
Standalone versions of the constraint maps, their gradients, the
tangent projection, the fibering coefficients of a shape and the bound
t1 are test code (`tests/conftest.py`): the references the tests hold
that state to.
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
    LostSignError,
    NoRootError,
    SignError,
)
from .functional import (
    Nonlinearity,
    RunParameters,
    _dirichlet_form,
    _Powers,
    _source_derivatives,
    source_power_terms,
)
from .mesh import Mesh, _check_field, apply_dirichlet, integrate

__all__ = [
    "KIndex",
    "ScaleResult",
    "fibering_root",
    "scale_to_manifold",
    "retract",
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


class ScaleResult(NamedTuple):
    """A shape w scaled onto its constraint: phi(t w) = A t^p - sum of
    c_e t^e over `terms`, whose first pair is the critical one
    (p*, int |w|^p*) and the rest the source pairs (e, lam int g_e(w)).
    `form` is the Dirichlet term of w as `functional._dirichlet_form`
    gives it: the stencil image K w at p = 2, the gradient table of w
    and its squared norms otherwise."""

    t: float                        # positive root of the fibering map
    A: float                        # int |grad w|^p
    terms: tuple[tuple[float, float], ...]  # (e, c_e), critical pair first
    form: tuple                     # Dirichlet term of the shape w


def _sign(which: int) -> float:
    """s = +1 for phi1 and -1 for phi2; the only check of `which`."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    return 1.0 if which == 1 else -1.0


def _nonzero_field(mesh: Mesh, w: np.ndarray) -> np.ndarray:
    w = _check_field(mesh, w)
    if not np.any(w != 0.0):
        raise DegenerateInputError("fibering coefficients of the zero field")
    return w


def fibering_root(A: float, terms: list[tuple[float, float]], p: float,
                  tol_rel: float = 1e-10) -> float:
    """Unique positive root of phi(t) = A t^p - sum_e c_e t^e.

    `terms` holds the pairs (e, c_e), the critical one (p*, B) included.
    Every exponent must exceed p and every coefficient must be
    nonnegative.  Divided by t^p the map becomes
    h(t) = A - sum_e c_e t^(e-p), which strictly decreases from
    h(0) = A > 0.  Any single term drives h below zero by
    (A / c)^(1/(e-p)), so the smallest of these bounds the root.  In
    s = log t each term is an exponential, so h is concave and decreasing,
    and Newton in s from the bound, where h <= 0, moves monotonically onto
    the root without crossing it: no bracket is needed.  With
    x_e = c_e t^(e-p) the step is t <- t exp(h / sum_e (e-p) x_e).  It
    stops once |phi(t)| <= tol_rel * A and |phi(t)| <= tol_rel * t^p * A,
    or once the step does not lower t: t is resolved to the last bit, or
    rounding made h positive.  Rounding keeps |h| above about
    eps_mach * A, so for a root with t^p above about tol_rel / eps_mach
    the tolerance cannot be met and that is the only exit.  A bound, power
    or step outside the float range raises NoRootError, as does a
    coefficient that underflowed to 0 unless its term, below
    ulp(0) t^(e-p), is within tol_rel * A at the root.
    """
    if A <= 0.0:
        raise DegenerateInputError(f"need A > 0, got {A}")
    powers = [(e - p, c) for e, c in terms if c != 0.0]
    if not powers or any(a <= 0.0 or c < 0.0 for a, c in powers):
        raise NoRootError("fibering map needs nonnegative coefficients, "
                          "not all zero, on exponents above p")
    try:
        # pick the tightest single-term bound in log space: the bounds of
        # negligible terms overflow a float
        a, c = min(powers, key=lambda ac: math.log(A / ac[1]) / ac[0])
        t = (A / c) ** (1.0 / a)
        if t == 0.0:
            raise NoRootError("fibering map leaves the float range: "
                              "its root bound underflows to 0")
        for _ in range(MAX_NEWTON):
            xs = [(a, c * t ** a) for a, c in powers]
            h = A - sum(x for _, x in xs)
            if abs(h) * max(t ** p, 1.0) <= tol_rel * A:
                break
            step = t * math.exp(h / sum(a * x for a, x in xs))
            if not step < t:
                break
            t = step
        else:
            raise NoRootError("fibering root not within tolerance after "
                              f"{MAX_NEWTON} Newton steps")
        if any(math.ulp(0.0) * t ** (e - p) > tol_rel * A
               for e, c in terms if c == 0.0):
            raise FloatingPointError("an underflowed term is not negligible")
    except (ArithmeticError, ValueError) as exc:
        # A / c or a step underflowed to 0, a power overflowed or a zero
        # term mattered
        raise NoRootError(f"fibering map leaves the float range: {exc}") \
            from exc
    return t


def scale_to_manifold(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                      w: np.ndarray, tol_rel: float = 1e-10) -> ScaleResult:
    """Scale a shape w of one sign onto {<E'(tw), tw> = 0}: phi1 = 0 for
    w >= 0, phi2 = 0 for w <= 0, and SignError for a sign-changing w.

    <E'(tw), tw> is the sum of powers A t^p - sum_e c_e t^e whose
    coefficients are nodal moments of w.  Returns A, the term list (the
    critical pair (p*, int |w|^p*) first) and the unique positive root t,
    which satisfies |<E'(tw), tw>| <= tol_rel * min(1, t^p) * A or is
    resolved to the last bit where t^p is too large for that.  The
    Dirichlet term of w comes along as `form`, so a caller can evaluate
    the scaled field t w without touching the mesh again.  w vanishes on
    the boundary, as every field of the Dirichlet problem does: at p = 2,
    A is read as w . K w, which holds only there.
    """
    w = _nonzero_field(mesh, w)
    # two reductions and no temporary field, since this runs on every
    # line-search trial
    if w.min() < 0.0 < w.max():
        raise SignError("scaling needs a field that does not change sign")
    form = _dirichlet_form(mesh, params, w)
    A = form.integral(mesh, params)
    pw = _Powers(w)                 # on the cubes |w|^q comes with |w|^p*
    terms = ((params.pstar, integrate(mesh, pw[params.pstar])),
             *((e, params.lam * integrate(mesh, g))
               for e, g in source_power_terms(nl, pw)))
    t = fibering_root(A, terms, params.p, tol_rel)
    return ScaleResult(t, A, terms, form)


def _normal_coefficient(v: np.ndarray, along: np.ndarray,
                        against: np.ndarray) -> float:
    """The multiple c of `along` for which v - c along pairs to zero with
    `against`.

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
    return float(np.dot(against, v)) / denom


def _remove_normal(v: np.ndarray, along: np.ndarray,
                   against: np.ndarray) -> np.ndarray:
    """v minus the multiple of `along` that pairs to zero with `against`."""
    return v - _normal_coefficient(v, along, against) * along


@dataclass(eq=False)
class _Iterate:
    """One retracted field u of constraint set k with everything the
    descent reads; `retract` is its only builder.

    The energy, the constraint values phi_i and their scales
    int |grad u_s|^p come from `retract`, from the Dirichlet term
    (`functional._dirichlet_form`) of each active part s u_s; that of u
    itself is their sum, since u = u_plus - u_minus.  At p = 2 the term
    is the stencil image K (s u_s), whose sum K u is the p-stiffness
    co-vector of u, so no gradient table and no scatter is made.  At
    other p it is the gradient table of s u_s with its squared norms,
    taken once; the residual E'(u), the constraint gradients and the two
    projections then take one p-stiffness scatter per distinct table:
    one on K1 and K2, where s u_s is u itself, three on K3 (u, u_plus,
    -u_minus).  All of them follow on first use, from powers of |u| taken
    once each (`functional._Powers`).  `plap.verify` measures E, E', phi_i
    and the scales again, with gradient tables and `**` at every p, and
    shares nothing with this state.

    In the inversion-odd class (`inversion_odd`: K3 of an odd f), u is
    odd under T u = -u(1 - x) bit for bit, so u_minus is u_plus reversed,
    and T keeps E and maps phi_1 onto phi_2.  Part 2's quantities are
    part 1's read through T: the same phi and scale, the part reversed,
    and its co-vector and constraint gradient reversed and negated.  Only
    part 1's are computed, so K3 takes two scatters (u, u_plus), and each
    projection one coefficient.
    """

    mesh: Mesh
    nl: Nonlinearity
    params: RunParameters
    u: np.ndarray
    forms: dict             # which -> Dirichlet term of s u_s
    form: tuple             # Dirichlet term of u
    energy: float
    phis: dict              # which -> phi_which(u)
    scales: dict            # which -> int |grad u_s|^p
    inversion_odd: bool     # part 2 is T of part 1

    @property
    def relative_residuals(self) -> tuple[float, ...]:
        """|phi_i| / int |grad u_s|^p per active constraint."""
        return tuple(abs(self.phis[w]) / s if s > 0.0 else float("inf")
                     for w, s in self.scales.items())

    @functools.cached_property
    def _calculus(self):
        """Residual E'(u), and per active constraint the part and grad phi."""
        mesh, params, u = self.mesh, self.params, self.u
        p, pstar, lam = params.p, params.pstar, params.lam
        pw = _Powers(u)
        f, fu = _source_derivatives(self.nl, pw)
        crit = pw.odd(pstar - 1.0)
        M = mesh.lumped_mass
        stiff = self.form.covector(mesh, params)
        residual = stiff - M * (crit + lam * f)
        residual[mesh.boundary] = 0.0
        # grad phi_s: p K(s u_s) less this term where s u > 0, else 0
        nodal = M * (pstar * crit + lam * (f + fu * u))
        parts, grads = {}, {}
        for which in (1,) if self.inversion_odd else self.forms:
            parts[which] = part = np.maximum(_sign(which) * u, 0.0)
            part_stiff = (stiff if len(self.forms) == 1
                          else self.forms[which].covector(mesh, params))
            grads[which] = np.where(part > 0.0, p * part_stiff - nodal, 0.0)
        if self.inversion_odd:
            parts[2], grads[2] = parts[1][::-1], -grads[1][::-1]
        return residual, parts, grads

    @property
    def residual(self) -> np.ndarray:
        """E'(u) as a nodal co-vector, zeroed on the boundary."""
        return self._calculus[0]

    def remove_multipliers(self, r: np.ndarray) -> np.ndarray:
        """The co-vector r less its constraint-normal components.

        The multipliers are fixed by pairing against the part directions
        that `tangent_project` removes, so the result pairs to zero with
        u_plus and/or u_minus.  Preconditioned, it gives a direction whose
        slope is a positive quadratic form, which certifies the Armijo
        decrease in the descent.  In the inversion-odd class the two
        multipliers are equal for an odd r, and part 1 gives them.
        """
        _, parts, grads = self._calculus
        if self.inversion_odd:
            c = _normal_coefficient(r, grads[1], parts[1])
            return r - c * (grads[1] + grads[2])
        for which in self.forms:
            r = _remove_normal(r, grads[which], parts[which])
        return r

    def tangent_project(self, v: np.ndarray) -> np.ndarray:
        """Project a direction v onto the tangent space of the active
        constraints at u, by removing multiples of u_plus and/or u_minus.
        In the inversion-odd class the multiple of u_minus is minus that
        of u_plus for an odd v, so the two combine to u_plus - u_minus = u,
        and an odd v stays odd bit for bit."""
        _, parts, grads = self._calculus
        if self.inversion_odd:
            return v - _normal_coefficient(v, parts[1], grads[1]) * self.u
        for which in self.forms:
            v = _remove_normal(v, parts[which], grads[which])
        return v


def retract(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
            u: np.ndarray, k: KIndex, tol_rel: float = 1e-10) -> _Iterate:
    """Map an arbitrary field back onto the constraint set of k.

    Each active part is clipped to its sign, zeroed on the boundary and
    scaled once onto its own constraint.  phi1 reads only the nodes where
    u > 0 and phi2 only those where u < 0, so on K3 the two scalings do
    not interact and one pass leaves both residuals within tol_rel.
    Returns the state of the retracted field sum_i t_i w_i; its `.u` is
    the field.  The parts have disjoint supports, so every nodal integral
    splits into t_i^e times a moment of w_i that the scaling already
    holds, and so does the Dirichlet term of t_i w_i; on K3 only the
    field's int |grad|^p reads the summed term.  Raises LostSignError when
    clipping removes a whole active part.

    On K3 of an odd f, a u odd under T u = -u(1 - x) bit for bit,
    u == -u[::-1], is in the inversion-odd class (`inversion_odd`).  Its
    negative part is T of its positive part, and T keeps E, so only the
    positive part is clipped and scaled: the negative part takes its
    root, A and term list, and the mirrored Dirichlet term.  The
    retracted field is odd bit for bit again.
    """
    u = _check_field(mesh, u)
    inversion_odd = k is KIndex.K3 and nl.odd and np.array_equal(u, -u[::-1])
    p = params.p
    out = np.zeros(mesh.n_vertices)
    forms, phis, scales = {}, {}, {}
    nodal = 0.0                 # (1/p*) int |out|^p* + lam int F(out)
    for which in (1,) if inversion_odd else k.active_constraints:
        s = _sign(which)
        # s u_s = max(u, 0) or min(u, 0), clipped in one pass
        clip = np.maximum if s > 0.0 else np.minimum
        w = apply_dirichlet(mesh, clip(u, 0.0))
        if not np.any(w):
            raise LostSignError(
                f"clipping removed the whole part of sign {s:+g}")
        res = scale_to_manifold(mesh, nl, params, w, tol_rel)
        t = res.t
        out += t * w
        forms[which] = res.form.scaled(t)
        scales[which] = t ** p * res.A
        # an underflowed coefficient has no term, as in fibering_root
        terms = [(e, c) for e, c in res.terms if c != 0.0]
        phis[which] = scales[which] - sum(c * t ** e for e, c in terms)
        nodal += sum(c * t ** e / e for e, c in terms)
    if inversion_odd:
        # the parts t w and T (t w) are disjoint, so this is exact
        out = out - out[::-1]
        forms[2] = forms[1].mirrored()
        scales[2], phis[2] = scales[1], phis[1]
        nodal += nodal
    if k is KIndex.K3:
        form = forms[1].plus(forms[2])
        grad = form.integral(mesh, params)
    else:
        (which, form), = forms.items()
        grad = scales[which]
    return _Iterate(mesh, nl, params, out, forms, form, grad / p - nodal,
                    phis, scales, inversion_odd)
