"""Independent acceptance checks for solver outputs.

Each field is measured from the field and the mesh alone (`measure`),
so a triple written to disk can be validated without trusting anything
the solver reported about it; the checks read that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .functional import (
    Nonlinearity,
    RunParameters,
    _p_dirichlet,
    _squared_norms,
    nonlin_eval,
    p_stiffness_vector,
)
from .mesh import (
    LaplacePreconditioner,
    Mesh,
    _check_field,
    gradient_table,
    integrate,
)
from .nehari import KIndex, _sign

__all__ = [
    "CheckReport",
    "Measures",
    "measure",
    "check_membership",
    "check_energy_chain",
    "check_sign_structure",
    "check_euler_lagrange",
    "verify_fields",
    "infer_kind",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    tolerance: float
    measured: dict = field(default_factory=dict)
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{self.name}: {status}"]
        if self.detail:
            parts.append(self.detail)
        meas = ", ".join(f"{k}={v:.6g}" for k, v in self.measured.items())
        if meas:
            parts.append(meas)
        return "  ".join(parts)


@dataclass(frozen=True, eq=False)
class Measures:
    """What the checks read of one field u.  The dicts hold both parts
    u_s = max(s u, 0), keyed as the constraints are: which = 1 for
    s = +1, which = 2 for s = -1."""

    u: np.ndarray
    kind: KIndex            # the set of u's sign structure, `infer_kind`
    masses: dict            # which -> int u_s
    scales: dict            # which -> int |grad u_s|^p
    phis: dict              # which -> phi_which(u)
    moment: float           # int |u|^p* + lam int f(u) u
    energy: float
    residual: np.ndarray    # E'(u), zeroed on the boundary


def measure(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
            u: np.ndarray) -> Measures:
    """The record of u: its kind by sign, and from one gradient table per
    distinct input and one `nonlin_eval` the part quantities, the moment,
    E and E'.

    A one-signed u has one nonzero part, s u itself, whose table is that
    of u negated (the same squared norms), and a zero part, whose
    int |grad|^p is 0; so only a sign-changing u takes a table per part.
    E is the energy of `plap.functional`, and E' the p-stiffness
    co-vector of u's table (`p_stiffness_vector`, whose eps-regularized
    weight makes it the exact gradient only at eps = 0) less the nodal
    terms, zeroed on the boundary.
    """
    u = _check_field(mesh, u)
    kind = infer_kind(u)
    p, pstar, lam = params.p, params.pstar, params.lam
    table = gradient_table(mesh, u)
    sq_norms = _squared_norms(table)
    grad = _p_dirichlet(mesh, sq_norms, p)
    f, F, _ = nonlin_eval(nl, u)
    masses, scales, phis = {}, {}, {}
    for which in (1, 2):
        s = _sign(which)
        part = np.maximum(s * u, 0.0)
        masses[which] = integrate(mesh, part)
        if kind is KIndex.K3:
            scales[which] = _p_dirichlet(
                mesh, _squared_norms(gradient_table(mesh, part)), p)
        else:
            scales[which] = grad if which in kind.active_constraints else 0.0
        phis[which] = (scales[which]
                       - integrate(mesh, part ** pstar)
                       - s * lam * integrate(mesh, f * part))
    critical = integrate(mesh, np.abs(u) ** pstar)
    moment = critical + lam * integrate(mesh, f * u)
    E = grad / p - critical / pstar - lam * integrate(mesh, F)
    residual = p_stiffness_vector(mesh, table, p, params.eps,
                                  sq_norms=sq_norms)
    residual -= mesh.lumped_mass * (np.sign(u) * np.abs(u) ** (pstar - 1.0)
                                    + lam * f)
    residual[mesh.boundary] = 0.0
    return Measures(u, kind, masses, scales, phis, moment, E, residual)


def _negated(m: Measures, u: np.ndarray) -> Measures:
    """The record of u = -m.u for an odd f, read from m: E(-u) = E(u) and
    E'(-u) = -E'(u), so the energy and the moment stay, the residual
    changes sign, and the parts swap, phi_1(-u) = phi_2(u) among them.
    Every entry is the one `measure` gives, bit for bit: each is a sum of
    the same terms, some of them negated (0 - x keeps the residual's
    zeroed boundary +0, as -x would not)."""
    def swap(d):
        return {1: d[2], 2: d[1]}
    return Measures(u, infer_kind(u), swap(m.masses), swap(m.scales),
                    swap(m.phis), m.moment, m.energy, 0.0 - m.residual)


def infer_kind(u: np.ndarray) -> KIndex:
    """Classify a field by nodal sign: nonnegative -> K1, nonpositive -> K2,
    mixed -> K3.  The zero field lands in K1 and fails nontriviality."""
    if np.min(u) >= 0.0:
        return KIndex.K1
    if np.max(u) <= 0.0:
        return KIndex.K2
    return KIndex.K3


def check_membership(m: Measures, k: KIndex,
                     tol_rel: float = 1e-9) -> CheckReport:
    """Sign condition (u has the sign structure of k), nontrivial part
    mass, and constraint residual(s) relative to the part's gradient
    integral."""
    measured = {"min": float(np.min(m.u)), "max": float(np.max(m.u))}
    ok = m.kind is k

    for which in k.active_constraints:
        mass = m.masses[which]
        measured[f"mass{which}"] = mass
        if not (mass > 0.0):
            ok = False
            continue
        scale = m.scales[which]
        rel = abs(m.phis[which]) / scale if scale > 0.0 else float("inf")
        measured[f"phi{which}_rel"] = rel
        if not (rel <= tol_rel):
            ok = False

    return CheckReport("membership", ok, tol_rel, measured, k.name)


def check_energy_chain(m: Measures, k: KIndex, k2: float, p: float,
                       tol_rel: float = 1e-9) -> CheckReport:
    """Three facts tied together by the active constraints:

    (a) sum of part gradient integrals = int |u|^p* + lam int f(u) u,
    (b) the energy is strictly positive,
    (c) the energy is at most (1/k2 + 1/p) int |grad u|^p.
    """
    grad_parts = sum(m.scales[which] for which in k.active_constraints)
    identity_rel = abs(grad_parts - m.moment) / grad_parts if grad_parts > 0 \
        else float("inf")

    E = m.energy
    grad_full = sum(m.scales[which] for which in (1, 2))
    bound = (1.0 / k2 + 1.0 / p) * grad_full

    ok = identity_rel <= tol_rel and E > 0.0 and E <= bound
    measured = {"identity_rel": identity_rel, "energy": E,
                "upper_bound": bound}
    return CheckReport("energy_chain", ok, tol_rel, measured, k.name)


def check_sign_structure(records) -> CheckReport:
    """One field of each kind, in any order: a nonnegative, a nonpositive
    and a sign-changing one (`Measures.kind`), each with nontrivial mass
    in every part its set requires."""
    measured = {f"u{i}_mass{which}": m.masses[which]
                for i, m in enumerate(records, start=1)
                for which in m.kind.active_constraints}
    ok = (sorted(m.kind.value for m in records) == [1, 2, 3]
          and all(mass > 0.0 for mass in measured.values()))
    return CheckReport("sign_structure", ok, 0.0, measured)


def check_euler_lagrange(m: Measures, tol: float,
                         precond: LaplacePreconditioner) -> CheckReport:
    """Preconditioned dual norm of the full energy gradient at u.

    The zero field passes on the residual but is flagged trivial in the
    measured data, so it cannot slip through a suite that also runs the
    membership check.
    """
    norm = precond.dual_norm(m.residual)
    grad = sum(m.scales[which] for which in (1, 2))
    measured = {"residual_norm": norm, "gradient_integral": grad,
                "trivial": float(grad == 0.0)}
    return CheckReport("euler_lagrange", norm <= tol, tol, measured)


def verify_fields(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                  fields, residual_tol: float = 1e-6) -> list[CheckReport]:
    """Run the full suite on one or more fields, in any order.

    Each field is measured once and checked on the set its sign gives
    (`Measures.kind`).  For an odd f, a field that is the negation of one
    measured before it (the u2 = 0 - u1 of every solve) takes that
    record, negated (`_negated`).  Three fields also get the triple-level
    sign-structure check, which asks for one field of each kind.
    """
    P = LaplacePreconditioner(mesh)
    records = []
    for u in fields:
        u = np.asarray(u, dtype=float)
        seen = next((m for m in records
                     if nl.odd and np.array_equal(u, -m.u)), None)
        records.append(measure(mesh, nl, params, u) if seen is None
                       else _negated(seen, u))
    reports = []
    for idx, m in enumerate(records, start=1):
        for rep in (check_membership(m, m.kind),
                    check_energy_chain(m, m.kind, nl.k2, params.p),
                    check_euler_lagrange(m, residual_tol, P)):
            reports.append(replace(rep, name=f"u{idx}_{rep.name}"))
    if len(records) == 3:
        reports.append(check_sign_structure(records))
    return reports
