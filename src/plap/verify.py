"""Independent acceptance checks for solver outputs.

Each check re-measures its quantities from the field and the mesh alone,
so a triple written to disk can be validated without trusting anything
the solver reported about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functional import (
    Nonlinearity,
    RunParameters,
    energy,
    energy_residual,
    nonlin_eval,
    plus_minus_parts,
)
from .mesh import LaplacePreconditioner, Mesh, integrate
from .nehari import KIndex, constraint_phi, constraint_scale

__all__ = [
    "CheckReport",
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


def infer_kind(u: np.ndarray) -> KIndex:
    """Classify a field by nodal sign: nonnegative -> K1, nonpositive -> K2,
    mixed -> K3.  The zero field lands in K1 and fails nontriviality."""
    if np.min(u) >= 0.0:
        return KIndex.K1
    if np.max(u) <= 0.0:
        return KIndex.K2
    return KIndex.K3


def check_membership(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                     u: np.ndarray, k: KIndex,
                     tol_rel: float = 1e-9) -> CheckReport:
    """Sign condition, nontrivial part mass, and constraint residual(s)."""
    u = np.asarray(u, dtype=float)
    plus, minus = plus_minus_parts(u)
    measured: dict = {}
    ok = True

    if k is KIndex.K1 and np.min(u) < 0.0:
        ok = False
    if k is KIndex.K2 and np.max(u) > 0.0:
        ok = False
    measured["min"] = float(np.min(u))
    measured["max"] = float(np.max(u))

    for which in k.active_constraints:
        part = plus if which == 1 else minus
        mass = integrate(mesh, part)
        measured[f"mass{which}"] = mass
        if not (mass > 0.0):
            ok = False
            continue
        resid = abs(constraint_phi(mesh, nl, params, u, which))
        scale = constraint_scale(mesh, params, u, which)
        rel = resid / scale if scale > 0.0 else float("inf")
        measured[f"phi{which}_rel"] = rel
        if not (rel <= tol_rel):
            ok = False

    return CheckReport("membership", ok, tol_rel, measured, k.name)


def check_energy_chain(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                       u: np.ndarray, k: KIndex,
                       tol_rel: float = 1e-9) -> CheckReport:
    """Three facts tied together by the active constraints:

    (a) sum of part gradient integrals = int |u|^p* + lam int f(u) u,
    (b) the energy is strictly positive,
    (c) the energy is at most (1/k2 + 1/p) int |grad u|^p.
    """
    u = np.asarray(u, dtype=float)
    grad_parts = sum(constraint_scale(mesh, params, u, which)
                     for which in k.active_constraints)
    f, _, _ = nonlin_eval(nl, u)
    rhs = integrate(mesh, np.abs(u) ** params.pstar) \
        + params.lam * integrate(mesh, f * u)
    identity_rel = abs(grad_parts - rhs) / grad_parts if grad_parts > 0 \
        else float("inf")

    E = energy(mesh, nl, params, u)
    grad_full = sum(constraint_scale(mesh, params, u, which)
                    for which in (1, 2))
    bound = (1.0 / nl.k2 + 1.0 / params.p) * grad_full

    ok = identity_rel <= tol_rel and E > 0.0 and E <= bound
    measured = {
        "identity_rel": identity_rel,
        "energy": E,
        "upper_bound": bound,
    }
    return CheckReport("energy_chain", ok, tol_rel, measured, k.name)


def check_sign_structure(mesh: Mesh, triple_fields) -> CheckReport:
    """First field nonnegative, second nonpositive, third genuinely
    sign-changing; all with nontrivial mass in the required parts."""
    u1, u2, u3 = [np.asarray(u, dtype=float) for u in triple_fields]
    p1, _ = plus_minus_parts(u1)
    _, m2 = plus_minus_parts(u2)
    p3, m3 = plus_minus_parts(u3)
    measured = {
        "u1_min": float(np.min(u1)),
        "u2_max": float(np.max(u2)),
        "u3_mass_plus": integrate(mesh, p3),
        "u3_mass_minus": integrate(mesh, m3),
    }
    ok = (np.min(u1) >= 0.0 and integrate(mesh, p1) > 0.0
          and np.max(u2) <= 0.0 and integrate(mesh, m2) > 0.0
          and measured["u3_mass_plus"] > 0.0
          and measured["u3_mass_minus"] > 0.0)
    return CheckReport("sign_structure", ok, 0.0, measured)


def check_euler_lagrange(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                         u: np.ndarray, tol: float,
                         precond: LaplacePreconditioner | None = None
                         ) -> CheckReport:
    """Preconditioned dual norm of the full energy gradient at u.

    The zero field passes on the residual but is flagged trivial in the
    measured data, so it cannot slip through a suite that also runs the
    membership check.
    """
    u = np.asarray(u, dtype=float)
    P = precond if precond is not None else LaplacePreconditioner(mesh)
    norm = P.dual_norm(energy_residual(mesh, nl, params, u))
    grad = sum(constraint_scale(mesh, params, u, which) for which in (1, 2))
    measured = {"residual_norm": norm, "gradient_integral": grad,
                "trivial": float(grad == 0.0)}
    return CheckReport("euler_lagrange", norm <= tol, tol, measured)


def verify_fields(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                  fields, residual_tol: float = 1e-6) -> list[CheckReport]:
    """Run the full suite on one or more fields.

    Exactly three fields are checked as K1, K2, K3 in that order, and
    the triple-level sign-structure check runs as well; any other number
    of fields is classified by sign.
    """
    fields = [np.asarray(u, dtype=float) for u in fields]
    if len(fields) == 3:
        kinds = [KIndex.K1, KIndex.K2, KIndex.K3]
    else:
        kinds = [infer_kind(u) for u in fields]
    P = LaplacePreconditioner(mesh)
    reports = []
    for idx, (u, k) in enumerate(zip(fields, kinds), start=1):
        mem = check_membership(mesh, nl, params, u, k)
        chain = check_energy_chain(mesh, nl, params, u, k)
        euler = check_euler_lagrange(mesh, nl, params, u, residual_tol, P)
        for rep in (mem, chain, euler):
            reports.append(CheckReport(f"u{idx}_{rep.name}", rep.passed,
                                       rep.tolerance, rep.measured,
                                       rep.detail))
    if len(fields) == 3:
        reports.append(check_sign_structure(mesh, fields))
    return reports
