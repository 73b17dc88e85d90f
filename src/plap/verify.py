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
)
from .mesh import LaplacePreconditioner, Mesh, integrate
from .nehari import KIndex, _sign, constraint_phi, constraint_scale

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


def _part_mass(mesh: Mesh, u: np.ndarray, which: int) -> float:
    """int u_s, the mass of the part of u of the sign s of phi_which."""
    return integrate(mesh, np.maximum(_sign(which) * u, 0.0))


def infer_kind(u: np.ndarray) -> KIndex:
    """Classify a field by nodal sign: nonnegative -> K1, nonpositive -> K2,
    mixed -> K3.  The zero field lands in K1 and fails nontriviality."""
    if np.min(u) >= 0.0:
        return KIndex.K1
    if np.max(u) <= 0.0:
        return KIndex.K2
    return KIndex.K3


def _part_scales(mesh: Mesh, params: RunParameters, u: np.ndarray,
                 scales: dict | None) -> dict:
    """int |grad u_s|^p of both parts, from `scales` when given."""
    if scales is not None:
        return scales
    return {which: constraint_scale(mesh, params, u, which)
            for which in (1, 2)}


def check_membership(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                     u: np.ndarray, k: KIndex, tol_rel: float = 1e-9,
                     scales: dict | None = None) -> CheckReport:
    """Sign condition (u has the sign structure of k), nontrivial part
    mass, and constraint residual(s).

    Like the other field checks, it takes the part gradient integrals
    {1: int |grad u_plus|^p, 2: int |grad u_minus|^p} of u as `scales`
    when a caller has them, and measures them otherwise.
    """
    u = np.asarray(u, dtype=float)
    scales = _part_scales(mesh, params, u, scales)
    measured = {"min": float(np.min(u)), "max": float(np.max(u))}
    ok = infer_kind(u) is k

    for which in k.active_constraints:
        mass = _part_mass(mesh, u, which)
        measured[f"mass{which}"] = mass
        if not (mass > 0.0):
            ok = False
            continue
        resid = abs(constraint_phi(mesh, nl, params, u, which))
        scale = scales[which]
        rel = resid / scale if scale > 0.0 else float("inf")
        measured[f"phi{which}_rel"] = rel
        if not (rel <= tol_rel):
            ok = False

    return CheckReport("membership", ok, tol_rel, measured, k.name)


def check_energy_chain(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                       u: np.ndarray, k: KIndex, tol_rel: float = 1e-9,
                       scales: dict | None = None) -> CheckReport:
    """Three facts tied together by the active constraints:

    (a) sum of part gradient integrals = int |u|^p* + lam int f(u) u,
    (b) the energy is strictly positive,
    (c) the energy is at most (1/k2 + 1/p) int |grad u|^p.
    """
    u = np.asarray(u, dtype=float)
    scales = _part_scales(mesh, params, u, scales)
    grad_parts = sum(scales[which] for which in k.active_constraints)
    f, _, _ = nonlin_eval(nl, u)
    rhs = integrate(mesh, np.abs(u) ** params.pstar) \
        + params.lam * integrate(mesh, f * u)
    identity_rel = abs(grad_parts - rhs) / grad_parts if grad_parts > 0 \
        else float("inf")

    E = energy(mesh, nl, params, u)
    grad_full = sum(scales[which] for which in (1, 2))
    bound = (1.0 / nl.k2 + 1.0 / params.p) * grad_full

    ok = identity_rel <= tol_rel and E > 0.0 and E <= bound
    measured = {
        "identity_rel": identity_rel,
        "energy": E,
        "upper_bound": bound,
    }
    return CheckReport("energy_chain", ok, tol_rel, measured, k.name)


def check_sign_structure(mesh: Mesh, triple_fields) -> CheckReport:
    """One field of each kind, in any order: a nonnegative, a nonpositive
    and a sign-changing one (`infer_kind`), each with nontrivial mass in
    every part its set requires."""
    fields = [np.asarray(u, dtype=float) for u in triple_fields]
    kinds = [infer_kind(u) for u in fields]
    measured = {f"u{i}_mass{which}": _part_mass(mesh, u, which)
                for i, (u, k) in enumerate(zip(fields, kinds), start=1)
                for which in k.active_constraints}
    ok = (sorted(k.value for k in kinds) == [1, 2, 3]
          and all(mass > 0.0 for mass in measured.values()))
    return CheckReport("sign_structure", ok, 0.0, measured)


def check_euler_lagrange(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                         u: np.ndarray, tol: float,
                         precond: LaplacePreconditioner | None = None,
                         scales: dict | None = None) -> CheckReport:
    """Preconditioned dual norm of the full energy gradient at u.

    The zero field passes on the residual but is flagged trivial in the
    measured data, so it cannot slip through a suite that also runs the
    membership check.
    """
    u = np.asarray(u, dtype=float)
    P = precond if precond is not None else LaplacePreconditioner(mesh)
    norm = P.dual_norm(energy_residual(mesh, nl, params, u))
    scales = _part_scales(mesh, params, u, scales)
    grad = sum(scales[which] for which in (1, 2))
    measured = {"residual_norm": norm, "gradient_integral": grad,
                "trivial": float(grad == 0.0)}
    return CheckReport("euler_lagrange", norm <= tol, tol, measured)


def verify_fields(mesh: Mesh, nl: Nonlinearity, params: RunParameters,
                  fields, residual_tol: float = 1e-6) -> list[CheckReport]:
    """Run the full suite on one or more fields, in any order.

    Each field is checked on the set its sign gives (`infer_kind`), with
    its two part gradient integrals measured once and shared by the
    checks.  Three fields also get the triple-level sign-structure check,
    which asks for one field of each kind.
    """
    fields = [np.asarray(u, dtype=float) for u in fields]
    P = LaplacePreconditioner(mesh)
    reports = []
    for idx, u in enumerate(fields, start=1):
        k = infer_kind(u)
        scales = _part_scales(mesh, params, u, None)
        mem = check_membership(mesh, nl, params, u, k, scales=scales)
        chain = check_energy_chain(mesh, nl, params, u, k, scales=scales)
        euler = check_euler_lagrange(mesh, nl, params, u, residual_tol, P,
                                     scales)
        for rep in (mem, chain, euler):
            reports.append(CheckReport(f"u{idx}_{rep.name}", rep.passed,
                                       rep.tolerance, rep.measured,
                                       rep.detail))
    if len(fields) == 3:
        reports.append(check_sign_structure(mesh, fields))
    return reports
