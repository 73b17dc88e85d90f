"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line with its measured values, then asserts,
so a plain pytest run shows the whole scoreboard.
"""

import time

import numpy as np
import pytest

from plap.cli import main
from plap.functional import (Nonlinearity, RunParameters, sobolev_constant,
                             sobolev_threshold)
from plap.mesh import apply_dirichlet, build_mesh, gradient_table, integrate
from plap.nehari import KIndex, scale_to_manifold
from plap.optimizer import solve_three
from plap.verify import check_energy_chain, measure

from conftest import (constraint_gradient, energy, energy_residual,
                      fibering_coefficients, fibering_upper_bound,
                      growth_constants, interior_bump, plus_minus_parts,
                      reference_config, tangent_project)

ROOT_UNIT = 0.7861513777574233
ROOT_QUAD = 0.48586827175664576


def _criterion(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_scaling_root_oracle():
    start = time.perf_counter()
    params = RunParameters(p=2.0, dim=3, lam=1.0, eps=0.0)
    nl = Nonlinearity(family="signed", q=4.0, r=4.0)
    mesh = build_mesh(3, 4)
    w = interior_bump(mesh)
    c = fibering_coefficients(mesh, nl, params, w)
    # normalize the field so its three scalars become 1, 1 and a chosen
    # coupling: the root solver then faces the synthetic cubic-in-t^2
    w = (c.A / c.B) ** (1.0 / (params.pstar - params.p)) * w
    c = fibering_coefficients(mesh, nl, params, w)
    roots = []
    for lam_c in (1.0, 4.0):
        lam = lam_c * c.A / (2.0 * c.C)
        scaled = RunParameters(p=2.0, dim=3, lam=lam, eps=0.0)
        roots.append(scale_to_manifold(mesh, nl, scaled, w).t)
    err1 = abs(roots[0] - ROOT_UNIT)
    err4 = abs(roots[1] - ROOT_QUAD)
    elapsed = time.perf_counter() - start
    _criterion(
        1, "scaling-root oracle",
        err1 <= 1e-9 and err4 <= 1e-9 and elapsed < 1.0,
        f"t={roots[0]:.12g} err={err1:.2e}; t4={roots[1]:.12g} "
        f"err={err4:.2e}; {elapsed:.2f}s",
    )


def test_criterion_2_bracket_law():
    start = time.perf_counter()
    params0 = RunParameters(p=1.5, dim=2, lam=1.0, eps=1e-8)
    nl = Nonlinearity(family="signed", q=3.0, r=3.0)
    mesh = build_mesh(2, 8)
    w = interior_bump(mesh, seed=0)
    c = fibering_coefficients(mesh, nl, params0, w)
    lams = [float(2**k) for k in range(9)]
    ts, ok_bracket = [], True
    for lam in lams:
        params = RunParameters(p=1.5, dim=2, lam=lam, eps=1e-8)
        t = scale_to_manifold(mesh, nl, params, w).t
        bound = fibering_upper_bound(c.A, growth_constants(nl).c3, lam, c.C,
                                     nl.q, params.p)
        ok_bracket = ok_bracket and t <= bound * (1 + 1e-12)
        ts.append(t)
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))
    decayed = ts[-1] < 0.1 * ts[0]
    elapsed = time.perf_counter() - start
    _criterion(
        2, "bracket law",
        ok_bracket and nonincreasing and decayed and elapsed < 10.0,
        f"t(1)={ts[0]:.4g} t(256)={ts[-1]:.4g} ratio={ts[-1] / ts[0]:.3g}; "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    cases = [
        ("p=2", RunParameters(p=2.0, dim=3, lam=50.0, eps=0.0),
         Nonlinearity(family="signed", q=4.0, r=4.0), 1e-6),
        ("p=1.5", RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8),
         Nonlinearity(family="signed", q=3.0, r=3.0), 1e-4),
    ]
    ok = True
    details = []
    for tag, params, nl, tol in cases:
        mesh = build_mesh(params.dim, 4)
        rng = np.random.default_rng(101)
        u = 0.5 * apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        r = energy_residual(mesh, nl, params, u)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            d = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
            d = d / np.linalg.norm(d)
            fd = (energy(mesh, nl, params, u + h * d)
                  - energy(mesh, nl, params, u - h * d)) / (2 * h)
            rel = abs(float(np.dot(r, d)) - fd) / max(abs(fd), 1e-300)
            worst = max(worst, rel)
        ok = ok and worst <= tol
        details.append(f"{tag}: max rel {worst:.2e} (tol {tol:.0e})")
    elapsed = time.perf_counter() - start
    _criterion(3, "gradient fidelity", ok and elapsed < 10.0,
               "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_4_constraint_identity(reference_run):
    config, mesh, triple = reference_run
    worst = max(rep.max_constraint_residual for rep in triple.reports)
    chain_ok = True
    for u, k in zip(triple.fields(), (KIndex.K1, KIndex.K2, KIndex.K3)):
        m = measure(mesh, config.nonlin, config.params, u)
        rep = check_energy_chain(m, config.nonlin.k2, config.params.p)
        chain_ok = chain_ok and m.kind is k and rep.passed
    _criterion(
        4, "constraint identity along iterates",
        worst <= 1e-9 and chain_ok,
        f"max relative residual over all accepted iterates {worst:.2e}; "
        f"energy chain {'ok' if chain_ok else 'violated'}",
    )


def test_criterion_5_tangent_decomposition(reference_run):
    start = time.perf_counter()
    config, mesh, triple = reference_run
    nl, params = config.nonlin, config.params
    u = triple.u3
    plus, minus = plus_minus_parts(u)
    g1 = constraint_gradient(mesh, nl, params, u, 1)
    g2 = constraint_gradient(mesh, nl, params, u, 2)
    rng = np.random.default_rng(7)
    worst_pair = 0.0
    worst_idem = 0.0
    for _ in range(5):
        v = rng.standard_normal(mesh.n_vertices)
        out = tangent_project(mesh, nl, params, u, v, KIndex.K3)
        for g in (g1, g2):
            rel = abs(float(np.dot(g, out)))
            rel /= np.linalg.norm(g) * np.linalg.norm(v)
            worst_pair = max(worst_pair, rel)
        again = tangent_project(mesh, nl, params, u, out, KIndex.K3)
        scale = np.max(np.abs(out))
        worst_idem = max(worst_idem, np.max(np.abs(again - out)) / scale)
    cross1 = float(np.dot(g1, minus))
    cross2 = float(np.dot(g2, plus))
    elapsed = time.perf_counter() - start
    _criterion(
        5, "tangent decomposition",
        worst_pair <= 1e-9 and worst_idem <= 1e-12
        and cross1 == 0.0 and cross2 == 0.0 and elapsed < 5.0,
        f"pairing {worst_pair:.2e}, idempotence {worst_idem:.2e}, "
        f"cross pairings {cross1!r}/{cross2!r}; {elapsed:.2f}s",
    )


def test_criterion_6_reference_triple():
    config = reference_config()
    mesh = build_mesh(config.params.dim, config.cells_per_side)
    start = time.perf_counter()
    triple = solve_three(config, mesh)
    elapsed = time.perf_counter() - start
    threshold = sobolev_threshold(config.params)

    signs = (np.all(triple.u1 >= 0.0) and np.all(triple.u2 <= 0.0)
             and np.any(triple.u3 > 0.0) and np.any(triple.u3 < 0.0))
    energies = [rep.energy for rep in triple.reports]
    below = all(e < threshold for e in energies)
    sym = np.max(np.abs(triple.u2 + triple.u1))
    sym_ok = sym <= 1e-6 * np.max(np.abs(triple.u1))
    residuals = [rep.projected_norm for rep in triple.reports]
    res_ok = all(r <= 1e-6 for r in residuals)
    conv = all(rep.converged and rep.error is None for rep in triple.reports)
    _criterion(
        6, "reference three-solution run",
        signs and below and sym_ok and res_ok and conv and elapsed < 300.0,
        f"energies {energies[0]:.6g}/{energies[1]:.6g}/{energies[2]:.6g} "
        f"< {threshold:.6g}; sym diff {sym:.2e}; "
        f"max projected residual {max(residuals):.2e}; {elapsed:.2f}s",
    )


def test_criterion_7_artifact_determinism(tmp_path):
    config_text = (
        "dim = 3\nres = 8\np = 2\nq = 4\nr = 4\nfamily = signed\n"
        "lambda = 50\ngrad-tol = 1e-7\nseed = 0\n"
    )
    digests = []
    names = ("u1.csv", "u2.csv", "u3.csv", "triple.json")
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(config_text + f"out-dir = {out}\n")
        code = main(["solve", "--config", str(cfg)])
        assert code == 0
        digests.append(tuple((out / n).read_bytes() for n in names))
    same = digests[0] == digests[1]
    sizes = [len(b) for b in digests[0]]
    _criterion(
        7, "artifact determinism",
        same,
        f"two runs byte-identical across {names}; sizes {sizes}",
    )


def test_criterion_8_discrete_embedding_floor():
    start = time.perf_counter()
    ok = True
    details = []
    for p, dim, m in ((2.0, 3, 6), (1.5, 2, 8)):
        pstar = dim * p / (dim - p)
        mesh = build_mesh(dim, m)
        rng = np.random.default_rng(0)
        worst = np.inf
        for _ in range(200):
            u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
            g = gradient_table(mesh, u)
            g2 = np.einsum("sd,sd->s", g, g)
            A = float(np.dot(np.full(mesh.n_simplices, mesh.volume),
                             g2 ** (p / 2.0)))
            B = integrate(mesh, np.abs(u) ** pstar)
            worst = min(worst, A / B ** (p / pstar))
        floor = 0.95 * sobolev_constant(p, dim)
        ok = ok and worst >= floor
        details.append(f"p={p},N={dim}: min {worst:.4g} >= {floor:.4g}")
    elapsed = time.perf_counter() - start
    _criterion(8, "discrete embedding floor", ok and elapsed < 30.0,
               "; ".join(details) + f"; {elapsed:.2f}s")
