import math
from dataclasses import replace

import numpy as np
import pytest

import plap.functional
import plap.nehari
import plap.optimizer
from plap.errors import ConfigurationError, LostSignError, NoRootError
from plap.functional import (Nonlinearity, RunParameters, energy,
                             sobolev_threshold)
from plap.mesh import LaplacePreconditioner, apply_dirichlet, build_mesh
from plap.nehari import (KIndex, constraint_phi, constraint_scale,
                         fibering_coefficients)
from plap.optimizer import (SolverConfig, descend, initial_point,
                            lambda_sweep, reference_bump, retract,
                            solve_three)
from plap.verify import check_membership

from conftest import _LUPreconditioner, coarse_config

P2 = RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8)
NL2 = Nonlinearity(family="signed", q=3.0, r=3.0)


class TestSolverConfig:
    def test_valid(self):
        coarse_config()

    @pytest.mark.parametrize("kwargs", [
        dict(grad_tol=0.0), dict(constraint_tol=-1e-9),
        dict(max_iters=0), dict(cells_per_side=1), dict(cells_per_side=3),
        dict(grad_tol=math.inf), dict(grad_tol=math.nan),
        dict(constraint_tol=math.inf), dict(constraint_tol=math.nan),
        dict(seed=-1),
    ])
    def test_invalid(self, kwargs):
        base = dict(params=P2, nonlin=NL2, cells_per_side=6)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            SolverConfig(**base)

    def test_nonlinearity_validated(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(params=P2,
                         nonlin=Nonlinearity(family="signed", q=7.0, r=3.0),
                         cells_per_side=6)


class TestInitialPoint:
    def test_nonnegative_start(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert np.all(u >= 0.0)
        assert np.any(u > 0.0)
        A = constraint_scale(mesh, P2, u, 1)
        assert abs(constraint_phi(mesh, NL2, P2, u, 1)) <= 1e-9 * A

    def test_nonpositive_start_mirrors(self):
        mesh = build_mesh(2, 8)
        u1 = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        u2 = initial_point(mesh, NL2, P2, KIndex.K2, seed=0)
        assert np.all(u2 <= 0.0)
        assert np.array_equal(u2, -u1)
        A = constraint_scale(mesh, P2, u2, 2)
        assert abs(constraint_phi(mesh, NL2, P2, u2, 2)) <= 1e-9 * A

    def test_sign_changing_start(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K3, seed=0)
        assert np.any(u > 0.0)
        assert np.any(u < 0.0)
        A = constraint_scale(mesh, P2, u, 1) + constraint_scale(mesh, P2, u, 2)
        assert abs(constraint_phi(mesh, NL2, P2, u, 1)) <= 1e-9 * A
        assert abs(constraint_phi(mesh, NL2, P2, u, 2)) <= 1e-9 * A

    def test_too_coarse_for_sign_changing(self):
        mesh = build_mesh(2, 3)
        with pytest.raises(ConfigurationError):
            initial_point(mesh, NL2, P2, KIndex.K3, seed=0)


class TestRetract:
    def test_fixed_point(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        out = retract(mesh, NL2, P2, u, KIndex.K1).u
        assert np.max(np.abs(out - u)) <= 1e-9 * np.max(np.abs(u))

    def test_recovers_scaled_member(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        out = retract(mesh, NL2, P2, 1.3 * u, KIndex.K1).u
        assert np.allclose(out, u, rtol=1e-8, atol=0)

    def test_clips_and_rescales(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        rng = np.random.default_rng(0)
        bent = u - 0.1 * np.max(u) * rng.random(mesh.n_vertices)
        bent = apply_dirichlet(mesh, bent)
        out = retract(mesh, NL2, P2, bent, KIndex.K1).u
        assert np.all(out >= 0.0)
        A = constraint_scale(mesh, P2, out, 1)
        assert abs(constraint_phi(mesh, NL2, P2, out, 1)) <= 1e-9 * A

    def test_lost_sign(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        with pytest.raises(LostSignError):
            retract(mesh, NL2, P2, -u, KIndex.K1).u

    def test_sign_changing_fixed_point(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K3, seed=0)
        out = retract(mesh, NL2, P2, u, KIndex.K3).u
        assert np.max(np.abs(out - u)) <= 1e-8 * np.max(np.abs(u))

    def test_sign_changing_scaled_recovery(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K3, seed=0)
        out = retract(mesh, NL2, P2, 0.7 * u, KIndex.K3).u
        A = (constraint_scale(mesh, P2, out, 1)
             + constraint_scale(mesh, P2, out, 2))
        assert abs(constraint_phi(mesh, NL2, P2, out, 1)) <= 1e-9 * A
        assert abs(constraint_phi(mesh, NL2, P2, out, 2)) <= 1e-9 * A


class TestPreconditioner:
    @pytest.mark.parametrize("dim, m", [(2, 6), (3, 5)])
    def test_norm_identities(self, dim, m):
        mesh = build_mesh(dim, m)
        P = LaplacePreconditioner(mesh)
        rng = np.random.default_rng(1)
        r = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        v = P.solve(r)
        assert np.all(v[mesh.boundary] == 0.0)
        quad = float(np.dot(r, v))
        assert np.isclose(P.dual_norm(r) ** 2, quad, rtol=1e-10, atol=0)
        assert np.isclose(P.norm(v) ** 2, quad, rtol=1e-10, atol=0)


class TestDescend:
    def test_monotone_convergent_run(self, coarse_run):
        config, mesh, triple = coarse_run
        for rep, u in zip(triple.reports, triple.fields()):
            assert rep.error is None
            assert rep.converged
            assert rep.projected_norm <= config.grad_tol
            hist = rep.energy_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            assert np.isclose(hist[-1], rep.energy, rtol=0, atol=0.0)
            assert rep.max_constraint_residual <= 1e-9
            kind = KIndex[rep.kind]
            check = check_membership(mesh, config.nonlin, config.params,
                                     u, kind)
            assert check.passed
            below = rep.energy < sobolev_threshold(config.params)
            assert rep.below_threshold == below

    def test_initial_energy_bounds_minimum(self, coarse_run):
        config, mesh, triple = coarse_run
        u0 = initial_point(mesh, config.nonlin, config.params, KIndex.K1,
                           config.seed)
        E0 = energy(mesh, config.nonlin, config.params, u0)
        assert triple.reports[0].energy <= E0 + 1e-15
        A = fibering_coefficients(mesh, config.nonlin, config.params, u0).A
        assert E0 <= A / config.params.p

    @pytest.mark.parametrize("k, scatters_per_pass",
                             [(KIndex.K1, 1), (KIndex.K3, 3)])
    def test_kernel_call_budget(self, monkeypatch, k, scatters_per_pass):
        # one gradient table per active part per retract trial, the
        # retraction of the start included; p-stiffness scatters per pass:
        # u alone on K1, u, u_plus and u_minus on K3
        config = SolverConfig(params=P2, nonlin=NL2, cells_per_side=8,
                              grad_tol=1e-6, max_iters=200)
        mesh = build_mesh(2, config.cells_per_side)
        u0 = initial_point(mesh, NL2, P2, k, config.seed)
        counts = {"gradient_table": 0, "p_stiffness_vector": 0, "trials": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("gradient_table", "p_stiffness_vector"):
            for mod in (plap.nehari, plap.functional, plap.optimizer):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted(name, getattr(mod, name)))
        monkeypatch.setattr(plap.optimizer, "retract",
                            counted("trials", plap.optimizer.retract))
        _, rep = descend(mesh, config, k, u0)
        assert rep.error is None and rep.iterations > 0
        parts = len(k.active_constraints)
        passes = rep.iterations + 1
        assert counts["trials"] >= rep.iterations
        assert counts["gradient_table"] <= parts * counts["trials"]
        assert counts["p_stiffness_vector"] <= scatters_per_pass * passes

    @pytest.mark.parametrize("params, nl, m, k", [
        (P2, NL2, 8, KIndex.K1),
        (P2, NL2, 8, KIndex.K3),
        (RunParameters(p=2.0, dim=3, lam=50.0, eps=1e-8),
         Nonlinearity(family="signed", q=4.0, r=4.0), 4, KIndex.K1),
    ])
    def test_descent_does_not_depend_on_the_metric_solve(self, params, nl,
                                                         m, k):
        # the sine-transform solve against the LU factor of the stiffness
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=m,
                              grad_tol=1e-6, max_iters=200)
        mesh = build_mesh(params.dim, m)
        u0 = initial_point(mesh, nl, params, k, config.seed)
        u_lu, lu = descend(mesh, config, k, u0, _LUPreconditioner(mesh))
        u, rep = descend(mesh, config, k, u0, LaplacePreconditioner(mesh))
        assert rep.error is None and lu.error is None
        assert rep.iterations == lu.iterations > 0
        assert len(rep.energy_history) == len(lu.energy_history)
        for got, want in zip(rep.energy_history, lu.energy_history):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert np.max(np.abs(u - u_lu)) <= 1e-10 * np.max(np.abs(u_lu))

    def test_descend_retracts_its_start(self):
        config = coarse_config()
        nl, params = config.nonlin, config.params
        mesh = build_mesh(2, config.cells_per_side)
        u0 = initial_point(mesh, nl, params, KIndex.K1, 0)
        u, rep = descend(mesh, config, KIndex.K1, 1.3 * u0)
        assert rep.converged
        assert np.all(u >= 0.0)
        E0 = energy(mesh, nl, params, retract(mesh, nl, params, 1.3 * u0,
                                              KIndex.K1).u)
        assert abs(rep.energy_history[0] - E0) <= 1e-12 * abs(E0)

    def test_every_retraction_goes_through_retract(self, monkeypatch):
        # the start and every trial step are retracted by the public
        # `retract`; a trial that loses its sign raises out of it and is
        # backtracked
        config = coarse_config()
        nl, params = config.nonlin, config.params
        mesh = build_mesh(2, config.cells_per_side)
        u0 = initial_point(mesh, nl, params, KIndex.K1, 0)
        retract_state = plap.optimizer.retract
        calls, lost = [], []

        def counted(mesh, nl, params, u, k, tol_rel):
            calls.append(k)
            if len(calls) == 2:
                # the first trial step, moved off the sign of K1
                u = -np.abs(u)
            try:
                return retract_state(mesh, nl, params, u, k, tol_rel)
            except LostSignError as exc:
                lost.append(exc)
                raise

        monkeypatch.setattr(plap.optimizer, "retract", counted)
        _, rep = descend(mesh, config, KIndex.K1, u0)
        assert rep.converged and rep.error is None
        assert len(calls) >= len(rep.energy_history) > 1
        assert len(lost) == 1

    def test_stalled_descent_returns_its_last_iterate(self):
        # p < 2 on a coarse mesh: the K3 line search stalls before the cap
        config = SolverConfig(
            params=RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8),
            nonlin=Nonlinearity(family="signed", q=2.5, r=2.5),
            cells_per_side=5, grad_tol=1e-6, max_iters=300)
        mesh = build_mesh(2, config.cells_per_side)
        triple = solve_three(config, mesh)
        rep = triple.reports[2]
        assert rep.error is not None and not rep.converged
        assert 0 < rep.iterations < config.max_iters
        assert rep.energy_history[-1] == rep.energy
        assert np.isfinite(rep.max_constraint_residual)
        E3 = energy(mesh, config.nonlin, config.params, triple.u3)
        assert abs(E3 - rep.energy) <= 1e-12 * abs(rep.energy)

    @pytest.mark.parametrize("exc, error", [
        (NoRootError("forced"), "forced"),
        (LostSignError("forced"),
         "every trial step clipped away a required part"),
    ])
    def test_failed_trial_returns_last_iterate(self, monkeypatch, exc, error):
        config = coarse_config()
        nl, params = config.nonlin, config.params
        mesh = build_mesh(2, config.cells_per_side)
        u0 = initial_point(mesh, nl, params, KIndex.K1, 0)
        retract_state = plap.optimizer.retract
        calls = []

        def failing(*args):
            # the start and three trials retract, every later trial fails
            calls.append(args)
            if len(calls) > 4:
                raise exc
            return retract_state(*args)

        monkeypatch.setattr(plap.optimizer, "retract", failing)
        u, rep = descend(mesh, config, KIndex.K1, u0)
        assert rep.error == error and not rep.converged
        assert rep.iterations == len(rep.energy_history) - 1 > 0
        assert rep.energy_history[-1] == rep.energy
        assert abs(energy(mesh, nl, params, u) - rep.energy) <= (
            1e-12 * abs(rep.energy))


class TestSolveThree:
    def test_sign_structure_and_distinctness(self, coarse_run):
        _, _, triple = coarse_run
        assert np.all(triple.u1 >= 0.0)
        assert np.all(triple.u2 <= 0.0)
        assert np.any(triple.u3 > 0.0)
        assert np.any(triple.u3 < 0.0)
        triple.validate_distinct()

    def test_odd_family_negation_symmetry(self, coarse_run):
        _, _, triple = coarse_run
        assert np.array_equal(triple.u2, -triple.u1)

    def test_failed_initial_point_reports_every_constraint(self,
                                                           monkeypatch):
        shape = plap.optimizer._initial_shape

        def one_signed(mesh, k, seed):
            # retracting onto K3 clips away the missing negative part
            if k is KIndex.K3:
                return np.abs(shape(mesh, k, seed))
            return shape(mesh, k, seed)

        monkeypatch.setattr(plap.optimizer, "_initial_shape", one_signed)
        rep = solve_three(coarse_config()).reports[2]
        assert rep.error.startswith("initial point failed")
        assert len(rep.constraint_residuals) == 2
        assert all(np.isnan(x) for x in rep.constraint_residuals)

    def test_deterministic_rerun(self, coarse_run):
        config, mesh, triple = coarse_run
        again = solve_three(config, mesh)
        for a, b in zip(triple.fields(), again.fields()):
            assert np.array_equal(a, b)
        assert triple.reports == again.reports


class TestLambdaSweep:
    def test_rows_and_monotone_scaling(self):
        config = coarse_config()
        rows = lambda_sweep(config, [1.0, 2.0, 4.0])
        assert len(rows) == 3
        assert [row.lam for row in rows] == [1.0, 2.0, 4.0]
        ts = [row.t_lambda for row in rows]
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))
        mesh = build_mesh(2, config.cells_per_side)
        w = reference_bump(mesh, config.seed)
        for row in rows:
            params = RunParameters(p=P2.p, dim=2, lam=row.lam, eps=P2.eps)
            c = fibering_coefficients(mesh, config.nonlin, params, w)
            bound = (c.A / (config.nonlin.c3 * row.lam * c.C)) ** (
                1.0 / (config.nonlin.q - params.p))
            assert row.t_lambda <= bound * (1 + 1e-12)
            for e in (row.c1, row.c2, row.c3):
                assert np.isfinite(e)

    def test_unconverged_descents_give_no_level(self):
        # three iterations reach no critical point on any constraint set
        config = replace(coarse_config(), max_iters=3)
        rows = lambda_sweep(config, [1.0, 2.0])
        for row in rows:
            assert np.isfinite(row.t_lambda)
            for c in (row.c1, row.c2, row.c3):
                assert np.isnan(c)
            assert (row.threshold1, row.threshold2,
                    row.threshold3) == (None, None, None)

    @pytest.mark.parametrize("lams", [[], [2.0, 1.0], [-1.0], [1.0, 1.0],
                                      [1.0, math.inf], [math.nan]])
    def test_bad_lists(self, lams):
        with pytest.raises(ConfigurationError):
            lambda_sweep(coarse_config(), lams)
