import itertools

import numpy as np
import pytest

from plap.functional import Nonlinearity, RunParameters
from plap.mesh import LaplacePreconditioner, apply_dirichlet, build_mesh
from plap.nehari import KIndex
from plap.optimizer import initial_point
from plap.verify import (check_energy_chain, check_euler_lagrange,
                         check_membership, check_sign_structure, infer_kind,
                         verify_fields)

P2 = RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8)
NL2 = Nonlinearity(family="signed", q=3.0, r=3.0)


def test_kind_inference():
    assert infer_kind(np.array([0.0, 1.0])) is KIndex.K1
    assert infer_kind(np.array([0.0, -1.0])) is KIndex.K2
    assert infer_kind(np.array([1.0, -1.0])) is KIndex.K3
    assert infer_kind(np.zeros(3)) is KIndex.K1


class TestMembership:
    def test_constructed_member_passes(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert check_membership(mesh, NL2, P2, u, KIndex.K1).passed

    def test_zero_field_fails(self):
        mesh = build_mesh(2, 8)
        rep = check_membership(mesh, NL2, P2, np.zeros(mesh.n_vertices),
                               KIndex.K1)
        assert not rep.passed

    def test_rescaled_member_fails_on_residual(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert not check_membership(mesh, NL2, P2, 1.1 * u, KIndex.K1).passed

    def test_wrong_sign_fails(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert not check_membership(mesh, NL2, P2, -u, KIndex.K1).passed


class TestEnergyChain:
    def test_seed_battery_on_members(self):
        mesh = build_mesh(2, 8)
        for seed in range(10):
            for k in (KIndex.K1, KIndex.K2, KIndex.K3):
                u = initial_point(mesh, NL2, P2, k, seed=seed)
                rep = check_energy_chain(mesh, NL2, P2, u, k)
                assert rep.passed
                assert rep.measured["energy"] > 0.0

    def test_off_constraint_field_fails_identity(self):
        mesh = build_mesh(2, 8)
        u = 1.2 * initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert not check_energy_chain(mesh, NL2, P2, u, KIndex.K1).passed

    def test_reference_triple(self, reference_run):
        config, mesh, triple = reference_run
        kinds = (KIndex.K1, KIndex.K2, KIndex.K3)
        for u, k in zip(triple.fields(), kinds):
            rep = check_energy_chain(mesh, config.nonlin, config.params, u, k)
            assert rep.passed


class TestSignStructure:
    def test_valid_triple(self, coarse_run):
        _, mesh, triple = coarse_run
        assert check_sign_structure(mesh, triple.fields()).passed

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_valid_triple_in_any_order(self, coarse_run, order):
        _, mesh, triple = coarse_run
        fields = triple.fields()
        rep = check_sign_structure(mesh, [fields[i] for i in order])
        assert rep.passed

    @pytest.mark.parametrize("order", [(2, 0, 2), (1, 2, 3)])
    def test_permuted_degenerate_triple(self, coarse_run, order):
        _, mesh, triple = coarse_run
        fields = (*triple.fields(), np.zeros(mesh.n_vertices))
        rep = check_sign_structure(mesh, [fields[i] for i in order])
        assert not rep.passed

    def test_missing_negative_part(self, coarse_run):
        _, mesh, triple = coarse_run
        rep = check_sign_structure(mesh, (triple.u1, triple.u2, triple.u1))
        assert not rep.passed

    def test_trivial_first_field(self, coarse_run):
        _, mesh, triple = coarse_run
        zero = np.zeros(mesh.n_vertices)
        assert not check_sign_structure(mesh, (zero, triple.u2,
                                               triple.u3)).passed


class TestEulerLagrange:
    def test_solver_output_passes(self, reference_run):
        config, mesh, triple = reference_run
        P = LaplacePreconditioner(mesh)
        for u in triple.fields():
            rep = check_euler_lagrange(mesh, config.nonlin, config.params,
                                       u, tol=1e-6, precond=P)
            assert rep.passed
            assert rep.measured["residual_norm"] <= 1e-6
            assert rep.measured["trivial"] == 0.0

    def test_random_field_fails(self):
        mesh = build_mesh(2, 8)
        rng = np.random.default_rng(0)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        rep = check_euler_lagrange(mesh, NL2, P2, u, tol=1e-6)
        assert not rep.passed
        assert rep.measured["residual_norm"] > 1e-3

    def test_zero_field_flagged_trivial(self):
        mesh = build_mesh(2, 8)
        rep = check_euler_lagrange(mesh, NL2, P2, np.zeros(mesh.n_vertices),
                                   tol=1e-6)
        assert rep.measured["residual_norm"] == 0.0
        assert rep.measured["trivial"] == 1.0


class TestSuite:
    def test_reference_suite_green(self, reference_run):
        config, mesh, triple = reference_run
        checks = verify_fields(mesh, config.nonlin, config.params,
                               triple.fields(), residual_tol=1e-6)
        assert len(checks) >= 10
        assert all(c.passed for c in checks)

    def test_fields_classified_by_sign(self, reference_run):
        config, mesh, triple = reference_run
        checks = verify_fields(mesh, config.nonlin, config.params,
                               (triple.u3, triple.u1, triple.u2),
                               residual_tol=1e-6)
        assert all(c.passed for c in checks)
        details = {c.name: c.detail for c in checks}
        assert details["u1_membership"] == "K3"
        assert details["u2_membership"] == "K1"
        assert details["u3_membership"] == "K2"

    def test_zero_field_reported_not_raised(self):
        mesh = build_mesh(2, 8)
        checks = verify_fields(mesh, NL2, P2, [np.zeros(mesh.n_vertices)])
        assert any(not c.passed for c in checks)

    def test_line_format(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        line = check_membership(mesh, NL2, P2, u, KIndex.K1).line()
        assert "PASS" in line or "FAIL" in line
        assert line.split(":")[0]
