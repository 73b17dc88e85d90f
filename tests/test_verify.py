import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import plap.verify
import plap.functional
from plap.cli import load_config
from plap.functional import (Nonlinearity, RunParameters, nonlin_eval,
                             sobolev_threshold)
from plap.mesh import (LaplacePreconditioner, apply_dirichlet, build_mesh,
                       integrate)
from plap.nehari import KIndex
from plap.optimizer import solve_three
from plap.verify import (Measures, _negated, check_energy_chain,
                         check_euler_lagrange, check_membership,
                         check_sign_structure, check_threshold, infer_kind,
                         measure, verify_fields)

from conftest import (constraint_phi, constraint_scale, energy,
                      energy_residual, initial_point, plus_minus_parts)

P2 = RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8)
NL2 = Nonlinearity(family="signed", q=3.0, r=3.0)
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_kind_inference():
    assert infer_kind(np.array([0.0, 1.0])) is KIndex.K1
    assert infer_kind(np.array([0.0, -1.0])) is KIndex.K2
    assert infer_kind(np.array([1.0, -1.0])) is KIndex.K3
    assert infer_kind(np.zeros(3)) is KIndex.K1


class TestMembership:
    def test_constructed_member_passes(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert check_membership(measure(mesh, NL2, P2, u)).passed

    def test_zero_field_fails(self):
        mesh = build_mesh(2, 8)
        rep = check_membership(
            measure(mesh, NL2, P2, np.zeros(mesh.n_vertices)))
        assert not rep.passed

    def test_rescaled_member_fails_on_residual(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert not check_membership(measure(mesh, NL2, P2, 1.1 * u)).passed

    def test_negated_member_is_a_k2_member(self):
        # the sign of a field fixes its set: for an odd f, -u of a K1
        # member is classified K2 and sits on phi2 = 0
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        m = measure(mesh, NL2, P2, -u)
        assert m.kind is KIndex.K2
        rep = check_membership(m)
        assert rep.passed and rep.detail == "K2"


class TestEnergyChain:
    def test_seed_battery_on_members(self):
        mesh = build_mesh(2, 8)
        for seed in range(10):
            for k in (KIndex.K1, KIndex.K2, KIndex.K3):
                u = initial_point(mesh, NL2, P2, k, seed=seed)
                m = measure(mesh, NL2, P2, u)
                assert m.kind is k
                rep = check_energy_chain(m, NL2.k2, P2.p)
                assert rep.passed
                assert rep.measured["energy"] > 0.0

    def test_off_constraint_field_fails_identity(self):
        mesh = build_mesh(2, 8)
        u = 1.2 * initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        assert not check_energy_chain(measure(mesh, NL2, P2, u),
                                      NL2.k2, P2.p).passed

    def test_reference_triple(self, reference_run):
        config, mesh, triple = reference_run
        kinds = (KIndex.K1, KIndex.K2, KIndex.K3)
        for u, k in zip(triple.fields(), kinds):
            m = measure(mesh, config.nonlin, config.params, u)
            assert m.kind is k
            assert check_energy_chain(m, config.nonlin.k2,
                                      config.params.p).passed


def records(run, fields):
    """The `measure` record of each field on the run's mesh."""
    config, mesh, _ = run
    return [measure(mesh, config.nonlin, config.params, u) for u in fields]


class TestSignStructure:
    def test_valid_triple(self, coarse_run):
        _, _, triple = coarse_run
        assert check_sign_structure(records(coarse_run,
                                            triple.fields())).passed

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_valid_triple_in_any_order(self, coarse_run, order):
        _, _, triple = coarse_run
        fields = triple.fields()
        rep = check_sign_structure(records(coarse_run,
                                           [fields[i] for i in order]))
        assert rep.passed

    @pytest.mark.parametrize("order", [(2, 0, 2), (1, 2, 3)])
    def test_permuted_degenerate_triple(self, coarse_run, order):
        _, mesh, triple = coarse_run
        fields = (*triple.fields(), np.zeros(mesh.n_vertices))
        rep = check_sign_structure(records(coarse_run,
                                           [fields[i] for i in order]))
        assert not rep.passed

    def test_missing_negative_part(self, coarse_run):
        _, _, triple = coarse_run
        rep = check_sign_structure(records(
            coarse_run, (triple.u1, triple.u2, triple.u1)))
        assert not rep.passed

    def test_trivial_first_field(self, coarse_run):
        _, mesh, triple = coarse_run
        zero = np.zeros(mesh.n_vertices)
        assert not check_sign_structure(records(
            coarse_run, (zero, triple.u2, triple.u3))).passed


class TestEulerLagrange:
    def test_solver_output_passes(self, reference_run):
        config, mesh, triple = reference_run
        P = LaplacePreconditioner(mesh)
        for u in triple.fields():
            rep = check_euler_lagrange(
                measure(mesh, config.nonlin, config.params, u), tol=1e-6,
                precond=P)
            assert rep.passed
            assert rep.measured["residual_norm"] <= 1e-6
            assert rep.measured["trivial"] == 0.0

    def test_random_field_fails(self):
        mesh = build_mesh(2, 8)
        rng = np.random.default_rng(0)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        rep = check_euler_lagrange(measure(mesh, NL2, P2, u), tol=1e-6,
                                   precond=LaplacePreconditioner(mesh))
        assert not rep.passed
        assert rep.measured["residual_norm"] > 1e-3

    def test_zero_field_flagged_trivial(self):
        mesh = build_mesh(2, 8)
        rep = check_euler_lagrange(
            measure(mesh, NL2, P2, np.zeros(mesh.n_vertices)), tol=1e-6,
            precond=LaplacePreconditioner(mesh))
        assert rep.measured["residual_norm"] == 0.0
        assert rep.measured["trivial"] == 1.0


class TestThreshold:
    def test_the_level_must_lie_strictly_below(self, reference_run):
        config, mesh, triple = reference_run
        m = measure(mesh, config.nonlin, config.params, triple.u1)
        above = np.nextafter(m.energy, np.inf)
        rep = check_threshold(m, above)
        assert rep.passed and rep.name == "threshold"
        assert rep.measured == {"energy": m.energy, "threshold": above}
        assert not check_threshold(m, m.energy).passed

    def test_sweep_config_u3_lies_above_the_threshold(self):
        # scripts/sweep.cfg at its `lambda` = 1: the sign-changing level,
        # about 4.59, lies above (1/N) S^(N/p), about 3.19
        config = load_config(SCRIPTS / "sweep.cfg").solver
        mesh = build_mesh(config.params.dim, config.cells_per_side)
        u3 = solve_three(config, mesh).u3
        threshold = sobolev_threshold(config.params)
        rep = check_threshold(measure(mesh, config.nonlin, config.params, u3),
                              threshold)
        assert not rep.passed
        assert rep.measured["energy"] > 4.5 and threshold < 3.2


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

    @pytest.mark.parametrize("order", [(0,), (1,), (2,), (2, 0, 1)],
                             ids=["u1", "u2", "u3", "u3-u1-u2"])
    def test_one_measurement_per_field(self, reference_run, monkeypatch,
                                       order):
        # per field one gradient table per part and one nonlin_eval,
        # besides those of energy and energy_residual; the suite reports
        # what the checks report on each field's record
        config, mesh, triple = reference_run
        nl, params = config.nonlin, config.params
        fields = [triple.fields()[i] for i in order]
        P = LaplacePreconditioner(mesh)
        want, ms = [], []
        for idx, u in enumerate(fields, start=1):
            m = measure(mesh, nl, params, u)
            ms.append(m)
            for rep in (check_membership(m),
                        check_energy_chain(m, nl.k2, params.p),
                        check_euler_lagrange(m, 1e-6, P),
                        check_threshold(m, sobolev_threshold(params))):
                want.append(dataclasses.replace(rep,
                                                name=f"u{idx}_{rep.name}"))
        if len(fields) == 3:
            want.append(check_sign_structure(ms))

        calls = {"gradient_table": 0, "nonlin_eval": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        modules = [mod for key, mod in sys.modules.items()
                   if key.startswith("plap.")]
        for name in calls:
            for mod in modules:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted(name, getattr(mod, name)))
        got = verify_fields(mesh, nl, params, fields, residual_tol=1e-6)
        assert calls["gradient_table"] <= 4 * len(fields)
        assert calls["nonlin_eval"] <= 3 * len(fields)
        assert got == want

    def test_evaluation_count_on_the_reference_triple(self, reference_run,
                                                      monkeypatch):
        # u1: the table of u serves its one nonzero part; u2 = 0 - u1 is
        # read from u1's record; u3: the tables of u and of both parts
        config, mesh, triple = reference_run
        calls = {"gradient_table": 0, "nonlin_eval": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            for mod in (plap.functional, plap.verify):
                monkeypatch.setattr(mod, name,
                                    counted(name, getattr(mod, name)))
        verify_fields(mesh, config.nonlin, config.params, triple.fields())
        assert calls == {"gradient_table": 4, "nonlin_eval": 2}

    def test_zero_field_reported_not_raised(self):
        mesh = build_mesh(2, 8)
        checks = verify_fields(mesh, NL2, P2, [np.zeros(mesh.n_vertices)])
        assert any(not c.passed for c in checks)

    def test_line_format(self):
        mesh = build_mesh(2, 8)
        u = initial_point(mesh, NL2, P2, KIndex.K1, seed=0)
        line = check_membership(measure(mesh, NL2, P2, u)).line()
        assert "PASS" in line or "FAIL" in line
        assert line.split(":")[0]


# (dim, p, q, r, cells per side): the regularized p < 2 path in 2D and
# the p = 2 cube
MEASURE_CASES = [(2, 1.5, 3.0, 2.5, 8), (3, 2.0, 4.0, 3.0, 4)]


@pytest.mark.parametrize("family", ["signed", "pospart"])
@pytest.mark.parametrize("dim, p, q, r, m", MEASURE_CASES)
@pytest.mark.parametrize("k", list(KIndex))
def test_measure_matches_reference_functions(k, dim, p, q, r, m, family):
    # bit for bit: the record takes the same operations in the same order
    mesh = build_mesh(dim, m)
    params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-8)
    nl = Nonlinearity(family=family, q=q, r=r)
    u = initial_point(mesh, nl, params, k, seed=0)
    assert infer_kind(u) is k
    got = measure(mesh, nl, params, u)
    assert got.kind is k
    for which, part in zip((1, 2), plus_minus_parts(u)):
        assert got.masses[which] == integrate(mesh, part)
        assert got.scales[which] == constraint_scale(mesh, params, u, which)
        assert got.phis[which] == constraint_phi(mesh, nl, params, u, which)
    assert got.energy == energy(mesh, nl, params, u)
    assert np.array_equal(got.residual, energy_residual(mesh, nl, params, u))


def _measure_per_evaluation(mesh, nl, params, u):
    """The record of u from a gradient table per part and E and E' from
    the reference functions, which take u's table and `nonlin_eval`
    again: what `measure` gives from one evaluation."""
    u = np.asarray(u, dtype=float)
    f, _, _ = nonlin_eval(nl, u)
    masses, scales, phis = {}, {}, {}
    for which, part in zip((1, 2), plus_minus_parts(u)):
        masses[which] = integrate(mesh, part)
        scales[which] = constraint_scale(mesh, params, u, which)
        phis[which] = constraint_phi(mesh, nl, params, u, which)
    moment = (integrate(mesh, np.abs(u) ** params.pstar)
              + params.lam * integrate(mesh, f * u))
    return Measures(u, infer_kind(u), masses, scales, phis, moment,
                    energy(mesh, nl, params, u),
                    energy_residual(mesh, nl, params, u))


@pytest.mark.parametrize("family", ["signed", "pospart"])
@pytest.mark.parametrize("dim, p, q, r, m", MEASURE_CASES)
@pytest.mark.parametrize("k", [*KIndex, None],
                         ids=["K1", "K2", "K3", "zero"])
def test_measure_is_the_record_of_separate_evaluations(k, dim, p, q, r, m,
                                                       family):
    # array for array and bit for bit, the zero field included
    mesh = build_mesh(dim, m)
    params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-8)
    nl = Nonlinearity(family=family, q=q, r=r)
    u = (np.zeros(mesh.n_vertices) if k is None
         else initial_point(mesh, nl, params, k, seed=0))
    got = measure(mesh, nl, params, u)
    want = _measure_per_evaluation(mesh, nl, params, u)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("dim, p, q, r, m", MEASURE_CASES)
@pytest.mark.parametrize("k", list(KIndex))
def test_negated_record_is_the_measure(k, dim, p, q, r, m):
    # for an odd f the record of -u read from that of u is measure(-u),
    # array for array and bit for bit
    mesh = build_mesh(dim, m)
    params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-8)
    nl = Nonlinearity(family="signed", q=q, r=r)
    u = initial_point(mesh, nl, params, k, seed=0)
    v = 0.0 - u
    got, want = _negated(measure(mesh, nl, params, u), v), measure(
        mesh, nl, params, v)
    assert got.u is v
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _spy_measure(monkeypatch):
    measured = []
    real = plap.verify.measure

    def spy(mesh, nl, params, u):
        measured.append(u)
        return real(mesh, nl, params, u)

    monkeypatch.setattr(plap.verify, "measure", spy)
    return measured


@pytest.mark.parametrize("order, measured_ones", [
    ((0, 1, 2), (0, 2)), ((1, 2, 0, 1), (1, 2))],
    ids=["u1-u2-u3", "u2-u3-u1-u2"])
def test_suite_measures_a_negated_field_once(reference_run, monkeypatch,
                                             order, measured_ones):
    # u2 = 0 - u1 and u1 are one measurement, in either order; the
    # reports are those of measuring every field
    config, mesh, triple = reference_run
    nl, params = config.nonlin, config.params
    fields = [triple.fields()[i] for i in order]
    with monkeypatch.context() as m:
        m.setattr(plap.verify, "_negated",
                  lambda _, u: measure(mesh, nl, params, u))
        want = verify_fields(mesh, nl, params, fields)
    measured = _spy_measure(monkeypatch)
    assert verify_fields(mesh, nl, params, fields) == want
    assert [id(u) for u in measured] == [id(triple.fields()[i])
                                         for i in measured_ones]


def test_pospart_never_mirrors(monkeypatch):
    # pospart is not odd: E(-u) is not E(u), so every field is measured
    mesh = build_mesh(2, 8)
    nl = Nonlinearity(family="pospart", q=3.0, r=3.0)
    u = initial_point(mesh, nl, P2, KIndex.K1, seed=0)
    fields = [u, 0.0 - u]
    measured = _spy_measure(monkeypatch)
    verify_fields(mesh, nl, P2, fields)
    assert [id(x) for x in measured] == [id(x) for x in fields]
