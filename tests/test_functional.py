import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plap.errors import ConfigurationError
from plap.functional import (Nonlinearity, RunParameters, _Powers,
                             _p_dirichlet, _source_derivatives,
                             _squared_norms, nonlin_eval,
                             p_stiffness_vector, sobolev_constant,
                             sobolev_threshold)
from plap.mesh import (_gradient_transpose, apply_dirichlet, build_mesh,
                       gradient_table, integrate)

from conftest import (energy, energy_parts, energy_residual,
                      growth_constants, interior_bump, plus_minus_parts,
                      shape_gradients, simplices)


def params_2d(lam=20.0, eps=1e-8):
    return RunParameters(p=1.5, dim=2, lam=lam, eps=eps)


def params_3d(lam=50.0, eps=0.0):
    return RunParameters(p=2.0, dim=3, lam=lam, eps=eps)


class TestNonlinEval:
    def test_signed_at_one(self):
        nl = Nonlinearity(family="signed", q=4.0, r=3.0)
        f, F, fu = nonlin_eval(nl, np.array([1.0]))
        assert np.isclose(f[0], 2.0, rtol=0, atol=1e-15)
        assert np.isclose(F[0], 7.0 / 12.0, rtol=0, atol=1e-15)
        assert np.isclose(fu[0], 5.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", ["signed", "pospart"])
    def test_zero_input(self, family):
        nl = Nonlinearity(family=family, q=4.0, r=3.0)
        f, F, fu = nonlin_eval(nl, np.array([0.0]))
        assert f[0] == 0.0
        assert F[0] == 0.0
        assert np.isfinite(fu[0])

    def test_pospart_negative_input(self):
        nl = Nonlinearity(family="pospart", q=4.0, r=3.0)
        f, F, fu = nonlin_eval(nl, np.array([-2.0]))
        assert np.isclose(f[0], -8.0, rtol=0, atol=1e-14)
        assert np.isclose(F[0], 4.0, rtol=0, atol=1e-14)
        assert np.isclose(fu[0], 12.0, rtol=0, atol=1e-14)

    def test_low_exponent_derivative_convention(self):
        # no fault where the derivative weight is singular at zero
        nl = Nonlinearity(family="signed", q=1.8, r=1.8)
        with np.errstate(all="raise"):
            f, F, fu = nonlin_eval(nl, np.array([0.0, 0.5, -0.5]))
        assert fu[0] == 0.0
        assert np.all(np.isfinite(fu))

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(-3, 3), q=st.floats(2.1, 5.5), r=st.floats(2.05, 5.5))
    def test_signed_family_is_odd(self, u, q, r):
        if r > q:
            q, r = r, q
        nl = Nonlinearity(family="signed", q=q, r=r)
        fp, Fp, fup = nonlin_eval(nl, np.array([u]))
        fm, Fm, fum = nonlin_eval(nl, np.array([-u]))
        assert np.isclose(fm[0], -fp[0], rtol=1e-13, atol=1e-300)
        assert np.isclose(Fm[0], Fp[0], rtol=1e-13, atol=1e-300)
        assert np.isclose(fum[0], fup[0], rtol=1e-13, atol=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(0.05, 3), q=st.floats(2.1, 5.5),
           family=st.sampled_from(["signed", "pospart"]),
           sign=st.sampled_from([1.0, -1.0]))
    def test_antiderivative_consistency(self, u, q, family, sign):
        # central difference of F reproduces f away from the kink at zero
        nl = Nonlinearity(family=family, q=q, r=q)
        x = sign * u
        h = 1e-6 * max(1.0, abs(x))
        _, Fp, _ = nonlin_eval(nl, np.array([x + h]))
        _, Fm, _ = nonlin_eval(nl, np.array([x - h]))
        f, _, _ = nonlin_eval(nl, np.array([x]))
        fd = (Fp[0] - Fm[0]) / (2 * h)
        assert np.isclose(fd, f[0], rtol=1e-5, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(q=st.floats(1.7, 5.5), seed=st.integers(0, 500),
           family=st.sampled_from(["signed", "pospart"]))
    def test_growth_sandwich_with_recorded_constants(self, q, seed, family):
        # c3*|u|^k2 <= k2*F <= f*u <= c1*fu*u^2 <= c4*|u|^k2, integrated
        nl = Nonlinearity(family=family, q=q, r=q)
        mesh = build_mesh(2, 3)
        rng = np.random.default_rng(seed)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        f, F, fu = nonlin_eval(nl, u)
        c = growth_constants(nl)
        power = integrate(mesh, np.abs(u) ** nl.k2)
        chain = (
            c.c3 * power,
            nl.k2 * integrate(mesh, F),
            integrate(mesh, f * u),
            c.c1 * integrate(mesh, fu * u * u),
            c.c4 * power,
        )
        slack = 1e-12 * max(abs(x) for x in chain)
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + slack


def signed_samples(n=4000, seed=3):
    """Nodal values of both signs over ten decades, with exact zeros."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp(rng.uniform(-11.5, 11.5, n))
    x[:3] = (0.0, -0.0, 0.0)
    return x


class TestPowers:
    """The solver's power kernel against `np.abs(x) ** e`."""

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_integer_chains_within_4_ulp(self, e):
        x = signed_samples()
        got, want = _Powers(x)[float(e)], np.abs(x) ** float(e)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
        assert np.all(got[:3] == 0.0)

    @pytest.mark.parametrize("e", [0.0, 0.5, 1.5, 2.5, 3.7, 5.999, 9.0, 12.0])
    def test_other_exponents_are_pow_exactly(self, e):
        x = signed_samples()
        assert np.array_equal(_Powers(x)[e], np.abs(x) ** e)

    @pytest.mark.parametrize("e", [-0.5, -1.0, -2.0])
    def test_negative_exponents_mask_zero(self, e):
        x = signed_samples()
        got = _Powers(x)[e]
        nonzero = x != 0.0
        assert np.all(got[~nonzero] == 0.0)
        assert np.array_equal(got[nonzero], np.abs(x[nonzero]) ** e)

    @pytest.mark.parametrize("e", [0.5, 1.0, 2.0, 3.0, 4.5, 5.0])
    def test_odd_power_keeps_the_sign(self, e):
        x = signed_samples()
        got = _Powers(x).odd(e)
        assert np.array_equal(np.sign(got), np.sign(x))
        want = np.abs(x) ** e
        assert np.all(np.abs(np.abs(got) - want)
                      <= 4 * np.finfo(float).eps * want)

    def test_each_power_taken_once(self):
        # |x|^6 = |x|^4 |x|^2 over the shared squares, with no abs
        pw = _Powers(signed_samples())
        six, four = pw[6.0], pw[4.0]
        assert sorted(pw) == [2.0, 4.0, 6.0]
        assert pw[6.0] is six and pw[4] is four

    @pytest.mark.parametrize("family", ["signed", "pospart"])
    @pytest.mark.parametrize("q, r", [(4.0, 4.0), (3.0, 3.0), (4.0, 3.0),
                                      (2.5, 2.0), (1.8, 1.6)])
    def test_source_derivatives_match_nonlin_eval(self, family, q, r):
        nl = Nonlinearity(family=family, q=q, r=r)
        x = signed_samples()
        f, _, fu = nonlin_eval(nl, x)
        got_f, got_fu = _source_derivatives(nl, _Powers(x))
        for got, want in ((got_f, f), (got_fu, fu)):
            assert np.all(np.abs(got - want)
                          <= 8 * np.finfo(float).eps * np.abs(want))


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ConfigurationError):
            RunParameters(p=2.0, dim=2, lam=1.0)
        with pytest.raises(ConfigurationError):
            RunParameters(p=1.0, dim=2, lam=1.0)
        with pytest.raises(ConfigurationError):
            RunParameters(p=1.5, dim=2, lam=0.0)
        with pytest.raises(ConfigurationError):
            RunParameters(p=1.5, dim=2, lam=1.0, eps=-1e-3)
        with pytest.raises(ConfigurationError):
            RunParameters(p=1.5, dim=4, lam=1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                RunParameters(p=1.5, dim=2, lam=lam)
        for eps in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                RunParameters(p=1.5, dim=2, lam=1.0, eps=eps)

    def test_critical_exponent_values(self):
        assert np.isclose(RunParameters(p=2.0, dim=3, lam=1.0).pstar, 6.0,
                          rtol=0, atol=1e-15)
        assert np.isclose(RunParameters(p=1.5, dim=2, lam=1.0).pstar, 6.0,
                          rtol=0, atol=1e-15)

    def test_exponent_window(self):
        params = params_3d()
        Nonlinearity(family="signed", q=4.0, r=3.0).validate(params)
        with pytest.raises(ConfigurationError):
            Nonlinearity(family="signed", q=6.0, r=3.0).validate(params)
        with pytest.raises(ConfigurationError):
            Nonlinearity(family="signed", q=4.0, r=4.5).validate(params)
        with pytest.raises(ConfigurationError):
            Nonlinearity(family="signed", q=4.0, r=2.0).validate(params)
        with pytest.raises(ConfigurationError):
            Nonlinearity(family="bogus", q=4.0, r=3.0).validate(params)

    def test_default_constants(self):
        nl = Nonlinearity(family="signed", q=4.0, r=3.0)
        assert np.isclose(nl.k2, 3.0, rtol=0, atol=1e-15)
        c = growth_constants(nl)
        assert np.isclose(c.c3, 0.75, rtol=0, atol=1e-15)
        assert np.isclose(c.c1, 0.5, rtol=0, atol=1e-15)
        assert np.isclose(c.c4, 2.5, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10000))
def test_part_split_identities(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(40)
    plus, minus = plus_minus_parts(u)
    assert np.array_equal(plus - minus, u)
    assert np.all(plus >= 0.0)
    assert np.all(minus >= 0.0)
    assert np.all(plus * minus == 0.0)


class TestEnergy:
    def test_zero_field(self):
        mesh = build_mesh(2, 3)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        assert energy(mesh, nl, params_2d(), np.zeros(mesh.n_vertices)) == 0.0

    def test_hat_function_oracle(self):
        # independent quadrature of the single interior hat, no coupling term
        mesh = build_mesh(3, 2)
        nl = Nonlinearity(family="signed", q=4.0, r=4.0)
        params = RunParameters(p=2.0, dim=3, lam=1e-300, eps=0.0)
        center = np.all(np.isclose(mesh.vertices, 0.5), axis=1)
        assert center.sum() == 1
        u = center.astype(float)

        grad_term = 0.0
        crit_term = 0.0
        for simplex in simplices(mesh):
            X = np.hstack([np.ones((4, 1)), mesh.vertices[simplex]])
            coeff = np.linalg.solve(X, u[simplex])
            edges = mesh.vertices[simplex[1:]] - mesh.vertices[simplex[0]]
            vol = abs(np.linalg.det(edges)) / 6.0
            grad_term += vol * float(coeff[1:] @ coeff[1:])
            crit_term += vol * float(np.mean(u[simplex] ** 6))
        oracle = 0.5 * grad_term - crit_term / 6.0
        got = energy(mesh, nl, params, u)
        assert np.isclose(got, oracle, rtol=1e-13, atol=0)

    def test_reassembly_identity(self):
        mesh = build_mesh(2, 4)
        nl = Nonlinearity(family="pospart", q=3.5, r=3.0)
        params = params_2d()
        rng = np.random.default_rng(3)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        g, c, s = energy_parts(mesh, nl, params, u)
        E = energy(mesh, nl, params, u)
        assert abs(E - (g - c - s)) <= 1e-14 * (abs(g) + abs(c) + abs(s))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_power_scaling_identity(self, t):
        mesh = build_mesh(2, 4)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        params = params_2d()
        w = interior_bump(mesh, seed=1)
        p, pstar, q = params.p, params.pstar, nl.q
        g = gradient_table(mesh, w)
        g2 = np.einsum("sd,sd->s", g, g)
        A = float(np.dot(np.full(mesh.n_simplices, mesh.volume),
                         g2 ** (p / 2.0)))
        B = integrate(mesh, np.abs(w) ** pstar)
        C = integrate(mesh, np.abs(w) ** q)
        predicted = (A * t**p / p - B * t**pstar / pstar
                     - 2.0 * params.lam * C * t**q / q)
        got = energy(mesh, nl, params, t * w)
        assert np.isclose(got, predicted, rtol=1e-10, atol=0)

    def test_small_scale_positivity(self):
        # rays from the origin start out with positive energy
        mesh = build_mesh(2, 4)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        params = params_2d()
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
            g = gradient_table(mesh, w)
            g2 = np.einsum("sd,sd->s", g, g)
            A = float(np.dot(np.full(mesh.n_simplices, mesh.volume),
                             g2 ** (params.p / 2.0)))
            w = w / A ** (1.0 / params.p)
            assert energy(mesh, nl, params, 1e-3 * w) > 0.0


class TestResidual:
    def test_zero_field(self):
        mesh = build_mesh(2, 3)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        r = energy_residual(mesh, nl, params_2d(), np.zeros(mesh.n_vertices))
        assert np.all(r == 0.0)

    def test_boundary_rows_are_zero(self):
        mesh = build_mesh(2, 4)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        rng = np.random.default_rng(5)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        r = energy_residual(mesh, nl, params_2d(), u)
        assert np.all(r[mesh.boundary] == 0.0)

    @pytest.mark.parametrize("params,nl,tol", [
        (RunParameters(p=2.0, dim=3, lam=50.0, eps=0.0),
         Nonlinearity(family="signed", q=4.0, r=4.0), 1e-6),
        (RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8),
         Nonlinearity(family="pospart", q=3.0, r=3.0), 1e-4),
    ])
    def test_directional_derivative(self, params, nl, tol):
        mesh = build_mesh(params.dim, 4)
        rng = np.random.default_rng(17)
        u = 0.5 * apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        r = energy_residual(mesh, nl, params, u)
        h = 1e-5
        for _ in range(3):
            d = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
            d = d / np.linalg.norm(d)
            fd = (energy(mesh, nl, params, u + h * d)
                  - energy(mesh, nl, params, u - h * d)) / (2 * h)
            pairing = float(np.dot(r, d))
            assert np.isclose(pairing, fd, rtol=tol, atol=1e-12)


class TestSobolevThreshold:
    def test_frozen_values(self):
        assert np.isclose(sobolev_constant(2.0, 3), 5.477904089531331,
                          rtol=1e-14, atol=0)
        assert np.isclose(sobolev_constant(1.5, 2), 4.015109978469203,
                          rtol=1e-14, atol=0)
        assert np.isclose(sobolev_threshold(params_3d()), 4.273664068323042,
                          rtol=1e-14, atol=0)
        assert np.isclose(sobolev_threshold(params_2d()), 3.1908025599167793,
                          rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p,dim", [(2.0, 3), (1.5, 2)])
    def test_radial_quadrature_oracle(self, p, dim):
        # quadrature of the explicit extremal profile on the whole space
        pstar = dim * p / (dim - p)
        a = p / (p - 1.0)
        b = (dim - p) / (p - 1.0)

        def profile(rr):
            return (1.0 + rr**a) ** (-(dim - p) / p)

        def dprofile(rr):
            return (b * rr ** (a - 1.0)
                    * (1.0 + rr**a) ** (-(dim - p) / p - 1.0))

        num, _ = quad(lambda rr: dprofile(rr) ** p * rr ** (dim - 1),
                      0.0, np.inf, limit=200)
        den, _ = quad(lambda rr: profile(rr) ** pstar * rr ** (dim - 1),
                      0.0, np.inf, limit=200)
        omega = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        oracle = omega ** (1.0 - p / pstar) * num / den ** (p / pstar)
        assert np.isclose(sobolev_constant(p, dim), oracle, rtol=1e-9, atol=0)

    def test_rejects_supercritical(self):
        with pytest.raises(ConfigurationError):
            sobolev_constant(3.0, 3)


def _scatter_p_stiffness(mesh, g, p, eps):
    """Per-simplex contributions scattered with np.add.at, kept as the oracle."""
    g2 = np.einsum("sd,sd->s", g, g)
    expo = (p - 2.0) / 2.0
    if eps == 0.0 and expo < 0.0:
        w = np.zeros_like(g2)
        mask = g2 > 0.0
        w[mask] = g2[mask] ** expo
    else:
        w = (g2 + eps * eps) ** expo
    coef = np.full(mesh.n_simplices, mesh.volume) * w
    contrib = coef[:, None] * np.einsum("sd,sid->si", g, shape_gradients(mesh))
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, simplices(mesh).ravel(), contrib.ravel())
    return out


class TestPStiffnessVector:
    @pytest.mark.parametrize("dim,m", [(2, 5), (3, 4)])
    @pytest.mark.parametrize("p,eps", [(2.0, 0.0), (1.5, 1e-8), (1.5, 0.0)])
    def test_matches_scatter(self, dim, m, p, eps):
        # the clipped field is flat on whole simplices, so the eps = 0
        # branch meets zero gradients
        mesh = build_mesh(dim, m)
        rng = np.random.default_rng(5)
        u = np.maximum(rng.standard_normal(mesh.n_vertices), 0.0)
        g = gradient_table(mesh, u)
        assert np.any(np.all(g == 0.0, axis=1))
        want = _scatter_p_stiffness(mesh, g, p, eps)
        got = p_stiffness_vector(mesh, g, p, eps, sq_norms=_squared_norms(g))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_scalar_volume_matches_the_volume_array(self, dim, m):
        # every simplex has the one volume: scaling by the scalar is bit
        # for bit scaling by the array; the integral sums before it
        # scales, so it moves only by the rounding of the sum
        mesh = build_mesh(dim, m)
        volumes = np.full(mesh.n_simplices, mesh.volume)
        rng = np.random.default_rng(10 * dim + m)
        for p in (1.5, 2.0, 2.5):
            g = rng.standard_normal((mesh.n_simplices, dim)) * m
            g[::5] = 0.0
            g2 = _squared_norms(g)
            w = (g2 + 1e-16) ** ((p - 2.0) / 2.0)
            want = _gradient_transpose(mesh, (volumes * w)[:, None] * g)
            got = p_stiffness_vector(mesh, g, p, 1e-8, sq_norms=g2)
            assert np.array_equal(got, want), p
            want = float(np.dot(volumes, g2 ** (p / 2.0)))
            got = _p_dirichlet(mesh, g2, p)
            assert abs(got - want) <= 1e-14 * want, p
