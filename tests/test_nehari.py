import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from plap.errors import (DegenerateConstraintError, DegenerateInputError,
                         LostSignError, NoRootError, SignError)
from plap.functional import Nonlinearity, RunParameters, nonlin_eval
from plap.mesh import apply_dirichlet, build_mesh, integrate
from plap.nehari import KIndex, fibering_root, retract, scale_to_manifold

from conftest import (constraint_gradient, constraint_phi, constraint_scale,
                      energy, energy_residual, fibering_coefficients,
                      fibering_upper_bound, growth_constants, interior_bump,
                      plus_minus_parts, simplices, tangent_project)

P2 = RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8)
NL2 = Nonlinearity(family="signed", q=3.0, r=3.0)


def split_pair(mesh, seed=0):
    """Two exactly disjoint bumps, positive on the left half, the negative
    one the mirrored negation of the positive one."""
    rng = np.random.default_rng(seed)
    jitter = 1.0 + 0.1 * rng.random(mesh.n_vertices)
    x = mesh.vertices[:, 0]
    prof = np.ones(mesh.n_vertices)
    for axis in range(1, mesh.dim):
        prof = prof * np.sin(np.pi * mesh.vertices[:, axis])
    left = np.where(x < 0.5, np.sin(2.0 * np.pi * x), 0.0)
    w_pos = np.maximum(apply_dirichlet(mesh, left * prof * jitter), 0.0)
    side = mesh.cells_per_side + 1
    mirror = np.arange(mesh.n_vertices).reshape((side,) * mesh.dim)[::-1]
    w_neg = -w_pos[mirror.reshape(-1)]
    return w_pos, w_neg


def bracket(mesh, nl, params, w):
    """The closed-form upper bound t1 of the scaling root of w."""
    c = fibering_coefficients(mesh, nl, params, w)
    return fibering_upper_bound(c.A, growth_constants(nl).c3, params.lam,
                                c.C, nl.q, params.p)


def test_active_constraints():
    assert KIndex.K1.active_constraints == (1,)
    assert KIndex.K2.active_constraints == (2,)
    assert KIndex.K3.active_constraints == (1, 2)


class TestConstraintPhi:
    def test_zero_field(self):
        mesh = build_mesh(2, 3)
        z = np.zeros(mesh.n_vertices)
        assert constraint_phi(mesh, NL2, P2, z, 1) == 0.0
        assert constraint_phi(mesh, NL2, P2, z, 2) == 0.0

    def test_wrong_sign_part_vanishes(self):
        mesh = build_mesh(2, 3)
        u = -interior_bump(mesh)
        assert constraint_phi(mesh, NL2, P2, u, 1) == 0.0
        assert constraint_phi(mesh, NL2, P2, -u, 2) == 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_power_expansion(self, t):
        mesh = build_mesh(2, 4)
        w = interior_bump(mesh, seed=2)
        c = fibering_coefficients(mesh, NL2, P2, w)
        predicted = (c.A * t**P2.p - c.B * t**P2.pstar
                     - 2.0 * P2.lam * c.C * t**NL2.q)
        got = constraint_phi(mesh, NL2, P2, t * w, 1)
        assert np.isclose(got, predicted, rtol=1e-10, atol=0)

    def test_odd_symmetry_between_constraints(self):
        mesh = build_mesh(2, 4)
        rng = np.random.default_rng(9)
        u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
        a = constraint_phi(mesh, NL2, P2, u, 1)
        b = constraint_phi(mesh, NL2, P2, -u, 2)
        assert np.isclose(a, b, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("which", [0, 3])
    def test_unknown_constraint_rejected(self, which):
        mesh = build_mesh(2, 4)
        w = interior_bump(mesh)
        with pytest.raises(ValueError):
            constraint_phi(mesh, NL2, P2, w, which)
        with pytest.raises(ValueError):
            constraint_scale(mesh, P2, w, which)
        with pytest.raises(ValueError):
            constraint_gradient(mesh, NL2, P2, w, which)


class TestFiberingCoefficients:
    def test_hat_oracle(self):
        mesh = build_mesh(2, 2)
        center = np.all(np.isclose(mesh.vertices, 0.5), axis=1)
        u = center.astype(float)
        c = fibering_coefficients(mesh, NL2, P2, u)
        A = B = C = 0.0
        for simplex in simplices(mesh):
            X = np.hstack([np.ones((3, 1)), mesh.vertices[simplex]])
            coeff = np.linalg.solve(X, u[simplex])
            edges = mesh.vertices[simplex[1:]] - mesh.vertices[simplex[0]]
            vol = abs(np.linalg.det(edges)) / 2.0
            A += vol * float(coeff[1:] @ coeff[1:]) ** (P2.p / 2.0)
            B += vol * float(np.mean(np.abs(u[simplex]) ** P2.pstar))
            C += vol * float(np.mean(np.abs(u[simplex]) ** NL2.q))
        assert np.isclose(c.A, A, rtol=1e-13, atol=0)
        assert np.isclose(c.B, B, rtol=1e-13, atol=0)
        assert np.isclose(c.C, C, rtol=1e-13, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 4.0))
    def test_homogeneity(self, s):
        mesh = build_mesh(2, 3)
        w = interior_bump(mesh, seed=4)
        c = fibering_coefficients(mesh, NL2, P2, w)
        cs = fibering_coefficients(mesh, NL2, P2, s * w)
        assert np.isclose(cs.A, s**P2.p * c.A, rtol=1e-12, atol=0)
        assert np.isclose(cs.B, s**P2.pstar * c.B, rtol=1e-12, atol=0)
        assert np.isclose(cs.C, s**NL2.q * c.C, rtol=1e-12, atol=0)

    def test_disjoint_supports_add(self):
        mesh = build_mesh(2, 8)
        w_pos, w_neg = split_pair(mesh)
        c0 = fibering_coefficients(mesh, NL2, P2, w_pos)
        c1 = fibering_coefficients(mesh, NL2, P2, -w_neg)
        c = fibering_coefficients(mesh, NL2, P2, w_pos - w_neg)
        assert np.isclose(c.A, c0.A + c1.A, rtol=1e-12, atol=0)
        assert np.isclose(c.B, c0.B + c1.B, rtol=1e-12, atol=0)
        assert np.isclose(c.C, c0.C + c1.C, rtol=1e-12, atol=0)

    def test_zero_field_rejected(self):
        mesh = build_mesh(2, 3)
        with pytest.raises(DegenerateInputError):
            fibering_coefficients(mesh, NL2, P2, np.zeros(mesh.n_vertices))


class TestRootFinding:
    def test_bracket_formula(self):
        assert np.isclose(fibering_upper_bound(1.0, 1.0, 16.0, 1.0, 4.0, 2.0),
                          0.25, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("A, B, p, pstar", [
        (1.0, 1.0, 2.0, 6.0), (3.7, 0.02, 1.5, 6.0), (1e-3, 50.0, 2.0, 6.0),
    ])
    def test_critical_term_alone(self, A, B, p, pstar):
        got = fibering_root(A, [(pstar, B)], p)
        want = (A / B) ** (1.0 / (pstar - p))
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("A, terms, p", [
        (1e-300, [(6.0, 1e300)], 2.0),      # A / c underflows: log(0)
        (1.0, [(2.1, 1e-300)], 2.0),        # (A / c)^(1/a) overflows
        (1.0, [(3.0, 1e-200)], 2.0),        # the bound 1e200: t^p overflows
        (1e-300, [(2.5, 1e10)], 2.0),       # the bound 1e-620 underflows
    ])
    def test_float_range_is_a_missing_root(self, A, terms, p):
        with pytest.raises(NoRootError, match="float range"):
            fibering_root(A, terms, p)

    def test_nonpositive_A_stays_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            fibering_root(0.0, [(6.0, 1e300)], 2.0)

    def test_synthetic_roots(self):
        got = fibering_root(1.0, [(6.0, 1.0), (4.0, 1.0)], 2.0)
        assert abs(got - np.sqrt((np.sqrt(5.0) - 1.0) / 2.0)) <= 1e-12
        got4 = fibering_root(1.0, [(6.0, 1.0), (4.0, 4.0)], 2.0)
        assert abs(got4 - np.sqrt(np.sqrt(5.0) - 2.0)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(A=st.floats(0.5, 5.0), B=st.floats(0.1, 5.0),
           lamC=st.floats(0.1, 50.0))
    def test_against_library_solver(self, A, B, lamC):
        p, pstar, q = 1.5, 6.0, 3.0

        def g(t):
            return A * t**p - B * t**pstar - lamC * t**q

        got = fibering_root(A, [(pstar, B), (q, lamC)], p)
        hi = got
        while g(2 * hi) >= 0:
            hi *= 2
        oracle = brentq(g, got / 2, 2 * hi, xtol=1e-300, rtol=1e-15)
        assert np.isclose(got, oracle, rtol=1e-9, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(exps=st.sampled_from([(2.0, 6.0, 2.5, 4.0), (1.5, 6.0, 2.0, 3.0),
                                 (2.0, 6.0, 3.0, 5.0)]),
           A=st.floats(0.01, 100.0), B=st.floats(0.01, 100.0),
           c_r=st.floats(0.0, 100.0), c_q=st.floats(0.01, 100.0))
    # a root near 1e-7: an absolute xtol in the oracle would miss it by 1e-8
    @example(exps=(1.5, 6.0, 2.0, 3.0), A=0.01, B=1.0, c_r=33.0, c_q=1.0)
    def test_two_terms_against_library_solver(self, exps, A, B, c_r, c_q):
        # r - p < 1 in the first two cases: h is convex near 0 there
        p, pstar, r, q = exps
        terms = [(q, c_q), (r, c_r)]

        def h(t):
            return (A - B * t**(pstar - p) - c_q * t**(q - p)
                    - c_r * t**(r - p))

        got = fibering_root(A, [(pstar, B), *terms], p)
        hi = 1.0
        while h(hi) >= 0:
            hi *= 2
        oracle = brentq(h, 0.0, hi, xtol=1e-300, rtol=1e-15)
        assert np.isclose(got, oracle, rtol=1e-9, atol=0)
        assert abs(h(got)) * max(got**p, 1.0) <= 1e-10 * A

    @pytest.mark.parametrize("A, B, terms, p, pstar", [
        (1.0, 1e-14, [(4.0, 1e-13)], 2.0, 6.0),
        (1.0, 1e-9, [(3.0, 1e-9)], 1.2, 2.0),
    ])
    def test_large_roots_resolve_to_the_last_bit(self, A, B, terms, p, pstar):
        # t^p is about 1e7 and 1e6 here: |phi| <= tol * t^p * A would need
        # |h| below double precision relative to A, so the root is returned
        # once t stops moving
        def h(t):
            return A - B * t**(pstar - p) - sum(c * t**(e - p) for e, c in terms)

        got = fibering_root(A, [(pstar, B), *terms], p)
        oracle = brentq(h, got / 2, 2 * got, xtol=1e-300, rtol=1e-15)
        assert abs(got - oracle) <= 4 * np.spacing(oracle)
        assert abs(h(got)) / A <= 1e-12


class TestScaleToManifold:
    def test_residual_and_bracket(self):
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3)
        res = scale_to_manifold(mesh, NL2, P2, w)
        assert res.t > 0.0
        assert res.t <= bracket(mesh, NL2, P2, w)
        phi = constraint_phi(mesh, NL2, P2, res.t * w, 1)
        assert abs(phi) <= 1e-10 * res.A

    def test_member_identity(self):
        # on the constraint set the gradient mass balances the source terms
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3)
        u = scale_to_manifold(mesh, NL2, P2, w).t * w
        f, _, _ = nonlin_eval(NL2, u)
        plus, _ = plus_minus_parts(u)
        lhs = constraint_scale(mesh, P2, u, 1)
        rhs = (integrate(mesh, plus ** P2.pstar)
               + P2.lam * integrate(mesh, f * plus))
        assert np.isclose(lhs, rhs, rtol=1e-10, atol=0)

    def test_fibering_sign_structure(self):
        mesh = build_mesh(2, 6)
        for seed in range(5):
            w = interior_bump(mesh, seed=seed)
            res = scale_to_manifold(mesh, NL2, P2, w)
            lo = res.t / 10.0
            hi = 10.0 * max(res.t, bracket(mesh, NL2, P2, w))
            assert constraint_phi(mesh, NL2, P2, lo * w, 1) > 0.0
            assert constraint_phi(mesh, NL2, P2, hi * w, 1) < 0.0

    def test_scaling_decreases_with_coupling(self):
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3)
        ts = []
        for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
            params = RunParameters(p=1.5, dim=2, lam=lam, eps=1e-8)
            ts.append(scale_to_manifold(mesh, NL2, params, w).t)
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))

    def test_sign_checks(self):
        # the sign of the shape picks the constraint, so only a shape that
        # changes sign has none to be scaled onto
        mesh = build_mesh(2, 8)
        w_pos, w_neg = split_pair(mesh)
        with pytest.raises(SignError):
            scale_to_manifold(mesh, NL2, P2, w_pos + w_neg)
        with pytest.raises(DegenerateInputError):
            scale_to_manifold(mesh, NL2, P2, np.zeros(mesh.n_vertices))

    @pytest.mark.parametrize("which", [1, 2])
    def test_pospart_against_library_solver(self, which):
        # pospart's r-term acts on w+ only: it drops out on K2, so the two
        # sides need different roots
        nl = Nonlinearity(family="pospart", q=3.0, r=2.0)
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3) * (1.0 if which == 1 else -1.0)
        res = scale_to_manifold(mesh, nl, P2, w)

        def phi(t):
            return constraint_phi(mesh, nl, P2, t * w, which)

        t1 = bracket(mesh, nl, P2, w)
        lo, hi = 1e-8 * t1, 2.0 * t1
        assert phi(lo) > 0.0 > phi(hi)
        oracle = brentq(phi, lo, hi, xtol=1e-15, rtol=1e-14)
        assert np.isclose(res.t, oracle, rtol=1e-9, atol=0)
        assert abs(phi(res.t)) <= 1e-10 * res.A
        other = scale_to_manifold(mesh, nl, P2, -w).t
        assert (res.t < other) == (which == 1)

    @pytest.mark.parametrize("family", ["signed", "pospart"])
    @pytest.mark.parametrize("which", [1, 2])
    def test_terms_match_reference(self, family, which):
        # A and the term list against fibering_coefficients: the critical
        # pair (p*, B) first, then (q, lam C) and the r-term of the family
        nl = Nonlinearity(family=family, q=3.0, r=2.5)
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3) * (1.0 if which == 1 else -1.0)
        res = scale_to_manifold(mesh, nl, P2, w)
        c = fibering_coefficients(mesh, nl, P2, w)
        second = np.abs(w) if family == "signed" else np.maximum(w, 0.0)
        want = [(P2.pstar, c.B), (nl.q, P2.lam * c.C),
                (nl.r, P2.lam * integrate(mesh, second ** nl.r))]
        assert np.isclose(res.A, c.A, rtol=1e-14, atol=0)
        assert [e for e, _ in res.terms] == [e for e, _ in want]
        for (_, got), (_, ref) in zip(res.terms, want):
            assert np.isclose(got, ref, rtol=1e-14, atol=0)
        assert (res.terms[2][1] == 0.0) == (family == "pospart"
                                            and which == 2)

    def test_negative_side_mirrors_positive_side(self):
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3)
        t1 = scale_to_manifold(mesh, NL2, P2, w).t
        t2 = scale_to_manifold(mesh, NL2, P2, -w).t
        assert t1 == t2


class TestPairProjection:
    """K3 retraction of a split pair: each part is scaled once, on its own."""

    def test_translated_pair_scales_equally(self):
        # a bump translated by whole cells sees identical local geometry,
        # so the two decoupled scalings agree (a mirrored bump would not:
        # the diagonal split is not mirror symmetric)
        mesh = build_mesh(2, 8)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        prof = lambda s: np.where((s > 0.0) & (s < 0.5),
                                  np.sin(2.0 * np.pi * s), 0.0)
        w_pos = prof(x) * np.sin(np.pi * y)
        w_neg = -prof(x - 0.5) * np.sin(np.pi * y)
        out = retract(mesh, NL2, P2, w_pos + w_neg, KIndex.K3).u
        t_pos = np.max(out) / np.max(w_pos)
        t_neg = np.min(out) / np.min(w_neg)
        assert np.isclose(t_pos, t_neg, rtol=1e-12, atol=0)
        for which in (1, 2):
            resid = abs(constraint_phi(mesh, NL2, P2, out, which))
            assert resid <= 1e-10 * constraint_scale(mesh, P2, out, which)

    def test_decoupling_matches_single_scaling(self):
        mesh = build_mesh(2, 8)
        w_pos, w_neg = split_pair(mesh, seed=5)
        out = retract(mesh, NL2, P2, w_pos + w_neg, KIndex.K3).u
        alone = scale_to_manifold(mesh, NL2, P2, w_pos).t * w_pos
        assert np.allclose(np.maximum(out, 0.0), alone, rtol=1e-12, atol=0)

    def test_trivial_part_rejected(self):
        mesh = build_mesh(2, 8)
        w_pos, _ = split_pair(mesh)
        for u in (w_pos, -w_pos):
            with pytest.raises(LostSignError):
                retract(mesh, NL2, P2, u, KIndex.K3)


class TestConstraintGradient:
    def test_finite_differences_interior_positive(self):
        mesh = build_mesh(2, 4)
        rng = np.random.default_rng(21)
        u = interior_bump(mesh, seed=21) + 0.0
        u[~mesh.boundary] += 0.05
        g = constraint_gradient(mesh, NL2, P2, u, 1)
        h = 1e-5
        for _ in range(3):
            d = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
            d = d / np.linalg.norm(d)
            fd = (constraint_phi(mesh, NL2, P2, u + h * d, 1)
                  - constraint_phi(mesh, NL2, P2, u - h * d, 1)) / (2 * h)
            assert np.isclose(float(np.dot(g, d)), fd, rtol=1e-5, atol=1e-10)

    def test_finite_differences_mixed_sign(self):
        # probe only nodes bounded away from the kink
        mesh = build_mesh(2, 8)
        w_pos, w_neg = split_pair(mesh, seed=8)
        u = w_pos + w_neg
        rng = np.random.default_rng(22)
        h = 1e-6
        mask = np.abs(u) > 0.1
        for which in (1, 2):
            g = constraint_gradient(mesh, NL2, P2, u, which)
            for _ in range(3):
                d = rng.standard_normal(mesh.n_vertices) * mask
                d = d / np.linalg.norm(d)
                fd = (constraint_phi(mesh, NL2, P2, u + h * d, which)
                      - constraint_phi(mesh, NL2, P2, u - h * d, which)) / (2 * h)
                assert np.isclose(float(np.dot(g, d)), fd, rtol=2e-5, atol=1e-9)

    def test_pairing_sign_on_manifold(self):
        mesh = build_mesh(2, 6)
        w = interior_bump(mesh, seed=3)
        u = scale_to_manifold(mesh, NL2, P2, w).t * w
        g = constraint_gradient(mesh, NL2, P2, u, 1)
        plus, _ = plus_minus_parts(u)
        assert float(np.dot(g, plus)) < 0.0

    def test_vanishes_without_the_part(self):
        mesh = build_mesh(2, 4)
        u = -interior_bump(mesh)
        g = constraint_gradient(mesh, NL2, P2, u, 1)
        assert np.all(g == 0.0)


class TestTangentProject:
    def setup_method(self):
        self.mesh = build_mesh(2, 8)
        w_pos, w_neg = split_pair(self.mesh, seed=1)
        self.u3 = retract(self.mesh, NL2, P2, w_pos + w_neg, KIndex.K3).u
        w = interior_bump(self.mesh, seed=1)
        self.u1 = scale_to_manifold(self.mesh, NL2, P2, w).t * w

    def test_annihilates_normal_direction(self):
        plus, _ = plus_minus_parts(self.u1)
        out = tangent_project(self.mesh, NL2, P2, self.u1, plus, KIndex.K1)
        assert np.max(np.abs(out)) <= 1e-12 * np.max(plus)

    def test_output_pairs_to_zero(self):
        rng = np.random.default_rng(2)
        g1 = constraint_gradient(self.mesh, NL2, P2, self.u1, 1)
        for _ in range(5):
            v = rng.standard_normal(self.mesh.n_vertices)
            out = tangent_project(self.mesh, NL2, P2, self.u1, v, KIndex.K1)
            bound = 1e-9 * np.linalg.norm(g1) * np.linalg.norm(v)
            assert abs(float(np.dot(g1, out))) <= bound

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(self.mesh.n_vertices)
        once = tangent_project(self.mesh, NL2, P2, self.u3, v, KIndex.K3)
        twice = tangent_project(self.mesh, NL2, P2, self.u3, once, KIndex.K3)
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))

    def test_sign_changing_pairings(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(self.mesh.n_vertices)
        out = tangent_project(self.mesh, NL2, P2, self.u3, v, KIndex.K3)
        plus, minus = plus_minus_parts(self.u3)
        g1 = constraint_gradient(self.mesh, NL2, P2, self.u3, 1)
        g2 = constraint_gradient(self.mesh, NL2, P2, self.u3, 2)
        bound = 1e-9 * np.linalg.norm(v)
        assert abs(float(np.dot(g1, out))) <= bound * np.linalg.norm(g1)
        assert abs(float(np.dot(g2, out))) <= bound * np.linalg.norm(g2)
        # opposite-sign pairings vanish identically, not just approximately
        assert float(np.dot(g1, minus)) == 0.0
        assert float(np.dot(g2, plus)) == 0.0

    def test_degenerate_base_point(self):
        z = np.zeros(self.mesh.n_vertices)
        v = np.ones(self.mesh.n_vertices)
        with pytest.raises(DegenerateConstraintError):
            tangent_project(self.mesh, NL2, P2, z, v, KIndex.K1)


# (dim, p, q, r): p = 1.5 runs the eps-regularized p-stiffness weight;
# q = r, as every benchmark workload runs, shares the source powers
STATE_CASES = [(2, 1.5, 3.0, 2.5), (3, 2.0, 4.0, 3.0), (3, 1.5, 2.5, 2.0),
               (3, 2.0, 4.0, 4.0), (2, 1.5, 3.0, 3.0)]


def state_fields(mesh, k):
    """An on-sign field of k and a sign-changing field, neither scaled."""
    w_pos, w_neg = split_pair(mesh, seed=6)
    rng = np.random.default_rng(6)
    mixed = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
    on_sign = {KIndex.K1: interior_bump(mesh, seed=6),
               KIndex.K2: -interior_bump(mesh, seed=6),
               KIndex.K3: w_pos + w_neg}[k]
    return on_sign, mixed


def assert_state_matches(state, mesh, nl, params, k, phi_atol=0.0):
    """Every quantity of the state against the standalone reference."""
    u = state.u

    def close(got, want, atol=0.0):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale + atol

    close(state.energy, energy(mesh, nl, params, u))
    close(state.residual, energy_residual(mesh, nl, params, u))
    for which in k.active_constraints:
        scale = constraint_scale(mesh, params, u, which)
        close(state.scales[which], scale)
        close(state.phis[which], constraint_phi(mesh, nl, params, u, which),
              phi_atol * scale)
        close(state._calculus[2][which],
              constraint_gradient(mesh, nl, params, u, which))


class TestIterateState:
    """The solver's per-iterate state against the reference functions."""

    @pytest.mark.parametrize("family", ["signed", "pospart"])
    @pytest.mark.parametrize("dim, p, q, r", STATE_CASES)
    @pytest.mark.parametrize("k", list(KIndex))
    def test_matches_reference_functions(self, k, dim, p, q, r, family):
        mesh = build_mesh(dim, 8 if dim == 2 else 4)
        params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-3)
        nl = Nonlinearity(family=family, q=q, r=r)
        for u in state_fields(mesh, k):
            state = retract(mesh, nl, params, u, k, 1e-10)
            # phi of a retracted field is a cancellation of O(scale) terms
            # down to ~1e-10 * scale: it agrees to rounding of the terms
            assert_state_matches(state, mesh, nl, params, k, phi_atol=1e-13)
            rng = np.random.default_rng(7)
            v = rng.standard_normal(mesh.n_vertices)
            want = tangent_project(mesh, nl, params, state.u, v, k)
            got = state.tangent_project(v)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("family", ["signed", "pospart"])
    @pytest.mark.parametrize("dim, p, q, r", STATE_CASES)
    @pytest.mark.parametrize("k", list(KIndex))
    def test_retracted_state_equals_fresh_state(self, k, dim, p, q, r,
                                                family):
        mesh = build_mesh(dim, 8 if dim == 2 else 4)
        params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-3)
        nl = Nonlinearity(family=family, q=q, r=r)
        on_sign, _ = state_fields(mesh, k)
        cand = retract(mesh, nl, params, 0.8 * on_sign, k, 1e-10)
        fresh = retract(mesh, nl, params, cand.u, k, 1e-10)
        # phi is a cancellation of O(scale) terms down to ~1e-10 * scale,
        # so the two evaluations agree to rounding of the terms, not of phi
        assert_state_matches(cand, mesh, nl, params, k, phi_atol=1e-13)
        assert_state_matches(fresh, mesh, nl, params, k, phi_atol=1e-13)
        assert np.array_equal(cand.u, retract(mesh, nl, params,
                                              0.8 * on_sign, k).u)
        for got, want in zip(cand.relative_residuals,
                             fresh.relative_residuals):
            assert got <= 1e-10 and want <= 1e-10


def _odd_fields(mesh, seed):
    """A smooth and a rough field, each odd under u -> -u(1 - x) bit for
    bit and zero on the boundary."""
    rng = np.random.default_rng(seed)
    x = mesh.vertices
    smooth = np.sin(2.0 * np.pi * x[:, 0]) * np.prod(
        np.sin(np.pi * x[:, 1:]), axis=1) * (1.0 + 0.1 * rng.random(len(x)))
    rough = rng.standard_normal(len(x))
    return [0.5 * (w - w[::-1]) for w in
            (apply_dirichlet(mesh, smooth), apply_dirichlet(mesh, rough))]


class TestInversionOddRetraction:
    """The class retraction of K3 reads part 2 from part 1; on an odd field
    it is the two-part retraction to rounding."""

    @pytest.mark.parametrize("dim, p, q", [(2, 1.5, 3.0), (3, 1.5, 2.5),
                                           (3, 2.0, 4.0), (3, 2.5, 4.0)])
    def test_matches_the_two_part_retraction(self, dim, p, q):
        mesh = build_mesh(dim, 8 if dim == 2 else 4)
        params = RunParameters(p=p, dim=dim, lam=20.0, eps=1e-3)
        nl = Nonlinearity(family="signed", q=q, r=q)

        def close(got, want, scale=None):
            scale = np.max(np.abs(want)) if scale is None else scale
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

        for u in _odd_fields(mesh, seed=dim):
            assert np.array_equal(u, -u[::-1])
            both = retract(mesh, nl, params, u, KIndex.K3, 1e-10)
            odd = retract(mesh, nl, params, u, KIndex.K3, 1e-10,
                          inversion_odd=True)
            assert np.array_equal(odd.u, -odd.u[::-1])
            assert odd.inversion_odd and not both.inversion_odd
            close(odd.u, both.u)
            close(odd.energy, both.energy)
            close(odd.residual, both.residual)
            _, _, grads = odd._calculus
            for which in (1, 2):
                scale = both.scales[which]
                close(odd.scales[which], scale)
                close(odd.phis[which], both.phis[which], scale)
                close(grads[which], both._calculus[2][which])
            # the one-coefficient projections; an odd direction stays odd
            v = _odd_fields(mesh, seed=dim + 1)[1]
            got = odd.tangent_project(v)
            assert np.array_equal(got, -got[::-1])
            close(got, both.tangent_project(v))
            close(odd.remove_multipliers(odd.residual),
                  both.remove_multipliers(both.residual),
                  np.max(np.abs(both.residual)))

    def test_only_for_k3_of_an_odd_f(self):
        mesh = build_mesh(2, 8)
        u = _odd_fields(mesh, seed=0)[0]
        pospart = Nonlinearity(family="pospart", q=3.0, r=3.0)
        for nl, k in ((NL2, KIndex.K1), (pospart, KIndex.K3)):
            with pytest.raises(ValueError):
                retract(mesh, nl, P2, u, k, inversion_odd=True)
