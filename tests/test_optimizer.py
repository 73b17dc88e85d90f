import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import plap.functional
import plap.nehari
import plap.optimizer
from plap.cli import load_config
from plap.errors import ConfigurationError, LostSignError, NoRootError
from plap.functional import Nonlinearity, RunParameters, sobolev_threshold
from plap.mesh import LaplacePreconditioner, apply_dirichlet, build_mesh
from plap.nehari import KIndex, retract
from plap.optimizer import (ARMIJO_C, BACKTRACK, INVERSION_EVEN, INVERSION_ODD,
                            LBFGS_COSINE, LBFGS_PAIRS, K3_LEAN,
                            MAX_BACKTRACKS, STEP_INIT, SolverConfig,
                            _LbfgsMemory, _symmetry_class, descend,
                            initial_shape, lambda_sweep, solve_three)
from plap.verify import check_membership, measure, verify_fields

from conftest import (_LUPreconditioner, coarse_config, constraint_phi,
                      constraint_scale, energy, fibering_coefficients,
                      growth_constants, initial_point, two_loop_direction)

P2 = RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8)
NL2 = Nonlinearity(family="signed", q=3.0, r=3.0)
P3 = RunParameters(p=2.0, dim=3, lam=50.0, eps=1e-8)
NL3 = Nonlinearity(family="signed", q=4.0, r=4.0)


def _fixed_step_descent(mesh, config, k, initial, P):
    """The descent along the preconditioned residual with the same
    Armijo backtracking from t = STEP_INIT, kept as the oracle for the
    critical level the L-BFGS direction of `descend` reaches; the start
    and each direction pass through the projector of the class `descend`
    runs in.  Returns (final energy, iterations)."""
    nl, params, tol = config.nonlin, config.params, config.constraint_tol
    _, in_class = _symmetry_class(k, nl)
    state = retract(mesh, nl, params, in_class(initial), k, tol)
    for iterations in range(config.max_iters):
        r = state.remove_multipliers(state.residual)
        g = P.solve(r)
        slope = float(np.dot(r, g))
        if math.sqrt(max(slope, 0.0)) <= config.grad_tol:
            return state.energy, iterations
        gt = state.tangent_project(in_class(g))
        t = STEP_INIT
        for _ in range(plap.optimizer.MAX_BACKTRACKS):
            cand = retract(mesh, nl, params, state.u - t * gt, k, tol)
            if cand.energy <= state.energy - ARMIJO_C * t * slope:
                break
            t *= BACKTRACK
        else:
            raise AssertionError("the fixed-step line search gave up")
        state = cand
    raise AssertionError("the fixed-step descent reached its cap")


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


class TestInitialShape:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_k2_start_is_the_negated_k1_start(self, dim, m, seed):
        mesh = build_mesh(dim, m)
        w1 = initial_shape(mesh, KIndex.K1, seed)
        w2 = initial_shape(mesh, KIndex.K2, seed)
        assert np.all(w1 >= 0.0) and np.any(w1 > 0.0)
        assert w2.tobytes() == (-w1).tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 8)])
    def test_k3_start_less_its_lean_is_odd_in_x1(self, dim, m, seed):
        mesh = build_mesh(dim, m)
        v = mesh.vertices
        lean = apply_dirichlet(mesh, (v[:, 1] - v[:, 0])
                               * np.prod(np.sin(np.pi * v), axis=1))
        w = initial_shape(mesh, KIndex.K3, seed) - K3_LEAN * lean
        # x_1 -> 1 - x_1 as a vertex permutation, read from the coordinates
        lattice = np.rint(v * m).astype(int)
        index = {tuple(x): i for i, x in enumerate(lattice.tolist())}
        lattice[:, 0] = m - lattice[:, 0]
        mirror = np.array([index[tuple(x)] for x in lattice.tolist()])
        assert np.any(w > 0.0) and np.any(w < 0.0)
        assert np.max(np.abs(w + w[mirror])) <= 1e-15 * np.max(np.abs(w))


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


def held_pairs(memory):
    """The pairs `memory` holds, oldest first, as (s, y, K^-1 y, <s, y>) in
    its scaling, copied out of its ring slots."""
    m = memory._len
    slots = [(memory._next - m + i) % LBFGS_PAIRS for i in range(m)]
    return [(s, y, ky, float(np.dot(s, y))) for s, y, ky in (
        [block[slot].copy() for block in memory._rows] for slot in slots)]


class TestSpectralStep:
    """The direction of `_LbfgsMemory` on the 2D res-4 mesh, whose interior
    stiffness is the five-point stencil: the sine modes
    e_jk = sin(j pi x) sin(k pi y) have K e_jk = (4 sin^2(j pi/8) +
    4 sin^2(k pi/8)) e_jk; the compact direction against the two-loop
    recursion on the res-16 mesh; and `descend`'s memory of curvature
    pairs."""

    LAM11 = 4.0 - 2.0 * math.sqrt(2.0)     # 8 sin^2(pi/8)
    LAM21 = 4.0 - math.sqrt(2.0)           # 4 sin^2(pi/4) + 4 sin^2(pi/8)

    @pytest.fixture(scope="class")
    def modes(self):
        mesh = build_mesh(2, 4)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        e11 = apply_dirichlet(mesh, np.sin(np.pi * x) * np.sin(np.pi * y))
        e21 = apply_dirichlet(mesh,
                              np.sin(2 * np.pi * x) * np.sin(np.pi * y))
        return mesh, LaplacePreconditioner(mesh), e11, e21

    @staticmethod
    def pair(P, s, y):
        return (s, y, P.solve(y), float(np.dot(s, y)))

    @staticmethod
    def interior(mesh, rng):
        return apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))

    def random_pairs(self, mesh, P, n, seed):
        # y near K s, so <s, y> > 0 as in the pairs `descend` keeps
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n):
            y = self.interior(mesh, rng)
            s = P.solve(y) * (1.0 + 0.5 * rng.random(mesh.n_vertices))
            pairs.append(self.pair(P, s, y))
            assert pairs[-1][3] > 0.0
        return pairs

    @staticmethod
    def filled(n, pairs):
        """A memory of n-vertex fields that was handed `pairs` in order."""
        memory = _LbfgsMemory(n)
        for pair in pairs:
            memory.append(*pair)
        return memory

    def direction(self, P, pairs, r):
        return self.filled(r.size, pairs).direction(r, P.solve(r))

    def test_no_pairs_is_the_laplace_solve(self, modes):
        # with no pairs the direction is g itself, not a copy of it
        mesh, P, _, _ = modes
        r = self.interior(mesh, np.random.default_rng(3))
        assert np.array_equal(self.direction(P, [], r), P.solve(r))
        g = P.solve(r)
        assert _LbfgsMemory(mesh.n_vertices).direction(r, g) is g

    @pytest.fixture(scope="class")
    def square16(self):
        mesh = build_mesh(2, 16)
        return mesh, LaplacePreconditioner(mesh)

    @pytest.mark.parametrize("n", [1, 3, LBFGS_PAIRS, 2 * LBFGS_PAIRS])
    def test_direction_is_the_two_loop(self, square16, n):
        # past LBFGS_PAIRS appends the oldest pairs leave the ring slots,
        # and the two-loop sees only the newest LBFGS_PAIRS
        mesh, P = square16
        pairs = self.random_pairs(mesh, P, n, seed=100 + n)
        memory = self.filled(mesh.n_vertices, pairs)
        self.assert_two_loop(mesh, P, memory, pairs[-LBFGS_PAIRS:], seed=n)

    def test_direction_after_clear_is_the_two_loop(self, square16):
        mesh, P = square16
        pairs = self.random_pairs(mesh, P, LBFGS_PAIRS + 5, seed=7)
        memory = self.filled(mesh.n_vertices, pairs)
        memory.clear()
        r = self.interior(mesh, np.random.default_rng(8))
        g = P.solve(r)
        assert memory.direction(r, g) is g
        for pair in pairs[:3]:
            memory.append(*pair)
        self.assert_two_loop(mesh, P, memory, pairs[:3], seed=9)

    def test_direction_is_the_two_loop_as_steps_shrink(self, square16):
        # near convergence <s, y> falls by orders of magnitude along the
        # memory: here from 1 to 1e-14 over LBFGS_PAIRS pairs, the regime
        # where an inverse of the unscaled S^T Y lost accuracy
        mesh, P = square16
        pairs = []
        for i, (s, y, _, _) in enumerate(self.random_pairs(
                mesh, P, LBFGS_PAIRS, seed=13)):
            c = 10.0 ** (-7.0 * i / (LBFGS_PAIRS - 1)) / math.sqrt(
                float(np.dot(s, y)))
            pairs.append(self.pair(P, c * s, c * y))
        assert pairs[0][3] == pytest.approx(1.0)
        assert pairs[-1][3] == pytest.approx(1e-14)
        memory = self.filled(mesh.n_vertices, pairs)
        self.assert_two_loop(mesh, P, memory, pairs, seed=14)

    def assert_two_loop(self, mesh, P, memory, pairs, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            r = self.interior(mesh, rng)
            want = two_loop_direction(pairs, r, P.solve(r))
            got = memory.direction(r, P.solve(r))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 3, LBFGS_PAIRS])
    def test_newest_pair_is_a_secant(self, modes, n):
        mesh, P, _, _ = modes
        pairs = self.random_pairs(mesh, P, n, seed=n)
        s, y, _, _ = pairs[-1]
        got = self.direction(P, pairs, y)
        assert np.max(np.abs(got - s)) <= 1e-12 * np.max(np.abs(s))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_pairs_along_cK_give_the_scaled_solve(self, modes, c):
        # y = c K s for every pair: gamma = 1/c, and H0 = K^-1 / c already
        # maps each y to its s, so no update changes it
        mesh, P, e11, e21 = modes
        pairs = [self.pair(P, s, c * y) for s, y in (
            (e11, self.LAM11 * e11), (e21, self.LAM21 * e21),
            (e11 + e21, self.LAM11 * e11 + self.LAM21 * e21))]
        rng = np.random.default_rng(5)
        for _ in range(3):
            r = self.interior(mesh, rng)
            want = P.solve(r) / c
            got = self.direction(P, pairs, r)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_positive_definite_and_symmetric(self, modes):
        mesh, P, _, _ = modes
        pairs = self.random_pairs(mesh, P, LBFGS_PAIRS, seed=11)
        rng = np.random.default_rng(12)
        r1, r2 = self.interior(mesh, rng), self.interior(mesh, rng)
        h1, h2 = self.direction(P, pairs, r1), self.direction(P, pairs, r2)
        assert np.dot(r1, h1) > 0.0 and np.dot(r2, h2) > 0.0
        assert np.dot(r1, h2) == pytest.approx(np.dot(r2, h1), rel=1e-12)

    @staticmethod
    def spy(monkeypatch):
        """Record the pairs the memory of `descend` holds at every pass."""
        memories = []
        direction = _LbfgsMemory.direction

        def recorded(memory, r, g):
            memories.append(held_pairs(memory))
            return direction(memory, r, g)

        monkeypatch.setattr(_LbfgsMemory, "direction", recorded)
        return memories

    def test_failed_cosine_test_stores_no_pair(self, monkeypatch):
        # a cosine bound above 1 rejects every pair, so each direction is
        # the Laplace solve and the descent is the oracle's, bit for bit
        monkeypatch.setattr(plap.optimizer, "LBFGS_COSINE", 2.0)
        memories = self.spy(monkeypatch)
        params = replace(P3, lam=20.0)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=4,
                              max_iters=500)
        mesh = build_mesh(3, 4)
        P = LaplacePreconditioner(mesh)
        u0 = initial_point(mesh, nl, params, KIndex.K1, config.seed)
        want, fixed_iterations = _fixed_step_descent(mesh, config,
                                                     KIndex.K1, u0, P)
        _, rep = descend(mesh, config, KIndex.K1, u0, P)
        assert rep.converged and rep.iterations == fixed_iterations
        assert rep.energy == want
        assert len(memories) == rep.iterations
        assert not any(memories)

    def test_memory_bound_and_reset(self, monkeypatch):
        # the memory fills up to its bound, keeps only pairs that pass the
        # cosine test, and is empty after an iteration that backtracked:
        # the next pass sees at most the pair of that iteration's step.
        # The square16-p1.5 K3 descent (97 iterations) fills the memory.
        memories = self.spy(monkeypatch)
        config = SolverConfig(params=P2, nonlin=NL2, cells_per_side=16,
                              grad_tol=1e-6, max_iters=1000)
        mesh = build_mesh(2, 16)
        P = LaplacePreconditioner(mesh)
        _, rep = descend(mesh, config, KIndex.K3,
                         initial_shape(mesh, KIndex.K3, 0), P)
        assert rep.converged and any(rep.backtracks)
        assert len(memories) == rep.iterations
        assert max(map(len, memories)) == LBFGS_PAIRS
        assert memories[0] == []
        for before, after, b in zip(memories, memories[1:], rep.backtracks):
            if b:
                assert len(after) <= 1
            else:
                assert len(after) in (len(before), min(len(before) + 1,
                                                       LBFGS_PAIRS))
            for s, y, ky, sy in after:
                assert sy > LBFGS_COSINE * P.norm(s) * math.sqrt(
                    float(np.dot(y, ky)))
        assert rep.step_history == tuple(BACKTRACK ** b
                                         for b in rep.backtracks)

    @pytest.mark.parametrize("at_pass", [0, 5])
    def test_failed_search_stops_at_the_last_iterate(self, monkeypatch,
                                                     at_pass):
        # each pass makes one line search; when the search of pass
        # `at_pass` fails, the descent stops there and returns the state
        # that search started from.  K1 at 3D res 4, q = r = 3, converges
        # in 11 iterations unpatched.
        starts = []
        search = plap.optimizer._armijo_search

        def failing(mesh, config, k, state, gt, slope):
            starts.append(state.u)
            if len(starts) == at_pass + 1:
                return None, 0.0, MAX_BACKTRACKS, 0
            return search(mesh, config, k, state, gt, slope)

        monkeypatch.setattr(plap.optimizer, "_armijo_search", failing)
        params = replace(P3, lam=20.0)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=4,
                              max_iters=500)
        mesh = build_mesh(3, 4)
        u0 = initial_point(mesh, nl, params, KIndex.K1, config.seed)
        u, rep = descend(mesh, config, KIndex.K1, u0,
                         LaplacePreconditioner(mesh))
        assert not rep.converged and rep.iterations == at_pass
        assert rep.error == (f"no acceptable step in {MAX_BACKTRACKS} "
                             "backtracks")
        assert len(starts) == len(rep.energy_history) == at_pass + 1
        assert np.array_equal(u, starts[-1])
        assert rep.energy == rep.energy_history[-1]
        assert abs(energy(mesh, nl, params, u) - rep.energy) <= (
            1e-12 * abs(rep.energy))

    @pytest.mark.parametrize("k", [KIndex.K1, KIndex.K3])
    def test_non_descending_direction_stops(self, monkeypatch, coarse_run,
                                            k):
        # a negated L-BFGS direction has <r, d> < 0, so the first pass
        # that holds a pair stops the descent without a search; the
        # passes before it search along g = K^-1 r (its inversion-odd
        # part on K3 of this odd f), and it returns their last iterate
        passes, accepted = [], []
        direction = _LbfgsMemory.direction
        search = plap.optimizer._armijo_search

        def negated(memory, r, g):
            passes.append(len(held_pairs(memory)))
            d = direction(memory, r, g)
            return -d if passes[-1] else d

        def recorded(*args):
            found = search(*args)
            accepted.append(found[0].u)
            return found

        monkeypatch.setattr(_LbfgsMemory, "direction", negated)
        monkeypatch.setattr(plap.optimizer, "_armijo_search", recorded)
        config, mesh, _ = coarse_run
        u, rep = descend(mesh, config, k,
                         initial_shape(mesh, k, config.seed),
                         LaplacePreconditioner(mesh))
        assert rep.error == "search direction does not descend"
        assert not rep.converged and rep.iterations > 0
        assert passes == [0] * rep.iterations + [1]
        assert len(accepted) == rep.iterations
        assert np.array_equal(u, accepted[-1])
        assert rep.energy == rep.energy_history[-1]
        history = np.array(rep.energy_history)
        assert np.all(np.diff(history) <= 0.0)

    @pytest.mark.parametrize("k, share", [(KIndex.K1, 0.5),
                                          (KIndex.K3, 0.8)])
    def test_same_level_in_fewer_iterations(self, k, share):
        # q = r = 3 gives the fixed step a slow mode even at res 4: K1 takes
        # 35 iterations and K3 20 with it, 11 and 11 with the L-BFGS step
        params = replace(P3, lam=20.0)
        nl = Nonlinearity(family="signed", q=3.0, r=3.0)
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=4,
                              max_iters=500)
        mesh = build_mesh(3, 4)
        P = LaplacePreconditioner(mesh)
        u0 = initial_point(mesh, nl, params, k, config.seed)
        want, fixed_iterations = _fixed_step_descent(mesh, config, k, u0, P)
        _, rep = descend(mesh, config, k, u0, P)
        assert rep.converged and rep.error is None
        assert abs(rep.energy - want) <= 1e-10 * abs(want)
        assert 0 < rep.iterations <= share * fixed_iterations

    def test_step_record(self, reference_run):
        _, _, triple = reference_run
        for rep in triple.reports:
            assert len(rep.step_history) == rep.iterations > 0
            assert len(rep.backtracks) == rep.iterations
            assert rep.step_history == tuple(BACKTRACK ** b
                                             for b in rep.backtracks)
            assert all(b >= 0 for b in rep.backtracks)


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
            check = check_membership(
                measure(mesh, config.nonlin, config.params, u), kind)
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

    @pytest.mark.parametrize("params, nl, m, k, scatters_per_pass", [
        (P2, NL2, 8, KIndex.K1, 1),
        (P2, NL2, 8, KIndex.K3, 2),
        (P3, NL3, 4, KIndex.K1, 0),
        (P3, NL3, 4, KIndex.K3, 0),
    ], ids=["square-p1.5-K1", "square-p1.5-K3", "cube-p2-K1", "cube-p2-K3"])
    def test_kernel_call_budget(self, monkeypatch, params, nl, m, k,
                                scatters_per_pass):
        # p != 2: one gradient table per retract trial, the retraction of
        # the start included; p-stiffness scatters per pass: u alone on K1,
        # u and u_plus on K3 (this f is odd, so K3 runs in the inversion-odd
        # class and u_minus is the mirror of u_plus).  p = 2: one stencil
        # application per trial instead, and no table or scatter at all
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=m,
                              grad_tol=1e-6, max_iters=200)
        mesh = build_mesh(params.dim, m)
        u0 = initial_point(mesh, nl, params, k, config.seed)
        counts = {"gradient_table": 0, "p_stiffness_vector": 0,
                  "laplace_apply": 0, "trials": 0, "solve": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("gradient_table", "p_stiffness_vector", "laplace_apply"):
            for mod in (plap.nehari, plap.functional, plap.optimizer):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name,
                                        counted(name, getattr(mod, name)))
        monkeypatch.setattr(plap.optimizer, "retract",
                            counted("trials", plap.optimizer.retract))
        monkeypatch.setattr(LaplacePreconditioner, "solve",
                            counted("solve", LaplacePreconditioner.solve))
        _, rep = descend(mesh, config, k, u0, LaplacePreconditioner(mesh))
        assert rep.error is None and rep.iterations > 0
        assert rep.symmetry == (INVERSION_ODD if k is KIndex.K3
                                else INVERSION_EVEN)
        passes = rep.iterations + 1
        assert counts["trials"] >= rep.iterations
        if params.p == 2.0:
            assert counts["gradient_table"] == 0
            assert counts["p_stiffness_vector"] == 0
            assert counts["laplace_apply"] == counts["trials"]
        else:
            assert counts["laplace_apply"] == 0
            assert counts["gradient_table"] <= counts["trials"]
            assert (counts["p_stiffness_vector"]
                    <= scatters_per_pass * passes)
        # the L-BFGS step reads the solve each pass already makes
        assert counts["solve"] <= passes

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
        u, rep = descend(mesh, config, KIndex.K1, 1.3 * u0,
                         LaplacePreconditioner(mesh))
        assert rep.converged
        assert np.all(u >= 0.0)
        _, in_class = _symmetry_class(KIndex.K1, nl)
        E0 = energy(mesh, nl, params, retract(mesh, nl, params,
                                              in_class(1.3 * u0),
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

        def counted(mesh, nl, params, u, k, tol_rel, **kwargs):
            calls.append(k)
            if len(calls) == 2:
                # the first trial step, moved off the sign of K1
                u = -np.abs(u)
            try:
                return retract_state(mesh, nl, params, u, k, tol_rel,
                                     **kwargs)
            except LostSignError as exc:
                lost.append(exc)
                raise

        monkeypatch.setattr(plap.optimizer, "retract", counted)
        _, rep = descend(mesh, config, KIndex.K1, u0,
                         LaplacePreconditioner(mesh))
        assert rep.converged and rep.error is None
        assert len(calls) >= len(rep.energy_history) > 1
        assert len(lost) == 1

    def test_stalled_descent_returns_its_last_iterate(self, monkeypatch):
        # p < 2 on a coarse mesh the K3 descent chatters at the sign
        # interface, and some of its iterations accept only the sixth trial
        # or a later one; a line search of 5 trials gives up at the first
        # of them, before the cap
        monkeypatch.setattr(plap.optimizer, "MAX_BACKTRACKS", 5)
        config = SolverConfig(
            params=RunParameters(p=1.5, dim=2, lam=20.0, eps=1e-8),
            nonlin=Nonlinearity(family="signed", q=2.5, r=2.5),
            cells_per_side=5, grad_tol=1e-6, max_iters=300)
        mesh = build_mesh(2, config.cells_per_side)
        triple = solve_three(config, mesh)
        rep = triple.reports[2]
        assert rep.error is not None and not rep.converged
        assert rep.error == "no acceptable step in 5 backtracks"
        assert 0 < rep.iterations < config.max_iters
        assert len(rep.step_history) == len(rep.backtracks) == rep.iterations
        assert rep.energy_history[-1] == rep.energy
        assert np.isfinite(rep.max_constraint_residual)
        E3 = energy(mesh, config.nonlin, config.params, triple.u3)
        assert abs(E3 - rep.energy) <= 1e-12 * abs(rep.energy)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_changing_descent_converges_for_p_below_2(self, seed):
        # with p < 2 the sign-changing descent along the preconditioned
        # residual alone ran to this cap and failed u3_euler_lagrange
        config = SolverConfig(
            params=P2, nonlin=Nonlinearity(family="signed", q=2.5, r=2.5),
            cells_per_side=8, grad_tol=1e-6, max_iters=1000, seed=seed)
        mesh = build_mesh(2, config.cells_per_side)
        triple = solve_three(config, mesh)
        for rep in triple.reports:
            assert rep.converged and rep.error is None
            assert rep.iterations < config.max_iters
        checks = verify_fields(mesh, config.nonlin, config.params,
                               triple.fields(),
                               residual_tol=10.0 * config.grad_tol)
        assert [c.name for c in checks if not c.passed] == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 9, 40, 100,
                                      1783054435])
    def test_sign_changing_start_leans_to_the_cell_diagonal(self, seed):
        # with the start exactly antisymmetric in x_1 - 1/2, the K3 descent
        # at seeds 9, 40 and 100 reached the nodal line x_1 + x_2 = 1
        # (E 1.428971), sat on the clip kink there and stopped in the line
        # search with u3_euler_lagrange failing; leaning toward x_1 = x_2
        # converges.  The iteration budget is the L-BFGS memory's: with 64
        # pairs these seeds take 152 to 230 iterations (seed 40 the most),
        # with 32 pairs they took 185 to 265, with 8 pairs 325 to 605, and
        # 1783054435 stopped in the line search one step from grad-tol.
        # the square16-p1.5 benchmark workload
        config = SolverConfig(params=P2, nonlin=NL2, cells_per_side=16,
                              grad_tol=1e-6, max_iters=1000, seed=seed)
        mesh = build_mesh(2, config.cells_per_side)
        u, rep = descend(mesh, config, KIndex.K3,
                         initial_shape(mesh, KIndex.K3, seed),
                         LaplacePreconditioner(mesh))
        assert rep.converged and rep.error is None
        assert rep.iterations < 320
        assert rep.energy == pytest.approx(1.4319544064, rel=1e-9)
        checks = verify_fields(mesh, config.nonlin, config.params, [u],
                               residual_tol=10.0 * config.grad_tol)
        assert [c.name for c in checks if not c.passed] == []

    def test_res4_sign_changing_descent_converges(self):
        # the smallest square config (res 4, p = 1.5, q = r = 3, 200
        # iterations), which the benchmark runs as its smoke test and
        # warm-up: a K3 descent that stalls there fails that run's
        # correctness check.  A sign slip in the K3 part co-vector, s K(s
        # u_s) for K(s u_s), left the cubes converging but stalled it at 20
        # of seeds 0-59, 5 of them below 20
        mesh = build_mesh(2, 4)
        for seed in range(20):
            config = SolverConfig(params=P2, nonlin=NL2, cells_per_side=4,
                                  grad_tol=1e-6, max_iters=200, seed=seed)
            _, rep = descend(mesh, config, KIndex.K3,
                             initial_shape(mesh, KIndex.K3, seed),
                             LaplacePreconditioner(mesh))
            assert rep.converged and rep.error is None, seed

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

        def failing(*args, **kwargs):
            # the start and three trials retract, every later trial fails
            calls.append(args)
            if len(calls) > 4:
                raise exc
            return retract_state(*args, **kwargs)

        monkeypatch.setattr(plap.optimizer, "retract", failing)
        u, rep = descend(mesh, config, KIndex.K1, u0,
                         LaplacePreconditioner(mesh))
        assert rep.error == error and not rep.converged
        assert rep.iterations == len(rep.energy_history) - 1 > 0
        assert len(rep.step_history) == len(rep.backtracks) == rep.iterations
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

    def test_reference_levels_at_seed_0(self, reference_run):
        # the critical levels recorded for the reference run at seed 0;
        # u2 is the mirror of u1
        _, _, triple = reference_run
        want = (0.33017257511936166, 0.33017257511936166, 0.7561816218596282)
        for rep, level in zip(triple.reports, want):
            assert abs(rep.energy - level) <= 1e-10 * level, rep.kind

    def test_failed_initial_point_reports_every_constraint(self,
                                                           monkeypatch):
        shape = plap.optimizer.initial_shape

        def zero_k3(mesh, k, seed):
            # retracting onto K3 clips away both (empty) parts
            if k is KIndex.K3:
                return np.zeros(mesh.n_vertices)
            return shape(mesh, k, seed)

        monkeypatch.setattr(plap.optimizer, "initial_shape", zero_k3)
        config = coarse_config()
        mesh = build_mesh(2, config.cells_per_side)
        rep = solve_three(config, mesh).reports[2]
        assert rep.error.startswith("initial point failed")
        assert len(rep.constraint_residuals) == 2
        assert all(np.isnan(x) for x in rep.constraint_residuals)

    def test_deterministic_rerun(self, coarse_run):
        config, mesh, triple = coarse_run
        again = solve_three(config, mesh)
        for a, b in zip(triple.fields(), again.fields()):
            assert np.array_equal(a, b)
        assert triple.reports == again.reports


def _spy_descend(monkeypatch):
    """Record the kind of every descent `plap.optimizer` runs."""
    kinds = []
    real = plap.optimizer.descend

    def spy(mesh, config, k, *args):
        kinds.append(k.name)
        return real(mesh, config, k, *args)

    monkeypatch.setattr(plap.optimizer, "descend", spy)
    return kinds


class TestK2Mirror:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("params, nl, m", [(P2, NL2, 6), (P3, NL3, 4)])
    def test_mirror_is_the_k2_descent(self, monkeypatch, params, nl, m,
                                      seed):
        # oracle: the K2 descent itself, from its own start
        config = SolverConfig(params=params, nonlin=nl, cells_per_side=m,
                              seed=seed)
        mesh = build_mesh(params.dim, m)
        P = LaplacePreconditioner(mesh)
        u2, rep2 = descend(mesh, config, KIndex.K2,
                           initial_shape(mesh, KIndex.K2, seed), P)
        kinds = _spy_descend(monkeypatch)
        triple = solve_three(config, mesh)
        assert kinds == ["K1", "K3"]
        assert np.array_equal(triple.u2, u2)
        assert np.array_equal(np.signbit(triple.u2), np.signbit(u2))
        assert triple.reports[1] == replace(rep2, mirror_of="K1")
        assert triple.reports[0].mirror_of is None
        assert triple.reports[2].mirror_of is None

    def test_pospart_runs_its_own_k2_descent(self, monkeypatch):
        config = replace(coarse_config(), nonlin=Nonlinearity(
            family="pospart", q=3.0, r=3.0))
        kinds = _spy_descend(monkeypatch)
        triple = solve_three(config, build_mesh(2, config.cells_per_side))
        assert kinds == ["K1", "K2", "K3"]
        assert all(rep.mirror_of is None for rep in triple.reports)

    def test_k1_error_runs_its_own_k2_descent(self, monkeypatch):
        # no line-search trial at all: every descent stops on its first
        # iteration with an error
        monkeypatch.setattr(plap.optimizer, "MAX_BACKTRACKS", 0)
        config = coarse_config()
        mesh = build_mesh(2, config.cells_per_side)
        u2, rep2 = descend(mesh, config, KIndex.K2,
                           initial_shape(mesh, KIndex.K2, config.seed),
                           LaplacePreconditioner(mesh))
        kinds = _spy_descend(monkeypatch)
        triple = solve_three(config, mesh)
        assert kinds == ["K1", "K2", "K3"]
        assert triple.reports[0].error is not None
        assert triple.reports[1] == rep2 and rep2.mirror_of is None
        assert np.array_equal(triple.u2, u2)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _off_class(u: np.ndarray) -> float:
    """max |u + u(1 - x)| / max |u|: zero for an inversion-odd field."""
    return float(np.max(np.abs(u + u[::-1])) / np.max(np.abs(u)))


def _solve_script(name: str):
    config = load_config(SCRIPTS / name).solver
    return solve_three(config, build_mesh(config.params.dim,
                                          config.cells_per_side))


class TestInversionClass:
    """K1 and K2 are solved in the class {u(1 - x) = u(x)}; for odd f, K3
    is solved in the class {u(1 - x) = -u(x)}."""

    @pytest.mark.parametrize("name, index", [
        ("square16.cfg", 0), ("reference.cfg", 0), ("pospart.cfg", 1)],
        ids=["square16-u1", "reference-u1", "pospart-u2"])
    def test_seed_0_one_signed_field_is_inversion_even(self, name, index):
        # every class iterate is even bit for bit; the pospart u2 is a
        # descent of its own, not the mirror of u1
        triple = _solve_script(name)
        u = triple.fields()[index]
        assert np.array_equal(u, u[::-1])
        assert triple.reports[index].symmetry == INVERSION_EVEN
        assert triple.reports[index].mirror_of is None

    # (dim, p, q, r, cells per side): the regularized p < 2 path in 2D and
    # 3D, and the p = 2 cube
    @pytest.mark.parametrize("dim, p, q, r, m", [
        (2, 1.5, 3.0, 2.5, 8), (3, 1.5, 2.8, 2.5, 4), (3, 2.0, 4.0, 3.0, 4)])
    @pytest.mark.parametrize("family", ["signed", "pospart"])
    @pytest.mark.parametrize("k", [KIndex.K1, KIndex.K2])
    def test_even_class_level_is_the_unrestricted_level(
            self, monkeypatch, dim, p, q, r, m, family, k):
        # oracle: the same descent from the same start with no class
        config = SolverConfig(
            params=RunParameters(p=p, dim=dim, lam=20.0, eps=1e-8),
            nonlin=Nonlinearity(family=family, q=q, r=r), cells_per_side=m)
        mesh = build_mesh(dim, m)
        P = LaplacePreconditioner(mesh)
        start = initial_shape(mesh, k, config.seed)
        u, rep = descend(mesh, config, k, start, P)
        monkeypatch.setattr(plap.optimizer, "_symmetry_class",
                            lambda k, nl: (None, lambda v: v))
        free_u, free = descend(mesh, config, k, start, P)
        assert rep.converged and free.converged
        assert rep.symmetry == INVERSION_EVEN and free.symmetry is None
        assert np.array_equal(u, u[::-1])
        assert not np.array_equal(free_u, free_u[::-1])
        assert abs(rep.energy - free.energy) <= 1e-10 * free.energy

    @pytest.mark.parametrize("name", ["square16.cfg", "reference.cfg"])
    def test_seed_0_u3_is_inversion_odd(self, name):
        # every class iterate is odd bit for bit
        triple = _solve_script(name)
        assert _off_class(triple.u3) == 0.0
        assert [rep.symmetry for rep in triple.reports] == [
            INVERSION_EVEN, INVERSION_EVEN, INVERSION_ODD]

    def test_pospart_u3_is_unchanged_and_off_class(self):
        # pospart is not odd, so its K3 descent is not restricted: u3 is the
        # level recorded before the class existed, and breaks the symmetry
        triple = _solve_script("pospart.cfg")
        rep = triple.reports[2]
        assert rep.converged and rep.symmetry is None
        assert abs(rep.energy - 1.0972082409804238) <= 1e-12 * rep.energy
        assert abs(_off_class(triple.u3) - 0.262) <= 1e-3

    def test_square16_k3_converges_within_150_iterations(self):
        # without the class, seeds 0-79 take 139-275 iterations
        config = load_config(SCRIPTS / "square16.cfg").solver
        mesh = build_mesh(config.params.dim, config.cells_per_side)
        P = LaplacePreconditioner(mesh)
        for seed in range(10):
            _, rep = descend(mesh, replace(config, seed=seed), KIndex.K3,
                             initial_shape(mesh, KIndex.K3, seed), P)
            assert rep.converged and rep.iterations <= 150, seed
            assert abs(rep.energy - 1.4319544064) <= 1e-9, seed

    @pytest.mark.parametrize("seed", [13])
    def test_square16_round_off_stop_at_grad_tol_1e_7(self, seed):
        # near grad-tol 1e-7 the predicted decrease t <r, H r> falls below
        # the round-off of E, so no Armijo test passes; of seeds 0-39 this
        # one stops there, at the converged level (seeds 4 and 17 stopped
        # too while the class iterates were odd only to round-off)
        config = replace(load_config(SCRIPTS / "square16.cfg").solver,
                         grad_tol=1e-7, seed=seed)
        mesh = build_mesh(config.params.dim, config.cells_per_side)
        _, rep = descend(mesh, config, KIndex.K3,
                         initial_shape(mesh, KIndex.K3, seed),
                         LaplacePreconditioner(mesh))
        assert rep.error == (f"no acceptable step in {MAX_BACKTRACKS} "
                             "backtracks")
        assert not rep.converged and rep.projected_norm < 1e-6
        want = 1.4319544064434107
        assert abs(rep.energy - want) <= 1e-12 * want


class TestLambdaSweep:
    def test_rows_and_monotone_scaling(self):
        config = coarse_config()
        rows = lambda_sweep(config, [1.0, 2.0, 4.0])
        assert len(rows) == 3
        assert [row.lam for row in rows] == [1.0, 2.0, 4.0]
        ts = [row.t_lambda for row in rows]
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))
        mesh = build_mesh(2, config.cells_per_side)
        w = initial_shape(mesh, KIndex.K1, config.seed)
        for row in rows:
            params = RunParameters(p=P2.p, dim=2, lam=row.lam, eps=P2.eps)
            c = fibering_coefficients(mesh, config.nonlin, params, w)
            c3 = growth_constants(config.nonlin).c3
            bound = (c.A / (c3 * row.lam * c.C)) ** (
                1.0 / (config.nonlin.q - params.p))
            assert row.t_lambda <= bound * (1 + 1e-12)
            for e in (row.c1, row.c2, row.c3):
                assert np.isfinite(e)

    def test_sweep_scales_the_k1_start_of_the_solve(self, monkeypatch):
        # t_lambda w is the retraction of K1's start w, bit for bit, and w
        # is the start of every K1 descent the sweep runs
        config = coarse_config()
        starts = []
        real = plap.optimizer.descend

        def spy(mesh, config, k, initial, P):
            if k is KIndex.K1:
                starts.append(initial)
            return real(mesh, config, k, initial, P)

        monkeypatch.setattr(plap.optimizer, "descend", spy)
        rows = lambda_sweep(config, [1.0, 4.0])
        mesh = build_mesh(2, config.cells_per_side)
        w = initial_shape(mesh, KIndex.K1, config.seed)
        assert [start.tobytes() for start in starts] == [w.tobytes()] * 2
        for row in rows:
            params = replace(config.params, lam=row.lam)
            u = retract(mesh, config.nonlin, params, w, KIndex.K1,
                        config.constraint_tol).u
            assert (row.t_lambda * w).tobytes() == u.tobytes()

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

    def test_sweep_script_rows(self, monkeypatch):
        # rows of scripts/sweep.cfg recorded with a K2 descent of its own
        # at every coupling; the sweep now runs K1 and K3 only.  c3 is the
        # level of the inversion-odd class, 2.9e-10 to 1.3e-8 relative above
        # the symmetry-broken K3 minimizer of this coarse mesh.
        recorded = [
            (1.0, 1.8979829976925324, 2.216122522406975, 4.593440377615968,
             True, True, False),
            (2.0, 1.7286697412758265, 2.044281176634273, 4.25402231984377,
             True, True, False),
            (4.0, 1.4155530625002701, 1.9155995366503982, 3.6530338469973036,
             True, True, False),
            (8.0, 0.9944077968130882, 1.0821463652038696,
             2.726545321094207, True, True, True),
            (16.0, 0.6402846961720454, 0.5527085307987462,
             1.6613012414609512, True, True, True),
        ]
        cfg = load_config(SCRIPTS / "sweep.cfg")
        kinds = _spy_descend(monkeypatch)
        rows = lambda_sweep(cfg.solver, cfg.lambda_list)
        assert kinds == ["K1", "K3"] * len(recorded)
        assert len(rows) == len(recorded)
        for row, (lam, t, c12, c3, *flags) in zip(rows, recorded):
            assert row.lam == lam
            assert row.c1 == row.c2
            for got, want in ((row.t_lambda, t), (row.c1, c12), (row.c3, c3)):
                assert abs(got - want) <= 1e-10 * abs(want)
            assert [row.threshold1, row.threshold2, row.threshold3] == flags

    @pytest.mark.parametrize("params, q, m, lams", [
        (P2, 3.0, 6, [1.0, 2.0, 4.0, 8.0]),
        (P3, 4.0, 4, [10.0, 20.0, 40.0]),
    ])
    def test_pospart_k2_level_is_the_k1_level_at_half_the_coupling(
            self, monkeypatch, params, q, m, lams):
        # with r = q, f(u) = |u|^(q-2) u + max(u, 0)^(q-1) is 2 u^(q-1) for
        # u > 0 and -|u|^(q-1) for u < 0, so the K2 problem at 2 lam is the
        # negated K1 problem at lam; each coupling runs its own K2 descent
        config = SolverConfig(
            params=params, cells_per_side=m, grad_tol=1e-6,
            nonlin=Nonlinearity(family="pospart", q=q, r=q))
        kinds = _spy_descend(monkeypatch)
        rows = lambda_sweep(config, lams)
        assert kinds == ["K1", "K2", "K3"] * len(lams)
        c1 = {row.lam: row.c1 for row in rows}
        for row in rows:
            assert all(np.isfinite((row.c1, row.c2, row.c3)))
            if row.lam / 2 in c1:
                want = c1[row.lam / 2]
                assert abs(row.c2 - want) <= 1e-12 * want, row.lam

    @pytest.mark.parametrize("lams", [[], [2.0, 1.0], [-1.0], [1.0, 1.0],
                                      [1.0, math.inf], [math.nan]])
    def test_bad_lists(self, lams):
        with pytest.raises(ConfigurationError):
            lambda_sweep(coarse_config(), lams)
