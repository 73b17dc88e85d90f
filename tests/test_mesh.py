import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from plap.errors import ConfigurationError, DimensionMismatchError
from plap.functional import _p_dirichlet, _squared_norms
from plap.mesh import (LaplacePreconditioner, _gradient_transpose,
                       apply_dirichlet, build_mesh, gradient_table, integrate,
                       laplace_apply)

from plap.optimizer import solve_three
from plap.verify import verify_fields

from conftest import (_LUPreconditioner, coarse_config, gradient_operator,
                      laplace_stiffness, reference_config, shape_gradients,
                      simplices)


def test_counts_2d():
    mesh = build_mesh(2, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_simplices == 8
    assert np.isclose(mesh.volume * mesh.n_simplices, 1.0, rtol=0, atol=1e-15)


def test_counts_2d_single_cell():
    mesh = build_mesh(2, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_simplices == 2
    assert mesh.boundary.all()


def test_counts_3d():
    mesh = build_mesh(3, 2)
    assert mesh.n_vertices == 27
    assert mesh.n_simplices == 48
    assert np.isclose(mesh.volume * mesh.n_simplices, 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim,m", [(4, 2), (1, 2), (2, 0), (3, -1)])
def test_build_rejects_bad_arguments(dim, m):
    with pytest.raises(ConfigurationError):
        build_mesh(dim, m)


def test_integrate_constants():
    mesh = build_mesh(2, 3)
    ones = np.ones(mesh.n_vertices)
    assert np.isclose(integrate(mesh, ones), 1.0, rtol=0, atol=1e-14)
    assert integrate(mesh, np.zeros(mesh.n_vertices)) == 0.0


def test_integrate_linear_field_exact():
    mesh = build_mesh(2, 4)
    assert np.isclose(integrate(mesh, mesh.vertices[:, 0]), 0.5,
                      rtol=0, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-10, 10), b=st.floats(-10, 10), seed=st.integers(0, 1000))
def test_integrate_linearity(a, b, seed):
    mesh = build_mesh(2, 3)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(mesh.n_vertices)
    v = rng.standard_normal(mesh.n_vertices)
    lhs = integrate(mesh, a * u + b * v)
    rhs = a * integrate(mesh, u) + b * integrate(mesh, v)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_gradient_of_zero_field():
    mesh = build_mesh(3, 2)
    g = gradient_table(mesh, np.zeros(mesh.n_vertices))
    assert np.all(g == 0.0)


def test_gradient_of_coordinate_field():
    mesh = build_mesh(2, 3)
    g = gradient_table(mesh, mesh.vertices[:, 0])
    assert np.allclose(g[:, 0], 1.0, rtol=0, atol=1e-13)
    assert np.allclose(g[:, 1], 0.0, rtol=0, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       dim=st.sampled_from([2, 3]))
def test_gradient_constant_for_linear_fields(coeffs, dim):
    mesh = build_mesh(dim, 2)
    u = coeffs[0] * np.ones(mesh.n_vertices)
    for d in range(dim):
        u = u + coeffs[1 + d] * mesh.vertices[:, d]
    g = gradient_table(mesh, u)
    spread = np.max(np.abs(g - g[0]), initial=0.0)
    assert spread <= 1e-12 * (1.0 + np.max(np.abs(g)))


def test_gradient_matches_per_simplex_solve():
    # oracle: solve the dim+1 linear interpolation system on every simplex
    mesh = build_mesh(2, 2)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.n_vertices)
    g = gradient_table(mesh, u)
    for s, simplex in enumerate(simplices(mesh)):
        X = np.hstack([np.ones((3, 1)), mesh.vertices[simplex]])
        coeff = np.linalg.solve(X, u[simplex])
        assert np.allclose(g[s], coeff[1:], rtol=0, atol=1e-12)


def test_apply_dirichlet():
    mesh = build_mesh(2, 3)
    u = apply_dirichlet(mesh, np.ones(mesh.n_vertices))
    assert np.all(u[mesh.boundary] == 0.0)
    assert np.all(u[~mesh.boundary] == 1.0)
    assert np.array_equal(apply_dirichlet(mesh, u), u)


def test_integrate_refinement_order():
    # nodal quadrature of the interpolant converges at second order
    exact = 4.0 / np.pi**2
    errors = []
    for m in (8, 16):
        mesh = build_mesh(2, m)
        f = np.prod(np.sin(np.pi * mesh.vertices), axis=1)
        errors.append(abs(integrate(mesh, f) - exact))
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.0


def test_field_size_mismatch():
    mesh = build_mesh(2, 2)
    with pytest.raises(DimensionMismatchError):
        integrate(mesh, np.ones(5))
    with pytest.raises(DimensionMismatchError):
        gradient_table(mesh, np.ones(mesh.n_vertices + 1))


def test_stiffness_is_symmetric_with_zero_row_sums():
    mesh = build_mesh(2, 3)
    K = laplace_stiffness(mesh).toarray()
    assert np.allclose(K, K.T, rtol=0, atol=1e-14)
    assert np.allclose(K @ np.ones(mesh.n_vertices), 0.0, rtol=0, atol=1e-13)


def test_mesh_arrays_are_frozen():
    mesh = build_mesh(2, 2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        shape_gradients(mesh)[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.edge_index[0, 0] = 1


def test_mesh_equality_is_identity():
    # the array fields have no truth value, so meshes compare by identity
    mesh, other = build_mesh(2, 2), build_mesh(2, 2)
    assert mesh == mesh and mesh != other
    assert mesh in [other, mesh] and mesh not in [other]
    assert hash(mesh) == hash(mesh)
    assert len({mesh, other, mesh}) == 2


def _loop_mesh(dim, m):
    """build_mesh as a Python loop over cells, kept as the oracle."""
    side = m + 1
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, side)] * dim, indexing="ij")
    vertices = np.stack([g.ravel() for g in grids], axis=1)
    strides = np.array([side ** (dim - 1 - k) for k in range(dim)])

    def vid(idx):
        return int(np.dot(idx, strides))

    simplices = []
    cells = itertools.product(range(m), repeat=dim)
    if dim == 2:
        for (i, j) in cells:
            v00, v10 = vid((i, j)), vid((i + 1, j))
            v01, v11 = vid((i, j + 1)), vid((i + 1, j + 1))
            simplices.append((v00, v10, v11))
            simplices.append((v00, v11, v01))
    else:
        perms = sorted(itertools.permutations(range(3)))
        for cell in cells:
            for perm in perms:
                corner = np.array(cell)
                tet = [vid(corner)]
                for axis in perm:
                    corner = corner.copy()
                    corner[axis] += 1
                    tet.append(vid(corner))
                simplices.append(tuple(tet))
    simplices = np.array(simplices, dtype=np.int64)

    coords = vertices[simplices]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    volumes = np.abs(np.linalg.det(edges)) / np.prod(range(1, dim + 1))
    grads = np.empty((simplices.shape[0], dim + 1, dim))
    grads[:, 1:, :] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    boundary = np.zeros(vertices.shape[0], dtype=bool)
    for k in range(dim):
        boundary |= np.isclose(vertices[:, k], 0.0) | np.isclose(vertices[:, k], 1.0)
    lumped = np.zeros(vertices.shape[0])
    np.add.at(lumped, simplices.ravel(), np.repeat(volumes / (dim + 1), dim + 1))
    return {"vertices": vertices, "simplices": simplices, "volumes": volumes,
            "shape_gradients": grads, "boundary": boundary,
            "lumped_mass": lumped}


@pytest.mark.parametrize("dim,m", [(2, m) for m in range(1, 6)]
                         + [(3, m) for m in range(1, 5)])
def test_build_matches_cell_loop(dim, m):
    # the combinatorics match the loop exactly; the geometry is exact, so it
    # matches the loop's inv/det up to the loop's own round-off
    mesh = build_mesh(dim, m)
    want = _loop_mesh(dim, m)
    got = {"vertices": mesh.vertices, "simplices": simplices(mesh),
           "shape_gradients": shape_gradients(mesh),
           "boundary": mesh.boundary, "lumped_mass": mesh.lumped_mass}
    for name in got:
        assert got[name].dtype == want[name].dtype, name
    for name in ("vertices", "simplices", "boundary"):
        assert np.array_equal(got[name], want[name]), name
    assert mesh.volume == 1.0 / (m ** dim * math.factorial(dim))
    assert np.allclose(want["volumes"], mesh.volume, rtol=1e-15, atol=0)
    unit = shape_gradients(mesh) / m
    assert np.array_equal(unit, np.rint(unit))
    assert set(np.unique(unit)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(shape_gradients(mesh), m * unit)
    assert np.allclose(shape_gradients(mesh), want["shape_gradients"],
                       rtol=0, atol=1e-15 * m)
    # a vertex's weight is vol/(dim+1) from each simplex that holds it,
    # rounded once; the loop sums up to 24 inexact shares and lands up to
    # 1.1e-15 (5 ulp) off at 3D res 4
    count = np.bincount(simplices(mesh).ravel(), minlength=mesh.n_vertices)
    assert np.array_equal(mesh.lumped_mass,
                          count / (m ** dim * math.factorial(dim + 1)))
    assert np.allclose(mesh.lumped_mass, want["lumped_mass"],
                       rtol=2e-15, atol=0)
    assert abs(mesh.lumped_mass.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("dim,m", [(2, 5), (3, 4), (2, 17), (3, 6)])
def test_gradient_operator_layout(dim, m):
    # G stores no zeros: along each axis only the two hat functions at the
    # ends of a simplex's step in that axis vary, with -m at the start and
    # +m at the end, and entry (s, k) of the edge index is k n + the start
    mesh = build_mesh(dim, m)
    G = gradient_operator(mesh)
    n = mesh.n_vertices
    assert G.shape == (mesh.n_simplices * dim, n)
    assert np.all(np.diff(G.indptr) == 2)
    assert np.array_equal(np.abs(G.data), np.full(G.nnz, float(m)))
    rows = np.repeat(np.arange(G.shape[0]), 2)
    start = G.indices[G.data == -m]
    end = G.indices[G.data == m]
    assert np.array_equal(rows[G.data == -m], np.arange(G.shape[0]))
    axis = np.tile(np.arange(dim), mesh.n_simplices)
    assert np.array_equal(end - start, (m + 1) ** (dim - 1 - axis))
    assert mesh.edge_index.shape == (mesh.n_simplices, dim)
    assert mesh.edge_index.dtype == np.intp
    assert np.array_equal(mesh.edge_index.ravel(), axis * n + start)


def test_gradient_kernels_do_not_copy_the_index():
    # np.take and np.bincount copy a read-only index; each kernel allocates
    # its output and nodal-sized temporaries only, where an index copy
    # would add n_simplices * dim * 8 bytes (576 KiB at 3D res 16)
    mesh = build_mesh(3, 16)
    u = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    table = gradient_table(mesh, u)
    nodal, slack = u.nbytes, 8 * 1024
    for kernel, arg, budget in (
            (gradient_table, u, table.nbytes + 4 * nodal),
            (_gradient_transpose, table, 4 * nodal)):
        kernel(mesh, arg)
        tracemalloc.start()
        try:
            kernel(mesh, arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget + slack, (kernel.__name__, peak)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", range(1, 10))
def test_gradient_kernels_are_the_assembled_operator(dim, m):
    # G u is one edge difference per entry, bit for bit; G^T sums per edge
    # first, so it matches the CSR product to rounding
    mesh = build_mesh(dim, m)
    G = gradient_operator(mesh)
    rng = np.random.default_rng(10 * dim + m)
    u = rng.standard_normal(mesh.n_vertices)
    assert np.array_equal(gradient_table(mesh, u),
                          (G @ u).reshape(mesh.n_simplices, dim))
    flux = rng.standard_normal((mesh.n_simplices, dim)) * m
    flux[::5] = 0.0
    want = G.T @ flux.ravel()
    got = _gradient_transpose(mesh, flux)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", range(1, 7))
def test_n_simplices_is_the_table_length(dim, m):
    mesh = build_mesh(dim, m)
    assert mesh.n_simplices == simplices(mesh).shape[0]
    assert mesh.edge_index.shape == (mesh.n_simplices, mesh.dim)


@pytest.mark.parametrize("config", [coarse_config(), reference_config()],
                         ids=["2d-p1.5", "3d-p2"])
def test_solve_and_verify_build_no_simplex_table(config):
    mesh = build_mesh(config.params.dim, config.cells_per_side)
    triple = solve_three(config, mesh)
    verify_fields(mesh, config.nonlin, config.params, triple.fields())
    for name in ("simplices", "volumes"):
        assert not hasattr(mesh, name), name


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_operator_rows_are_exact(dim):
    # every entry of G u is one axis step of one simplex: m (u_end -
    # u_start), at every resolution, with both ends in the simplex and the
    # step inside the grid
    for m in range(1, 13):
        mesh = build_mesh(dim, m)
        n, side = mesh.n_vertices, m + 1
        axis, start = np.divmod(mesh.edge_index, n)
        assert np.array_equal(axis, np.broadcast_to(np.arange(dim),
                                                    axis.shape)), m
        step = side ** (dim - 1 - axis)
        assert np.all(start // step % side < m), m
        corners = simplices(mesh)
        for ends in (start, start + step):
            assert np.all((corners[:, :, None] == ends[:, None, :])
                          .any(axis=1)), m
        u = np.random.default_rng(m).standard_normal(n)
        assert np.array_equal(gradient_table(mesh, u),
                              m * u[start + step] - m * u[start]), m


@pytest.mark.parametrize("dim,m", [(2, 5), (3, 4)])
def test_gradient_table_matches_gather(dim, m):
    # oracle: the per-simplex gather of nodal values
    mesh = build_mesh(dim, m)
    u = np.random.default_rng(3).standard_normal(mesh.n_vertices)
    gather = np.einsum("sid,si->sd", shape_gradients(mesh), u[simplices(mesh)])
    assert np.array_equal(gradient_table(mesh, u), gather)


def _coo_stiffness(mesh):
    """Per-simplex local matrices summed through COO, kept as the oracle."""
    ns, nloc, dim = shape_gradients(mesh).shape
    local = np.einsum("sid,sjd->sij", shape_gradients(mesh), shape_gradients(mesh))
    local *= np.full(mesh.n_simplices, mesh.volume)[:, None, None]
    rows = np.repeat(simplices(mesh), nloc, axis=1).ravel()
    cols = np.tile(simplices(mesh), (1, nloc)).ravel()
    return sparse.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(mesh.n_vertices, mesh.n_vertices)).toarray()


def _axis_stencil(dim, m):
    """Dense 5-point (2D) or 7-point (3D) stencil of -Laplace * h^dim."""
    side, h = m + 1, 1.0 / m
    n = side ** dim
    S = np.zeros((n, n))
    idx = np.indices((side,) * dim).reshape(dim, -1).T
    for a, point in enumerate(idx):
        S[a, a] = 2 * dim * h ** (dim - 2)
        for k, step in itertools.product(range(dim), (-1, 1)):
            nb = point.copy()
            nb[k] += step
            if 0 <= nb[k] <= m:
                S[a, np.ravel_multi_index(nb, (side,) * dim)] = -h ** (dim - 2)
    return S


@pytest.mark.parametrize("dim,m", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5),
                                   (3, 6), (3, 7), (2, 12), (3, 12)])
def test_stiffness_is_the_axis_stencil(dim, m):
    mesh = build_mesh(dim, m)
    K = laplace_stiffness(mesh)
    assert np.all(K.data != 0.0)
    dense = K.toarray()
    old = _coo_stiffness(mesh)
    assert np.max(np.abs(dense - old)) <= 1e-15 * np.max(np.abs(old))
    S = _axis_stencil(dim, m)
    interior = ~mesh.boundary
    scale = 2 * dim * m ** (2 - dim)
    assert np.max(np.abs(dense[interior] - S[interior])) <= 1e-14 * scale
    # the gradients are exact, so the off-stencil entries cancel exactly
    assert np.array_equal(dense != 0.0, S != 0.0)


@pytest.mark.parametrize("dim,m", [(2, 1), (3, 1), (2, 2), (3, 2),
                                   (2, 3), (2, 4), (3, 3), (3, 4), (3, 5),
                                   (3, 6), (3, 7), (2, 12), (3, 12)])
def test_laplace_apply_is_the_assembled_stiffness(dim, m):
    # m = 1 has no interior row, m = 2 a single one
    mesh = build_mesh(dim, m)
    rng = np.random.default_rng(5)
    u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
    got = laplace_apply(mesh, u)
    assert got.shape == (mesh.n_vertices,)
    assert np.all(got[mesh.boundary] == 0.0)
    want = laplace_stiffness(mesh) @ u
    interior = ~mesh.boundary
    scale = 2 * dim * m ** (2 - dim) * np.max(np.abs(u), initial=0.0)
    assert np.max(np.abs(got[interior] - want[interior]),
                  initial=0.0) <= 1e-14 * scale
    # the quadratic form is the Dirichlet integral of the gradient table
    table = _p_dirichlet(mesh, _squared_norms(gradient_table(mesh, u)), 2.0)
    assert abs(float(np.dot(u, got)) - table) <= 1e-13 * abs(table)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_sine_preconditioner_matches_lu(dim, m):
    # the assembled stiffness has exactly the stencil's sparsity at every m,
    # so both invert the same operator up to round-off; m = 1 has no interior
    mesh = build_mesh(dim, m)
    P, lu = LaplacePreconditioner(mesh), _LUPreconditioner(mesh)
    assert np.array_equal(P.interior, lu.interior)
    rng = np.random.default_rng(11)
    r = rng.standard_normal(mesh.n_vertices)
    v = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
    want = lu.solve(r)
    got = P.solve(r)
    assert got.shape == (mesh.n_vertices,)
    assert np.all(got[mesh.boundary] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for ours, theirs in ((P.dual_norm(r), lu.dual_norm(r)),
                         (P.norm(v), lu.norm(v))):
        assert abs(ours - theirs) <= 1e-12 * theirs
    if m == 1:
        assert not np.any(got)
        assert P.dual_norm(r) == 0.0 and P.norm(v) == 0.0


# x -> 1 - x is the flat reversal of the C-ordered vertex grid; the K3
# descent of an odd f is solved in the class it makes (optimizer)
INVERSION_MESHES = [(dim, m) for dim in (2, 3) for m in range(4, 10)]


@pytest.mark.parametrize("dim, m", INVERSION_MESHES)
def test_inversion_maps_the_mesh_onto_itself(dim, m):
    mesh = build_mesh(dim, m)
    n = mesh.n_vertices
    assert np.max(np.abs(mesh.vertices[::-1] + mesh.vertices - 1.0)) <= 1e-15
    # each simplex walked backwards is a simplex of the mesh
    table = simplices(mesh)
    original = {tuple(sorted(s)) for s in table.tolist()}
    inverted = {tuple(sorted(n - 1 - s)) for s in table}
    assert inverted == original
    assert mesh.lumped_mass[::-1].tobytes() == mesh.lumped_mass.tobytes()
    assert np.array_equal(mesh.boundary[::-1], mesh.boundary)


@pytest.mark.parametrize("dim, m", INVERSION_MESHES)
def test_laplace_operators_commute_with_the_inversion(dim, m):
    mesh = build_mesh(dim, m)
    P = LaplacePreconditioner(mesh)
    rng = np.random.default_rng(13)
    u = apply_dirichlet(mesh, rng.standard_normal(mesh.n_vertices))
    r = rng.standard_normal(mesh.n_vertices)
    for op, v in ((lambda x: laplace_apply(mesh, x), u), (P.solve, r)):
        want = op(v)[::-1]
        got = op(v[::-1])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, m", INVERSION_MESHES)
def test_simplex_reversal_is_the_inversion_of_the_simplices(dim, m):
    mesh = build_mesh(dim, m)
    n, sigma = mesh.n_vertices, mesh.simplex_reversal
    assert np.array_equal(sigma[sigma], np.arange(mesh.n_simplices))
    # simplex sigma(s) holds the inverted vertices of simplex s
    table = simplices(mesh)
    assert np.array_equal(np.sort(n - 1 - table[sigma], axis=1),
                          np.sort(table, axis=1))
    # so the gradient table of v(1 - x) is minus that of v, rows permuted,
    # bit for bit: each row is one difference of two nodal values
    v = np.random.default_rng(m).standard_normal(n)
    got = gradient_table(mesh, v[::-1])
    assert got.tobytes() == (-gradient_table(mesh, v)[sigma]).tobytes()
    with pytest.raises(ValueError):
        sigma[0] = 1
