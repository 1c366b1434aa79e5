import numpy as np
import pytest
import scipy.integrate

from pdwg.assembly import (
    apply_boundary_conditions,
    assemble_constraint,
    assemble_matrix,
    assemble_stabilizer,
    build_saddle_system,
    element_load,
    flux_dofs,
    join_primal,
    mismatch_operator,
    num_primal,
    split_primal,
)
from pdwg.harness import Reference, case_matrix
from pdwg.linsolve import saddle_factor
from pdwg.mesh import BoundarySegmentSpec, build_uniform_unit_square, classify_boundary
from pdwg.norms import project_exact
from pdwg.polyspace import edge_gauss
from pdwg.problems import ManufacturedSolution, NoiseSpec, case_configs, get_problem
from pdwg.verify import quadratic_consistency_residual

from conftest import tags_for

ALL_CAUCHY = [
    BoundarySegmentSpec(side=s, has_dirichlet=True, has_neumann=True)
    for s in ("bottom", "top", "left", "right")
]

ZERO_PROBLEM = ManufacturedSolution(
    name="zero",
    u=lambda x, y: 0.0 * x,
    grad_u=lambda x, y: (0.0 * x, 0.0 * y),
    f=lambda x, y: 0.0 * x,
)


def exact_primal_vector(problem, mesh):
    """Nodal values of u plus the exact-flux projection coefficients."""
    qhu = project_exact(problem, mesh)
    coords = mesh.p2_node_coords
    return np.concatenate([problem.u(coords[:, 0], coords[:, 1]), qhu.qn.ravel()])


def test_dof_counts_and_partition(mesh4):
    tags = tags_for(mesh4, "case1")
    matrix = assemble_matrix(mesh4, tags)
    V, E = mesh4.num_vertices, mesh4.num_edges
    assert flux_dofs(mesh4, 0)[0] == V + E
    assert num_primal(mesh4) - (V + E) == 2 * E
    assert len(matrix.free) + len(matrix.constrained) == num_primal(mesh4)
    assert not np.intersect1d(matrix.free, matrix.constrained).size


@pytest.mark.parametrize("case, n", [(case, n) for n in (1, 2, 4) for case in sorted(case_configs())
                                     if (case, n) != ("figures", 1)])  # figures needs n even
def test_every_operator_reads_one_dof_layout(case, n):
    # B, the flux column of each mismatch-map row, the free-flux range of
    # the factor and the split of a primal vector all put edge e's fluxes
    # where flux_dofs does
    mesh = build_uniform_unit_square(n)
    matrix = case_matrix(case, mesh)
    flux = flux_dofs(mesh, np.arange(mesh.num_edges))
    u0, un = split_primal(mesh, np.arange(num_primal(mesh)))
    assert np.array_equal(u0, np.arange(mesh.num_vertices + mesh.num_edges))
    assert np.array_equal(un, flux)

    B = matrix.B
    assert np.array_equal(np.diff(B.indptr), np.full(mesh.num_triangles, 3))
    assert np.array_equal(B.indices.reshape(-1, 3),
                          np.sort(flux_dofs(mesh, mesh.tri_edges)[..., 0], axis=1))
    assert np.array_equal(np.unique(B.indices), flux[:, 0])
    Gs = mismatch_operator(mesh)
    flux_column = Gs.indices.reshape(3, mesh.num_triangles, 2, 7)[..., 6]
    assert np.array_equal(flux_column, flux_dofs(mesh, mesh.tri_edges.T))

    free, free_flux = matrix.free, matrix.free_flux
    assert np.array_equal(saddle_factor(matrix).flux, free_flux)
    assert np.array_equal(free[free_flux], np.setdiff1d(flux, matrix.constrained))
    assert np.all(free[:len(free) - len(free_flux)] < len(u0))

    x = np.random.default_rng(n).standard_normal(num_primal(mesh))
    assert join_primal(*split_primal(mesh, x)).tobytes() == x.tobytes()


def test_any_incident_rule_constrains_shared_corners(mesh2):
    # top side carries only Neumann data, yet its corner vertices sit on the
    # closure of Dirichlet edges of the left/right sides
    tags = tags_for(mesh2, "case1")
    nodes = assemble_matrix(mesh2, tags).dirichlet_nodes
    vid = {tuple(v): i for i, v in enumerate(map(tuple, mesh2.vertices))}
    assert vid[(0.0, 1.0)] in nodes
    assert vid[(1.0, 1.0)] in nodes
    # midpoints of top edges are unconstrained
    for e in np.flatnonzero(mesh2.boundary_edge_mask):
        if abs(mesh2.edge_midpoints[e][1] - 1.0) < 1e-12:
            assert mesh2.num_vertices + e not in nodes


def test_all_cauchy_system_dimension_n1():
    mesh = build_uniform_unit_square(1)
    tags = classify_boundary(mesh, ALL_CAUCHY)
    system = build_saddle_system(mesh, tags, get_problem("quad"))
    # dof-counting oracle: 8 of 9 u-dofs and 8 of 10 flux dofs constrained
    assert len(system.free) == 3
    assert system.M.shape == (3 + 2, 3 + 2)


def test_stabilizer_vanishes_on_global_quadratic(mesh4):
    S = assemble_stabilizer(mesh4)
    v = exact_primal_vector(get_problem("quad"), mesh4)
    value = float(v @ (S @ v))
    # zero up to cancellation against the form's accumulated magnitude
    abs_scale = float(np.abs(v) @ (abs(S) @ np.abs(v)))
    assert abs(value) <= 1e-13 * abs_scale


def test_stabilizer_zero_vector(mesh2):
    S = assemble_stabilizer(mesh2)
    n = num_primal(mesh2)
    assert float(np.zeros(n) @ (S @ np.zeros(n))) == 0.0


def test_stabilizer_unit_flux_on_diagonal_edge():
    # hand oracle over the two incident triangles of the n=1 diagonal
    mesh = build_uniform_unit_square(1)
    S = assemble_stabilizer(mesh)
    diag = [e for e in range(mesh.num_edges) if not mesh.boundary_edge_mask[e]]
    assert len(diag) == 1
    v = np.zeros(num_primal(mesh))
    v[flux_dofs(mesh, diag[0])[0]] = 1.0
    assert float(v @ (S @ v)) == pytest.approx(2.0, abs=1e-13)


def test_stabilizer_psd_random(mesh4, rng):
    S = assemble_stabilizer(mesh4)
    for _ in range(100):
        v = rng.standard_normal(num_primal(mesh4))
        assert float(v @ (S @ v)) >= -1e-12


def test_constraint_rows_integrate_source_exactly(mesh4):
    problem = get_problem("quad")
    B, F = assemble_constraint(mesh4, problem.f)
    v = exact_primal_vector(problem, mesh4)
    # divergence theorem with integral-preserving flux projection
    assert np.abs(B @ v - 4.0 * mesh4.area).max() <= 1e-13
    assert np.abs(F - 4.0 * mesh4.area).max() <= 1e-15


def test_constraint_zero_flux_zero_source(mesh2):
    B, F = assemble_constraint(mesh2, lambda x, y: 0.0 * x)
    assert np.abs(B @ np.zeros(num_primal(mesh2))).max() == 0.0
    assert np.abs(F).max() == 0.0


def test_constraint_unit_outward_flux_gives_perimeter():
    mesh = build_uniform_unit_square(1)
    B, _ = assemble_constraint(mesh, lambda x, y: 0.0 * x)
    v = np.zeros(num_primal(mesh))
    for l in range(3):
        e = mesh.tri_edges[0, l]
        v[flux_dofs(mesh, e)[0]] = mesh.tri_edge_signs[0, l]
    assert (B @ v)[0] == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-14)


def test_homogeneous_data_zero_lifting(mesh4):
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, ZERO_PROBLEM)
    assert np.abs(system.g).max() == 0.0
    assert np.abs(system.rhs).max() == 0.0


def test_neumann_projection_against_dense_oracle():
    # u = sin(x)sin(y) with Neumann data on the top side: du/dn = sin(x)cos(1)
    mesh = build_uniform_unit_square(4)
    tags = classify_boundary(mesh, [BoundarySegmentSpec(side="top", has_neumann=True)])
    g = apply_boundary_conditions(get_problem("sinsin"), assemble_matrix(mesh, tags))
    coeffs = g[flux_dofs(mesh, tags.neumann_edges)]
    for k, e in enumerate(tags.neumann_edges):
        a, b = mesh.edges[e]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        s = mesh.edge_tri_signs[e, 0]
        # dense 2x2 normal equations with adaptive quadrature
        fn = lambda t: np.sin(pa[0] + t * (pb[0] - pa[0])) * np.cos(1.0)
        m00, m01, m11 = 1.0, 0.0, 1.0 / 12.0
        r0 = scipy.integrate.quad(fn, 0, 1)[0]
        r1 = scipy.integrate.quad(lambda t: fn(t) * (t - 0.5), 0, 1)[0]
        want = np.linalg.solve([[m00, m01], [m01, m11]], [r0, r1])
        # outward normal on the top is +e_y; stored sign converts to n_e
        assert coeffs[k] == pytest.approx(s * want, abs=1e-10)


def test_noise_draw_order_is_one_stream():
    # one PCG64 stream: Dirichlet nodes by ascending id, then one block of
    # rule samples per Neumann edge by ascending edge id
    mesh = build_uniform_unit_square(4)
    tags = tags_for(mesh, "case1")
    matrix = assemble_matrix(mesh, tags)
    assert len(tags.neumann_edges) >= 8 and len(matrix.dirichlet_nodes) > 0
    problem = get_problem("sinsin")

    def g2(x, y, n_out):
        gx, gy = problem.grad_u(x, y)
        return gx * n_out[0] + gy * n_out[1]

    a = 0.1
    got = apply_boundary_conditions(problem, matrix, noise=NoiseSpec(amplitude=a, seed=2024))

    rng = np.random.Generator(np.random.PCG64(2024))
    coords = mesh.p2_node_coords[matrix.dirichlet_nodes]
    nodal = problem.u(coords[:, 0], coords[:, 1]) + a * (0.5 - rng.random(len(coords)))
    assert np.array_equal(got[matrix.dirichlet_nodes], nodal)
    t, w = edge_gauss()
    for e in tags.neumann_edges:
        pa, pb = mesh.vertices[mesh.edges[e]]
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        s = mesh.edge_tri_signs[e, 0]
        samples = g2(pts[:, 0], pts[:, 1], s * mesh.edge_normals[e])
        samples = samples + a * (0.5 - rng.random(len(t)))
        want = s * np.array([w @ samples, 12.0 * (w * (t - 0.5)) @ samples])
        assert np.abs(got[flux_dofs(mesh, e)] - want).max() <= 1e-13


def test_constrained_flux_matches_exact_projection(mesh4):
    # the lifted Neumann coefficients are Qn(grad u . n_e), bit for bit:
    # both come from one sampler, and the outward sign flips are exact
    for case in ("case1", "case2", "case4", "figures"):
        tags = tags_for(mesh4, case)
        for name in ("quad", "sinsin", "coscos", "bubble"):
            problem = get_problem(name)
            system = build_saddle_system(mesh4, tags, problem)
            qn = project_exact(problem, mesh4).qn
            got = system.g[flux_dofs(mesh4, tags.neumann_edges)]
            assert np.array_equal(got, qn[tags.neumann_edges])
            coords = mesh4.p2_node_coords[system.dirichlet_nodes]
            assert np.abs(
                system.g[system.dirichlet_nodes]
                - problem.u(coords[:, 0], coords[:, 1])
            ).max() <= 1e-13


def test_dirichlet_values_are_nodal_samples(mesh4):
    tags = tags_for(mesh4, "case1")
    problem = get_problem("coscos")
    system = build_saddle_system(mesh4, tags, problem)
    coords = mesh4.p2_node_coords[system.dirichlet_nodes]
    assert np.array_equal(
        system.g[system.dirichlet_nodes], problem.u(coords[:, 0], coords[:, 1])
    )


def test_system_symmetric_and_blocks(mesh4):
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, get_problem("sinsin"))
    assert abs(system.M - system.M.T).max() <= 1e-14
    nf = system.n_free
    assert np.abs(system.M[nf:, nf:].toarray()).max() == 0.0
    free, con = system.free, system.constrained
    g_c = system.g[con]
    assert np.array_equal(system.rhs[:nf], -system.S[free][:, con] @ g_c)
    load = element_load(mesh4, get_problem("sinsin").f)
    assert np.array_equal(system.rhs[nf:], load - system.B[:, con] @ g_c)


def test_quadratic_interpolant_satisfies_system(mesh4):
    residual = quadratic_consistency_residual(case_matrix("case1", mesh4),
                                              Reference(get_problem("quad"), mesh4))
    assert residual <= 1e-10
