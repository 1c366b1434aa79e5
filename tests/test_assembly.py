import numpy as np
import pytest
import scipy.integrate

from pdwg.assembly import (
    apply_boundary_conditions,
    assemble_constraint,
    assemble_stabilizer,
    build_dofmap,
    build_saddle_system,
    element_load,
    neumann_flux_coefficients,
)
from pdwg.harness import Discretization, Reference
from pdwg.mesh import BoundarySegmentSpec, build_uniform_unit_square, classify_boundary
from pdwg.norms import project_exact
from pdwg.polyspace import edge_gauss
from pdwg.problems import ManufacturedSolution, NoiseSpec, get_problem
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
    dm = build_dofmap(mesh4, tags)
    V, E, T = mesh4.num_vertices, mesh4.num_edges, mesh4.num_triangles
    assert dm.n_u == V + E
    assert dm.n_flux == 2 * E
    assert dm.n_triangles == T
    assert len(dm.free) + len(dm.constrained) == dm.n_primal
    assert not np.intersect1d(dm.free, dm.constrained).size


def test_any_incident_rule_constrains_shared_corners(mesh2):
    # top side carries only Neumann data, yet its corner vertices sit on the
    # closure of Dirichlet edges of the left/right sides
    tags = tags_for(mesh2, "case1")
    dm = build_dofmap(mesh2, tags)
    vid = {tuple(v): i for i, v in enumerate(map(tuple, mesh2.vertices))}
    assert vid[(0.0, 1.0)] in dm.dirichlet_nodes
    assert vid[(1.0, 1.0)] in dm.dirichlet_nodes
    # midpoints of top edges are unconstrained
    for e in np.flatnonzero(mesh2.boundary_edge_mask):
        if abs(mesh2.edge_midpoints[e][1] - 1.0) < 1e-12:
            assert mesh2.num_vertices + e not in dm.dirichlet_nodes


def test_all_cauchy_system_dimension_n1():
    mesh = build_uniform_unit_square(1)
    tags = classify_boundary(mesh, ALL_CAUCHY)
    system = build_saddle_system(mesh, tags, get_problem("quad"))
    # dof-counting oracle: 8 of 9 u-dofs and 8 of 10 flux dofs constrained
    assert len(system.dofmap.free) == 3
    assert system.M.shape == (3 + 2, 3 + 2)


def test_stabilizer_vanishes_on_global_quadratic(mesh4):
    tags = tags_for(mesh4, "case1")
    dm = build_dofmap(mesh4, tags)
    S = assemble_stabilizer(mesh4, dm)
    v = exact_primal_vector(get_problem("quad"), mesh4)
    value = float(v @ (S @ v))
    # zero up to cancellation against the form's accumulated magnitude
    abs_scale = float(np.abs(v) @ (abs(S) @ np.abs(v)))
    assert abs(value) <= 1e-13 * abs_scale


def test_stabilizer_zero_vector(mesh2):
    dm = build_dofmap(mesh2, tags_for(mesh2, "case1"))
    S = assemble_stabilizer(mesh2, dm)
    assert float(np.zeros(dm.n_primal) @ (S @ np.zeros(dm.n_primal))) == 0.0


def test_stabilizer_unit_flux_on_diagonal_edge():
    # hand oracle over the two incident triangles of the n=1 diagonal
    mesh = build_uniform_unit_square(1)
    dm = build_dofmap(mesh, tags_for(mesh, "case1"))
    S = assemble_stabilizer(mesh, dm)
    diag = [e for e in range(mesh.num_edges) if not mesh.boundary_edge_mask[e]]
    assert len(diag) == 1
    v = np.zeros(dm.n_primal)
    v[dm.n_u + 2 * diag[0]] = 1.0
    assert float(v @ (S @ v)) == pytest.approx(2.0, abs=1e-13)


def test_stabilizer_psd_random(mesh4, rng):
    dm = build_dofmap(mesh4, tags_for(mesh4, "case1"))
    S = assemble_stabilizer(mesh4, dm)
    for _ in range(100):
        v = rng.standard_normal(dm.n_primal)
        assert float(v @ (S @ v)) >= -1e-12


def test_constraint_rows_integrate_source_exactly(mesh4):
    problem = get_problem("quad")
    dm = build_dofmap(mesh4, tags_for(mesh4, "case1"))
    B, F = assemble_constraint(mesh4, dm, problem.f)
    v = exact_primal_vector(problem, mesh4)
    # divergence theorem with integral-preserving flux projection
    assert np.abs(B @ v - 4.0 * mesh4.area).max() <= 1e-13
    assert np.abs(F - 4.0 * mesh4.area).max() <= 1e-15


def test_constraint_zero_flux_zero_source(mesh2):
    dm = build_dofmap(mesh2, tags_for(mesh2, "case1"))
    B, F = assemble_constraint(mesh2, dm, lambda x, y: 0.0 * x)
    assert np.abs(B @ np.zeros(dm.n_primal)).max() == 0.0
    assert np.abs(F).max() == 0.0


def test_constraint_unit_outward_flux_gives_perimeter():
    mesh = build_uniform_unit_square(1)
    dm = build_dofmap(mesh, tags_for(mesh, "case1"))
    B, _ = assemble_constraint(mesh, dm, lambda x, y: 0.0 * x)
    v = np.zeros(dm.n_primal)
    for l in range(3):
        e = mesh.tri_edges[0, l]
        v[dm.n_u + 2 * e] = mesh.tri_edge_signs[0, l]
    assert (B @ v)[0] == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-14)


def test_homogeneous_data_zero_lifting(mesh4):
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, ZERO_PROBLEM)
    assert np.abs(system.g).max() == 0.0
    assert np.abs(system.rhs).max() == 0.0


def test_neumann_projection_against_dense_oracle():
    # u = sin(x)sin(y) with Neumann data on the top side: g2 = sin(x)cos(1)
    mesh = build_uniform_unit_square(4)
    tags = classify_boundary(mesh, [BoundarySegmentSpec(side="top", has_neumann=True)])
    dm = build_dofmap(mesh, tags)
    g2 = lambda x, y, n_out: np.cos(x) * np.sin(y) * n_out[0] + np.sin(x) * np.cos(y) * n_out[1]
    coeffs = neumann_flux_coefficients(g2, mesh, tags, dm.neumann_edges)
    for k, e in enumerate(dm.neumann_edges):
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


def test_neumann_untagged_edge_rejected(mesh2):
    tags = tags_for(mesh2, "case2")
    dirichlet_only = tags.dirichlet_edges[0]
    with pytest.raises(ValueError):
        neumann_flux_coefficients(
            lambda x, y, n: 0 * x, mesh2, tags, np.array([dirichlet_only])
        )


def test_noise_draw_order_is_one_stream():
    # one PCG64 stream: Dirichlet nodes by ascending id, then one block of
    # rule samples per Neumann edge by ascending edge id
    mesh = build_uniform_unit_square(4)
    tags = tags_for(mesh, "case1")
    dm = build_dofmap(mesh, tags)
    assert len(dm.neumann_edges) >= 8 and len(dm.dirichlet_nodes) > 0
    problem = get_problem("sinsin")

    def g2(x, y, n_out):
        gx, gy = problem.grad_u(x, y)
        return gx * n_out[0] + gy * n_out[1]

    a = 0.1
    got = apply_boundary_conditions(
        problem.u, g2, mesh, tags, dm, noise=NoiseSpec(amplitude=a, seed=2024)
    )

    rng = np.random.Generator(np.random.PCG64(2024))
    coords = mesh.p2_node_coords[dm.dirichlet_nodes]
    nodal = problem.u(coords[:, 0], coords[:, 1]) + a * (0.5 - rng.random(len(coords)))
    assert np.array_equal(got[dm.dirichlet_nodes], nodal)
    t, w = edge_gauss()
    for e in dm.neumann_edges:
        pa, pb = mesh.vertices[mesh.edges[e]]
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        s = mesh.edge_tri_signs[e, 0]
        samples = g2(pts[:, 0], pts[:, 1], s * mesh.edge_normals[e])
        samples = samples + a * (0.5 - rng.random(len(t)))
        want = s * np.array([w @ samples, 12.0 * (w * (t - 0.5)) @ samples])
        assert np.abs(got[dm.flux_dofs(e)] - want).max() <= 1e-13


def test_constrained_flux_matches_exact_projection(mesh4):
    # the lifted Neumann coefficients coincide with Qn(grad u . n_e)
    for case in ("case1", "case2", "case4", "figures"):
        tags = tags_for(mesh4, case)
        for name in ("quad", "sinsin", "coscos", "bubble"):
            problem = get_problem(name)
            system = build_saddle_system(mesh4, tags, problem)
            qn = project_exact(problem, mesh4).qn
            got = system.g[system.dofmap.flux_dofs(system.dofmap.neumann_edges)]
            assert np.abs(got - qn[system.dofmap.neumann_edges]).max() <= 1e-13
            coords = mesh4.p2_node_coords[system.dofmap.dirichlet_nodes]
            assert np.abs(
                system.g[system.dofmap.dirichlet_nodes]
                - problem.u(coords[:, 0], coords[:, 1])
            ).max() <= 1e-13


def test_dirichlet_values_are_nodal_samples(mesh4):
    tags = tags_for(mesh4, "case1")
    problem = get_problem("coscos")
    system = build_saddle_system(mesh4, tags, problem)
    dm = system.dofmap
    coords = mesh4.p2_node_coords[dm.dirichlet_nodes]
    assert np.array_equal(
        system.g[dm.dirichlet_nodes], problem.u(coords[:, 0], coords[:, 1])
    )


def test_system_symmetric_and_blocks(mesh4):
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, get_problem("sinsin"))
    assert abs(system.M - system.M.T).max() <= 1e-14
    nf = system.n_free
    assert np.abs(system.M[nf:, nf:].toarray()).max() == 0.0
    g_c = system.g[system.dofmap.constrained]
    assert np.array_equal(system.rhs[:nf], -system.S_fc @ g_c)
    load = element_load(mesh4, get_problem("sinsin").f)
    assert np.array_equal(system.rhs[nf:], load - system.B_c @ g_c)


def test_quadratic_interpolant_satisfies_system(mesh4):
    residual = quadratic_consistency_residual(Discretization("case1", mesh4),
                                              Reference(get_problem("quad"), mesh4))
    assert residual <= 1e-10
