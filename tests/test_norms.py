import numpy as np
import pytest

from pdwg.assembly import build_saddle_system, normal_mismatch_maps, tri_p2_dofs
from pdwg.linsolve import Solution, factor_and_solve
from pdwg.mesh import build_uniform_unit_square
from pdwg.norms import (
    ErrorField,
    build_error_field,
    PROJECTION_MIN_TRI_DEGREE,
    error_norms,
    lambda_norm,
    norms_of_error,
    project_exact,
)
from pdwg.polyspace import (
    bary_gradients,
    edge_gauss,
    edge_points_for,
    p2_laplacians,
    p2_values,
    triangle_quadrature,
)
from pdwg.problems import get_problem
from pdwg.weak_laplacian import projected_weak_function

from conftest import (
    REF_TRI,
    exact_ref_monomial,
    monomial_exponents,
    monomial_values,
    quad_integral,
    tags_for,
)


def project_L2_element(f, tri, degree, quad=None):
    """L2 projection of f onto P_degree on one triangle (oracle of project_exact).

    Solves the mass system of one element in the centered/scaled monomial
    basis; returns the projection as a callable (x, y) with ``.coeffs`` and
    its gradient as ``.grad`` (x, y) -> (d/dx, d/dy).
    """
    tri = np.asarray(tri, dtype=float)
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area <= 0:
        raise ValueError("degenerate triangle")
    center = tri.mean(axis=0)
    scale = max(np.linalg.norm(tri[k] - tri[k - 1]) for k in range(3))
    exps = monomial_exponents(degree)

    def vandermonde(x, y):
        return monomial_values(exps, (np.asarray(x) - center[0]) / scale,
                               (np.asarray(y) - center[1]) / scale)

    if quad is None:
        quad = triangle_quadrature(max(2 * degree, 6))
    pts = quad.physical_points(tri)
    w = quad.physical_weights(area)
    V = vandermonde(pts[:, 0], pts[:, 1])
    coeffs = np.linalg.solve(V.T @ (w[:, None] * V), V.T @ (w * f(pts[:, 0], pts[:, 1])))

    def projection(x, y):
        return vandermonde(x, y) @ coeffs

    def grad(x, y):
        xi = (np.asarray(x) - center[0]) / scale
        eta = (np.asarray(y) - center[1]) / scale
        gx = sum(c * a * xi ** max(a - 1, 0) * eta**b for c, (a, b) in zip(coeffs, exps))
        gy = sum(c * b * xi**a * eta ** max(b - 1, 0) for c, (a, b) in zip(coeffs, exps))
        return gx / scale, gy / scale

    projection.coeffs = coeffs
    projection.grad = grad
    return projection


def fake_solution(mesh, u0, un, lam):
    return Solution(
        u0=np.asarray(u0, dtype=float),
        un=np.asarray(un, dtype=float),
        lam=np.asarray(lam, dtype=float),
        residual_inf=0.0,
    )


def lambda_norm_oracle(lam, mesh, tags):
    """Independent edge enumeration of the multiplier jump norm."""
    total = 0.0
    for e in range(mesh.num_edges):
        if tags.neumann[e]:
            continue
        J = 0.0
        for slot in range(2):
            t = mesh.edge_tris[e, slot]
            if t >= 0:
                J += mesh.edge_tri_signs[e, slot] * lam[t]
        total += mesh.h_e[e] * (J**2 * mesh.h_e[e])
    return float(np.sqrt(total))


def build_error_field_from_scratch(solution, problem, qn, mesh, tri_degree=6, edge_points=4):
    """Oracle of build_error_field: Q0 u sampled through the monomial oracle
    ``project_L2_element`` of each element, with every mesh map built anew.

    Only the flux projection ``qn`` is taken from ``project_exact``.
    """
    tri = mesh.tri_coords()
    quad = triangle_quadrature(tri_degree)
    pts = quad.physical_points(tri)
    q0 = [project_L2_element(problem.u, tri[t], 2, quad) for t in range(mesh.num_triangles)]
    u_loc = solution.u0[tri_p2_dofs(mesh)]

    u0_quad = u_loc @ p2_values(quad.points).T
    q0_quad = np.array([q0[t](pts[t, :, 0], pts[t, :, 1]) for t in range(len(q0))])
    e0_quad = u0_quad - q0_quad

    node_bary = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]], dtype=float)
    node_pts = np.einsum("qk,tkd->tqd", node_bary, tri)
    q0_nodes = np.array([q0[t](node_pts[t, :, 0], node_pts[t, :, 1]) for t in range(len(q0))])
    e0_nodes = u_loc - q0_nodes

    bgrad = bary_gradients(tri)
    lap_u0 = np.einsum("ti,ti->t", u_loc, p2_laplacians(bgrad))
    scales = [max(np.linalg.norm(tri[t, k] - tri[t, k - 1]) for k in range(3))
              for t in range(len(q0))]
    lap_q0 = np.array([2.0 * (p.coeffs[3] + p.coeffs[5]) / h**2 for p, h in zip(q0, scales)])
    lap_e0 = lap_u0 - lap_q0

    en = solution.un - qn

    mismatch = np.empty((3, mesh.num_triangles, 2))
    for l, G in enumerate(normal_mismatch_maps(mesh)):
        e, s = mesh.tri_edges[:, l], mesh.tri_edge_signs[:, l]
        grad_u0_coeffs = np.einsum("tci,ti->tc", G, u_loc)
        va = mesh.triangles[:, l]
        vb = mesh.triangles[:, (l + 1) % 3]
        lo = mesh.vertices[np.where(s > 0, va, vb)]
        hi = mesh.vertices[np.where(s > 0, vb, va)]
        normal = mesh.edge_normals[e]
        gq = np.array([[np.dot(q0[t].grad(*p[t]), normal[t]) for p in (lo, hi)]
                       for t in range(len(q0))])
        grad_q0_coeffs = np.stack([0.5 * (gq[:, 0] + gq[:, 1]), gq[:, 1] - gq[:, 0]], axis=1)
        mismatch[l] = grad_u0_coeffs - grad_q0_coeffs - en[e]

    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    t, _ = edge_gauss(edge_points)
    q0_jump = []
    for e in interior:
        pa, pb = mesh.vertices[mesh.edges[e]]
        epts = pa + t[:, None] * (pb - pa)
        t1, t2 = mesh.edge_tris[e]
        q0_jump.append(q0[t1](epts[:, 0], epts[:, 1]) - q0[t2](epts[:, 0], epts[:, 1]))

    return ErrorField(e0_quad=e0_quad, e0_nodes=e0_nodes, lap_e0=lap_e0, en=en,
                      mismatch=mismatch, q0_jump=np.array(q0_jump),
                      lam=np.asarray(solution.lam, dtype=float))


# order of the derivative of Q0 u that each error field samples
FIELD_DERIVATIVES = {"e0_quad": 0, "e0_nodes": 0, "lap_e0": 2, "en": 0, "mismatch": 1,
                     "q0_jump": 0, "lam": 0}


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("case", ["case1", "case5", "figures"])
def test_error_field_bits_match_from_scratch_oracle(case, n):
    # the monomial oracle agrees to roundoff: 1e-12 of the size of Q0 u,
    # times h^-k for a field that samples a k-th derivative of it
    problem = get_problem("coscos")
    mesh = build_uniform_unit_square(n)
    solution = factor_and_solve(build_saddle_system(mesh, tags_for(mesh, case), problem))
    qhu = project_exact(problem, mesh)
    want = build_error_field_from_scratch(solution, problem, qhu.qn, mesh)
    got = build_error_field(solution, qhu, mesh)
    for name, a in vars(want).items():
        b = getattr(got, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        size = np.abs(qhu.q0).max() / mesh.h_t.min() ** FIELD_DERIVATIVES[name]
        assert np.abs(a - b).max() <= 1e-12 * size, name


def test_zero_error_for_projected_global_quadratic(mesh4):
    problem = get_problem("quad")
    tags = tags_for(mesh4, "case1")
    qhu = project_exact(problem, mesh4)
    coords = mesh4.p2_node_coords
    sol = fake_solution(
        mesh4,
        problem.u(coords[:, 0], coords[:, 1]),
        qhu.qn,
        np.zeros(mesh4.num_triangles),
    )
    rep = error_norms(sol, qhu, mesh4, tags)
    # the squared sums are machine zero; their roots come out near 1e-12
    for name, value in rep.as_dict().items():
        assert value <= 1e-11, name


def test_norm_homogeneity(mesh2, rng):
    problem = get_problem("sinsin")
    tags = tags_for(mesh2, "case1")
    qhu = project_exact(problem, mesh2)
    sol = fake_solution(
        mesh2,
        rng.standard_normal(mesh2.num_vertices + mesh2.num_edges),
        rng.standard_normal((mesh2.num_edges, 2)),
        rng.standard_normal(mesh2.num_triangles),
    )
    field = build_error_field(sol, qhu, mesh2)
    base = norms_of_error(field, mesh2, tags).as_dict()
    for c in (3.5, -0.25):
        scaled = norms_of_error(field.scaled(c), mesh2, tags).as_dict()
        for k in base:
            assert scaled[k] == pytest.approx(abs(c) * base[k], rel=1e-12, abs=1e-14)


def test_norm_triangle_inequality(mesh2, rng):
    problem = get_problem("coscos")
    tags = tags_for(mesh2, "case2")
    qhu = project_exact(problem, mesh2)
    n_u = mesh2.num_vertices + mesh2.num_edges
    fields = []
    for _ in range(2):
        sol = fake_solution(
            mesh2,
            rng.standard_normal(n_u),
            rng.standard_normal((mesh2.num_edges, 2)),
            rng.standard_normal(mesh2.num_triangles),
        )
        fields.append(build_error_field(sol, qhu, mesh2))
    a = norms_of_error(fields[0], mesh2, tags).as_dict()
    b = norms_of_error(fields[1], mesh2, tags).as_dict()
    ab = norms_of_error(fields[0] + fields[1], mesh2, tags).as_dict()
    for k in a:
        assert ab[k] <= a[k] + b[k] + 1e-12


def test_lambda_norm_zero(mesh2):
    tags = tags_for(mesh2, "case1")
    assert lambda_norm(np.zeros(mesh2.num_triangles), mesh2, tags) == 0.0


def test_lambda_norm_constant_multiplier_n1():
    mesh = build_uniform_unit_square(1)
    tags = tags_for(mesh, "case5")  # Gamma_n = bottom
    lam = np.ones(2)
    # interior jump vanishes; left/right/top boundary edges contribute 1 each
    got = lambda_norm(lam, mesh, tags)
    assert got == pytest.approx(np.sqrt(3.0), abs=1e-14)
    assert got == pytest.approx(lambda_norm_oracle(lam, mesh, tags), abs=1e-14)


def test_lambda_norm_single_triangle_indicator_n1():
    from pdwg.mesh import classify_boundary

    mesh = build_uniform_unit_square(1)
    tags = classify_boundary(mesh, [])  # no Neumann edges
    lam = np.array([1.0, 0.0])  # lower-left triangle only
    # diagonal jump (h_e = sqrt 2) plus the two unit boundary edges of that
    # triangle: h_e^2 J^2 sums to 2 + 1 + 1
    got = lambda_norm(lam, mesh, tags)
    assert got == pytest.approx(2.0, abs=1e-14)
    assert got == pytest.approx(lambda_norm_oracle(lam, mesh, tags), abs=1e-14)


def test_lambda_norm_random_against_oracle(mesh4, rng):
    tags = tags_for(mesh4, "case3")
    lam = rng.uniform(-1, 1, mesh4.num_triangles)
    assert lambda_norm(lam, mesh4, tags) == pytest.approx(
        lambda_norm_oracle(lam, mesh4, tags), rel=1e-13
    )


def test_fine_mesh_curvature_norm_in_reference_band():
    # sinsin/case1 at the finest study mesh: h2 within 4.343e-3 +/- 2e-3
    problem = get_problem("sinsin")
    mesh = build_uniform_unit_square(32)
    tags = tags_for(mesh, "case1")
    sol = factor_and_solve(build_saddle_system(mesh, tags, problem))
    rep = error_norms(sol, project_exact(problem, mesh), mesh, tags)
    assert 4.343e-3 - 2e-3 <= rep.h2 <= 4.343e-3 + 2e-3


def test_l1_bounded_by_l2_on_solves():
    # Cauchy-Schwarz on the unit square
    for name, case in (("sinsin", "case1"), ("coscos", "case2")):
        problem = get_problem(name)
        mesh = build_uniform_unit_square(8)
        tags = tags_for(mesh, case)
        system = build_saddle_system(mesh, tags, problem)
        sol = factor_and_solve(system)
        rep = error_norms(sol, project_exact(problem, mesh), mesh, tags)
        assert rep.l1 <= rep.l2 + 1e-15


def test_h1_w11_vanish_iff_flux_error_vanishes(mesh2, rng):
    problem = get_problem("sinsin")
    tags = tags_for(mesh2, "case1")
    qhu = project_exact(problem, mesh2)
    n_u = mesh2.num_vertices + mesh2.num_edges
    sol = fake_solution(mesh2, rng.standard_normal(n_u), qhu.qn,
                        np.zeros(mesh2.num_triangles))
    rep = error_norms(sol, qhu, mesh2, tags)
    assert rep.h1 == 0.0 and rep.w11 == 0.0
    un = qhu.qn.copy()
    un[3, 0] += 1e-3
    rep = error_norms(fake_solution(mesh2, sol.u0, un, sol.lam), qhu, mesh2, tags)
    assert rep.h1 > 0.0 and rep.w11 > 0.0


def test_project_exact_reproduces_quadratic(mesh4, rng):
    problem = get_problem("quad")
    qhu = project_exact(problem, mesh4)
    pts = rng.random((mesh4.num_triangles, 5, 2))
    tri = mesh4.tri_coords()
    # map unit samples into each triangle via barycentric mixing
    bary = rng.dirichlet([1, 1, 1], size=5)
    pts = np.einsum("qk,tkd->tqd", bary, tri)
    got = qhu.q0 @ p2_values(bary).T
    want = problem.u(pts[..., 0], pts[..., 1])
    assert np.abs(got - want).max() <= 1e-12


def test_project_exact_linear_flux_constant(mesh2):
    problem = get_problem("quad")  # gradient is linear, flux linear per edge
    lin = type(problem)(
        name="plane",
        u=lambda x, y: 2 * x - 3 * y,
        grad_u=lambda x, y: (2.0 + 0 * x, -3.0 + 0 * y),
        f=lambda x, y: 0 * x,
    )
    qhu = project_exact(lin, mesh2)
    want = 2 * mesh2.edge_normals[:, 0] - 3 * mesh2.edge_normals[:, 1]
    assert np.abs(qhu.qn[:, 0] - want).max() <= 1e-14
    assert np.abs(qhu.qn[:, 1]).max() <= 1e-13


def test_project_exact_sinsin_against_high_order_oracle(mesh2):
    problem = get_problem("sinsin")
    t = 3
    tri = mesh2.tri_coords()[t]
    quad = triangle_quadrature(12)
    oracle = project_L2_element(problem.u, tri, 2, quad)
    pts = quad.physical_points(tri)
    want = oracle(pts[:, 0], pts[:, 1])

    def values(qhu):
        return p2_values(quad.points) @ qhu.q0[t]

    # same rule as the oracle: the batched mass solve agrees to rounding
    sharp = project_exact(problem, mesh2, tri_degree=12)
    assert np.abs(values(sharp) - want).max() <= 1e-13
    # default degree-6 rule: moment error visible on this coarse element but
    # orders below the discretization error there (~1e-3)
    default = project_exact(problem, mesh2)
    assert np.abs(values(default) - want).max() <= 1e-6


@pytest.mark.parametrize("tri_degree", [4, 8, 12, 20])
def test_projection_is_sampled_on_the_rules_of_its_degree(mesh2, tri_degree):
    problem = get_problem("coscos")
    qhu = project_exact(problem, mesh2, tri_degree)
    edge_points = edge_points_for(tri_degree)
    assert qhu.tri_degree == tri_degree
    assert qhu.q0_jump.shape[1] == edge_points
    assert qhu.basis_quad.shape == (len(triangle_quadrature(tri_degree).weights), 6)
    want = projected_weak_function(problem.grad_u, mesh2, edge_points)
    assert qhu.qn.tobytes() == want.tobytes()


def test_projection_arrays_are_read_only(mesh2):
    qhu = project_exact(get_problem("sinsin"), mesh2)
    arrays = {k: v for k, v in vars(qhu).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == set(vars(qhu)) - {"tri_degree"}
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0


@pytest.mark.parametrize("tri_degree", [0, PROJECTION_MIN_TRI_DEGREE - 1])
def test_project_exact_rejects_rules_too_weak_for_the_p2_mass(mesh2, tri_degree):
    # below degree 4 the P2 mass matrix is singular or wrong
    assert PROJECTION_MIN_TRI_DEGREE == 4
    with pytest.raises(ValueError, match="degree >= 4"):
        project_exact(get_problem("sinsin"), mesh2, tri_degree=tri_degree)
    project_exact(get_problem("sinsin"), mesh2, tri_degree=PROJECTION_MIN_TRI_DEGREE)


def test_project_element_reproduces_members():
    tri = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    for f in (lambda x, y: 3.0 + 0 * x, lambda x, y: x**2, lambda x, y: x * y - 2 * y**2):
        p = project_L2_element(f, tri, 2)
        xs = np.array([0.4, 0.5, 0.45])
        ys = np.array([0.3, 0.4, 0.5])
        assert np.abs(p(xs, ys) - f(xs, ys)).max() <= 1e-13


def test_project_element_cubic_against_normal_equation_oracle(rng):
    # independent oracle: plain monomial basis with exact factorial moments
    f = lambda x, y: x**3
    exps = monomial_exponents(2)
    M = np.array(
        [[exact_ref_monomial(a1 + a2, b1 + b2) for (a2, b2) in exps] for (a1, b1) in exps]
    )
    rhs = np.array([exact_ref_monomial(a + 3, b) for (a, b) in exps])
    coeffs = np.linalg.solve(M, rhs)
    oracle = lambda x, y: sum(c * x**a * y**b for c, (a, b) in zip(coeffs, exps))

    p = project_L2_element(f, REF_TRI, 2)
    pts = rng.random((20, 2)) * 0.4 + 0.05
    assert np.abs(p(pts[:, 0], pts[:, 1]) - oracle(pts[:, 0], pts[:, 1])).max() <= 1e-12


def test_project_element_idempotent(rng):
    tri = np.array([[0.0, 0.0], [0.5, 0.1], [0.1, 0.6]])
    f = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
    once = project_L2_element(f, tri, 2)
    twice = project_L2_element(once, tri, 2)
    assert np.abs(once.coeffs - twice.coeffs).max() <= 1e-13


def test_project_element_orthogonality(rng):
    # residual of a random degree-5 polynomial is L2-orthogonal to P2
    tri = np.array([[0.1, 0.0], [0.8, 0.2], [0.3, 0.9]])
    exps5 = monomial_exponents(5)
    c = rng.uniform(-1, 1, len(exps5))
    f = lambda x, y: sum(ci * x**a * y**b for ci, (a, b) in zip(c, exps5))
    p = project_L2_element(f, tri, 2, triangle_quadrature(12))
    rule = triangle_quadrature(12)
    for a, b in monomial_exponents(2):
        resid = quad_integral(
            rule, tri, lambda x, y: (f(x, y) - p(x, y)) * x**a * y**b
        )
        assert abs(resid) <= 1e-12


def test_degenerate_triangle_rejected():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        project_L2_element(lambda x, y: x, bad, 2)


def test_mesh_mismatch_rejected(mesh2, mesh4):
    problem = get_problem("sinsin")
    qhu = project_exact(problem, mesh2)
    coords = mesh4.p2_node_coords
    sol = fake_solution(
        mesh4,
        problem.u(coords[:, 0], coords[:, 1]),
        np.zeros((mesh4.num_edges, 2)),
        np.zeros(mesh4.num_triangles),
    )
    with pytest.raises(ValueError, match="projection does not match"):
        error_norms(sol, qhu, mesh4, tags_for(mesh4, "case1"))
