import numpy as np
import pytest
import scipy.sparse.linalg as spla

import pdwg.assembly as assembly
from pdwg.assembly import build_saddle_system
from pdwg.harness import Discretization, Reference
from pdwg.linsolve import factor_and_solve, saddle_factor
from pdwg.mesh import build_uniform_unit_square
from pdwg.norms import lambda_norm, project_exact
from pdwg.polyspace import edge_gauss, triangle_quadrature
from pdwg.problems import ManufacturedSolution, get_problem
from pdwg.verify import (
    build_vstar,
    check_commutative,
    check_error_equations,
    check_infsup,
    coercivity_ratio,
    quadratic_consistency_residual,
    run_standard_checks,
)

from conftest import tags_for

P2_SAMPLES = [
    ManufacturedSolution(
        "sum_of_squares",
        u=lambda x, y: x**2 + y**2,
        grad_u=lambda x, y: (2 * x, 2 * y),
        f=lambda x, y: 4.0 + 0 * x,
    ),
    ManufacturedSolution(
        "coordinate",
        u=lambda x, y: x + 0 * y,
        grad_u=lambda x, y: (1.0 + 0 * x, 0 * y),
        f=lambda x, y: 0 * x,
    ),
    get_problem("quad"),
]


@pytest.mark.parametrize("theta", P2_SAMPLES, ids=lambda p: p.name)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_commutation_exact_for_quadratics(theta, n):
    mesh = build_uniform_unit_square(n)
    assert check_commutative(mesh, theta) <= 1e-12


def commutative_oracle(mesh, problem, edge_points=8, tri_degree=12):
    """Both sides of the commutation identity by direct quadrature.

    Left side per element: the signed edge integrals of the flux projection
    over the area; right side: the mean of f over the element.
    """
    t, w = edge_gauss(edge_points)
    quad = triangle_quadrature(tri_degree)
    worst = 0.0
    for k in range(mesh.num_triangles):
        lhs = 0.0
        for l in range(3):
            e = mesh.tri_edges[k, l]
            a, b = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            ne = mesh.edge_normals[e]
            pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
            gx, gy = problem.grad_u(pts[:, 0], pts[:, 1])
            flux = gx * ne[0] + gy * ne[1]
            # integral of the P1 projection equals the quadrature integral
            lhs += mesh.tri_edge_signs[k, l] * float(w @ flux) * mesh.h_e[e]
        lhs /= mesh.area[k]
        pts = quad.physical_points(mesh.tri_coords()[k])
        wq = quad.physical_weights(mesh.area[k])
        rhs = float(wq @ problem.f(pts[:, 0], pts[:, 1])) / mesh.area[k]
        worst = max(worst, abs(lhs - rhs) * np.sqrt(mesh.area[k]))
    return worst


def test_commutation_sinsin_matches_independent_oracle(mesh4):
    problem = get_problem("sinsin")
    got = check_commutative(mesh4, problem, tri_degree=8)
    oracle = commutative_oracle(mesh4, problem)
    assert got <= 1e-10
    assert abs(got - oracle) <= 1e-10


def test_vstar_zero_multiplier(mesh2):
    tags = tags_for(mesh2, "case1")
    v = build_vstar(np.zeros(mesh2.num_triangles), mesh2, tags)
    assert np.abs(v).max() == 0.0


def test_vstar_constant_multiplier_n1():
    mesh = build_uniform_unit_square(1)
    tags = tags_for(mesh, "case5")  # Gamma_n = bottom
    v = build_vstar(np.ones(2), mesh, tags)
    n_u = mesh.num_vertices + mesh.num_edges
    assert np.abs(v[:n_u]).max() == 0.0  # element and trace parts vanish
    flux = v[n_u:].reshape(mesh.num_edges, 2)
    assert np.abs(flux[:, 1]).max() == 0.0
    mids = mesh.edge_midpoints
    for e in range(mesh.num_edges):
        x, y = mids[e]
        if abs(y) < 1e-12 and mesh.boundary_edge_mask[e]:
            assert flux[e, 0] == 0.0  # Gamma_n
        elif not mesh.boundary_edge_mask[e]:
            assert flux[e, 0] == 0.0  # interior jump of a constant
        else:
            assert abs(flux[e, 0]) == pytest.approx(mesh.h_e[e], abs=1e-15)


def infsup_identity_oracle(lam, mesh, tags):
    """Hand enumeration of (weak_lap v*, lam) with v*_n = h_e [lam]."""
    total = 0.0
    for e in range(mesh.num_edges):
        if tags.neumann[e]:
            continue
        J = 0.0
        for slot in range(2):
            t = mesh.edge_tris[e, slot]
            if t >= 0:
                J += mesh.edge_tri_signs[e, slot] * lam[t]
        # edge integral of the constant h_e J times the jump J
        total += J * (mesh.h_e[e] * J) * mesh.h_e[e]
    return total


def test_infsup_identity_random_multipliers(mesh2, rng):
    tags = tags_for(mesh2, "case1")
    system = build_saddle_system(mesh2, tags, get_problem("quad"))
    for _ in range(10):
        lam = rng.uniform(-1, 1, mesh2.num_triangles)
        v = build_vstar(lam, mesh2, tags)
        lhs = float(lam @ (system.B @ v))
        want = lambda_norm(lam, mesh2, tags) ** 2
        assert lhs == pytest.approx(want, rel=1e-12)
        assert lhs == pytest.approx(infsup_identity_oracle(lam, mesh2, tags), rel=1e-12)


def test_infsup_constant_multiplier_value(mesh4):
    tags = tags_for(mesh4, "case3")
    system = build_saddle_system(mesh4, tags, get_problem("quad"))
    c = 0.7
    lam = np.full(mesh4.num_triangles, c)
    v = build_vstar(lam, mesh4, tags)
    lhs = float(lam @ (system.B @ v))
    boundary = mesh4.boundary_edge_mask & ~tags.neumann
    want = c**2 * float(np.sum(mesh4.h_e[boundary] ** 2))
    assert lhs == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_infsup_report_identity(n):
    mesh = build_uniform_unit_square(n)
    tags = tags_for(mesh, "case1")
    out = check_infsup(mesh, tags, n_samples=20)
    assert out["max_rel_discrepancy"] <= 1e-12
    assert len(out["ratios"]) == 20


def test_infsup_ratio_mesh_independent():
    ratios = []
    for n in (2, 4, 8, 16):
        mesh = build_uniform_unit_square(n)
        out = check_infsup(mesh, tags_for(mesh, "case1"), n_samples=20)
        ratios.extend(out["ratios"])
    assert max(ratios) / min(ratios) <= 4.0


def test_infsup_deterministic(mesh4):
    tags = tags_for(mesh4, "case1")
    a = check_infsup(mesh4, tags, n_samples=5, seed=3)
    b = check_infsup(mesh4, tags, n_samples=5, seed=3)
    assert a == b


def test_error_equations_quadratic(mesh4):
    problem = get_problem("quad")
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, problem)
    solution = factor_and_solve(system)
    qhu = project_exact(problem, mesh4)
    sehv, sehv2 = check_error_equations(solution, qhu, system)
    assert sehv <= 1e-10
    assert sehv2 <= 1e-10


def test_error_equations_zero_data(mesh4):
    zero = ManufacturedSolution(
        "null", u=lambda x, y: 0 * x, grad_u=lambda x, y: (0 * x, 0 * y),
        f=lambda x, y: 0 * x,
    )
    tags = tags_for(mesh4, "case1")
    system = build_saddle_system(mesh4, tags, zero)
    solution = factor_and_solve(system)
    qhu = project_exact(zero, mesh4)
    assert np.abs(solution.primal).max() <= 1e-12
    sehv, sehv2 = check_error_equations(solution, qhu, system)
    assert sehv <= 1e-12 and sehv2 <= 1e-12


def test_error_equation_constraint_smooth_source():
    problem = get_problem("sinsin")
    mesh = build_uniform_unit_square(8)
    tags = tags_for(mesh, "case1")
    system = build_saddle_system(mesh, tags, problem)
    solution = factor_and_solve(system)
    _, sehv2 = check_error_equations(solution, project_exact(problem, mesh), system)
    assert sehv2 <= 1e-8


def test_quadratic_consistency(mesh4):
    disc = Discretization("case1", mesh4)
    assert quadratic_consistency_residual(disc, Reference(get_problem("quad"), mesh4)) <= 1e-10


@pytest.mark.parametrize("n", [8, 16, 32])
def test_wellposed_mixed_factorization_pivots(n):
    mesh = build_uniform_unit_square(n)
    pr = saddle_factor(Discretization("case2", mesh).matrix).pivot_report()
    assert pr.min_pivot >= 1e-12 * pr.max_pivot


def test_coercivity_ratio_bounded():
    cs = []
    for n in (4, 8, 16, 32):
        mesh = build_uniform_unit_square(n)
        cs.append(coercivity_ratio(Discretization("case1", mesh),
                                   Reference(get_problem("sinsin"), mesh)))
    assert all(np.isfinite(cs))
    # empirical range is [1.09, 1.86]; generous headroom, not a theory value
    assert max(cs) <= 4.0
    assert min(cs) > 0.0


STANDARD_CHECKS = [
    "commutative_quadratic", "commutative_sinsin", "infsup_identity",
    "infsup_ratio_spread", "error_equation_multiplier", "error_equation_constraint",
    "error_equation_constraint_smooth", "system_symmetry", "stabilizer_psd",
    "quadratic_consistency", "mixed_case_pivots", "coercivity_ratio",
]


def test_standard_checks_all_pass():
    report = run_standard_checks()
    assert report.ok, "\n".join(report.lines())
    assert [c.name for c in report.checks] == STANDARD_CHECKS


def test_standard_checks_share_matrices_and_factors(monkeypatch):
    # one matrix per (case, n): case1 at n in {2,4,8,16,32}, case2 at n in {8,16,32};
    # one factor per (case, n) that solves or reports pivots, all but case1 at n=2
    calls = {"stabilizer": 0, "splu": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assembly, "assemble_stabilizer",
                        counted("stabilizer", assembly.assemble_stabilizer))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    assert run_standard_checks().ok
    assert calls == {"stabilizer": 8, "splu": 7}
