import numpy as np
import pytest

from pdwg.assembly import constraint_matrix, num_primal, split_primal
from pdwg.mesh import build_uniform_unit_square
from pdwg.weak_laplacian import discrete_weak_laplacian, projected_weak_function


def quadratic(c):
    """u = c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2: gradient and Laplacian."""
    grad = lambda x, y: (c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y)
    return grad, 2 * (c[3] + c[5])


def test_compatible_quadratic_gives_constant_laplacian():
    mesh = build_uniform_unit_square(2)
    flux = projected_weak_function(lambda x, y: (2 * x, 2 * y), mesh)
    assert flux.shape == (mesh.num_edges, 2)
    lap = discrete_weak_laplacian(mesh, flux)
    assert lap.shape == (mesh.num_triangles,)
    assert np.abs(lap - 4.0).max() <= 1e-12


def test_compatible_harmonic_linear_is_zero():
    mesh = build_uniform_unit_square(1)
    flux = projected_weak_function(lambda x, y: (1.0 + 0 * x, 0 * y), mesh)
    assert np.abs(discrete_weak_laplacian(mesh, flux)).max() <= 1e-12


def test_pure_unit_outward_flux_on_reference_triangle():
    # triangle 0 of the n=1 mesh is (0,0),(1,0),(0,1)
    mesh = build_uniform_unit_square(1)
    flux = np.zeros((mesh.num_edges, 2))
    flux[mesh.tri_edges[0], 0] = mesh.tri_edge_signs[0]  # outward value 1
    # hand oracle: perimeter / area from the mesh tables
    perimeter = sum(mesh.h_e[e] for e in mesh.tri_edges[0])
    expected = perimeter / mesh.area[0]
    assert expected == pytest.approx(4 + 2 * np.sqrt(2.0), abs=1e-14)
    assert discrete_weak_laplacian(mesh, flux)[0] == pytest.approx(expected, abs=1e-12)


# the lowest-order scheme has only the P2 element and the P0 weak Laplacian
@pytest.mark.parametrize("k,r", [(2, 0)])
def test_consistency_with_projected_laplacian(k, r, rng):
    # compatible traces of a random P_k: the weak Laplacian equals Q_r(lap v0)
    mesh = build_uniform_unit_square(2)
    grad, lap = quadratic(rng.uniform(-1, 1, (k + 1) * (k + 2) // 2))
    got = discrete_weak_laplacian(mesh, projected_weak_function(grad, mesh))
    # tolerance relative to the polynomial's own curvature scale
    assert np.abs(got - lap).max() <= 1e-12 * max(1.0, abs(lap))


def test_commutes_with_projection_for_quadratics():
    mesh = build_uniform_unit_square(2)
    grad, lap = quadratic([0.3, -1.0, 2.0, 1.5, -0.7, 0.25])
    got = discrete_weak_laplacian(mesh, projected_weak_function(grad, mesh))
    assert np.abs(got - lap).max() <= 1e-12


def test_c0_k2_examples():
    mesh = build_uniform_unit_square(2)
    # zero flux
    assert np.all(discrete_weak_laplacian(mesh, np.zeros((mesh.num_edges, 2))) == 0.0)
    # exact flux of u = x^2 + y^2 - 10xy gives lap u = 4 by the divergence theorem;
    # the flux is linear on each edge, so it is fixed by its endpoint values
    grad = lambda p: np.array([2 * p[0] - 10 * p[1], 2 * p[1] - 10 * p[0]])
    flux = np.empty((mesh.num_edges, 2))
    for e, (a, b) in enumerate(mesh.edges):
        g0 = grad(mesh.vertices[a]) @ mesh.edge_normals[e]
        g1 = grad(mesh.vertices[b]) @ mesh.edge_normals[e]
        flux[e] = [(g0 + g1) / 2, g1 - g0]
    assert np.abs(discrete_weak_laplacian(mesh, flux) - 4.0).max() <= 1e-13
    # the centered-linear coefficient carries no integral
    flux[:, 1] += 7.0
    assert np.abs(discrete_weak_laplacian(mesh, flux) - 4.0).max() <= 1e-13


def test_weak_laplacian_matches_constraint_rows(rng):
    # |T| * weak_lap(v) is row T of the assembled constraint B applied to v
    for n in (1, 3, 4):
        mesh = build_uniform_unit_square(n)
        v = rng.standard_normal(num_primal(mesh))
        flux = split_primal(mesh, v)[1]
        got = mesh.area * discrete_weak_laplacian(mesh, flux)
        want = constraint_matrix(mesh) @ v
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
