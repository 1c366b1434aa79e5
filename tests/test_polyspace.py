import numpy as np
import pytest

from pdwg.cli import QUADRATURE_DEGREES
from pdwg.mesh import build_uniform_unit_square
from pdwg.polyspace import (
    MAX_TRI_DEGREE,
    edge_gauss,
    edge_points_for,
    gauss_jacobi_1_0,
    interpolate_nodes,
    p2_values,
    project_edge_samples,
    triangle_quadrature,
)

from conftest import REF_TRI, exact_ref_monomial, monomial_exponents, quad_integral


def test_reference_integrals():
    rule = triangle_quadrature(6)
    assert quad_integral(rule, REF_TRI, lambda x, y: 1.0 + 0 * x) == pytest.approx(0.5, abs=1e-15)
    assert quad_integral(rule, REF_TRI, lambda x, y: x) == pytest.approx(1 / 6, abs=1e-15)
    assert quad_integral(rule, REF_TRI, lambda x, y: x**2 * y**2) == pytest.approx(
        1 / 180, abs=1e-16
    )


@pytest.mark.parametrize("degree", range(MAX_TRI_DEGREE + 1))
def test_rule_exact_for_all_monomials(degree):
    rule = triangle_quadrature(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert (rule.weights > 0).all()
    for a, b in monomial_exponents(degree):
        got = quad_integral(rule, REF_TRI, lambda x, y: x**a * y**b)
        assert got == pytest.approx(exact_ref_monomial(a, b), rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("m", range(1, (MAX_TRI_DEGREE + 2) // 2 + 1))
def test_gauss_jacobi_line_matches_scipy(m):
    from scipy.special import roots_jacobi

    x, w = gauss_jacobi_1_0(m)
    x_ref, w_ref = roots_jacobi(m, 1.0, 0.0)
    np.testing.assert_allclose(x, x_ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-13, atol=0)


def test_triangle_rule_is_cached_and_read_only():
    rule = triangle_quadrature(7)
    assert triangle_quadrature(7) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        triangle_quadrature(99)


def edge_samples(g, pa, pb, n_points=4):
    t, _ = edge_gauss(n_points)
    pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
    return np.broadcast_to(g(pts[:, 0], pts[:, 1]), t.shape)


def edge_values(coeffs, t):
    """The P1 edge function c0 + c1 (t - 1/2)."""
    return coeffs[0] + coeffs[1] * (t - 0.5)


def test_edge_rule_of_every_quadrature_degree():
    for d in QUADRATURE_DEGREES:
        # pinned: the outputs of every --quadrature-degree depend on it
        assert edge_points_for(d) == max(4, (d + 2) // 2), d
        t, w = edge_gauss(edge_points_for(d))
        assert (t**d) @ w == pytest.approx(1.0 / (d + 1), rel=1e-14), d


def test_project_edge_reproduces_members():
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    const = project_edge_samples(edge_samples(lambda x, y: 1.0 + 0 * x, pa, pb))
    t = np.linspace(0, 1, 7)
    assert np.abs(edge_values(const, t) - 1.0).max() <= 1e-14
    lin = project_edge_samples(edge_samples(lambda x, y: 2 * x - 1, pa, pb))
    assert np.abs(edge_values(lin, t) - (2 * t - 1)).max() <= 1e-14


def test_project_edge_quadratic_onto_linear():
    # project t^2 onto P1: normal equations give t - 1/6
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    c = project_edge_samples(edge_samples(lambda x, y: x**2, pa, pb))
    t = np.linspace(0, 1, 9)
    assert np.abs(edge_values(c, t) - (t - 1 / 6)).max() <= 1e-14
    # centered coefficients of t - 1/6 = (t - 1/2) + 1/3
    assert c == pytest.approx([1 / 3, 1.0], abs=1e-14)


def test_edge_projection_preserves_integral(rng):
    pa, pb = np.array([0.25, 0.5]), np.array([0.5, 0.875])
    h = np.linalg.norm(pb - pa)
    c = rng.uniform(-1, 1, 7)
    g = lambda x, y: sum(ci * (x + 2 * y) ** i for i, ci in enumerate(c))
    coeffs = project_edge_samples(edge_samples(g, pa, pb))
    t, w = edge_gauss()
    pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
    quad_int = float(w @ g(pts[:, 0], pts[:, 1])) * h
    # the centered-linear part integrates to zero
    assert coeffs[0] * h == pytest.approx(quad_int, abs=1e-13)


def test_edge_projection_is_batched(rng):
    samples = rng.standard_normal((3, 5, 4))
    got = project_edge_samples(samples)
    assert got.shape == (3, 5, 2)
    assert np.abs(got[1, 2] - project_edge_samples(samples[1, 2])).max() <= 1e-14


def test_edge_projection_takes_its_rule_from_the_sample_count():
    # a linear flux sampled at the 3-point rule's nodes is reproduced by
    # that rule's weights; the 4-point rule's would not fit its nodes
    t, _ = edge_gauss(3)
    got = project_edge_samples(np.stack([2.0 + 5.0 * (t - 0.5)] * 4))
    assert got.shape == (4, 2)
    assert np.abs(got - [2.0, 5.0]).max() <= 1e-14


def bottom_nodes(mesh):
    bottom = [e for e in np.flatnonzero(mesh.boundary_edge_mask)
              if abs(mesh.edge_midpoints[e][1]) < 1e-12]
    return mesh.closure_p2_nodes(np.array(bottom))


def test_interpolate_dirichlet_zero_and_linear():
    mesh = build_uniform_unit_square(1)
    ids = bottom_nodes(mesh)
    assert np.all(interpolate_nodes(lambda x, y: 0 * x, mesh, ids) == 0)
    vals = interpolate_nodes(lambda x, y: x, mesh, ids)
    coords = mesh.p2_node_coords[ids]
    assert sorted(vals.tolist()) == pytest.approx([0.0, 0.5, 1.0])
    assert np.allclose(coords[:, 1], 0.0)


def test_interpolate_dirichlet_sinsin_bottom():
    mesh = build_uniform_unit_square(4)
    vals = interpolate_nodes(lambda x, y: np.sin(x) * np.sin(y), mesh, bottom_nodes(mesh))
    assert np.abs(vals).max() == 0.0


def test_p2_basis_partition_of_unity(rng):
    bary = rng.dirichlet([1, 1, 1], size=10)
    vals = p2_values(bary)
    assert np.abs(vals.sum(axis=-1) - 1.0).max() <= 1e-13
