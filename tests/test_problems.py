import numpy as np
import pytest

from pdwg.mesh import build_uniform_unit_square, classify_boundary
from pdwg.problems import (
    NoiseSpec,
    case_configs,
    catalog,
    get_case,
    get_problem,
    perturb,
)


def fd_laplacian(u, x, y, h=1e-4):
    return (
        u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4 * u(x, y)
    ) / h**2


def test_catalog_names():
    assert sorted(catalog()) == ["bubble", "coscos", "quad", "sinsin"]
    with pytest.raises(KeyError):
        get_problem("nope")


@pytest.mark.parametrize("name", ["quad", "sinsin", "coscos", "bubble"])
def test_source_matches_laplacian_by_finite_differences(name, rng):
    p = get_problem(name)
    pts = rng.uniform(0.2, 0.8, size=(30, 2))
    got = p.f(pts[:, 0], pts[:, 1])
    want = fd_laplacian(p.u, pts[:, 0], pts[:, 1])
    assert np.abs(got - want).max() <= 1e-6


@pytest.mark.parametrize("name", ["quad", "sinsin", "coscos", "bubble"])
def test_gradient_matches_finite_differences(name, rng):
    p = get_problem(name)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    gx, gy = p.grad_u(pts[:, 0], pts[:, 1])
    h = 1e-6
    fx = (p.u(pts[:, 0] + h, pts[:, 1]) - p.u(pts[:, 0] - h, pts[:, 1])) / (2 * h)
    fy = (p.u(pts[:, 0], pts[:, 1] + h) - p.u(pts[:, 0], pts[:, 1] - h)) / (2 * h)
    assert np.abs(gx - fx).max() <= 1e-8
    assert np.abs(gy - fy).max() <= 1e-8


def test_frozen_source_forms(rng):
    pts = rng.random((20, 2))
    x, y = pts[:, 0], pts[:, 1]
    assert np.all(get_problem("quad").f(x, y) == 4.0)
    assert np.abs(get_problem("sinsin").f(x, y) + 2 * np.sin(x) * np.sin(y)).max() == 0.0
    assert np.abs(get_problem("bubble").f(x, y) - 60 * (y**2 - y + x**2 - x)).max() <= 1e-13
    assert np.abs(
        get_problem("bubble").f(x, y) - (60 * y * (y - 1) + 60 * x * (x - 1))
    ).max() <= 1e-13


def test_case_names_stable():
    assert sorted(case_configs()) == [
        "case1", "case2", "case3", "case4", "case5", "figures",
    ]
    with pytest.raises(KeyError):
        get_case("case9")


def test_case2_has_no_cauchy_overlap():
    mesh = build_uniform_unit_square(4)
    tags = classify_boundary(mesh, list(get_case("case2").segments))
    assert not (tags.dirichlet & tags.neumann).any()
    # every boundary edge still carries exactly one kind of data
    boundary = mesh.boundary_edge_mask
    assert ((tags.dirichlet | tags.neumann)[boundary]).all()


def test_case4_leaves_top_bottom_free():
    mesh = build_uniform_unit_square(4)
    tags = classify_boundary(mesh, list(get_case("case4").segments))
    mids = mesh.edge_midpoints
    for e in np.flatnonzero(mesh.boundary_edge_mask):
        x, y = mids[e]
        on_sides = abs(x) < 1e-12 or abs(x - 1) < 1e-12
        assert tags.dirichlet[e] == on_sides
        assert tags.neumann[e] == on_sides


def test_case5_leaves_three_sides_free():
    mesh = build_uniform_unit_square(4)
    tags = classify_boundary(mesh, list(get_case("case5").segments))
    mids = mesh.edge_midpoints
    for e in np.flatnonzero(mesh.boundary_edge_mask):
        on_bottom = abs(mids[e][1]) < 1e-12
        assert tags.dirichlet[e] == on_bottom
        assert tags.neumann[e] == on_bottom


def test_zero_amplitude_is_bit_exact(rng):
    values = rng.standard_normal(50)
    spec = NoiseSpec(amplitude=0.0, seed=7)
    out = perturb(values, spec, spec.generator())
    assert np.array_equal(out, values)
    assert out is not values


def test_same_seed_reproduces(rng):
    values = rng.standard_normal(32)
    spec, other = NoiseSpec(amplitude=0.01, seed=99), NoiseSpec(amplitude=0.01, seed=100)
    a = perturb(values, spec, spec.generator())
    b = perturb(values, spec, spec.generator())
    assert np.array_equal(a, b)
    c = perturb(values, other, other.generator())
    assert not np.array_equal(a, c)


def test_perturbation_magnitude_bound(rng):
    values = np.zeros(10_000)
    spec = NoiseSpec(amplitude=0.005, seed=1)
    out = perturb(values, spec, spec.generator())
    assert np.abs(out).max() < 0.0025
    assert np.abs(out).max() > 0.002  # draws actually fill the range
    assert np.abs(out).min() > 0.0


def test_threaded_generator_continues_stream():
    spec = NoiseSpec(amplitude=0.01, seed=5)
    rng = spec.generator()
    a = perturb(np.zeros(8), spec, rng)
    b = perturb(np.zeros(8), spec, rng)
    both = perturb(np.zeros(16), spec, spec.generator())
    assert np.array_equal(np.concatenate([a, b]), both)


def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(amplitude=-0.1)
