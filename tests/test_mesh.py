import numpy as np
import pytest

from pdwg.mesh import BoundarySegmentSpec, build_uniform_unit_square, classify_boundary

from conftest import tags_for


@pytest.mark.parametrize("n,V,E,T", [(1, 4, 5, 2), (2, 9, 16, 8), (3, 16, 33, 18)])
def test_entity_counts(n, V, E, T):
    mesh = build_uniform_unit_square(n)
    assert mesh.num_vertices == V == (n + 1) ** 2
    assert mesh.num_edges == E == 3 * n**2 + 2 * n
    assert mesh.num_triangles == T == 2 * n**2


def test_n2_edges_match_explicit_enumeration():
    mesh = build_uniform_unit_square(2)
    pairs = set()
    for tri in mesh.triangles:
        for l in range(3):
            a, b = int(tri[l]), int(tri[(l + 1) % 3])
            pairs.add((min(a, b), max(a, b)))
    assert sorted(pairs) == [tuple(e) for e in mesh.edges]
    assert len(pairs) == 16


def test_finest_table_row_size():
    mesh = build_uniform_unit_square(32)
    assert mesh.num_triangles == 2048


def test_rejects_zero_subdivision():
    with pytest.raises(ValueError):
        build_uniform_unit_square(0)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_geometry_invariants(n):
    mesh = build_uniform_unit_square(n)
    assert abs(mesh.area.sum() - 1.0) <= 1e-14
    assert np.allclose(mesh.area, 1.0 / (2 * n**2), rtol=0, atol=1e-15)
    assert np.allclose(mesh.h_t, np.sqrt(2.0) / n, rtol=0, atol=1e-15)
    # Euler relation for the simply connected square
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1
    # counterclockwise orientation
    assert (mesh.area > 0).all()


@pytest.mark.parametrize("n", [1, 3, 4])
def test_edge_incidence_and_signs(n):
    mesh = build_uniform_unit_square(n)
    interior = ~mesh.boundary_edge_mask
    assert (mesh.edge_tris[interior] >= 0).all()
    # opposite outward normals across interior edges, single triangle otherwise
    assert (mesh.edge_tri_signs[interior].sum(axis=1) == 0).all()
    assert (mesh.edge_tris[~interior, 1] == -1).all()
    n_int = int(interior.sum())
    assert n_int == mesh.num_edges - 4 * n


@pytest.mark.parametrize("n", [1, 2, 4])
def test_signed_edge_vectors_close_up(n):
    mesh = build_uniform_unit_square(n)
    for t in range(mesh.num_triangles):
        total = np.zeros(2)
        for l in range(3):
            e = mesh.tri_edges[t, l]
            total += mesh.tri_edge_signs[t, l] * mesh.h_e[e] * mesh.edge_normals[e]
        assert np.abs(total).max() <= 1e-14


def test_unit_normals():
    mesh = build_uniform_unit_square(3)
    assert np.allclose(np.linalg.norm(mesh.edge_normals, axis=1), 1.0, atol=1e-15)
    # normal is perpendicular to the edge
    tang = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    assert np.abs(np.einsum("ed,ed->e", tang, mesh.edge_normals)).max() <= 1e-14


def test_classify_bottom_cauchy_n2(mesh2):
    spec = BoundarySegmentSpec(side="bottom", has_dirichlet=True, has_neumann=True)
    tags = classify_boundary(mesh2, [spec])
    both = tags.dirichlet & tags.neumann
    assert both.sum() == 2
    mids = mesh2.edge_midpoints[both]
    assert np.allclose(mids[:, 1], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_case1_tags_all_sides(n):
    mesh = build_uniform_unit_square(n)
    tags = tags_for(mesh, "case1")
    mids = mesh.edge_midpoints
    for e in np.flatnonzero(mesh.boundary_edge_mask):
        x, y = mids[e]
        if abs(y) < 1e-12 or abs(x - 1) < 1e-12:  # bottom, right: Cauchy
            assert tags.dirichlet[e] and tags.neumann[e]
        elif abs(x) < 1e-12:  # left: Dirichlet only
            assert tags.dirichlet[e] and not tags.neumann[e]
        else:  # top: Neumann only
            assert not tags.dirichlet[e] and tags.neumann[e]


def test_sub_interval_edge_count():
    mesh = build_uniform_unit_square(16)
    tags = tags_for(mesh, "figures")
    assert len(tags.dirichlet_edges) == 8
    assert len(tags.neumann_edges) == 8
    assert (tags.dirichlet_edges == tags.neumann_edges).all()
    mids = mesh.edge_midpoints[tags.dirichlet_edges]
    assert (mids[:, 0] < 0.5).all() and np.allclose(mids[:, 1], 0.0)


def test_interior_edges_untagged(mesh4):
    tags = tags_for(mesh4, "case1")
    interior = ~mesh4.boundary_edge_mask
    assert not tags.dirichlet[interior].any()
    assert not tags.neumann[interior].any()


def test_misaligned_interval_rejected(mesh2):
    spec = BoundarySegmentSpec(side="bottom", has_dirichlet=True, lo=0.0, hi=0.3)
    with pytest.raises(ValueError):
        classify_boundary(mesh2, [spec])


def test_interval_membership_uses_closure():
    mesh = build_uniform_unit_square(4)
    spec = BoundarySegmentSpec(side="bottom", has_dirichlet=True, lo=0.0, hi=0.5)
    tags = classify_boundary(mesh, [spec])
    mids = mesh.edge_midpoints[tags.dirichlet_edges]
    assert len(tags.dirichlet_edges) == 2
    assert (mids[:, 0] <= 0.5).all()


def test_bad_segment_spec_rejected():
    with pytest.raises(ValueError):
        BoundarySegmentSpec(side="diagonal")
    with pytest.raises(ValueError):
        BoundarySegmentSpec(side="top", lo=0.7, hi=0.2)


_MESH_ARRAYS = ("vertices", "triangles", "edges", "edge_normals", "tri_edges",
                "tri_edge_signs", "edge_tris", "edge_tri_signs", "h_t", "h_e", "area")


def _loop_reference(n):
    """The per-triangle loop builder the vectorized one replaced, kept as the reference."""
    idx = lambda i, j: j * (n + 1) + i
    xs = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    triangles = []
    for j in range(n):
        for i in range(n):
            bl, br = idx(i, j), idx(i + 1, j)
            tl, tr = idx(i, j + 1), idx(i + 1, j + 1)
            triangles.append((bl, br, tl))
            triangles.append((br, tr, tl))
    triangles = np.asarray(triangles, dtype=np.int64)

    pairs = set()
    for t in triangles:
        for l in range(3):
            a, b = t[l], t[(l + 1) % 3]
            pairs.add((min(a, b), max(a, b)))
    edges = np.asarray(sorted(pairs), dtype=np.int64)
    edge_id = {tuple(e): k for k, e in enumerate(edges)}

    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    tri_edge_signs = np.empty((len(triangles), 3), dtype=np.int64)
    edge_tris = -np.ones((len(edges), 2), dtype=np.int64)
    edge_tri_signs = np.zeros((len(edges), 2), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for l in range(3):
            a, b = tri[l], tri[(l + 1) % 3]
            e = edge_id[(min(a, b), max(a, b))]
            s = 1 if a < b else -1
            tri_edges[t, l] = e
            tri_edge_signs[t, l] = s
            slot = 0 if edge_tris[e, 0] < 0 else 1
            edge_tris[e, slot] = t
            edge_tri_signs[e, slot] = s

    tangents = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    h_e = np.linalg.norm(tangents, axis=1)
    edge_normals = np.column_stack([tangents[:, 1], -tangents[:, 0]]) / h_e[:, None]

    p = vertices[triangles]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    area = 0.5 * cross
    sides = np.stack(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
    )
    h_t = sides.max(axis=0)
    return dict(vertices=vertices, triangles=triangles, edges=edges,
                edge_normals=edge_normals, tri_edges=tri_edges,
                tri_edge_signs=tri_edge_signs, edge_tris=edge_tris,
                edge_tri_signs=edge_tri_signs, h_t=h_t, h_e=h_e, area=area)


@pytest.mark.parametrize("n", [*range(1, 13), 33])
def test_matches_loop_reference(n):
    mesh = build_uniform_unit_square(n)
    ref = _loop_reference(n)
    for name in _MESH_ARRAYS:
        got = getattr(mesh, name)
        assert got.dtype == ref[name].dtype, name
        assert got.shape == ref[name].shape, name
        np.testing.assert_array_equal(got, ref[name], err_msg=name)
        assert got.tobytes() == ref[name].tobytes(), name
