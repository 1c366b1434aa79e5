"""Uniform triangulations of the unit square with oriented edge topology.

Every n x n sub-square is split by its negative-slope diagonal (top-left to
bottom-right corner) into two counterclockwise triangles.  Each edge carries
a fixed global unit normal so that flux unknowns have a unique global sign:
the normal is the tangent from the lower-indexed to the higher-indexed
endpoint rotated by -90 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SIDES = ("bottom", "top", "left", "right")
_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class BoundarySegmentSpec:
    """An axis-aligned boundary segment and the data imposed on it.

    ``side`` is one of bottom/top/left/right; ``lo``/``hi`` restrict the
    segment to a sub-interval of the side's running coordinate (x on
    bottom/top, y on left/right).  Both flags set means Cauchy data, neither
    means the segment is data-free.
    """

    side: str
    has_dirichlet: bool = False
    has_neumann: bool = False
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"unknown side {self.side!r}, expected one of {_SIDES}")
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"invalid interval ({self.lo}, {self.hi}) on side {self.side!r}")


@dataclass(frozen=True)
class BoundaryTags:
    """Per-edge (dirichlet, neumann) flags; interior edges carry none."""

    dirichlet: np.ndarray  # (E,) bool
    neumann: np.ndarray    # (E,) bool

    @property
    def dirichlet_edges(self) -> np.ndarray:
        return np.flatnonzero(self.dirichlet)

    @property
    def neumann_edges(self) -> np.ndarray:
        return np.flatnonzero(self.neumann)


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square with oriented edge topology.

    Attributes
    ----------
    n : int
        Subdivision parameter; mesh size h = 1/n.
    vertices : (V, 2) float array
    triangles : (T, 3) int array
        Counterclockwise vertex triples.
    edges : (E, 2) int array
        Vertex pairs with edges[e, 0] < edges[e, 1]; sorted lexicographically.
    edge_normals : (E, 2) float array
        Fixed global unit normal n_e per edge.
    tri_edges : (T, 3) int array
        Global edge id of local edge l = (v_l, v_{l+1 mod 3}).
    tri_edge_signs : (T, 3) int array
        s(T, e) = +1 iff the outward normal of T on e equals n_e.
    edge_tris, edge_tri_signs : (E, 2) int arrays
        Incident triangles per edge (second entry -1 on the boundary) and
        the matching s(T, e) values (0 padding).
    operators : dict
        The operators of the scheme that depend on this mesh alone, kept by
        ``pdwg.assembly.mesh_operator`` when first built and shared by every
        boundary case and problem on the mesh.  Clearing it frees them.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_normals: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    edge_tris: np.ndarray
    edge_tri_signs: np.ndarray
    h_t: np.ndarray = field(repr=False)   # (T,) element diameters
    h_e: np.ndarray = field(repr=False)   # (E,) edge lengths
    area: np.ndarray = field(repr=False)  # (T,) triangle areas
    operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def boundary_edge_mask(self) -> np.ndarray:
        return self.edge_tris[:, 1] < 0

    @property
    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    @property
    def p2_node_coords(self) -> np.ndarray:
        """Coordinates of the V + E P2 nodes (vertices then edge midpoints)."""
        return np.vstack([self.vertices, self.edge_midpoints])

    @property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def tri_coords(self) -> np.ndarray:
        """(T, 3, 2) vertex coordinates per triangle."""
        return self.vertices[self.triangles]

    def closure_p2_nodes(self, edges) -> np.ndarray:
        """Sorted ids of the P2 nodes on the closure of the given edges.

        Vertex nodes are their vertex index, midpoint nodes V + edge index.
        """
        edges = np.asarray(edges, dtype=np.int64)
        return np.unique(np.concatenate([self.edges[edges].ravel(), self.num_vertices + edges]))


def build_uniform_unit_square(n: int) -> Mesh:
    """Build the uniform triangulation with subdivision parameter ``n``.

    Parameters
    ----------
    n : int
        Number of sub-squares per side; must be >= 1.

    Returns
    -------
    Mesh
        V = (n+1)^2 vertices, E = 3n^2 + 2n edges, T = 2n^2 triangles; all
        triangle areas equal 1/(2n^2) and all diameters sqrt(2)/n.
    """
    if n < 1:
        raise ValueError(f"subdivision parameter must be >= 1, got {n}")

    V = (n + 1) ** 2
    xs = np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # sub-square (i, j) in row-major order, split by its negative-slope
    # diagonal tl-br into (bl, br, tl) and (br, tr, tl)
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    bl = j * (n + 1) + i
    br, tl = bl + 1, bl + n + 1
    tr = tl + 1
    triangles = np.stack([bl, br, tl, br, tr, tl], axis=1).reshape(-1, 3)

    # canonical edge table: the key min*V + max sorts lexicographically, so
    # np.unique yields the edges in a stable (a, b) order
    a = triangles.ravel()
    b = np.roll(triangles, -1, axis=1).ravel()
    keys, flat_edges = np.unique(np.minimum(a, b) * V + np.maximum(a, b), return_inverse=True)
    edges = np.column_stack(np.divmod(keys, V))
    flat_edges = flat_edges.astype(np.int64)
    flat_signs = np.where(a < b, 1, -1).astype(np.int64)
    tri_edges = flat_edges.reshape(-1, 3)
    tri_edge_signs = flat_signs.reshape(-1, 3)

    # incident triangles in increasing triangle id: the stable sort lists
    # an edge's lower triangle first (slot 0), its upper one next (slot 1)
    order = np.argsort(flat_edges, kind="stable")
    sorted_edges = flat_edges[order]
    slot = np.r_[0, sorted_edges[1:] == sorted_edges[:-1]]
    edge_tris = -np.ones((len(edges), 2), dtype=np.int64)
    edge_tri_signs = np.zeros((len(edges), 2), dtype=np.int64)
    edge_tris[sorted_edges, slot] = order // 3
    edge_tri_signs[sorted_edges, slot] = flat_signs[order]

    tangents = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    h_e = np.linalg.norm(tangents, axis=1)
    # rotate unit tangent by -90 degrees: (tx, ty) -> (ty, -tx)
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

    for arr in (vertices, triangles, edges, edge_normals, tri_edges, tri_edge_signs,
                edge_tris, edge_tri_signs, h_t, h_e, area):
        arr.setflags(write=False)

    return Mesh(
        n=n,
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_normals=edge_normals,
        tri_edges=tri_edges,
        tri_edge_signs=tri_edge_signs,
        edge_tris=edge_tris,
        edge_tri_signs=edge_tri_signs,
        h_t=h_t,
        h_e=h_e,
        area=area,
    )


def _side_geometry(side: str):
    """(fixed axis, fixed value, running axis) of a unit-square side."""
    return {
        "bottom": (1, 0.0, 0),
        "top": (1, 1.0, 0),
        "left": (0, 0.0, 1),
        "right": (0, 1.0, 1),
    }[side]


def check_alignment(specs, n: int) -> None:
    """Raise ValueError unless every segment endpoint is a multiple of 1/n."""
    for spec in specs:
        for v in (spec.lo, spec.hi):
            if abs(round(v * n) - v * n) > 1e-9:
                raise ValueError(
                    f"segment endpoint {v} on side {spec.side!r} is not aligned "
                    f"with the mesh (must be a multiple of 1/{n})"
                )


def classify_boundary(mesh: Mesh, specs: list[BoundarySegmentSpec]) -> BoundaryTags:
    """Tag each boundary edge with (dirichlet, neumann) flags from ``specs``.

    An edge belongs to a segment iff both endpoints lie on the segment's
    closure.  Sub-interval endpoints must be multiples of 1/n so that no
    edge straddles an interval endpoint.
    """
    check_alignment(specs, mesh.n)

    dirichlet = np.zeros(mesh.num_edges, dtype=bool)
    neumann = np.zeros(mesh.num_edges, dtype=bool)
    pa = mesh.vertices[mesh.edges[:, 0]]
    pb = mesh.vertices[mesh.edges[:, 1]]
    boundary = mesh.boundary_edge_mask

    for spec in specs:
        fixed_axis, fixed_val, run_axis = _side_geometry(spec.side)
        on_side = (
            boundary
            & (np.abs(pa[:, fixed_axis] - fixed_val) <= _GEOM_TOL)
            & (np.abs(pb[:, fixed_axis] - fixed_val) <= _GEOM_TOL)
        )
        inside = (
            (pa[:, run_axis] >= spec.lo - _GEOM_TOL)
            & (pa[:, run_axis] <= spec.hi + _GEOM_TOL)
            & (pb[:, run_axis] >= spec.lo - _GEOM_TOL)
            & (pb[:, run_axis] <= spec.hi + _GEOM_TOL)
        )
        hit = on_side & inside
        if spec.has_dirichlet:
            dirichlet |= hit
        if spec.has_neumann:
            neumann |= hit

    dirichlet.setflags(write=False)
    neumann.setflags(write=False)
    return BoundaryTags(dirichlet=dirichlet, neumann=neumann)
