"""Global DOF layout, stabilizer and constraint assembly, BC lifting.

Primal unknowns are the C0 piecewise-P2 nodal values (one per vertex and
edge midpoint) followed by two P1 flux coefficients per edge, stored with
respect to the global edge normal.  One P0 multiplier per triangle closes
the saddle-point system

    [ S  B^T ] [z]   [ -S_fc g ]
    [ B   0  ] [l] = [ F - B_fc g ]

over the free unknowns, with constrained values g eliminated by lifting.
The matrix depends only on the mesh and the boundary tags
(``assemble_matrix``); the problem and the data noise enter only F and g
(``assemble_rhs``).
The stabilizer has an h^-3 trace-mismatch term and an h^-1
normal-derivative-mismatch term; for C0 elements the trace mismatch
v0 - vb is structurally zero (there is no independent vb unknown), so only
the h^-1 term reaches the assembled matrix.  The h^-3 machinery lives in
the norms module, where the error field has a genuine trace mismatch.
Assembly runs in a fixed element/edge traversal order.  The stabilizer
sums each of its upper-triangle entries once, from the local block entries
(a, b) whose global dofs satisfy i <= j, and mirrors the strict upper
triangle, so S and the saddle matrix are exactly symmetric.  (Summing the
lower triangle from its own copies of the block entries would sum the
duplicates of one position in another order, since the conversion to CSR
sorts each row; its bits would then differ from the mirror's.)  The saddle
matrix is built in CSR, the format in which ``pdwg.linsolve`` slices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from pdwg.mesh import BoundaryTags, Mesh
from pdwg.polyspace import (
    DEFAULT_EDGE_POINTS,
    DEFAULT_TRI_DEGREE,
    bary_gradients,
    edge_gauss,
    edge_points_for,
    interpolate_nodes,
    project_edge_samples,
    triangle_quadrature,
)
from pdwg.problems import ManufacturedSolution, NoiseSpec, perturb

_MID_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class DofMap:
    """Free/constrained partition of the primal (u, flux) unknowns."""

    n_vertices: int
    n_edges: int
    n_triangles: int
    dirichlet_nodes: np.ndarray  # sorted P2 node ids on closure(Gamma_d)
    neumann_edges: np.ndarray    # sorted edge ids carrying Neumann data
    constrained: np.ndarray      # sorted primal dof indices
    free: np.ndarray

    @property
    def n_u(self) -> int:
        return self.n_vertices + self.n_edges

    @property
    def n_flux(self) -> int:
        return 2 * self.n_edges

    @property
    def n_primal(self) -> int:
        return self.n_u + self.n_flux

    def flux_dofs(self, e) -> np.ndarray:
        base = self.n_u + 2 * np.asarray(e)
        return np.stack([base, base + 1], axis=-1)


def build_dofmap(mesh: Mesh, tags: BoundaryTags) -> DofMap:
    """Constrain u-dofs on closure(Gamma_d) nodes and flux dofs on Gamma_n edges.

    A node incident to any Dirichlet-tagged edge is constrained ("any
    incident" rule), so corner nodes shared with an untagged segment still
    receive data.
    """
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    dirichlet_nodes = mesh.closure_p2_nodes(tags.dirichlet_edges)
    neumann_edges = np.asarray(sorted(tags.neumann_edges), dtype=np.int64)

    n_u = V + E
    constrained = np.concatenate(
        [
            dirichlet_nodes,
            (n_u + 2 * neumann_edges),
            (n_u + 2 * neumann_edges + 1),
        ]
    ).astype(np.int64)
    constrained = np.sort(constrained)
    mask = np.zeros(n_u + 2 * E, dtype=bool)
    mask[constrained] = True
    free = np.flatnonzero(~mask)
    return DofMap(
        n_vertices=V,
        n_edges=E,
        n_triangles=T,
        dirichlet_nodes=dirichlet_nodes,
        neumann_edges=neumann_edges,
        constrained=constrained,
        free=free,
    )


def _p2_grads_at_vertex(bgrad: np.ndarray, m: int) -> np.ndarray:
    """Gradients of the 6 P2 basis functions at local vertex m; (T, 6, 2)."""
    T = bgrad.shape[0]
    g = np.zeros((T, 6, 2))
    for i in range(3):
        g[:, i] = (4.0 * (i == m) - 1.0) * bgrad[:, i]
    for row, (j, k) in enumerate(_MID_PAIRS, start=3):
        if m == j:
            g[:, row] = 4.0 * bgrad[:, k]
        elif m == k:
            g[:, row] = 4.0 * bgrad[:, j]
    return g


def tri_p2_dofs(mesh: Mesh) -> np.ndarray:
    """(T, 6) global P2 dof ids per triangle (3 vertices + 3 edge midpoints)."""
    V = mesh.num_vertices
    return np.concatenate([mesh.triangles, V + mesh.tri_edges], axis=1)


def normal_mismatch_maps(mesh: Mesh):
    """Per local edge l: the map from element P2 dofs to the P1(e) edge-basis
    coefficients of grad(v0)|_T . n_e.

    Returns a list of three (edge ids, signs, G) with G of shape (T, 2, 6):
    row 0 the constant coefficient, row 1 the centered-linear one, both in
    the canonical (lower to higher vertex id) arc parameter.
    """
    bgrad = bary_gradients(mesh.tri_coords())
    gv = [_p2_grads_at_vertex(bgrad, m) for m in range(3)]
    out = []
    for l in range(3):
        e = mesh.tri_edges[:, l]
        ne = mesh.edge_normals[e]
        s = mesh.tri_edge_signs[:, l]
        ga = np.einsum("tid,td->ti", gv[l], ne)
        gb = np.einsum("tid,td->ti", gv[(l + 1) % 3], ne)
        lo_is_a = (s > 0)[:, None]
        g0 = np.where(lo_is_a, ga, gb)
        g1 = np.where(lo_is_a, gb, ga)
        G = np.stack([0.5 * (g0 + g1), g1 - g0], axis=1)
        out.append((e, s, G))
    return out


def assemble_stabilizer(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Stabilizer Gram matrix S over all primal dofs (exactly symmetric PSD).

    Per element T and edge e the surviving C0 term is
    h_T^-1 * int_e (grad v0 . n_e - vhat_e)^2 ds with vhat the stored P1
    flux; the edge mass in the centered basis is diag(h_e, h_e/12).
    """
    n_u = dofmap.n_u
    p2 = tri_p2_dofs(mesh).astype(np.int32)
    rows_list, cols_list, data_list = [], [], []
    for e, _s, G in normal_mismatch_maps(mesh):
        R = np.zeros((len(e), 2, 8))
        R[:, :, :6] = G
        R[:, 0, 6] = -1.0
        R[:, 1, 7] = -1.0
        w = (mesh.h_e[e] / mesh.h_t)[:, None] * np.array([1.0, 1.0 / 12.0])
        K = np.einsum("tia,ti,tib->tab", R, w, R)
        flux = (n_u + 2 * e).astype(np.int32)[:, None]
        dofs = np.concatenate([p2, flux, flux + 1], axis=1)
        # entries (t, a, b) of the blocks with dofs[t, a] <= dofs[t, b], in
        # block order; flat entry t*64 + a*8 + b sits at row dofs.flat[t*8 + a]
        # and column dofs.flat[t*8 + b]
        kept = np.flatnonzero(dofs[:, :, None] <= dofs[:, None, :])
        rows_list.append(dofs.ravel()[kept // 8])
        cols_list.append(dofs.ravel()[kept // 64 * 8 + kept % 8])
        data_list.append(K.ravel()[kept])
    n = dofmap.n_primal
    upper = sp.coo_matrix(
        (np.concatenate(data_list), (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(n, n),
    ).tocsr()
    return upper + sp.triu(upper, k=1).T.tocsr()


def constraint_matrix(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Constraint matrix B, one row per triangle.

    Row T reads sum_e s(T,e) * h_e * c0_e = int_T f dx: for the k=2 scheme
    the weak Laplacian tested against P0 reduces to the signed flux
    integrals over the element boundary.
    """
    n_u = dofmap.n_u
    T = mesh.num_triangles
    rows, cols, data = [], [], []
    for l in range(3):
        e = mesh.tri_edges[:, l]
        rows.append(np.arange(T))
        cols.append(n_u + 2 * e)
        data.append(mesh.tri_edge_signs[:, l] * mesh.h_e[e])
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(T, dofmap.n_primal),
    ).tocsr()


def element_load(mesh: Mesh, f: Callable, tri_degree: int = DEFAULT_TRI_DEGREE) -> np.ndarray:
    """Load (f, 1)_T per triangle."""
    quad = triangle_quadrature(tri_degree)
    pts = quad.physical_points(mesh.tri_coords())
    w = quad.physical_weights(mesh.area)
    fvals = np.broadcast_to(f(pts[..., 0], pts[..., 1]), w.shape)
    return np.einsum("tq,tq->t", w, fvals)


def assemble_constraint(
    mesh: Mesh,
    dofmap: DofMap,
    f: Callable,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Constraint matrix B and load (f, 1)_T.

    No pdwg code calls this; it stays only because perfbench/tracing.py
    hooks it by name, and a traced name that no longer exists fails there.
    """
    return constraint_matrix(mesh, dofmap), element_load(mesh, f, tri_degree)


def neumann_flux_coefficients(
    g2: Callable,
    mesh: Mesh,
    tags: BoundaryTags,
    edges: np.ndarray,
    edge_points: int = DEFAULT_EDGE_POINTS,
    noise: NoiseSpec | None = None,
    rng=None,
) -> np.ndarray:
    """Stored P1 flux coefficients of Qn g2 on the given Neumann edges.

    ``g2(x, y, n_out)`` is the outward-normal derivative datum, called once
    on (len(edges), q) sample points with n_out[0], n_out[1] of shape
    (len(edges), 1); the result is expressed with respect to the global edge
    normal, i.e. multiplied by s(T, e) of the single incident element.
    Optional noise perturbs the samples of g2 before projecting, edge by
    edge in the given order and within an edge in rule order.
    """
    edges = np.asarray(edges, dtype=np.int64)
    untagged = edges[~tags.neumann[edges]]
    if len(untagged):
        raise ValueError(f"edge {int(untagged[0])} carries no Neumann flag")
    t, _ = edge_gauss(edge_points)
    pa = mesh.vertices[mesh.edges[edges, 0]]
    pb = mesh.vertices[mesh.edges[edges, 1]]
    pts = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
    s = mesh.edge_tri_signs[edges, 0].astype(float)
    n_out = (s[:, None] * mesh.edge_normals[edges]).T[:, :, None]
    samples = np.broadcast_to(
        np.asarray(g2(pts[..., 0], pts[..., 1], n_out), dtype=float), pts.shape[:-1]
    )
    if noise is not None:
        samples = perturb(samples, noise, rng)
    return s[:, None] * project_edge_samples(samples, edge_points)


def apply_boundary_conditions(
    g1: Callable,
    g2: Callable,
    mesh: Mesh,
    tags: BoundaryTags,
    dofmap: DofMap,
    edge_points: int = DEFAULT_EDGE_POINTS,
    noise: NoiseSpec | None = None,
) -> np.ndarray:
    """Full-length primal vector of prescribed values (zero on free dofs).

    Dirichlet u-dofs get g1 interpolated at the P2 nodes on closure(Gamma_d);
    Neumann flux dofs get the sign-converted Qn projection of g2.  With a
    NoiseSpec, one PCG64 stream perturbs all data samples in a fixed order:
    Dirichlet node values by ascending node id first, then Neumann edges by
    ascending edge id with each edge's quadrature samples in rule order.
    """
    g = np.zeros(dofmap.n_primal)
    rng = None
    if noise is not None and noise.amplitude > 0.0:
        rng = noise.generator()
    if len(dofmap.dirichlet_nodes):
        values = interpolate_nodes(g1, mesh, dofmap.dirichlet_nodes)
        if noise is not None:
            values = perturb(values, noise, rng)
        g[dofmap.dirichlet_nodes] = values
    if len(dofmap.neumann_edges):
        coeffs = neumann_flux_coefficients(
            g2, mesh, tags, dofmap.neumann_edges, edge_points, noise, rng
        )
        g[dofmap.flux_dofs(dofmap.neumann_edges)] = coeffs
    return g


@dataclass
class SystemMatrix:
    """The part of the PD-WG system fixed by the mesh and the boundary tags.

    The problem and the data noise change only the right-hand side, so one
    SystemMatrix (and one factor of M) serves every load and boundary datum.
    """

    mesh: Mesh
    tags: BoundaryTags
    dofmap: DofMap
    S: sp.csr_matrix          # stabilizer over all primal dofs
    B: sp.csr_matrix          # constraint rows over all primal dofs
    S_fc: sp.csr_matrix       # stabilizer rows of free, columns of constrained dofs
    B_c: sp.csr_matrix        # constraint columns of constrained dofs
    M: sp.csr_matrix          # [S_ff B_f^T; B_f 0]

    @property
    def n_free(self) -> int:
        return len(self.dofmap.free)


@dataclass
class SaddleSystem(SystemMatrix):
    """Assembled PD-WG system: the matrix part plus one right-hand side."""

    g: np.ndarray             # prescribed values, full primal length
    rhs: np.ndarray           # [-S_fc g_c; F - B_c g_c], F the load (f, 1)_T


def assemble_matrix(mesh: Mesh, tags: BoundaryTags) -> SystemMatrix:
    """Assemble the data-independent blocks of the saddle-point system."""
    dofmap = build_dofmap(mesh, tags)
    S = assemble_stabilizer(mesh, dofmap)
    B = constraint_matrix(mesh, dofmap)
    free, con = dofmap.free, dofmap.constrained
    S_f = S[free]
    B_f = B[:, free]
    M = sp.bmat([[S_f[:, free], B_f.T], [B_f, None]], format="csr")
    return SystemMatrix(mesh=mesh, tags=tags, dofmap=dofmap, S=S, B=B,
                        S_fc=S_f[:, con], B_c=B[:, con], M=M)


def assemble_rhs(
    matrix: SystemMatrix,
    problem: ManufacturedSolution,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    noise: NoiseSpec | None = None,
    load: np.ndarray | None = None,
) -> SaddleSystem:
    """Add the load and boundary-data right-hand side of a problem.

    Boundary data is taken from the exact solution: g1 = u on Gamma_d and
    g2 = grad u . n on Gamma_n (optionally noise-perturbed), projected with
    the edge rule ``edge_points_for(tri_degree)``.  ``load`` is the
    problem's ``element_load`` on this mesh at ``tri_degree``, computed
    here when not given; it does not depend on the noise, so the solves of
    one problem on one mesh can share it.
    """
    mesh, dofmap = matrix.mesh, matrix.dofmap

    def g2(x, y, n_out):
        gx, gy = problem.grad_u(x, y)
        return gx * n_out[0] + gy * n_out[1]

    F = element_load(mesh, problem.f, tri_degree) if load is None else load
    g = apply_boundary_conditions(problem.u, g2, mesh, matrix.tags, dofmap,
                                  edge_points_for(tri_degree), noise)
    g_c = g[dofmap.constrained]
    rhs = np.concatenate([-matrix.S_fc @ g_c, F - matrix.B_c @ g_c])
    return SaddleSystem(**vars(matrix), g=g, rhs=rhs)


def build_saddle_system(
    mesh: Mesh,
    tags: BoundaryTags,
    problem: ManufacturedSolution,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    noise: NoiseSpec | None = None,
) -> SaddleSystem:
    """Assemble the saddle-point system for a manufactured problem."""
    return assemble_rhs(assemble_matrix(mesh, tags), problem, tri_degree, noise)
