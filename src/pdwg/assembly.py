"""Global DOF layout, stabilizer and constraint assembly, BC lifting.

Primal unknowns are the C0 piecewise-P2 nodal values (one per vertex and
edge midpoint) followed by two P1 flux coefficients per edge, stored with
respect to the global edge normal.  This module alone numbers them
(``flux_dofs``, ``num_primal``), splits a primal vector into its P2 values
and (E, 2) flux coefficients and joins it again (``split_primal``,
``join_primal``), and finds a case's free fluxes (``SystemMatrix.free_flux``);
every other module asks it.  One P0 multiplier per triangle closes the
saddle-point system

    [ S  B^T ] [z]   [ -S_fc g ]
    [ B   0  ] [l] = [ F - B_fc g ]

over the free unknowns, with constrained values g eliminated by lifting.
The matrix depends only on the mesh and the boundary tags
(``assemble_matrix``); the problem and the data noise enter only F and g
(``assemble_rhs``).  S and B themselves depend on the mesh alone: the tags
pick only which of their rows and columns are free.  So each mesh has one
saddle matrix W = [S B^T; B 0] over every primal dof and multiplier
(``saddle_operator``), and a case is cut from it in one pass: one selection
of W's rows, the free primal dofs and then the multipliers, whose columns
give the case's M and the constrained columns C that lift the data.
W is built once per mesh and kept, read-only, in ``mesh.operators``
(``mesh_operator``), with the other mesh-only pieces that assembly and the
error norms both read: the normal-derivative maps, the element P2 dofs,
barycentric gradients and P2 Laplacians, and the points of each triangle
rule.
The Neumann data are sampled by the sampler that gives Qn of Q_h u,
``pdwg.weak_laplacian.normal_derivative_samples``, on the case's Neumann
edges; only their sign, s(T, e) = +-1, turns n_e into the outward normal.
The stabilizer s(., .) has an h^-3 trace-mismatch term, which C0 elements
lack (no independent vb unknown) and the norms module measures on the error
field, and an h^-1 normal-derivative-mismatch term, written once here: its
weights w (``stabilizer_weights``) and the weighted mismatch map Gs, one
row sqrt(w) (grad v0 . n_e - vhat_e) per local edge, element and flux
coefficient (``mismatch_operator``).  S = Gs^T Gs, and the error equation
of ``pdwg.verify`` applies Gs^T; the h2 norm reads the weights.
Assembly runs in a fixed element/edge traversal order.  S is exactly
symmetric: the sparse product sums S_ab and S_ba over the same rows of Gs
in the same ascending order, and each product Gs_ra Gs_rb commutes; it
stores no entry that sums to exactly zero.  So are W and the saddle
matrices cut from it, which are CSR with sorted indices.
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
    edge_points_for,
    interpolate_nodes,
    p2_laplacians,
    project_edge_samples,
    triangle_quadrature,
)
from pdwg.problems import ManufacturedSolution, NoiseSpec, perturb
from pdwg.weak_laplacian import normal_derivative_samples

_MID_PAIRS = ((0, 1), (1, 2), (2, 0))


def flux_dofs(mesh: Mesh, e) -> np.ndarray:
    """(..., 2) primal ids of the constant and linear flux coefficients of edges e.

    The primal layout: the n_u = V + E P2 values, then edge e's two flux
    coefficients at n_u + 2e and n_u + 2e + 1, so that the fluxes of a
    primal vector read as an (E, 2) array (``split_primal``).
    """
    base = mesh.num_vertices + mesh.num_edges + 2 * np.asarray(e)
    return np.stack([base, base + 1], axis=-1)


def num_primal(mesh: Mesh) -> int:
    """Number of primal dofs: V + E P2 values and two fluxes per edge."""
    return mesh.num_vertices + 3 * mesh.num_edges


def split_primal(mesh: Mesh, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of a primal vector's V + E P2 values and (E, 2) flux coefficients."""
    n_u = mesh.num_vertices + mesh.num_edges
    return x[:n_u], x[n_u:].reshape(mesh.num_edges, 2)


def join_primal(u0: np.ndarray, un: np.ndarray) -> np.ndarray:
    """The primal vector of P2 values u0 and (E, 2) flux coefficients un."""
    return np.concatenate([u0, un.ravel()])


def mesh_operator(mesh: Mesh, key, build: Callable):
    """The mesh's operator ``key``: ``build()`` when first asked for, then kept.

    An operator kept in ``mesh.operators`` depends on the mesh alone, so
    every boundary case and problem on the mesh reads the same one; its
    arrays (for a sparse matrix: data, indices and indptr) are made
    read-only.  Clearing ``mesh.operators`` frees them, and the next call
    builds again.
    """
    if key not in mesh.operators:
        value = build()
        for arr in ((value.data, value.indices, value.indptr) if sp.issparse(value)
                    else (value,)):
            arr.setflags(write=False)
        mesh.operators[key] = value
    return mesh.operators[key]


def quadrature_points(mesh: Mesh, tri_degree: int) -> np.ndarray:
    """(T, Q, 2) physical points of ``triangle_quadrature(tri_degree)``."""
    return mesh_operator(mesh, ("points", tri_degree), lambda: triangle_quadrature(
        tri_degree).physical_points(mesh.tri_coords()))


def element_bary_gradients(mesh: Mesh) -> np.ndarray:
    """(T, 3, 2) barycentric gradients of every element."""
    return mesh_operator(mesh, "bary_gradients",
                         lambda: bary_gradients(mesh.tri_coords()))


def element_p2_laplacians(mesh: Mesh) -> np.ndarray:
    """(T, 6) Laplacians of the P2 basis of every element."""
    return mesh_operator(mesh, "p2_laplacians",
                         lambda: p2_laplacians(element_bary_gradients(mesh)))


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
    return mesh_operator(mesh, "p2_dofs", lambda: np.concatenate(
        [mesh.triangles, mesh.num_vertices + mesh.tri_edges], axis=1))


def normal_mismatch_maps(mesh: Mesh) -> np.ndarray:
    """(3, T, 2, 6): per local edge l, the map G from element P2 dofs to the
    P1(e) edge-basis coefficients of grad(v0)|_T . n_e on edge
    ``mesh.tri_edges[:, l]``.

    Row 0 of G is the constant coefficient, row 1 the centered-linear one,
    both in the canonical (lower to higher vertex id) arc parameter.
    ``normal_maps`` keeps the array for assembly and the error norms, so
    that it is built once per mesh.
    """
    bgrad = element_bary_gradients(mesh)
    gv = [_p2_grads_at_vertex(bgrad, m) for m in range(3)]
    maps = np.empty((3, mesh.num_triangles, 2, 6))
    for l in range(3):
        ne = mesh.edge_normals[mesh.tri_edges[:, l]]
        ga = np.einsum("tid,td->ti", gv[l], ne)
        gb = np.einsum("tid,td->ti", gv[(l + 1) % 3], ne)
        lo_is_a = (mesh.tri_edge_signs[:, l] > 0)[:, None]
        g0 = np.where(lo_is_a, ga, gb)
        g1 = np.where(lo_is_a, gb, ga)
        maps[l, :, 0] = 0.5 * (g0 + g1)
        maps[l, :, 1] = g1 - g0
    return maps


def normal_maps(mesh: Mesh) -> np.ndarray:
    """The mesh's ``normal_mismatch_maps``, built once per mesh."""
    return mesh_operator(mesh, "normal_maps", lambda: normal_mismatch_maps(mesh))


def stabilizer_weights(mesh: Mesh) -> np.ndarray:
    """(3, T, 2) weights h_e/h_T * (1, 1/12) of s(., .), e = ``mesh.tri_edges[:, l]``.

    The surviving C0 term of s is h_T^-1 * int_e (grad v0 . n_e - vhat_e)^2
    ds, vhat the stored P1 flux; the edge mass of the centered basis is
    diag(h_e, h_e/12).  s(v, v) sums the weights times v's squared mismatch.
    """
    edges = mesh.tri_edges.T
    return (mesh.h_e[edges] / mesh.h_t)[..., None] * np.array([1.0, 1.0 / 12.0])


def mismatch_operator(mesh: Mesh) -> sp.csr_matrix:
    """The weighted mismatch map Gs of s(., .): s(v, v) = ||Gs v||^2.

    One row per (local edge l, element T, flux coefficient k), in that
    order, with seven entries: sqrt(w) times the ``normal_maps`` row G on
    the element's six P2 dofs, and -sqrt(w) on the edge's flux dof; w is
    ``stabilizer_weights``.
    """
    edges = mesh.tri_edges.T                                  # (3, T)
    root_w = np.sqrt(stabilizer_weights(mesh))[..., None]     # (3, T, 2, 1)
    data = np.concatenate([root_w * normal_maps(mesh), -root_w], axis=-1)
    p2 = np.broadcast_to(tri_p2_dofs(mesh)[:, None, :], edges.shape + (2, 6))
    cols = np.concatenate([p2, flux_dofs(mesh, edges)[..., None]], axis=-1)
    rows = data.size // 7
    return sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, data.size + 1, 7)),
                         shape=(rows, num_primal(mesh)))


def assemble_stabilizer(mesh: Mesh) -> sp.csr_matrix:
    """Stabilizer S = Gs^T Gs over all primal dofs (exactly symmetric PSD).

    Gs is ``mismatch_operator``; S is CSR with sorted indices.  Gs's stored
    zeros (about a fifth of its entries on uniform meshes) are dropped
    first: they add only zero terms, so S keeps its bits, and Gs^T and the
    product are made without them.
    """
    Gs = mismatch_operator(mesh)
    Gs.eliminate_zeros()
    S = Gs.T.tocsr() @ Gs
    S.sort_indices()
    return S


def constraint_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Constraint matrix B, one row per triangle.

    Row T reads sum_e s(T,e) * h_e * c0_e = int_T f dx: for the k=2 scheme
    the weak Laplacian tested against P0 reduces to the signed flux
    integrals over the element boundary.
    """
    edges = mesh.tri_edges.T                        # (3, T)
    T = mesh.num_triangles
    return sp.coo_matrix(
        ((mesh.tri_edge_signs.T * mesh.h_e[edges]).ravel(),
         (np.tile(np.arange(T), 3), flux_dofs(mesh, edges)[..., 0].ravel())),
        shape=(T, num_primal(mesh)),
    ).tocsr()


def element_load(mesh: Mesh, f: Callable, tri_degree: int = DEFAULT_TRI_DEGREE) -> np.ndarray:
    """Load (f, 1)_T per triangle."""
    pts = quadrature_points(mesh, tri_degree)
    w = triangle_quadrature(tri_degree).physical_weights(mesh.area)
    fvals = np.broadcast_to(f(pts[..., 0], pts[..., 1]), w.shape)
    return np.einsum("tq,tq->t", w, fvals)


def assemble_constraint(
    mesh: Mesh,
    f: Callable,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Constraint matrix B and load (f, 1)_T.

    No pdwg code calls this; it stays only because perfbench/tracing.py
    hooks it by name, and a traced name that no longer exists fails there.
    """
    return constraint_matrix(mesh), element_load(mesh, f, tri_degree)


def apply_boundary_conditions(
    problem: ManufacturedSolution,
    matrix: SystemMatrix,
    edge_points: int = DEFAULT_EDGE_POINTS,
    noise: NoiseSpec | None = None,
) -> np.ndarray:
    """Full-length primal vector of prescribed values (zero on free dofs).

    ``matrix`` is the case.  Its Dirichlet u-dofs get u at its
    ``dirichlet_nodes``.  Its Neumann flux dofs get s P1(s samples): the
    samples of grad u . n_e on the Neumann edges of ``matrix.tags``
    (``normal_derivative_samples``), turned outward by s = s(T, e) of the
    edge's one element, projected, and stored against n_e again.  The flips
    by s = +-1 are exact, so without noise these are the Qn(grad u . n_e)
    of Q_h u bit for bit.  With a NoiseSpec, one PCG64 stream perturbs the
    outward data samples in a fixed order: Dirichlet node values by
    ascending node id first, then Neumann edges by ascending edge id with
    each edge's quadrature samples in rule order.
    """
    mesh, nodes = matrix.mesh, matrix.dirichlet_nodes
    g = np.zeros(num_primal(mesh))
    rng = None
    if noise is not None and noise.amplitude > 0.0:
        rng = noise.generator()
    if len(nodes):
        values = interpolate_nodes(problem.u, mesh, nodes)
        if noise is not None:
            values = perturb(values, noise, rng)
        g[nodes] = values
    edges = matrix.tags.neumann_edges
    if len(edges):
        s = mesh.edge_tri_signs[edges, 0][:, None]
        samples = s * normal_derivative_samples(problem.grad_u, mesh, edges, edge_points)
        if noise is not None:
            samples = perturb(samples, noise, rng)
        g[flux_dofs(mesh, edges)] = s * project_edge_samples(samples)
    return g


def _coupling(mesh: Mesh) -> sp.csr_matrix:
    """[0 B^T; B 0] over every primal dof and multiplier, one CSR with sorted
    indices: the rows of B^T, then those of B, B from ``constraint_matrix``."""
    B = constraint_matrix(mesh)
    n = B.shape[1]
    Bt = B.T.tocsr()
    return sp.csr_matrix((np.concatenate([Bt.data, B.data]),
                          np.concatenate([Bt.indices + n, B.indices]),
                          np.concatenate([Bt.indptr, Bt.nnz + B.indptr[1:]])),
                         shape=(n + B.shape[0],) * 2)


def saddle_operator(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's W = [S B^T; B 0] over every primal dof and multiplier.

    Built once per mesh (``mesh_operator``) as S, resized in place to W's
    shape, plus the coupling [0 B^T; B 0] (``_coupling``): their patterns
    are disjoint, so the sum copies every entry and stores the bits of the
    block matrix, and no block-stacked intermediate is made.  S and B are
    not kept beside W.  Every case's matrix is cut from W.
    """
    def build():
        S = assemble_stabilizer(mesh)
        coupling = _coupling(mesh)
        S.resize(coupling.shape)
        return S + coupling
    return mesh_operator(mesh, "W", build)


@dataclass
class SystemMatrix:
    """A boundary case: the part of the PD-WG system fixed by the mesh and the tags.

    It holds the case's free/constrained partition of the primal dofs
    (``assemble_matrix``) beside the matrix cut by it.  The problem and the
    data noise change only the right-hand side, so one SystemMatrix (and
    one factor of M) serves every load and boundary datum.  It holds no
    operator of the mesh: ``S`` and ``B`` read the mesh's W, built again if
    ``mesh.operators`` was cleared.
    """

    mesh: Mesh
    tags: BoundaryTags
    dirichlet_nodes: np.ndarray  # sorted P2 node ids on closure(Gamma_d)
    constrained: np.ndarray      # sorted primal dofs: those nodes and the Neumann fluxes
    free: np.ndarray             # sorted primal dofs, the rest
    M: sp.csr_matrix          # [S_ff B_f^T; B_f 0]
    C: sp.csr_matrix          # [-S_fc; B_c]: the rows of M, the columns of constrained dofs

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def free_flux(self) -> np.ndarray:
        """Positions in ``free`` of the free fluxes: one run after the free P2 values."""
        first_flux = flux_dofs(self.mesh, 0)[0]
        return np.arange(np.searchsorted(self.free, first_flux), self.n_free)

    @property
    def S(self) -> sp.csr_matrix:
        """The mesh's stabilizer over all primal dofs."""
        n = num_primal(self.mesh)
        return saddle_operator(self.mesh)[:n, :n]

    @property
    def B(self) -> sp.csr_matrix:
        """The mesh's constraint rows over all primal dofs."""
        n = num_primal(self.mesh)
        return saddle_operator(self.mesh)[n:, :n]


@dataclass
class SaddleSystem(SystemMatrix):
    """Assembled PD-WG system: the matrix part plus one right-hand side."""

    g: np.ndarray             # prescribed values, full primal length
    rhs: np.ndarray           # [-S_fc g_c; F - B_c g_c], F the load (f, 1)_T


def assemble_matrix(mesh: Mesh, tags: BoundaryTags) -> SystemMatrix:
    """Assemble the data-independent blocks of the saddle-point system.

    The case constrains the u-dofs on closure(Gamma_d) nodes and the flux
    dofs on Gamma_n edges.  A node incident to any Dirichlet-tagged edge is
    constrained ("any incident" rule), so corner nodes shared with an
    untagged segment still receive data.  One row selection of the mesh's W
    (``saddle_operator``), shared with every other case on the mesh, takes
    the free primal rows and then the multiplier rows; selecting its columns
    the same way gives M, and the constrained columns give C.  C's
    stabilizer rows are negated, as the right-hand side takes them, so that
    C @ g_c gives the bits of -S_fc @ g_c and B_c @ g_c, zero signs
    included.
    """
    dirichlet_nodes = mesh.closure_p2_nodes(tags.dirichlet_edges)
    constrained = np.sort(np.concatenate(
        [dirichlet_nodes, flux_dofs(mesh, tags.neumann_edges).ravel()]))
    mask = np.ones(num_primal(mesh), dtype=bool)
    mask[constrained] = False
    free = np.flatnonzero(mask)
    W = saddle_operator(mesh)
    kept = np.concatenate([free, np.arange(len(mask), W.shape[0])])
    rows = W[kept]
    M, C = rows[:, kept], rows[:, constrained]
    stabilizer_rows = C.data[:C.indptr[len(free)]]
    np.negative(stabilizer_rows, out=stabilizer_rows)
    return SystemMatrix(mesh=mesh, tags=tags, dirichlet_nodes=dirichlet_nodes,
                        constrained=constrained, free=free, M=M, C=C)


def assemble_rhs(
    matrix: SystemMatrix,
    problem: ManufacturedSolution,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    noise: NoiseSpec | None = None,
    load: np.ndarray | None = None,
) -> SaddleSystem:
    """Add the load and boundary-data right-hand side of a problem.

    Boundary data is taken from the exact solution: u on Gamma_d and
    grad u . n on Gamma_n (optionally noise-perturbed), sampled and
    projected with the edge rule ``edge_points_for(tri_degree)``.  ``load``
    is the problem's ``element_load`` on this mesh at ``tri_degree``,
    computed here when not given; it does not depend on the noise, so the
    solves of one problem on one mesh can share it.  Raises
    ``pdwg.linsolve.SingularSystem`` when the boundary data is not finite,
    as a large noise amplitude can make it, before any solve.
    """
    from pdwg.linsolve import SingularSystem  # linsolve imports this module

    F = element_load(matrix.mesh, problem.f, tri_degree) if load is None else load
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        g = apply_boundary_conditions(problem, matrix, edge_points_for(tri_degree), noise)
    if not np.isfinite(g).all():
        raise SingularSystem("the boundary data is not finite")
    lift = matrix.C @ g[matrix.constrained]
    nf = matrix.n_free
    rhs = np.concatenate([lift[:nf], F - lift[nf:]])
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
