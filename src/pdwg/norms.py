"""Error fields e = u_h - Q_h u and the seven reported norms.

Per element, e0 is the difference between the solved C0 field and the
elementwise (discontinuous) P2 projection Q0 u.  Both are stored as values
at the element's six P2 nodes, so e0 is their nodal difference and every
sample of it goes through the P2 nodal basis once.  The flux error is the
stored coefficient difference against Qn(grad u . n_e).  ``project_exact``
returns Q_h u already sampled on the triangle rule of one degree and on
the edge rule that ``edge_points_for`` pairs with it; the error field and
its norms are measured on those rules.  A norm is measured on request: a
caller names the norms it needs (by default all seven), and only the
arrays of the field that those norms read are built and scaled
(``build_error_field``, ``norms_of_error``).  They are scaled by an exact
power of two that brings their largest entry into [1/2, 1), or as near as
a subnormal one allows.  Each norm has one formula, and both scalings are
exact, so its value scaled back is its value unscaled, bit for bit,
unless its scaled entries or their squares leave the normal float range.
So a norm's bits depend neither on the power, which the arrays read set,
nor on which other norms are asked for.  Norm conventions:

* ||e||_2h^2 = sum_T ||Lap e0||_T^2 + s(e, e), where the h^-1 stabilizer
  part is one sum of ``pdwg.assembly.stabilizer_weights`` times the squared
  mismatch grad e0 . n_e - e_n per element edge, and the h^-3 part uses
  the inter-element mismatch of the Q0 u traces (the continuous u0 cancels;
  the single-valued edge value is the trace average, so each element side
  sees half the jump and boundary edges contribute nothing).
* ||e||, ||e||_L1, ||e||_Linf sample e0: L2/L1 with the projection's
  triangle rule, the max over its points plus the 6 P2 nodes per element.
* ||e||_1h^2 = sum_T h_T ||e_n||^2_{0, bdry T} and the W11 analogue sum
  element-boundary integrals, so interior edges count once per side.
* ||lam||_0h keeps only the jump term for piecewise constants, with true
  L2(e) edge norms and [lam] = lam on boundary edges; Gamma_n edges are
  excluded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
import numpy as np

from pdwg.assembly import (
    element_p2_laplacians,
    normal_maps,
    quadrature_points,
    stabilizer_weights,
    tri_p2_dofs,
)
from pdwg.linsolve import Solution
from pdwg.mesh import BoundaryTags, Mesh
from pdwg.polyspace import (
    DEFAULT_TRI_DEGREE,
    edge_gauss,
    edge_points_for,
    p2_values,
    triangle_quadrature,
)
from pdwg.problems import ManufacturedSolution
from pdwg.weak_laplacian import projected_weak_function


# The P2 mass matrix of Q0 u needs a triangle rule exact to degree 2 * 2.
PROJECTION_MIN_TRI_DEGREE = 4


@dataclass(frozen=True)
class ExactProjection:
    """Q_h u on one mesh, sampled where ``build_error_field`` samples e.

    Q0 u at each element's P2 nodes and Qn(grad u . n_e) per edge, with the
    Q0 u trace jumps and the mesh maps through which e0 = u_h - Q0 u is
    sampled: the element P2 dofs, the P2 basis at the points of
    ``triangle_quadrature(tri_degree)``, the P2 Laplacians and the
    normal-derivative maps.  Edge rules have ``edge_points_for(tri_degree)``
    points.  It depends on the problem, the mesh and the degree only, so a
    study builds it once and measures every solution against it; its arrays
    are read-only, and the mesh maps are the mesh's own (``mesh.operators``),
    shared by every problem on it.
    """

    tri_degree: int
    q0: np.ndarray             # (T, 6) Q0 u at the local nodes v0, v1, v2, m01, m12, m20
    qn: np.ndarray             # (E, 2) stored edge-flux coefficients
    q0_jump: np.ndarray        # (Ei, q) Q0 u trace jumps at edge Gauss points
    p2_dofs: np.ndarray        # (T, 6) tri_p2_dofs
    basis_quad: np.ndarray     # (Q, 6) P2 basis at the quadrature points
    p2_lap: np.ndarray         # (T, 6) P2 basis Laplacians
    normal_maps: np.ndarray    # (3, T, 2, 6) G of normal_mismatch_maps per local edge


@dataclass(frozen=True)
class ErrorReport:
    """The six field norms plus the multiplier norm; a norm that was not
    measured is None."""

    h2: float | None = None
    l1: float | None = None
    l2: float | None = None
    h1: float | None = None
    linf: float | None = None
    w11: float | None = None
    lambda0h: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        """The norms by name, in the order of the fields."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ErrorField:
    """Samplings of the error, all linear in (u_h - Q_h u, lambda_h).  An
    array that no requested norm reads is None."""

    e0_quad: np.ndarray | None = None   # (T, Q) values at triangle quadrature points
    e0_nodes: np.ndarray | None = None  # (T, 6) values at the P2 nodes
    lap_e0: np.ndarray | None = None    # (T,) elementwise constant Laplacian
    en: np.ndarray | None = None        # (E, 2) stored flux error coefficients
    mismatch: np.ndarray | None = None  # (3, T, 2) grad e0 . n_e - e_n per local edge
    q0_jump: np.ndarray | None = None   # (Ei, q) Q0 u trace jumps at edge Gauss points
    lam: np.ndarray | None = None       # (T,)

    def scaled(self, c: float) -> "ErrorField":
        return ErrorField(**{name: None if a is None else c * a
                             for name, a in vars(self).items()})


def project_exact(
    problem: ManufacturedSolution,
    mesh: Mesh,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> ExactProjection:
    """Compute Q_h u = {Q0 u elementwise, Qn(grad u . n_e) per edge}, sampled.

    Every element is an affine image of the reference triangle, so its P2
    mass matrix and its load are 2|T| times their reference forms; the area
    cancels, and one reference mass matrix serves every element.
    """
    if tri_degree < PROJECTION_MIN_TRI_DEGREE:
        raise ValueError(
            f"the P2 projection needs a triangle rule exact to degree "
            f">= {PROJECTION_MIN_TRI_DEGREE}, got {tri_degree}"
        )
    edge_points = edge_points_for(tri_degree)
    quad = triangle_quadrature(tri_degree)
    pts = quadrature_points(mesh, tri_degree)
    phi = p2_values(quad.points)
    phi_w = quad.weights[:, None] * phi
    uvals = np.broadcast_to(problem.u(pts[..., 0], pts[..., 1]), pts.shape[:2])
    q0 = np.linalg.solve(phi.T @ phi_w, (uvals @ phi_w).T).T
    del uvals  # not held while the samples are built

    arrays = dict(
        q0=q0,
        qn=projected_weak_function(problem.grad_u, mesh, edge_points),
        q0_jump=_trace_jumps(q0, mesh, edge_gauss(edge_points)[0]),
        p2_dofs=tri_p2_dofs(mesh),
        basis_quad=phi,
        p2_lap=element_p2_laplacians(mesh),
        normal_maps=normal_maps(mesh),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return ExactProjection(tri_degree=tri_degree, **arrays)


def _trace_jumps(q0: np.ndarray, mesh: Mesh, t: np.ndarray) -> np.ndarray:
    """Jumps of the Q0 u traces across the interior edges; (Ei, q).

    Sampled at the edge rule's nodes t (q of them): the point at arc
    parameter t of edge (a, b) has barycentric coordinates 1 - t at a, t at
    b and 0 at the third vertex of either element.  The jump is the first
    element's trace minus the second's.
    """
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    a = mesh.edges[interior, 0][:, None, None]
    b = mesh.edges[interior, 1][:, None, None]

    def trace(slot):
        tris = mesh.edge_tris[interior, slot]
        verts = mesh.triangles[tris][:, None, :]  # (Ei, 1, 3)
        bary = (verts == a) * (1.0 - t)[:, None] + (verts == b) * t[:, None]
        return np.einsum("eqi,ei->eq", p2_values(bary), q0[tris])

    return trace(0) - trace(1)


def _h2(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    h2_sq = float(np.sum(mesh.area * field.lap_e0**2))
    h2_sq += float(np.sum(stabilizer_weights(mesh) * field.mismatch**2))
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    if len(interior):
        _, wq = edge_gauss(edge_points_for(tri_degree))
        h_e = mesh.h_e[interior]
        inv3 = mesh.h_t[mesh.edge_tris[interior, 0]] ** -3 + mesh.h_t[
            mesh.edge_tris[interior, 1]
        ] ** -3
        jump_sq = (field.q0_jump**2) @ wq * h_e
        h2_sq += float(np.sum(0.25 * inv3 * jump_sq))
    return float(np.sqrt(h2_sq))


def _l1(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    w = triangle_quadrature(tri_degree).physical_weights(mesh.area)
    return float(np.einsum("tq,tq->", w, np.abs(field.e0_quad)))


def _l2(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    w = triangle_quadrature(tri_degree).physical_weights(mesh.area)
    return float(np.sqrt(np.einsum("tq,tq->", w, field.e0_quad**2)))


def _h1(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    h1_sq = 0.0
    for l in range(3):
        e = mesh.tri_edges[:, l]
        en = field.en[e]
        h1_sq += float(np.sum(mesh.h_t * mesh.h_e[e] * (en[:, 0] ** 2 + en[:, 1] ** 2 / 12.0)))
    return float(np.sqrt(h1_sq))


def _linf(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    return float(max(np.abs(field.e0_quad).max(initial=0.0),
                     np.abs(field.e0_nodes).max(initial=0.0)))


def _w11(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    t, wq = edge_gauss(edge_points_for(tri_degree))
    tau = t - 0.5
    w11 = 0.0
    for l in range(3):
        e = mesh.tri_edges[:, l]
        en = field.en[e]
        en_vals = en[:, 0][:, None] + en[:, 1][:, None] * tau[None, :]
        w11 += float(np.sum(mesh.h_t * mesh.h_e[e] * (np.abs(en_vals) @ wq)))
    return w11


def _lambda0h(field: ErrorField, mesh: Mesh, tags: BoundaryTags, tri_degree: int) -> float:
    return lambda_norm(field.lam, mesh, tags)


# Each norm, in the order of ErrorReport: the ErrorField arrays it reads and
# its one formula.
_NORMS = {
    "h2": (("lap_e0", "mismatch", "q0_jump"), _h2),
    "l1": (("e0_quad",), _l1),
    "l2": (("e0_quad",), _l2),
    "h1": (("en",), _h1),
    "linf": (("e0_quad", "e0_nodes"), _linf),
    "w11": (("en",), _w11),
    "lambda0h": (("lam",), _lambda0h),
}
NORM_NAMES = tuple(_NORMS)


def arrays_read(norms) -> set[str]:
    """The ErrorField arrays that the named norms read; ValueError for a
    name that is not one of ``NORM_NAMES``."""
    unknown = [name for name in norms if name not in _NORMS]
    if unknown:
        raise ValueError(f"unknown norms {unknown}; known: {list(NORM_NAMES)}")
    return {a for name in norms for a in _NORMS[name][0]}


def build_error_field(solution: Solution, qhu: ExactProjection, mesh: Mesh,
                      norms=NORM_NAMES) -> ErrorField:
    """Sample e = u_h - Q_h u on the rules that ``qhu`` was sampled on:
    the arrays that ``norms`` read, the others None.

    u_h and Q0 u share the P2 nodal basis, so every sample of e0 is linear
    in their nodal difference.
    """
    reads = arrays_read(norms)
    if solution.u0.shape[0] != mesh.num_vertices + mesh.num_edges:
        raise ValueError("solution does not match the mesh")
    if qhu.q0.shape[0] != mesh.num_triangles:
        raise ValueError("projection does not match the mesh")

    e_loc = solution.u0[qhu.p2_dofs] - qhu.q0  # (T, 6)
    build = {
        "e0_quad": lambda: e_loc @ qhu.basis_quad.T,
        "e0_nodes": lambda: e_loc,
        "lap_e0": lambda: np.einsum("ti,ti->t", e_loc, qhu.p2_lap),
        "en": lambda: solution.un - qhu.qn,
        "mismatch": lambda: (np.stack([np.einsum("tci,ti->tc", G, e_loc)
                                       for G in qhu.normal_maps])
                             - (solution.un - qhu.qn)[mesh.tri_edges.T]),
        "q0_jump": lambda: qhu.q0_jump,
        "lam": lambda: np.asarray(solution.lam, dtype=float),
    }
    return ErrorField(**{a: build[a]() for a in reads})


def norms_of_error(
    field: ErrorField,
    mesh: Mesh,
    tags: BoundaryTags,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    norms=NORM_NAMES,
) -> ErrorReport:
    """Evaluate the named norms of an error field sampled at ``tri_degree``;
    the report's other norms are None.

    Each norm is positively homogeneous in the field, and is measured once,
    on the arrays it reads scaled by 2^-k and scaled back by 2^k, where k
    is the ``frexp`` exponent of the largest |entry| of the arrays that the
    named norms read (clamped at the least normal exponent, so that 2^-k
    stays finite for a subnormal one).  The scaled entries are below 1, so
    no sum of squares overflows, and the squares of a small field do not
    underflow; both scalings are exact, so a norm has the bits it has
    unscaled wherever neither happens, whichever other norms are named.
    """
    arrays = {a: getattr(field, a) for a in arrays_read(norms)}
    missing = sorted(a for a, v in arrays.items() if v is None)
    if missing:
        raise ValueError(f"the error field lacks {missing}")
    peak = max((float(np.abs(v).max(initial=0.0)) for v in arrays.values()), default=0.0)
    k = max(math.frexp(peak)[1], sys.float_info.min_exp)
    with np.errstate(over="ignore"):  # a norm above the float range reads inf
        scaled = ErrorField(**arrays).scaled(math.ldexp(1.0, -k))
        values = {name: _NORMS[name][1](scaled, mesh, tags, tri_degree) for name in norms}
        return ErrorReport(**{name: float(np.ldexp(v, k)) for name, v in values.items()})


def error_norms(
    solution: Solution, qhu: ExactProjection, mesh: Mesh, tags: BoundaryTags,
    norms=NORM_NAMES,
) -> ErrorReport:
    """The named norms of e = u_h - Q_h u, by default all seven (the six
    field norms plus ||lambda_h||_0h); each is computed from the arrays it
    reads only (``build_error_field``, ``norms_of_error``)."""
    return norms_of_error(build_error_field(solution, qhu, mesh, norms), mesh, tags,
                          qhu.tri_degree, norms)


def lambda_jump(lam: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Signed jump of a piecewise constant across each edge.

    Oriented by the global edge normal: J_e = sum of s(T, e) * lam_T over
    incident elements, which reduces to lam itself (up to sign) on the
    boundary.
    """
    lam = np.asarray(lam, dtype=float)
    J = mesh.edge_tri_signs[:, 0] * lam[mesh.edge_tris[:, 0]]
    second = mesh.edge_tris[:, 1] >= 0
    J = J + np.where(second, mesh.edge_tri_signs[:, 1] * lam[mesh.edge_tris[:, 1].clip(0)], 0.0)
    return J


def lambda_norm(lam: np.ndarray, mesh: Mesh, tags: BoundaryTags) -> float:
    """Dual-variable norm: for P0 only the jump term survives,

        ||lam||_0h^2 = sum_{e not in Gamma_n} h_e * ||[lam]||^2_{L2(e)},

    and a constant jump J contributes h_e^2 J^2 per edge.
    """
    J = lambda_jump(lam, mesh)
    include = ~tags.neumann
    return float(np.sqrt(np.sum(mesh.h_e[include] ** 2 * J[include] ** 2)))
