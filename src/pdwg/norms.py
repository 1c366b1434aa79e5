"""Error fields e = u_h - Q_h u and the seven reported norms.

Per element, e0 is the difference between the solved C0 field and the
elementwise (discontinuous) P2 projection Q0 u; the flux error is the
stored coefficient difference against Qn(grad u . n_e).  Norm conventions:

* ||e||_2h^2 = sum_T ||Lap e0||_T^2 + s(e, e), where the h^-1 stabilizer
  part uses (grad e0 . n_e - e_n) per element edge and the h^-3 part uses
  the inter-element mismatch of the Q0 u traces (the continuous u0 cancels;
  the single-valued edge value is the trace average, so each element side
  sees half the jump and boundary edges contribute nothing).
* ||e||, ||e||_L1, ||e||_Linf sample e0: L2/L1 with the fixed triangle
  rule, the max over quadrature points plus the 6 P2 nodes per element.
* ||e||_1h^2 = sum_T h_T ||e_n||^2_{0, bdry T} and the W11 analogue sum
  element-boundary integrals, so interior edges count once per side.
* ||lam||_0h keeps only the jump term for piecewise constants, with true
  L2(e) edge norms and [lam] = lam on boundary edges; Gamma_n edges are
  excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from pdwg.assembly import normal_mismatch_maps, tri_p2_dofs
from pdwg.linsolve import Solution
from pdwg.mesh import BoundaryTags, Mesh
from pdwg.polyspace import (
    DEFAULT_EDGE_POINTS,
    DEFAULT_TRI_DEGREE,
    bary_gradients,
    edge_gauss,
    monomial_exponents,
    monomial_values,
    p2_laplacians,
    p2_values,
    triangle_quadrature,
)
from pdwg.problems import ManufacturedSolution
from pdwg.weak_laplacian import projected_weak_function


@dataclass(frozen=True)
class ExactProjection:
    """Q_h u: elementwise Q0 u coefficients plus per-edge Qn(grad u . n_e)."""

    q0_coeffs: np.ndarray  # (T, 6) centered/scaled monomial coefficients
    centers: np.ndarray    # (T, 2)
    scales: np.ndarray     # (T,)
    qn: np.ndarray         # (E, 2) stored edge-flux coefficients


@dataclass(frozen=True)
class ErrorReport:
    """The six field norms plus the multiplier norm."""

    h2: float
    l1: float
    l2: float
    h1: float
    linf: float
    w11: float
    lambda0h: float

    def as_dict(self) -> dict[str, float]:
        return {
            "h2": self.h2,
            "l1": self.l1,
            "l2": self.l2,
            "h1": self.h1,
            "linf": self.linf,
            "w11": self.w11,
            "lambda0h": self.lambda0h,
        }


@dataclass(frozen=True)
class ErrorField:
    """Samplings of the error, all linear in (u_h - Q_h u, lambda_h)."""

    e0_quad: np.ndarray      # (T, Q) values at triangle quadrature points
    e0_nodes: np.ndarray     # (T, 6) values at the P2 nodes
    lap_e0: np.ndarray       # (T,) elementwise constant Laplacian
    en: np.ndarray           # (E, 2) stored flux error coefficients
    mismatch: np.ndarray     # (T, 3, 2) coefficients of grad e0 . n_e - e_n
    q0_jump: np.ndarray      # (Ei, q) Q0 u trace jumps at edge Gauss points
    lam: np.ndarray          # (T,)

    def scaled(self, c: float) -> "ErrorField":
        return ErrorField(
            e0_quad=c * self.e0_quad,
            e0_nodes=c * self.e0_nodes,
            lap_e0=c * self.lap_e0,
            en=c * self.en,
            mismatch=c * self.mismatch,
            q0_jump=c * self.q0_jump,
            lam=c * self.lam,
        )

    def __add__(self, other: "ErrorField") -> "ErrorField":
        return ErrorField(
            e0_quad=self.e0_quad + other.e0_quad,
            e0_nodes=self.e0_nodes + other.e0_nodes,
            lap_e0=self.lap_e0 + other.lap_e0,
            en=self.en + other.en,
            mismatch=self.mismatch + other.mismatch,
            q0_jump=self.q0_jump + other.q0_jump,
            lam=self.lam + other.lam,
        )


def p2_vandermonde(centers, scales, pts) -> np.ndarray:
    """Centered/scaled P2 monomials at pts (T, Q, 2); (T, Q, 6)."""
    xi = (pts[..., 0] - centers[:, None, 0]) / scales[:, None]
    eta = (pts[..., 1] - centers[:, None, 1]) / scales[:, None]
    return monomial_values(monomial_exponents(2), xi, eta)


def poly_eval(coeffs, centers, scales, pts):
    """Batched centered/scaled monomial evaluation; pts is (T, Q, 2)."""
    return np.einsum("tqm,tm->tq", p2_vandermonde(centers, scales, pts), coeffs)


def poly_grad_dot(coeffs, centers, scales, pts, direction):
    """Batched gradient of a degree-2 monomial poly dotted with (T, 2) vectors."""
    xi = (pts[..., 0] - centers[:, None, 0]) / scales[:, None]
    eta = (pts[..., 1] - centers[:, None, 1]) / scales[:, None]
    exps = monomial_exponents(2)
    gx = np.stack(
        [a * xi ** max(a - 1, 0) * eta**b if a > 0 else np.zeros_like(xi) for a, b in exps],
        axis=-1,
    )
    gy = np.stack(
        [b * xi**a * eta ** max(b - 1, 0) if b > 0 else np.zeros_like(xi) for a, b in exps],
        axis=-1,
    )
    out = np.einsum("tqm,tm->tq", gx, coeffs) * direction[:, None, 0] + np.einsum(
        "tqm,tm->tq", gy, coeffs
    ) * direction[:, None, 1]
    return out / scales[:, None]


def project_exact(
    problem: ManufacturedSolution,
    mesh: Mesh,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ExactProjection:
    """Compute Q_h u = {Q0 u elementwise, Qn(grad u . n_e) per edge}."""
    tri = mesh.tri_coords()
    centers = tri.mean(axis=1)
    scales = np.asarray(mesh.h_t, dtype=float)
    quad = triangle_quadrature(tri_degree)
    pts = quad.physical_points(tri)
    w = quad.physical_weights(mesh.area)
    V = p2_vandermonde(centers, scales, pts)
    Vw = (V * w[..., None]).transpose(0, 2, 1)
    uvals = np.broadcast_to(problem.u(pts[..., 0], pts[..., 1]), w.shape)
    q0 = np.linalg.solve(Vw @ V, Vw @ uvals[..., None])[..., 0]

    qn = projected_weak_function(problem.grad_u, mesh, edge_points)
    return ExactProjection(q0_coeffs=q0, centers=centers, scales=scales, qn=qn)


@dataclass(frozen=True)
class ExactSide:
    """The Q_h u side of the error field, and the mesh maps applied to u_h.

    Everything ``build_error_field`` samples that does not depend on the
    solution: Q0 u at the quadrature points and the P2 nodes, Lap Q0 u, the
    P1(e) coefficients of grad Q0 u . n_e per local edge, the Q0 u trace
    jumps, and the element P2 dofs, the normal-derivative maps, the P2
    Laplacians and the quadrature basis through which u_h is sampled.  It
    depends on the problem and the mesh only, so a study builds it once and
    measures every solution against it.  Its arrays are read-only, ``qn``
    too, which it shares with the projection.
    """

    qn: np.ndarray             # (E, 2) Qn(grad u . n_e)
    q0_quad: np.ndarray        # (T, Q) Q0 u at the triangle quadrature points
    q0_nodes: np.ndarray       # (T, 6) Q0 u at the P2 nodes
    lap_q0: np.ndarray         # (T,)
    grad_q0: np.ndarray        # (T, 3, 2) grad Q0 u . n_e coefficients per local edge
    q0_jump: np.ndarray        # (Ei, q) Q0 u trace jumps at edge Gauss points
    p2_dofs: np.ndarray        # (T, 6) tri_p2_dofs
    basis_quad: np.ndarray     # (Q, 6) P2 basis at the quadrature points
    p2_lap: np.ndarray         # (T, 6) P2 basis Laplacians
    normal_maps: np.ndarray    # (3, T, 2, 6) G of normal_mismatch_maps per local edge


def sample_projection(
    qhu: ExactProjection,
    mesh: Mesh,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ExactSide:
    """Sample Q_h u where ``build_error_field`` samples e."""
    if qhu.q0_coeffs.shape[0] != mesh.num_triangles:
        raise ValueError("projection does not match the mesh")

    tri = mesh.tri_coords()
    quad = triangle_quadrature(tri_degree)
    pts = quad.physical_points(tri)
    q0_quad = poly_eval(qhu.q0_coeffs, qhu.centers, qhu.scales, pts)

    node_bary = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [0.5, 0.5, 0],
            [0, 0.5, 0.5],
            [0.5, 0, 0.5],
        ],
        dtype=float,
    )
    node_pts = node_bary @ tri
    q0_nodes = poly_eval(qhu.q0_coeffs, qhu.centers, qhu.scales, node_pts)

    lap_q0 = 2.0 * (qhu.q0_coeffs[:, 3] + qhu.q0_coeffs[:, 5]) / qhu.scales**2

    maps = normal_mismatch_maps(mesh)
    grad_q0 = np.empty((mesh.num_triangles, 3, 2))
    for l, (e, s, _G) in enumerate(maps):
        va = mesh.triangles[:, l]
        vb = mesh.triangles[:, (l + 1) % 3]
        lo = np.where(s > 0, va, vb)
        hi = np.where(s > 0, vb, va)
        ends = np.stack([mesh.vertices[lo], mesh.vertices[hi]], axis=1)  # (T, 2, 2)
        gq = poly_grad_dot(qhu.q0_coeffs, qhu.centers, qhu.scales, ends, mesh.edge_normals[e])
        grad_q0[:, l, :] = np.stack([0.5 * (gq[:, 0] + gq[:, 1]), gq[:, 1] - gq[:, 0]], axis=1)

    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    t, _ = edge_gauss(edge_points)
    if len(interior):
        pa = mesh.vertices[mesh.edges[interior, 0]]
        pb = mesh.vertices[mesh.edges[interior, 1]]
        epts = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
        t1 = mesh.edge_tris[interior, 0]
        t2 = mesh.edge_tris[interior, 1]
        v1 = poly_eval(qhu.q0_coeffs[t1], qhu.centers[t1], qhu.scales[t1], epts)
        v2 = poly_eval(qhu.q0_coeffs[t2], qhu.centers[t2], qhu.scales[t2], epts)
        q0_jump = v1 - v2
    else:
        q0_jump = np.zeros((0, len(t)))

    side = ExactSide(
        qn=qhu.qn,
        q0_quad=q0_quad,
        q0_nodes=q0_nodes,
        lap_q0=lap_q0,
        grad_q0=grad_q0,
        q0_jump=q0_jump,
        p2_dofs=tri_p2_dofs(mesh),
        basis_quad=p2_values(quad.points),
        p2_lap=p2_laplacians(bary_gradients(tri)),
        normal_maps=np.stack([G for _e, _s, G in maps]),
    )
    for arr in vars(side).values():
        arr.setflags(write=False)
    return side


def build_error_field(
    solution: Solution,
    qhu: ExactProjection | ExactSide,
    mesh: Mesh,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ErrorField:
    """Sample e = u_h - Q_h u on the fixed quadrature sets.

    ``qhu`` is Q_h u as a projection, which is sampled first, or already
    sampled by ``sample_projection``; the quadrature sets are then the ones
    it was sampled on.
    """
    if solution.u0.shape[0] != mesh.num_vertices + mesh.num_edges:
        raise ValueError("solution does not match the mesh")
    if isinstance(qhu, ExactProjection):
        qhu = sample_projection(qhu, mesh, tri_degree, edge_points)
    elif qhu.lap_q0.shape[0] != mesh.num_triangles:
        raise ValueError("projection does not match the mesh")

    u_loc = solution.u0[qhu.p2_dofs]  # (T, 6)
    e0_quad = u_loc @ qhu.basis_quad.T - qhu.q0_quad
    e0_nodes = u_loc - qhu.q0_nodes
    lap_e0 = np.einsum("ti,ti->t", u_loc, qhu.p2_lap) - qhu.lap_q0
    en = solution.un - qhu.qn

    mismatch = np.empty((mesh.num_triangles, 3, 2))
    for l in range(3):
        grad_u0_coeffs = np.einsum("tci,ti->tc", qhu.normal_maps[l], u_loc)
        mismatch[:, l, :] = grad_u0_coeffs - qhu.grad_q0[:, l, :] - en[mesh.tri_edges[:, l]]

    return ErrorField(
        e0_quad=e0_quad,
        e0_nodes=e0_nodes,
        lap_e0=lap_e0,
        en=en,
        mismatch=mismatch,
        q0_jump=qhu.q0_jump,
        lam=np.asarray(solution.lam, dtype=float),
    )


def norms_of_error(
    field: ErrorField,
    mesh: Mesh,
    tags: BoundaryTags,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ErrorReport:
    """Evaluate the seven norms of a sampled error field."""
    quad = triangle_quadrature(tri_degree)
    w = quad.physical_weights(mesh.area)
    l2 = float(np.sqrt(np.einsum("tq,tq->", w, field.e0_quad**2)))
    l1 = float(np.einsum("tq,tq->", w, np.abs(field.e0_quad)))
    linf = float(
        max(
            np.abs(field.e0_quad).max(initial=0.0),
            np.abs(field.e0_nodes).max(initial=0.0),
        )
    )

    h2_sq = float(np.sum(mesh.area * field.lap_e0**2))
    h1_sq = 0.0
    w11 = 0.0
    t, wq = edge_gauss(edge_points)
    tau = t - 0.5
    for l in range(3):
        e = mesh.tri_edges[:, l]
        h_e = mesh.h_e[e]
        d = field.mismatch[:, l, :]
        h2_sq += float(np.sum((h_e / mesh.h_t) * (d[:, 0] ** 2 + d[:, 1] ** 2 / 12.0)))
        en = field.en[e]
        h1_sq += float(np.sum(mesh.h_t * h_e * (en[:, 0] ** 2 + en[:, 1] ** 2 / 12.0)))
        en_vals = en[:, 0][:, None] + en[:, 1][:, None] * tau[None, :]
        w11 += float(np.sum(mesh.h_t * h_e * (np.abs(en_vals) @ wq)))

    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    if len(interior):
        h_e = mesh.h_e[interior]
        inv3 = mesh.h_t[mesh.edge_tris[interior, 0]] ** -3 + mesh.h_t[
            mesh.edge_tris[interior, 1]
        ] ** -3
        jump_sq = (field.q0_jump**2) @ wq * h_e
        h2_sq += float(np.sum(0.25 * inv3 * jump_sq))

    lam0h = lambda_norm(field.lam, mesh, tags)
    return ErrorReport(
        h2=float(np.sqrt(h2_sq)),
        l1=l1,
        l2=l2,
        h1=float(np.sqrt(h1_sq)),
        linf=linf,
        w11=w11,
        lambda0h=lam0h,
    )


def error_norms(
    solution: Solution,
    qhu: ExactProjection,
    mesh: Mesh,
    tags: BoundaryTags,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ErrorReport:
    """All seven norms of e = u_h - Q_h u (plus ||lambda_h||_0h)."""
    field = build_error_field(solution, qhu, mesh, tri_degree, edge_points)
    return norms_of_error(field, mesh, tags, tri_degree, edge_points)


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
