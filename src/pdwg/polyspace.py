"""Polynomial bases, quadrature and L2 projections.

Element polynomials use monomials centered at the element centroid and
scaled by the element diameter, which keeps the local mass and normal
systems well conditioned.  Triangle rules are conical products of
Gauss-Legendre and Gauss-Jacobi lines (positive weights, interior points,
exact to the requested total degree).  Defaults follow the solver-wide
convention: triangle rules exact to degree 6, 4-point edge Gauss (exact to
degree 7); L1 and max-norm quantities reuse these fixed sample sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

DEFAULT_TRI_DEGREE = 6
DEFAULT_EDGE_POINTS = 4
MAX_TRI_DEGREE = 20


def monomial_exponents(degree: int) -> np.ndarray:
    """Graded exponent table [(0,0),(1,0),(0,1),(2,0),(1,1),(0,2),...]."""
    return np.asarray(
        [(d - b, b) for d in range(degree + 1) for b in range(d + 1)], dtype=np.int64
    )


@dataclass(frozen=True)
class TriangleQuadrature:
    """Quadrature rule on the reference triangle in barycentric form.

    ``points`` holds barycentric coordinates (Q, 3) with respect to the
    triangle vertices (p0, p1, p2); ``weights`` (Q,) sum to the reference
    area 1/2.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray

    def physical_points(self, tri: np.ndarray) -> np.ndarray:
        """Map to a physical triangle; ``tri`` is (3, 2) or (T, 3, 2)."""
        if tri.ndim == 2:
            return self.points @ tri
        return np.einsum("qk,tkd->tqd", self.points, tri)

    def physical_weights(self, area) -> np.ndarray:
        """Weights on a physical triangle of the given area(s)."""
        area = np.asarray(area)
        if area.ndim == 0:
            return self.weights * (2.0 * float(area))
        return area[:, None] * (2.0 * self.weights)


@lru_cache(maxsize=None)
def triangle_quadrature(min_degree: int) -> TriangleQuadrature:
    """Rule exact for all bivariate monomials of total degree <= min_degree."""
    if not 0 <= min_degree <= MAX_TRI_DEGREE:
        raise ValueError(f"unsupported quadrature degree {min_degree}")
    m = max(1, (min_degree + 2) // 2)
    # xi on [0,1] (Gauss-Legendre), eta on [0,1] with weight (1-eta) (Gauss-Jacobi)
    x, wx = leggauss(m)
    xi, wxi = 0.5 * (x + 1.0), 0.5 * wx
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    eta, weta = 0.5 * (xj + 1.0), 0.25 * wj
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    W = np.outer(wxi, weta)
    l1 = (XI * (1.0 - ETA)).ravel()
    l2 = ETA.ravel()
    points = np.column_stack([1.0 - l1 - l2, l1, l2])
    return TriangleQuadrature(degree=min_degree, points=points, weights=W.ravel())


@lru_cache(maxsize=None)
def edge_gauss(n_points: int = DEFAULT_EDGE_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to 1."""
    if n_points < 1:
        raise ValueError("edge rule needs at least one point")
    x, w = leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class ElementPolynomial:
    """Polynomial on a triangle in centered/scaled monomials.

    Coefficients follow :func:`monomial_exponents`; the basis is
    ((x-cx)/scale)^a ((y-cy)/scale)^b.
    """

    degree: int
    coeffs: np.ndarray
    center: np.ndarray
    scale: float

    def __post_init__(self):
        m = (self.degree + 1) * (self.degree + 2) // 2
        if self.coeffs.shape != (m,):
            raise ValueError(f"expected {m} coefficients for degree {self.degree}")

    def _local(self, x, y):
        return (np.asarray(x) - self.center[0]) / self.scale, (
            np.asarray(y) - self.center[1]
        ) / self.scale

    def __call__(self, x, y):
        xi, eta = self._local(x, y)
        exps = monomial_exponents(self.degree)
        return sum(
            c * xi**a * eta**b for c, (a, b) in zip(self.coeffs, exps)
        )


@dataclass(frozen=True)
class EdgePolynomial:
    """1D polynomial in the centered arc-length basis (t - 1/2)^j, t in [0,1]."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.degree + 1,):
            raise ValueError(f"expected {self.degree + 1} coefficients")

    def __call__(self, t):
        tau = np.asarray(t) - 0.5
        return sum(c * tau**j for j, c in enumerate(self.coeffs))

    def integral(self, h_e: float) -> float:
        """Exact integral over an edge of length h_e."""
        return h_e * float(self.coeffs @ _central_moments(self.degree))


@lru_cache(maxsize=None)
def _central_moments(degree: int) -> np.ndarray:
    """m_j = int_0^1 (t - 1/2)^j dt."""
    j = np.arange(degree + 1)
    m = np.where(j % 2 == 0, 0.5**j / (j + 1), 0.0)
    return m


@lru_cache(maxsize=None)
def _edge_mass(degree: int) -> np.ndarray:
    """Exact Gram matrix of the centered edge basis w.r.t. dt on [0,1]."""
    m = _central_moments(2 * degree)
    return np.array([[m[i + j] for j in range(degree + 1)] for i in range(degree + 1)])


def _tri_geometry(tri: np.ndarray) -> tuple[np.ndarray, float, float]:
    center = tri.mean(axis=0)
    cross = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) - (
        tri[1, 1] - tri[0, 1]
    ) * (tri[2, 0] - tri[0, 0])
    area = 0.5 * cross
    scale = max(
        np.linalg.norm(tri[1] - tri[0]),
        np.linalg.norm(tri[2] - tri[1]),
        np.linalg.norm(tri[0] - tri[2]),
    )
    return center, float(area), float(scale)


def monomial_values(exps: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Vandermonde of local monomials at local coordinates; (..., m)."""
    return np.stack([xi**a * eta**b for a, b in exps], axis=-1)


def project_L2_element(
    f: Callable,
    tri: np.ndarray,
    degree: int,
    quad: TriangleQuadrature | None = None,
) -> ElementPolynomial:
    """L2-project a scalar field onto P_degree on one triangle (operator Q0).

    The element mass system is formed in the centered/scaled monomial basis
    using ``quad`` (default: degree max(2*degree, 6) rule).
    """
    tri = np.asarray(tri, dtype=float)
    center, area, scale = _tri_geometry(tri)
    if area <= 0 or scale <= 0:
        raise ValueError("degenerate triangle")
    if quad is None:
        quad = triangle_quadrature(max(2 * degree, DEFAULT_TRI_DEGREE))
    pts = quad.physical_points(tri)
    w = quad.physical_weights(area)
    xi = (pts[:, 0] - center[0]) / scale
    eta = (pts[:, 1] - center[1]) / scale
    V = monomial_values(monomial_exponents(degree), xi, eta)
    M = V.T @ (w[:, None] * V)
    rhs = V.T @ (w * f(pts[:, 0], pts[:, 1]))
    coeffs = np.linalg.solve(M, rhs)
    return ElementPolynomial(degree=degree, coeffs=coeffs, center=center, scale=scale)


def project_L2_edge(
    g: Callable,
    p_a: np.ndarray,
    p_b: np.ndarray,
    degree: int,
    n_points: int = DEFAULT_EDGE_POINTS,
) -> EdgePolynomial:
    """L2-project a scalar field onto P_degree on the edge p_a -> p_b.

    The Gram matrix is exact (central moments); only the load vector uses
    the edge Gauss rule, so the projection preserves the quadrature value
    of the edge integral of ``g`` exactly for every degree >= 0.  ``g`` is
    evaluated at physical coordinates.
    """
    p_a = np.asarray(p_a, dtype=float)
    p_b = np.asarray(p_b, dtype=float)
    if np.linalg.norm(p_b - p_a) <= 0:
        raise ValueError("zero-length edge")
    t, _ = edge_gauss(n_points)
    pts = p_a[None, :] + t[:, None] * (p_b - p_a)[None, :]
    vals = g(pts[:, 0], pts[:, 1])
    return project_edge_samples(np.broadcast_to(vals, t.shape), degree, n_points)


def project_edge_samples(
    samples: Sequence[float], degree: int, n_points: int = DEFAULT_EDGE_POINTS
) -> EdgePolynomial:
    """Projection from samples taken at the edge_gauss(n_points) nodes."""
    t, w = edge_gauss(n_points)
    samples = np.asarray(samples, dtype=float)
    if samples.shape != t.shape:
        raise ValueError("sample count does not match the edge rule")
    V = np.stack([(t - 0.5) ** j for j in range(degree + 1)], axis=-1)
    rhs = V.T @ (w * samples)
    coeffs = np.linalg.solve(_edge_mass(degree), rhs)
    return EdgePolynomial(degree=degree, coeffs=coeffs)


def interpolate_nodes(g: Callable, mesh, node_ids: np.ndarray) -> np.ndarray:
    """Values of g at the given P2 nodes (vertex ids, then V + edge ids)."""
    coords = mesh.p2_node_coords[node_ids]
    values = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    return np.broadcast_to(values, node_ids.shape).copy()


def interpolate_dirichlet_nodes(g1: Callable, mesh, dirichlet_edges: np.ndarray):
    """Values of g1 at all P2 nodes on the closure of the tagged edges.

    Returns (node_ids, values) with node ids ascending; vertex nodes are
    their vertex index, midpoint nodes are V + edge index.
    """
    node_ids = mesh.closure_p2_nodes(dirichlet_edges)
    return node_ids, interpolate_nodes(g1, mesh, node_ids)


# ---------------------------------------------------------------------------
# P2 nodal basis on a triangle (local nodes: v0, v1, v2, m01, m12, m20)

def p2_values(bary: np.ndarray) -> np.ndarray:
    """Values of the 6 P2 nodal basis functions at barycentric points (..., 3)."""
    l0, l1, l2 = bary[..., 0], bary[..., 1], bary[..., 2]
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ],
        axis=-1,
    )


def bary_gradients(tri: np.ndarray) -> np.ndarray:
    """Constant gradients of the barycentric coordinates; (..., 3, 2).

    ``tri`` is (3, 2) or (T, 3, 2).
    """
    tri = np.asarray(tri, dtype=float)
    single = tri.ndim == 2
    if single:
        tri = tri[None]
    p0, p1, p2 = tri[:, 0], tri[:, 1], tri[:, 2]
    two_a = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    g = np.empty((tri.shape[0], 3, 2))
    for i, (pj, pk) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
        g[:, i, 0] = (pj[:, 1] - pk[:, 1]) / two_a
        g[:, i, 1] = (pk[:, 0] - pj[:, 0]) / two_a
    return g[0] if single else g


def p2_laplacians(bgrad: np.ndarray) -> np.ndarray:
    """Constant Laplacians of the 6 P2 basis functions; (..., 6)."""
    dot = lambda i, j: np.einsum("...d,...d->...", bgrad[..., i, :], bgrad[..., j, :])
    return np.stack(
        [
            4 * dot(0, 0),
            4 * dot(1, 1),
            4 * dot(2, 2),
            8 * dot(0, 1),
            8 * dot(1, 2),
            8 * dot(2, 0),
        ],
        axis=-1,
    )
