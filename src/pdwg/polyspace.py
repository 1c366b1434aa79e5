"""Quadrature, the edge P1 projection and the P2 nodal basis.

The P2 nodal basis is the one element basis: u_h and the projection Q0 u
in ``pdwg.norms`` are both stored as values at the six local nodes.  Edge
fluxes live in P1 with the centered basis 1, (t - 1/2) on the canonical
arc parameter t in [0, 1]; ``project_edge_samples`` is the one edge P1
projection, used for the Neumann data and for Qn of an exact flux, both
sampled by ``pdwg.weak_laplacian.normal_derivative_samples``.
Triangle rules are conical products of Gauss-Legendre and Gauss-Jacobi
lines (positive weights, interior points, exact to the requested total
degree).  The Gauss-Jacobi line for the weight (1 - x) is computed here by
Golub-Welsch, from the eigenvalues and eigenvectors of its Jacobi matrix,
so that importing the package needs no ``scipy.special``.  Both rule
families are cached per process; a triangle rule's arrays are read-only,
since every caller shares them.  Defaults follow the solver-wide
convention: triangle rules exact to degree 6, 4-point edge Gauss (exact to
degree 7); L1 and max-norm quantities reuse these fixed sample sets.  A
triangle degree fixes the edge rule that goes with it (``edge_points_for``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_TRI_DEGREE = 6
DEFAULT_EDGE_POINTS = 4
MAX_TRI_DEGREE = 20


@dataclass(frozen=True)
class TriangleQuadrature:
    """Quadrature rule on the reference triangle in barycentric form.

    ``points`` holds barycentric coordinates (Q, 3) with respect to the
    triangle vertices (p0, p1, p2); ``weights`` (Q,) sum to the reference
    area 1/2.
    """

    points: np.ndarray
    weights: np.ndarray

    def physical_points(self, tri: np.ndarray) -> np.ndarray:
        """The rule's points on T physical triangles ``tri`` (T, 3, 2); (T, Q, 2).

        The three vertex terms are summed in vertex order, which gives the
        same bits as ``einsum("qk,tkd->tqd")`` at a third less cost;
        ``matmul`` does not.
        """
        p = self.points[:, :, None]
        return (p[:, 0] * tri[:, None, 0] + p[:, 1] * tri[:, None, 1]
                + p[:, 2] * tri[:, None, 2])

    def physical_weights(self, area: np.ndarray) -> np.ndarray:
        """The rule's weights on T physical triangles of areas ``area`` (T,); (T, Q)."""
        return area[:, None] * (2.0 * self.weights)


def gauss_jacobi_1_0(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule on [-1, 1] for the weight (1 - x); weights sum to 2.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P_k^(1,0), and the weights are the weight's integral
    times the squared first components of the unit eigenvectors.
    """
    k = np.arange(m, dtype=float)
    diag = -1.0 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = np.sqrt(4 * k**2 * (k + 1) ** 2 / ((2 * k + 1) ** 2 * (2 * k + 2) * (2 * k)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=None)
def triangle_quadrature(min_degree: int) -> TriangleQuadrature:
    """Rule exact for all bivariate polynomials of total degree <= min_degree."""
    if not 0 <= min_degree <= MAX_TRI_DEGREE:
        raise ValueError(f"unsupported quadrature degree {min_degree}")
    m = max(1, (min_degree + 2) // 2)
    # xi on [0,1] (Gauss-Legendre), eta on [0,1] with weight (1-eta) (Gauss-Jacobi)
    x, wx = leggauss(m)
    xi, wxi = 0.5 * (x + 1.0), 0.5 * wx
    xj, wj = gauss_jacobi_1_0(m)
    eta, weta = 0.5 * (xj + 1.0), 0.25 * wj
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    W = np.outer(wxi, weta)
    l1 = (XI * (1.0 - ETA)).ravel()
    l2 = ETA.ravel()
    points = np.column_stack([1.0 - l1 - l2, l1, l2])
    weights = W.ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return TriangleQuadrature(points=points, weights=weights)


def edge_points_for(tri_degree: int) -> int:
    """Edge Gauss points used with a triangle rule of the given degree.

    As many points as the triangle rule has per line, and never fewer than
    the default four, so the edge rule is exact to degree >= tri_degree.
    """
    return max(DEFAULT_EDGE_POINTS, (tri_degree + 2) // 2)


@lru_cache(maxsize=None)
def edge_gauss(n_points: int = DEFAULT_EDGE_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to 1."""
    if n_points < 1:
        raise ValueError("edge rule needs at least one point")
    x, w = leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def project_edge_samples(samples) -> np.ndarray:
    """P1 L2 projection from samples at the nodes of an edge_gauss rule.

    ``samples`` is (..., q), sampled at the edge_gauss(q) nodes; returns
    (..., 2), the coefficients of the centered basis 1, (t - 1/2).  The
    Gram matrix of that basis is diag(1, 1/12), and the load uses the Gauss
    rule, so the constant coefficient is the rule's mean of the samples.
    """
    samples = np.asarray(samples, dtype=float)
    t, w = edge_gauss(samples.shape[-1])
    c0 = samples @ w
    c1 = 12.0 * (samples * (t - 0.5)) @ w
    return np.stack([c0, c1], axis=-1)


def interpolate_nodes(g: Callable, mesh, node_ids: np.ndarray) -> np.ndarray:
    """Values of g at the given P2 nodes (vertex ids, then V + edge ids).

    Only the given nodes' coordinates are formed, each as
    ``mesh.p2_node_coords`` forms it: a vertex as itself, the midpoint of
    edge (a, b) as 0.5 * (v[a] + v[b]).
    """
    coords = np.empty((len(node_ids), 2))
    vertex = node_ids < mesh.num_vertices
    coords[vertex] = mesh.vertices[node_ids[vertex]]
    ends = mesh.edges[node_ids[~vertex] - mesh.num_vertices]
    coords[~vertex] = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    values = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    return np.broadcast_to(values, node_ids.shape).copy()


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
    """Constant gradients of the barycentric coordinates on T triangles
    ``tri`` (T, 3, 2); (T, 3, 2)."""
    p0, p1, p2 = tri[:, 0], tri[:, 1], tri[:, 2]
    two_a = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    g = np.empty((tri.shape[0], 3, 2))
    for i, (pj, pk) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
        g[:, i, 0] = (pj[:, 1] - pk[:, 1]) / two_a
        g[:, i, 1] = (pk[:, 0] - pj[:, 0]) / two_a
    return g


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
