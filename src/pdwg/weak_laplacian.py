"""The weak Laplacian of the lowest-order scheme (C0 P2, P1 fluxes, P0).

Tested against a constant on element T, the weak Laplacian of a weak
function {v0, vb, vn} keeps only its flux part: the volume and trace terms
vanish with the test function's derivatives, which leaves

    weak_lap(v)|_T = (1/|T|) sum_e s(T, e) h_e c0_e,

with c0_e the constant coefficient of the P1 flux stored against the fixed
global normal n_e; the centered-linear coefficient integrates to zero.
s(T, e) = n_e . n_T makes the outward value seen from T single-valued by
construction.  The flux part of the projection Q_h theta is the edge P1
projection of grad theta . n_e.  ``normal_derivative_samples`` is the one
sampler of grad theta . n_e on edges: it feeds Qn here, on every edge, and
the Neumann data that ``pdwg.assembly`` lifts, on a case's Neumann edges.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from pdwg.mesh import Mesh
from pdwg.polyspace import DEFAULT_EDGE_POINTS, edge_gauss, project_edge_samples


def normal_derivative_samples(
    grad_theta: Callable, mesh: Mesh, edges, edge_points: int = DEFAULT_EDGE_POINTS
) -> np.ndarray:
    """grad theta . n_e at the edge_gauss(edge_points) nodes of the given edges.

    ``edges`` indexes the mesh's edge arrays: an array of edge ids, or
    ``slice(None)`` for every edge.  Returns one row of edge_points samples
    per edge, against the global normal n_e, in rule order along the
    canonical arc parameter of each edge.
    """
    t, _ = edge_gauss(edge_points)
    pa = mesh.vertices[mesh.edges[edges, 0]]
    pb = mesh.vertices[mesh.edges[edges, 1]]
    pts = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
    gx, gy = grad_theta(pts[..., 0], pts[..., 1])
    normals = mesh.edge_normals[edges]
    return np.broadcast_to(gx * normals[:, None, 0] + gy * normals[:, None, 1], pts.shape[:-1])


def projected_weak_function(
    grad_theta: Callable, mesh: Mesh, edge_points: int = DEFAULT_EDGE_POINTS
) -> np.ndarray:
    """Flux part Qn(grad theta . n_e) of Q_h theta: (E, 2) stored coefficients."""
    samples = normal_derivative_samples(grad_theta, mesh, slice(None), edge_points)
    return project_edge_samples(samples)


def discrete_weak_laplacian(mesh: Mesh, flux: np.ndarray) -> np.ndarray:
    """P0 weak Laplacian per triangle, (T,), of stored (E, 2) flux coefficients."""
    c0 = np.asarray(flux, dtype=float)[mesh.tri_edges, 0]
    return (mesh.tri_edge_signs * mesh.h_e[mesh.tri_edges] * c0).sum(axis=1) / mesh.area
