"""The element kernels against their einsum forms.

The stabilizer, the quadrature map and the condensed factor must give the
same bits as these oracles, so that the saddle matrix, the load and the
factor, and with them every solution, stay byte-identical.  Only the P2
projection Q0 u may move, at roundoff.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import (
    assemble_matrix,
    assemble_stabilizer,
    build_dofmap,
    constraint_matrix,
    normal_mismatch_maps,
    tri_p2_dofs,
)
from pdwg.linsolve import saddle_factor
from pdwg.mesh import build_uniform_unit_square
from pdwg.norms import p2_vandermonde, project_exact
from pdwg.polyspace import MAX_TRI_DEGREE, triangle_quadrature
from pdwg.problems import get_problem

from conftest import tags_for

SIZES = (1, 2, 3, 8, 16)
CASES = ("case1", "case2", "case5")


def physical_points_einsum(quad, tri):
    return np.einsum("qk,tkd->tqd", quad.points, tri)


def stabilizer_einsum(mesh, dofmap):
    """S from the upper-triangle entries of the local blocks, mirrored."""
    n_u = dofmap.n_u
    p2 = tri_p2_dofs(mesh)
    rows, cols, data = [], [], []
    for e, _s, G in normal_mismatch_maps(mesh):
        T = len(e)
        R = np.zeros((T, 2, 8))
        R[:, :, :6] = G
        R[:, 0, 6] = -1.0
        R[:, 1, 7] = -1.0
        w = (mesh.h_e[e] / mesh.h_t)[:, None] * np.array([1.0, 1.0 / 12.0])
        K = np.einsum("tia,ti,tib->tab", R, w, R)
        dofs = np.concatenate(
            [p2, (n_u + 2 * e)[:, None], (n_u + 2 * e + 1)[:, None]], axis=1
        )
        r = np.broadcast_to(dofs[:, :, None], (T, 8, 8))
        c = np.broadcast_to(dofs[:, None, :], (T, 8, 8))
        keep = r <= c
        rows.append(r[keep])
        cols.append(c[keep])
        data.append(K[keep])
    n = dofmap.n_primal
    upper = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return upper + sp.triu(upper, k=1).T.tocsr()


def saddle_einsum(S, B, dofmap):
    """M assembled in CSC and converted to CSR."""
    free = dofmap.free
    S_f, B_f = S[free], B[:, free]
    return sp.bmat([[S_f[:, free], B_f.T], [B_f, None]], format="csc").tocsr()


def q0_einsum(problem, mesh, tri_degree=6):
    tri = mesh.tri_coords()
    quad = triangle_quadrature(tri_degree)
    pts = physical_points_einsum(quad, tri)
    w = quad.physical_weights(mesh.area)
    V = p2_vandermonde(tri.mean(axis=1), np.asarray(mesh.h_t, dtype=float), pts)
    M = np.einsum("tqa,tq,tqb->tab", V, w, V)
    uvals = np.broadcast_to(problem.u(pts[..., 0], pts[..., 1]), w.shape)
    rhs = np.einsum("tqa,tq,tq->ta", V, w, uvals)
    return np.linalg.solve(M, rhs[..., None])[..., 0]


def assert_same_csr(A, B):
    assert A.format == B.format == "csr"
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("n", (1, 3, 64))
def test_physical_points_are_bitwise_einsum(n):
    tri = build_uniform_unit_square(n).tri_coords()
    for degree in range(4, MAX_TRI_DEGREE + 1):
        quad = triangle_quadrature(degree)
        assert np.array_equal(quad.physical_points(tri), physical_points_einsum(quad, tri))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_stabilizer_and_saddle_matrix_are_bitwise_einsum(n, case):
    mesh = build_uniform_unit_square(n)
    tags = tags_for(mesh, case)
    dofmap = build_dofmap(mesh, tags)
    S = stabilizer_einsum(mesh, dofmap)
    assert_same_csr(assemble_stabilizer(mesh, dofmap), S)
    M = saddle_einsum(S, constraint_matrix(mesh, dofmap), dofmap)
    assert_same_csr(assemble_matrix(mesh, tags).M, M)


@pytest.mark.parametrize("case, n", [("case1", 3), ("case2", 8), ("case5", 8)])
def test_condensed_factor_is_the_factor_of_the_scaled_einsum_product(case, n):
    mesh = build_uniform_unit_square(n)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, case)))
    M, keep, flux, s = factor.M, factor.keep, factor.flux, factor.s
    K = M[keep][:, keep] - M[keep][:, flux] @ sp.diags(factor.inv_d) @ M[flux][:, keep]
    K = (sp.diags(s) @ K @ sp.diags(s)).tocsc()
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    b = np.random.default_rng(n).standard_normal(len(keep))
    assert np.array_equal(factor.lu.solve(b), lu.solve(b))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", ("sinsin", "coscos", "quad"))
def test_projection_matches_einsum_to_roundoff(n, name):
    problem = get_problem(name)
    mesh = build_uniform_unit_square(n)
    want = q0_einsum(problem, mesh)
    got = project_exact(problem, mesh).q0_coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
