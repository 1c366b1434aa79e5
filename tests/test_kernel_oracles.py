"""The element kernels against their einsum forms.

The stabilizer, the quadrature map and the condensed factor must give the
same bits as these oracles, so that the saddle matrix, the load and the
factor, and with them every solution, stay byte-identical.  The
stabilizer's oracle is the Gram matrix of a dense mismatch map, summed row
by row; the local-block sums S was scattered from before stay as the bound
of that rounding change.  The P2 projection Q0 u is checked against an
independent basis instead: the mass system of centered/scaled monomials,
solved per element, must give the same values at the P2 nodes to roundoff.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import (
    assemble_matrix,
    assemble_stabilizer,
    constraint_matrix,
    normal_mismatch_maps,
    tri_p2_dofs,
)
from pdwg.linsolve import saddle_factor
from pdwg.mesh import build_uniform_unit_square
from pdwg.norms import project_exact
from pdwg.polyspace import MAX_TRI_DEGREE, triangle_quadrature
from pdwg.problems import get_problem

from conftest import monomial_exponents, monomial_values, tags_for

SIZES = (1, 2, 3, 8, 16)
CASES = ("case1", "case2", "case5")


def physical_points_einsum(quad, tri):
    return np.einsum("qk,tkd->tqd", quad.points, tri)


def stabilizer_gram(mesh):
    """S summed from the rows of a dense Gs, one row at a time.

    The rows come in the order of ``mismatch_operator``: local edge, element,
    flux coefficient.  Each adds np.multiply.outer(row, row) on the row's
    nonzeros only, which gives the bits of adding it over every column.
    """
    n_u = mesh.num_vertices + mesh.num_edges
    n = n_u + 2 * mesh.num_edges
    p2 = tri_p2_dofs(mesh)
    acc = np.zeros((n, n))
    for e, G in zip(mesh.tri_edges.T, normal_mismatch_maps(mesh)):
        root_w = np.sqrt((mesh.h_e[e] / mesh.h_t)[:, None] * np.array([1.0, 1.0 / 12.0]))
        for t in range(len(e)):
            for k in range(2):
                row = np.zeros(n)
                row[p2[t]] = root_w[t, k] * G[t, k]
                row[n_u + 2 * e[t] + k] = -root_w[t, k]
                nz = np.flatnonzero(row)
                acc[np.ix_(nz, nz)] += np.multiply.outer(row[nz], row[nz])
    return sp.csr_matrix(acc)


def stabilizer_einsum(mesh):
    """S from the upper-triangle entries of the local blocks, mirrored: the
    sums S was scattered from before it was a Gram matrix."""
    n_u = mesh.num_vertices + mesh.num_edges
    p2 = tri_p2_dofs(mesh)
    rows, cols, data = [], [], []
    for e, G in zip(mesh.tri_edges.T, normal_mismatch_maps(mesh)):
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
    n = n_u + 2 * mesh.num_edges
    upper = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return upper + sp.triu(upper, k=1).T.tocsr()


def saddle_einsum(S, B, free):
    """M over the free primal dofs, assembled in CSC and converted to CSR."""
    S_f, B_f = S[free], B[:, free]
    return sp.bmat([[S_f[:, free], B_f.T], [B_f, None]], format="csc").tocsr()


def centered_monomials(tri, pts):
    """P2 monomials centered at the centroid and scaled by the diameter, at
    pts (T, Q, 2); (T, Q, 6)."""
    centers = tri.mean(axis=1)
    scales = np.max(np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2), axis=1)
    xi = (pts[..., 0] - centers[:, None, 0]) / scales[:, None]
    eta = (pts[..., 1] - centers[:, None, 1]) / scales[:, None]
    return monomial_values(monomial_exponents(2), xi, eta)


P2_NODE_BARY = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])


def q0_einsum(problem, mesh, tri_degree=6):
    """Q0 u at the P2 nodes, from the monomial mass system of each element."""
    tri = mesh.tri_coords()
    quad = triangle_quadrature(tri_degree)
    pts = physical_points_einsum(quad, tri)
    w = quad.physical_weights(mesh.area)
    V = centered_monomials(tri, pts)
    M = np.einsum("tqa,tq,tqb->tab", V, w, V)
    uvals = np.broadcast_to(problem.u(pts[..., 0], pts[..., 1]), w.shape)
    rhs = np.einsum("tqa,tq,tq->ta", V, w, uvals)
    coeffs = np.linalg.solve(M, rhs[..., None])[..., 0]
    nodes = np.einsum("qk,tkd->tqd", P2_NODE_BARY, tri)
    return np.einsum("tqa,ta->tq", centered_monomials(tri, nodes), coeffs)


def pattern(A):
    A = A.tocoo()
    return set(zip(A.row.tolist(), A.col.tolist()))


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
    matrix = assemble_matrix(mesh, tags)
    S = stabilizer_gram(mesh)
    assert_same_csr(assemble_stabilizer(mesh), S)
    # the block sums round differently, by at most 2 eps; where they keep a
    # rounding residue of an entry that is zero in exact arithmetic, S may
    # sum it to exactly zero and not store it
    S_blocks = stabilizer_einsum(mesh)
    bound = 2 * np.finfo(float).eps * abs(S).max()
    assert abs(S - S_blocks).max() <= bound
    kept, blocks = pattern(S), pattern(S_blocks)
    assert kept <= blocks
    assert all(abs(S_blocks[i, j]) <= bound for i, j in blocks - kept)
    M = saddle_einsum(S, constraint_matrix(mesh), matrix.free)
    assert_same_csr(matrix.M, M)


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
    got = project_exact(problem, mesh).q0
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", (1, 8, 64))
@pytest.mark.parametrize("tri_degree", (4, 6, 12, 20))
def test_projection_matches_einsum_for_every_rule(tri_degree, n):
    mesh = build_uniform_unit_square(n)
    for name in ("sinsin", "coscos", "quad"):
        problem = get_problem(name)
        want = q0_einsum(problem, mesh, tri_degree)
        got = project_exact(problem, mesh, tri_degree).q0
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
