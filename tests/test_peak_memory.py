"""Each step from the mesh to SuperLU's input holds one copy of each matrix.

The high-water mark of a step is read with tracemalloc, which sees every
numpy array that scipy.sparse allocates (SuperLU's own storage is not
traced).  A matrix counts with the arrays it holds, bases included: scipy
sizes some outputs for their structural nonzeros and keeps the unused
tail.  The O(N) index and scaling vectors get 64 bytes per row.
"""

import tracemalloc

import scipy.sparse as sp

from pdwg.assembly import assemble_stabilizer, normal_maps, saddle_operator, tri_p2_dofs
from pdwg.harness import case_matrix
from pdwg.linsolve import saddle_factor
from pdwg.mesh import build_uniform_unit_square

VECTOR_BYTES = 64


def held(A) -> int:
    """Bytes of the arrays a sparse matrix holds, with the bases of views."""
    return sum((a if a.base is None else a.base).nbytes for a in (A.data, A.indices, A.indptr))


def traced_peak(fn, *args):
    """fn(*args), and its high-water mark in bytes above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_saddle_operator_holds_s_the_coupling_and_w():
    # W = [S B^T; B 0] is made from S and one CSR [0 B^T; B 0], with no
    # block-stacked intermediate; the maps that S reads are kept by the mesh
    mesh = build_uniform_unit_square(16)
    normal_maps(mesh), tri_p2_dofs(mesh)
    W, peak = traced_peak(saddle_operator, mesh)
    S = assemble_stabilizer(mesh)
    S.resize(W.shape)
    coupling = (W.nnz - S.nnz) * (W.data.itemsize + W.indices.itemsize) + W.indptr.nbytes
    assert peak <= held(S) + coupling + held(W) + VECTOR_BYTES * W.shape[0]


def test_saddle_factor_holds_each_matrix_of_the_condensation_once():
    # K = M_kk - (M_kq D^-1) M_qk: the difference is made while M_kq, M_kk
    # and the product are held, once each, but not the rows of M they are
    # cut from; later steps hold M_kq with the CSR and the CSC K, or the CSC
    # K and |K|'s data, which is less, as K has no more entries than M_kk
    # and the product together
    mesh = build_uniform_unit_square(16)
    matrix = case_matrix("case1", mesh)
    mesh.operators.clear()
    factor, peak = traced_peak(saddle_factor, matrix)
    M, keep = factor.M, factor.keep
    M_kk = M[keep][:, keep]
    product = (factor.M_kq @ sp.diags(factor.inv_d)) @ factor.M_qk
    K = M_kk - product
    bound = (held(factor.M_kq) + held(M_kk) + held(product) + held(K)
             + VECTOR_BYTES * M.shape[0])
    assert peak <= bound
