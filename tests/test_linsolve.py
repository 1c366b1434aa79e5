import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import assemble_matrix, build_saddle_system
from pdwg.linsolve import (
    DIAG_PIVOT_THRESH,
    CondensedFactor,
    SingularSystem,
    _equilibration,
    factor_and_solve,
    pivot_report,
    saddle_factor,
    solve_sparse,
)
from pdwg.mesh import build_uniform_unit_square
from pdwg.problems import case_configs, get_problem

from conftest import tags_for


def dense_elimination(A, b):
    """Plain Gaussian elimination with partial pivoting (test oracle)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        A[[k, p]] = A[[p, k]]
        b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k:] -= m * A[k, k:]
            b[i] -= m * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1 :] @ x[i + 1 :]) / A[i, i]
    return x


def test_scalar_system():
    out = solve_sparse(sp.csc_matrix([[2.0]]), np.array([4.0]))
    assert out.x == pytest.approx([2.0])
    assert out.residual_inf <= 1e-14


def test_random_spd_against_elimination_oracle(rng):
    A = rng.standard_normal((5, 5))
    A = A @ A.T + 5 * np.eye(5)
    b = rng.standard_normal(5)
    want = dense_elimination(A, b)
    got = solve_sparse(sp.csc_matrix(A), b)
    assert np.abs(got.x - want).max() <= 1e-12


def test_hand_inverted_saddle_block():
    M = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    out = solve_sparse(M, np.array([1.0, 1.0]))
    assert out.x == pytest.approx([1.0, 0.0], abs=1e-14)


def test_exactly_singular_matrix_raises():
    M = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystem):
        solve_sparse(M, np.array([1.0, 1.0]))


def test_badly_scaled_matrix_is_equilibrated_and_nearly_singular_one_raises():
    # the symmetric scaling makes diag(1, 1e-20) the identity, so it solves
    out = solve_sparse(sp.csc_matrix(np.diag([1.0, 1e-20])), np.array([1.0, 1.0]))
    assert out.x == pytest.approx([1.0, 1e20], rel=1e-15)
    # kappa_1 of this one is about 1.8e16, above COND_MAX
    M = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
    with pytest.raises(SingularSystem, match="condition estimate"):
        solve_sparse(M, np.array([1.0, 1.0]))


def test_pivot_report_populated():
    pr = pivot_report(spla.splu(sp.csc_matrix(np.diag([4.0, 2.0]))))
    assert (pr.min_pivot, pr.max_pivot, pr.ratio) == (2.0, 4.0, 0.5)


def test_matches_symmetric_ldlt_factorization():
    # unsymmetric LU vs dense Bunch-Kaufman on the same assembled matrix
    mesh = build_uniform_unit_square(2)
    system = build_saddle_system(mesh, tags_for(mesh, "case1"), get_problem("sinsin"))
    out = solve_sparse(system.M, system.rhs)
    A = system.M.toarray()
    l, d, perm = scipy.linalg.ldl(A)
    want = scipy.linalg.solve(
        d, scipy.linalg.solve_triangular(l[perm], system.rhs[perm], lower=True, unit_diagonal=True)
    )
    want = scipy.linalg.solve_triangular(
        l[perm].T, want, lower=False, unit_diagonal=True
    )[np.argsort(perm)]
    scale = max(1.0, np.abs(out.x).max())
    assert np.abs(out.x - want).max() <= 1e-12 * scale


def test_wellposed_mixed_solve_reproduces_rhs():
    mesh = build_uniform_unit_square(8)
    system = build_saddle_system(mesh, tags_for(mesh, "case2"), get_problem("sinsin"))
    solution = factor_and_solve(system)
    x = np.concatenate([solution.primal[system.free], solution.lam])
    rel = np.abs(system.M @ x - system.rhs).max() / max(1.0, np.abs(system.rhs).max())
    assert rel <= 1e-11


def test_solution_scatter_respects_constraints():
    mesh = build_uniform_unit_square(4)
    system = build_saddle_system(mesh, tags_for(mesh, "case1"), get_problem("coscos"))
    solution = factor_and_solve(system)
    con = system.constrained
    assert np.array_equal(solution.primal[con], system.g[con])
    assert solution.u0.shape == (mesh.num_vertices + mesh.num_edges,)
    assert solution.un.shape == (mesh.num_edges, 2)
    assert solution.lam.shape == (mesh.num_triangles,)
    assert solution.residual_inf <= 1e-10 * max(1.0, np.abs(system.rhs).max())


def system_for(case, n):
    mesh = build_uniform_unit_square(n)
    return build_saddle_system(mesh, tags_for(mesh, case), get_problem("sinsin"))


@pytest.mark.parametrize("case, n", [("case1", 4), ("case5", 1)])
def test_one_factorization_per_matrix(case, n, monkeypatch):
    # case5 at n = 1 breaks down without pivoting; threshold pivoting passes it
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    factor_and_solve(system_for(case, n))
    assert len(calls) == 1
    assert calls[0]["diag_pivot_thresh"] == DIAG_PIVOT_THRESH


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("case", sorted(case_configs()))
def test_condensed_solve_matches_dense_solve(case, n):
    system = system_for(case, n)
    solution = factor_and_solve(system)
    got = np.concatenate([solution.primal[system.free], solution.lam])
    A = system.M.toarray()
    want = scipy.linalg.solve(A, system.rhs)
    bound = np.linalg.cond(A) * np.finfo(float).eps
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("case", ["case1", "case2", "figures"])
def test_free_flux_block_is_positive_diagonal(case):
    system = system_for(case, 4)
    mesh = system.mesh
    flux = np.arange(np.searchsorted(system.free, mesh.num_vertices + mesh.num_edges),
                     system.n_free)
    block = system.M[flux][:, flux].toarray()
    d = np.diag(block)
    assert np.array_equal(block, np.diag(d))
    assert np.all(d > 0.0)
    factor = saddle_factor(system)
    assert np.array_equal(factor.flux, flux)
    assert np.array_equal(factor.inv_d, 1.0 / d)


def test_flux_diagonal_rejects_coupled_block():
    M = sp.csr_matrix(np.array([[2.0, 1.0, 1.0], [1.0, 3.0, 0.5], [1.0, 0.5, 4.0]]))
    with pytest.raises(ValueError, match="not diagonal"):
        CondensedFactor(M, np.array([1, 2]))
    with pytest.raises(ValueError, match="<= 0"):
        CondensedFactor(sp.csr_matrix(np.diag([1.0, -1.0])), np.array([0, 1]))


def test_flux_block_accepts_stored_zeros_off_the_diagonal(rng):
    # the flux block [[2, 0], [0, 4]] stores both of its zeros
    dense = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0],
                      [0.0, 0.0, 4.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    rows, cols = np.nonzero(dense)
    rows, cols = np.append(rows, [1, 2]), np.append(cols, [2, 1])
    M = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape)
    assert M[1:3, 1:3].nnz == 4
    b = rng.standard_normal(4)
    out = CondensedFactor(M, np.array([1, 2])).solve(b)
    assert np.abs(out.x - np.linalg.solve(dense, b)).max() <= 1e-14


def test_flux_unknowns_must_be_consecutive():
    M = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="consecutive"):
        CondensedFactor(M, np.array([0, 2]))


def test_condensation_without_flux_unknowns_solves_full_matrix(rng):
    A = rng.standard_normal((6, 6))
    A = A + A.T + 12 * np.eye(6)
    b = rng.standard_normal(6)
    out = CondensedFactor(sp.csc_matrix(A), np.array([], dtype=np.int64)).solve(b)
    assert np.abs(out.x - np.linalg.solve(A, b)).max() <= 1e-13


def test_condensed_saddle_block_matches_dense_solve(rng):
    # one diagonal unknown eliminated out of a 3x3 saddle block
    M = sp.csc_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 0.0]]))
    b = rng.standard_normal(3)
    out = CondensedFactor(M, np.array([1])).solve(b)
    assert np.abs(out.x - np.linalg.solve(M.toarray(), b)).max() <= 1e-14


# case2, case1, case5 and figures with residuals ||M x - 1||_inf of 3.2e-10
# to 5.3e-6: refinement cannot bring them below 1e-10, since ||x||_inf
# reaches 5.6e2 to 2.5e6, yet each solve is backward stable.
@pytest.mark.parametrize("case, n", [("case2", 16), ("case2", 32), ("case1", 16), ("case1", 32),
                                     *[(case, n) for case in ("case5", "figures")
                                       for n in (8, 16, 32)]])
def test_a_backward_stable_solve_is_accepted(case, n):
    mesh = build_uniform_unit_square(n)
    matrix = assemble_matrix(mesh, tags_for(mesh, case))
    M, b = matrix.M, np.ones(matrix.M.shape[0])
    out = saddle_factor(matrix).solve(b)
    berr = np.abs(M @ out.x - b).max() / (spla.norm(M, np.inf) * np.abs(out.x).max() + 1.0)
    assert out.residual_inf > 1e-10
    assert berr <= 1e-15


def test_zero_right_hand_side_gives_exact_zeros():
    mesh = build_uniform_unit_square(4)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, "case1")))
    out = factor.solve(np.zeros(factor.M.shape[0]))
    assert out.residual_inf == 0.0 and not np.any(out.x)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_solve_that_is_not_finite_raises(value):
    mesh = build_uniform_unit_square(4)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, "case1")))
    b = np.ones(factor.M.shape[0])
    b[0] = value
    with np.errstate(invalid="ignore"), pytest.raises(SingularSystem, match="not finite"):
        factor.solve(b)


def equilibration_oracle(K):
    """The scaling and norms of _equilibration, with the row maxima from scipy."""
    abs_K = abs(K)
    s = 1.0 / np.sqrt(abs_K.max(axis=1).toarray().ravel())
    return s, float((s * (abs_K.T @ s)).max()), float((s * (abs_K @ s)).max())


@pytest.mark.parametrize("case", ["case1", "case2", "case5"])
def test_equilibration_is_bitwise_the_scipy_row_max(case):
    mesh = build_uniform_unit_square(8)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, case)))
    M, keep, flux = factor.M, factor.keep, factor.flux
    K = M[keep][:, keep] - M[keep][:, flux] @ sp.diags(factor.inv_d) @ M[flux][:, keep]
    assert K.format == "csr"
    _, s, norm_1, norm_inf = _equilibration(K)
    want_s, want_1, want_inf = equilibration_oracle(K)
    assert np.array_equal(s.view(np.int64), want_s.view(np.int64))
    assert (norm_1, norm_inf) == (want_1, want_inf)
    assert np.array_equal(s.view(np.int64), factor.s.view(np.int64))


@pytest.mark.parametrize("row", [0, 2, 4])
def test_equilibration_rejects_a_row_without_entries(row):
    dense = np.diag([2.0, -1.0, 3.0, 0.5, 4.0])
    dense[row, row] = 0.0
    with pytest.raises(SingularSystem, match="zero row"):
        _equilibration(sp.csr_matrix(dense))
    explicit_zero = sp.csr_matrix(np.diag([2.0, -1.0, 3.0, 0.5, 4.0]))
    explicit_zero.data[row] = 0.0
    with pytest.raises(SingularSystem, match="zero row"):
        _equilibration(explicit_zero)
