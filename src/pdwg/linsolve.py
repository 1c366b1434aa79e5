"""Direct solution of the sparse symmetric indefinite saddle-point system.

The free flux unknowns q meet the rest of the system only through a
diagonal block D: in the centered edge basis the stabilizer couples a flux
coefficient to no other flux coefficient (edge mass diag(h_e, h_e/12)).
``factor_and_solve`` therefore eliminates them exactly with the diagonal
Schur complement

    K = M_kk - M_kq D^-1 M_qk,

which keeps the free P2 values and the multipliers, about half of the
unknowns (24448 of 48896 for case1 at n = 64).  K is equilibrated
symmetrically and factored by SuperLU in a symmetric minimum-degree order
without pivoting; if that factor fails the pivot gate, the same K is
factored once more with partial pivoting.  The fluxes follow by
back-substitution, and iterative refinement and the residual check run
against the full system M.  The reported pivots are those of the
equilibrated condensed factor.

``solve_sparse`` is the plain partial-pivoting LU of any sparse matrix,
without condensation or scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import SaddleSystem

# solve_sparse gates the pivots of an unscaled matrix.  factor_and_solve
# gates those of the equilibrated condensed matrix: there the singular
# boundary configurations give min/max |U_ii| <= 8e-13 and the named cases
# >= 6e-7 for n <= 64, and the threshold sits between the two.
PIVOT_RTOL = 1e-14
SCALED_PIVOT_RTOL = 1e-10
REFINE_RTOL = 1e-11
RESIDUAL_RTOL = 1e-10
MAX_REFINE = 3


class SingularSystem(Exception):
    """Factorization failed or a pivot underflowed tolerance.

    Signals either a misconfigured boundary (no usable data overlap) or
    extreme ill-conditioning of the discrete system.
    """


@dataclass(frozen=True)
class PivotReport:
    """Diagnostics from the factorization for conditioning studies."""

    min_pivot: float
    max_pivot: float

    @property
    def ratio(self) -> float:
        return self.min_pivot / self.max_pivot if self.max_pivot > 0 else 0.0


@dataclass(frozen=True)
class Solution:
    """Solved primal field, flux coefficients and multiplier.

    u0 holds the values at the V + E P2 nodes, un the (E, 2) stored flux
    coefficients and lam the per-triangle multiplier values.
    """

    u0: np.ndarray
    un: np.ndarray
    lam: np.ndarray
    residual_inf: float
    pivot_report: PivotReport

    @property
    def primal(self) -> np.ndarray:
        return np.concatenate([self.u0, self.un.ravel()])


@dataclass(frozen=True)
class SparseSolve:
    x: np.ndarray
    residual_inf: float
    pivot_report: PivotReport


def _gated_factor(A, rtol: float, **options):
    """SuperLU factor of A and its pivot report.

    Raises SingularSystem when SuperLU reports singularity or the smallest
    pivot magnitude falls below rtol times the largest.
    """
    try:
        lu = spla.splu(A, **options)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem(str(exc)) from exc
    diag = np.abs(lu.U.diagonal())
    pivot = PivotReport(min_pivot=float(diag.min()), max_pivot=float(diag.max()))
    if pivot.min_pivot < rtol * pivot.max_pivot:
        raise SingularSystem(
            f"pivot underflow: min |U_ii| = {pivot.min_pivot:.3e} "
            f"< {rtol:.0e} * {pivot.max_pivot:.3e}"
        )
    return lu, pivot


def _refine(M, b: np.ndarray, solve) -> tuple[np.ndarray, float]:
    """Solve M x = b with ``solve`` and refine against the residual of M.

    Raises SingularSystem when the refined residual stays above
    RESIDUAL_RTOL * max(1, ||b||_inf).
    """
    x = solve(b)
    scale = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    residual = float(np.abs(M @ x - b).max()) if b.size else 0.0
    passes = 0
    while residual > REFINE_RTOL * scale and passes < MAX_REFINE:
        x = x + solve(b - M @ x)
        residual = float(np.abs(M @ x - b).max())
        passes += 1
    if residual > RESIDUAL_RTOL * scale:
        raise SingularSystem(
            f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * {scale:.3e} "
            "after iterative refinement"
        )
    return x, residual


def solve_sparse(M, b: np.ndarray) -> SparseSolve:
    """LU-factor a sparse matrix with partial pivoting and solve, with refinement.

    Raises SingularSystem when SuperLU reports singularity, the smallest
    pivot magnitude falls below PIVOT_RTOL times the largest, or the
    refined residual stays above RESIDUAL_RTOL * max(1, ||b||_inf).
    """
    M = M.tocsc()
    b = np.asarray(b, dtype=float)
    lu, pivot = _gated_factor(M, PIVOT_RTOL)
    x, residual = _refine(M, b, lu.solve)
    return SparseSolve(x=x, residual_inf=residual, pivot_report=pivot)


def flux_diagonal(M, flux: np.ndarray) -> np.ndarray:
    """Diagonal of the block M[flux, flux], which must be a positive diagonal.

    Raises ValueError when an off-diagonal entry of the block is nonzero or
    a diagonal entry is not positive: the condensation in factor_and_solve
    is exact only for such a block.
    """
    block = M[flux][:, flux].tocoo()
    if np.any(block.data[block.row != block.col] != 0.0):
        raise ValueError("the free-flux block is not diagonal")
    d = block.diagonal()
    if not np.all(d > 0.0):
        raise ValueError("the free-flux block has a diagonal entry <= 0")
    return d


def solve_condensed(M, b: np.ndarray, flux: np.ndarray) -> SparseSolve:
    """Solve M x = b after eliminating the unknowns ``flux`` (see module doc).

    Raises SingularSystem when both factors of the equilibrated condensed
    matrix fail the SCALED_PIVOT_RTOL gate, or the refined residual of M
    stays above RESIDUAL_RTOL * max(1, ||b||_inf).
    """
    M = M.tocsr()
    b = np.asarray(b, dtype=float)
    keep = np.setdiff1d(np.arange(M.shape[0]), flux, assume_unique=True)
    inv_d = 1.0 / flux_diagonal(M, flux)
    M_kq = M[keep][:, flux]
    M_qk = M[flux][:, keep]
    K = M[keep][:, keep] - M_kq @ sp.diags(inv_d) @ M_qk

    row_max = abs(K).max(axis=1).toarray().ravel()
    if not np.all(row_max > 0.0):
        raise SingularSystem("the condensed matrix has a zero row")
    s = 1.0 / np.sqrt(row_max)
    K = (sp.diags(s) @ K @ sp.diags(s)).tocsc()
    try:
        lu, pivot = _gated_factor(
            K, SCALED_PIVOT_RTOL, permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True},
        )
    except SingularSystem:
        lu, pivot = _gated_factor(K, SCALED_PIVOT_RTOL)

    def solve(r):
        x = np.empty_like(r)
        x[keep] = s * lu.solve(s * (r[keep] - M_kq @ (inv_d * r[flux])))
        x[flux] = inv_d * (r[flux] - M_qk @ x[keep])
        return x

    x, residual = _refine(M, b, solve)
    return SparseSolve(x=x, residual_inf=residual, pivot_report=pivot)


def factor_and_solve(system: SaddleSystem) -> Solution:
    """Solve the assembled saddle-point system and scatter back to fields.

    The free flux unknowns follow the free u unknowns in the ordering of M.
    """
    dofmap = system.dofmap
    nf = system.n_free
    first_flux = int(np.searchsorted(dofmap.free, dofmap.n_u))
    solved = solve_condensed(system.M, system.rhs, np.arange(first_flux, nf))
    z = system.g.copy()
    z[dofmap.free] = solved.x[:nf]
    lam = solved.x[nf:]
    u0 = z[: dofmap.n_u]
    un = z[dofmap.n_u :].reshape(dofmap.n_edges, 2)
    return Solution(
        u0=u0,
        un=un,
        lam=lam,
        residual_inf=solved.residual_inf,
        pivot_report=solved.pivot_report,
    )
