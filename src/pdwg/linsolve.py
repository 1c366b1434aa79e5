"""Direct solution of the sparse symmetric indefinite saddle-point system.

The free flux unknowns q meet the rest of the system only through a
diagonal block D: in the centered edge basis the stabilizer couples a flux
coefficient to no other flux coefficient (edge mass diag(h_e, h_e/12)).
``CondensedFactor`` therefore eliminates them exactly with the diagonal
Schur complement

    K = M_kk - M_kq D^-1 M_qk,

which keeps the free P2 values and the multipliers, about half of the
unknowns (24448 of 48896 for case1 at n = 64).  M comes in CSR; its kept
rows are sliced once, and give both M_kq and the leading block of K.  M is
exactly symmetric, so M_qk is the transpose of M_kq.  K is equilibrated
symmetrically, its entries scaled in place by s of their row and then by s
of their column (the products diag(s) K diag(s) forms, in the same order),
and factored by SuperLU in a symmetric minimum-degree order without
pivoting.  The factor is gated by solves alone: three solves of a
Hager 1-norm estimate of ||K^-1||_1 give the condition estimate kappa_1(K),
and the backward error of each of them shows a factor that broke down.  If
the factor without pivoting fails the gate, the same K is factored once
more with partial pivoting.  The gate never reads the factor's L or U,
because the first read makes SuperLU build and keep CSC copies of both,
about as much memory again as the factor itself; the pivot report,
which needs U, is computed only when ``pivot_report`` is called, which
``pdwg solve --diagnostics`` and the mixed-case pivot check of
``pdwg verify`` do.  The fluxes follow by back-substitution, and
iterative refinement and the residual check run against the full system
M.  The saddle matrix depends only on the mesh and the boundary
partition, so one factor serves every right-hand side: the gate runs
once, while refinement and the residual check run for each ``solve``.

``solve_sparse`` is the plain partial-pivoting LU of any sparse matrix,
without condensation or scaling, gated on its pivots.  No pdwg code
calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import SaddleSystem, SystemMatrix

# solve_sparse gates the pivots of an unscaled matrix.
PIVOT_RTOL = 1e-14
# CondensedFactor gates the equilibrated condensed K.  A solve whose
# backward error exceeds BERR_MAX means the factor broke down; a condition
# estimate above COND_MAX means K is singular to working precision.  The
# estimates the gate computes for the named cases (largest: figures) and
# for the singular configurations of tests/test_singularity_gate.py
# (smallest of the four; at n = 1 dirichlet_bottom_only, at n = 256 only
# data_free was run):
#
#     n          1      2      4      8     16     32     64    128    256
#     figures    -    4.7e4  8.2e5  3.1e7  1.1e9  3.7e10 1.6e12 6.8e13 3.0e15
#     singular 6.2e16 1.3e17 1.1e17 1.8e17 2.2e17 2.7e17 2.8e17 2.9e17 3.1e17
#
# figures grows about 40x per halving of h.  COND_MAX leaves a factor of 5
# above figures at n = 256 and of 4 below the smallest singular value.  The
# backward error is <= 1.4e-15 on every factor that did not break down, and
# >= 5e-5 on the two factors without pivoting that did (case5 at n = 1,
# figures at n = 2).
BERR_MAX = 1e-10
COND_MAX = 1.6e16
REFINE_RTOL = 1e-11
RESIDUAL_RTOL = 1e-10
MAX_REFINE = 3


class SingularSystem(Exception):
    """Factorization failed, broke down, or the matrix is singular to
    working precision.

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
    coefficients and lam the per-triangle multiplier values.  condition is
    the 1-norm condition estimate of the equilibrated condensed matrix;
    pivot_report is None unless a caller set it from its factor's
    ``pivot_report``.
    """

    u0: np.ndarray
    un: np.ndarray
    lam: np.ndarray
    residual_inf: float
    pivot_report: PivotReport | None = None
    condition: float = math.nan

    @property
    def primal(self) -> np.ndarray:
        return np.concatenate([self.u0, self.un.ravel()])


@dataclass(frozen=True)
class SparseSolve:
    x: np.ndarray
    residual_inf: float
    pivot_report: PivotReport | None = None


def _factor(A, **options):
    """SuperLU factor of A; SingularSystem when SuperLU reports singularity."""
    try:
        return spla.splu(A, **options)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem(str(exc)) from exc


def _pivot_report(lu) -> PivotReport:
    """Smallest and largest |U_ii| of a SuperLU factor.

    Reading lu.U makes SuperLU build CSC copies of L and U, which it keeps
    for as long as lu lives.
    """
    diag = np.abs(lu.U.diagonal())
    return PivotReport(min_pivot=float(diag.min()), max_pivot=float(diag.max()))


def _condition_estimate(lu, K, norm_1: float, norm_inf: float) -> float:
    """kappa_1(K) = ||K||_1 * est ||K^-1||_1 from three solves with lu, the factor of K.

    Hager's estimate: x = K^-1 (1/n), z = K^-T sign(x), y = K^-1 e_j with
    j = argmax |z|, and est ||K^-1||_1 = max(||x||_1, ||y||_1), a lower
    bound that is rarely off by more than a small factor.  norm_1 and
    norm_inf are those of K.  Raises SingularSystem when the backward error
    ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) of a solve with A = K
    or K^T exceeds BERR_MAX: the factor broke down.
    """
    def solve(b: np.ndarray, trans: str = "N") -> np.ndarray:
        x = lu.solve(b, trans=trans)
        A, norm = (K, norm_inf) if trans == "N" else (K.T, norm_1)
        berr = float(np.abs(A @ x - b).max()) / (norm * float(np.abs(x).max())
                                                  + float(np.abs(b).max()))
        if not berr <= BERR_MAX:
            raise SingularSystem(
                f"backward error {berr:.3e} of a solve with the factor exceeds {BERR_MAX:.0e}"
            )
        return x

    n = K.shape[0]
    x = solve(np.full(n, 1.0 / n))
    z = solve(np.where(x >= 0.0, 1.0, -1.0), trans="T")
    e = np.zeros(n)
    e[np.argmax(np.abs(z))] = 1.0
    y = solve(e)
    return norm_1 * max(float(np.abs(x).sum()), float(np.abs(y).sum()))


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

    No pdwg code calls this; it stays only because perfbench/tracing.py
    hooks it by name, and a traced name that no longer exists fails there.
    Raises SingularSystem when SuperLU reports singularity, the smallest
    pivot magnitude falls below PIVOT_RTOL times the largest, or the
    refined residual stays above RESIDUAL_RTOL * max(1, ||b||_inf).
    """
    M = M.tocsc()
    b = np.asarray(b, dtype=float)
    lu = _factor(M)
    pivot = _pivot_report(lu)
    if pivot.min_pivot < PIVOT_RTOL * pivot.max_pivot:
        raise SingularSystem(
            f"pivot underflow: min |U_ii| = {pivot.min_pivot:.3e} "
            f"< {PIVOT_RTOL:.0e} * {pivot.max_pivot:.3e}"
        )
    x, residual = _refine(M, b, lu.solve)
    return SparseSolve(x=x, residual_inf=residual, pivot_report=pivot)


def flux_diagonal(M, flux: np.ndarray) -> np.ndarray:
    """Diagonal of the block M[flux, flux], which must be a positive diagonal.

    Raises ValueError when an off-diagonal entry of the block is nonzero or
    a diagonal entry is not positive: the condensation in CondensedFactor
    is exact only for such a block.
    """
    block = M[flux][:, flux].tocoo()
    if np.any(block.data[block.row != block.col] != 0.0):
        raise ValueError("the free-flux block is not diagonal")
    d = block.diagonal()
    if not np.all(d > 0.0):
        raise ValueError("the free-flux block has a diagonal entry <= 0")
    return d


def _equilibration(K) -> tuple[np.ndarray, float, float]:
    """Symmetric scaling s = 1 / sqrt(max_j |K_ij|) of K, and the 1- and
    inf-norms of diag(s) K diag(s), its column and row sums of |K_ij| s_i s_j."""
    abs_K = abs(K)
    row_max = abs_K.max(axis=1).toarray().ravel()
    if not np.all(row_max > 0.0):
        raise SingularSystem("the condensed matrix has a zero row")
    s = 1.0 / np.sqrt(row_max)
    return s, float((s * (abs_K.T @ s)).max()), float((s * (abs_K @ s)).max())


class CondensedFactor:
    """Gated factor of M with the unknowns ``flux`` eliminated (see module doc).

    M must be exactly symmetric, as the saddle matrices are; a CSR M is
    used as it is.  Built once per matrix; ``solve`` then takes any number
    of right-hand sides.  ``condition`` is the 1-norm condition estimate of
    the equilibrated condensed matrix.  Raises SingularSystem when SuperLU
    fails or the factor breaks down both without and with pivoting, or when
    the condition estimate is above COND_MAX or not finite.
    """

    def __init__(self, M, flux: np.ndarray):
        self.M = M = M.tocsr()
        self.keep = keep = np.setdiff1d(np.arange(M.shape[0]), flux, assume_unique=True)
        self.flux = flux
        self.inv_d = 1.0 / flux_diagonal(M, flux)
        M_k = M[keep]
        self.M_kq = M_k[:, flux]
        self.M_qk = self.M_kq.T  # M is exactly symmetric
        K = M_k[:, keep] - self.M_kq @ sp.diags(self.inv_d) @ self.M_qk
        del M_k  # not held through the factorization

        self.s, norm_1, norm_inf = _equilibration(K)
        # diag(s) K diag(s) entry by entry: first s of the row, then s of the column
        K.data *= np.repeat(self.s, np.diff(K.indptr))
        K.data *= self.s[K.indices]
        K = K.tocsc()
        try:
            self.lu = _factor(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                              options={"SymmetricMode": True})
            self.condition = _condition_estimate(self.lu, K, norm_1, norm_inf)
        except SingularSystem:
            self.lu = _factor(K)
            self.condition = _condition_estimate(self.lu, K, norm_1, norm_inf)
        if not self.condition <= COND_MAX:
            raise SingularSystem(
                f"condition estimate {self.condition:.3e} of the equilibrated "
                f"condensed matrix exceeds {COND_MAX:.1e}"
            )

    def pivot_report(self) -> PivotReport:
        """Smallest and largest pivot of the equilibrated condensed factor.

        This reads U: the factor then holds copies of L and U for the rest
        of its life, so ask only of a factor about to be dropped.
        """
        return _pivot_report(self.lu)

    def _apply_inverse(self, r: np.ndarray) -> np.ndarray:
        keep, flux, inv_d, s = self.keep, self.flux, self.inv_d, self.s
        x = np.empty_like(r)
        x[keep] = s * self.lu.solve(s * (r[keep] - self.M_kq @ (inv_d * r[flux])))
        x[flux] = inv_d * (r[flux] - self.M_qk @ x[keep])
        return x

    def solve(self, b: np.ndarray) -> SparseSolve:
        """Solve M x = b with iterative refinement against M.

        Raises SingularSystem when the refined residual stays above
        RESIDUAL_RTOL * max(1, ||b||_inf).
        """
        x, residual = _refine(self.M, np.asarray(b, dtype=float), self._apply_inverse)
        return SparseSolve(x=x, residual_inf=residual)


def saddle_factor(system: SystemMatrix) -> CondensedFactor:
    """Condensed factor of a saddle matrix, its free flux unknowns eliminated.

    The free flux unknowns follow the free u unknowns in the ordering of M.
    """
    dofmap = system.dofmap
    first_flux = int(np.searchsorted(dofmap.free, dofmap.n_u))
    return CondensedFactor(system.M, np.arange(first_flux, system.n_free))


def factor_and_solve(system: SaddleSystem, factor: CondensedFactor | None = None) -> Solution:
    """Solve the assembled saddle-point system and scatter back to fields.

    ``factor`` is the saddle_factor of system's matrix; when it is not
    given, one is built here for this one solve.  The Solution carries no
    pivot report: ask a factor for ``pivot_report`` where it is needed.
    """
    if factor is None:
        factor = saddle_factor(system)
    dofmap = system.dofmap
    nf = system.n_free
    solved = factor.solve(system.rhs)
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
        condition=factor.condition,
    )
