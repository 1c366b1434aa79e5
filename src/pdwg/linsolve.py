"""Direct solution of the sparse symmetric indefinite saddle-point system.

The free flux unknowns q meet the rest of the system only through a
diagonal block D: in the centered edge basis the stabilizer couples a flux
coefficient to no other flux coefficient (edge mass diag(h_e, h_e/12)).
``CondensedFactor`` therefore eliminates them exactly with the diagonal
Schur complement

    K = M_kk - M_kq D^-1 M_qk,

which keeps the free P2 values and the multipliers, about half of the
unknowns (24448 of 48896 for case1 at n = 64).  The flux unknowns are one
run of consecutive rows of M, whose block is checked to be a positive
diagonal D on every factor.  K is converted to CSC once, equilibrated
symmetrically, its entries scaled in place by s of their row and then by s
of their column (the products diag(s) K diag(s) forms, in the same order),
and factored once by SuperLU in a symmetric minimum-degree order with
threshold pivoting (DIAG_PIVOT_THRESH), which swaps rows only where a
factor without pivoting would break down.  The factor is gated by solves
alone: three solves of a Hager 1-norm estimate of ||K^-1||_1 give the
condition estimate kappa_1(K).  The gate never reads the factor's L or U,
because the first read makes SuperLU build and keep CSC copies of both,
about as much memory again as the factor itself; ``pivot_report`` reads U
from the factor's SuperLU object once the rest of the factor is freed, and
only ``pdwg.harness.case_pivots`` calls it, for ``pdwg solve --diagnostics``
and ``pdwg verify``.  The fluxes follow by
back-substitution, and iterative refinement runs against the full system
M.  Every solve, the gate's three with K and each refined one with M, is
accepted by one rule: its normwise backward error
||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) (Rigal and Gaches,
1967) is at most BERR_MAX, which a solve that is not finite fails.  One
factor serves every right-hand side: the gate runs once, refinement and
its acceptance once per ``solve``.  It is the one factor path:
``solve_sparse`` solves any exactly symmetric matrix with a CondensedFactor
that eliminates no unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import SaddleSystem, SystemMatrix, join_primal, split_primal

# Every solve with a factor, of the gate or refined, is refused when its
# backward error exceeds BERR_MAX or is not finite: in the gate that means
# the factor broke down.  A condition estimate of the equilibrated
# condensed K above COND_MAX means K is singular to working precision.  The
# estimates the gate computes for the named cases (largest: figures; case1
# and case5 beside it) and for the singular configurations of
# tests/test_singularity_gate.py (smallest of the four; at n = 1
# dirichlet_bottom_only, at n = 256 only data_free was run):
#
#     n          1      2      4      8     16     32     64    128    256
#     case1    6.5e0  3.6e2  8.5e3  1.5e5  2.5e6  4.1e7  6.7e8  1.1e10 1.7e11
#     case5    2.4e2  5.6e3  1.0e5  2.5e6  6.5e7  2.1e9  7.9e10 6.4e12 2.8e14
#     figures    -    4.7e4  8.2e5  3.1e7  1.1e9  3.7e10 1.6e12 6.8e13 3.0e15
#     singular 6.2e16 1.3e17 1.1e17 1.8e17 2.2e17 2.7e17 2.8e17 2.9e17 3.1e17
#
# figures grows about 40x per halving of h, case5 40-80x and case1 about
# 16x.  COND_MAX leaves a factor of 5 above figures at n = 256, of 58 above
# case5 and of 9e4 above case1, and of 4 below the smallest singular value.
# The n = 256 factors, each built alone in a fresh process, peak at
# 2 589 MiB (case1) and 2 194 MiB (case5) of resident memory; a whole
# ``pdwg solve --n 128`` (sinsin, case1) peaks at 573 MiB.  The backward
# error of the gate's solves is <= 1.4e-15 on every factor.  Refined solves
# of b = ones with M, case2 to figures at n = 8-32, read at most 5.6e-17,
# with residuals up to 5.3e-6.  SuperLU keeps a column's diagonal pivot
# unless it is below DIAG_PIVOT_THRESH times the column's largest entry
# (threshold pivoting; Demmel et al., 1999).  Without pivoting, the gate's
# first solve reads backward errors 9.3e-4 (case5, n = 1) and 2.7e-6
# (figures, n = 2); thresholds from 1e-14 pass both, not 1e-15.  By decade,
# every other named-case factor stays bit for bit the unpivoted one up to
# 2e-2 at n <= 32, 1e-2 at n = 64 and 1e-3 at n = 128 (n = 256 unmeasured).
BERR_MAX = 1e-10
COND_MAX = 1.6e16
DIAG_PIVOT_THRESH = 1e-6
REFINE_RTOL = 1e-11
MAX_REFINE = 3


class SingularSystem(Exception):
    """Factorization failed, its solves fail their backward error, or the
    matrix is singular to working precision.

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
    the 1-norm condition estimate of the equilibrated condensed matrix.  It
    holds no pivots: ``pdwg.harness.case_pivots`` reads them from a factor
    of its own.
    """

    u0: np.ndarray
    un: np.ndarray
    lam: np.ndarray
    residual_inf: float
    condition: float = math.nan

    @property
    def primal(self) -> np.ndarray:
        return join_primal(self.u0, self.un)


@dataclass(frozen=True)
class SparseSolve:
    """A refined solve x of M x = b and its residual ||M x - b||_inf."""

    x: np.ndarray
    residual_inf: float


def pivot_report(lu) -> PivotReport:
    """Smallest and largest |U_ii| of a SuperLU factor, such as the ``lu`` of
    a CondensedFactor: the pivots of its equilibrated condensed matrix.

    Reading lu.U makes SuperLU build CSC copies of L and U, which it keeps
    for as long as lu lives.  So ask once nothing else of the factor is
    held: keep its ``lu``, drop the CondensedFactor, then read the pivots.
    """
    diag = np.abs(lu.U.diagonal())
    return PivotReport(min_pivot=float(diag.min()), max_pivot=float(diag.max()))


def _backward_error(residual: float, norm_A: float, x: np.ndarray, b: np.ndarray) -> float:
    """Backward error residual / (norm_A ||x||_inf + ||b||_inf) of a solve x of
    A x = b, from residual = ||A x - b||_inf and norm_A = ||A||_inf; 0 for a
    zero residual.  SingularSystem unless it is <= BERR_MAX, so also if nan."""
    if residual == 0.0:
        return 0.0
    berr = residual / (norm_A * float(np.abs(x).max()) + float(np.abs(b).max()))
    if not berr <= BERR_MAX:
        raise SingularSystem(
            f"backward error {berr:.3e} of a solve with the factor exceeds {BERR_MAX:.0e}"
            if math.isfinite(berr) else f"the solve is not finite (backward error {berr})")
    return berr


def _condition_estimate(lu, K, norm_1: float, norm_inf: float) -> float:
    """kappa_1(K) = ||K||_1 * est ||K^-1||_1 from three solves with lu, the factor of K.

    Hager's estimate: x = K^-1 (1/n), z = K^-T sign(x), y = K^-1 e_j with
    j = argmax |z|, and est ||K^-1||_1 = max(||x||_1, ||y||_1), a lower
    bound that is rarely off by more than a small factor.  norm_1 and
    norm_inf are those of K.  Raises SingularSystem when a solve with K or
    K^T fails ``_backward_error``: the factor broke down, as one without
    pivoting does on two named meshes (DIAG_PIVOT_THRESH).
    """
    def solve(b: np.ndarray, trans: str = "N") -> np.ndarray:
        x = lu.solve(b, trans=trans)
        A, norm = (K, norm_inf) if trans == "N" else (K.T, norm_1)
        _backward_error(float(np.abs(A @ x - b).max()), norm, x, b)
        return x

    n = K.shape[0]
    x = solve(np.full(n, 1.0 / n))
    z = solve(np.where(x >= 0.0, 1.0, -1.0), trans="T")
    e = np.zeros(n)
    e[np.argmax(np.abs(z))] = 1.0
    y = solve(e)
    return norm_1 * max(float(np.abs(x).sum()), float(np.abs(y).sum()))


def _refine(M, norm_M: float, b: np.ndarray, solve) -> tuple[np.ndarray, float]:
    """x and ||M x - b||_inf for M x = b, from ``solve`` refined against M
    until the residual is <= REFINE_RTOL * max(1, ||b||_inf) or for at most
    MAX_REFINE passes; SingularSystem when x fails ``_backward_error``
    with norm_M = ||M||_inf."""
    x = solve(b)
    scale = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    residual = float(np.abs(M @ x - b).max()) if b.size else 0.0
    passes = 0
    while residual > REFINE_RTOL * scale and passes < MAX_REFINE:
        x = x + solve(b - M @ x)
        residual = float(np.abs(M @ x - b).max())
        passes += 1
    _backward_error(residual, norm_M, x, b)
    return x, residual


def _equilibration(K) -> tuple[sp.csc_matrix, np.ndarray, float, float]:
    """K in CSC, its symmetric scaling s = 1 / sqrt(max_j |K_ij|), and the 1-
    and inf-norms of diag(s) K diag(s), its column and row sums of
    |K_ij| s_i s_j.

    K is converted to CSC unless it is CSC already; a caller that passes a
    CSC K holds one copy of it.  |K| shares K's index arrays.  The row
    maxima are reduced over each row's stored entries, in any order, since
    a maximum is exact: the bits of ``abs(K).max(axis=1)``; a row without
    stored entries, or with only zeros, is a zero row.  The sums run over
    the CSC arrays, which list each column by increasing row, and so add
    the terms of each column sum by increasing row and of each row sum by
    increasing column: the bits of ``abs(K).T @ s`` and ``abs(K) @ s`` for
    K with sorted indices.
    """
    K = K.tocsc()
    abs_K = sp.csc_matrix((np.abs(K.data), K.indices, K.indptr), shape=K.shape)
    row_max = np.zeros(K.shape[0])
    np.maximum.at(row_max, K.indices, abs_K.data)
    if not np.all(row_max > 0.0):
        raise SingularSystem("the condensed matrix has a zero row")
    s = 1.0 / np.sqrt(row_max)
    return K, s, float((s * (abs_K.T @ s)).max()), float((s * (abs_K @ s)).max())


class CondensedFactor:
    """Gated factor of M with the unknowns ``flux`` eliminated (see module doc).

    M must be exactly symmetric, as the saddle matrices are.  ``flux`` is a
    run of consecutive indices, as the free flux unknowns of a saddle matrix
    are, and their block of M is diagonal (stored zeros off the diagonal
    are allowed) and positive; otherwise ValueError, since the condensation
    is exact only for such a block.  Built once per matrix; ``solve`` then
    takes any number of right-hand sides.  ``condition`` is the 1-norm
    condition estimate of the equilibrated condensed matrix.  Raises
    SingularSystem when SuperLU fails, the factor breaks down, or the
    condition estimate is above COND_MAX or not finite.

    K is formed as ``M_kk - (M_kq @ diags(1 / d)) @ M_qk`` and kept so:
    scipy's product sums each entry of the product over q in descending
    order, and an M_kq scaled by 1 / d in its data, the same product in
    exact arithmetic, sums it otherwise and changes K's bits (case1 at
    n = 3).  Each step from M to SuperLU's input holds one copy of each
    matrix: the rows of M, M_kk and the product are freed before K is
    converted to CSC, and the CSR K once it is.
    """

    def __init__(self, M, flux: np.ndarray):
        self.M = M = M.tocsr()
        self.norm_M = float((sp.csr_matrix((np.abs(M.data), M.indices, M.indptr), shape=M.shape)
                             @ np.ones(M.shape[1])).max())  # ||M||_inf; |M| shares M's indices
        self.flux = flux = np.asarray(flux)
        f0, f1 = (int(flux[0]), int(flux[-1]) + 1) if len(flux) else (0, 0)
        if not np.array_equal(flux, np.arange(f0, f0 + len(flux))):
            raise ValueError("the flux unknowns must be consecutive")
        block = M[f0:f1, f0:f1]
        d = block.diagonal()
        if block.count_nonzero() > np.count_nonzero(d):
            raise ValueError("the free-flux block is not diagonal")
        if not np.all(d > 0.0):
            raise ValueError("the free-flux block has a diagonal entry <= 0")
        self.inv_d = 1.0 / d
        self.keep = np.concatenate([np.arange(f0), np.arange(f1, M.shape[0])])
        rows = M[self.keep]
        self.M_kq = rows[:, f0:f1]
        M_kk = rows[:, self.keep]
        del rows
        self.M_qk = self.M_kq.T  # M is exactly symmetric
        K = M_kk - (self.M_kq @ sp.diags(self.inv_d)) @ self.M_qk  # frees the product
        del M_kk
        K = K.tocsc()  # frees the CSR K: one copy of K from here on

        K, self.s, norm_1, norm_inf = _equilibration(K)
        # diag(s) K diag(s) entry by entry: first s of the row, then s of the column
        K.data *= self.s[K.indices]
        K.data *= np.repeat(self.s, np.diff(K.indptr))
        try:
            self.lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularSystem(str(exc)) from exc
        self.condition = _condition_estimate(self.lu, K, norm_1, norm_inf)
        if not self.condition <= COND_MAX:
            raise SingularSystem(
                f"condition estimate {self.condition:.3e} of the equilibrated "
                f"condensed matrix exceeds {COND_MAX:.1e}"
            )

    def _apply_inverse(self, r: np.ndarray) -> np.ndarray:
        keep, flux, inv_d, s = self.keep, self.flux, self.inv_d, self.s
        x = np.empty_like(r)
        x[keep] = s * self.lu.solve(s * (r[keep] - self.M_kq @ (inv_d * r[flux])))
        x[flux] = inv_d * (r[flux] - self.M_qk @ x[keep])
        return x

    def solve(self, b: np.ndarray) -> SparseSolve:
        """Solve M x = b with iterative refinement against M; SingularSystem
        when its backward error exceeds BERR_MAX or is not finite."""
        x, residual = _refine(self.M, self.norm_M, np.asarray(b, dtype=float),
                              self._apply_inverse)
        return SparseSolve(x=x, residual_inf=residual)


def solve_sparse(M, b: np.ndarray) -> SparseSolve:
    """Solve M x = b with a ``CondensedFactor`` of M that eliminates nothing.

    M must be exactly symmetric.  No pdwg code calls this; it stays only
    because perfbench/tracing.py hooks it by name, and a traced name that
    no longer exists fails there.  Raises SingularSystem as the factor and
    its ``solve`` do.
    """
    return CondensedFactor(M, np.arange(0)).solve(b)


def saddle_factor(system: SystemMatrix) -> CondensedFactor:
    """Condensed factor of a case's saddle matrix, its free flux unknowns
    (``SystemMatrix.free_flux``) eliminated."""
    return CondensedFactor(system.M, system.free_flux)


def factor_and_solve(system: SaddleSystem, factor: CondensedFactor | None = None) -> Solution:
    """Solve the assembled saddle-point system and scatter back to fields.

    ``factor`` is the saddle_factor of system's matrix; when it is not
    given, one is built here for this one solve.  The Solution carries no
    pivots: ``pdwg.harness.case_pivots`` reads them from a factor of its
    own.
    """
    if factor is None:
        factor = saddle_factor(system)
    nf = system.n_free
    solved = factor.solve(system.rhs)
    z = system.g.copy()
    z[system.free] = solved.x[:nf]
    lam = solved.x[nf:]
    u0, un = split_primal(system.mesh, z)
    return Solution(
        u0=u0,
        un=un,
        lam=lam,
        residual_inf=solved.residual_inf,
        condition=factor.condition,
    )
