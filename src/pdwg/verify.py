"""Executable checks of the scheme's algebraic identities.

Covered: the projection/weak-Laplacian commutation, the multiplier
inf-sup construction and its identity, the post-solve error equations,
system symmetry/positive-semidefiniteness, exactness on quadratics, and
factorization pivots for the well-posed mixed configuration.  Constants
hidden behind the theory's mesh-independence statements are reported
empirically, never asserted against fixed values from the analysis.
The error equation takes both s terms from the operator whose Gram matrix
is S, the weighted mismatch map Gs (``pdwg.assembly.mismatch_operator``):
Gs^T applied to sqrt(w) times an element-local mismatch.  s is bilinear,
so a wrong Q_h u shows in the constraint identity, and a matrix without s
in the first.
As the studies do, ``run_standard_checks`` makes one matrix and at most one
factor per (case, n) and one ``harness.Reference`` per (problem, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pdwg.assembly import (SystemMatrix, assemble_matrix, assemble_rhs, element_load,
                           join_primal, mismatch_operator, stabilizer_weights)
from pdwg.harness import Reference, case_matrix, case_pivots
from pdwg.linsolve import CondensedFactor, Solution, saddle_factor
from pdwg.mesh import BoundaryTags, Mesh, build_uniform_unit_square
from pdwg.norms import (
    ExactProjection,
    build_error_field,
    lambda_jump,
    lambda_norm,
    norms_of_error,
)
from pdwg.problems import ManufacturedSolution, get_problem
from pdwg.weak_laplacian import discrete_weak_laplacian, projected_weak_function

VERIFY_SEED = 20240801


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name}: value={self.value:.3e} tol={self.tolerance:.1e}{extra}"


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name, value, tolerance, note=""):
        self.checks.append(
            Check(name=name, value=float(value), tolerance=float(tolerance),
                  passed=bool(value <= tolerance), note=note)
        )

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def check_commutative(
    mesh: Mesh,
    theta: ManufacturedSolution,
    tri_degree: int = 8,
) -> float:
    """Max over elements of ||weak_lap(Q_h theta) - Q_0(lap theta)||_T.

    Both sides are built independently: the left as the weak Laplacian of
    the projected fluxes Qn(grad theta . n_e) on the 6-point edge rule, the
    right as the mean of f = lap theta by direct triangle quadrature.  Both
    are constant per element, so the L2(T) norm is |difference| * sqrt(|T|).
    """
    lhs = discrete_weak_laplacian(mesh, projected_weak_function(theta.grad_u, mesh, 6))
    f_mean = element_load(mesh, theta.f, tri_degree) / mesh.area
    return float(np.max(np.abs(lhs - f_mean) * np.sqrt(mesh.area)))


def build_vstar(lam: np.ndarray, mesh: Mesh, tags: BoundaryTags) -> np.ndarray:
    """The inf-sup witness as a full primal dof vector in V_h^0.

    For the k=2 scheme the element and trace parts vanish; the flux part is
    the constant h_e * [lam] on every edge off Gamma_n (zero there), stored
    with respect to the global edge normal.
    """
    un = np.zeros((mesh.num_edges, 2))
    un[:, 0] = np.where(~tags.neumann, mesh.h_e * lambda_jump(lam, mesh), 0.0)
    return join_primal(np.zeros(mesh.num_vertices + mesh.num_edges), un)


def check_infsup(
    mesh: Mesh,
    tags: BoundaryTags,
    n_samples: int = 20,
    seed: int = VERIFY_SEED,
    system: SystemMatrix | None = None,
) -> dict:
    """Identity (weak_lap v*, lam) = ||lam||_0h^2 plus the norm-ratio report.

    Random multipliers are uniform in [-1, 1] per element.  Returns the max
    relative identity discrepancy and the ratios ||v*||_2h^2 / ||lam||_0h^2
    (the empirical inf-sup constant; bounded, never pinned to a number).
    ``system`` reads the S and B of (mesh, tags); assembled here when not
    given.
    """
    if system is None:
        system = assemble_matrix(mesh, tags)
    rng = np.random.Generator(np.random.PCG64(seed))
    S, B = system.S, system.B
    max_rel = 0.0
    ratios = []
    for _ in range(n_samples):
        lam = rng.uniform(-1.0, 1.0, mesh.num_triangles)
        v = build_vstar(lam, mesh, tags)
        lhs = float(lam @ (B @ v))
        norm_sq = lambda_norm(lam, mesh, tags) ** 2
        if norm_sq == 0.0:
            continue
        max_rel = max(max_rel, abs(lhs - norm_sq) / norm_sq)
        ratios.append(float(v @ (S @ v)) / norm_sq)
    return {"max_rel_discrepancy": max_rel, "ratios": ratios}


def check_error_equations(
    solution: Solution, qhu: ExactProjection, system: SystemMatrix
) -> tuple[float, float]:
    """Residuals of the two post-solve error identities.

    First: max over free test directions v of s(e_h, v) + (weak_lap v, lam)
    + s(Q_h u, v), the s terms Gs^T sqrt(w) times the element-local mismatch
    of (u_h - Q0 u, u_n - Qn) and of (Q0 u, Qn), so it fails where the solved
    matrix does not carry s; second: ||B e_h||_inf, the statement that the
    error has vanishing discrete weak Laplacian.
    """
    mesh = system.mesh
    Gs, edges = mismatch_operator(mesh), mesh.tri_edges.T
    root_w = np.sqrt(stabilizer_weights(mesh))

    def s_against_basis(v0, vn):  # v: (T, 6) element P2 values, (E, 2) edge fluxes
        mismatch = np.einsum("ltci,ti->ltc", qhu.normal_maps, v0) - vn[edges]
        return Gs.T @ (root_w * mismatch).ravel()

    en = solution.un - qhu.qn
    res = (s_against_basis(solution.u0[qhu.p2_dofs] - qhu.q0, en)
           + system.B.T @ solution.lam + s_against_basis(qhu.q0, qhu.qn))
    sehv = float(np.abs(res[system.free]).max())

    sehv2 = float(np.abs(system.B @ join_primal(np.zeros_like(solution.u0), en)).max())
    return sehv, sehv2


def quadratic_consistency_residual(matrix: SystemMatrix, ref: Reference) -> float:
    """Residual of the interpolant of a quadratic solution in the system.

    For quadratic u (``ref.problem``) the projected field and exact fluxes
    satisfy the equations assembled on ``matrix`` with multiplier zero.
    """
    problem, mesh = ref.problem, matrix.mesh
    system = assemble_rhs(matrix, problem, ref.tri_degree, load=ref.load)
    coords = mesh.p2_node_coords
    q = join_primal(problem.u(coords[:, 0], coords[:, 1]), ref.projection.qn)
    x = np.concatenate([q[system.free], np.zeros(mesh.num_triangles)])
    return float(np.abs(system.M @ x - system.rhs).max())


def _p2_basis_problems() -> list[ManufacturedSolution]:
    mk = ManufacturedSolution
    z = lambda x, y: 0.0 * x
    return [
        mk("one", lambda x, y: 1.0 + 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y), z),
        mk("x", lambda x, y: x, lambda x, y: (1.0 + 0.0 * x, 0.0 * y), z),
        mk("y", lambda x, y: y, lambda x, y: (0.0 * x, 1.0 + 0.0 * y), z),
        mk("x2", lambda x, y: x**2, lambda x, y: (2.0 * x, 0.0 * y),
           lambda x, y: 2.0 + 0.0 * x),
        mk("xy", lambda x, y: x * y, lambda x, y: (y, x), z),
        mk("y2", lambda x, y: y**2, lambda x, y: (0.0 * x, 2.0 * y),
           lambda x, y: 2.0 + 0.0 * x),
        get_problem("quad"),
    ]


def coercivity_ratio(ref: Reference, matrix: SystemMatrix, factor: CondensedFactor) -> float:
    """Empirical constant in sum_T ||lap e0||^2 <= C s(e_h, e_h) after a solve."""
    mesh = ref.mesh
    fieldv = build_error_field(ref.solve(matrix, factor), ref.projection, mesh)
    lap_sq = float(np.sum(mesh.area * fieldv.lap_e0**2))
    rep = norms_of_error(fieldv, mesh, matrix.tags, ref.tri_degree)
    s_ee = rep.h2**2 - lap_sq
    return lap_sq / s_ee if s_ee > 0 else np.inf


def run_standard_checks(seed: int = VERIFY_SEED) -> VerificationReport:
    """The full identity suite run by the `verify` CLI subcommand.

    One matrix per (case, n) and one Reference per (problem, n) serve
    every check on them: case1 at n=4 gives the quad error equations,
    symmetry, positive-semidefiniteness, quadratic consistency and a
    coercivity ratio from one matrix and one factor.  Each mesh's saddle
    matrix W, normal-derivative maps, P2 geometry and triangle-rule points
    are built once, for case1 and the projections, and case2 on n = 8, 16,
    32 is cut from the same W.  Each factor is a local,
    deleted after its last use.  The case2 pivots run last
    (``harness.case_pivots``), each read from the factor's SuperLU object
    alone, once everything else of its mesh and of the factor is freed:
    reading U makes SuperLU keep copies of L and U, and the one at n=32
    sets the peak memory of the run.
    """
    meshes = {n: build_uniform_unit_square(n) for n in (1, 2, 4, 8, 16, 32)}

    worst = 0.0
    for n in (1, 2, 4):
        for theta in _p2_basis_problems():
            worst = max(worst, check_commutative(meshes[n], theta))
    commutative_sinsin = check_commutative(meshes[4], get_problem("sinsin"), tri_degree=8)

    case1 = {n: case_matrix("case1", meshes[n]) for n in (2, 4, 8, 16, 32)}
    worst_rel = 0.0
    ratios = []
    for n in (2, 4, 8, 16):
        matrix = case1[n]
        out = check_infsup(matrix.mesh, matrix.tags, n_samples=20, seed=seed, system=matrix)
        if n <= 8:
            worst_rel = max(worst_rel, out["max_rel_discrepancy"])
        ratios.extend(out["ratios"])

    system, quad = case1[4], Reference(get_problem("quad"), meshes[4])
    factor4 = saddle_factor(system)
    sehv, sehv2 = check_error_equations(quad.solve(system, factor4), quad.projection, system)
    sinsin = {n: Reference(get_problem("sinsin"), meshes[n]) for n in (4, 8, 16, 32)}
    factor8 = saddle_factor(case1[8])
    _, sehv2_s = check_error_equations(sinsin[8].solve(case1[8], factor8),
                                       sinsin[8].projection, case1[8])
    asym = float(np.abs(system.M - system.M.T).max())
    rng = np.random.Generator(np.random.PCG64(seed))
    S = system.S
    vs = rng.standard_normal((100, S.shape[0]))
    psd_min = float(min(v @ (S @ v) for v in vs))
    consistency = quadratic_consistency_residual(system, quad)

    cs = [coercivity_ratio(sinsin[4], system, factor4),
          coercivity_ratio(sinsin[8], case1[8], factor8)]
    del factor4, factor8  # their last use
    cs += [coercivity_ratio(sinsin[n], case1[n], saddle_factor(case1[n])) for n in (16, 32)]
    del case1, matrix, quad, sinsin, system  # not held through the pivots
    pivots = [case_pivots("case2", meshes[n]) for n in (8, 16, 32)]
    worst_pivot = max(1e-12 * p.max_pivot / p.min_pivot for p in pivots)

    report = VerificationReport()
    report.add("commutative_quadratic", worst, 1e-12, "theta in P2, n in {1,2,4}")
    report.add("commutative_sinsin", commutative_sinsin, 1e-10, "n=4, degree-8 quadrature")
    report.add("infsup_identity", worst_rel, 1e-12, "20 draws, n in {2,4,8}")
    spread = max(ratios) / min(ratios)
    report.add(
        "infsup_ratio_spread",
        spread,
        4.0,
        f"|v*|^2_2h / |lam|^2_0h in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )
    report.add("error_equation_multiplier", sehv, 1e-9, "quad/case1, n=4")
    report.add("error_equation_constraint", sehv2, 1e-10, "quad/case1, n=4")
    report.add("error_equation_constraint_smooth", sehv2_s, 1e-8, "sinsin/case1, n=8")
    report.add("system_symmetry", asym, 1e-14, "case1, n=4")
    report.add("stabilizer_psd", max(0.0, -psd_min), 1e-12, "min v^T S v over 100 draws")
    report.add("quadratic_consistency", consistency, 1e-10,
               "interpolated quadratic solves the system")
    report.add("mixed_case_pivots", worst_pivot, 1.0,
               "min pivot >= 1e-12 * scale for case2, n <= 32")
    report.add("coercivity_ratio", max(cs), 4.0,
               f"sum|lap e0|^2 / s(e,e) in [{min(cs):.3f}, {max(cs):.3f}]")
    return report
