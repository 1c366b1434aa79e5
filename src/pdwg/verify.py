"""Executable checks of the scheme's algebraic identities.

Covered: the projection/weak-Laplacian commutation, the multiplier
inf-sup construction and its identity, the post-solve error equations,
system symmetry/positive-semidefiniteness, exactness on quadratics, and
factorization pivots for the well-posed mixed configuration.  Constants
hidden behind the theory's mesh-independence statements are reported
empirically, never asserted against fixed values from the analysis.
The checks build their systems, factors and solutions as the studies do:
``run_standard_checks`` makes one ``harness.Discretization`` per (case, n)
and one ``harness.Reference`` per (problem, n), so a factor is built once
and serves every check on its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pdwg.assembly import SystemMatrix, assemble_matrix, assemble_rhs, element_load
from pdwg.harness import Discretization, Reference
from pdwg.linsolve import Solution, saddle_factor
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
    edge_points: int = 6,
) -> float:
    """Max over elements of ||weak_lap(Q_h theta) - Q_0(lap theta)||_T.

    Both sides are built independently: the left as the weak Laplacian of
    the projected fluxes Qn(grad theta . n_e), the right as the mean of
    f = lap theta by direct triangle quadrature.  Both are constant per
    element, so the L2(T) norm is |difference| * sqrt(|T|).
    """
    lhs = discrete_weak_laplacian(mesh, projected_weak_function(theta.grad_u, mesh, edge_points))
    f_mean = element_load(mesh, theta.f, tri_degree) / mesh.area
    return float(np.max(np.abs(lhs - f_mean) * np.sqrt(mesh.area)))


def build_vstar(lam: np.ndarray, mesh: Mesh, tags: BoundaryTags) -> np.ndarray:
    """The inf-sup witness as a full primal dof vector in V_h^0.

    For the k=2 scheme the element and trace parts vanish; the flux part is
    the constant h_e * [lam] on every edge off Gamma_n (zero there), stored
    with respect to the global edge normal.
    """
    n_u = mesh.num_vertices + mesh.num_edges
    v = np.zeros(n_u + 2 * mesh.num_edges)
    J = lambda_jump(lam, mesh)
    include = ~tags.neumann
    v[n_u : n_u + 2 * mesh.num_edges : 2] = np.where(include, mesh.h_e * J, 0.0)
    return v


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
    ``system`` holds the S and B of (mesh, tags); assembled here when not
    given.
    """
    if system is None:
        system = assemble_matrix(mesh, tags)
    rng = np.random.Generator(np.random.PCG64(seed))
    max_rel = 0.0
    ratios = []
    for _ in range(n_samples):
        lam = rng.uniform(-1.0, 1.0, mesh.num_triangles)
        v = build_vstar(lam, mesh, tags)
        lhs = float(lam @ (system.B @ v))
        norm_sq = lambda_norm(lam, mesh, tags) ** 2
        if norm_sq == 0.0:
            continue
        max_rel = max(max_rel, abs(lhs - norm_sq) / norm_sq)
        ratios.append(float(v @ (system.S @ v)) / norm_sq)
    return {"max_rel_discrepancy": max_rel, "ratios": ratios}


def projection_stabilizer_load(qhu: ExactProjection, mesh: Mesh) -> np.ndarray:
    """Vector g with g_i = s(Q_h u, phi_i) against the C0 primal basis.

    Only the h^-1 normal-derivative mismatch of Q_h u survives against C0
    test functions.
    """
    n_u = mesh.num_vertices + mesh.num_edges
    g = np.zeros(n_u + 2 * mesh.num_edges)
    for l in range(3):
        e = mesh.tri_edges[:, l]
        G = qhu.normal_maps[l]
        mu = np.einsum("tci,ti->tc", G, qhu.q0) - qhu.qn[e]
        h_e = mesh.h_e[e]
        w0 = h_e / mesh.h_t * mu[:, 0]
        w1 = h_e / (12.0 * mesh.h_t) * mu[:, 1]
        np.add.at(g, qhu.p2_dofs, G[:, 0, :] * w0[:, None] + G[:, 1, :] * w1[:, None])
        np.add.at(g, n_u + 2 * e, -w0)
        np.add.at(g, n_u + 2 * e + 1, -w1)
    return g


def check_error_equations(
    solution: Solution, qhu: ExactProjection, system: SystemMatrix
) -> tuple[float, float]:
    """Residuals of the two post-solve error identities.

    First: max over free test directions of s(e_h, v) + (weak_lap v, lam)
    + s(Q_h u, v); second: ||B e_h||_inf, the statement that the error has
    vanishing discrete weak Laplacian.
    """
    mesh, dofmap = system.mesh, system.dofmap
    z = solution.primal
    g = projection_stabilizer_load(qhu, mesh)
    term_e = system.S @ z - g
    term_lam = system.B.T @ solution.lam
    res = term_e + term_lam + g
    sehv = float(np.abs(res[dofmap.free]).max())

    e_vec = np.zeros(dofmap.n_primal)
    e_vec[dofmap.n_u :] = (solution.un - qhu.qn).ravel()
    sehv2 = float(np.abs(system.B @ e_vec).max())
    return sehv, sehv2


def quadratic_consistency_residual(disc: Discretization, ref: Reference) -> float:
    """Residual of the interpolant of a quadratic solution in the system.

    For quadratic u (``ref.problem``) the projected field and exact fluxes
    satisfy the assembled equations with multiplier zero.
    """
    problem, mesh = ref.problem, disc.mesh
    system = assemble_rhs(disc.matrix, problem, ref.tri_degree, load=ref.load)
    coords = mesh.p2_node_coords
    q = np.concatenate([problem.u(coords[:, 0], coords[:, 1]), ref.projection.qn.ravel()])
    x = np.concatenate([q[system.dofmap.free], np.zeros(mesh.num_triangles)])
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


def coercivity_ratio(disc: Discretization, ref: Reference) -> float:
    """Empirical constant in sum_T ||lap e0||^2 <= C s(e_h, e_h) after a solve."""
    mesh = disc.mesh
    fieldv = build_error_field(disc.solve(ref), ref.projection, mesh)
    lap_sq = float(np.sum(mesh.area * fieldv.lap_e0**2))
    rep = norms_of_error(fieldv, mesh, disc.tags, ref.tri_degree)
    s_ee = rep.h2**2 - lap_sq
    return lap_sq / s_ee if s_ee > 0 else np.inf


def run_standard_checks(seed: int = VERIFY_SEED) -> VerificationReport:
    """The full identity suite run by the `verify` CLI subcommand.

    One Discretization per (case, n) and one Reference per (problem, n)
    serve every check on them: case1 at n=4 gives the quad error
    equations, symmetry, positive-semidefiniteness, quadratic consistency
    and a coercivity ratio from one matrix and one factor.  Each factor is
    freed after its last use.  The case2 pivots run first, while nothing
    else is held: reading U makes a factor keep copies of L and U, and
    the one at n=32 sets the peak memory of the run.
    """
    meshes = {n: build_uniform_unit_square(n) for n in (1, 2, 4, 8, 16, 32)}

    worst_pivot = 0.0
    for n in (8, 16, 32):
        pr = saddle_factor(Discretization("case2", meshes[n]).matrix).pivot_report()
        worst_pivot = max(worst_pivot, 1e-12 * pr.max_pivot / pr.min_pivot)

    worst = 0.0
    for n in (1, 2, 4):
        for theta in _p2_basis_problems():
            worst = max(worst, check_commutative(meshes[n], theta))
    commutative_sinsin = check_commutative(meshes[4], get_problem("sinsin"), tri_degree=8)

    case1 = {n: Discretization("case1", meshes[n]) for n in (2, 4, 8, 16, 32)}
    worst_rel = 0.0
    ratios = []
    for n in (2, 4, 8, 16):
        disc = case1[n]
        out = check_infsup(disc.mesh, disc.tags, n_samples=20, seed=seed, system=disc.matrix)
        if n <= 8:
            worst_rel = max(worst_rel, out["max_rel_discrepancy"])
        ratios.extend(out["ratios"])

    disc4, quad = case1[4], Reference(get_problem("quad"), meshes[4])
    sehv, sehv2 = check_error_equations(disc4.solve(quad), quad.projection, disc4.matrix)
    sinsin = {n: Reference(get_problem("sinsin"), meshes[n]) for n in (4, 8, 16, 32)}
    _, sehv2_s = check_error_equations(case1[8].solve(sinsin[8]), sinsin[8].projection,
                                       case1[8].matrix)
    system = disc4.matrix
    asym = float(np.abs(system.M - system.M.T).max())
    rng = np.random.Generator(np.random.PCG64(seed))
    vs = rng.standard_normal((100, system.S.shape[0]))
    psd_min = float(min(v @ (system.S @ v) for v in vs))
    consistency = quadratic_consistency_residual(disc4, quad)

    cs = []
    for n in (4, 8, 16, 32):
        cs.append(coercivity_ratio(case1[n], sinsin[n]))
        case1[n].factor = None  # its last use

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
