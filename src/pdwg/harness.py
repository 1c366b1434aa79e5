"""Convergence studies, rate computation, table emission, noise studies.

CSV is the canonical output; the markdown rendering of benchmark-style
tables is a formatting layer on top.  Observed orders use log2 of the
error ratio under mesh halving; reruns with the same inputs are
byte-identical.  Within one call, every problem and noise amplitude on a
(case, n) is solved against one ``Discretization`` and its single factor,
and every case and noise amplitude of a problem on a mesh shares one
``Reference``: its load, its sampled Q_h u and its snapshot columns.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from pdwg.assembly import assemble_matrix, assemble_rhs, element_load
from pdwg.linsolve import (
    CondensedFactor,
    Solution,
    SingularSystem,
    factor_and_solve,
    saddle_factor,
)
from pdwg.mesh import Mesh, build_uniform_unit_square, classify_boundary
from pdwg.norms import ErrorReport, ExactProjection, error_norms, project_exact
from pdwg.polyspace import DEFAULT_TRI_DEGREE
from pdwg.problems import (
    DEFAULT_NOISE_SEED,
    ManufacturedSolution,
    NoiseSpec,
    get_case,
    get_problem,
)

NORM_KEYS = ("h2", "l1", "l2", "h1", "linf", "w11")
CSV_HEADER = (
    "n,h,h2,l1,l2,h1,linf,w11,lambda0h,"
    "ord_h2,ord_l1,ord_l2,ord_h1,ord_linf,ord_w11"
)


# A norm at or below EXACT_NORM is roundoff, not discretization error: the
# quadratic-exactness criterion calls a solution exact there.
EXACT_NORM = 1e-8


def compute_order(coarse_err: float, fine_err: float):
    """Observed order log2(coarse/fine); None when undefined, or when both
    norms are at most EXACT_NORM, where their ratio is roundoff."""
    if coarse_err is None or fine_err is None:
        return None
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return None
    if coarse_err <= EXACT_NORM and fine_err <= EXACT_NORM:
        return None
    return math.log2(coarse_err / fine_err)


@dataclass
class ConvergenceRow:
    n: int
    report: ErrorReport | None
    error: str = ""
    orders: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass
class ConvergenceTable:
    problem: str
    case: str
    rows: list[ConvergenceRow] = field(default_factory=list)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for row in self.rows:
            cells = [str(row.n), repr(row.h)]
            if row.report is None:
                cells += [""] * 7
            else:
                d = row.report.as_dict()
                cells += [f"{d[k]:.12e}" for k in NORM_KEYS] + [f"{d['lambda0h']:.12e}"]
            for k in NORM_KEYS:
                o = row.orders.get(k)
                cells.append("" if o is None else f"{o:.4f}")
            out.write(",".join(cells) + "\n")
        return out.getvalue()


@dataclass
class FieldSnapshot:
    """Nodal and per-element fields of one solve for plotting.

    ``node_rows`` and ``element_rows`` are the CSV rows as ``row_template``
    writes them from ``nodes`` and ``centroids``; a snapshot built without
    them writes them when asked for its CSV.
    """

    nodes: np.ndarray      # (V+E, 2)
    u0: np.ndarray         # (V+E,)
    err: np.ndarray        # (V+E,) u0 - u(x, y)
    centroids: np.ndarray  # (T, 2)
    lam: np.ndarray        # (T,)
    node_rows: str | None = field(default=None, repr=False)
    element_rows: str | None = field(default=None, repr=False)

    def nodes_csv(self) -> str:
        rows = self.node_rows if self.node_rows is not None else row_template(self.nodes, 2)
        return "x,y,u0,err\n" + _fill_rows(rows, self.u0, self.err)

    def elements_csv(self) -> str:
        rows = (self.element_rows if self.element_rows is not None
                else row_template(self.centroids, 1))
        return "cx,cy,lambda\n" + _fill_rows(rows, self.lam)


def row_template(points: np.ndarray, n_values: int) -> str:
    """CSV rows ``x,y`` followed by ``n_values`` ``%.12e`` fields, per point.

    A coordinate is written as the repr of a Python float, as ``tolist``
    gives it, so ``numpy.loadtxt`` reads it back exactly; the value fields
    stay ``%.12e`` conversions for ``_fill_rows``.  No repr of a float holds
    a ``%``.  Mesh coordinates repeat, so the repr is taken once per
    distinct bit pattern (which keeps -0.0 apart from 0.0).
    """
    coords = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
    bits, inverse = np.unique(coords.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    row = "%s,%s" + ",%%.12e" * n_values + "\n"
    return (row * len(coords)) % tuple(text[inverse.ravel()].tolist())


def _fill_rows(template: str, *columns: np.ndarray) -> str:
    return template % tuple(np.column_stack(columns).ravel().tolist())


class Reference:
    """One problem on one mesh: what every solve and measurement of it shares.

    The element load, the sampled projection Q_h u and the exact columns of
    the snapshots depend on the problem, the mesh and the quadrature degree
    only, not on the boundary case, the noise or the solution.  A study
    builds one Reference per (problem, mesh), so each solve adds only its
    boundary data and the work that depends on u_h.  Every rule follows
    from ``tri_degree``: the load's and the projection's triangle rule, and
    the edge rule ``edge_points_for`` pairs with it.  The projection and
    the snapshot columns are built when first used: a study that writes no
    snapshot builds no snapshot columns, and a single solve measures after
    its factor is freed.
    """

    def __init__(
        self,
        problem: ManufacturedSolution,
        mesh: Mesh,
        tri_degree: int = DEFAULT_TRI_DEGREE,
    ):
        self.problem = problem
        self.mesh = mesh
        self.tri_degree = tri_degree
        self.load = element_load(mesh, problem.f, tri_degree)

    @cached_property
    def projection(self) -> ExactProjection:
        return project_exact(self.problem, self.mesh, self.tri_degree)

    @cached_property
    def _snapshot_columns(self):
        nodes = self.mesh.p2_node_coords
        centroids = self.mesh.centroids
        exact = self.problem.u(nodes[:, 0], nodes[:, 1])
        return nodes, exact, centroids, row_template(nodes, 2), row_template(centroids, 1)

    def snapshot(self, solution: Solution) -> FieldSnapshot:
        nodes, exact, centroids, node_rows, element_rows = self._snapshot_columns
        return FieldSnapshot(nodes=nodes, u0=solution.u0, err=solution.u0 - exact,
                             centroids=centroids, lam=solution.lam,
                             node_rows=node_rows, element_rows=element_rows)


class Discretization:
    """Boundary tags, matrix part and condensed factor of one (case, mesh).

    The saddle matrix depends only on these, so ``solve`` assembles just
    the right-hand side of a problem (a ``Reference`` on the same mesh,
    whose quadrature it uses) and noise amplitude and reuses the one
    factor.  The factor is built by the first ``solve``; setting ``factor``
    to None frees it, and the next ``solve`` factors again.  A
    SingularSystem raised while factoring is raised again by every
    ``solve``.
    """

    def __init__(self, case_name: str, mesh: Mesh):
        self.mesh = mesh
        self.tags = classify_boundary(mesh, list(get_case(case_name).segments))
        self.matrix = assemble_matrix(mesh, self.tags)
        self.factor: CondensedFactor | None = None
        self.error: SingularSystem | None = None

    def solve(self, ref: Reference, noise: NoiseSpec | None = None) -> Solution:
        if self.factor is None and self.error is None:
            try:
                self.factor = saddle_factor(self.matrix)
            except SingularSystem as exc:
                self.error = exc
        if self.error is not None:
            raise self.error
        system = assemble_rhs(self.matrix, ref.problem, ref.tri_degree, noise, load=ref.load)
        return factor_and_solve(system, self.factor)

    def measure(self, ref: Reference, solution: Solution) -> ErrorReport:
        """Error norms of ``solution`` against the problem's projection."""
        return error_norms(solution, ref.projection, self.mesh, self.tags)


def solve_single(
    problem_name: str,
    case_name: str,
    n: int,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    noise: NoiseSpec | None = None,
    pivots: bool = False,
):
    """One assemble/solve/measure pass; returns (solution, report, snapshot).

    With ``pivots`` the solution also carries its factor's pivot report.
    """
    mesh = build_uniform_unit_square(n)
    ref = Reference(get_problem(problem_name), mesh, tri_degree)
    disc = Discretization(case_name, mesh)
    solution = disc.solve(ref, noise)
    if pivots:
        solution = replace(solution, pivot_report=disc.factor.pivot_report())
    disc.factor = None  # the only solve: free the factor before measuring
    return solution, disc.measure(ref, solution), ref.snapshot(solution)


def _convergence_tables(
    problems_by_case: dict[str, list[str]],
    n_list: list[int],
    tri_degree: int,
) -> dict[tuple[str, str], ConvergenceTable]:
    """One table per (problem, case), computed mesh by mesh.

    On each mesh every problem's Reference is built once and shared by
    every case, and every problem on a case shares the case's one factor;
    both are dropped before the next mesh.  Solver failures are recorded
    and the run continues.
    """
    tables = {(p, case): ConvergenceTable(problem=p, case=case)
              for case, names in problems_by_case.items() for p in names}
    problems = {p: get_problem(p) for p, _ in tables}
    for n in n_list:
        mesh = build_uniform_unit_square(n)
        refs = {p: Reference(problem, mesh, tri_degree)
                for p, problem in problems.items()}
        for case, names in problems_by_case.items():
            disc = Discretization(case, mesh)
            for p in names:
                try:
                    report = disc.measure(refs[p], disc.solve(refs[p]))
                    tables[(p, case)].rows.append(ConvergenceRow(n=n, report=report))
                except SingularSystem as exc:
                    tables[(p, case)].rows.append(
                        ConvergenceRow(n=n, report=None, error=str(exc)))
    for table in tables.values():
        for prev, row in zip(table.rows, table.rows[1:]):
            if prev.report is None or row.report is None or row.n != 2 * prev.n:
                continue
            pd, rd = prev.report.as_dict(), row.report.as_dict()
            row.orders = {k: compute_order(pd[k], rd[k]) for k in NORM_KEYS}
    return tables


def run_convergence(
    problem_name: str,
    case_name: str,
    n_list: list[int],
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> ConvergenceTable:
    """One solve per mesh; solver failures are recorded and the run continues."""
    return _convergence_tables({case_name: [problem_name]}, n_list,
                               tri_degree)[(problem_name, case_name)]


@dataclass
class NoiseStudyRow:
    amplitude: float
    report: ErrorReport | None
    snapshot: FieldSnapshot | None
    error: str = ""


@dataclass
class NoiseStudy:
    problem: str
    case: str
    n: int
    seed: int
    rows: list[NoiseStudyRow] = field(default_factory=list)

    def summary_csv(self) -> str:
        out = io.StringIO()
        out.write("amplitude,l2,linf\n")
        for row in self.rows:
            if row.report is None:
                out.write(f"{row.amplitude!r},,\n")
            else:
                out.write(f"{row.amplitude!r},{row.report.l2:.12e},{row.report.linf:.12e}\n")
        return out.getvalue()


def run_noise_study(
    problem_name: str,
    case_name: str,
    n: int,
    amplitudes: list[float],
    seed: int = DEFAULT_NOISE_SEED,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> NoiseStudy:
    """Solve once per amplitude against one factor, with the same seed.

    Amplitude 0 reproduces the unperturbed solve bit-exactly.
    """
    study = NoiseStudy(problem=problem_name, case=case_name, n=n, seed=seed)
    mesh = build_uniform_unit_square(n)
    ref = Reference(get_problem(problem_name), mesh, tri_degree)
    disc = Discretization(case_name, mesh)
    for a in amplitudes:
        try:
            solution = disc.solve(ref, NoiseSpec(amplitude=a, seed=seed))
            study.rows.append(NoiseStudyRow(amplitude=a, report=disc.measure(ref, solution),
                                            snapshot=ref.snapshot(solution)))
        except SingularSystem as exc:
            study.rows.append(
                NoiseStudyRow(amplitude=a, report=None, snapshot=None, error=str(exc))
            )
    return study


# ---------------------------------------------------------------------------
# benchmark table plan and markdown rendering

def benchmark_table_plan() -> list[dict]:
    """The 17 reference convergence tables: id, problem, case, norm columns.

    The first entry reports all six field norms of the quadratic exactness
    check; the paired entries split the six norms into two column triplets
    per problem and case; the final entry compares the curvature-norm
    column across the three smooth solutions for the one-sided Cauchy
    configuration.
    """
    plan = [{"table": 1, "problem": "quad", "case": "case1", "columns": NORM_KEYS}]
    tid = 2
    for case in ("case1", "case2"):
        problems = ("sinsin", "coscos", "bubble")
        for p in problems:
            plan.append({"table": tid, "problem": p, "case": case,
                         "columns": ("h2", "l1", "l2")})
            plan.append({"table": tid + 1, "problem": p, "case": case,
                         "columns": ("h1", "linf", "w11")})
            tid += 2
    plan.append({"table": 14, "problem": "sinsin", "case": "case3",
                 "columns": ("h2", "l1", "l2")})
    plan.append({"table": 15, "problem": "bubble", "case": "case4",
                 "columns": ("h2", "l1", "l2")})
    plan.append({"table": 16, "problem": "bubble", "case": "case4",
                 "columns": ("h1", "linf", "w11")})
    plan.append({"table": 17, "problem": ("sinsin", "coscos", "bubble"),
                 "case": "case5", "columns": ("h2",)})
    return plan


def render_markdown(table: ConvergenceTable, columns=NORM_KEYS) -> str:
    """Benchmark-style markdown: norm and order column per requested norm."""
    head = ["1/h"]
    for k in columns:
        head += [k, "order"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for row in table.rows:
        cells = [str(row.n)]
        for k in columns:
            if row.report is None:
                cells += ["failed", ""]
                continue
            cells.append(f"{row.report.as_dict()[k]:.4e}")
            o = row.orders.get(k)
            cells.append("" if o is None else f"{o:.4f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def run_benchmark_tables(
    out_dir: Path,
    n_list: list[int] | None = None,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> list[Path]:
    """Regenerate every benchmark table layout as CSV plus markdown.

    Each (problem, case) table is computed once, mesh by mesh: every
    problem on a case shares one factor per mesh, and every case on a mesh
    shares one Reference per problem.
    """
    n_list = n_list or [1, 2, 4, 8, 16, 32]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = benchmark_table_plan()
    problems_by_case: dict[str, list[str]] = {}
    for entry in plan:
        problems = problems_by_case.setdefault(entry["case"], [])
        for p in _entry_problems(entry):
            if p not in problems:
                problems.append(p)
    tables = _convergence_tables(problems_by_case, n_list, tri_degree)

    written = []
    for entry in plan:
        md_parts = []
        for p in _entry_problems(entry):
            t = tables[(p, entry["case"])]
            csv_path = out_dir / f"{p}_{entry['case']}.csv"
            if csv_path not in written:
                csv_path.write_text(t.to_csv(), encoding="utf-8")
                written.append(csv_path)
            md_parts.append(f"**{p} / {entry['case']}**\n\n"
                            + render_markdown(t, entry["columns"]))
        md_path = out_dir / f"table{entry['table']:02d}.md"
        md_path.write_text("\n".join(md_parts), encoding="utf-8")
        written.append(md_path)
    return written


def _entry_problems(entry: dict) -> tuple[str, ...]:
    problems = entry["problem"]
    return (problems,) if isinstance(problems, str) else problems
