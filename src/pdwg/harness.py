"""Convergence studies, rate computation, table emission, noise studies.

CSV is the canonical output; the markdown rendering of benchmark-style
tables is a formatting layer on top.  Observed orders use log2 of the
error ratio under mesh halving; reruns with the same inputs are
byte-identical.  Within one call, every problem and noise amplitude on a
(case, n) is solved against one ``Discretization`` and its single factor.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdwg.assembly import assemble_matrix, assemble_rhs
from pdwg.linsolve import (
    CondensedFactor,
    Solution,
    SingularSystem,
    factor_and_solve,
    saddle_factor,
)
from pdwg.mesh import build_uniform_unit_square, classify_boundary
from pdwg.norms import ErrorReport, ExactProjection, error_norms, project_exact
from pdwg.polyspace import DEFAULT_EDGE_POINTS, DEFAULT_TRI_DEGREE
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


def compute_order(coarse_err: float, fine_err: float):
    """Observed order log2(coarse/fine); None when undefined."""
    if coarse_err is None or fine_err is None:
        return None
    if coarse_err <= 0.0 or fine_err <= 0.0:
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
    """Nodal and per-element fields of one solve for plotting."""

    nodes: np.ndarray      # (V+E, 2)
    u0: np.ndarray         # (V+E,)
    err: np.ndarray        # (V+E,) u0 - u(x, y)
    centroids: np.ndarray  # (T, 2)
    lam: np.ndarray        # (T,)

    def nodes_csv(self) -> str:
        out = io.StringIO()
        out.write("x,y,u0,err\n")
        for (x, y), u, e in zip(self.nodes.tolist(), self.u0, self.err):
            out.write(f"{x!r},{y!r},{u:.12e},{e:.12e}\n")
        return out.getvalue()

    def elements_csv(self) -> str:
        out = io.StringIO()
        out.write("cx,cy,lambda\n")
        for (x, y), l in zip(self.centroids.tolist(), self.lam):
            out.write(f"{x!r},{y!r},{l:.12e}\n")
        return out.getvalue()


class Discretization:
    """Mesh, boundary tags, matrix part and condensed factor of one (case, n).

    The saddle matrix depends only on these, so ``solve`` assembles just
    the right-hand side of a problem and noise amplitude and reuses the one
    factor.  The factor is built by the first ``solve``, so work done
    before it, such as the exact projection, does not add to the memory the
    factor holds; setting ``factor`` to None frees it, and the next
    ``solve`` factors again.  A SingularSystem raised while factoring is
    raised again by every ``solve``.
    """

    def __init__(
        self,
        case_name: str,
        n: int,
        tri_degree: int = DEFAULT_TRI_DEGREE,
        edge_points: int = DEFAULT_EDGE_POINTS,
    ):
        self.tri_degree = tri_degree
        self.edge_points = edge_points
        self.mesh = build_uniform_unit_square(n)
        self.tags = classify_boundary(self.mesh, list(get_case(case_name).segments))
        self.matrix = assemble_matrix(self.mesh, self.tags)
        self.factor: CondensedFactor | None = None
        self.error: SingularSystem | None = None

    def project(self, problem: ManufacturedSolution) -> ExactProjection:
        return project_exact(problem, self.mesh, self.tri_degree, self.edge_points)

    def solve(self, problem: ManufacturedSolution, noise: NoiseSpec | None = None) -> Solution:
        if self.factor is None and self.error is None:
            try:
                self.factor = saddle_factor(self.matrix)
            except SingularSystem as exc:
                self.error = exc
        if self.error is not None:
            raise self.error
        system = assemble_rhs(self.matrix, problem, self.tri_degree, self.edge_points, noise)
        return factor_and_solve(system, self.factor)

    def measure(self, problem: ManufacturedSolution, solution: Solution,
                qhu: ExactProjection) -> tuple[ErrorReport, FieldSnapshot]:
        """Error norms against the projection ``qhu`` and the field snapshot."""
        report = error_norms(solution, qhu, self.mesh, self.tags,
                             self.tri_degree, self.edge_points)
        coords = self.mesh.p2_node_coords
        snapshot = FieldSnapshot(
            nodes=coords,
            u0=solution.u0,
            err=solution.u0 - problem.u(coords[:, 0], coords[:, 1]),
            centroids=self.mesh.centroids,
            lam=solution.lam,
        )
        return report, snapshot


def solve_single(
    problem_name: str,
    case_name: str,
    n: int,
    tri_degree: int = DEFAULT_TRI_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
    noise: NoiseSpec | None = None,
):
    """One assemble/solve/measure pass; returns (solution, report, snapshot)."""
    problem = get_problem(problem_name)
    disc = Discretization(case_name, n, tri_degree, edge_points)
    solution = disc.solve(problem, noise)
    disc.factor = None  # the only solve: free the factor and its cached L and U
    return (solution, *disc.measure(problem, solution, disc.project(problem)))


def _convergence_tables(
    problem_names: list[str],
    case_name: str,
    n_list: list[int],
    tri_degree: int,
    edge_points: int,
) -> dict[str, ConvergenceTable]:
    """One table per problem on one case, all sharing one factor per mesh.

    Solver failures are recorded and the run continues.
    """
    tables = {p: ConvergenceTable(problem=p, case=case_name) for p in problem_names}
    problems = {p: get_problem(p) for p in problem_names}
    for n in n_list:
        disc = Discretization(case_name, n, tri_degree, edge_points)
        for name, table in tables.items():
            problem = problems[name]
            qhu = disc.project(problem)
            try:
                solution = disc.solve(problem)
                report, _ = disc.measure(problem, solution, qhu)
                table.rows.append(ConvergenceRow(n=n, report=report))
            except SingularSystem as exc:
                table.rows.append(ConvergenceRow(n=n, report=None, error=str(exc)))
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
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> ConvergenceTable:
    """One solve per mesh; solver failures are recorded and the run continues."""
    return _convergence_tables([problem_name], case_name, n_list,
                               tri_degree, edge_points)[problem_name]


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
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> NoiseStudy:
    """Solve once per amplitude against one factor, with the same seed.

    Amplitude 0 reproduces the unperturbed solve bit-exactly.
    """
    study = NoiseStudy(problem=problem_name, case=case_name, n=n, seed=seed)
    problem = get_problem(problem_name)
    disc = Discretization(case_name, n, tri_degree, edge_points)
    qhu = disc.project(problem)
    for a in amplitudes:
        try:
            solution = disc.solve(problem, NoiseSpec(amplitude=a, seed=seed))
            report, snapshot = disc.measure(problem, solution, qhu)
            study.rows.append(NoiseStudyRow(amplitude=a, report=report, snapshot=snapshot))
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
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> list[Path]:
    """Regenerate every benchmark table layout as CSV plus markdown.

    The tables are computed case by case, so every problem on a case shares
    one factor per mesh.
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
    tables = {
        (p, case): table
        for case, problems in problems_by_case.items()
        for p, table in _convergence_tables(
            problems, case, n_list, tri_degree, edge_points).items()
    }

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
