"""Convergence studies, rate computation, table emission, noise studies.

CSV is the canonical output; the markdown rendering of benchmark-style
tables is a formatting layer on top.  Every run of every study has one
record, ``StudyRow``, from the per-mesh loop that makes it to the one
writer, ``rows_csv``, which formats each cell of a table from its column
name (``_cell``), which the markdown order cells share.
Observed orders use log2 of the error ratio under mesh halving; reruns with
the same inputs are byte-identical.  A single solve, a noise study and a
convergence study run through one per-mesh loop (``_study``).  On each
mesh, what depends on the mesh alone is built once
(``pdwg.assembly.mesh_operator``): the saddle matrix W = [S B^T; B 0] over
every primal dof and multiplier, the normal-derivative maps, the element P2
geometry and the triangle-rule points.  Every case cuts its matrix from
that W (``case_matrix``) and is factored once; the factor solves each
problem's clean system once and each noise seed's response once
(``pdwg.assembly.noise_response``), and is freed before any run is
measured.  The data-to-solution map is linear, so a run with noise
NoiseSpec(a, seed) is the clean solve plus a times the response
(``Reference.superpose``), accepted by its backward error against its own
right-hand side, and a run without noise or at amplitude 0 is the clean
solve itself: a noise study of any number of amplitudes makes two solves.
Every problem has one ``Reference`` per mesh, whose load, sampled Q_h u
and snapshot columns serve every case and amplitude.  A
snapshot CSV is one byte buffer: the coordinate text of its rows, built
once per ``Reference`` (``coordinate_rows``), beside the ``%.12e`` text of
its value columns, which one numpy kernel writes (``e12_text``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from pdwg.assembly import (
    SystemMatrix,
    assemble_matrix,
    assemble_rhs,
    element_load,
    join_primal,
    noise_response,
)
from pdwg.linsolve import (
    CondensedFactor,
    PivotReport,
    Solution,
    SingularSystem,
    _backward_error,
    factor_and_solve,
    pivot_report,
    saddle_factor,
)
from pdwg.mesh import BoundaryTags, Mesh, build_uniform_unit_square, classify_boundary
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
class StudyRow:
    """One run of a study, its only record: its key (the mesh parameter
    ``n`` and the noise amplitude, 0.0 for a noise-free run), its solution,
    error norms and snapshot, or the failure that stopped it, and its
    observed orders against the previous mesh (empty when there is none).
    The failure is a copy of the exception, without the traceback and
    chained exceptions whose frames would keep the failed solve's arrays
    alive; ``error`` is its text."""

    n: int
    amplitude: float
    solution: Solution | None = None
    report: ErrorReport | None = None
    snapshot: FieldSnapshot | None = None
    failure: SingularSystem | MemoryError | None = None
    orders: dict = field(default_factory=dict)

    @property
    def error(self) -> str:
        return failure_text(self.failure)


def _cell(row: StudyRow, column: str) -> str:
    """The CSV text of one column of a row: ``n`` as an integer, ``h`` and
    ``amplitude`` as the repr of a float, ``ord_<norm>`` as ``%.4f``, and
    any other column as the ``%.12e`` of that norm.  A norm or order the
    row lacks is empty."""
    if column == "n":
        return str(row.n)
    if column == "h":
        return repr(1 / row.n)
    if column == "amplitude":
        return repr(row.amplitude)
    if column.startswith("ord_"):
        o = row.orders.get(column[4:])
        return "" if o is None else f"{o:.4f}"
    return "" if row.report is None else f"{getattr(row.report, column):.12e}"


def rows_csv(rows: list[StudyRow], columns) -> str:
    """A header of ``columns``, then one line of ``_cell`` text per row."""
    lines = [",".join(columns)] + [",".join(_cell(row, c) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class ConvergenceTable:
    problem: str
    case: str
    rows: list[StudyRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return rows_csv(self.rows, CSV_HEADER.split(","))


@dataclass
class FieldSnapshot:
    """Nodal and per-element fields of one solve for plotting.

    ``node_rows`` and ``element_rows`` are the coordinate text ``x,y,`` of
    each CSV row, as ``coordinate_rows`` writes it from the mesh's P2 nodes
    (``mesh.p2_node_coords``) and its centroids; the value fields are
    written by ``e12_text``.
    """

    u0: np.ndarray         # (V+E,)
    err: np.ndarray        # (V+E,) u0 - u(x, y)
    lam: np.ndarray        # (T,)
    node_rows: np.ndarray = field(repr=False)
    element_rows: np.ndarray = field(repr=False)

    def nodes_csv(self) -> str:
        return _csv_text("x,y,u0,err\n", self.node_rows, self.u0, self.err)

    def elements_csv(self) -> str:
        return _csv_text("cx,cy,lambda\n", self.element_rows, self.lam)


# The '%.12e' text of a value has at most 20 characters ("-4.940656458412e-324");
# e12_text pads it to three 8-byte words.
E12_WIDTH = 24
# The four ASCII digits of 0000..9999, first digit in the lowest byte.
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                                + ord("0")).view("<u4").ravel().astype(np.int64)
_POW10 = 10.0 ** np.arange(300)
# "e+dd", or "e+ddd" from |E| = 100 on, NUL-padded, for E = -300..299.
_EXPONENT = np.arange(-300, 300)
_EXPONENT_TEXT = (ord("e") | np.where(_EXPONENT < 0, ord("-"), ord("+")) << 8
                  | _DIGITS4[abs(_EXPONENT)] >> np.where(abs(_EXPONENT) < 100, 16, 8) << 16)


def e12_text(values: np.ndarray) -> np.ndarray:
    """The ``'%.12e' % v`` text of every value, as (size, E12_WIDTH) uint8
    rows padded with NUL bytes, which may sit anywhere in a row.

    Exactness rule.  For finite x with 1e-280 <= |x| <= 1e280, take
    E = floor(log10|x|) and s = |x| * 10^(12-E), or |x| / 10^(E-12) when
    E > 12, with the powers from ``_POW10`` (exact up to 10^22, within
    1 ulp above).  So s is within 3.2e-3 of the exact scaled value (1 ulp
    of the power plus half an ulp of s < 1e13).  N = rint(s) is accepted
    only when s >= 1e12, N < 1e13 and |frac(s) - 0.5| > 1e-2; then E is
    the decimal exponent and N the correctly rounded 13-digit significand
    that CPython's dtoa prints.  (With N >= 1e12 in place of s >= 1e12, a
    log10 rounded up to E for |x| a few 1e-14 below 10^E, such as
    9.999999999999475e+259, would print 1.000000000000e+260.)  Every other
    value is written by ``'%.12e' % v`` itself: zeros, nan, infinities,
    subnormals and |x| outside the range, ties within the window (such as
    2**-20), carries to 10^13 (9.99999999999996 gives 1.000000000000e+01,
    9.99999999999995e99 gives e+100) and a log10 off by one.  The exponent
    has two digits, or three when |E| >= 100.  An accepted row is NUL,
    "-" or NUL, the leading digit, ".", 12 digits and the exponent text.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = abs(x)
    in_range = (a >= 1e-280) & (a <= 1e280)
    a[~in_range] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[np.maximum(12 - e, 0)]
    big = e > 12
    s[big] = a[big] / _POW10[e[big] - 12]
    n = np.rint(s)
    exact = in_range & (s >= 1e12) & (n < 1e13) & (abs(s - np.floor(s) - 0.5) > 1e-2)
    lead, rest = np.divmod(n.astype(np.int64), 10**12)
    words = np.empty((x.size, 3), "<i8")
    words[:, 0] = (np.signbit(x) * (ord("-") << 8) | (lead + ord("0")) << 16
                   | ord(".") << 24 | _DIGITS4[rest // 10**8] << 32)
    words[:, 1] = _DIGITS4[rest // 10**4 % 10**4] | _DIGITS4[rest % 10**4] << 32
    words[:, 2] = _EXPONENT_TEXT[e + 300]
    text = words.view(np.uint8)
    other = np.flatnonzero(~exact)
    if other.size:
        text[other] = np.array(["%.12e" % v for v in x[other].tolist()],
                               dtype=f"S{E12_WIDTH}").view(np.uint8).reshape(-1, E12_WIDTH)
    return text


def coordinate_rows(points: np.ndarray) -> np.ndarray:
    """The text ``x,y,`` of each point, as (points, width) uint8 rows padded
    with NUL bytes.

    A coordinate is written as the repr of a Python float, as ``tolist``
    gives it, so ``numpy.loadtxt`` reads it back exactly.  Mesh coordinates
    repeat, so the repr is taken once per distinct bit pattern (which keeps
    -0.0 apart from 0.0).
    """
    coords = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
    bits, inverse = np.unique(coords.view(np.int64), return_inverse=True)
    text = np.array([repr(x) + "," for x in bits.view(float).tolist()], dtype=bytes)
    width = text.itemsize
    text = text.view(np.uint8).reshape(len(bits), width)
    return text[inverse.reshape(-1, 2)].reshape(len(coords), 2 * width)


def _csv_text(header: str, coordinates: np.ndarray, *columns: np.ndarray) -> str:
    """``header``, then per row its ``coordinate_rows`` text and the
    ``%.12e`` text of each column, comma-separated: one (rows, width)
    buffer with its NUL bytes dropped."""
    rows, start = coordinates.shape
    buf = np.empty((rows, start + len(columns) * (E12_WIDTH + 1)), np.uint8)
    buf[:, :start] = coordinates
    for column in columns:
        buf[:, start:start + E12_WIDTH] = e12_text(column)
        buf[:, start + E12_WIDTH] = ord(",")
        start += E12_WIDTH + 1
    buf[:, -1] = ord("\n")
    return header + buf.tobytes().translate(None, b"\0").decode("ascii")


class Reference:
    """One problem on one mesh: what every solve and measurement of it shares.

    The element load, the sampled projection Q_h u and the exact columns of
    the snapshots depend on the problem, the mesh and the quadrature degree
    only, not on the boundary case, the noise or the solution.  A study
    builds one Reference per (problem, mesh), so each solve adds only its
    boundary data and the work that depends on u_h.  Every rule follows
    from ``tri_degree``: the load's and the projection's triangle rule, and
    the edge rule ``edge_points_for`` pairs with it.  The load and the
    projection sample the problem at the mesh's triangle-rule points, and
    the projection keeps the mesh's P2 geometry and normal-derivative maps;
    every problem on the mesh shares these.  Each is built when first
    used: the load by the first solve, after its factor, so that no factor
    is built beside the triangle-rule points; the projection by the first
    measurement, in a one-case study after the factor is freed; and the
    snapshot columns only by a study that writes snapshots.
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

    @cached_property
    def load(self) -> np.ndarray:
        return element_load(self.mesh, self.problem.f, self.tri_degree)

    @cached_property
    def projection(self) -> ExactProjection:
        return project_exact(self.problem, self.mesh, self.tri_degree)

    @cached_property
    def _snapshot_columns(self):
        nodes = self.mesh.p2_node_coords
        exact = self.problem.u(nodes[:, 0], nodes[:, 1])
        return exact, coordinate_rows(nodes), coordinate_rows(self.mesh.centroids)

    def solve(self, matrix: SystemMatrix, factor: CondensedFactor) -> Solution:
        """The clean solve of the problem on ``matrix``, a case on this mesh,
        against its ``saddle_factor``; only the noise-free right-hand side
        is assembled.  A noisy run is this solve plus a times the case's
        noise response (``superpose``)."""
        system = assemble_rhs(matrix, self.problem, self.tri_degree, load=self.load)
        return factor_and_solve(system, factor)

    def superpose(self, matrix: SystemMatrix, norm_M: float, clean: Solution,
                  response: Solution | None, noise: NoiseSpec | None) -> Solution:
        """The solution of one run on ``matrix``, from no solve of its own.

        Without noise, or at amplitude 0, it is ``clean`` itself.  With
        NoiseSpec(a, seed) it is x(a) = x_clean + a x_response in u0, un and
        lam, ``response`` the solve of the seed's ``noise_response``: the
        data-to-solution map is linear.  The amplitude's own right-hand side
        is assembled as for a direct solve, and x(a) is accepted against it
        by ``_backward_error`` (norm_M = ||M||_inf): SingularSystem when the
        boundary data or x(a) is not finite, or x(a) does not solve it.
        """
        if noise is None or noise.amplitude == 0.0:
            return clean
        a = noise.amplitude
        system = assemble_rhs(matrix, self.problem, self.tri_degree, noise, load=self.load)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            u0, un, lam = (clean.u0 + a * response.u0, clean.un + a * response.un,
                           clean.lam + a * response.lam)
            x = np.concatenate([join_primal(u0, un)[matrix.free], lam])
            residual = _backward_error(matrix.M, norm_M, x, system.rhs)
        return Solution(u0=u0, un=un, lam=lam, residual_inf=residual, condition=clean.condition)

    def measure(self, solution: Solution, tags: BoundaryTags) -> ErrorReport:
        """Error norms of ``solution`` against the problem's projection."""
        return error_norms(solution, self.projection, self.mesh, tags)

    def snapshot(self, solution: Solution) -> FieldSnapshot:
        exact, node_rows, element_rows = self._snapshot_columns
        return FieldSnapshot(u0=solution.u0, err=solution.u0 - exact, lam=solution.lam,
                             node_rows=node_rows, element_rows=element_rows)


def case_matrix(case_name: str, mesh: Mesh) -> SystemMatrix:
    """The saddle matrix of a boundary case on ``mesh``: its tags and the
    matrix cut from the mesh's W, which every case on the mesh shares."""
    return assemble_matrix(mesh, classify_boundary(mesh, list(get_case(case_name).segments)))


def failure_text(exc: SingularSystem | MemoryError | None) -> str:
    """A solver failure as the outputs report it; "" for none."""
    if isinstance(exc, MemoryError):
        return "out of memory" + (f": {exc}" if str(exc) else "")
    return "" if exc is None else str(exc)


def _failed(exc: SingularSystem | MemoryError) -> SingularSystem | MemoryError:
    """A copy of ``exc`` without its traceback and chained exceptions."""
    return type(exc)(*exc.args)


def _attempt(solve, *args) -> tuple:
    """(``solve(*args)``, None), or (None, ``_failed`` of its SingularSystem)."""
    try:
        return solve(*args), None
    except SingularSystem as exc:
        return None, _failed(exc)


def _amplitude(noise: NoiseSpec | None) -> float:
    return 0.0 if noise is None else noise.amplitude


def _study(
    n: int,
    plan: dict[str, list[tuple[str, NoiseSpec | None]]],
    tri_degree: int,
    snapshots: bool = False,
) -> dict[str, list[StudyRow]]:
    """Solve and measure the runs of ``plan`` on the n x n mesh.

    ``plan`` maps each case to its (problem name, noise) runs; the result
    maps it to their StudyRows, in order, each keyed by ``n`` and its run's
    amplitude (0.0 without noise).  The cases share the mesh's operators,
    freed before the last case's factor, and one Reference per problem.
    Each case is factored once and solved once per problem (its clean
    solve) and once per noise seed of a run with an amplitude above 0 (the
    seed's ``noise_response``).  Its factor is then deleted, before any run
    is measured: no factor is held through a measurement or the next case's
    assembly.  Each run's solution is the clean solve itself or the clean
    solve plus a times the response (``Reference.superpose``), accepted
    against the run's own right-hand side; a run at amplitude 0 reads no
    response.  No factor's L or U is read here (``case_pivots`` reads
    them).  With ``snapshots`` each row takes its snapshot when it is
    measured.  A singular factor fails the rows of its case, a failed
    clean solve the rows of its problem, a failed response the noisy rows
    of its seed, a refused superposition its own row, and running out of
    memory every row on the mesh that has not finished.  A case without
    runs is not assembled, and a plan without runs builds no mesh.
    """
    rows: dict[str, list[StudyRow]] = {case: [] for case in plan}
    plan = {case: todo for case, todo in plan.items() if todo}
    if not plan:
        return rows
    try:
        mesh = build_uniform_unit_square(n)
        refs = {p: Reference(get_problem(p), mesh, tri_degree)
                for todo in plan.values() for p, _ in todo}
        last_case = list(plan)[-1]
        for case, todo in plan.items():
            matrix = case_matrix(case, mesh)
            if case == last_case:  # no case assembles after it: free them before its factor
                mesh.operators.clear()
            try:
                factor = saddle_factor(matrix)
            except SingularSystem as exc:
                rows[case] += [StudyRow(n, _amplitude(noise), failure=_failed(exc))
                               for _, noise in todo]
                continue
            clean = {p: _attempt(refs[p].solve, matrix, factor)
                     for p in dict.fromkeys(p for p, _ in todo)}
            seeds = dict.fromkeys(noise.seed for _, noise in todo if _amplitude(noise) > 0.0)
            responses = {seed: _attempt(factor_and_solve, noise_response(matrix, seed, tri_degree),
                                        factor) for seed in seeds}
            norm_M = factor.norm_M
            del factor  # the case's last solve is done: freed before any run is measured
            for p, noise in todo:
                ref, amplitude = refs[p], _amplitude(noise)
                (solution, failure), response = clean[p], None
                if failure is None and amplitude > 0.0:  # amplitude 0 reads no response
                    response, failure = responses[noise.seed]
                if failure is None:
                    solution, failure = _attempt(ref.superpose, matrix, norm_M, solution,
                                                 response, noise)
                if failure is not None:
                    rows[case].append(StudyRow(n, amplitude, failure=failure))
                    continue
                rows[case].append(StudyRow(n, amplitude, solution,
                                           ref.measure(solution, matrix.tags),
                                           ref.snapshot(solution) if snapshots else None))
    except MemoryError as exc:
        for case, todo in plan.items():
            rows[case] += [StudyRow(n, _amplitude(noise), failure=_failed(exc))
                           for _, noise in todo[len(rows[case]):]]
    return rows


def solve_single(
    problem_name: str,
    case_name: str,
    n: int,
    tri_degree: int = DEFAULT_TRI_DEGREE,
):
    """One noise-free assemble/solve/measure pass; returns (solution,
    report, snapshot).

    It is a one-run ``_study``, and these are the fields of its one
    StudyRow: bit for bit the amplitude-0 row of a noise study.  The row's
    failure is raised.  The solution holds no pivots: ``case_pivots``
    reads them from a factor of its own.
    """
    row, = _study(n, {case_name: [(problem_name, None)]}, tri_degree, snapshots=True)[case_name]
    if row.failure is not None:
        raise row.failure
    return row.solution, row.report, row.snapshot


def case_pivots(case_name: str, mesh: Mesh) -> PivotReport:
    """The pivot range of a boundary case's factor on ``mesh``, from a
    factor of its own: every factor of the case's matrix is bit for bit
    this one.

    Reading U makes SuperLU build and keep copies of L and U, so no study
    reads it.  The case is cut from the mesh's W, and the mesh's operators
    are cleared before the factor is built (a later case on the mesh builds
    them again).  The matrix and all of the factor but its SuperLU object
    are freed before U is read.
    """
    matrix = case_matrix(case_name, mesh)
    mesh.operators.clear()
    lu = saddle_factor(matrix).lu
    del matrix
    return pivot_report(lu)


def _convergence_tables(
    problems_by_case: dict[str, list[str]],
    n_list: list[int],
    tri_degree: int,
) -> dict[tuple[str, str], ConvergenceTable]:
    """One table per (problem, case), computed mesh by mesh (``_study``).

    On each mesh every case is factored once for all its problems, and
    every problem's Reference serves every case.  Everything of a mesh is
    dropped before the next.  A failed run leaves a failed row and the
    study goes on: a singular system fails its rows, and running out of
    memory fails the rows of the mesh that have not finished.
    """
    tables = {(p, case): ConvergenceTable(problem=p, case=case)
              for case, names in problems_by_case.items() for p in names}
    plan = {case: [(p, None) for p in names] for case, names in problems_by_case.items()}
    for n in n_list:
        for case, rows in _study(n, plan, tri_degree).items():
            for p, row in zip(problems_by_case[case], rows):
                tables[(p, case)].rows.append(row)
    for table in tables.values():
        for prev, row in zip(table.rows, table.rows[1:]):
            if prev.report is None or row.report is None or row.n != 2 * prev.n:
                continue
            row.orders = {k: compute_order(getattr(prev.report, k), getattr(row.report, k))
                          for k in NORM_KEYS}
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
class NoiseStudy:
    problem: str
    case: str
    rows: list[StudyRow]

    def summary_csv(self) -> str:
        return rows_csv(self.rows, ("amplitude", "l2", "linf"))


def run_noise_study(
    problem_name: str,
    case_name: str,
    n: int,
    amplitudes: list[float],
    seed: int = DEFAULT_NOISE_SEED,
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> NoiseStudy:
    """The ``_study`` row of each amplitude, in order, from two solves with
    one factor: the clean solve and the seed's noise response.

    Amplitude 0 is the unperturbed solve itself, bit for bit; amplitude a
    is the clean solve plus a times the response (``Reference.superpose``),
    so its row does not depend on the other amplitudes.  A failed
    amplitude gets a row without solution, report or snapshot, and the
    study goes on.
    """
    plan = {case_name: [(problem_name, NoiseSpec(amplitude=a, seed=seed)) for a in amplitudes]}
    return NoiseStudy(problem_name, case_name, _study(n, plan, tri_degree, snapshots=True)[case_name])


# ---------------------------------------------------------------------------
# benchmark table plan and markdown rendering

def benchmark_table_plan() -> list[dict]:
    """The 17 reference convergence tables: id, problems (a tuple), case,
    norm columns.

    The first entry reports all six field norms of the quadratic exactness
    check; the paired entries split the six norms into two column triplets
    per problem and case; the final entry compares the curvature-norm
    column across the three smooth solutions for the one-sided Cauchy
    configuration.
    """
    plan = [{"table": 1, "problems": ("quad",), "case": "case1", "columns": NORM_KEYS}]
    tid = 2
    for case in ("case1", "case2"):
        for p in ("sinsin", "coscos", "bubble"):
            plan.append({"table": tid, "problems": (p,), "case": case,
                         "columns": ("h2", "l1", "l2")})
            plan.append({"table": tid + 1, "problems": (p,), "case": case,
                         "columns": ("h1", "linf", "w11")})
            tid += 2
    plan.append({"table": 14, "problems": ("sinsin",), "case": "case3",
                 "columns": ("h2", "l1", "l2")})
    plan.append({"table": 15, "problems": ("bubble",), "case": "case4",
                 "columns": ("h2", "l1", "l2")})
    plan.append({"table": 16, "problems": ("bubble",), "case": "case4",
                 "columns": ("h1", "linf", "w11")})
    plan.append({"table": 17, "problems": ("sinsin", "coscos", "bubble"),
                 "case": "case5", "columns": ("h2",)})
    return plan


def render_markdown(table: ConvergenceTable, columns: tuple[str, ...]) -> str:
    """Benchmark-style markdown: norm and order column per requested norm."""
    head = ["1/h"]
    for k in columns:
        head += [k, "order"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for row in table.rows:
        cells = [str(row.n)]
        for k in columns:  # a failed row has no orders
            cells += ["failed" if row.report is None else f"{getattr(row.report, k):.4e}",
                      _cell(row, f"ord_{k}")]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def run_benchmark_tables(
    out_dir: Path,
    n_list: list[int],
    tri_degree: int = DEFAULT_TRI_DEGREE,
) -> tuple[list[Path], list[ConvergenceTable]]:
    """Regenerate every benchmark table layout as CSV plus markdown; the
    files written and the (problem, case) tables behind them.

    Each (problem, case) table is computed once, mesh by mesh: every
    problem on a case shares one factor per mesh, and every case on a mesh
    shares one Reference per problem.  A failed run leaves a failed row
    (``_convergence_tables``), which the files show as ``failed`` cells.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = benchmark_table_plan()
    problems_by_case: dict[str, list[str]] = {}
    for entry in plan:
        problems = problems_by_case.setdefault(entry["case"], [])
        for p in entry["problems"]:
            if p not in problems:
                problems.append(p)
    tables = _convergence_tables(problems_by_case, n_list, tri_degree)

    written = []
    for entry in plan:
        md_parts = []
        for p in entry["problems"]:
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
    return written, list(tables.values())

