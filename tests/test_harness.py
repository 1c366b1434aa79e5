import math
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdwg import cli, harness
from pdwg.assembly import build_saddle_system, join_primal, noise_response
from pdwg.harness import (
    CSV_HEADER,
    EXACT_NORM,
    NORM_KEYS,
    FieldSnapshot,
    benchmark_table_plan,
    compute_order,
    coordinate_rows,
    e12_text,
    render_markdown,
    run_benchmark_tables,
    run_convergence,
    run_noise_study,
    solve_single,
)
from pdwg.linsolve import CondensedFactor, factor_and_solve, saddle_factor
from pdwg.mesh import build_uniform_unit_square
from pdwg.norms import NORM_NAMES
from pdwg.polyspace import DEFAULT_TRI_DEGREE
from pdwg.problems import DEFAULT_NOISE_SEED, NoiseSpec, case_configs, catalog, get_problem


def test_compute_order_reference_pair():
    assert compute_order(0.1526, 0.09246) == pytest.approx(0.7229, abs=5e-4)


def test_compute_order_degenerate_cases():
    assert compute_order(1e-3, 1e-3) == 0.0
    assert compute_order(1e-3, 0.25e-3) == pytest.approx(2.0, abs=1e-14)
    assert compute_order(0.0, 1e-3) is None
    assert compute_order(1e-3, 0.0) is None
    assert compute_order(None, 1e-3) is None


def test_compute_order_leaves_roundoff_norms_blank():
    assert compute_order(1e-8, 1.4e-10) is None
    assert compute_order(3e-12, 1e-10) is None
    assert compute_order(2e-8, 1e-9) == pytest.approx(math.log2(20.0), abs=1e-14)
    assert compute_order(1e-9, 2e-8) == pytest.approx(-math.log2(20.0), abs=1e-14)
    # quad is reproduced exactly, so every norm of its table is roundoff
    table = run_convergence("quad", "case1", [1, 2, 4])
    for row in table.rows[1:]:
        assert max(row.report.as_dict().values()) <= EXACT_NORM
        assert set(row.orders) == set(NORM_KEYS)
        assert all(o is None for o in row.orders.values())
    assert all(line.endswith(",,,,,,") for line in table.to_csv().splitlines()[1:])


def test_convergence_table_structure():
    table = run_convergence("sinsin", "case1", [1, 2, 4])
    assert [r.n for r in table.rows] == [1, 2, 4]
    assert table.rows[0].orders == {}
    for row in table.rows[1:]:
        assert set(row.orders) == {"h2", "l1", "l2", "h1", "linf", "w11"}
    # Cauchy-Schwarz on the unit-area domain, row by row
    for row in table.rows:
        assert row.report.l1 <= row.report.l2 + 1e-15
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    # first row leaves the order columns blank
    assert lines[1].endswith(",,,,,")


def test_orders_skip_non_halving_steps():
    table = run_convergence("sinsin", "case2", [2, 3])
    assert table.rows[1].orders == {}


def test_convergence_rerun_is_byte_identical():
    a = run_convergence("coscos", "case2", [1, 2]).to_csv()
    b = run_convergence("coscos", "case2", [1, 2]).to_csv()
    assert a.encode() == b.encode()


def test_snapshot_shapes_and_csv():
    solution, report, snapshot = solve_single("sinsin", "case1", 2)
    V_plus_E = 9 + 16
    assert len(snapshot.node_rows) == V_plus_E
    assert snapshot.u0.shape == (V_plus_E,)
    assert snapshot.err.shape == (V_plus_E,)
    assert len(snapshot.element_rows) == 8
    assert snapshot.lam.shape == (8,)
    assert snapshot.nodes_csv().startswith("x,y,u0,err\n")
    assert snapshot.elements_csv().startswith("cx,cy,lambda\n")
    assert len(snapshot.nodes_csv().strip().split("\n")) == V_plus_E + 1


def test_snapshot_csvs_load_back_as_numbers(tmp_path):
    _, _, snapshot = solve_single("sinsin", "case1", 2)
    mesh = build_uniform_unit_square(2)
    for text, coords, values in [
        (snapshot.nodes_csv(), mesh.p2_node_coords, snapshot.u0),
        (snapshot.elements_csv(), mesh.centroids, snapshot.lam),
    ]:
        path = tmp_path / "snapshot.csv"
        path.write_text(text)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :2], coords)
        assert np.allclose(table[:, 2], values, rtol=1e-11, atol=0.0)


def _row_by_row_csvs(snapshot, nodes, centroids):
    """The per-row f-string writers the one-format writers replaced, with
    the snapshot's node and centroid coordinates."""
    node_text = "x,y,u0,err\n" + "".join(
        f"{x!r},{y!r},{u:.12e},{e:.12e}\n"
        for (x, y), u, e in zip(nodes.tolist(), snapshot.u0, snapshot.err)
    )
    element_text = "cx,cy,lambda\n" + "".join(
        f"{x!r},{y!r},{l:.12e}\n"
        for (x, y), l in zip(centroids.tolist(), snapshot.lam)
    )
    return node_text, element_text


def _extreme_snapshot():
    """A snapshot of extreme values, with its node and centroid coordinates."""
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0 / 3.0])
    nodes = np.column_stack([values, values[::-1]])
    centroids = np.array([[-0.0, 1e-300]])
    snapshot = FieldSnapshot(u0=values, err=-values, lam=np.array([1e300]),
                             node_rows=coordinate_rows(nodes),
                             element_rows=coordinate_rows(centroids))
    return snapshot, nodes, centroids


def _on_mesh(snapshot, n):
    """A snapshot of the n x n mesh, with its P2 node and centroid coordinates."""
    mesh = build_uniform_unit_square(n)
    return snapshot, mesh.p2_node_coords, mesh.centroids


@pytest.mark.parametrize(
    "make",
    [
        lambda: _on_mesh(solve_single("sinsin", "case1", 3)[2], 3),
        lambda: _on_mesh(solve_single("coscos", "case2", 1)[2], 1),
        _extreme_snapshot,
        # an ill-posed noisy solve: its err column spans six decades
        lambda: _on_mesh(run_noise_study("coscos", "figures", 16, [0.1]).rows[0].snapshot, 16),
    ],
    ids=["n3", "n1", "signed_zero_and_extremes", "noise_figures_n16"],
)
def test_snapshot_csv_bytes_match_row_by_row_writer(make):
    snapshot, node_coords, centroids = make()
    nodes, elements = _row_by_row_csvs(snapshot, node_coords, centroids)
    assert snapshot.nodes_csv().encode() == nodes.encode()
    assert snapshot.elements_csv().encode() == elements.encode()


SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e-310, 1.0 / 3.0, 0.5, 1.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    points=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 30), st.just(2)),
        elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True)),
    ),
    transposed=st.booleans(),
)
def test_coordinate_rows_match_row_by_row_writer(points, transposed):
    if transposed:
        points = np.asfortranarray(points)
    rows = coordinate_rows(points)
    assert rows.dtype == np.uint8 and rows.shape[0] == len(points)
    assert _texts(rows) == ["%r,%r," % (x, y) for x, y in points.tolist()]


def _texts(rows):
    """Each row of NUL-padded text as a str."""
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]


# 14-digit decimals m * 10^k: one in ten is a near-tie of the 13-digit
# rounding, and m >= 99999999999995 carries into the next decade.
DECIMALS = st.builds(lambda m, k: float(f"{m}e{k}"),
                     st.integers(10**13, 10**14 - 1), st.integers(-340, 300))


@settings(deadline=None, derandomize=True, database=None)  # budget from the profile
@given(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True),
                          DECIMALS), max_size=40))
def test_e12_text_matches_percent_format(values):
    assert _texts(e12_text(np.array(values, dtype=float))) == ["%.12e" % v for v in values]


ADVERSARIAL_FLOATS = (
    2.0**-20, 1.25, 9.9999999999995, 9.99999999999996, 9.99999999999995e99,
    9.9999999999995e-100, 1e22, 1e23, 5e-324, sys.float_info.max,
    # log10 rounds to 260, but 13 digits round it to 9.999999999999e+259
    9.999999999999475e+259,
    # near-ties whose scaled value lands on the other side of the half
    1.8741927643405e-203, 8.4937328183895e-260, 3.9570899213885e+221, 7.6269542035725e+68,
)


def test_e12_text_matches_percent_format_at_edges():
    # the powers the exactness rule rests on: exact to 10^22, within 1 ulp above
    exact = np.array([float(10**k) for k in range(len(harness._POW10))])
    assert np.array_equal(harness._POW10[:23], exact[:23])
    assert np.all(abs(harness._POW10 - exact) <= np.spacing(exact))
    powers = np.array([1e-280, 1e280] + [float(f"1e{k}") for k in range(-20, 21)])
    values = np.concatenate([ADVERSARIAL_FLOATS, np.nextafter(powers, 0.0), powers,
                             np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    text = e12_text(values)
    assert text.dtype == np.uint8 and text.shape == (len(values), harness.E12_WIDTH)
    assert _texts(text) == ["%.12e" % v for v in values.tolist()]


def test_snapshot_error_column_is_pointwise():
    _, _, snapshot = solve_single("quad", "case1", 2)
    # quadratic solutions are reproduced at the nodes to machine accuracy
    assert np.abs(snapshot.err).max() <= 1e-10


def test_noise_zero_amplitude_matches_clean_solve():
    clean_solution, clean_report, _ = solve_single("coscos", "figures", 4)
    study = run_noise_study("coscos", "figures", 4, [0.0, 0.01], seed=42)
    row0 = study.rows[0]
    assert row0.amplitude == 0.0
    assert np.array_equal(row0.snapshot.u0, clean_solution.u0)
    assert row0.report.as_dict() == clean_report.as_dict()
    assert study.rows[1].report.l2 != clean_report.l2


def test_a_noise_free_study_draws_no_noise(monkeypatch):
    # amplitude 0 is the clean run: it makes no stream and solves no response
    problems_by_case = {"case1": ["sinsin"], "figures": ["coscos"]}

    def outputs():
        tables = harness._convergence_tables(problems_by_case, [2, 4], DEFAULT_TRI_DEGREE)
        solution, report, snapshot = solve_single("coscos", "figures", 4)
        return ([t.to_csv() for t in tables.values()], solution.u0.tobytes(),
                solution.lam.tobytes(), report.as_dict(), snapshot.nodes_csv())

    def drawn(*args):
        raise AssertionError("a noise-free run drew noise")

    want = outputs()
    monkeypatch.setattr(NoiseSpec, "generator", drawn)
    monkeypatch.setattr(harness, "noise_response", drawn)
    assert outputs() == want


def test_noise_study_reproducible():
    a = run_noise_study("coscos", "figures", 4, [0.0, 0.005, 0.05], seed=7)
    b = run_noise_study("coscos", "figures", 4, [0.0, 0.005, 0.05], seed=7)
    assert a.summary_csv().encode() == b.summary_csv().encode()
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.snapshot.u0, rb.snapshot.u0)
    c = run_noise_study("coscos", "figures", 4, [0.0, 0.005, 0.05], seed=8)
    assert not np.array_equal(a.rows[1].snapshot.u0, c.rows[1].snapshot.u0)


def test_noise_summary_csv_schema():
    study = run_noise_study("sinsin", "figures", 2, [0.0, 0.01])
    lines = study.summary_csv().strip().split("\n")
    assert lines[0] == "amplitude,l2,linf"
    assert len(lines) == 3


def test_a_noise_study_measures_all_seven_norms_by_default():
    study = run_noise_study("coscos", "figures", 4, [0.0, 1e-320, 0.01, 1e300])
    for row in study.rows:
        norms = row.report.as_dict()
        assert list(norms) == list(NORM_NAMES)
        assert all(math.isfinite(v) for v in norms.values()), row.amplitude


@pytest.mark.parametrize("amplitudes, norms", [
    ([0.0, -0.1], NORM_NAMES), ([0.0, math.nan], NORM_NAMES), ([0.0], ("l2", "l3"))],
    ids=["negative_amplitude", "nan_amplitude", "unknown_norm"])
def test_a_noise_study_checks_its_inputs_before_the_mesh(amplitudes, norms, monkeypatch,
                                                         splu_calls):
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_uniform_unit_square", no_mesh)
    with pytest.raises(ValueError):
        run_noise_study("coscos", "figures", 2, amplitudes, norms=norms)
    assert splu_calls == []


def test_a_nan_amplitude_raises_where_the_factor_fails(singular_splu):
    # the factor would fail every row; the amplitude is refused first
    with pytest.raises(ValueError, match="noise amplitude must be finite"):
        run_noise_study("coscos", "figures", 2, [0.0, math.nan])
    assert singular_splu == []


def test_a_noisy_run_is_its_clean_run_plus_a_times_the_response():
    amplitudes = [0.0, 0.001, 0.01, 0.1]
    plan = {"figures": [("coscos", a) for a in amplitudes]}
    runs = harness._study(8, plan, DEFAULT_TRI_DEGREE, seed=7, snapshots=True)["figures"]
    clean, _, _ = solve_single("coscos", "figures", 8)
    assert runs[0].solution is not None and np.array_equal(runs[0].solution.u0, clean.u0)
    matrix = harness.case_matrix("figures", build_uniform_unit_square(8))
    response = factor_and_solve(noise_response(matrix, 7, DEFAULT_TRI_DEGREE),
                                saddle_factor(matrix))
    for a, run in zip(amplitudes[1:], runs[1:]):
        for name in ("u0", "un", "lam"):
            want = getattr(clean, name) + a * getattr(response, name)
            assert np.array_equal(getattr(run.solution, name), want), (a, name)
        assert np.array_equal(run.snapshot.u0, run.solution.u0)
        assert np.array_equal(run.snapshot.lam, run.solution.lam)


def test_a_noisy_row_does_not_depend_on_the_other_amplitudes():
    full = run_noise_study("coscos", "figures", 8, [0.0, 0.01, 0.1])
    short = run_noise_study("coscos", "figures", 8, [0.0, 0.1])
    assert full.summary_csv().splitlines()[3] == short.summary_csv().splitlines()[2]
    a, b = full.rows[2].snapshot, short.rows[1].snapshot
    assert a.nodes_csv().encode() == b.nodes_csv().encode()
    assert a.elements_csv().encode() == b.elements_csv().encode()


@pytest.mark.parametrize("case", ["figures", "case2"])
def test_noisy_rows_agree_with_a_direct_solve(case):
    # superposition and a direct solve of the noisy system are both
    # backward stable, so they differ by a forward error of order
    # kappa * eps times the solution's norm ||[u0, un, lam]||_inf, kappa
    # the factor's condition estimate kappa_1 (figures 3.1e7, case2 2.7e4
    # at n = 8); the largest difference reads 3.4e-2 of it (case2)
    amplitudes = [0.001, 0.01, 0.1]
    study = run_noise_study("coscos", case, 8, amplitudes)
    mesh = build_uniform_unit_square(8)
    tags = harness.case_matrix(case, mesh).tags
    for a, row in zip(amplitudes, study.rows):
        noise = NoiseSpec(amplitude=a, seed=DEFAULT_NOISE_SEED)
        direct = factor_and_solve(build_saddle_system(mesh, tags, get_problem("coscos"),
                                                      DEFAULT_TRI_DEGREE, noise))
        norm = max(np.abs(join_primal(direct.u0, direct.un)).max(), np.abs(direct.lam).max())
        bound = direct.condition * np.finfo(float).eps * norm
        for got, want in ((row.snapshot.u0, direct.u0), (row.snapshot.lam, direct.lam)):
            assert np.abs(got - want).max() <= bound, a


@pytest.fixture
def factor_solves(monkeypatch):
    """Record the size of every right-hand side solved with a CondensedFactor."""
    sizes = []
    solve = CondensedFactor.solve

    def counted(self, b):
        sizes.append(len(b))
        return solve(self, b)

    monkeypatch.setattr(CondensedFactor, "solve", counted)
    return sizes


@pytest.mark.parametrize("amplitudes, solves", [
    ([0.0], 1), ([0.0, 0.01], 2), ([0.0, 0.001, 0.01, 0.1], 2),
    ([0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1], 2), ([0.05], 2)])
def test_a_noise_study_solves_its_clean_system_and_its_response(amplitudes, solves,
                                                                  factor_solves):
    study = run_noise_study("coscos", "figures", 4, amplitudes)
    assert all(row.report is not None for row in study.rows)
    assert len(factor_solves) == solves


def test_each_case_solves_each_problem_and_its_response_once(factor_solves):
    plan = {"figures": [("coscos", 0.01), ("coscos", 0.1)],
            "case2": [("coscos", 0.0), ("sinsin", 0.01), ("sinsin", 0.02), ("sinsin", 0.0)],
            "case1": [("sinsin", 0.0), ("quad", 0.0)]}
    runs = harness._study(4, plan, DEFAULT_TRI_DEGREE, seed=1)
    assert all(run.report is not None for todo in runs.values() for run in todo)
    # figures: coscos and the response; case2: coscos, sinsin and the
    # response; case1, without noise: sinsin and quad, and no response
    assert len(factor_solves) == 2 + 3 + 2


def test_benchmark_plan_covers_reference_tables():
    plan = benchmark_table_plan()
    assert len(plan) == 17
    assert [e["table"] for e in plan] == list(range(1, 18))
    problems = set()
    cases = set()
    for e in plan:
        ps = e["problems"]
        assert isinstance(ps, tuple)
        problems.update(ps)
        cases.add(e["case"])
        for p in ps:
            assert p in catalog()
        assert e["case"] in case_configs()
        assert set(e["columns"]) <= {"h2", "l1", "l2", "h1", "linf", "w11"}
    assert problems == {"quad", "sinsin", "coscos", "bubble"}
    assert cases == {"case1", "case2", "case3", "case4", "case5"}


def test_render_markdown_layout():
    table = run_convergence("sinsin", "case2", [1, 2])
    md = render_markdown(table, ("h2", "l2"))
    lines = md.strip().split("\n")
    assert lines[0] == "| 1/h | h2 | order | l2 | order |"
    assert len(lines) == 4


def test_run_benchmark_tables_writes_all_layouts(tmp_path):
    written, tables = run_benchmark_tables(tmp_path, n_list=[1, 2])
    assert all(row.report is not None for t in tables for row in t.rows)
    md_files = sorted(p.name for p in tmp_path.glob("table*.md"))
    assert len(md_files) == 17
    csv_files = list(tmp_path.glob("*_case*.csv"))
    # 4 problems on case1, 3 on case2, plus case3/case4/case5 runs
    assert len(csv_files) == 4 + 3 + 1 + 1 + 3
    assert all(p.exists() for p in written)


def test_run_benchmark_tables_rerun_overwrites_csv(tmp_path):
    run_benchmark_tables(tmp_path, n_list=[1, 2])
    run_benchmark_tables(tmp_path, n_list=[1, 2, 4])
    rows = (tmp_path / "sinsin_case1.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "4"]


@pytest.fixture
def splu_calls(monkeypatch):
    """Record every SuperLU factorization made while the test runs."""
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


@pytest.fixture
def singular_splu(monkeypatch):
    """Make every SuperLU factorization fail as on an exactly singular matrix."""
    calls = []

    def failing_splu(*args, **kwargs):
        calls.append(args[0].shape)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", failing_splu)
    return calls


@pytest.fixture
def call_counts(monkeypatch):
    """Count the calls of named pdwg functions, under every name bound to them."""
    counts = {}

    def count(module, name):
        original = getattr(sys.modules[module], name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for m in [m for key, m in list(sys.modules.items()) if key.startswith("pdwg")]:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)

    count("pdwg.assembly", "element_load")
    count("pdwg.norms", "project_exact")
    return counts


def test_noise_study_builds_load_and_projection_once(call_counts):
    amplitudes = [0.0, 0.005, 0.05, 0.1]
    study = run_noise_study("coscos", "figures", 8, amplitudes, seed=11)
    assert call_counts == {"element_load": 1, "project_exact": 1}
    for a, row in zip(amplitudes, study.rows):
        alone, = run_noise_study("coscos", "figures", 8, [a], seed=11).rows
        assert row.report.as_dict() == alone.report.as_dict()
        assert row.snapshot.nodes_csv().encode() == alone.snapshot.nodes_csv().encode()
        assert row.snapshot.elements_csv().encode() == alone.snapshot.elements_csv().encode()


def test_benchmark_tables_project_once_per_problem_and_mesh(tmp_path, call_counts):
    # 12 (problem, case) tables over 4 problems: each problem's load and
    # projection on a mesh serve every case
    run_benchmark_tables(tmp_path, n_list=[2, 4])
    assert call_counts == {"element_load": 4 * 2, "project_exact": 4 * 2}


def test_noise_study_factors_once_and_matches_fresh_solves(splu_calls):
    amplitudes = [0.0, 0.005, 0.05]
    study = run_noise_study("coscos", "figures", 8, amplitudes)
    assert len(splu_calls) == 1
    for a, row in zip(amplitudes, study.rows):
        alone, = run_noise_study("coscos", "figures", 8, [a]).rows
        assert row.amplitude == a
        assert np.array_equal(row.snapshot.u0, alone.solution.u0)
        assert np.array_equal(row.snapshot.lam, alone.solution.lam)
        assert row.report.as_dict() == alone.report.as_dict()


def test_a_case_without_runs_is_not_factored(splu_calls):
    study = run_noise_study("coscos", "figures", 8, [])
    assert study.rows == []
    assert splu_calls == []
    assert harness._study(4, {"case1": [], "case2": [("quad", 0.0)]},
                          DEFAULT_TRI_DEGREE)["case1"] == []
    assert len(splu_calls) == 1


def test_benchmark_tables_factor_once_per_case_and_mesh(tmp_path, splu_calls):
    # 12 (problem, case) tables on 5 cases: case1 carries 4 problems and
    # case2 and case5 carry 3 each, yet each (case, n) is factored once.
    run_benchmark_tables(tmp_path, n_list=[2, 4])
    assert len(list(tmp_path.glob("*_case*.csv"))) == 12
    assert len(splu_calls) == 5 * 2


def test_factors_are_not_shared_across_cli_calls(tmp_path, splu_calls):
    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", "4",
            "--amplitudes", "0,0.01,0.1"]
    counts = []
    for k in range(2):
        before = len(splu_calls)
        assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0
        counts.append(len(splu_calls) - before)
    assert counts == [1, 1]


def test_out_of_memory_keeps_the_rows_finished_on_its_mesh(tmp_path, monkeypatch):
    # n=2 factors its five cases; at n=4 case1 is factored and case2 is not
    factor, calls = harness.saddle_factor, []

    def oom_at_seventh(matrix):
        calls.append(matrix)
        if len(calls) == 7:
            raise MemoryError()
        return factor(matrix)

    monkeypatch.setattr(harness, "saddle_factor", oom_at_seventh)
    run_benchmark_tables(tmp_path, n_list=[2, 4, 8])
    for path in tmp_path.glob("*_case*.csv"):
        rows = [r.split(",") for r in path.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["2", "4", "8"]
        finished = {"2", "8"} | ({"4"} if path.name.endswith("_case1.csv") else set())
        for r in rows:
            assert (r[2] != "") == (r[0] in finished), (path.name, r[0])


@pytest.mark.parametrize("owner, name", [(harness.Reference, "superpose"),
                                         (harness.Reference, "snapshot")],
                         ids=["solve", "snapshot"])
def test_out_of_memory_keeps_the_amplitudes_finished(owner, name, tmp_path, monkeypatch,
                                                     capsys):
    # the third amplitude runs out of memory, in its solve (the step that
    # forms each amplitude's solution) or its snapshot, and the fourth is
    # not solved
    original, calls = getattr(owner, name), []

    def oom_at_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise MemoryError()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, oom_at_third)
    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", "4",
            "--amplitudes", "0,0.01,0.1,0.2", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.glob("noise_a*.csv")) == [
        "noise_a0_elements.csv", "noise_a0_nodes.csv",
        "noise_a0p01_elements.csv", "noise_a0p01_nodes.csv"]
    rows = [r.split(",") for r in (tmp_path / "noise_summary.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.0", "0.01", "0.1", "0.2"]
    assert [r[1:] == ["", ""] for r in rows] == [False, False, True, True]
    assert "solver failure at amplitude 0.1: out of memory" in capsys.readouterr().err


def test_a_failed_run_keeps_no_frame_of_its_solve(singular_splu):
    # the exception raised holds the factor's frames in its traceback and
    # in the exceptions chained to it; the run keeps a copy without them
    plan = {"case1": [("sinsin", 0.0), ("quad", 0.0)]}
    runs = harness._study(2, plan, DEFAULT_TRI_DEGREE)["case1"]
    assert len(runs) == 2
    for run in runs:
        assert run.solution is None and run.report is None
        assert isinstance(run.failure, harness.SingularSystem)
        assert "exactly singular" in str(run.failure)
        assert run.failure.__traceback__ is None
        assert run.failure.__cause__ is None and run.failure.__context__ is None


@pytest.fixture
def nan_response(monkeypatch):
    """Make every noise response's right-hand side nan, so its solve fails."""
    response = harness.noise_response

    def not_finite(*args):
        system = response(*args)
        system.rhs[:] = np.nan
        return system

    monkeypatch.setattr(harness, "noise_response", not_finite)


@pytest.fixture
def oom_at_second_measure(monkeypatch):
    """Make the second measurement of a study run out of memory."""
    measure, calls = harness.Reference.measure, []

    def oom(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("no room")
        return measure(*args)

    monkeypatch.setattr(harness.Reference, "measure", oom)


def test_a_failed_response_fails_only_the_noisy_runs(nan_response):
    plan = {"figures": [("coscos", 0.0), ("coscos", 0.01), ("sinsin", 0.0), ("coscos", 0.1)]}
    runs = harness._study(4, plan, DEFAULT_TRI_DEGREE, seed=5)["figures"]
    assert [run.report is not None for run in runs] == [True, False, True, False]
    for run in (runs[1], runs[3]):
        assert str(run.failure) == "the solve is not finite (backward error nan)"
        assert run.failure.__traceback__ is None


NOT_FINITE = "the solve is not finite (backward error nan)"


@pytest.mark.parametrize("setup, plan, seed, errors", [
    (None, {"case2": [("coscos", 0.0), ("sinsin", 0.01)], "figures": [("quad", 0.0)]}, 1,
     ["", "", ""]),
    ("singular_splu", {"case1": [("sinsin", 0.0), ("quad", 0.1)]}, 3,
     ["exactly singular", "exactly singular"]),
    ("nan_response", {"figures": [("coscos", 0.0), ("coscos", 0.01)]}, 5, ["", NOT_FINITE]),
    (None, {"case2": [("coscos", 0.0), ("coscos", 1e307)]}, 2, ["", NOT_FINITE]),
    ("oom_at_second_measure", {"case1": [("sinsin", 0.0), ("quad", 0.0)],
                               "case2": [("coscos", 0.01)]}, 4,
     ["", "out of memory: no room", "out of memory: no room"]),
], ids=["solved", "singular_factor", "failed_response", "refused_superposition",
        "out_of_memory"])
def test_every_study_row_carries_its_key_and_its_outcome(setup, plan, seed, errors, request):
    if setup is not None:
        request.getfixturevalue(setup)
    rows = harness._study(4, plan, DEFAULT_TRI_DEGREE, seed=seed, snapshots=True)
    assert list(rows) == list(plan)
    got = [row for case in plan for row in rows[case]]
    keys = [(4, a) for todo in plan.values() for _, a in todo]
    assert [(row.n, row.amplitude) for row in got] == keys
    for row, error in zip(got, errors, strict=True):
        assert row.error == harness.failure_text(row.failure)
        assert error in row.error and (row.error == "") == (error == "")
        if row.failure is None:
            assert row.report is not None and np.array_equal(row.snapshot.u0, row.solution.u0)
        else:
            assert (row.solution, row.report, row.snapshot) == (None, None, None)
            assert row.failure.__traceback__ is None


def test_factor_failure_recorded_on_every_row(tmp_path, singular_splu):
    study = run_noise_study("coscos", "figures", 4, [0.0, 0.005, 0.05])
    # the one factor of the matrix, attempted once per study
    assert len(singular_splu) == 1
    assert [r.amplitude for r in study.rows] == [0.0, 0.005, 0.05]
    for row in study.rows:
        assert row.report is None and row.snapshot is None
        assert "exactly singular" in row.error

    run_benchmark_tables(tmp_path / "tables", n_list=[1, 2])
    csvs = list((tmp_path / "tables").glob("*_case*.csv"))
    assert len(csvs) == 12
    for path in csvs:
        rows = path.read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "2"]
        assert all(r.split(",")[2:] == [""] * 13 for r in rows)

    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", "4",
            "--amplitudes", "0,0.01", "--out", str(tmp_path / "cli")]
    assert cli.main(argv) == 3
