import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pdwg import cli
from pdwg.harness import (
    CSV_HEADER,
    benchmark_table_plan,
    compute_order,
    render_markdown,
    run_benchmark_tables,
    run_convergence,
    run_noise_study,
    solve_single,
)
from pdwg.problems import DEFAULT_NOISE_SEED, NoiseSpec, case_configs, catalog


def test_compute_order_reference_pair():
    assert compute_order(0.1526, 0.09246) == pytest.approx(0.7229, abs=5e-4)


def test_compute_order_degenerate_cases():
    assert compute_order(1e-3, 1e-3) == 0.0
    assert compute_order(1e-3, 0.25e-3) == pytest.approx(2.0, abs=1e-14)
    assert compute_order(0.0, 1e-3) is None
    assert compute_order(1e-3, 0.0) is None
    assert compute_order(None, 1e-3) is None


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
    assert snapshot.nodes.shape == (V_plus_E, 2)
    assert snapshot.u0.shape == (V_plus_E,)
    assert snapshot.err.shape == (V_plus_E,)
    assert snapshot.centroids.shape == (8, 2)
    assert snapshot.lam.shape == (8,)
    assert snapshot.nodes_csv().startswith("x,y,u0,err\n")
    assert snapshot.elements_csv().startswith("cx,cy,lambda\n")
    assert len(snapshot.nodes_csv().strip().split("\n")) == V_plus_E + 1


def test_snapshot_csvs_load_back_as_numbers(tmp_path):
    _, _, snapshot = solve_single("sinsin", "case1", 2)
    for text, coords, values in [
        (snapshot.nodes_csv(), snapshot.nodes, snapshot.u0),
        (snapshot.elements_csv(), snapshot.centroids, snapshot.lam),
    ]:
        path = tmp_path / "snapshot.csv"
        path.write_text(text)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :2], coords)
        assert np.allclose(table[:, 2], values, rtol=1e-11, atol=0.0)


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


def test_benchmark_plan_covers_reference_tables():
    plan = benchmark_table_plan()
    assert len(plan) == 17
    assert [e["table"] for e in plan] == list(range(1, 18))
    problems = set()
    cases = set()
    for e in plan:
        ps = e["problem"] if isinstance(e["problem"], tuple) else (e["problem"],)
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
    written = run_benchmark_tables(tmp_path, n_list=[1, 2])
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


def test_noise_study_factors_once_and_matches_fresh_solves(splu_calls):
    amplitudes = [0.0, 0.005, 0.05]
    study = run_noise_study("coscos", "figures", 8, amplitudes)
    assert len(splu_calls) == 1
    for a, row in zip(amplitudes, study.rows):
        noise = NoiseSpec(amplitude=a, seed=DEFAULT_NOISE_SEED)
        solution, report, _ = solve_single("coscos", "figures", 8, noise=noise)
        assert row.amplitude == a
        assert np.array_equal(row.snapshot.u0, solution.u0)
        assert np.array_equal(row.snapshot.lam, solution.lam)
        assert row.report.as_dict() == report.as_dict()


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


def test_factor_failure_recorded_on_every_row(tmp_path, singular_splu):
    study = run_noise_study("coscos", "figures", 4, [0.0, 0.005, 0.05])
    # the no-pivot factor and its pivoting retry, attempted once per study
    assert len(singular_splu) == 2
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
