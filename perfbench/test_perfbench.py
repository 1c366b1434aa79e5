"""Tests of the benchmark itself: its output checks and its tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

Real outputs come from `pdwg.cli.main` on small meshes; each corruption
(a shifted u0, a nonlinear noise response, a wrong order, a failed identity
check) must make its check fail.  Tracing must leave the outputs unchanged,
and the speed adjustment must undo a known slowdown.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import pdwg.cli  # noqa: E402

AMPS = [0.0, 0.01, 0.05, 0.1]
LADDER = [1, 2, 4, 8, 16]


def _pdwg(tmp_path, *argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = pdwg.cli.main([*argv, "--out", str(tmp_path)])
    assert rc == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    _pdwg(out, "solve", "--problem", "sinsin", "--case", "case1", "--n", "16")
    return out


@pytest.fixture(scope="module")
def noise_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("noise")
    _pdwg(out, "noise", "--problem", "coscos", "--case", "figures", "--n", "16",
          "--amplitudes", ",".join(f"{a:g}" for a in AMPS), "--seed", "3")
    return out


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("table")
    _pdwg(out, "converge", "--problem", "sinsin", "--case", "case1",
          "--n-list", ",".join(map(str, LADDER)))
    return out


def test_read_csv_parses_numpy_scalar_repr(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y,u0\nnp.float64(0.25),0.5,\n", encoding="utf-8")
    cols = checks.read_csv(path)
    assert cols["x"][0] == 0.25 and cols["y"][0] == 0.5 and math.isnan(cols["u0"][0])


def test_solve_check_rejects_shifted_u0(solve_dir):
    nodes = checks.read_csv(solve_dir / "solution_nodes.csv")
    assert checks.check_solve(nodes, "case1", 16) is None
    nodes["u0"] = nodes["u0"] + 1e-3
    assert "max nodal error" in checks.check_solve(nodes, "case1", 16)


def test_solve_check_has_a_looser_band_for_the_ill_posed_case(solve_dir):
    nodes = checks.read_csv(solve_dir / "solution_nodes.csv")
    nodes["u0"] = nodes["u0"] + 0.01
    assert checks.check_solve(nodes, "case1", 16) is not None
    assert checks.check_solve(nodes, "case5", 16) is None
    nodes["u0"] = nodes["u0"] + 0.1
    assert checks.check_solve(nodes, "case5", 16) is not None


def _noise_outputs(out):
    nodes = {a: checks.read_csv(out / ("noise_" + f"a{a:g}".replace(".", "p") + "_nodes.csv"))
             for a in AMPS}
    return nodes, checks.read_csv(out / "noise_summary.csv")


def test_noise_check_accepts_real_output(noise_dir):
    nodes, summary = _noise_outputs(noise_dir)
    assert checks.check_noise(nodes, summary, AMPS) == {}


def test_noise_check_rejects_nonlinear_response(noise_dir):
    nodes, summary = _noise_outputs(noise_dir)
    for a in AMPS[1:]:
        delta = nodes[a]["u0"] - nodes[0.0]["u0"]
        nodes[a]["u0"] = nodes[0.0]["u0"] + delta * (1 + a)
    failed = checks.check_noise(nodes, summary, AMPS)
    assert set(failed) == {0.01, 0.05}


def test_noise_check_rejects_falling_l2_and_missing_snapshot(noise_dir):
    nodes, summary = _noise_outputs(noise_dir)
    summary["l2"] = summary["l2"].copy()
    summary["l2"][2] = summary["l2"][1] / 2
    del nodes[0.1]
    failed = checks.check_noise(nodes, summary, AMPS)
    assert set(failed) == {0.05, 0.1}


def test_noise_check_rejects_inaccurate_clean_solve(noise_dir):
    nodes, summary = _noise_outputs(noise_dir)
    for a in AMPS:
        nodes[a]["u0"] = nodes[a]["u0"] + 1.0
    assert set(checks.check_noise(nodes, summary, AMPS)) == {0.0}


def test_table_check_accepts_real_output(table_dir):
    table = checks.read_csv(table_dir / "sinsin_case1.csv")
    assert checks.check_table(table, "sinsin", "case1", LADDER) == {}


def test_table_check_rejects_wrong_order(table_dir):
    table = checks.read_csv(table_dir / "sinsin_case1.csv")
    table["l2"] = table["l2"].copy()
    table["l2"][-1] = table["l2"][-2] / 2  # first order where second is due
    failed = checks.check_table(table, "sinsin", "case1", LADDER)
    assert list(failed) == [16] and "l2 order" in failed[16]


def test_table_check_ignores_the_csv_order_columns(table_dir):
    table = checks.read_csv(table_dir / "sinsin_case1.csv")
    table["ord_l2"] = np.full_like(table["ord_l2"], 2.0)
    table["h2"] = table["h2"].copy()
    table["h2"][-1] = table["h2"][-2] / 4
    assert "h2 order" in checks.check_table(table, "sinsin", "case1", LADDER)[16]


def test_table_check_ill_posed_order_and_missing_rows(table_dir):
    table = checks.read_csv(table_dir / "sinsin_case1.csv")
    assert checks.check_table(table, "sinsin", "case5", LADDER) == {}
    table["h2"] = table["h2"].copy()
    table["h2"][-1] = table["h2"][-2] / 1.2
    assert list(checks.check_table(table, "sinsin", "case5", LADDER)) == [16]
    table["l1"] = table["l1"].copy()
    table["l1"][0] = math.nan
    assert 1 in checks.check_table(table, "sinsin", "case3", LADDER)
    assert checks.check_table(table, "sinsin", "case3", LADDER + [32])[32] == "row missing"


def test_table_check_rejects_inexact_quadratic(table_dir):
    table = checks.read_csv(table_dir / "sinsin_case1.csv")
    failed = checks.check_table(table, "quad", "case1", LADDER)
    assert set(failed) == set(LADDER)


def test_verify_check():
    good = "\n".join(f"PASS  check{i}: value=0" for i in range(3))
    assert checks.check_verify(0, good, 3) == {}
    assert set(checks.check_verify(0, good.replace("PASS  check1", "FAIL  check1"), 3)) == {1}
    assert set(checks.check_verify(0, good, 4)) == {3}
    assert set(checks.check_verify(1, good, 3)) == {0, 1, 2}


def test_tracing_leaves_outputs_unchanged_and_accounts_for_all_time(tmp_path):
    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", "8",
            "--amplitudes", "0,0.01", "--seed", "5"]
    original = pdwg.cli.main
    _pdwg(tmp_path / "plain", *argv)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _pdwg(tmp_path / "traced", *argv)
    assert pdwg.cli.main is original

    files = sorted(p.name for p in (tmp_path / "plain").iterdir() if p.name != "config.json")
    assert files == sorted(p.name for p in (tmp_path / "traced").iterdir()
                           if p.name != "config.json")
    for name in files:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    counts = tracer.span_counts()
    assert counts["cli"] == 1 and counts["linsolve.factor"] == 2
    assert counts["problems.perturb"] > 0 and counts["harness.csv"] >= 4
    assert tracer.counts["linsolve.lu_nnz"] > 0 and tracer.counts["assembly.nnz"] > 0
    root = tracer.spans[0]
    assert root.name == "cli" and all(s.parent >= 0 for s in tracer.spans[1:])
    assert math.isclose(sum(tracer.self_times().values()), root.end - root.start, rel_tol=1e-9)


def _probe_samples(slowdown, t_end=10.0):
    """A probe sample every PERIOD_S up to t_end, each `slowdown` times the reference."""
    d = speedprobe.REF_KERNEL_S * slowdown
    count = int(t_end / speedprobe.PERIOD_S)
    return [(i * speedprobe.PERIOD_S, i * speedprobe.PERIOD_S + d) for i in range(count)]


def test_speed_adjustment_undoes_slowdown_and_takes_off_probe_time():
    samples = _probe_samples(slowdown=2.0)
    busy = sum(e - s for s, e in samples if 1.0 <= s and e <= 3.0)
    adjusted, slowdown = speedprobe.adjust(1.0, 3.0, samples)
    assert math.isclose(slowdown, 2.0)
    assert math.isclose(adjusted, (2.0 - busy) / 2.0, rel_tol=1e-6)

    # at the reference speed only the probe's own time comes off
    adjusted, slowdown = speedprobe.adjust(1.0, 3.0, _probe_samples(1.0))
    assert math.isclose(slowdown, 1.0) and 1.9 < adjusted < 2.0


def test_speed_adjustment_of_a_short_interval_uses_the_nearest_samples():
    fast = _probe_samples(1.0, t_end=5.0)
    slow = [(s + 5.0, e + 5.0) for s, e in _probe_samples(3.0, t_end=5.0)]
    samples = fast + slow
    t0 = 7.0 + speedprobe.PERIOD_S / 4  # between two samples, none inside
    _, slowdown = speedprobe.adjust(t0, t0 + speedprobe.PERIOD_S / 4, samples)
    assert math.isclose(slowdown, 3.0)
    _, slowdown = speedprobe.adjust(2.0, 2.001, samples)
    assert math.isclose(slowdown, 1.0)
