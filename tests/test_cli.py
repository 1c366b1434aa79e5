import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import pdwg.cli as cli
import pdwg.harness as harness
from pdwg.linsolve import SingularSystem
from pdwg.problems import DEFAULT_NOISE_SEED


def run(args, tmp_path, extra=()):
    return cli.main([*args, "--out", str(tmp_path), *extra])


def test_solve_writes_outputs(tmp_path):
    code = run(["solve", "--problem", "quad", "--case", "case1", "--n", "2"], tmp_path)
    assert code == 0
    assert (tmp_path / "solution_nodes.csv").read_text().startswith("x,y,u0,err\n")
    assert (tmp_path / "solution_elements.csv").read_text().startswith("cx,cy,lambda\n")
    errors = (tmp_path / "errors.csv").read_text().strip().split("\n")
    assert errors[0] == "norm,value"
    assert len(errors) == 8
    echo = json.loads((tmp_path / "config.json").read_text())
    assert echo["command"] == "solve"
    assert echo["problem"] == "quad" and echo["n"] == 2


def test_converge_writes_schema_csv(tmp_path):
    code = run(
        ["converge", "--problem", "sinsin", "--case", "case2", "--n-list", "1,2"],
        tmp_path,
    )
    assert code == 0
    csv = (tmp_path / "sinsin_case2.csv").read_text()
    assert csv.startswith(
        "n,h,h2,l1,l2,h1,linf,w11,lambda0h,"
        "ord_h2,ord_l1,ord_l2,ord_h1,ord_linf,ord_w11\n"
    )
    assert len(csv.strip().split("\n")) == 3


def test_unknown_problem_is_usage_error(tmp_path):
    assert run(["solve", "--problem", "cubic", "--case", "case1"], tmp_path) == 2


def test_unknown_case_is_usage_error(tmp_path):
    assert run(["converge", "--problem", "sinsin", "--case", "case99"], tmp_path) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--n", "0"],
        ["noise", "--n", "4", "--amplitudes", "0,-1"],
        ["solve", "--case", "figures", "--n", "3"],
    ],
    ids=["mesh_parameter_zero", "negative_amplitude", "misaligned_segment"],
)
def test_bad_values_are_usage_errors(args, tmp_path, capsys):
    assert run(args, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--n", "2", "--quadrature-degree", "0"],
        ["solve", "--n", "2", "--quadrature-degree", "3"],
        ["solve", "--n", "2", "--quadrature-degree", "-3"],
        ["converge", "--n-list", "1,2", "--quadrature-degree", "99"],
        ["noise", "--n", "2", "--quadrature-degree", "21"],
        ["noise", "--n", "2", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["noise", "--n", "2", "--amplitudes", "0,nan"],
        ["noise", "--n", "2", "--amplitudes", "0,inf"],
    ],
    ids=["degree_0", "degree_3", "degree_negative", "degree_99", "degree_21",
         "negative_seed", "verify_negative_seed", "nan_amplitude", "inf_amplitude"],
)
def test_out_of_range_values_are_usage_errors(args, tmp_path, capsys):
    assert run(args, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("args", [["converge"], ["converge", "--plan", "benchmark"]],
                         ids=["one_table", "benchmark_plan"])
def test_empty_mesh_list_is_a_usage_error(args, tmp_path, capsys):
    assert run([*args, "--n-list", ""], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("degree", ["4", "20"])
def test_quadrature_degree_range_ends_solve(degree, tmp_path):
    assert run(["solve", "--n", "1", "--quadrature-degree", degree], tmp_path) == 0


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == 2


def test_noise_requires_zero_amplitude(tmp_path):
    code = run(
        ["noise", "--problem", "coscos", "--case", "figures", "--n", "2",
         "--amplitudes", "0.005"],
        tmp_path,
    )
    assert code == 2


@pytest.mark.parametrize(
    "amplitudes",
    ["0,0.001,0.0010000001", "0,0.01,0.01", "0.01,0.02", "0,-0"],
    ids=["same_tag", "repeated", "no_zero", "negative_zero"],
)
def test_noise_amplitude_list_rejected_before_writing(amplitudes, tmp_path, capsys):
    # 0.001 and 0.0010000001 would both write noise_a0p001_*.csv
    out = tmp_path / "out"
    assert cli.main(["noise", "--n", "2", "--amplitudes", amplitudes,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_negative_zero_amplitude_is_amplitude_zero(tmp_path, capsys):
    # -0 parses to -0.0, which is amplitude 0: the same files, bytes and
    # summary row, and beside 0 a second writer of noise_a0_*.csv
    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", "2"]
    zero, negative_zero = tmp_path / "zero", tmp_path / "negative_zero"
    assert cli.main([*argv, "--amplitudes", "0", "--out", str(zero)]) == 0
    assert cli.main([*argv, "--amplitudes", "-0", "--out", str(negative_zero)]) == 0
    names = sorted(p.name for p in zero.iterdir())
    assert names == sorted(p.name for p in negative_zero.iterdir())
    for name in names:
        want = (zero / name).read_text().replace(str(zero), str(negative_zero))
        assert (negative_zero / name).read_text() == want, name
    assert (zero / "noise_summary.csv").read_text().splitlines()[1].startswith("0.0,")
    capsys.readouterr()
    assert cli.main([*argv, "--amplitudes", "0,-0", "--out", str(tmp_path / "both")]) == 2
    assert capsys.readouterr().err == (
        "error: amplitudes 0.0 and 0.0 would both write noise_a0_nodes.csv\n")


def test_noise_outputs(tmp_path):
    code = run(
        ["noise", "--problem", "coscos", "--case", "figures", "--n", "4",
         "--amplitudes", "0,0.005", "--seed", "42"],
        tmp_path,
    )
    assert code == 0
    assert (tmp_path / "noise_summary.csv").read_text().startswith("amplitude,l2,linf\n")
    assert (tmp_path / "noise_a0_nodes.csv").exists()
    assert (tmp_path / "noise_a0p005_nodes.csv").exists()
    assert (tmp_path / "noise_a0p005_elements.csv").exists()


def test_config_file_and_flags_equivalent(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "coscos", "case": "case2", "n": 2}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--problem", "coscos", "--case", "case2", "--n", "2",
                     "--out", str(out_b)]) == 0
    assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()


def test_noise_config_file_and_flags_write_identical_outputs(tmp_path):
    # JSON integer amplitudes are written as the floats the flag parses
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "coscos", "case": "figures", "n": 4,
                               "amplitudes": [0, 0.01]}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["noise", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["noise", "--problem", "coscos", "--case", "figures", "--n", "4",
                     "--amplitudes", "0,0.01", "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name != "config.json":
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    echo_a = (out_a / "config.json").read_text().replace(str(out_a), str(out_b))
    assert echo_a == (out_b / "config.json").read_text()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "coscos", "case": "case2", "n": 2}))
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", str(cfg), "--problem", "sinsin",
                     "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["problem"] == "sinsin"
    assert echo["case"] == "case2"


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh_size": 4}))
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file"),
        ("{bad", "is not valid JSON"),
        ("4", "must hold a JSON object"),
        ("[1,2]", "must hold a JSON object"),
    ],
    ids=["missing_file", "malformed_json", "json_number", "json_list"],
)
def test_unreadable_config_is_a_usage_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, values",
    [
        (["solve"], {"n": "4"}),
        (["solve"], {"n": "abc"}),
        (["converge"], {"n_list": 4}),
        (["converge"], {"n_list": "x"}),
        (["noise", "--n", "2"], {"amplitudes": [0, "0.01"]}),
        (["noise", "--n", "2"], {"amplitudes": [True]}),
        (["noise", "--n", "2"], {"amplitudes": [0, 10**400]}),
    ],
    ids=["string_n", "word_n", "scalar_n_list", "unparsable_n_list", "string_amplitude",
         "bool_amplitude", "huge_amplitude"],
)
def test_config_values_of_wrong_type_are_usage_errors(command, values, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, values",
    [
        (["verify", "--seed", "7"], {"n": "abc"}),
        (["verify", "--seed", "7"], {"problem": "nope"}),
        (["solve", "--problem", "quad", "--n", "1"], {"n_list": "x"}),
        (["solve", "--problem", "quad", "--n", "1"], {"amplitudes": "x", "plan": 3}),
    ],
    ids=["verify_word_n", "verify_unknown_problem", "solve_unparsable_n_list",
         "solve_bad_noise_and_plan"],
)
def test_config_values_the_subcommand_does_not_read_are_ignored(command, values, tmp_path):
    # only the keys a subcommand registers are parsed, checked and echoed
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert not set(values) & set(echo)


@pytest.mark.parametrize(
    "args, out",
    [
        (["solve", "--n", "2"], "taken"),
        (["verify"], "taken/sub"),
    ],
    ids=["out_is_a_file", "out_under_a_file"],
)
def test_uncreatable_out_is_a_usage_error(args, out, tmp_path, capsys):
    (tmp_path / "taken").write_text("a file\n")
    assert cli.main([*args, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.mark.parametrize(
    "args, taken",
    [
        (["solve", "--n", "2"], "errors.csv"),
        (["noise", "--n", "2", "--amplitudes", "0"], "noise_summary.csv"),
        (["converge", "--n-list", "1"], "sinsin_case1.csv"),
        (["converge", "--plan", "benchmark", "--n-list", "1"], "table01.md"),
    ],
    ids=["solve", "noise", "converge", "benchmark_tables"],
)
def test_unwritable_result_file_is_a_usage_error(args, taken, tmp_path, capsys):
    (tmp_path / taken).mkdir()
    assert run(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(tmp_path / taken)!r}: Is a directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_result_write_names_the_output_directory(tmp_path, capsys):
    # the open succeeds and the write fails, so the error carries no file name
    (tmp_path / "errors.csv").symlink_to("/dev/full")
    assert run(["solve", "--n", "2"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(tmp_path)!r}: No space left on device\n"


def test_diagnostics_print_residual_pivots_and_condition(tmp_path, capsys):
    assert run(["solve", "--case", "case5", "--n", "2", "--diagnostics"], tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("  residual_inf ") and "pivot_ratio" in lines[-2]
    label, value = lines[-1].split()
    assert label == "cond1_estimate" and 1.0 <= float(value) < 1e16


def test_diagnostics_lines_keep_their_values(tmp_path, capsys):
    argv = ["solve", "--problem", "coscos", "--case", "figures", "--n", "2", "--diagnostics"]
    assert run(argv, tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  residual_inf 1.421e-14  min_pivot 7.873e-04  pivot_ratio 2.867e-04",
        "  cond1_estimate 4.715e+04"]


def test_diagnostics_read_u_with_no_factor_or_matrix_alive(tmp_path, monkeypatch):
    # reading U makes SuperLU keep copies of L and U: no CondensedFactor and
    # no SystemMatrix, of the solve or of the pivots' own factor, is alive then
    made, alive = [], []
    factor, pivot_report = harness.saddle_factor, harness.pivot_report

    def saddle_factor(matrix):
        condensed = factor(matrix)
        made.extend([weakref.ref(matrix), weakref.ref(condensed)])
        return condensed

    def pivots(lu):
        alive.append(sum(ref() is not None for ref in made))
        return pivot_report(lu)

    monkeypatch.setattr(harness, "saddle_factor", saddle_factor)
    monkeypatch.setattr(harness, "pivot_report", pivots)
    assert run(["solve", "--case", "case2", "--n", "4", "--diagnostics"], tmp_path) == 0
    assert len(made) == 4 and alive == [0]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    code = cli.main(["solve", "--problem", "quad", "--case", "case1", "--n", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "errors.csv").exists()


def test_empty_output_dir_from_environment_is_unset(tmp_path, monkeypatch):
    # an empty $PDWG_OUTPUT_DIR names ./pdwg_out, not the working directory
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve", "--problem", "quad", "--case", "case1", "--n", "1"]) == 0
    assert (tmp_path / "pdwg_out" / "errors.csv").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["pdwg_out"]
    assert json.loads((tmp_path / "pdwg_out" / "config.json").read_text())["out"] == "pdwg_out"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_empty_out_is_a_usage_error(where, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"out": ""}\n')
    source = ["--out", ""] if where == "flag" else ["--config", "run.json"]
    assert cli.main(["solve", "--n", "2", *source]) == 2
    assert capsys.readouterr().err == "error: the output directory must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SingularSystem("synthetic failure")

    monkeypatch.setattr(harness, "factor_and_solve", boom)
    code = run(["solve", "--problem", "quad", "--case", "case1", "--n", "1"], tmp_path)
    assert code == 3


def test_out_of_memory_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    message = ("Unable to allocate 14.9 GiB for an array with shape (2000000000,) "
               "and data type float64")

    def oom(n):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "build_uniform_unit_square", oom)
    assert run(["solve", "--n", "20000"], tmp_path) == 3
    assert capsys.readouterr().err == f"solver failure: out of memory: {message}\n"


def test_out_of_memory_fails_its_row_and_keeps_the_finished_ones(tmp_path, monkeypatch, capsys):
    message = "Unable to allocate 1.2 GiB for an array"
    build = harness.build_uniform_unit_square

    def oom_at_8(n):
        if n == 8:
            raise MemoryError(message)
        return build(n)

    monkeypatch.setattr(harness, "build_uniform_unit_square", oom_at_8)
    argv = ["converge", "--problem", "sinsin", "--case", "case1", "--n-list", "1,2,4,8"]
    assert run(argv, tmp_path) == 3
    rows = [line.split(",") for line in
            (tmp_path / "sinsin_case1.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2", "4", "8"]
    for r in rows[:3]:
        assert all(math.isfinite(float(v)) for v in r[2:9])
    assert rows[3][2:] == [""] * 13
    err = capsys.readouterr().err
    assert err == f"solver failure at n=8: out of memory: {message}\n"


def test_a_solve_that_is_not_finite_fails_its_row_and_keeps_the_finished_ones(tmp_path, capsys):
    # amplitude 1e308 overflows the lifted boundary data, which is refused
    # before the solve and without a warning (warnings are errors here)
    argv = ["noise", "--problem", "coscos", "--case", "case2", "--n", "4",
            "--amplitudes", "0,1e308"]
    assert run(argv, tmp_path) == 3
    rows = (tmp_path / "noise_summary.csv").read_text().splitlines()
    assert rows[0] == "amplitude,l2,linf" and rows[2] == "1e+308,,"
    assert rows[1].startswith("0.0,") and all(math.isfinite(float(v)) for v in rows[1].split(","))
    assert sorted(f.name for f in tmp_path.glob("noise_*.csv")) == [
        "noise_a0_elements.csv", "noise_a0_nodes.csv", "noise_summary.csv"]
    err = capsys.readouterr().err
    assert err == "solver failure at amplitude 1e+308: the boundary data is not finite\n"


def test_a_solve_that_overflows_fails_its_row_with_one_line(tmp_path, capsys):
    # amplitude 1e307 lifts to finite data, but the solve overflows: only the
    # backward-error check reports it (warnings are errors here)
    argv = ["noise", "--problem", "coscos", "--case", "case2", "--n", "4",
            "--amplitudes", "0,1e307"]
    assert run(argv, tmp_path) == 3
    rows = (tmp_path / "noise_summary.csv").read_text().splitlines()
    assert rows == ["amplitude,l2,linf", "0.0,5.204820851553e-04,1.156852331935e-03",
                    "1e+307,,"]
    err = capsys.readouterr().err
    assert err == ("solver failure at amplitude 1e+307: "
                   "the solve is not finite (backward error nan)\n")


def test_benchmark_plan_reports_each_failed_row(tmp_path, monkeypatch, capsys):
    cases, cut, factor = {}, harness.case_matrix, harness.saddle_factor

    def case_matrix(case_name, mesh):
        matrix = cut(case_name, mesh)
        cases[id(matrix)] = case_name
        return matrix

    def singular_case2_at_4(matrix):
        if cases[id(matrix)] == "case2" and matrix.mesh.n == 4:
            raise SingularSystem("synthetic failure")
        return factor(matrix)

    monkeypatch.setattr(harness, "case_matrix", case_matrix)
    monkeypatch.setattr(harness, "saddle_factor", singular_case2_at_4)
    assert run(["converge", "--plan", "benchmark", "--n-list", "2,4"], tmp_path) == 3
    out, err = capsys.readouterr()
    assert out == f"wrote 29 files to {tmp_path}\n"
    assert len(list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.md"))) == 29
    problems = []
    for entry in harness.benchmark_table_plan():
        if entry["case"] == "case2":
            problems += [p for p in entry["problems"] if p not in problems]
    assert err.splitlines() == [f"solver failure for {p}/case2 at n=4: synthetic failure"
                                for p in problems]
    for p in problems:
        rows = (tmp_path / f"{p}_case2.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "4"] and rows[2].endswith(",,,")
    tables = [f"table{e['table']:02d}.md" for e in harness.benchmark_table_plan()
              if e["case"] == "case2"]
    assert len(tables) == 6
    for name in tables:
        lines = [line for line in (tmp_path / name).read_text().splitlines()
                 if line.startswith("| 4 |")]
        assert lines == ["| 4 | failed |  | failed |  | failed |  |"]


@pytest.mark.parametrize("args, written, code", [
    (["converge", "--problem", "sinsin", "--case", "case1", "--n-list", "1,2,4"],
     "sinsin_case1.csv", 0),
    (["noise", "--problem", "coscos", "--case", "case2", "--n", "4", "--amplitudes", "0,0.01"],
     "noise_summary.csv", 0),
    (["noise", "--problem", "coscos", "--case", "case2", "--n", "4", "--amplitudes", "0,1e307"],
     "noise_summary.csv", 3),
], ids=["converge", "noise", "noise_failed_amplitude"])
def test_stdout_is_the_table_written(args, written, code, tmp_path, capsys):
    assert run(args, tmp_path) == code
    assert capsys.readouterr().out.encode() == (tmp_path / written).read_bytes()


def test_an_error_field_whose_squares_overflow_has_finite_norms(tmp_path):
    # at amplitude 1e300 the error field is finite, but its squares are not
    argv = ["noise", "--problem", "coscos", "--case", "case2", "--n", "4"]
    assert run([*argv, "--amplitudes", "0,1e100,1e300"], tmp_path / "large") == 0
    assert run([*argv, "--amplitudes", "0"], tmp_path / "clean") == 0
    rows = (tmp_path / "large" / "noise_summary.csv").read_text().splitlines()
    assert rows[1] == (tmp_path / "clean" / "noise_summary.csv").read_text().splitlines()[1]
    norms = [[float(v) for v in row.split(",")] for row in rows[2:]]
    assert all(math.isfinite(v) for row in norms for v in row)
    # the noise dominates the error, which is linear in the amplitude
    assert norms[1][1] / 1e300 == pytest.approx(norms[0][1] / 1e100, rel=1e-9)
    assert norms[1][2] / 1e300 == pytest.approx(norms[0][2] / 1e100, rel=1e-9)


def test_verify_subcommand_passes(tmp_path):
    assert run(["verify"], tmp_path) == 0


def test_verify_echoes_only_the_options_it_reads(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"case": "case99", "n": 4}))
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo == {"command": "verify", "out": str(out), "seed": DEFAULT_NOISE_SEED}


@pytest.mark.parametrize(
    "args",
    [
        ["converge", "--diagnostics"],
        ["noise", "--diagnostics"],
        ["verify", "--diagnostics"],
        ["verify", "--case", "case2"],
        ["verify", "--problem", "quad"],
        ["verify", "--quadrature-degree", "8"],
    ],
    ids=lambda a: "_".join(a).replace("-", ""),
)
def test_flags_a_subcommand_would_ignore_are_usage_errors(args, tmp_path):
    assert run(args, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_out_scipy_special():
    # scipy.special would add about a tenth to every CLI start; nothing in pdwg needs it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pdwg.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "False"
