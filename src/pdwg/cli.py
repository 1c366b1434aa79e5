"""Command-line entry point.

Subcommands: solve, converge, noise, verify.  Flag values override config
file values; a subcommand reads, checks and echoes into the output
directory only the options its parser registers.  Exit codes: 0 success,
1 check failure, 2 usage error (or an output file that cannot be written),
3 solver failure (a singular system, or a run out of memory).  Once every
file of a study is written, each failed row prints one stderr line
(``_report_failures``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from pdwg.harness import (
    NOISE_SUMMARY_COLUMNS,
    FieldSnapshot,
    case_pivots,
    failure_text,
    run_benchmark_tables,
    run_convergence,
    run_noise_study,
    solve_single,
)
from pdwg.linsolve import SingularSystem
from pdwg.mesh import build_uniform_unit_square, check_alignment
from pdwg.norms import NORM_NAMES, PROJECTION_MIN_TRI_DEGREE
from pdwg.polyspace import DEFAULT_TRI_DEGREE, MAX_TRI_DEGREE
from pdwg.problems import DEFAULT_NOISE_SEED, NoiseSpec, case_configs, catalog, get_case

OUTPUT_DIR_ENV = "PDWG_OUTPUT_DIR"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Each configuration value: its default, what it must be, and the check of
# that (a --config file can hold any JSON).
_OPTIONS = {
    "problem": ("sinsin", "a string", lambda v: isinstance(v, str)),
    "case": ("case1", "a string", lambda v: isinstance(v, str)),
    "n": (16, "an integer", _is_int),
    "n_list": ([1, 2, 4, 8, 16, 32], "a list of integers",
               lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "amplitudes": ([0.0, 0.005, 0.01, 0.05], "a list of numbers",
                   lambda v: isinstance(v, list) and all(
                       _is_int(a) or isinstance(a, float) for a in v)),
    "seed": (DEFAULT_NOISE_SEED, "an integer", _is_int),
    "quadrature_degree": (DEFAULT_TRI_DEGREE, "an integer", _is_int),
    "out": (None, "a string", lambda v: isinstance(v, str)),
    "plan": (None, 'null or "benchmark"', lambda v: v in (None, "benchmark")),
    "diagnostics": (False, "true or false", lambda v: isinstance(v, bool)),
}


QUADRATURE_DEGREES = range(PROJECTION_MIN_TRI_DEGREE, MAX_TRI_DEGREE + 1)


class UsageError(Exception):
    pass


def _parse_list(text: str, convert, kind: str) -> list:
    """The comma-separated values of ``text``, each read by ``convert``."""
    try:
        return [convert(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad {kind} list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdwg",
        description="Primal-dual weak Galerkin solver for the elliptic Cauchy problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", "-o", help=f"output directory (default ${OUTPUT_DIR_ENV} or ./pdwg_out)")

    def study(p):
        common(p)
        p.add_argument("--problem", help="problem name (see `catalog`)")
        p.add_argument("--case", help="boundary configuration name")
        p.add_argument("--quadrature-degree", type=int, dest="quadrature_degree",
                       help="triangle quadrature exactness degree override")

    p = sub.add_parser("solve", help="solve one configuration, write snapshot + error report")
    study(p)
    p.add_argument("--n", type=int, help="subdivision parameter")
    p.add_argument("--diagnostics", action="store_true", default=None,
                   help="also print the residual, the pivot range and the condition estimate")

    p = sub.add_parser("converge", help="run a convergence study, write the table CSV")
    study(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated mesh parameters")
    p.add_argument("--plan", choices=["benchmark"],
                   help="regenerate every benchmark table instead of a single study")

    p = sub.add_parser("noise", help="run the boundary-data noise study")
    study(p)
    p.add_argument("--n", type=int, help="subdivision parameter")
    p.add_argument("--amplitudes", help="comma-separated noise amplitudes (include 0)")
    p.add_argument("--seed", type=int, help="noise PRNG seed")

    p = sub.add_parser("verify", help="run the algebraic identity checks")
    common(p)
    p.add_argument("--seed", type=int, help="seed for the random multiplier draws")
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (default, _, _) in _OPTIONS.items()}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
        except ValueError as exc:
            raise UsageError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {args.config!r} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        # the subcommand never reads the keys its parser does not register,
        # so their file values are neither parsed nor checked
        cfg.update({k: v for k, v in file_cfg.items() if k in vars(args)})
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if isinstance(cfg["n_list"], str):
        cfg["n_list"] = _parse_list(cfg["n_list"], int, "integer")
    if isinstance(cfg["amplitudes"], str):
        cfg["amplitudes"] = _parse_list(cfg["amplitudes"], float, "number")
    if cfg["out"] is None:  # an empty $PDWG_OUTPUT_DIR is unset
        cfg["out"] = os.environ.get(OUTPUT_DIR_ENV) or "pdwg_out"
    return cfg


def _validate_names(cfg: dict) -> None:
    if cfg["problem"] not in catalog():
        raise UsageError(f"unknown problem {cfg['problem']!r}; known: {sorted(catalog())}")
    if cfg["case"] not in case_configs():
        raise UsageError(f"unknown case {cfg['case']!r}; known: {sorted(case_configs())}")


def _validate_values(cfg: dict, command: str) -> None:
    """Reject values of the wrong type, unknown names, and mesh parameters,
    segment layouts, quadrature degrees, seeds and amplitudes no run can take."""
    for key, (_, kind, ok) in _OPTIONS.items():
        if not ok(cfg[key]):
            raise UsageError(f"{key} must be {kind}, got {cfg[key]!r}")
    if cfg["out"] == "":  # it would name the working directory
        raise UsageError("the output directory must not be empty")
    # a config file's integer amplitudes are the floats their flag gives, and
    # -0.0 is 0.0 (adding 0.0 clears the sign of a zero), which names its files
    try:
        cfg["amplitudes"] = [float(a) + 0.0 for a in cfg["amplitudes"]]
    except OverflowError as exc:
        raise UsageError("an amplitude is too large for a float") from exc
    if command in ("solve", "converge", "noise"):
        _validate_names(cfg)
    try:
        seed = cfg["seed"]
        if command in ("noise", "verify") and seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if command == "verify":
            return
        deg = cfg["quadrature_degree"]
        if deg not in QUADRATURE_DEGREES:
            raise ValueError(
                f"quadrature degree must be in {QUADRATURE_DEGREES.start}.."
                f"{QUADRATURE_DEGREES.stop - 1}, got {deg}"
            )
        n_values = cfg["n_list"] if command == "converge" else [cfg["n"]]
        if not n_values:
            raise ValueError("the mesh parameter list is empty")
        segments = () if cfg["plan"] == "benchmark" else get_case(cfg["case"]).segments
        for n in n_values:
            if n < 1:
                raise ValueError(f"mesh parameter n must be >= 1, got {n}")
            check_alignment(segments, n)
        if command == "noise":
            for a in cfg["amplitudes"]:
                NoiseSpec(amplitude=a, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if command == "noise":
        if 0.0 not in cfg["amplitudes"]:
            raise UsageError("amplitude list must include 0")
        first_with_tag = {}
        for a in cfg["amplitudes"]:
            tag = _snapshot_tag(a)
            if tag in first_with_tag:
                raise UsageError(f"amplitudes {first_with_tag[tag]!r} and {a!r} would both "
                                 f"write noise_{tag}_nodes.csv")
            first_with_tag[tag] = a


def _snapshot_tag(amplitude: float) -> str:
    """File name tag of an amplitude's snapshots: a0p005 for 0.005."""
    return f"a{amplitude:g}".replace(".", "p")


def _prepare_out(cfg: dict, args: argparse.Namespace) -> Path:
    """Create the output directory and echo the subcommand's configuration.

    Only the keys the subcommand's parser registers are echoed: the others
    are defaults or config-file values that the subcommand never reads.
    """
    out = Path(cfg["out"])
    echo = {"command": args.command, **{k: cfg[k] for k in vars(args) if k in cfg}}
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot create output directory {str(out)!r}: {exc.strerror}") from exc
    return out


def _write_snapshot(out: Path, stem: str, snapshot: FieldSnapshot) -> None:
    """Write a snapshot's ``<stem>_nodes.csv`` and ``<stem>_elements.csv``."""
    (out / f"{stem}_nodes.csv").write_text(snapshot.nodes_csv(), encoding="utf-8")
    (out / f"{stem}_elements.csv").write_text(snapshot.elements_csv(), encoding="utf-8")


def _report_failures(labelled_rows) -> int:
    """Print ``solver failure <label>: <error>`` to stderr for each failed
    row of the (label, row) pairs; the exit code, 3 if a row failed, else 0."""
    failed = [(label, row) for label, row in labelled_rows if row.report is None]
    for label, row in failed:
        print(f"solver failure {label}: {row.error}", file=sys.stderr)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = _effective_config(args)
        command = args.command
        _validate_values(cfg, command)
        out = _prepare_out(cfg, args)
        deg = cfg["quadrature_degree"]

        if command == "solve":
            # the pivots come from a factor of their own, read before the solve:
            # after it, the same read peaks higher and less predictably
            pr = (case_pivots(cfg["case"], build_uniform_unit_square(cfg["n"]))
                  if cfg["diagnostics"] else None)
            solution, report, snapshot = solve_single(cfg["problem"], cfg["case"], cfg["n"], deg)
            _write_snapshot(out, "solution", snapshot)
            lines = ["norm,value"] + [f"{k},{v:.12e}" for k, v in report.as_dict().items()]
            (out / "errors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"solved {cfg['problem']}/{cfg['case']} at n={cfg['n']}")
            for k, v in report.as_dict().items():
                print(f"  {k:9s} {v:.6e}")
            if pr is not None:
                print(f"  residual_inf {solution.residual_inf:.3e}  "
                      f"min_pivot {pr.min_pivot:.3e}  pivot_ratio {pr.ratio:.3e}")
                print(f"  cond1_estimate {solution.condition:.3e}")
            return 0

        if command == "converge":
            if cfg["plan"] == "benchmark":
                written, tables = run_benchmark_tables(out, cfg["n_list"], deg)
                print(f"wrote {len(written)} files to {out}")
                return _report_failures((f"for {t.problem}/{t.case} at n={r.n}", r)
                                        for t in tables for r in t.rows)
            table = run_convergence(cfg["problem"], cfg["case"], cfg["n_list"], deg)
            csv = table.to_csv()
            (out / f"{cfg['problem']}_{cfg['case']}.csv").write_text(csv, encoding="utf-8")
            print(csv, end="")
            return _report_failures((f"at n={r.n}", r) for r in table.rows)

        if command == "noise":
            # only the norms the summary writes are measured
            study = run_noise_study(cfg["problem"], cfg["case"], cfg["n"],
                                    cfg["amplitudes"], cfg["seed"], deg,
                                    [c for c in NOISE_SUMMARY_COLUMNS if c in NORM_NAMES])
            for row in study.rows:
                if row.snapshot is not None:
                    _write_snapshot(out, f"noise_{_snapshot_tag(row.amplitude)}", row.snapshot)
            summary = study.summary_csv()
            (out / "noise_summary.csv").write_text(summary, encoding="utf-8")
            print(summary, end="")
            return _report_failures((f"at amplitude {r.amplitude}", r) for r in study.rows)

        if command == "verify":
            from pdwg.verify import run_standard_checks

            report = run_standard_checks(seed=cfg["seed"])
            for line in report.lines():
                print(line)
            return 0 if report.ok else 1

    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a result file: reading the config and --out raise UsageError
        where = cfg["out"] if exc.filename is None else exc.filename  # a failed write() names none
        print(f"error: cannot write {where!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except (SingularSystem, MemoryError) as exc:
        print(f"solver failure: {failure_text(exc)}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
