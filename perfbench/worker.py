"""One benchmark workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The worker runs whole rounds of the workload's calls through `pdwg.cli.main`, in
process, until `--seconds` have passed; every round makes the same calls, so
every round attempts the same operations.  Each call writes into an emptied
output directory, and its outputs are checked after its timer stops.

With `--trace 1` every call runs untraced and then traced, and the per-layer
metrics come from the traced calls (see tracing.py).  The last line of
standard output is one JSON object: `attempted`, `failed`, `incorrect`,
`metrics`, `rounds` and, with `--trace 1`, `traced_rounds`: the (start,
end) times of every call of every round, from which run.py computes the
adjusted wall time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pdwg.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


@dataclass
class Call:
    """One `pdwg` command line and the operations it counts."""

    argv: list[str]
    labels: list[str]
    # (output dir, exit code, stdout) -> {label: reason} for failed operations
    check: Callable[[Path, int, str], dict[str, str]]


def _all_failed(labels, reason):
    return {label: reason for label in labels}


# fine_solve -------------------------------------------------------------

FINE_N = 64
FINE_CASES = ("case1", "case2", "case5")


def _check_solve(case, out, rc, stdout):
    path = out / "solution_nodes.csv"
    if rc != 0:
        return {case: f"exit {rc}"}
    if not path.is_file() or not (out / "errors.csv").is_file():
        return {case: "no result"}
    reason = checks.check_solve(checks.read_csv(path), case, FINE_N)
    return {case: reason} if reason else {}


def fine_solve(rng: random.Random) -> list[Call]:
    """sinsin at n = 64 on case1, case2 and case5, in an order set by the seed."""
    cases = list(FINE_CASES)
    rng.shuffle(cases)
    return [Call(["solve", "--problem", "sinsin", "--case", c, "--n", str(FINE_N)],
                 [c], partial(_check_solve, c)) for c in cases]


# noise_sweep ------------------------------------------------------------

NOISE_N = 32
AMPLITUDES = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


def _amp_label(a):
    return f"a={a:g}"


def _check_noise(out, rc, stdout):
    labels = [_amp_label(a) for a in AMPLITUDES]
    if rc != 0:
        return _all_failed(labels, f"exit {rc}")
    summary_path = out / "noise_summary.csv"
    if not summary_path.is_file():
        return _all_failed(labels, "no noise_summary.csv")
    nodes = {}
    for a in AMPLITUDES:
        # file naming of `pdwg noise`: a0p005 for amplitude 0.005
        path = out / ("noise_" + f"a{a:g}".replace(".", "p") + "_nodes.csv")
        if path.is_file():
            nodes[a] = checks.read_csv(path)
    failed = checks.check_noise(nodes, checks.read_csv(summary_path), list(AMPLITUDES))
    return {_amp_label(a): reason for a, reason in failed.items()}


def noise_sweep(rng: random.Random) -> list[Call]:
    """coscos on `figures` at n = 32, eight amplitudes, noise seed from the seed."""
    argv = ["noise", "--problem", "coscos", "--case", "figures", "--n", str(NOISE_N),
            "--amplitudes", ",".join(f"{a:g}" for a in AMPLITUDES),
            "--seed", str(rng.randrange(2**31))]
    return [Call(argv, [_amp_label(a) for a in AMPLITUDES], _check_noise)]


# coarse_tables ----------------------------------------------------------

LADDER = (1, 2, 4, 8, 16)
# The (problem, case) convergence tables behind the 17 benchmark tables.
TABLES = (("quad", "case1"),
          ("sinsin", "case1"), ("coscos", "case1"), ("bubble", "case1"),
          ("sinsin", "case2"), ("coscos", "case2"), ("bubble", "case2"),
          ("sinsin", "case3"), ("bubble", "case4"),
          ("sinsin", "case5"), ("coscos", "case5"), ("bubble", "case5"))
VERIFY_CHECKS = 12


def _check_verify(out, rc, stdout):
    failed = checks.check_verify(rc, stdout, VERIFY_CHECKS)
    return {f"verify.{i}": reason for i, reason in failed.items()}


def _row_label(problem, case, n):
    return f"{problem}/{case}/n={n}"


def _check_tables(out, rc, stdout):
    failed = {}
    for problem, case in TABLES:
        labels = [_row_label(problem, case, n) for n in LADDER]
        path = out / f"{problem}_{case}.csv"
        if rc != 0 or not path.is_file():
            failed.update(_all_failed(labels, f"exit {rc}" if rc else "no table"))
            continue
        rows = checks.check_table(checks.read_csv(path), problem, case, list(LADDER))
        failed.update({_row_label(problem, case, n): r for n, r in rows.items()})
    return failed


def coarse_tables(rng: random.Random) -> list[Call]:
    """`pdwg verify`, then every benchmark table on the ladder n = 1..16."""
    verify = Call(["verify", "--seed", str(rng.randrange(2**31))],
                  [f"verify.{i}" for i in range(VERIFY_CHECKS)], _check_verify)
    tables = Call(["converge", "--plan", "benchmark",
                   "--n-list", ",".join(map(str, LADDER))],
                  [_row_label(p, c, n) for p, c in TABLES for n in LADDER], _check_tables)
    return [verify, tables]


WORKLOADS = {"fine_solve": fine_solve, "noise_sweep": noise_sweep,
             "coarse_tables": coarse_tables}


# rounds -----------------------------------------------------------------

@dataclass
class Round:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False
    out_bytes: int = 0
    calls: list = field(default_factory=list)  # (start, end) of each call


def run_call(call: Call, out: Path, into: Round) -> None:
    """Run one call in an emptied output directory; add its results to a round."""
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = pdwg.cli.main(call.argv + ["--out", str(out)])
    except Exception:  # the console script would exit 1 with this traceback
        traceback.print_exc()
        rc = 1
    t1 = time.perf_counter()
    into.wall_s += t1 - t0
    into.calls.append((t0, t1))

    try:
        failed = call.check(out, rc, stdout.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failed = _all_failed(call.labels, f"unreadable output: {exc!r}")
    for label, reason in sorted(failed.items()):
        print(f"operation failed: {' '.join(call.argv)}: {label}: {reason}", file=sys.stderr)
    into.attempted += len(call.labels)
    into.failed += len(failed)
    into.incorrect |= rc == 0 and bool(failed)
    if out.is_dir():
        into.out_bytes += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def layer_metrics(tracer: tracing.Tracer, traced: list[Round]) -> dict:
    """Per-layer metrics per round."""
    n = len(traced)
    self_times = tracer.self_times()
    spans = tracer.span_counts()
    metrics = {"cli.out_bytes": (sum(r.out_bytes for r in traced) / n, "B")}
    for span, name in tracing.SELF_TIME_METRICS.items():
        metrics[name] = (self_times[span] / n, "s")
    for span, name in tracing.SPAN_COUNT_METRICS.items():
        metrics[name] = (spans[span] / n, "count")
    for name in tracing.HOOK_COUNT_METRICS:
        metrics[name] = (tracer.counts[name] / n, "count")
    metrics["trace.wall_s"] = (statistics.median(r.wall_s for r in traced), "s")
    metrics["trace.unattributed_s"] = (
        (sum(r.wall_s for r in traced) - sum(self_times.values())) / n, "s")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    calls = WORKLOADS[args.workload](random.Random(args.seed))
    op_dir = args.out / "op"
    tracer = tracing.Tracer() if args.trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(Round())
        if tracer is not None:
            traced.append(Round())
        for call in calls:
            run_call(call, op_dir, plain[-1])
            if tracer is not None:
                # each traced call right after its untraced twin, so that the
                # overhead is not confounded with drift in machine speed
                with tracing.installed(tracer):
                    run_call(call, op_dir, traced[-1])
        print(f"round {len(plain)}: {plain[-1].wall_s:.3f} s"
              + (f", traced {traced[-1].wall_s:.3f} s" if traced else ""), file=sys.stderr)
    shutil.rmtree(op_dir, ignore_errors=True)

    rounds = plain + traced
    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "incorrect": any(r.incorrect for r in rounds),
    }
    if tracer is not None:
        tracer.write(args.out / "spans.jsonl")
        metrics = layer_metrics(tracer, traced)
        result["traced_rounds"] = [r.calls for r in traced]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"peak_rss_mb": (peak_kb / 1024, "MB")}
    # run.py adjusts these call times with the speed probe's samples
    result["rounds"] = [r.calls for r in plain]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
