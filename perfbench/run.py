"""Benchmark of the pdwg command line: one workload per invocation.

    python3 perfbench/run.py --workload fine_solve --seed 1 --seconds 20 --trace 0

Workloads: fine_solve, noise_sweep, coarse_tables (see README.md).  The run
is pinned to one CPU, and a speed probe (speedprobe.py) runs beside it on
that CPU for the whole run.  With `--trace 0` it measures set-up time (the
median over several fresh interpreters that import `pdwg.cli`), then runs
the workload in one fresh worker process and reports the end-to-end
metrics, with every time adjusted to the probe's reference speed.  With
`--trace 1` the worker also runs traced rounds and the per-layer metrics
are reported.

Runs from the source tree next to this directory (`src/`); nothing is
installed.  Outputs, spans and the probe's samples (`probe.json`) go to
`.perfbench_out/<workload>/`.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Exits 2 when the
pdwg sources are missing and 1 when the probe or the worker does not report.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import adjust

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("fine_solve", "noise_sweep", "coarse_tables")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0


def setup_interval(env: dict, timeout: float) -> tuple[float, float]:
    """Start and end of an interpreter's start-up until `pdwg.cli` is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import pdwg.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"importing pdwg.cli failed (exit {proc.returncode})")
    return t0, t1


def stop_probe(probe: subprocess.Popen) -> list:
    """Stop the speed probe and return its samples."""
    if probe.poll() is None:
        probe.send_signal(signal.SIGTERM)
    try:
        out, _ = probe.communicate(timeout=20)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    lines = out.decode().strip().splitlines()
    if probe.returncode != 0 or not lines:
        raise RuntimeError(f"the speed probe exited {probe.returncode} without samples")
    return json.loads(lines[-1])


def run_beside_probe(args, env: dict, out: Path, deadline: float):
    """Set-up samples and the worker, with the speed probe running throughout.

    Returns the set-up intervals, the worker's interval, the finished worker
    and the probe's samples.
    """
    probe = subprocess.Popen([sys.executable, str(HERE / "speedprobe.py")],
                             stdout=subprocess.PIPE, cwd=ROOT)
    try:
        if probe.stdout.readline().strip() != b"ready":
            raise RuntimeError("the speed probe did not start")
        setups = []
        if not args.trace:
            # The first interpreter compiles bytecode; CLI users do not pay
            # that on every run, so it is not one of the samples.
            setup_interval(env, TIME_LIMIT_S)
            setups = [setup_interval(env, TIME_LIMIT_S) for _ in range(SETUP_SAMPLES)]
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=deadline - t0)
        worker = (t0, time.perf_counter())
    finally:
        samples = stop_probe(probe)
    return setups, worker, proc, samples


def adjusted_rounds(rounds: list, samples: list) -> list[float]:
    """Each round's call times, adjusted to the probe's reference speed, summed."""
    return [sum(adjust(t0, t1, samples)[0] for t0, t1 in calls) for calls in rounds]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "pdwg" / "cli.py").is_file():
        print(f"error: pdwg sources not found under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = ROOT / ".perfbench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    # Every process started below inherits this one CPU, the probe's too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        setups, worker, proc, samples = run_beside_probe(
            args, env, out, start + TIME_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker did not finish within {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited {proc.returncode} without a result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    (out / "probe.json").write_text(json.dumps(
        {"samples": samples, "setups": setups, "worker": worker,
         "rounds": result.get("rounds", [])}))
    metrics = result["metrics"]
    plain = adjusted_rounds(result["rounds"], samples)
    if args.trace:
        # each traced call ran right after its untraced twin
        traced = adjusted_rounds(result["traced_rounds"], samples)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - p for t, p in zip(traced, plain)), "unit": "s"}
        _, slowdown = adjust(*worker, samples)
        metrics["probe.slowdown"] = {"value": slowdown, "unit": "x"}
    else:
        metrics["setup_s"] = {
            "value": statistics.median(adjust(t0, t1, samples)[0] for t0, t1 in setups),
            "unit": "s"}
        metrics["adj_wall_s"] = {"value": statistics.median(plain), "unit": "s"}
    print(json.dumps({
        "correct": not result["incorrect"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
