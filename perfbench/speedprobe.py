"""CPU speed probe: times a fixed kernel every few milliseconds.

    python3 perfbench/speedprobe.py

The CPUs this benchmark was built on are shared with other tenants, and the
speed one of them gives a process drifts by up to 40 % within seconds and
from minute to minute.  The probe runs in its own process on the same single
CPU as the benchmark (the affinity is inherited from run.py), so each of its
samples is the speed that CPU gives at that moment.  It prints `ready` once
warmed up; on SIGTERM, or when its parent is gone, it prints its samples as
one JSON list of [start, end] pairs (`time.perf_counter`, which on Linux is
the system-wide CLOCK_MONOTONIC, so the times compare with other processes).

`adjust` turns the wall time of an interval into the time it would have
taken at the probe's reference speed.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
import warnings

PERIOD_S = 0.025
# About the median kernel time on the machine described in README.md, so
# that an adjusted time reads close to wall time there.
REF_KERNEL_S = 0.0008
# An interval shorter than this many probe periods is judged by the samples
# nearest to it.
MIN_SAMPLES = 8


def make_kernel():
    """A fixed mix of interpreter work and a small sparse LU, like pdwg's."""
    warnings.simplefilter("ignore")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = 10
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()

    def kernel():
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        spla.splu(matrix)
        return acc

    return kernel


def adjust(t0: float, t1: float, samples: list) -> tuple[float, float]:
    """Seconds of [t0, t1] at the reference speed, and the mean slowdown.

    The probe's own time inside the interval is taken off, since it ran on
    the benchmark's CPU; the rest is scaled by the mean speed of the samples
    that started inside the interval (or of the MIN_SAMPLES nearest ones).
    """
    inside = [s for s in samples if t0 <= s[0] < t1]
    if len(inside) < MIN_SAMPLES:
        mid = (t0 + t1) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
    speed = statistics.fmean(REF_KERNEL_S / (end - start) for start, end in inside)
    busy = sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in samples)
    return (t1 - t0 - busy) * speed, 1 / speed


def main() -> int:
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    kernel = make_kernel()
    for _ in range(20):
        kernel()
    print("ready", flush=True)

    samples = []
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        start = time.perf_counter()
        kernel()
        samples.append((start, time.perf_counter()))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
