"""Output checks for the benchmark workloads.

Every check reads what a `pdwg` subcommand wrote and compares it with an
independent computation (the exact solution evaluated here) or a property of
the method (second-order accuracy, linearity of the data-to-solution map,
observed convergence orders computed here from the norm columns).  No check
compares against a stored copy of earlier output.

Each check returns a dict from an operation label to the reason it failed;
an empty dict means every operation passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Well-posed configurations: the nodal error of the P2 field is O(h^2).
# Measured max|u0 - u| * n^2 for sinsin at n = 16, 32, 64 is 0.0195-0.0198
# (case1) and 0.0567-0.0572 (case2); the band allows four times the larger.
NODAL_H2_CONSTANT = 0.25
# case5 (Cauchy data on the bottom side only) is ill-posed: the nodal error
# decreases slowly (0.0102, 0.0087, 0.0074 at n = 16, 32, 64).
ILL_POSED_NODAL_MAX = 0.05
WELL_POSED_CASES = ("case1", "case2")

# coscos on `figures` at n = 32, amplitude 0: max nodal error 0.030.
NOISE_CLEAN_NODAL_MAX = 0.1
# (u0(a) - u0(0)) / a agrees across amplitudes to about 1e-8 relative (the
# CSV keeps 13 significant digits); anything above this is not linear.
NOISE_LINEARITY_RTOL = 1e-6

# Bands of the acceptance suite for the last mesh-halving step.
H2_ORDER_BAND = (0.7, 1.3)
L2_ORDER_BAND = (1.65, 2.35)
ILL_POSED_H2_ORDER_MIN = 0.6
QUAD_NORM_MAX = 1e-8
NORM_COLUMNS = ("h2", "l1", "l2", "h1", "linf", "w11", "lambda0h")


def _cell(text: str) -> float:
    # pdwg writes coordinates with repr(), which under NumPy 2 reads
    # `np.float64(0.5)`; empty cells mark a failed row.
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text) if text else math.nan


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV file written by pdwg, as float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array([[_cell(c) for c in row] for row in body], dtype=float)
    cols = cols.reshape(len(body), len(header))
    return {name: cols[:, j] for j, name in enumerate(header)}


def check_solve(nodes: dict[str, np.ndarray], case: str, n: int) -> str | None:
    """Nodal error of a sinsin solve against sin x sin y, computed here."""
    exact = np.sin(nodes["x"]) * np.sin(nodes["y"])
    err = float(np.abs(nodes["u0"] - exact).max())
    if case in WELL_POSED_CASES:
        band = NODAL_H2_CONSTANT / n**2
    else:
        band = ILL_POSED_NODAL_MAX
    if not err <= band:
        return f"{case} n={n}: max nodal error {err:.3e} > {band:.3e}"
    return None


def check_noise(
    nodes: dict[float, dict[str, np.ndarray]],
    summary: dict[str, np.ndarray],
    amplitudes: list[float],
) -> dict[float, str]:
    """Noise study: clean accuracy, linear response, rising L2 error.

    ``nodes`` maps each amplitude to its nodal snapshot columns; missing
    amplitudes fail.  ``amplitudes`` is ascending and starts at 0.
    """
    failed: dict[float, str] = {}
    for a in amplitudes:
        if a not in nodes:
            failed[a] = "no nodal snapshot"
    if 0.0 in failed:
        return {a: "no amplitude-0 snapshot" for a in amplitudes}

    clean = nodes[0.0]
    err = float(np.abs(clean["u0"] - np.cos(clean["x"]) * np.cos(clean["y"])).max())
    if not err <= NOISE_CLEAN_NODAL_MAX:
        failed[0.0] = f"amplitude 0: max nodal error {err:.3e} > {NOISE_CLEAN_NODAL_MAX}"

    noisy = [a for a in amplitudes if a > 0 and a not in failed]
    if noisy:
        response = {a: (nodes[a]["u0"] - clean["u0"]) / a for a in noisy}
        ref = response[noisy[-1]]
        scale = float(np.abs(ref).max())
        for a in noisy:
            dev = float(np.abs(response[a] - ref).max())
            if not dev <= NOISE_LINEARITY_RTOL * scale:
                failed[a] = f"amplitude {a}: response differs by {dev / scale:.3e} relative"

    l2 = dict(zip(summary["amplitude"].tolist(), summary["l2"].tolist()))
    for prev, a in zip(amplitudes, amplitudes[1:]):
        if not l2.get(a, math.nan) > l2.get(prev, math.nan):
            failed.setdefault(a, f"amplitude {a}: L2 {l2.get(a)} not above {l2.get(prev)}")
    return failed


def check_table(table: dict[str, np.ndarray], problem: str, case: str,
                ladder: list[int]) -> dict[int, str]:
    """One convergence table: a finite row per mesh, exactness, last-step orders.

    Returns failures keyed by the row's n.
    """
    failed: dict[int, str] = {}
    rows = {int(n): j for j, n in enumerate(table.get("n", []))}
    for n in ladder:
        j = rows.get(n)
        if j is None:
            failed[n] = "row missing"
            continue
        values = [table[k][j] for k in NORM_COLUMNS]
        if not all(math.isfinite(v) for v in values):
            failed[n] = "row has no norms"
        elif problem == "quad" and not max(values) <= QUAD_NORM_MAX:
            failed[n] = f"quad not reproduced: max norm {max(values):.3e}"
    coarse, fine = ladder[-2], ladder[-1]
    if coarse in failed or fine in failed:
        return failed

    def order(key):
        e_coarse, e_fine = table[key][rows[coarse]], table[key][rows[fine]]
        return math.log2(e_coarse / e_fine) if e_coarse > 0 and e_fine > 0 else math.nan

    bands = []
    if case in WELL_POSED_CASES and problem != "quad":
        bands = [("h2", *H2_ORDER_BAND), ("l2", *L2_ORDER_BAND)]
    elif case == "case5":
        bands = [("h2", ILL_POSED_H2_ORDER_MIN, math.inf)]
    for key, lo, hi in bands:
        o = order(key)
        if not lo <= o <= hi:
            failed[fine] = f"{problem}/{case}: {key} order {o:.3f} outside [{lo}, {hi}]"
    return failed


def check_verify(returncode: int, stdout: str, expected: int) -> dict[int, str]:
    """`pdwg verify`: exit 0 and one PASS line per identity check.

    Returns failures keyed by check index; a missing line fails its check.
    """
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    failed = {}
    for i in range(expected):
        if i >= len(lines):
            failed[i] = "check missing"
        elif not lines[i].startswith("PASS"):
            failed[i] = lines[i]
    if returncode != 0 and not failed:
        failed = {i: f"verify exited {returncode}" for i in range(expected)}
    return failed
