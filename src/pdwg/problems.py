"""Manufactured solutions, boundary-configuration cases, and data noise.

The noise model perturbs each boundary data sample by a*(0.5 - r) with r
uniform in (0, 1).  Draws come from numpy's PCG64 generator (a fixed,
documented 128-bit-state/64-bit-output algorithm, deliberately not the
platform default RNG) seeded from NoiseSpec.seed, so a study is bit-for-bit
reproducible given the seed.  The draws depend on the seed alone, not on
the amplitude, so the noise of amplitude a is a times one unit
perturbation 0.5 - r per seed; the studies solve for that perturbation
once (``pdwg.assembly.noise_response``) and add a times its solution to
the clean one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pdwg.mesh import BoundarySegmentSpec

DEFAULT_NOISE_SEED = 42


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed forms of an exact solution: u, grad u and f = Lap u."""

    name: str
    u: Callable
    grad_u: Callable
    f: Callable


@dataclass(frozen=True)
class CaseConfig:
    """A named boundary configuration (list of segment specs)."""

    name: str
    segments: tuple[BoundarySegmentSpec, ...]


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitude and seed of the boundary-data perturbation a*(0.5 - r)."""

    amplitude: float = 0.0
    seed: int = DEFAULT_NOISE_SEED

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"noise amplitude must be finite and >= 0, got {self.amplitude}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


def perturb(values: np.ndarray, spec: NoiseSpec, rng: np.random.Generator | None = None):
    """Perturb data samples in array order: value += a*(0.5 - r).

    ``rng`` threads one PCG64 stream across several calls (the caller fixes
    the documented draw order); by default a fresh stream is seeded from
    ``spec.seed``.  Amplitude 0 returns the input values bit-exactly.
    """
    values = np.asarray(values, dtype=float)
    if spec.amplitude == 0.0:
        return values.copy()
    if rng is None:
        rng = spec.generator()
    r = rng.random(values.shape)
    return values + spec.amplitude * (0.5 - r)


def catalog() -> dict[str, ManufacturedSolution]:
    """The four reference solutions on the unit square."""
    quad = ManufacturedSolution(
        name="quad",
        u=lambda x, y: x**2 + y**2 - 10.0 * x * y,
        grad_u=lambda x, y: (2.0 * x - 10.0 * y, 2.0 * y - 10.0 * x),
        f=lambda x, y: 4.0 + 0.0 * x,
    )
    sinsin = ManufacturedSolution(
        name="sinsin",
        u=lambda x, y: np.sin(x) * np.sin(y),
        grad_u=lambda x, y: (np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)),
        f=lambda x, y: -2.0 * np.sin(x) * np.sin(y),
    )
    coscos = ManufacturedSolution(
        name="coscos",
        u=lambda x, y: np.cos(x) * np.cos(y),
        grad_u=lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)),
        f=lambda x, y: -2.0 * np.cos(x) * np.cos(y),
    )
    bubble = ManufacturedSolution(
        name="bubble",
        u=lambda x, y: 30.0 * x * y * (1.0 - x) * (1.0 - y),
        grad_u=lambda x, y: (
            30.0 * (1.0 - 2.0 * x) * (y - y**2),
            30.0 * (1.0 - 2.0 * y) * (x - x**2),
        ),
        f=lambda x, y: 60.0 * (y**2 - y + x**2 - x),
    )
    return {p.name: p for p in (quad, sinsin, coscos, bubble)}


def get_problem(name: str) -> ManufacturedSolution:
    problems = catalog()
    if name not in problems:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(problems)}")
    return problems[name]


def _seg(side, d=False, n=False, lo=0.0, hi=1.0):
    return BoundarySegmentSpec(side=side, has_dirichlet=d, has_neumann=n, lo=lo, hi=hi)


def case_configs() -> dict[str, CaseConfig]:
    """The named boundary configurations used by the convergence studies.

    case1: Cauchy on bottom and right, Dirichlet on left, Neumann on top.
    case2: Dirichlet on bottom/left, Neumann on right/top (well-posed mixed).
    case3: Cauchy on bottom, Dirichlet on left, Neumann on top.
    case4: Cauchy on left and right only.
    case5: Cauchy on bottom only.
    figures: Cauchy on the sub-interval (0, 0.5) of the bottom side only.
    """
    cases = [
        CaseConfig(
            "case1",
            (
                _seg("bottom", d=True, n=True),
                _seg("right", d=True, n=True),
                _seg("left", d=True),
                _seg("top", n=True),
            ),
        ),
        CaseConfig(
            "case2",
            (
                _seg("bottom", d=True),
                _seg("left", d=True),
                _seg("right", n=True),
                _seg("top", n=True),
            ),
        ),
        CaseConfig(
            "case3",
            (
                _seg("bottom", d=True, n=True),
                _seg("left", d=True),
                _seg("top", n=True),
            ),
        ),
        CaseConfig(
            "case4",
            (
                _seg("left", d=True, n=True),
                _seg("right", d=True, n=True),
            ),
        ),
        CaseConfig("case5", (_seg("bottom", d=True, n=True),)),
        CaseConfig("figures", (_seg("bottom", d=True, n=True, lo=0.0, hi=0.5),)),
    ]
    return {c.name: c for c in cases}


def get_case(name: str) -> CaseConfig:
    cases = case_configs()
    if name not in cases:
        raise KeyError(f"unknown case {name!r}; known: {sorted(cases)}")
    return cases[name]
