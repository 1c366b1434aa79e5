"""Boundary configurations that do not determine u must end in SingularSystem.

These pin the outcome of the solver's singularity gate, independent of how
the system is factored: the configurations below leave the discrete problem
singular at every mesh size, while case5 at n = 1 and figures at n = 2 are
nonsingular although a factor without pivoting breaks down on them.
"""

import numpy as np
import pytest

from pdwg.assembly import build_saddle_system
from pdwg.linsolve import SingularSystem, factor_and_solve
from pdwg.mesh import BoundarySegmentSpec, build_uniform_unit_square, classify_boundary
from pdwg.problems import get_problem

from conftest import tags_for

SINGULAR_CONFIGURATIONS = {
    "data_free": [],
    "neumann_all_sides": [
        BoundarySegmentSpec(side=side, has_dirichlet=False, has_neumann=True)
        for side in ("bottom", "right", "top", "left")
    ],
    "dirichlet_bottom_only": [
        BoundarySegmentSpec(side="bottom", has_dirichlet=True, has_neumann=False)
    ],
    "neumann_bottom_only": [
        BoundarySegmentSpec(side="bottom", has_dirichlet=False, has_neumann=True)
    ],
}


@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("config", sorted(SINGULAR_CONFIGURATIONS))
def test_undetermined_configurations_raise_singular(config, n):
    mesh = build_uniform_unit_square(n)
    tags = classify_boundary(mesh, SINGULAR_CONFIGURATIONS[config])
    system = build_saddle_system(mesh, tags, get_problem("sinsin"))
    with pytest.raises(SingularSystem):
        factor_and_solve(system)


@pytest.mark.parametrize("case, n", [("case5", 1), ("figures", 2)])
def test_nonsingular_cases_where_unpivoted_factor_breaks_down(case, n):
    mesh = build_uniform_unit_square(n)
    system = build_saddle_system(mesh, tags_for(mesh, case), get_problem("sinsin"))
    solution = factor_and_solve(system)
    assert solution.residual_inf <= 1e-10 * max(1.0, np.abs(system.rhs).max())
