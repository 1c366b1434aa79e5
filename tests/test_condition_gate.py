"""The condensed factor's gate: solves only, never the factor's L or U.

Reading L or U of a SuperLU factor makes it build and keep CSC copies of
both, so a solve must work with a factor whose L and U cannot be read.  The
condition estimate must separate the singular configurations from the
ill-posed but solvable ones on fine meshes, and the one threshold-pivoting
factor must pass on the meshes where a factor without pivoting breaks down.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdwg.assembly import assemble_matrix, assemble_rhs
from pdwg.harness import Reference, case_matrix, case_pivots, run_noise_study, solve_single
from pdwg.linsolve import (
    COND_MAX,
    DIAG_PIVOT_THRESH,
    SingularSystem,
    _condition_estimate,
    factor_and_solve,
    pivot_report,
    saddle_factor,
)
from pdwg.mesh import build_uniform_unit_square, classify_boundary
from pdwg.problems import get_problem

from conftest import tags_for


class FactorWithoutLU:
    """A SuperLU factor whose L and U raise when read."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._lu.solve(*args, **kwargs)

    @property
    def L(self):
        raise AssertionError("the factor's L was read")

    @property
    def U(self):
        raise AssertionError("the factor's U was read")


@pytest.fixture
def splu_without_lu(monkeypatch):
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: FactorWithoutLU(splu(*a, **k)))


def test_solves_never_read_l_or_u(splu_without_lu):
    mesh = build_uniform_unit_square(8)
    matrix = case_matrix("case1", mesh)
    solution = Reference(get_problem("sinsin"), mesh).solve(matrix, saddle_factor(matrix))
    assert 0.0 < solution.condition <= COND_MAX

    study = run_noise_study("coscos", "figures", 4, [0.0, 0.01])
    assert [row.error for row in study.rows] == ["", ""]
    assert all(row.report is not None for row in study.rows)

    solution, _, _ = solve_single("sinsin", "case2", 4)
    assert 0.0 < solution.condition <= COND_MAX


def test_one_shot_solve_never_reads_l_or_u(splu_without_lu):
    mesh = build_uniform_unit_square(4)
    system = assemble_rhs(assemble_matrix(mesh, tags_for(mesh, "case5")), get_problem("sinsin"))
    solution = factor_and_solve(system)
    assert 0.0 < solution.condition <= COND_MAX


def test_pivot_report_on_request_matches_one_shot_factor():
    # case_pivots factors the case again: the same bits as a solve's factor
    solution, _, _ = solve_single("sinsin", "case5", 8)
    mesh = build_uniform_unit_square(8)
    system = assemble_rhs(assemble_matrix(mesh, tags_for(mesh, "case5")), get_problem("sinsin"))
    pivots = pivot_report(saddle_factor(system).lu)
    assert case_pivots("case5", build_uniform_unit_square(8)) == pivots
    assert 0.0 < pivots.ratio < 1.0
    assert solution.condition == factor_and_solve(system).condition


@pytest.mark.parametrize("case, n", [("case1", 2), ("case5", 4), ("figures", 4)])
def test_condition_estimate_bounds_exact_condition_from_below(case, n):
    mesh = build_uniform_unit_square(n)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, case)))
    M, keep, flux, s = factor.M, factor.keep, factor.flux, factor.s
    K = M[keep][:, keep] - M[keep][:, flux] @ sp.diags(factor.inv_d) @ M[flux][:, keep]
    K = (sp.diags(s) @ K @ sp.diags(s)).toarray()
    exact = np.linalg.cond(K, 1)
    # Hager's estimate is a lower bound, and rarely off by more than a few
    assert exact / 10 <= factor.condition <= exact * (1 + 1e-8)


def bidiagonal(n):
    """Unit upper bidiagonal with -2 above the diagonal: (A^-1)_ij = 2^(j-i)."""
    return sp.diags([np.ones(n), -2.0 * np.ones(n - 1)], [0, 1]).tocsc()


def test_estimate_takes_the_column_the_transposed_solve_points_to():
    # K^-1 (1/n) alone underestimates kappa_1 here by a factor of about n/2
    n = 30
    A = bidiagonal(n)
    estimate = _condition_estimate(spla.splu(A), A, 3.0, 3.0)
    assert estimate == pytest.approx(np.linalg.cond(A.toarray(), 1), rel=1e-12)


def test_factor_of_another_matrix_is_a_breakdown():
    A = bidiagonal(6)
    wrong = spla.splu(sp.identity(6, format="csc"))
    with pytest.raises(SingularSystem, match="backward error"):
        _condition_estimate(wrong, A, 3.0, 3.0)


def test_singular_margin_at_n64():
    mesh = build_uniform_unit_square(64)
    with pytest.raises(SingularSystem, match="condition estimate"):
        saddle_factor(assemble_matrix(mesh, classify_boundary(mesh, [])))


def test_ill_posed_margin_at_n64():
    mesh = build_uniform_unit_square(64)
    system = assemble_rhs(assemble_matrix(mesh, tags_for(mesh, "figures")),
                          get_problem("sinsin"))
    solution = factor_and_solve(system)
    assert solution.residual_inf <= 1e-10 * max(1.0, np.abs(system.rhs).max())
    # about 1.6e12; the growth to n = 256 (about 40x per halving) stays below COND_MAX
    assert solution.condition * 40**2 < COND_MAX


@pytest.mark.parametrize("case, n, kappa", [("case5", 1, 2.4e2), ("figures", 2, 4.7e4)])
def test_breakdown_mesh_passes_with_one_threshold_pivoting_factor(case, n, kappa, monkeypatch):
    # a factor of K without pivoting breaks down on these two meshes
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    mesh = build_uniform_unit_square(n)
    factor = saddle_factor(assemble_matrix(mesh, tags_for(mesh, case)))
    assert len(calls) == 1
    assert calls[0]["diag_pivot_thresh"] == DIAG_PIVOT_THRESH
    assert factor.condition <= COND_MAX
    # the margin table of pdwg.linsolve
    assert factor.condition == pytest.approx(kappa, rel=0.05)
