"""The operators built once per mesh and shared by every case and problem on it.

The saddle matrix W = [S B^T; B 0], the normal-derivative maps, the element
P2 geometry and the triangle-rule points depend on the mesh alone.  Sharing
them must change no bit of any result, each must be built once per mesh,
every shared array must be read-only, and a one-case solve must hold none of
them through its factor.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pdwg.assembly as assembly
import pdwg.harness as harness
import pdwg.linsolve as linsolve
import pdwg.verify as verify
from pdwg.assembly import assemble_matrix
from pdwg.harness import Reference, case_matrix, run_benchmark_tables, solve_single
from pdwg.mesh import build_uniform_unit_square
from pdwg.polyspace import DEFAULT_TRI_DEGREE
from pdwg.problems import case_configs, get_problem

from conftest import tags_for

BUILDERS = ("assemble_stabilizer", "constraint_matrix", "normal_mismatch_maps")


@pytest.fixture
def builds(monkeypatch):
    """Calls of the mesh-only builders, counted through their module attribute."""
    counts = dict.fromkeys(BUILDERS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(assembly, name, counted(name, getattr(assembly, name)))
    return counts


def shared_arrays(mesh):
    for value in mesh.operators.values():
        if sp.issparse(value):
            yield from (value.data, value.indices, value.indptr)
        else:
            yield value


def test_shared_rows_equal_solves_on_fresh_meshes():
    problems_by_case = {"case1": ["sinsin", "coscos", "quad"],
                        "case2": ["sinsin", "bubble"],
                        "case5": ["coscos", "sinsin"]}
    tables = harness._convergence_tables(problems_by_case, [4, 8], DEFAULT_TRI_DEGREE)
    assert len(tables) == 7
    for (problem, case), table in tables.items():
        assert [row.n for row in table.rows] == [4, 8]
        for row in table.rows:
            _, report, _ = solve_single(problem, case, row.n)
            assert row.report.as_dict() == report.as_dict(), (problem, case, row.n)


def assert_same_bits(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def test_cases_on_one_mesh_share_s_and_b_and_keep_their_bits():
    # every case is cut from the mesh's one W, which holds S and B
    mesh = build_uniform_unit_square(8)
    matrices = {case: assemble_matrix(mesh, tags_for(mesh, case))
                for case in ("case1", "case2", "case5")}
    W = mesh.operators["W"]
    n = assembly.num_primal(mesh)
    assert_same_bits(W[:n, :n], assembly.assemble_stabilizer(mesh))
    assert_same_bits(W[n:, :n], assembly.constraint_matrix(mesh))
    assert assembly.saddle_operator(mesh) is W
    for case, matrix in matrices.items():
        fresh_mesh = build_uniform_unit_square(8)
        fresh = assemble_matrix(fresh_mesh, tags_for(fresh_mesh, case))
        for name in ("S", "B", "C", "M"):
            assert_same_bits(getattr(matrix, name), getattr(fresh, name))


@pytest.mark.parametrize("case, n", [(case, n) for n in (1, 4, 8) for case in sorted(case_configs())
                                     if (case, n) != ("figures", 1)])  # figures needs n even
def test_case_cut_matches_blocks_of_s_and_b(case, n):
    # M and C built independently, from the free and constrained blocks of S and B
    mesh = build_uniform_unit_square(n)
    system = assemble_matrix(mesh, tags_for(mesh, case))
    S, B = system.S, system.B
    free, con = system.free, system.constrained
    M = sp.bmat([[S[free][:, free], B[:, free].T], [B[:, free], None]])
    assert_same_bits(system.M, M.tocsr())
    assert_same_bits(system.C, sp.vstack([-S[free][:, con], B[:, con]]).tocsr())


def test_benchmark_tables_build_each_operator_once_per_mesh(tmp_path, builds):
    # 12 tables on 5 cases over 5 meshes: one W, from one S and one B, per mesh
    run_benchmark_tables(tmp_path, n_list=[1, 2, 4, 8, 16])
    assert builds == dict.fromkeys(BUILDERS, 5)


def test_standard_checks_build_each_operator_once_per_mesh(builds):
    # case1 on n = 2..32 and case2 on n = 8, 16, 32 share five meshes
    assert verify.run_standard_checks().ok
    assert builds == dict.fromkeys(BUILDERS, 5)


def test_shared_arrays_are_read_only():
    mesh = build_uniform_unit_square(4)
    ref = Reference(get_problem("sinsin"), mesh)
    for case in ("case1", "case2"):
        matrix = case_matrix(case, mesh)
        ref.measure(ref.solve(matrix, linsolve.saddle_factor(matrix)), matrix.tags)
    assert set(mesh.operators) == {"W", "normal_maps", "p2_dofs", "bary_gradients",
                                   "p2_laplacians", ("points", DEFAULT_TRI_DEGREE)}
    arrays = list(shared_arrays(mesh))
    assert len(arrays) == 5 + 3
    assert not any(arr.flags.writeable for arr in arrays)
    projection = ref.projection
    assert projection.normal_maps is mesh.operators["normal_maps"]
    assert projection.p2_dofs is mesh.operators["p2_dofs"]
    assert projection.p2_lap is mesh.operators["p2_laplacians"]
    with pytest.raises(ValueError, match="read-only"):
        mesh.operators["W"].data[0] = 0.0


def test_cleared_operators_are_built_again_with_the_same_bits():
    mesh = build_uniform_unit_square(4)
    assemble_matrix(mesh, tags_for(mesh, "case1"))
    before = {key: (value.toarray() if sp.issparse(value) else np.array(value))
              for key, value in mesh.operators.items()}
    mesh.operators.clear()
    assemble_matrix(mesh, tags_for(mesh, "case1"))
    assert set(mesh.operators) == set(before)
    for key, value in mesh.operators.items():
        again = value.toarray() if sp.issparse(value) else value
        assert np.array_equal(again, before[key]), key


@pytest.fixture
def built_meshes(monkeypatch):
    """Every mesh that the harness and the checks build."""
    built = []

    def build(n):
        built.append(build_uniform_unit_square(n))
        return built[-1]

    monkeypatch.setattr(harness, "build_uniform_unit_square", build)
    monkeypatch.setattr(verify, "build_uniform_unit_square", build)
    return built


def test_one_case_solves_hold_no_operator_through_the_factor(monkeypatch, built_meshes):
    held = []
    factor = spla.splu

    def splu(*args, **kwargs):
        held.append(len(built_meshes[-1].operators))
        return factor(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    solve_single("sinsin", "case1", 8)
    harness.run_noise_study("coscos", "figures", 8, [0.0, 0.01])
    harness.run_convergence("sinsin", "case2", [2, 4])
    assert held == [0, 0, 0, 0]


@pytest.fixture
def mesh_matrices(monkeypatch):
    """Weak references to every S, B and W that assembly builds."""
    made = {name: [] for name in ("assemble_stabilizer", "constraint_matrix", "saddle_operator")}

    def tracked(name, fn):
        def build(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            made[name].append(weakref.ref(matrix))
            return matrix
        return build

    for name in made:
        monkeypatch.setattr(assembly, name, tracked(name, getattr(assembly, name)))
    return made


def alive_at_each_factor(monkeypatch, made):
    """Per splu call, how many distinct matrices of each kind of ``made`` are alive."""
    alive = []
    factor = spla.splu

    def splu(*args, **kwargs):
        gc.collect()
        alive.append({name: len({id(ref()) for ref in refs if ref() is not None})
                      for name, refs in made.items()})
        return factor(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    return alive


def test_one_case_solves_hold_no_mesh_matrix_through_the_factor(monkeypatch, mesh_matrices):
    alive = alive_at_each_factor(monkeypatch, mesh_matrices)
    solve_single("sinsin", "case1", 8)
    harness.run_noise_study("coscos", "figures", 8, [0.0, 0.01])
    assert len(alive) == 2
    assert all(counts == dict.fromkeys(mesh_matrices, 0) for counts in alive)


def test_cases_on_a_mesh_hold_only_w_through_their_factors(monkeypatch, mesh_matrices):
    # W replaces S and B: it is the one mesh matrix alive until the last case
    alive = alive_at_each_factor(monkeypatch, mesh_matrices)
    harness._convergence_tables({"case1": ["sinsin"], "case2": ["sinsin"],
                                 "case5": ["coscos"]}, [4], DEFAULT_TRI_DEGREE)
    none = dict.fromkeys(mesh_matrices, 0)
    assert alive == [{**none, "saddle_operator": 1}] * 2 + [none]


def test_no_factor_is_held_through_the_next_case_assembly(tmp_path, monkeypatch):
    factors, alive = [], []
    factor, assemble = harness.saddle_factor, harness.assemble_matrix

    def tracked(matrix):
        made = factor(matrix)
        factors.append(weakref.ref(made))
        return made

    def checked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in factors))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(harness, "saddle_factor", tracked)
    monkeypatch.setattr(harness, "assemble_matrix", checked)
    run_benchmark_tables(tmp_path, n_list=[2, 4])
    # five cases on each of two meshes
    assert len(factors) == 10
    assert alive == [0] * 10


class WeakLU:
    """A SuperLU object behind a wrapper that a weak reference can follow."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_case2_pivots_are_read_with_nothing_else_held(monkeypatch, built_meshes):
    # reading U makes SuperLU keep copies of L and U, so no factor that
    # read them outlives its check, and no operator, nor any CondensedFactor,
    # is held while U is read
    read, held, alive, factors, factors_alive = [], [], [], [], []
    pivot_report, factor, condensed = verify.pivot_report, spla.splu, verify.saddle_factor

    def pivots(lu):
        held.append({mesh.n: len(mesh.operators) for mesh in built_meshes if mesh.n >= 8})
        factors_alive.append(sum(r() is not None for r in factors))
        read.append(weakref.ref(lu))
        return pivot_report(lu)

    def splu(*args, **kwargs):
        alive.append(sum(r() is not None for r in read))
        return WeakLU(factor(*args, **kwargs))

    def saddle_factor(matrix):
        made = condensed(matrix)
        factors.append(weakref.ref(made))
        return made

    monkeypatch.setattr(verify, "pivot_report", pivots)
    monkeypatch.setattr(verify, "saddle_factor", saddle_factor)
    monkeypatch.setattr(spla, "splu", splu)
    assert verify.run_standard_checks().ok
    assert len(held) == 3 and held[-1] == {8: 0, 16: 0, 32: 0}
    assert alive == [0] * 7
    assert len(factors) == 7 and factors_alive == [0, 0, 0]
