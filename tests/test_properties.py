"""Properties of the assembled system over random boundary configurations.

Each configuration is up to four axis-aligned segments with endpoints on
multiples of 1/n, n <= 8, carrying Dirichlet data, Neumann data, both or
neither.  Many of them leave u undetermined; those must end in
SingularSystem, never in another exception.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pdwg.assembly import (apply_boundary_conditions, assemble_matrix, assemble_rhs,
                           assemble_stabilizer, flux_dofs, mismatch_operator, num_primal,
                           join_primal, tri_p2_dofs)
from pdwg.linsolve import (BERR_MAX, COND_MAX, SingularSystem, _condition_estimate,
                           factor_and_solve, saddle_factor)
from pdwg.mesh import BoundarySegmentSpec, build_uniform_unit_square, classify_boundary
from pdwg.problems import NoiseSpec, get_problem
from pdwg.verify import check_infsup

# Bounded and derandomized so that the suite stays fast and reproducible:
# 15 examples per property, or the budget of the "properties" profile
# (tests/conftest.py) when HYPOTHESIS_PROFILE selects it.
PROPERTY_SETTINGS = settings(
    max_examples=(settings().max_examples
                  if settings.get_current_profile_name() == "properties" else 15),
    deadline=None, derandomize=True, database=None)


@st.composite
def segment(draw, n):
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    return BoundarySegmentSpec(
        side=draw(st.sampled_from(("bottom", "top", "left", "right"))),
        has_dirichlet=draw(st.booleans()),
        has_neumann=draw(st.booleans()),
        lo=lo / n,
        hi=hi / n,
    )


@st.composite
def configuration(draw):
    n = draw(st.integers(1, 8))
    specs = draw(st.lists(segment(n), max_size=4))
    mesh = build_uniform_unit_square(n)
    return mesh, classify_boundary(mesh, specs)


@PROPERTY_SETTINGS
@given(configuration())
def test_partition_matches_the_tags(config):
    mesh, tags = config
    matrix = assemble_matrix(mesh, tags)
    free, constrained = matrix.free, matrix.constrained
    assert np.all(np.diff(free) > 0) and np.all(np.diff(constrained) > 0)
    assert not np.intersect1d(free, constrained).size
    assert np.array_equal(np.union1d(free, constrained), np.arange(num_primal(mesh)))

    # oracle: the vertices and midpoint of every Dirichlet edge, then both
    # flux dofs of every Neumann edge, numbered by hand from mesh.edges
    V, E = mesh.num_vertices, mesh.num_edges
    want = set()
    for e, (a, b) in enumerate(mesh.edges):
        if tags.dirichlet[e]:
            want |= {int(a), int(b), V + e}
        if tags.neumann[e]:
            want |= {V + E + 2 * e, V + E + 2 * e + 1}
    assert constrained.tolist() == sorted(want)
    assert free[matrix.free_flux].tolist() == [i for i in free.tolist() if i >= V + E]

    g = apply_boundary_conditions(get_problem("sinsin"), matrix)
    assert not np.any(g[free])


@PROPERTY_SETTINGS
@given(configuration())
def test_saddle_matrix_is_exactly_symmetric(config):
    M = assemble_matrix(*config).M
    assert abs(M - M.T).max() == 0.0


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(0, 2**63 - 1))
def test_stabilizer_is_the_gram_matrix_of_the_mismatch_map(n, seed):
    mesh = build_uniform_unit_square(n)
    S, Gs, N = assemble_stabilizer(mesh), mismatch_operator(mesh), num_primal(mesh)
    assert abs(S - S.T).max() == 0.0

    # S stores nothing outside the blocks of each edge: the P2 dofs of one
    # of its elements with the edge's fluxes.  It leaves out block entries
    # that are zero, such as the edge's two fluxes against each other.
    e, side = np.nonzero(mesh.edge_tris >= 0)
    blocks = np.concatenate([tri_p2_dofs(mesh)[mesh.edge_tris[e, side]], flux_dofs(mesh, e)],
                            axis=1)
    patch = (blocks[:, :, None] * N + blocks[:, None, :]).ravel()
    stored = np.repeat(np.arange(N), np.diff(S.indptr)) * N + S.indices
    assert np.isin(stored, patch).all()

    v = np.random.default_rng(seed).standard_normal(N)
    gram = np.sum((Gs @ v) ** 2)
    assert abs(v @ (S @ v) - gram) <= 1e-12 * gram


@PROPERTY_SETTINGS
@given(configuration())
def test_stabilizer_is_positive_semidefinite(config):
    # S does not depend on the tags; its free block, the one in M, does.  A
    # configuration without Dirichlet data leaves every unknown free.
    matrix = assemble_matrix(*config)
    free = matrix.free
    eig = np.linalg.eigvalsh(matrix.S[free][:, free].toarray())
    assert eig[0] >= -1e-12 * np.abs(eig).max()


@PROPERTY_SETTINGS
@given(configuration())
def test_solve_passes_residual_check_or_raises_singular(config):
    system = assemble_rhs(assemble_matrix(*config), get_problem("sinsin"))
    try:
        solution = factor_and_solve(system)
    except SingularSystem:
        return
    x = np.concatenate([join_primal(solution.u0, solution.un)[system.free], solution.lam])
    residual = np.abs(system.M @ x - system.rhs).max()
    assert residual == solution.residual_inf
    # the backward error residual / (||M||_inf ||x||_inf + ||rhs||_inf), without a 0/0
    norm_M = abs(system.M).sum(axis=1).max()
    assert residual <= BERR_MAX * (norm_M * np.abs(x).max() + np.abs(system.rhs).max())


@PROPERTY_SETTINGS
@given(configuration())
def test_one_threshold_pivoting_factor_solves_what_the_unpivoted_factor_or_a_pivoting_one_did(
        config):
    # K as tests/test_kernel_oracles.py forms it: condensed, then scaled symmetrically
    matrix = assemble_matrix(*config)
    M, flux = matrix.M, matrix.free_flux
    keep = np.setdiff1d(np.arange(M.shape[0]), flux)
    K = M[keep][:, keep] - M[keep][:, flux] @ sp.diags(1.0 / M.diagonal()[flux]) @ M[flux][:, keep]
    row_max = abs(K).max(axis=1).toarray().ravel()
    try:
        factor = saddle_factor(matrix)
    except SingularSystem:
        factor = None
    if not np.all(row_max > 0.0):  # a zero row: singular
        assert factor is None
        return
    s = 1.0 / np.sqrt(row_max)
    K = (sp.diags(s) @ K @ sp.diags(s)).tocsc()
    norm_1, norm_inf = abs(K).sum(axis=0).max(), abs(K).sum(axis=1).max()

    def gate(options):
        """The SuperLU factor of K with these options, its condition estimate
        and whether it broke down; None for the factor if SuperLU refuses K."""
        try:
            lu = spla.splu(K, **options)
            return lu, _condition_estimate(lu, K, norm_1, norm_inf), False
        except RuntimeError:
            return None, np.inf, True
        except SingularSystem:
            return lu, np.inf, True

    unpivoted, kappa, breakdown = gate(dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                            options={"SymmetricMode": True}))
    if breakdown:  # the oracle: COLAMD order and partial pivoting
        pivoted, kappa, _ = gate({})
    if factor is None:  # the unpivoted factor, or after its breakdown the oracle, fails too
        assert not kappa <= COND_MAX
        return
    b = np.random.default_rng(len(keep)).standard_normal(len(keep))
    x = factor.lu.solve(b)
    if not breakdown:
        assert np.array_equal(x, unpivoted.solve(b))
    elif pivoted is not None:
        want = pivoted.solve(b)
        assert np.abs(x - want).max() <= 1e-13 * factor.condition * np.abs(want).max()


@PROPERTY_SETTINGS
@given(configuration(), st.integers(0, 2**63 - 1))
def test_zero_amplitude_noise_is_bit_exact(config, seed):
    matrix = assemble_matrix(*config)
    problem = get_problem("coscos")
    try:
        clean = factor_and_solve(assemble_rhs(matrix, problem))
    except SingularSystem:
        return
    noise = NoiseSpec(amplitude=0.0, seed=seed)
    noisy = factor_and_solve(assemble_rhs(matrix, problem, noise=noise))
    for a, b in ((clean.u0, noisy.u0), (clean.un, noisy.un), (clean.lam, noisy.lam)):
        assert np.array_equal(a, b)


@PROPERTY_SETTINGS
@given(configuration())
def test_quadratics_are_exact_where_the_gate_accepts(config):
    mesh, tags = config
    quad = get_problem("quad")
    try:
        solution = factor_and_solve(assemble_rhs(assemble_matrix(mesh, tags), quad))
    except SingularSystem:
        return
    coords = mesh.p2_node_coords
    err = np.abs(solution.u0 - quad.u(coords[:, 0], coords[:, 1])).max()
    # exact up to the roundoff a backward-stable solve leaves: on ill-posed
    # configurations (condition estimates up to about 1e9 at n <= 8) that is
    # above 1e-10; over 300 examples err stayed below 1.4 * condition * eps
    tol = max(1e-10, 10 * solution.condition * np.finfo(float).eps)
    assert err <= tol
    assert np.abs(solution.lam).max() <= tol


@PROPERTY_SETTINGS
@given(configuration())
def test_infsup_identity_holds_on_every_configuration(config):
    # (weak_lap v*, lam) = ||lam||_0h^2 for the witness v*, whatever the tags
    assert check_infsup(*config, n_samples=5)["max_rel_discrepancy"] <= 1e-12
