"""The mesh's fill-reducing edge order and the statically pivoted factorization."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from afem import bench, ordering, solver
from afem.adapt import adaptive_loop
from afem.assembly import (
    SparseSystem,
    assemble_hybrid_mixed,
    assemble_mixed_direct,
    assemble_modified_ncfem,
    edge_system,
)
from afem.problem import benchmark, crack_start_mesh, lshape_start_mesh, project_p0
from afem.refine import uniform_red_refine

from oracles import kuhn_matching_size, reference_minimum_cover
from test_mesh import _rgb_mesh_with_green_and_blue


def _lshape_twice_refined():
    return uniform_red_refine(uniform_red_refine(lshape_start_mesh()))


def _adaptive_crack_mesh():
    meshes = []
    adaptive_loop(
        benchmark("crack"), mode="adaptive", max_ndof=3000,
        on_level=lambda level: meshes.append(level.pw.mesh),
    )
    assert meshes[-1].green_flag.any()
    return meshes[-1]


@pytest.mark.parametrize(
    "make", [_lshape_twice_refined, _adaptive_crack_mesh, _rgb_mesh_with_green_and_blue]
)
def test_separators_are_minimum_vertex_covers(monkeypatch, make):
    mesh = make()
    splits = []
    cover = ordering._minimum_cover

    def spy(low, up):
        sep = cover(low, up)
        splits.append((low, up, sep))
        return sep

    monkeypatch.setattr(ordering, "_minimum_cover", spy)
    order = ordering.nested_dissection(mesh)
    assert np.array_equal(np.sort(order), np.arange(mesh.num_edges))
    assert sum(len(low) for low, _, _ in splits) > 0
    # one call per depth covers the cut pairs of every split of that depth
    for low, up, sep in splits:
        assert np.all(np.isin(low, sep) | np.isin(up, sep))
        assert len(np.unique(sep)) == len(sep) == kuhn_matching_size(low, up)


@pytest.mark.parametrize(
    "make",
    [lshape_start_mesh, crack_start_mesh, _lshape_twice_refined,
     _adaptive_crack_mesh, _rgb_mesh_with_green_and_blue],
)
def test_edge_order_matches_reference_cover(monkeypatch, make):
    mesh = make()
    order = ordering.nested_dissection(mesh)
    monkeypatch.setattr(ordering, "_minimum_cover", reference_minimum_cover)
    assert np.array_equal(order, ordering.nested_dissection(mesh))


def test_edge_order_matches_reference_cover_on_every_crack_level(
    monkeypatch, crack_unchecked_120000
):
    levels, _ = crack_unchecked_120000
    monkeypatch.setattr(ordering, "_minimum_cover", reference_minimum_cover)
    for mesh, _ in levels:  # each edge_order was taken by the level's solve
        assert np.array_equal(mesh.edge_order, ordering.nested_dissection(mesh))


STATIC = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}


def _spy_splu(monkeypatch):
    calls = []
    splu = spla.splu

    def spy(matrix, **options):
        calls.append((matrix.shape[0], options))
        return splu(matrix, **options)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


def _colamd_solution(system):
    x, _ = solver._lu_solve(system.matrix, system.rhs)
    return system.full_solution(x)


def _capture_factored(monkeypatch):
    """Spy on ``solver.solve_sparse`` and ``splu``: ``(systems, factored)``,
    the systems solved and the ``(matrix, options)`` factored, in order."""
    systems, factored = [], []
    solve_sparse = solver.solve_sparse
    splu = spla.splu

    def capture(system):
        systems.append(system)
        return solve_sparse(system)

    def spy(matrix, **options):
        factored.append((matrix, options))
        return splu(matrix, **options)

    monkeypatch.setattr(solver, "solve_sparse", capture)
    monkeypatch.setattr(spla, "splu", spy)
    return systems, factored


def test_routes_factor_in_the_mesh_orders(monkeypatch):
    # every system is assembled in its elimination order and factored as it
    # is: both mixed routes and the plain nonconforming solve, each over the
    # interior edges in the mesh's edge order
    mesh = _lshape_twice_refined()
    inst = benchmark("lshape")
    pw = project_p0(inst.field, mesh)
    systems, factored = _capture_factored(monkeypatch)
    mixed = solver.solve_mixed_via_equivalence(pw).mixed
    direct = solver.solve_mixed_direct(pw)
    solver.solve_ncfem(project_p0(inst.field, mesh))
    assert len(factored) == len(systems) == 3
    for (matrix, options), system in zip(factored, systems):
        assert matrix is system.matrix
        assert options == STATIC
    recon, hybrid, plain = systems

    edge_order = mesh.edge_order
    assert np.array_equal(np.sort(edge_order), np.arange(mesh.num_edges))
    interior = edge_order[np.isin(edge_order, mesh.interior_edges)]
    assert np.array_equal(recon.free, interior)
    assert np.array_equal(plain.free, interior)
    assert np.array_equal(hybrid.free, interior)
    assert np.array_equal(hybrid.fixed, mesh.boundary_edges)
    assert max(solver.equivalence_residual(direct, mixed)) < 1e-10


def test_crack_direct_route_factors_interior_edges_in_edge_order(monkeypatch):
    # the hybridized system needs no reaction: with the crack's zero reaction
    # the direct route factors the interior edges in the mesh's edge order
    inst = benchmark("crack")
    mesh = uniform_red_refine(crack_start_mesh())
    pw = project_p0(inst.field, mesh)
    assert not pw.gamma_h.any()
    systems, factored = _capture_factored(monkeypatch)
    direct = solver.solve_mixed_direct(pw)
    ((matrix, options),) = factored
    (hybrid,) = systems
    assert matrix is hybrid.matrix and options == STATIC
    edge_order = mesh.edge_order
    interior = edge_order[np.isin(edge_order, mesh.interior_edges)]
    assert np.array_equal(hybrid.free, interior)
    mixed = solver.solve_mixed_via_equivalence(pw).mixed
    assert max(solver.equivalence_residual(direct, mixed)) < 1e-10


def _crack_saddle_system(levels):
    inst = benchmark("crack")
    mesh = crack_start_mesh()
    for _ in range(levels):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    assert not pw.gamma_h.any()  # zero reaction block
    return mesh, assemble_mixed_direct(pw)


def test_static_pivots_on_crack_match_colamd(monkeypatch):
    # the hybridized system of uniform crack level 3, zero reaction and all,
    # as solve_mixed_direct factors it
    inst = benchmark("crack")
    mesh = crack_start_mesh()
    for _ in range(3):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    assert not pw.gamma_h.any()
    local, load, _ = assemble_hybrid_mixed(pw)
    system = edge_system(pw, local, load)
    assert len(system.rhs) == len(mesh.interior_edges)
    expected = _colamd_solution(system)
    calls = _spy_splu(monkeypatch)
    report = solver.solve_sparse(system)
    assert calls == [(len(system.rhs), STATIC)]
    assert report.correction <= solver.FORWARD_TOL
    err = np.linalg.norm(report.solution - expected)
    assert err <= 1e-10 * np.linalg.norm(expected)


def test_near_resonant_level_is_trusted_on_static_pivots(monkeypatch):
    # gamma = 9.63 on uniform level 4: lambda_h = 9.618 is 0.012 away, so the
    # system is ill-conditioned but well posed, and its static solve accurate
    inst = benchmark("eigen_sweep", gamma=9.63)
    mesh = inst.start_mesh()
    for _ in range(4):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    system, *_ = assemble_modified_ncfem(pw)
    expected = _colamd_solution(system)
    calls = _spy_splu(monkeypatch)
    report = solver.solve_sparse(system)
    assert calls == [(9088, STATIC)]
    assert report.correction <= solver.FORWARD_TOL
    err = np.linalg.norm(report.solution - expected)
    assert err <= 1e-10 * np.linalg.norm(expected)
    history = adaptive_loop(inst, mode="uniform", max_ndof=16000)
    assert history.failure is None
    assert [rec.ndof for rec in history.records] == [68, 256, 992, 3904, 15488]


def test_singular_leading_block_falls_back_to_colamd(monkeypatch):
    # triangles first: with a zero reaction block the first pivot is zero
    mesh, saddle = _crack_saddle_system(1)
    ne, nt = mesh.num_edges, mesh.num_triangles
    matrix, rhs = saddle.in_dof_order()
    order = np.r_[np.arange(ne, ne + nt), np.arange(ne)]
    system = SparseSystem(
        matrix[np.ix_(order, order)], rhs[order], ndofs=ne + nt, free=order
    )
    expected = _colamd_solution(system)
    calls = _spy_splu(monkeypatch)
    report = solver.solve_sparse(system)
    assert calls == [(ne + nt, STATIC), (ne + nt, {})]
    assert np.array_equal(report.solution, expected)
    reference = solver.solve_sparse(saddle).solution
    err = np.linalg.norm(report.solution - reference)
    assert err <= 1e-10 * np.linalg.norm(reference)


def test_eigen_sweep_solves_its_gamma_12_start_level(monkeypatch):
    # with gamma = 12 on the start mesh, a leading block of the saddle-point
    # system with its scalars among the edges is exactly singular; the one
    # system the level factors is over its edges, on static pivots
    inst = benchmark("eigen_sweep", gamma=12.0)
    mesh = inst.start_mesh()
    calls = _spy_splu(monkeypatch)
    history = adaptive_loop(inst, mode="uniform", max_ndof=mesh.ndof_mixed)
    assert history.failure is None
    assert history.ndofs == [mesh.ndof_mixed]
    assert [options for _, options in calls] == [STATIC]


def test_mesh_orders_need_less_fill_than_colamd():
    # George's nested dissection bounds the fill of a regular mesh by
    # O(n log n); on 15,488 L-shape dofs both mixed routes' systems beat
    # COLAMD in it
    mesh = lshape_start_mesh()
    for _ in range(4):
        mesh = uniform_red_refine(mesh)
    inst = benchmark("lshape")
    pw = project_p0(inst.field, mesh)
    hybrid_local, hybrid_load, _ = assemble_hybrid_mixed(pw)
    hybrid = edge_system(pw, hybrid_local, hybrid_load)
    recon, *_ = assemble_modified_ncfem(pw)
    for system in (hybrid, recon):
        colamd = spla.splu(system.in_dof_order()[0])
        ordered = spla.splu(system.matrix, **STATIC)
        fill = ordered.L.nnz + ordered.U.nnz
        assert fill < 0.95 * (colamd.L.nnz + colamd.U.nnz)


def test_eigen_sweep_mesh_order_fills_less_than_colamd():
    # the modified nonconforming systems of the gamma = 8 uniform sweep,
    # levels 0-4 (at most 9,088 unknowns); the upper ends of the cut pairs
    # as separators filled 0.95 of COLAMD here
    inst = benchmark("eigen_sweep", gamma=8.0)
    mesh = inst.start_mesh()
    ordered = colamd = 0
    for _ in range(5):
        system, *_ = assemble_modified_ncfem(project_p0(inst.field, mesh))
        lu = spla.splu(system.matrix, **STATIC)
        ordered += lu.L.nnz + lu.U.nnz
        lu = spla.splu(system.in_dof_order()[0])
        colamd += lu.L.nnz + lu.U.nnz
        mesh = uniform_red_refine(mesh)
    assert ordered < 0.8 * colamd


def test_crack_adaptive_factors_once_in_order(tmp_path, monkeypatch):
    # the zero reaction of crack, factored once on static pivots on every
    # level
    calls = _spy_splu(monkeypatch)
    config = bench.ExperimentConfig(
        problem="crack", mode="adaptive", max_ndof=41536, out=str(tmp_path)
    )
    (history,) = bench.run_experiment(config, echo=lambda *_: None).histories.values()
    assert history.ndofs[-1] == 41536
    assert len(calls) == len(history.records)
    assert all(options == STATIC for _, options in calls)
