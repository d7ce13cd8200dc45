"""The mesh's fill-reducing orders and the statically pivoted factorization."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from afem import bench, ordering, solver
from afem.adapt import adaptive_loop
from afem.assembly import assemble_mixed_direct, assemble_modified_ncfem
from afem.mesh import build_mesh
from afem.assembly import SparseSystem
from afem.ordering import saddle_order
from afem.problem import benchmark, crack_start_mesh, lshape_start_mesh, project_p0
from afem.refine import uniform_red_refine

from oracles import kruskal_tree_edges, kuhn_matching_size, reference_minimum_cover
from test_assembly import make_field
from test_mesh import _rgb_mesh_with_green_and_blue


def _lshape_twice_refined():
    return uniform_red_refine(uniform_red_refine(lshape_start_mesh()))


def _adaptive_crack_mesh():
    meshes = []
    adaptive_loop(
        benchmark("crack"), mode="adaptive", max_ndof=3000,
        on_level=lambda pw, *_: meshes.append(pw.mesh),
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


def _unlinked_patches(mesh, tri_done, edge_done):
    """Patches of eliminated triangles, connected through eliminated edges,
    that have no eliminated edge to the boundary or to a live triangle."""
    nt = mesh.num_triangles
    et = mesh.edge_tris
    side_done = np.where(et >= 0, tri_done[np.maximum(et, 0)], False)
    link = edge_done & side_done.all(axis=1)
    graph = sp.coo_matrix((np.ones(link.sum()), (et[link, 0], et[link, 1])), (nt, nt))
    _, patch = connected_components(graph, directed=False)
    outlet = edge_done & (side_done.sum(axis=1) == 1)
    inside = np.where(side_done[outlet, 0], et[outlet, 0], et[outlet, 1])
    outlets = np.bincount(patch[inside], minlength=nt)
    return set(patch[tri_done & (outlets[patch] == 0)].tolist())


@pytest.mark.parametrize(
    "make", [_lshape_twice_refined, crack_start_mesh, _rgb_mesh_with_green_and_blue]
)
def test_saddle_order_keeps_every_patch_linked(make):
    mesh = make()
    ne, nt = mesh.num_edges, mesh.num_triangles
    order = saddle_order(mesh)
    assert np.array_equal(np.sort(order), np.arange(ne + nt))
    assert np.array_equal(order[order < ne], mesh.edge_order)
    position = np.empty(ne + nt, dtype=np.int64)
    position[order] = np.arange(ne + nt)
    # each triangle follows at least one of its edges
    first_edge = position[mesh.triangle_edges].min(axis=1)
    assert np.all(position[ne:] > first_edge)
    # edges only add outlets or join linked patches, so checking after each
    # triangle checks every prefix
    for i in np.flatnonzero(order >= ne):
        done = position <= i
        assert not _unlinked_patches(mesh, done[ne:], done[:ne]), i


@pytest.mark.parametrize(
    "make", [_lshape_twice_refined, crack_start_mesh, _rgb_mesh_with_green_and_blue]
)
def test_saddle_order_follows_the_kruskal_tree(make):
    mesh = make()
    ne, nt = mesh.num_edges, mesh.num_triangles
    order = saddle_order(mesh)
    position = np.empty(ne + nt, dtype=np.int64)
    position[order] = np.arange(ne + nt)
    tree_edge = kruskal_tree_edges(mesh)
    assert np.array_equal(position[ne:], position[tree_edge] + 1)
    # each triangle's tree edge leads to its parent; nt is the boundary
    sides = np.where(mesh.edge_tris >= 0, mesh.edge_tris, nt)[tree_edge]
    parent = np.r_[np.where(sides[:, 0] == np.arange(nt), sides[:, 1], sides[:, 0]), nt]
    node = np.arange(nt)
    for _ in range(nt):
        node = parent[node]
    assert np.all(node == nt)


STATIC = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}


@pytest.mark.parametrize(
    "vertices, triangles",
    [
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]),
        ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]),
        (
            [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [3, 0], [2, 1]],
            [[0, 1, 2], [0, 2, 3], [4, 5, 6]],
        ),
    ],
    ids=["one-triangle", "square", "two-components"],
)
def test_saddle_order_on_tiny_meshes(monkeypatch, vertices, triangles):
    mesh = build_mesh(np.array(vertices, dtype=float), np.array(triangles))
    ne, nt = mesh.num_edges, mesh.num_triangles
    order = saddle_order(mesh)
    assert np.array_equal(np.sort(order), np.arange(ne + nt))
    position = np.empty(ne + nt, dtype=np.int64)
    position[order] = np.arange(ne + nt)
    for i in range(ne + nt):
        done = position <= i
        assert not _unlinked_patches(mesh, done[ne:], done[:ne]), i
    pw = project_p0(make_field(f=1.0), mesh)
    assert not pw.gamma_h.any()  # zero reaction block
    system = assemble_mixed_direct(mesh, pw, make_field().u_dirichlet)
    assert np.array_equal(system.free, order)
    calls = _spy_splu(monkeypatch)
    solver.solve_sparse(system)
    assert calls == [(ne + nt, STATIC)]


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
    # is: both mixed routes and the plain nonconforming solve; the L-shape's
    # direct route condenses its scalars and factors all edges
    mesh = _lshape_twice_refined()
    inst = benchmark("lshape")
    pw = project_p0(inst.field, mesh)
    systems, factored = _capture_factored(monkeypatch)
    mixed, _ = solver.solve_mixed_via_equivalence(mesh, pw, inst.field.u_dirichlet)
    direct = solver.solve_mixed_direct(mesh, pw, inst.field.u_dirichlet)
    solver.solve_ncfem(mesh, inst.field)
    assert len(factored) == len(systems) == 3
    for (matrix, options), system in zip(factored, systems):
        assert matrix is system.matrix
        assert options == STATIC
    recon, condensed, plain = systems

    edge_order = mesh.edge_order
    assert np.array_equal(np.sort(edge_order), np.arange(mesh.num_edges))
    interior = edge_order[np.isin(edge_order, mesh.interior_edges)]
    assert np.array_equal(recon.free, interior)
    assert np.array_equal(plain.free, interior)
    assert np.array_equal(condensed.free, edge_order)
    assert max(solver.equivalence_residual(direct, mixed)) < 1e-10


def test_direct_route_without_reaction_factors_in_saddle_order(monkeypatch):
    # the crack's zero reaction keeps each scalar: the saddle-point system is
    # factored in the mesh's saddle order
    inst = benchmark("crack")
    mesh = uniform_red_refine(crack_start_mesh())
    pw = project_p0(inst.field, mesh)
    systems, factored = _capture_factored(monkeypatch)
    direct = solver.solve_mixed_direct(mesh, pw, inst.field.u_dirichlet)
    ((matrix, options),) = factored
    (saddle,) = systems
    assert matrix is saddle.matrix and options == STATIC
    assert np.array_equal(saddle.free, saddle_order(mesh))
    mixed, _ = solver.solve_mixed_via_equivalence(mesh, pw, inst.field.u_dirichlet)
    assert max(solver.equivalence_residual(direct, mixed)) < 1e-10


def _crack_saddle_system(levels):
    inst = benchmark("crack")
    mesh = crack_start_mesh()
    for _ in range(levels):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    assert not pw.gamma_h.any()  # zero reaction block
    return mesh, assemble_mixed_direct(mesh, pw, inst.field.u_dirichlet)


def test_static_pivots_on_crack_match_colamd(monkeypatch):
    mesh, system = _crack_saddle_system(3)
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
    system = assemble_modified_ncfem(mesh, pw, inst.field.u_dirichlet)
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


def test_zero_pivot_of_a_reaction_block_falls_back_to_colamd(monkeypatch):
    # saddle_order keeps a zero reaction block nonsingular, not every
    # reaction: with gamma = 12 on the start mesh, a leading block of the
    # eigen sweep's saddle system is exactly singular
    inst = benchmark("eigen_sweep", gamma=12.0)
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    system = assemble_mixed_direct(mesh, pw, inst.field.u_dirichlet)
    expected = _colamd_solution(system)
    calls = _spy_splu(monkeypatch)
    report = solver.solve_sparse(system)
    assert calls == [(mesh.ndof_mixed, STATIC), (mesh.ndof_mixed, {})]
    assert np.array_equal(report.solution, expected)
    history = adaptive_loop(inst, mode="uniform", max_ndof=mesh.ndof_mixed)
    assert history.failure is None
    assert history.ndofs == [mesh.ndof_mixed]


def test_mesh_orders_need_less_fill_than_colamd():
    # George's nested dissection bounds the fill of a regular mesh by
    # O(n log n); on 15,488 L-shape dofs both orders beat COLAMD
    mesh = lshape_start_mesh()
    for _ in range(4):
        mesh = uniform_red_refine(mesh)
    inst = benchmark("lshape")
    pw = project_p0(inst.field, mesh)
    direct = assemble_mixed_direct(mesh, pw, inst.field.u_dirichlet)
    recon = assemble_modified_ncfem(mesh, pw, inst.field.u_dirichlet)
    for system in (direct, recon):
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
        system = assemble_modified_ncfem(
            mesh, project_p0(inst.field, mesh), inst.field.u_dirichlet
        )
        lu = spla.splu(system.matrix, **STATIC)
        ordered += lu.L.nnz + lu.U.nnz
        lu = spla.splu(system.in_dof_order()[0])
        colamd += lu.L.nnz + lu.U.nnz
        mesh = uniform_red_refine(mesh)
    assert ordered < 0.8 * colamd


def test_crack_adaptive_factors_twice_in_order(tmp_path, monkeypatch):
    # the zero reaction block of crack, ordered statically on every level
    calls = _spy_splu(monkeypatch)
    config = bench.ExperimentConfig(
        problem="crack", mode="adaptive", max_ndof=41536, out=str(tmp_path)
    )
    (history,) = bench.run_experiment(config, echo=lambda *_: None).histories.values()
    assert history.ndofs[-1] == 41536
    assert len(calls) == 2 * len(history.records)
    assert all(options == STATIC for _, options in calls)
