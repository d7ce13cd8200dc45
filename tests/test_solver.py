import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from afem import adapt, bench, quadrature, solver
from afem.assembly import (
    SparseSystem,
    assemble_hybrid_mixed,
    assemble_mixed_direct,
    assemble_modified_ncfem,
    assemble_ncfem,
    edge_system,
    mixed_from_local_flux,
)
from afem.errors import ConfigError, MeshMismatch, SingularLocalFactor, SingularMatrix
from afem.mesh import build_mesh
from afem.problem import (
    DEFAULT_GAMMA_SWEEP,
    CoefficientField,
    PiecewiseData,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    lshape_start_mesh,
    project_p0,
)
from afem.refine import uniform_red_refine
from afem.solver import (
    equivalence_residual,
    solve_mixed_direct,
    solve_mixed_via_equivalence,
    solve_ncfem,
    solve_sparse,
)

from oracles import normal_jumps

SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def plain_system(matrix, rhs):
    m = sp.csc_matrix(np.asarray(matrix, dtype=float))
    return SparseSystem(
        matrix=m, rhs=np.asarray(rhs, dtype=float), ndofs=m.shape[0],
        free=np.arange(m.shape[0]),
    )


def test_solve_identity():
    r = np.array([3.0, -1.0, 2.0])
    report = solve_sparse(plain_system(np.eye(3), r))
    assert np.allclose(report.solution, r)
    assert report.correction == 0.0


def test_solve_small_system():
    report = solve_sparse(plain_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))
    assert np.allclose(report.solution, [1.0, 1.0], atol=1e-14)


def test_zero_matrix_is_singular():
    with pytest.raises(SingularMatrix):
        solve_sparse(plain_system(np.zeros((2, 2)), [1.0, 0.0]))


def test_tiny_pivot_is_solved_exactly():
    # a small pivot is not a singular matrix: the solve is exact
    report = solve_sparse(plain_system([[1.0, 0.0], [0.0, 1e-30]], [1.0, 1.0]))
    assert np.array_equal(report.solution, [1.0, 1.0 / 1e-30])
    assert report.correction == 0.0


def test_hilbert_12_is_singular():
    # cond ~ 1.7e16: the refinement step moves x by far more than FORWARD_TOL
    n = 12
    i = np.arange(n)
    hilbert = 1.0 / (i[:, None] + i[None, :] + 1.0)
    with pytest.raises(SingularMatrix, match="refinement correction"):
        solve_sparse(plain_system(hilbert, hilbert.sum(axis=1)))


def laplace_instance(u_d):
    return CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=u_d,
    )


def test_cr_zero_data_zero_solution():
    mesh = lshape_start_mesh()
    sol = solve_ncfem(mesh, laplace_instance(constant_scalar(0.0)))
    assert np.abs(sol.edge_values).max() == 0.0


def test_cr_solve_with_all_dofs_on_boundary():
    # single reference triangle: every edge is Dirichlet, nothing to solve
    ref = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    field = laplace_instance(
        lambda x, y: np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    )
    sol = solve_ncfem(ref, field)
    assert np.allclose(sol.edge_values, ref.edge_mid.sum(axis=1))


def test_cr_affine_patch_test():
    mesh = uniform_red_refine(build_mesh(*SQUARE))
    field = laplace_instance(
        lambda x, y: np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    )
    sol = solve_ncfem(mesh, field)
    exact = mesh.edge_mid[:, 0] + mesh.edge_mid[:, 1]
    assert np.abs(sol.edge_values - exact).max() < 1e-10


def test_cr_lshape_level0_is_finite_and_bounded():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    sol = solve_ncfem(mesh, inst.field)
    assert np.all(np.isfinite(sol.edge_values))
    assert np.abs(sol.edge_values).max() < 10.0


def test_mixed_patch_test_both_routes():
    mesh = build_mesh(*SQUARE)
    field = laplace_instance(lambda x, y: np.asarray(x, dtype=float))
    pw = project_p0(field, mesh)
    direct = solve_mixed_direct(mesh, pw, u_dirichlet=field.u_dirichlet)
    recon, *_ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=field.u_dirichlet)
    for sol in (direct, recon):
        flux_mid = sol.flux_at(mesh.centroid[:, None, :])[:, 0, :]
        assert np.abs(flux_mid - np.array([-1.0, 0.0])).max() < 1e-10
        assert np.abs(sol.u - mesh.centroid[:, 0]).max() < 1e-10
    rel = equivalence_residual(direct, recon)
    assert max(rel) < 1e-12


def test_equivalence_residual_sees_a_flux_or_scalar_mismatch():
    # the shared scale ||(p, u)|| keeps the check's power: a 1e-6 relative
    # change of either part of the lshape solution is far above 1e-8
    inst = benchmark("lshape")
    mesh = uniform_red_refine(inst.start_mesh())
    pw = project_p0(inst.field, mesh)
    direct = solve_mixed_direct(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    recon, *_ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    assert max(equivalence_residual(direct, recon)) < 1e-12
    flux = dataclasses.replace(recon, flux_const=recon.flux_const * (1.0 + 1e-6))
    scalar = dataclasses.replace(recon, u=recon.u * (1.0 + 1e-6))
    assert equivalence_residual(direct, flux)[0] > 1e-7
    assert equivalence_residual(direct, scalar)[1] > 1e-7


def test_mixed_zero_data():
    mesh = lshape_start_mesh()
    pw = project_p0(laplace_instance(constant_scalar(0.0)), mesh)
    recon, u_tilde, _ = solve_mixed_via_equivalence(mesh, pw, constant_scalar(0.0))
    assert np.abs(recon.u).max() == 0.0
    assert np.abs(recon.flux_const).max() == 0.0
    assert np.abs(u_tilde.edge_values).max() == 0.0


def test_reconstruction_formulas_collapse_without_reaction():
    # gamma = 0, b = 0, f = 1: div p = 1 and u_M = mean(u~) + S_T/(4|T|)
    mesh = lshape_start_mesh()
    field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(1.0),
        u_dirichlet=constant_scalar(0.0),
    )
    pw = project_p0(field, mesh)
    recon, u_tilde, _ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=field.u_dirichlet
    )
    assert np.abs(recon.div() - 1.0).max() < 1e-12
    expected_u = u_tilde.triangle_means() + pw.s_t / (4.0 * mesh.area)
    assert np.abs(recon.u - expected_u).max() < 1e-13


@pytest.mark.parametrize(
    "name,kwargs",
    [("lshape", {}), ("crack", {}), ("eigen_sweep", {"gamma": 9.64})],
)
def test_equivalence_on_benchmarks(name, kwargs):
    inst = benchmark(name, **kwargs)
    mesh = inst.start_mesh()
    for _ in range(2):
        pw = project_p0(inst.field, mesh)
        direct = solve_mixed_direct(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
        recon, *_ = solve_mixed_via_equivalence(
            mesh, pw, u_dirichlet=inst.field.u_dirichlet
        )
        rel_p, rel_u = equivalence_residual(direct, recon)
        assert rel_p <= 1e-8 and rel_u <= 1e-8
        # elementwise divergence identity, both routes
        for sol in (direct, recon):
            resid = sol.div() - (pw.f_h - pw.gamma_h * sol.u)
            scale = max(np.abs(pw.f_h).max(), 1.0)
            assert np.abs(resid).max() <= 1e-12 * scale
        # normal-component continuity of the reconstruction
        jump = np.abs(normal_jumps(recon)).max()
        assert jump <= 1e-10 * max(np.abs(recon.flux_const).max(), 1.0)
        mesh = uniform_red_refine(mesh)


def test_equivalence_residual_detects_perturbation():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    direct = solve_mixed_direct(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    recon, *_ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=inst.field.u_dirichlet
    )
    assert equivalence_residual(direct, direct) == (0.0, 0.0)
    recon.flux_const[0, 0] += 1e-3
    rel_p, _ = equivalence_residual(direct, recon)
    assert rel_p >= 1e-4


@pytest.mark.parametrize(
    "route", [solve_mixed_via_equivalence, solve_mixed_direct], ids=["recon", "direct"]
)
def test_mixed_routes_reject_missing_dirichlet_data(route):
    # with None the reconstruction would keep its boundary dofs free while
    # the saddle-point system imposes u_D = 0: two different problems
    inst = benchmark("lshape")
    mesh = uniform_red_refine(inst.start_mesh())
    pw = project_p0(inst.field, mesh)
    with pytest.raises(ConfigError, match="u_dirichlet"):
        route(mesh, pw, None)


def test_equivalence_residual_mesh_mismatch():
    inst = benchmark("lshape")
    m1 = inst.start_mesh()
    m2 = inst.start_mesh()
    pw1 = project_p0(inst.field, m1)
    pw2 = project_p0(inst.field, m2)
    a = solve_mixed_direct(m1, pw1, u_dirichlet=inst.field.u_dirichlet)
    b = solve_mixed_direct(m2, pw2, u_dirichlet=inst.field.u_dirichlet)
    with pytest.raises(MeshMismatch):
        equivalence_residual(a, b)


def test_discrete_compatibility_without_reaction():
    inst = benchmark("crack")
    mesh = inst.start_mesh()
    field = CoefficientField(
        a=inst.field.a,
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=inst.field.f,
        u_dirichlet=inst.field.u_dirichlet,
    )
    pw = project_p0(field, mesh)
    sol = solve_mixed_direct(mesh, pw, u_dirichlet=field.u_dirichlet)
    lhs = float(np.sum(mesh.area * sol.div()))
    rhs = float(np.sum(mesh.area * pw.f_h))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_equivalence_with_variable_coefficients():
    # fully variable SPD diffusion, convection and reaction plus
    # inhomogeneous Dirichlet data: the reconstruction must still agree
    # with the saddle solve to machine precision
    def a(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty((x.size, 2, 2))
        out[:, 0, 0] = 1.0 + 0.5 * x**2
        out[:, 1, 1] = 1.0 + 0.5 * y**2
        out[:, 0, 1] = out[:, 1, 0] = 0.25 * x * y
        return out

    field = CoefficientField(
        a=a,
        b=lambda x, y: np.stack(
            [np.sin(np.asarray(x, dtype=float)) + 0.5,
             np.cos(np.asarray(y, dtype=float)) - 0.25], axis=-1
        ),
        gamma=lambda x, y: -2.0 + np.asarray(x, dtype=float),
        f=lambda x, y: np.exp(np.asarray(x, dtype=float))
        * np.cos(2.0 * np.asarray(y, dtype=float)),
        u_dirichlet=lambda x, y: np.asarray(x, dtype=float) ** 2
        - np.asarray(y, dtype=float),
    )
    mesh = build_mesh(*SQUARE)
    for _ in range(3):
        pw = project_p0(field, mesh)
        direct = solve_mixed_direct(mesh, pw, u_dirichlet=field.u_dirichlet)
        recon, *_ = solve_mixed_via_equivalence(
            mesh, pw, u_dirichlet=field.u_dirichlet
        )
        rel_p, rel_u = equivalence_residual(direct, recon)
        assert max(rel_p, rel_u) < 1e-12
        assert np.abs(recon.div() - (pw.f_h - pw.gamma_h * recon.u)).max() < 1e-13
        mesh = uniform_red_refine(mesh)


def test_single_triangle_has_no_unknowns():
    # every edge is a Dirichlet edge: the 0 x 0 system is solved as it is
    inst = benchmark("lshape")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = build_mesh(tri, np.array([[0, 1, 2]]))
    mid = mesh.edge_mid
    sol = solve_ncfem(mesh, inst.field)
    assert np.array_equal(sol.edge_values, inst.field.u_dirichlet(mid[:, 0], mid[:, 1]))


def test_galerkin_residual_of_cr_solve():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    system = assemble_ncfem(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    sol = solve_ncfem(mesh, inst.field)
    resid = system.matrix @ sol.edge_values[system.free] - system.rhs
    scale = max(np.abs(system.rhs).max(), 1.0)
    assert np.abs(resid).max() <= 1e-9 * scale


def test_condensation_factor_is_computed_once_per_level(monkeypatch):
    # one kappa array per level: the condensed assembly computes it and
    # reconstruct_mixed reads it back
    kappa = PiecewiseData.__dict__["kappa"]
    compute, made, seen = kappa.func, [], []

    def counting(pw):
        made.append(compute(pw))
        return made[-1]

    assemble = solver.assemble_modified_ncfem
    reconstruct = solver.reconstruct_mixed

    def spy_assemble(mesh, pw, **kw):
        assert "kappa" not in pw.__dict__
        system = assemble(mesh, pw, **kw)
        seen.append(pw.__dict__["kappa"])
        return system

    def spy_reconstruct(pw, u_tilde):
        cached = pw.__dict__["kappa"]
        mixed = reconstruct(pw, u_tilde)
        pw.__dict__["kappa"] = 2.0 * cached  # u_M is linear in the read kappa
        assert np.array_equal(reconstruct(pw, u_tilde).u, 2.0 * mixed.u)
        pw.__dict__["kappa"] = cached
        seen.append(cached)
        return mixed

    monkeypatch.setattr(kappa, "func", counting)
    monkeypatch.setattr(solver, "assemble_modified_ncfem", spy_assemble)
    monkeypatch.setattr(solver, "reconstruct_mixed", spy_reconstruct)
    history = adapt.adaptive_loop(benchmark("lshape"), mode="uniform", max_ndof=4000)
    levels = len(history.records)
    assert levels >= 3 and len(made) == levels
    assert len(seen) == 2 * levels
    for k, array in enumerate(made):
        assert seen[2 * k] is array and seen[2 * k + 1] is array


def _lshape_level(levels):
    mesh = lshape_start_mesh()
    for _ in range(levels):
        mesh = uniform_red_refine(mesh)
    return mesh


def test_direct_route_matches_saddle_solve_and_reconstruction():
    # the two global mixed solves: eliminating each triangle's fluxes and
    # scalar from the hybridized system is exact block elimination, so the
    # direct route gives the saddle-point system's solution to roundoff,
    # and so does the reconstruction
    inst = benchmark("lshape")
    u_d = inst.field.u_dirichlet
    mesh = _lshape_level(3)
    pw = project_p0(inst.field, mesh)
    direct = solve_mixed_direct(mesh, pw, u_d)
    x = solve_sparse(assemble_mixed_direct(mesh, pw, u_d)).solution
    ne = mesh.num_edges
    saddle = mixed_from_local_flux(mesh, x[:ne][mesh.triangle_edges], x[ne:])
    recon, *_ = solve_mixed_via_equivalence(mesh, pw, u_d)
    assert max(equivalence_residual(direct, saddle)) < 1e-12
    assert max(equivalence_residual(direct, recon)) < 1e-12


def _direct_solves(monkeypatch, inst, mode, max_ndof):
    """``(history, solves)``: ``solve_mixed_direct`` on every level of the
    loop, with per level ``(interior edges, zero reaction, sizes,
    equivalence)``, the sizes of the matrices ``splu`` factored inside it
    and its :func:`equivalence_residual` against the loop's solution."""
    sizes, solves = [], []
    splu = spla.splu

    def spy(matrix, **options):
        sizes.append(matrix.shape[0])
        return splu(matrix, **options)

    def on_level(pw, mixed, *_):
        start = len(sizes)
        direct = solve_mixed_direct(pw.mesh, pw, inst.field.u_dirichlet)
        solves.append((
            len(pw.mesh.interior_edges), not pw.gamma_h.any(), sizes[start:],
            equivalence_residual(direct, mixed),
        ))

    monkeypatch.setattr(spla, "splu", spy)
    history = adapt.adaptive_loop(
        inst, mode=mode, max_ndof=max_ndof, on_level=on_level
    )
    return history, solves


@pytest.mark.parametrize(
    "problem,mode,max_ndof,zero_reaction",
    [
        ("lshape", "uniform", 16000, False),
        ("eigen_sweep", "uniform", 16000, False),
        ("crack", "adaptive", 3000, True),
    ],
)
def test_direct_route_factors_edges_where_every_reaction_allows(
    monkeypatch, problem, mode, max_ndof, zero_reaction
):
    # the hybridized system is over the interior edges whatever the reaction;
    # the eigen sweep runs its default reaction grid
    gammas = DEFAULT_GAMMA_SWEEP if problem == "eigen_sweep" else [None]
    levels = 0
    for gamma in gammas:
        inst = benchmark(problem, **({} if gamma is None else {"gamma": gamma}))
        history, solves = _direct_solves(monkeypatch, inst, mode, max_ndof)
        assert history.failure is None
        assert len(solves) == len(history.records)
        levels += len(solves)
        for interior, zero, sizes, equivalence in solves:
            assert sizes == [interior] and zero == zero_reaction
            assert max(equivalence) < 1e-8
    assert levels >= 3


def test_tiny_reaction_factors_the_interior_edges(monkeypatch):
    # gamma = -1e-6: eliminating the scalars alone by c_T = gamma_h |T| turned
    # level 3 singular; the hybridized system divides by s_T, which the
    # diffusion keeps away from zero
    lshape = benchmark("lshape")
    field = dataclasses.replace(lshape.field, gamma=constant_scalar(-1e-6))
    inst = dataclasses.replace(lshape, field=field)
    history, solves = _direct_solves(monkeypatch, inst, "uniform", 4000)
    assert history.failure is None and history.ndofs[-1] == 3904
    assert [sizes for _, _, sizes, _ in solves] == [[n] for n, *_ in solves]
    assert max(max(equivalence) for *_, equivalence in solves) < 1e-12
    assert max(max(record.equivalence) for record in history.records) < 1e-12


@pytest.mark.parametrize(
    "name,kwargs,levels",
    [("lshape", {}, 3), ("crack", {}, 3), ("eigen_sweep", {"gamma": 9.63}, 4)],
    ids=["lshape", "crack", "eigen_sweep-9.63"],
)
def test_hybridized_system_is_the_modified_nonconforming_one(name, kwargs, levels):
    # the equivalence of the mixed and the modified nonconforming methods in
    # matrix form (Marini 1985): the same matrix and load to roundoff, over
    # the same unknowns in the same order
    inst = benchmark(name, **kwargs)
    mesh = inst.start_mesh()
    for _ in range(levels):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    hybrid_local, hybrid_load, _ = assemble_hybrid_mixed(mesh, pw)
    hybrid = edge_system(mesh, hybrid_local, hybrid_load, inst.field.u_dirichlet)
    modified, *_ = assemble_modified_ncfem(mesh, pw, inst.field.u_dirichlet)
    for attr in ("free", "fixed", "fixed_values"):
        assert np.array_equal(getattr(hybrid, attr), getattr(modified, attr))
    assert np.array_equal(hybrid.matrix.indptr, modified.matrix.indptr)
    assert np.array_equal(hybrid.matrix.indices, modified.matrix.indices)
    diff = spla.norm(hybrid.matrix - modified.matrix)
    assert diff <= 1e-14 * spla.norm(modified.matrix)
    diff = np.linalg.norm(hybrid.rhs - modified.rhs)
    assert diff <= 1e-14 * np.linalg.norm(modified.rhs)


@pytest.mark.parametrize("gamma", [-143.99, -1e6, 1e7])
def test_element_identity_bound_scales_with_the_condensation(gamma):
    # on the L-shape start mesh, gamma = -143.99 drives kappa_T to 1.4e4 and
    # |gamma| >= 1e6 makes the load corrections cancel: the condensed and
    # hybridized element blocks or loads then differ by 2.7e-12 to 2.3e-11
    # relative, roundoff that the condensation amplifies, and the level
    # must still solve
    lshape = benchmark("lshape")
    field = dataclasses.replace(lshape.field, gamma=constant_scalar(gamma))
    mesh = lshape_start_mesh()
    pw = project_p0(field, mesh)
    condition = solver._condition(pw)
    assert condition.max() > 1e3
    mixed, _, equivalence = solve_mixed_via_equivalence(mesh, pw, field.u_dirichlet)
    assert max(equivalence) < 1e-8
    direct = solve_mixed_direct(mesh, pw, field.u_dirichlet)
    assert max(equivalence_residual(direct, mixed)) < 1e-8


def test_direct_route_raises_singular_local_factor_at_kappa_blowup():
    # gamma = -144 on the L-shape start mesh: 1 + gamma_h S_T/(4|T|) = 0, so
    # s_T = 4|T| / (S_T/|T| kappa_T) vanishes; the route raises what the
    # reconstruction raises, before it divides by zero
    lshape = benchmark("lshape")
    field = dataclasses.replace(lshape.field, gamma=constant_scalar(-144.0))
    mesh = lshape_start_mesh()
    pw = project_p0(field, mesh)
    with pytest.raises(SingularLocalFactor):
        solve_mixed_direct(mesh, pw, field.u_dirichlet)


def test_hybrid_assembly_memory_contract():
    # lshape uniform level 5, 24,576 triangles, counted by tracemalloc, which
    # sees NumPy's buffers and not the heap's layout: the assembly's traced
    # peak, its results included, is at most 74 doubles per triangle, and
    # recover holds at most 13 (M_T^-1 by its upper triangle, M_T^-1 g_T,
    # M_T^-1 b_T / s_T and f_T / s_T)
    lshape = benchmark("lshape")
    mesh = lshape.start_mesh()
    for _ in range(5):
        mesh = uniform_red_refine(mesh)
    assert mesh.num_triangles == 24576
    pw = project_p0(lshape.field, mesh)
    assemble_hybrid_mixed(mesh, pw)  # whatever the mesh caches, first
    tracemalloc.start()
    try:
        _, _, recover = assemble_hybrid_mixed(mesh, pw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doubles = 8 * mesh.num_triangles
    assert round(peak / doubles) <= 74
    held = {}
    for cell in recover.__closure__:
        array = cell.cell_contents
        if isinstance(array, np.ndarray):
            while isinstance(array.base, np.ndarray):  # a view holds its base
                array = array.base
            held[id(array)] = array.nbytes
    assert sum(held.values()) <= 13 * doubles


def _traced_doubles(fn, num_triangles):
    """Traced peak of ``fn()``, results included, in doubles per triangle."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * num_triangles)


def test_modified_assembly_and_error_norms_memory_contracts():
    # lshape uniform level 5, 24,576 triangles, counted by tracemalloc as in
    # the hybrid assembly's contract: the modified nonconforming assembly's
    # traced peak, its system and element arrays included, is at most 92
    # doubles per triangle (it reads 91.5), and the error norms', which form
    # their pointwise errors a block of triangles at a time, at most 50
    # (forming the whole level's at once takes 144.5)
    lshape = benchmark("lshape")
    mesh = lshape.start_mesh()
    for _ in range(5):
        mesh = uniform_red_refine(mesh)
    assert mesh.num_triangles == 24576
    pw = project_p0(lshape.field, mesh)
    u_d = lshape.field.u_dirichlet
    mixed, *_ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=u_d)
    data = quadrature.degree5_data(mesh, lshape.field, lshape.exact)
    peak = _traced_doubles(
        lambda: assemble_modified_ncfem(mesh, pw, u_dirichlet=u_d), mesh.num_triangles
    )
    assert peak <= 92
    peak = _traced_doubles(
        lambda: bench.error_norms(mixed, lshape, data), mesh.num_triangles
    )
    assert peak <= 50
