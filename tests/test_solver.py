import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from afem import adapt, solver
from afem.assembly import SparseSystem, assemble_ncfem
from afem.errors import ConfigError, MeshMismatch, SingularMatrix
from afem.mesh import build_mesh
from afem.problem import (
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
    recon, _ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=field.u_dirichlet)
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
    recon, _ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    assert max(equivalence_residual(direct, recon)) < 1e-12
    flux = dataclasses.replace(recon, flux_const=recon.flux_const * (1.0 + 1e-6))
    scalar = dataclasses.replace(recon, u=recon.u * (1.0 + 1e-6))
    assert equivalence_residual(direct, flux)[0] > 1e-7
    assert equivalence_residual(direct, scalar)[1] > 1e-7


def test_mixed_zero_data():
    mesh = lshape_start_mesh()
    pw = project_p0(laplace_instance(constant_scalar(0.0)), mesh)
    recon, u_tilde = solve_mixed_via_equivalence(mesh, pw, constant_scalar(0.0))
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
    recon, u_tilde = solve_mixed_via_equivalence(
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
        recon, _ = solve_mixed_via_equivalence(
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
    recon, _ = solve_mixed_via_equivalence(
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
        recon, _ = solve_mixed_via_equivalence(
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
