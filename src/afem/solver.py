"""Sparse direct solves and the two routes to the mixed solution.

The reconstruction route solves the condensed modified nonconforming
system, forms the scalar part from the S_T-weighted average of the element
means, scaled by the factor ``pw.kappa`` the system was condensed with, and
lifts the broken gradient to a conforming flux; the direct route factors
the saddle-point system. Their agreement to solver precision is
the package's strongest correctness oracle and is asserted on every level
of every benchmark run. Every system is assembled in the order in which it
is factored, computed once per mesh (:mod:`afem.ordering`) and kept on it,
and its diagonal supplies the pivots. A solve is trusted by one test: the
correction of its refinement step, relative to the solution, is at most
``FORWARD_TOL``; otherwise the matrix counts as singular.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    CRSolution,
    MixedSolution,
    assemble_mixed_direct,
    assemble_modified_ncfem,
    assemble_ncfem,
    mixed_from_edge_flux,
)
from .errors import ConfigError, MeshMismatch, SingularMatrix
from .problem import project_p0
from .quadrature import affine_sq_l2


# largest trusted relative correction ||dx|| / ||x||: half the working digits
FORWARD_TOL = float(np.sqrt(np.finfo(float).eps))


@dataclass
class LinearSolveReport:
    solution: np.ndarray       # full dof vector, fixed dofs filled in
    correction: float          # ||dx|| / ||x|| of the refinement step


def solve_sparse(system):
    """Direct sparse LU solve, refined once and trusted by its correction.

    ``system.matrix`` is factored in its own row order, which assembly makes
    the fill-reducing order of the mesh, with its diagonal as the pivots
    (static pivots). Should a diagonal pivot vanish or the solve not be
    trusted (see :func:`_lu_solve`), it is factored once more with COLAMD
    column order and partial pivoting.
    """
    try:
        x, correction = _lu_solve(system.matrix, system.rhs, static=True)
    except SingularMatrix:  # a leading block is (nearly) singular
        x, correction = _lu_solve(system.matrix, system.rhs)
    return LinearSolveReport(system.full_solution(x), correction)


def _lu_solve(matrix, rhs, static=False):
    """``(x, correction)``: factor, solve and refine once, ``x = x0 + dx``
    with ``dx`` the solve of the residual of ``x0``.

    ``correction = ||dx|| / ||x||`` estimates the forward error of ``x0``
    (Higham 2002, ch. 12; Demmel et al. 2006). The solve is trusted when it
    is at most ``FORWARD_TOL``; otherwise, or when ``x`` is not finite, the
    matrix is taken as singular. ``static`` factors the columns in their
    given order with diagonal pivots. SuperLU takes any nonzero diagonal
    then, but swaps rows where a diagonal is exactly zero, that is, where a
    leading block is singular.
    """
    try:
        if static:
            lu = spla.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        else:
            lu = spla.splu(matrix)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrix(str(exc)) from None
    if static and np.any(lu.perm_r != lu.perm_c):
        raise SingularMatrix("zero diagonal pivot: a leading block is singular")
    x = lu.solve(rhs)
    # one step of iterative refinement, on which static pivots rely (Li &
    # Demmel 1998)
    dx = lu.solve(rhs - matrix @ x)
    x = x + dx
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite values")
    correction = float(np.linalg.norm(dx) / np.linalg.norm(x)) if dx.any() else 0.0
    if correction > FORWARD_TOL:
        raise SingularMatrix(
            f"refinement correction ||dx||/||x|| = {correction:.3e} exceeds"
            f" {FORWARD_TOL:.1e}; reaction coefficient near a discrete"
            " eigenvalue or mesh too coarse"
        )
    return x, correction


def solve_ncfem(mesh, field):
    """Solve the plain nonconforming method; returns a :class:`CRSolution`."""
    system = assemble_ncfem(mesh, project_p0(field, mesh), field.u_dirichlet)
    return CRSolution(mesh=mesh, edge_values=solve_sparse(system).solution)


def reconstruct_mixed(pw, u_cr_tilde):
    """Closed-form mixed solution from the modified nonconforming one.

    Scalar part: u_M = kappa_T (Pi0 u~ + (S_T/|T|) f_h / 4); flux part:
    p_M(x) = -(A_h grad u~ + u_M b_h) + (f_h - gamma_h u_M)(x - mid T)/2.
    """
    mesh = u_cr_tilde.mesh
    if pw.mesh is not mesh:
        raise MeshMismatch("piecewise data and solution live on different meshes")
    u_m = pw.kappa * (u_cr_tilde.triangle_means() + pw.s_mean / 4.0 * pw.f_h)
    grads = u_cr_tilde.gradients()
    slope = 0.5 * (pw.f_h - pw.gamma_h * u_m)
    const = (
        -np.einsum("tde,te->td", pw.a_h, grads)
        - u_m[:, None] * pw.b_h
        - slope[:, None] * mesh.centroid
    )
    return MixedSolution(mesh=mesh, flux_const=const, flux_slope=slope, u=u_m)


def _require_dirichlet(u_dirichlet):
    """Both mixed routes need u_D: with None the modified CR system keeps its
    boundary dofs free while the saddle-point system imposes u_D = 0."""
    if u_dirichlet is None:
        raise ConfigError("u_dirichlet is None; for u_D = 0 pass constant_scalar(0.0)")


def solve_mixed_via_equivalence(mesh, pw, u_dirichlet):
    """Mixed solution by reconstruction; returns ``(mixed, u_cr_tilde)``."""
    _require_dirichlet(u_dirichlet)
    system = assemble_modified_ncfem(mesh, pw, u_dirichlet=u_dirichlet)
    u_tilde = CRSolution(mesh=mesh, edge_values=solve_sparse(system).solution)
    return reconstruct_mixed(pw, u_tilde), u_tilde


def solve_mixed_direct(mesh, pw, u_dirichlet):
    """Mixed solution from the direct saddle-point factorization."""
    _require_dirichlet(u_dirichlet)
    system = assemble_mixed_direct(mesh, pw, u_dirichlet=u_dirichlet)
    report = solve_sparse(system)
    ne = mesh.num_edges
    return mixed_from_edge_flux(mesh, report.solution[:ne], report.solution[ne:])


def equivalence_residual(direct, recon):
    """L2 discrepancies (flux, scalar) between the two routes, each relative
    to the L2 norm of the whole direct solution (p, u), which vanishes only
    with the solution: a flux or a scalar part alone may be roundoff."""
    if direct.mesh is not recon.mesh:
        raise MeshMismatch("solutions live on different meshes")
    mesh = direct.mesh
    pv = mesh.triangle_vertices()
    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))
    p_direct = direct.flux_at(mids)
    dp = p_direct - recon.flux_at(mids)
    num_p = float(np.sqrt(np.sum(affine_sq_l2(mesh.area, dp))))
    den_p = float(np.sqrt(np.sum(affine_sq_l2(mesh.area, p_direct))))
    du = direct.u - recon.u
    num_u = float(np.sqrt(np.sum(mesh.area * du**2)))
    den_u = float(np.sqrt(np.sum(mesh.area * direct.u**2)))
    scale = math.hypot(den_p, den_u)
    return (num_p / scale, num_u / scale) if scale > 0 else (num_p, num_u)
