"""Sparse direct solves and the mixed solution.

The mixed solution is reconstructed from the condensed modified
nonconforming solve: the scalar part from the S_T-weighted average of the
element means, scaled by the factor ``pw.kappa`` the system was condensed
with, and the broken gradient lifted to a conforming flux. That it is the
lowest-order mixed solution, the paper's equivalence, is checked triangle
by triangle on every solve (:func:`solve_mixed_via_equivalence`), so one
system is factored; :func:`solve_mixed_direct` solves the hybridized
saddle-point system on its own. Every system is over the interior edges,
assembled in the order in which it is factored, ``mesh.edge_order``,
computed once per mesh (:mod:`afem.ordering`) and kept on it. Its diagonal
supplies the pivots. A solve is trusted by one test: the correction of its
refinement step, relative to the solution, is at most ``FORWARD_TOL``;
otherwise the matrix counts as singular.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    CRSolution,
    MixedSolution,
    assemble_hybrid_mixed,
    assemble_modified_ncfem,
    assemble_ncfem,
    edge_system,
    hybrid_inverses,
)
from .errors import ConfigError, EquivalenceViolation, MeshMismatch, SingularMatrix
from .problem import project_p0
from .quadrature import affine_sq_l2


# largest trusted relative correction ||dx|| / ||x||: half the working digits
FORWARD_TOL = float(np.sqrt(np.finfo(float).eps))
# largest difference between a triangle's condensed and hybridized element
# block, or load, relative to the block's (the load's) largest entry and to
# the triangle's condensation condition number (see _condition)
IDENTITY_TOL = 1e-12
# largest equivalence_residual of the hybrid recovery from u~ (flux, scalar)
EQUIVALENCE_TOL = 1e-8


@dataclass
class LinearSolveReport:
    solution: np.ndarray       # full dof vector, fixed dofs filled in
    correction: float          # ||dx|| / ||x|| of the refinement step


@dataclass
class MixedSolve:
    mixed: MixedSolution
    u_tilde: CRSolution
    defects: tuple             # (blocks, loads), at most IDENTITY_TOL
    equivalence: tuple         # (flux, scalar), at most EQUIVALENCE_TOL
    report: LinearSolveReport  # its solution is u_tilde.edge_values


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


def solve_mixed_via_equivalence(mesh, pw, u_dirichlet, inverses=hybrid_inverses):
    """Mixed solution by reconstruction, checked triangle by triangle; a
    :class:`MixedSolve`.

    Before the factorization, the element blocks and loads of the modified
    nonconforming system are compared with the hybridized saddle-point ones
    (:func:`assembly.assemble_hybrid_mixed`, which calls the builder
    ``inverses(mesh, pw)`` after the modified assembly); a
    difference over ``IDENTITY_TOL`` raises :class:`EquivalenceViolation`.
    No element block outlives the comparison. After the solve, an
    :func:`equivalence_residual` of the hybrid recovery from u~ against the
    reconstruction over ``EQUIVALENCE_TOL`` raises it too.
    """
    _require_dirichlet(u_dirichlet)
    system, local, load = assemble_modified_ncfem(mesh, pw, u_dirichlet=u_dirichlet)
    hybrid, hybrid_load, recover = assemble_hybrid_mixed(mesh, pw, inverses)
    cond = _condition(pw)
    defects = (_defect(hybrid, local, cond), _defect(hybrid_load, load, cond))
    if not all(d <= IDENTITY_TOL for d in defects):  # NaN too
        raise EquivalenceViolation(
            "element blocks and loads differ from the hybridized ones by"
            f" ({defects[0]:.2e}, {defects[1]:.2e})"
        )
    del local, load, hybrid, hybrid_load, cond  # before the factorization
    report = solve_sparse(system)
    u_tilde = CRSolution(mesh=mesh, edge_values=report.solution)
    mixed = reconstruct_mixed(pw, u_tilde)
    equivalence = equivalence_residual(recover(u_tilde.edge_values), mixed)
    if not all(e <= EQUIVALENCE_TOL for e in equivalence):  # NaN too
        raise EquivalenceViolation(
            f"routes differ by ({equivalence[0]:.2e}, {equivalence[1]:.2e})"
        )
    return MixedSolve(mixed, u_tilde, defects, equivalence, report)


def _condition(pw):
    """(T,) condition number (1 + |x_T|) max(1, |kappa_T|) of the
    condensation, x_T = gamma_h S_T/(4|T|). Both sides of the element
    identity lose digits to it: where kappa_T = 1/(1 + x_T) blows up, and
    where the load corrections, of relative size x_T kappa_T, cancel."""
    x = np.abs(pw.gamma_h * pw.s_mean / 4.0)
    return (1.0 + x) * np.maximum(1.0, np.abs(pw.kappa))


def _defect(hybrid, condensed, cond):
    """Largest per-triangle difference of two (T, ...) element arrays,
    relative to the triangle's largest condensed entry and to its ``cond``;
    0 where both vanish, inf where only the condensed entries do. Each entry
    is compared as a (T,) row of a view."""
    diff, scale = np.zeros_like(cond), np.zeros_like(cond)
    rows = (np.moveaxis(a, 0, -1).reshape(-1, len(cond)) for a in (hybrid, condensed))
    for h, c in zip(*rows):
        np.maximum(diff, np.abs(h - c), out=diff)
        np.maximum(scale, np.abs(c), out=scale)
    rel = np.where(diff > 0, np.inf, diff)  # where the condensed entries vanish
    np.divide(diff, scale * cond, out=rel, where=scale > 0)
    return float(np.max(rel, initial=0.0))


def solve_mixed_direct(mesh, pw, u_dirichlet):
    """Mixed solution from the hybridized saddle-point system
    (:func:`assembly.assemble_hybrid_mixed`), factored over the interior
    edges in ``mesh.edge_order``; the element blocks are gone before the
    factorization."""
    _require_dirichlet(u_dirichlet)
    # s_T vanishes only where kappa_T blows up: reading pw.kappa raises
    # SingularLocalFactor there, before the assembly divides by s_T
    pw.kappa
    local, load, recover = assemble_hybrid_mixed(mesh, pw)
    system = edge_system(mesh, local, load, u_dirichlet)
    del local, load
    return recover(solve_sparse(system).solution)


def equivalence_residual(direct, recon):
    """L2 discrepancies (flux, scalar) between two mixed solutions, each
    relative to the L2 norm of the whole of ``direct`` (p, u), which
    vanishes only with the solution: a flux or a scalar part alone may be
    roundoff."""
    if direct.mesh is not recon.mesh:
        raise MeshMismatch("solutions live on different meshes")
    mesh = direct.mesh
    mids = mesh.triangle_edge_midpoints()
    p_direct = direct.flux_at(mids)
    dp = p_direct - recon.flux_at(mids)
    num_p = float(np.sqrt(np.sum(affine_sq_l2(mesh.area, dp))))
    den_p = float(np.sqrt(np.sum(affine_sq_l2(mesh.area, p_direct))))
    du = direct.u - recon.u
    num_u = float(np.sqrt(np.sum(mesh.area * du**2)))
    den_u = float(np.sqrt(np.sum(mesh.area * direct.u**2)))
    scale = math.hypot(den_p, den_u)
    return (num_p / scale, num_u / scale) if scale > 0 else (num_p, num_u)
