"""A posteriori estimation, marking, and the adaptive driver.

The mixed estimator follows the reliability bound for the saddle-point
solution: data oscillation of f - gamma u_M against its centroid mean, the
mesh-weighted volume term, a nonconformity term in which the minimum over
conforming functions is bounded through the nodal average of -u~_CR, and
two coefficient-approximation terms. The driver runs
solve / estimate / mark / refine and factors one system per level, the
modified nonconforming one; the solve checks the paper's equivalence on
every triangle (:func:`solver.solve_mixed_via_equivalence`), and the
driver bounds how far the hybrid recovery lies from the reconstruction
by ``EQUIVALENCE_TOL``. The estimator evaluates
gamma, and f or the exact solution with its load, once per level, at the
degree-5 points of every triangle; its report hands that data on to the
error norms. The loop drops it with the rest of the level, its mesh
included, before the next level assembles. Before refining, the loop
tests the dof budget against :func:`refine.refined_ndof_bound`, so it
never builds a mesh the budget rejects in uniform mode, nor one the bound
already puts over it in adaptive mode.
"""

from dataclasses import dataclass

import numpy as np

from . import bench, quadrature
from .errors import (
    BadTheta, ConfigError, EquivalenceViolation, MeshMismatch, SingularMatrix
)
from .problem import inv_2x2, project_p0, require_finite
from .refine import refined_ndof_bound, rgb_refine, uniform_red_refine
from .solver import solve_mixed_via_equivalence

# per-level bound on the hybrid recovery's distance from the reconstruction
EQUIVALENCE_TOL = 1e-8


@dataclass
class EstimatorReport:
    """Named per-triangle squared contributions of an error estimator.

    ``eta_terms`` lists the terms that constitute the estimator proper:
    eta^2 = sum_T eta_T^2 with eta_T^2 the elementwise sum over those
    terms, which is the quantity the tables report and marking consumes.
    The remaining entries of ``term_sq`` (data oscillation and coefficient
    approximation) belong to the full reliability bound and are reported
    alongside in :attr:`term_norms`. ``data`` holds the mesh's degree-5
    points with f and gamma there, which the oscillation term used and
    :func:`bench.error_norms` takes next.
    """

    term_sq: dict
    eta_terms: tuple
    diagnostics: dict
    data: quadrature.Degree5Data

    @property
    def per_triangle_sq(self):
        return sum(self.term_sq[k] for k in self.eta_terms)

    @property
    def term_norms(self):
        return {k: float(np.sqrt(v.sum())) for k, v in self.term_sq.items()}

    @property
    def eta(self):
        return float(np.sqrt(self.per_triangle_sq.sum()))


@dataclass
class MarkedSet:
    indices: np.ndarray
    achieved_fraction: float


def average_cr(u_cr):
    """Nodal averaging of a Crouzeix-Raviart function onto P1 vertices.

    Each vertex receives the arithmetic mean of the traces of the adjacent
    triangles; boundary vertices are treated like interior ones.
    """
    mesh = u_cr.mesh
    traces = u_cr.vertex_traces()
    corners = mesh.triangles.ravel()
    sums = np.bincount(corners, weights=traces.ravel(), minlength=mesh.num_vertices)
    counts = np.bincount(corners, minlength=mesh.num_vertices)
    return sums / np.maximum(counts, 1)


def grad_p1(mesh, nodal):
    """Broken gradient of a P1 nodal function, shape (T, 2)."""
    vals = nodal[mesh.triangles]
    return np.einsum("tk,tkd->td", vals, mesh.grad_bary())


def estimate_mixed(mesh, mixed, u_cr_tilde, coeffs, pw, exact=None):
    """Residual estimator for the mixed solution.

    Terms per triangle: osc ||(1-Pi0)(f - gamma u_M)||, volume
    ||h_T (A_h^-1 p_M + u_M b*_h)||, nonconformity
    ||A_h^-1 p_M + u_M b*_h - grad v|| with v = -average(u~_CR), and
    coefficient terms ||(A^-1 - A_h^-1) p_M|| and ||u_M (b* - b*_h)||.
    ``pw`` is ``project_p0(coeffs, mesh)``; its centroid data is the
    oscillation's reference value. With the problem's ``exact`` solution the
    report's degree-5 data also holds u and p, and f comes from the same
    evaluation (:func:`quadrature.degree5_data`).
    """
    if mixed.mesh is not mesh or u_cr_tilde.mesh is not mesh or pw.mesh is not mesh:
        raise MeshMismatch("estimator inputs live on different meshes")
    pv = mesh.triangle_vertices()
    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))  # (T, 3, 2)

    # oscillation of f - gamma u_M against its centroid value, degree 5
    resid = pw.f_h - pw.gamma_h * mixed.u
    data = quadrature.degree5_data(mesh, coeffs, exact)
    g = data.f - data.gamma * mixed.u[:, None]
    osc_sq = mesh.area * (((g - resid[:, None]) ** 2) @ quadrature.DEGREE5[1])

    # r = A_h^-1 p_M + u_M b*_h, affine per triangle; exact on edge midpoints
    p_at_mids = mixed.flux_at(mids)
    # einsum("tde,tqe->tqd", a_h_inv, p) up to the sign of zero entries,
    # which the squares below cannot see
    a_inv = pw.a_h_inv[:, None, :, :]
    r = (
        a_inv[..., 0] * p_at_mids[..., 0, None]
        + a_inv[..., 1] * p_at_mids[..., 1, None]
        + (mixed.u[:, None] * pw.b_star_h)[:, None, :]
    )
    volume_sq = mesh.h_t**2 * quadrature.affine_sq_l2(mesh.area, r)

    v_nodal = -average_cr(u_cr_tilde)
    gv = grad_p1(mesh, v_nodal)
    nonconf_sq = quadrature.affine_sq_l2(mesh.area, r - gv[:, None, :])

    # coefficient approximation terms, degree-2 rule on the midpoints
    xm, ym = mids[..., 0].ravel(), mids[..., 1].ravel()
    a_pts = require_finite("A", coeffs.a(xm, ym), "edge midpoint", per_triangle=3)
    a_inv_pts = inv_2x2(a_pts.reshape(-1, 3, 2, 2))
    diff_a = np.einsum(
        "tqde,tqe->tqd", a_inv_pts - pw.a_h_inv[:, None, :, :], p_at_mids
    )
    coeff_a_sq = quadrature.affine_sq_l2(mesh.area, diff_a)

    b_pts = require_finite("b", coeffs.b(xm, ym), "edge midpoint", per_triangle=3)
    b_star_pts = np.einsum("tqde,tqe->tqd", a_inv_pts, b_pts.reshape(-1, 3, 2))
    diff_b = mixed.u[:, None, None] * (b_star_pts - pw.b_star_h[:, None, :])
    coeff_b_sq = quadrature.affine_sq_l2(mesh.area, diff_b)

    diagnostics = {
        "norm_h2_fh": float(np.sqrt(np.sum(mesh.area * (mesh.h_t**2 * pw.f_h) ** 2))),
        "norm_h_resid": float(np.sqrt(np.sum(mesh.area * (mesh.h_t * resid) ** 2))),
    }
    return EstimatorReport(
        term_sq={
            "osc": osc_sq,
            "volume": volume_sq,
            "nonconformity": nonconf_sq,
            "coeff_a": coeff_a_sq,
            "coeff_b": coeff_b_sq,
        },
        eta_terms=("volume", "nonconformity"),
        diagnostics=diagnostics,
        data=data,
    )


def dorfler_mark(eta_sq_per_triangle, theta):
    """Greedy bulk marking: smallest prefix of the descending-sorted
    contributions reaching the theta fraction; ties broken by index.

    The sort compares contributions rounded to 30 mantissa bits, so values
    equal up to roundoff tie; the prefix sums use the unrounded values."""
    if not (0.0 < theta <= 1.0):
        raise BadTheta(f"theta must lie in (0, 1], got {theta}")
    eta_sq = np.asarray(eta_sq_per_triangle, dtype=float)
    # exact power-of-two rescale: theta * total must not round at subnormal scale
    eta_sq = np.ldexp(eta_sq, -np.frexp(eta_sq.max(initial=0.0))[1])
    total = eta_sq.sum()
    if total <= 0.0:
        return MarkedSet(indices=np.empty(0, dtype=int), achieved_fraction=1.0)
    mantissa, exponent = np.frexp(eta_sq)
    key = np.ldexp(np.rint(np.ldexp(mantissa, 30)), exponent - 30)
    order = np.lexsort((np.arange(len(eta_sq)), -key))
    accum = np.cumsum(eta_sq[order])
    k = int(np.searchsorted(accum, theta * total - 1e-14 * total)) + 1
    # the sequential prefix sums may end short of the pairwise total (theta = 1)
    k = min(k, len(order))
    chosen = order[:k]
    return MarkedSet(
        indices=np.sort(chosen),
        achieved_fraction=float(accum[k - 1] / total),
    )


def adaptive_loop(
    instance,
    theta=0.5,
    max_ndof=50000,
    mode="adaptive",
    start_mesh=None,
    on_level=None,
):
    """SOLVE / ESTIMATE / MARK / REFINE until the dof budget is exhausted.

    On every level the mixed solution is obtained by reconstruction from
    the modified nonconforming solve, the one factorization of the level.
    The solve compares its element blocks and loads with the hybridized
    saddle-point ones, and the hybrid recovery from u~ with the
    reconstruction; a difference beyond ``solver.IDENTITY_TOL`` or
    ``EQUIVALENCE_TOL`` aborts with :class:`EquivalenceViolation`. A
    singular factorization ends the run early with the partial history
    recorded (indefinite problems on coarse meshes). After each level it
    calls ``on_level(pw, mixed, u_tilde, report, record)`` with the level's
    record complete, its rates included; ``pw.mesh`` is the level's mesh.
    Nothing of a level outlives it: its data die with :func:`_run_level`'s
    locals, and its mesh as the next one replaces it, so no part of level
    k-1 is reachable when level k assembles (unless the caller holds the
    start mesh, which keeps its red children).

    The run keeps every level with at most ``max_ndof`` mixed dofs. It ends
    before refining when :func:`refine.refined_ndof_bound` puts the next
    mesh over the budget: in uniform mode that count is exact, so no mesh
    over the budget is built; in adaptive mode it is a lower bound, and a
    mesh that passes it but has more dofs than the budget is built and
    dropped. An adaptive run also ends when no triangle is marked.
    """
    bench.require_mode(mode)
    mesh = start_mesh if start_mesh is not None else instance.start_mesh()
    del start_mesh  # the red children kept on it would keep every level alive
    if not mesh.ndof_mixed <= max_ndof:  # NaN too
        raise ConfigError(
            f"max-ndof {max_ndof} < {mesh.ndof_mixed} mixed dofs of the start mesh"
        )
    history = bench.ConvergenceHistory()
    while mesh is not None and mesh.ndof_mixed <= max_ndof:
        mesh = _refined(
            mesh, _run_level(instance, mesh, history, on_level),
            mode, theta, max_ndof,
        )
    return history


def _run_level(instance, mesh, history, on_level):
    """Solve, check, estimate and record the level of ``mesh``; return its
    per-triangle eta_T^2, or None where a singular factorization ends the
    run. The level's data are locals of this call: none outlives it."""
    level = len(history.records)
    try:
        pw = project_p0(instance.field, mesh)
        mixed, u_tilde, (rel_p, rel_u) = solve_mixed_via_equivalence(
            mesh, pw, u_dirichlet=instance.field.u_dirichlet
        )
    except SingularMatrix as exc:
        history.failure = f"SingularMatrix at level {level}: {exc}"
        return None
    except EquivalenceViolation as exc:
        raise EquivalenceViolation(f"level {level}: {exc}") from None
    if max(rel_p, rel_u) > EQUIVALENCE_TOL:
        raise EquivalenceViolation(
            f"level {level}: routes differ by ({rel_p:.2e}, {rel_u:.2e})"
        )
    report = estimate_mixed(mesh, mixed, u_tilde, instance.field, pw, instance.exact)
    record = bench.LevelRecord(
        level=level,
        ndof=mesh.ndof_mixed,
        eta=report.eta,
        equivalence=(rel_p, rel_u),
    )
    if instance.exact is not None:
        record.e_u, record.e_p, record.e_div = bench.error_norms(
            mixed, instance, report.data
        )
    history.add(record)
    if on_level is not None:
        on_level(pw, mixed, u_tilde, report, record)
    return report.per_triangle_sq


def _refined(mesh, eta_sq, mode, theta, max_ndof):
    """The next level's mesh: ``mesh`` red-refined (uniform mode) or refined
    around the Doerfler set of ``eta_sq`` (adaptive mode); None where the run
    ends: the level ended it (``eta_sq`` None), no triangle is marked, or
    :func:`refine.refined_ndof_bound` puts the next mesh over the budget."""
    if eta_sq is None:
        return None
    marked = None  # uniform: red-refine every triangle
    if mode == "adaptive":
        marked = dorfler_mark(eta_sq, theta).indices
        if len(marked) == 0:
            return None  # estimator vanished; nothing to refine
    # never build a mesh the budget rejects; the rgb bound may pass a mesh
    # that the loop's test then rejects
    if refined_ndof_bound(mesh, marked) > max_ndof:
        return None
    return uniform_red_refine(mesh) if marked is None else rgb_refine(mesh, marked)
