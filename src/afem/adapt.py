"""A posteriori estimation, marking, and the adaptive driver.

The mixed estimator follows the reliability bound for the saddle-point
solution: data oscillation of f - gamma u_M against its centroid mean, the
mesh-weighted volume term, a nonconformity term in which the minimum over
conforming functions is bounded through the nodal average of -u~_CR, and
two coefficient-approximation terms. The driver runs
solve / estimate / mark / refine, cross-checking the reconstruction
against the direct saddle solve on every level.
"""

from dataclasses import dataclass

import numpy as np

from . import bench, quadrature
from .errors import (
    BadTheta, ConfigError, EquivalenceViolation, MeshMismatch, SingularMatrix
)
from .problem import inv_2x2, project_p0
from .refine import rgb_refine, uniform_red_refine
from .solver import (
    equivalence_residual,
    solve_mixed_direct,
    solve_mixed_via_equivalence,
)

EQUIVALENCE_TOL = 1e-8  # per-level cross-check of the two mixed routes


@dataclass
class EstimatorReport:
    """Named per-triangle squared contributions of an error estimator.

    ``eta_terms`` lists the terms that constitute the estimator proper:
    eta^2 = sum_T eta_T^2 with eta_T^2 the elementwise sum over those
    terms, which is the quantity the tables report and marking consumes.
    The remaining entries of ``term_sq`` (data oscillation and coefficient
    approximation) belong to the full reliability bound and are reported
    alongside in :attr:`term_norms`.
    """

    term_sq: dict
    eta_terms: tuple
    diagnostics: dict

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
    sums = np.zeros(mesh.num_vertices)
    counts = np.zeros(mesh.num_vertices)
    np.add.at(sums, mesh.triangles.ravel(), traces.ravel())
    np.add.at(counts, mesh.triangles.ravel(), 1.0)
    return sums / np.maximum(counts, 1.0)


def grad_p1(mesh, nodal):
    """Broken gradient of a P1 nodal function, shape (T, 2)."""
    vals = nodal[mesh.triangles]
    return np.einsum("tk,tkd->td", vals, mesh.grad_bary())


def estimate_mixed(mesh, mixed, u_cr_tilde, coeffs, pw):
    """Residual estimator for the mixed solution.

    Terms per triangle: osc ||(1-Pi0)(f - gamma u_M)||, volume
    ||h_T (A_h^-1 p_M + u_M b*_h)||, nonconformity
    ||A_h^-1 p_M + u_M b*_h - grad v|| with v = -average(u~_CR), and
    coefficient terms ||(A^-1 - A_h^-1) p_M|| and ||u_M (b* - b*_h)||.
    ``pw`` is ``project_p0(coeffs, mesh)``; its centroid data is the
    oscillation's reference value.
    """
    if mixed.mesh is not mesh or u_cr_tilde.mesh is not mesh or pw.mesh is not mesh:
        raise MeshMismatch("estimator inputs live on different meshes")
    pv = mesh.triangle_vertices()
    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))  # (T, 3, 2)

    # oscillation of f - gamma u_M against its centroid value, degree 5
    resid = pw.f_h - pw.gamma_h * mixed.u
    pts = quadrature.physical_points(pv)
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    g = np.asarray(coeffs.f(x, y), dtype=float).reshape(pts.shape[:2]) - np.asarray(
        coeffs.gamma(x, y), dtype=float
    ).reshape(pts.shape[:2]) * mixed.u[:, None]
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
    a_pts = np.asarray(coeffs.a(xm, ym), dtype=float).reshape(-1, 3, 2, 2)
    a_inv_pts = inv_2x2(a_pts)
    diff_a = np.einsum(
        "tqde,tqe->tqd", a_inv_pts - pw.a_h_inv[:, None, :, :], p_at_mids
    )
    coeff_a_sq = quadrature.affine_sq_l2(mesh.area, diff_a)

    b_pts = np.asarray(coeffs.b(xm, ym), dtype=float).reshape(-1, 3, 2)
    b_star_pts = np.einsum("tqde,tqe->tqd", a_inv_pts, b_pts)
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
    the modified nonconforming solve and cross-checked against the direct
    saddle-point solve; disagreement beyond EQUIVALENCE_TOL aborts. A
    singular factorization ends the run early with the partial history
    recorded (indefinite problems on coarse meshes). After each level it
    calls ``on_level(pw, mixed, u_tilde, report, record)``; ``pw.mesh`` is
    the level's mesh.
    """
    if mode not in ("adaptive", "uniform"):
        raise ConfigError(f"mode must be 'adaptive' or 'uniform', got {mode!r}")
    mesh = start_mesh if start_mesh is not None else instance.start_mesh()
    del start_mesh  # the red children kept on it would keep every level alive
    if mesh.ndof_mixed > max_ndof:
        raise ConfigError(
            f"max-ndof {max_ndof} < {mesh.ndof_mixed} mixed dofs of the start mesh"
        )
    history = bench.ConvergenceHistory(
        problem=instance.name, mode=mode, theta=theta, params=dict(instance.params)
    )
    level = 0
    while mesh.ndof_mixed <= max_ndof:
        try:
            pw = project_p0(instance.field, mesh)
            mixed, u_tilde = solve_mixed_via_equivalence(
                mesh, pw, u_dirichlet=instance.field.u_dirichlet
            )
            direct = solve_mixed_direct(
                mesh, pw, u_dirichlet=instance.field.u_dirichlet
            )
        except SingularMatrix as exc:
            history.failure = f"SingularMatrix at level {level}: {exc}"
            break
        rel_p, rel_u = equivalence_residual(direct, mixed)
        if max(rel_p, rel_u) > EQUIVALENCE_TOL:
            raise EquivalenceViolation(
                f"level {level}: routes differ by ({rel_p:.2e}, {rel_u:.2e})"
            )
        report = estimate_mixed(mesh, mixed, u_tilde, instance.field, pw)
        record = bench.LevelRecord(
            level=level,
            ndof=mesh.ndof_mixed,
            eta=report.eta,
            equivalence=(rel_p, rel_u),
        )
        if instance.exact is not None:
            record.e_u, record.e_p, record.e_div = bench.error_norms(mixed, instance)
        record.finalize()
        history.records.append(record)
        if on_level is not None:
            on_level(pw, mixed, u_tilde, report, record)
        if mode == "uniform":
            # red refinement gives E' = 2E + 3T edges and T' = 4T triangles;
            # never build a mesh the budget would reject
            if 2 * mesh.num_edges + 7 * mesh.num_triangles > max_ndof:
                break
            mesh = uniform_red_refine(mesh)
        else:
            marked = dorfler_mark(report.per_triangle_sq, theta)
            if len(marked.indices) == 0:
                break  # estimator vanished; nothing to refine
            mesh = rgb_refine(mesh, marked.indices)
        level += 1
    if len(history.records) >= 2:
        bench.convergence_rate(history)
    return history
