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
already puts over it in adaptive mode. A sweep's histories advance
together, level by level; those on one mesh whose fields differ only in
gamma share the level's reaction-free data, built once
(:class:`_SharedLevel`).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bench, quadrature
from .assembly import boundary_values, hybrid_inverses
from .errors import (
    BadTheta, ConfigError, EquivalenceViolation, MeshMismatch, SingularMatrix
)
from .problem import ProblemInstance, Reaction, inv_2x2, project_p0, require_finite
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


def estimate_mixed(mesh, mixed, u_cr_tilde, coeffs, pw, exact=None, shared=None):
    """Residual estimator for the mixed solution.

    Terms per triangle: osc ||(1-Pi0)(f - gamma u_M)||, volume
    ||h_T (A_h^-1 p_M + u_M b*_h)||, nonconformity
    ||A_h^-1 p_M + u_M b*_h - grad v|| with v = -average(u~_CR), and
    coefficient terms ||(A^-1 - A_h^-1) p_M|| and ||u_M (b* - b*_h)||.
    ``pw`` is ``project_p0(coeffs, mesh)``; its centroid data is the
    oscillation's reference value. With the problem's ``exact`` solution the
    report's degree-5 data also holds u and p, and f comes from the same
    evaluation (:func:`quadrature.degree5_data`). ``shared``, the
    :class:`_SharedLevel` of ``mesh`` where given, supplies all of that
    data but gamma, and A^-1 and b* at the edge midpoints.
    """
    if mixed.mesh is not mesh or u_cr_tilde.mesh is not mesh or pw.mesh is not mesh:
        raise MeshMismatch("estimator inputs live on different meshes")
    mids = _edge_midpoints(mesh)  # (T, 3, 2)

    # oscillation of f - gamma u_M against its centroid value, degree 5
    resid = pw.f_h - pw.gamma_h * mixed.u
    if shared is None:
        data = quadrature.degree5_data(mesh, coeffs, exact)
    else:
        data = shared.degree5_data(coeffs)
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
    if shared is None:
        a_inv_pts = _a_inv_at(mids, coeffs)
        diff_a = np.einsum(
            "tqde,tqe->tqd", a_inv_pts - pw.a_h_inv[:, None, :, :], p_at_mids
        )
    else:
        diff_a = np.einsum("tqde,tqe->tqd", shared.coefficient_gaps[0], p_at_mids)
    coeff_a_sq = quadrature.affine_sq_l2(mesh.area, diff_a)

    if shared is None:
        b_gap = _b_star_at(mids, coeffs, a_inv_pts) - pw.b_star_h[:, None, :]
    else:
        b_gap = shared.coefficient_gaps[1]
    diff_b = mixed.u[:, None, None] * b_gap
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


def _edge_midpoints(mesh):
    """(T, 3, 2) midpoints of each triangle's edges (P_k, P_k+1)."""
    pv = mesh.triangle_vertices()
    return 0.5 * (pv + np.roll(pv, -1, axis=1))


def _a_inv_at(mids, coeffs):
    """(T, 3, 2, 2) inverses of A at the (T, 3, 2) points ``mids``."""
    xm, ym = mids[..., 0].ravel(), mids[..., 1].ravel()
    a_pts = require_finite("A", coeffs.a(xm, ym), "edge midpoint", per_triangle=3)
    return inv_2x2(a_pts.reshape(-1, 3, 2, 2))


def _b_star_at(mids, coeffs, a_inv_pts):
    """(T, 3, 2) values b* = A^-1 b at the points ``mids``, given A^-1 there."""
    xm, ym = mids[..., 0].ravel(), mids[..., 1].ravel()
    b_pts = require_finite("b", coeffs.b(xm, ym), "edge midpoint", per_triangle=3)
    return np.einsum("tqde,tqe->tqd", a_inv_pts, b_pts.reshape(-1, 3, 2))


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
    histories=None,
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

    A sweep passes a sequence of instances, one start mesh for all, and a
    sequence of callbacks, or None, for ``on_level``; it gets the list of
    their histories. The histories advance together, level by level: on
    each level, those on one mesh whose fields differ only in gamma (with
    one exact solution) share its reaction-free data (:class:`_SharedLevel`).
    ``histories`` are the histories to fill, one per instance, new ones by
    default. An exception out of a level ends every history still running:
    each gets it as its ``failure`` before it propagates, so a caller that
    passed the histories sees how far each got.
    """
    bench.require_mode(mode)
    sweep = not isinstance(instance, ProblemInstance)
    instances = list(instance) if sweep else [instance]
    callbacks = list(on_level) if sweep and on_level else [on_level] * len(instances)
    if histories is None:
        histories = [bench.ConvergenceHistory() for _ in instances]
    mesh = start_mesh if start_mesh is not None else instances[0].start_mesh()
    del start_mesh  # the red children kept on it would keep every level alive
    if not mesh.ndof_mixed <= max_ndof:  # NaN too
        raise ConfigError(
            f"max-ndof {max_ndof} < {mesh.ndof_mixed} mixed dofs of the start mesh"
        )
    runs = [_Run(*run, mesh) for run in zip(instances, callbacks, histories)]
    del mesh
    try:
        while runs:
            for group in _groups(runs):
                _advance(group, mode, theta, max_ndof)
            runs = [run for run in runs if run.mesh is not None]
    except BaseException as exc:
        reason = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        for run in runs:
            if run.mesh is not None:
                run.history.failure = reason
        raise
    return histories if sweep else histories[0]


@dataclass(eq=False)
class _Run:
    """One history of :func:`adaptive_loop`: its problem, callback, history
    and the mesh of its next level, None once it has ended."""

    instance: ProblemInstance
    on_level: object
    history: bench.ConvergenceHistory
    mesh: object


def _groups(runs):
    """The runs in groups, in order: those on one mesh whose fields differ
    only in gamma, with one exact solution."""
    groups = {}
    for run in runs:
        inst, field = run.instance, run.instance.field
        same = (run.mesh, inst.exact, field.a, field.b, field.f, field.u_dirichlet)
        groups.setdefault(tuple(map(id, same)), []).append(run)
    return list(groups.values())


class _SharedLevel:
    """The reaction-free data of one level, shared by a group of histories:
    one mesh, fields that differ only in gamma, and one exact solution.

    The group's first history builds each part where it first needs it,
    and every part dies with the group, so with its level."""

    def __init__(self, mesh, instance):
        self.mesh, self.field, self.exact = mesh, instance.field, instance.exact
        self.pw = self.data = None  # the first history's

    def project(self, field):
        """``field``'s piecewise data (:func:`project_p0`); after the first
        history's, only gamma is projected."""
        coeffs = field if self.pw is None else Reaction(field.gamma, self.pw)
        pw = project_p0(coeffs, self.mesh)
        if self.pw is None:
            self.pw = pw
        return pw

    def degree5_data(self, coeffs):
        """``coeffs``' :func:`quadrature.degree5_data`; after the first
        history's, only gamma is evaluated."""
        data = quadrature.degree5_data(self.mesh, coeffs, self.exact, like=self.data)
        if self.data is None:
            self.data = replace(data, gamma=None)
        return data

    @cached_property
    def boundary_values(self):
        u_d = self.field.u_dirichlet
        return u_d if u_d is None else boundary_values(self.mesh, u_d)

    @cached_property
    def inverses(self):
        return hybrid_inverses(self.mesh, self.pw)

    @cached_property
    def coefficient_gaps(self):
        """A^-1 - A_h^-1 and b* - b*_h at the edge midpoints, (T, 3, 2, 2) and
        (T, 3, 2)."""
        mids = _edge_midpoints(self.mesh)
        a_inv_pts = _a_inv_at(mids, self.field)
        return (
            a_inv_pts - self.pw.a_h_inv[:, None, :, :],
            _b_star_at(mids, self.field, a_inv_pts) - self.pw.b_star_h[:, None, :],
        )


def _advance(group, mode, theta, max_ndof):
    """Run the level of every run of ``group`` on their common mesh, and
    move each on to its next mesh. A group of two or more shares the
    level's reaction-free data, which dies here."""
    mesh = group[0].mesh
    shared = _SharedLevel(mesh, group[0].instance) if len(group) > 1 else None
    for run in group:
        eta_sq = _run_level(run.instance, mesh, run.history, run.on_level, shared)
        run.mesh = _refined(mesh, eta_sq, mode, theta, max_ndof)


def _run_level(instance, mesh, history, on_level, shared=None):
    """Solve, check, estimate and record the level of ``mesh``; return its
    per-triangle eta_T^2, or None where a singular factorization ends the
    run. The level's data are locals of this call, or parts of ``shared``,
    the :class:`_SharedLevel` of its group: none outlives the level."""
    level = len(history.records)
    field = instance.field
    try:
        if shared is None:
            pw, u_d, inverses = project_p0(field, mesh), field.u_dirichlet, None
        else:
            pw = shared.project(field)
            u_d, inverses = shared.boundary_values, shared.inverses
        mixed, u_tilde, (rel_p, rel_u) = solve_mixed_via_equivalence(
            mesh, pw, u_dirichlet=u_d, inverses=inverses
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
    report = estimate_mixed(mesh, mixed, u_tilde, field, pw, instance.exact, shared)
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
    the next mesh has more than ``max_ndof`` mixed dofs, which
    :func:`refine.refined_ndof_bound` tells before it is built."""
    if eta_sq is None:
        return None
    marked = None  # uniform: red-refine every triangle
    if mode == "adaptive":
        marked = dorfler_mark(eta_sq, theta).indices
        if len(marked) == 0:
            return None  # estimator vanished; nothing to refine
    # never build a mesh the budget rejects; the rgb bound may pass a mesh
    # that only its count then rejects
    if refined_ndof_bound(mesh, marked) > max_ndof:
        return None
    refined = uniform_red_refine(mesh) if marked is None else rgb_refine(mesh, marked)
    return refined if refined.ndof_mixed <= max_ndof else None
