"""A posteriori estimation, marking, and the adaptive driver.

The mixed estimator follows the reliability bound for the saddle-point
solution: data oscillation of f - gamma u_M against its centroid mean, the
mesh-weighted volume term, a nonconformity term in which the minimum over
conforming functions is bounded through the nodal average of -u~_CR, and
two coefficient-approximation terms. The driver runs
solve / estimate / mark / refine and factors one system per level, the
modified nonconforming one, whose solve checks the paper's equivalence
(:func:`solver.solve_mixed_via_equivalence`). The estimator evaluates
gamma, and f or the exact solution with its load, once per level, at the
degree-5 points of every triangle; its report hands that data on to the
error norms. Every level runs through one :class:`_Level`, which keeps
its data that do not depend on gamma only while a later history will use
them; so the loop holds none of them when it refines, and drops the rest
of the level, its mesh included, before the next level assembles. Before
refining, the loop
tests the dof budget against :func:`refine.refined_ndof_bound`, so it
never builds a mesh the budget rejects in uniform mode, nor one the bound
already puts over it in adaptive mode. A sweep's histories advance
together, level by level; those on one mesh whose fields differ only in
gamma run their level through one :class:`_Level`.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import bench, problem, quadrature
from .assembly import hybrid_inverses
from .errors import (
    BadTheta, ConfigError, EquivalenceViolation, MeshMismatch, SingularMatrix
)
from .problem import ProblemInstance, Reaction, inv_2x2, project_p0, require_finite
from .refine import refined_ndof_bound, rgb_refine, uniform_red_refine
from .solver import MixedSolve, solve_mixed_via_equivalence


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
class LevelResult:
    """The one argument of :func:`adaptive_loop`'s ``on_level``."""

    pw: problem.PiecewiseData
    solve: MixedSolve
    estimate: EstimatorReport
    record: bench.LevelRecord


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


def estimate_mixed(mesh, mixed, u_cr_tilde, coeffs, pw, exact=None, level=None):
    """Residual estimator for the mixed solution.

    Terms per triangle: osc ||(1-Pi0)(f - gamma u_M)||, volume
    ||h_T (A_h^-1 p_M + u_M b*_h)||, nonconformity
    ||A_h^-1 p_M + u_M b*_h - grad v|| with v = -average(u~_CR), and
    coefficient terms ||(A^-1 - A_h^-1) p_M|| and ||u_M (b* - b*_h)||.
    ``pw`` is ``project_p0(coeffs, mesh)``; its centroid data is the
    oscillation's reference value. With the problem's ``exact`` solution the
    report's degree-5 data also holds u and p, and f comes from the same
    evaluation (:func:`quadrature.degree5_data`). The degree-5 data and A^-1
    and b* at the edge midpoints come from ``level``, the :class:`_Level` of
    ``mesh``; where it is not given, one is built for this call.
    """
    if mixed.mesh is not mesh or u_cr_tilde.mesh is not mesh or pw.mesh is not mesh:
        raise MeshMismatch("estimator inputs live on different meshes")
    if level is None:
        level = _Level(mesh, coeffs, exact)
    mids = mesh.triangle_edge_midpoints()  # (T, 3, 2)

    # oscillation of f - gamma u_M against its centroid value, degree 5
    resid = pw.f_h - pw.gamma_h * mixed.u
    data = level.degree5_data(coeffs)
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
    a_gap, b_gap = level.coefficient_gaps(pw, mids)
    diff_a = np.einsum("tqde,tqe->tqd", a_gap, p_at_mids)
    coeff_a_sq = quadrature.affine_sq_l2(mesh.area, diff_a)

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
    the modified nonconforming solve, the one factorization of the level,
    which checks the equivalence (:func:`solver.solve_mixed_via_equivalence`);
    its :class:`EquivalenceViolation` aborts the run, prefixed with the
    level. A singular factorization ends the run early with the partial
    history recorded (indefinite problems on coarse meshes). After each
    level it calls ``on_level(level)`` with one :class:`LevelResult`: the
    level's piecewise data ``pw`` (``pw.mesh`` is its mesh), its
    :class:`solver.MixedSolve` ``solve``, its :class:`EstimatorReport`
    ``estimate`` and its ``record``, complete with its rates. Nothing of a
    level outlives it: its data die with :func:`_run_level`'s locals, or
    with their last use where its :class:`_Level` keeps them for later
    histories, and its mesh as the next one replaces it, so no part of
    level k-1 is reachable when level k assembles (unless the caller holds
    the start mesh, which keeps its red children).

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
    one exact solution) share its reaction-free data (:class:`_Level`).
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


class _Level:
    """The reaction-free data of one level: one mesh, the fields of its
    group's histories, which differ only in gamma, and one exact solution.

    The first history that needs a part builds it. A part is kept while
    ``later`` is set, that is, while histories after the current one will
    run the level; the last history takes each part as it uses it. So each
    part dies with its last use and a group of one keeps none. An earlier
    history of a group refines while the parts kept for the later ones are
    alive; the last one, and so any group of one, refines with none."""

    def __init__(self, mesh, field, exact):
        self.mesh, self.field, self.exact = mesh, field, exact
        self.later = False
        self._parts = {}

    def _keep(self, name, part):
        """``part``, kept as ``name`` where later histories run the level,
        for the next of them to take."""
        if self.later:
            self._parts[name] = part
        return part

    def project(self, field):
        """``field``'s piecewise data (:func:`project_p0`); after the first
        history's, only gamma is projected."""
        like = self._parts.pop("pw", None)
        coeffs = field if like is None else Reaction(field.gamma, like)
        return self._keep("pw", project_p0(coeffs, self.mesh))

    def degree5_data(self, coeffs):
        """``coeffs``' :func:`quadrature.degree5_data`; after the first
        history's, only gamma is evaluated."""
        like = self._parts.pop("data", None)
        data = quadrature.degree5_data(self.mesh, coeffs, self.exact, like=like)
        self._keep("data", replace(data, gamma=None))
        return data

    def inverses(self, mesh, pw):
        """The builder of :func:`assembly.assemble_hybrid_mixed`: the arrays
        of :func:`assembly.hybrid_inverses`, which the first history builds
        after its modified assembly."""
        inverses = self._parts.pop("inverses", None) or hybrid_inverses(mesh, pw)
        return self._keep("inverses", inverses)

    def coefficient_gaps(self, pw, mids):
        """A^-1 - A_h^-1 and b* - b*_h = A^-1 b - A_h^-1 b_h at the edge
        midpoints ``mids``, (T, 3, 2, 2) and (T, 3, 2); ``pw`` is a
        history's piecewise data."""
        gaps = self._parts.pop("gaps", None)
        if gaps is None:
            x, y, field = mids[..., 0].ravel(), mids[..., 1].ravel(), self.field
            a = require_finite("A", field.a(x, y), "edge midpoint", per_triangle=3)
            a_inv = inv_2x2(a.reshape(-1, 3, 2, 2))
            b = require_finite("b", field.b(x, y), "edge midpoint", per_triangle=3)
            b_star = np.einsum("tqde,tqe->tqd", a_inv, b.reshape(-1, 3, 2))
            # in place: no third (T, 3, 2, 2) array while the estimate runs
            a_inv -= pw.a_h_inv[:, None]
            b_star -= pw.b_star_h[:, None]
            gaps = a_inv, b_star
        return self._keep("gaps", gaps)


def _advance(group, mode, theta, max_ndof):
    """Run the level of every run of ``group`` on their common mesh through
    one :class:`_Level`, and move each run on to its next mesh right after
    its level. The last run takes the level's parts as it uses them, so
    none is alive when it refines."""
    mesh, first = group[0].mesh, group[0].instance
    level = _Level(mesh, first.field, first.exact)
    for run in group:
        level.later = run is not group[-1]
        eta_sq = _run_level(run, level)
        run.mesh = _refined(mesh, eta_sq, mode, theta, max_ndof)


def _run_level(run, level):
    """Solve, check, estimate and record ``run``'s level, that of
    ``level.mesh``; return its per-triangle eta_T^2, or None where a
    singular factorization ends the run. The level's data are locals of
    this call or parts of ``level``: none outlives the level."""
    instance, history, mesh = run.instance, run.history, level.mesh
    field, k = instance.field, len(history.records)
    try:
        pw = level.project(field)
        solve = solve_mixed_via_equivalence(
            mesh, pw, u_dirichlet=field.u_dirichlet, inverses=level.inverses
        )
    except SingularMatrix as exc:
        history.failure = f"SingularMatrix at level {k}: {exc}"
        return None
    except EquivalenceViolation as exc:
        raise EquivalenceViolation(f"level {k}: {exc}") from None
    mixed, u_tilde = solve.mixed, solve.u_tilde
    estimate = estimate_mixed(mesh, mixed, u_tilde, field, pw, instance.exact, level)
    record = bench.LevelRecord(
        level=k,
        ndof=mesh.ndof_mixed,
        eta=estimate.eta,
        equivalence=solve.equivalence,
    )
    if instance.exact is not None:
        record.e_u, record.e_p, record.e_div = bench.error_norms(
            mixed, instance, estimate.data
        )
    history.add(record)
    if run.on_level is not None:
        run.on_level(LevelResult(pw, solve, estimate, record))
    return estimate.per_triangle_sq


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
