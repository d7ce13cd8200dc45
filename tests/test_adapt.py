import dataclasses
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem.adapt import (
    adaptive_loop,
    average_cr,
    dorfler_mark,
    estimate_mixed,
    grad_p1,
)
from afem import adapt, solver
from afem.assembly import CRSolution
from afem.errors import BadTheta
from afem.mesh import build_mesh
from afem.problem import (
    DEFAULT_GAMMA_SWEEP,
    CoefficientField,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    crack_start_mesh,
    inv_2x2,
    lshape_start_mesh,
    project_p0,
)
from afem.refine import refined_ndof_bound, rgb_refine, uniform_red_refine
from afem.solver import solve_mixed_via_equivalence

from oracles import (
    constant_instance,
    graded_toward_corner,
    random_spd_matrix,
    reference_estimate_mixed,
    unchecked_adaptive_loop,
)
from test_assembly import _variable_field
from test_mesh import _rgb_mesh_with_green_and_blue

SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def cr_interpolant(mesh, fn):
    return CRSolution(
        mesh=mesh, edge_values=fn(mesh.edge_mid[:, 0], mesh.edge_mid[:, 1])
    )


def field(a=None, b=(0.0, 0.0), gamma=0.0, f=0.0, u_d=0.0):
    return CoefficientField(
        a=constant_matrix(np.eye(2) if a is None else a),
        b=constant_vector(b),
        gamma=constant_scalar(gamma),
        f=constant_scalar(f) if np.isscalar(f) else f,
        u_dirichlet=constant_scalar(u_d),
    )


# -- averaging ---------------------------------------------------------------


def test_average_of_globally_affine_function():
    mesh = lshape_start_mesh()
    sol = cr_interpolant(mesh, lambda x, y: 2.0 * x - y + 0.5)
    nodal = average_cr(sol)
    exact = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1] + 0.5
    assert np.abs(nodal - exact).max() < 1e-13
    grads = grad_p1(mesh, nodal)
    assert np.abs(grads - np.array([2.0, -1.0])).max() < 1e-12


def test_average_of_two_triangle_traces():
    mesh = build_mesh(*SQUARE)
    values = np.zeros(mesh.num_edges)
    sol = CRSolution(mesh=mesh, edge_values=values)
    traces = sol.vertex_traces()
    # craft edge values giving traces 1 and 3 at the shared vertex 0
    # CR trace at vertex v equals sum(dofs) - 2 dof_opposite(v)
    t0 = list(mesh.triangles[0]).index(0)
    t1 = list(mesh.triangles[1]).index(0)
    v = np.zeros(mesh.num_edges)
    v[mesh.triangle_edges[0]] = 1.0  # all traces on T0 equal 1
    sol = CRSolution(mesh=mesh, edge_values=v)
    tr = sol.vertex_traces()
    assert np.allclose(tr[0], 1.0)
    nodal = average_cr(sol)
    # vertex 0 is shared: mean of trace 1 (T0) and trace on T1
    assert nodal[0] == pytest.approx(0.5 * (tr[0][t0] + tr[1][t1]))
    # vertices 1 and 3 belong to a single triangle: the trace itself
    k1 = list(mesh.triangles[0]).index(1)
    assert nodal[1] == pytest.approx(tr[0][k1])


# -- the mixed estimator -----------------------------------------------------


def run_pipeline(inst, mesh):
    pw = project_p0(inst.field, mesh)
    solve = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    return pw, solve.mixed, solve.u_tilde


def test_estimator_zero_on_zero_problem():
    mesh = lshape_start_mesh()
    zero = field()
    pw = project_p0(zero, mesh)
    solve = solve_mixed_via_equivalence(mesh, pw, constant_scalar(0.0))
    report = estimate_mixed(mesh, solve.mixed, solve.u_tilde, zero, pw)
    assert report.eta == 0.0
    assert all(v.max() == 0.0 for v in report.term_sq.values())


def test_constant_solution_passes_the_equivalence_check():
    # u = 1: the flux of each route is roundoff (1.6e-16 direct, 1.2e-15
    # reconstructed), so relative to the flux alone the routes "differed" by 7.6
    history = adaptive_loop(constant_instance(), max_ndof=4000, mode="uniform")
    assert len(history.records) == 4
    assert max(max(r.equivalence) for r in history.records) < 1e-13
    assert max(r.e_u for r in history.records) < 1e-13


def _crack_adaptive_mesh(levels=4):
    """The crack benchmark's adaptive meshes, theta = 0.5; with green and
    blue closure children from the second refinement on."""
    inst = benchmark("crack")
    mesh = inst.start_mesh()
    for _ in range(levels):
        pw, mixed, u_tilde = run_pipeline(inst, mesh)
        report = estimate_mixed(mesh, mixed, u_tilde, inst.field, pw)
        mesh = rgb_refine(mesh, dorfler_mark(report.per_triangle_sq, 0.5).indices)
    return mesh


@pytest.mark.parametrize("case", ["variable", "crack"])
def test_estimator_bit_identical_to_pointwise_reference(case):
    # no CSV shows the oscillation and coefficient terms, so they are pinned
    # here against the estimator that evaluated f and gamma on its own
    mesh = _crack_adaptive_mesh()
    assert {1, 2} <= set(mesh.green_flag.tolist())
    if case == "variable":
        inst = dataclasses.replace(
            benchmark("crack"), field=_variable_field(np.random.default_rng(7))
        )
    else:
        inst = benchmark("crack")
    pw, mixed, u_tilde = run_pipeline(inst, mesh)
    report = estimate_mixed(mesh, mixed, u_tilde, inst.field, pw)
    expected = reference_estimate_mixed(mesh, mixed, u_tilde, inst.field, pw)
    assert report.term_sq.keys() == expected.keys()
    # crack's A is the identity, so only its coeff_a term vanishes
    assert all(
        v.max() > 0 for k, v in expected.items() if case == "variable" or k != "coeff_a"
    )
    for name, values in expected.items():
        assert np.array_equal(
            report.term_sq[name].view(np.int64), values.view(np.int64)
        ), name


def test_constant_data_kills_osc_and_coefficient_terms():
    mesh = lshape_start_mesh()
    f = field(a=[[2.0, 0.5], [0.5, 1.0]], b=(0.3, -0.2), gamma=-1.0, f=2.0)
    pw = project_p0(f, mesh)
    solve = solve_mixed_via_equivalence(mesh, pw, constant_scalar(0.0))
    report = estimate_mixed(mesh, solve.mixed, solve.u_tilde, f, pw)
    assert report.term_sq["osc"].max() == pytest.approx(0.0, abs=1e-28)
    assert report.term_sq["coeff_a"].max() == pytest.approx(0.0, abs=1e-28)
    assert report.term_sq["coeff_b"].max() == pytest.approx(0.0, abs=1e-28)


def test_lshape_level0_estimator_matches_reported_value():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    pw, mixed, u_tilde = run_pipeline(inst, mesh)
    report = estimate_mixed(mesh, mixed, u_tilde, inst.field, pw)
    assert report.eta == pytest.approx(1.01064602, rel=0.15)


def test_estimator_additivity_and_permutation_invariance():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    pw, mixed, u_tilde = run_pipeline(inst, mesh)
    report = estimate_mixed(mesh, mixed, u_tilde, inst.field, pw)
    per_tri = report.per_triangle_sq
    assert report.eta**2 == pytest.approx(per_tri.sum(), rel=1e-14)
    rng = np.random.default_rng(1)
    shuffled = per_tri[rng.permutation(len(per_tri))]
    assert shuffled.sum() == pytest.approx(per_tri.sum(), rel=1e-14)
    # full pipeline on a permuted triangle list gives the same estimator
    perm = rng.permutation(mesh.num_triangles)
    mesh2 = build_mesh(mesh.vertices, mesh.triangles[perm])
    pw2, mixed2, u_tilde2 = run_pipeline(inst, mesh2)
    report2 = estimate_mixed(mesh2, mixed2, u_tilde2, inst.field, pw2)
    assert report2.eta == pytest.approx(report.eta, rel=1e-10)
    assert np.abs(np.sort(report2.per_triangle_sq) - np.sort(per_tri)).max() < 1e-12


def test_coefficient_terms_match_independent_recomputation():
    # variable A: recompute the coefficient-approximation terms triangle by
    # triangle with the same degree-2 rule, written out scalar-wise
    def a(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty((x.size, 2, 2))
        out[:, 0, 0] = 2.0 + x
        out[:, 1, 1] = 1.5 + 0.5 * y
        out[:, 0, 1] = out[:, 1, 0] = 0.1 * x * y
        return out

    var_field = CoefficientField(
        a=a,
        b=lambda x, y: np.stack(
            [np.asarray(x, dtype=float), -np.asarray(y, dtype=float)], axis=-1
        ),
        gamma=constant_scalar(1.0),
        f=constant_scalar(1.0),
        u_dirichlet=constant_scalar(0.0),
    )
    mesh = lshape_start_mesh()
    pw = project_p0(var_field, mesh)
    solve = solve_mixed_via_equivalence(mesh, pw, constant_scalar(0.0))
    mixed = solve.mixed
    report = estimate_mixed(mesh, mixed, solve.u_tilde, var_field, pw)
    assert report.term_sq["coeff_a"].max() > 0
    assert report.term_sq["coeff_b"].max() > 0
    for t in np.random.default_rng(2).choice(mesh.num_triangles, 5, replace=False):
        pv = mesh.vertices[mesh.triangles[t]]
        mids = 0.5 * (pv + np.roll(pv, -1, axis=0))
        acc_a = acc_b = 0.0
        for m in mids:
            a_pt = a(m[0], m[1])[0]
            a_inv_pt = np.linalg.inv(a_pt)
            p_val = mixed.flux_const[t] + mixed.flux_slope[t] * m
            da = (a_inv_pt - pw.a_h_inv[t]) @ p_val
            acc_a += mesh.area[t] / 3.0 * float(da @ da)
            b_pt = np.array([m[0], -m[1]])
            db = mixed.u[t] * (a_inv_pt @ b_pt - pw.b_star_h[t])
            acc_b += mesh.area[t] / 3.0 * float(db @ db)
        assert report.term_sq["coeff_a"][t] == pytest.approx(acc_a, rel=1e-12)
        assert report.term_sq["coeff_b"][t] == pytest.approx(acc_b, rel=1e-12)


def test_closed_form_inverse_matches_lapack_on_spd_fields():
    rng = np.random.default_rng(5)
    mats = np.array([random_spd_matrix(rng) for _ in range(3000)]).reshape(
        1000, 3, 2, 2
    )
    inv = inv_2x2(mats)
    ref = np.linalg.inv(mats)
    rel = np.abs(inv - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert rel.max() <= 1e-14
    assert np.abs(inv @ mats - np.eye(2)).max() < 1e-13


def test_closed_form_inverse_exact_for_identity():
    eye = np.broadcast_to(np.eye(2), (7, 3, 2, 2))
    assert np.array_equal(inv_2x2(eye), eye)


# -- marking ------------------------------------------------------------------


def test_dorfler_documented_cases():
    marked = dorfler_mark(np.array([4.0, 1.0, 1.0]), 0.5)  # eta_T = [2, 1, 1]
    assert marked.indices.tolist() == [0]
    assert marked.achieved_fraction >= 0.5

    all_pos = dorfler_mark(np.array([1.0, 0.0, 2.0]), 1.0)
    assert all_pos.indices.tolist() == [0, 2]  # zero contribution excluded

    equal = dorfler_mark(np.ones(10), 0.3)
    assert equal.indices.tolist() == [0, 1, 2]  # smallest k with k/n >= 0.3


def test_dorfler_bad_theta():
    for theta in (0.0, -0.1, 1.5):
        with pytest.raises(BadTheta):
            dorfler_mark(np.ones(3), theta)


def test_dorfler_minimality_exhaustive():
    rng = np.random.default_rng(6)
    for n in range(1, 13):
        eta_sq = rng.uniform(0.0, 1.0, n)
        theta = rng.uniform(0.1, 1.0)
        marked = dorfler_mark(eta_sq, theta)
        target = theta * eta_sq.sum()
        assert eta_sq[marked.indices].sum() >= target - 1e-12
        best = min(
            (
                len(sub)
                for k in range(n + 1)
                for sub in itertools.combinations(range(n), k)
                if eta_sq[list(sub)].sum() >= target - 1e-12
            ),
        )
        assert len(marked.indices) == best


def test_dorfler_subnormal_matches_normal_scale():
    tiny = dorfler_mark(np.full(5, 5e-324), 0.5)
    assert tiny.indices.tolist() == dorfler_mark(np.ones(5), 0.5).indices.tolist()
    assert tiny.achieved_fraction >= 0.5


def test_dorfler_theta_one_stops_at_the_last_triangle():
    # the sequential prefix sums lose the small contributions that the
    # pairwise total keeps, so they can end below theta * total - 1e-14 total
    marked = dorfler_mark(np.r_[1.0, np.full(1000, 1e-16)], 1.0)
    assert marked.indices.tolist() == list(range(1001))
    assert marked.achieved_fraction >= 1.0 - 1e-12
    rng = np.random.default_rng(17)
    short = 0
    for _ in range(200):
        eta_sq = rng.permutation(np.r_[1.0, 10.0 ** rng.uniform(-18, -15, 1000)])
        accum = np.cumsum(np.sort(eta_sq)[::-1])
        short += accum[-1] < eta_sq.sum() * (1.0 - 1e-14)
        marked = dorfler_mark(eta_sq, 1.0)
        assert np.array_equal(marked.indices, np.unique(marked.indices))
        assert eta_sq[marked.indices].sum() >= (1.0 - 1e-12) * eta_sq.sum()
    assert short > 0


def test_dorfler_ties_within_roundoff_go_by_index():
    # one ulp apart, straddling the cut: the lower index is marked either way
    one, above = 1.0, np.nextafter(1.0, 2.0)
    for values in ([one, above], [above, one]):
        marked = dorfler_mark(np.array(values), 0.5)
        assert marked.indices.tolist() == [0]
        assert marked.achieved_fraction == values[0] / sum(values)


def test_dorfler_marks_by_value_beyond_the_rounding():
    # 2**-28 relative is more than the 30 mantissa bits the sort keeps
    apart = 1.0 + 2.0**-28
    for values, larger in (([1.0, apart], 1), ([apart, 1.0], 0)):
        assert dorfler_mark(np.array(values), 0.5).indices.tolist() == [larger]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_dorfler_properties(values, theta):
    marked = dorfler_mark(np.asarray(values), theta)
    # checked in the exactly rescaled quantities the marker compares, so that
    # theta * total does not round at subnormal scale
    eta_sq = np.ldexp(values, -np.frexp(max(values))[1])
    total = eta_sq.sum()
    got = eta_sq[marked.indices].sum()
    assert got >= theta * total - 1e-9 * max(total, 1.0)
    if len(marked.indices) and total > 0:
        # greedy minimality: dropping the smallest marked entry dips below theta
        smallest = marked.indices[np.argmin(eta_sq[marked.indices])]
        rest = got - eta_sq[smallest]
        assert rest < theta * total + 1e-9 * total


# -- the driver ---------------------------------------------------------------


def test_loop_single_level_budget():
    inst = benchmark("lshape")
    hist = adaptive_loop(inst, mode="uniform", max_ndof=70)
    assert len(hist.records) == 1
    assert hist.records[0].ndof == 68


def test_loop_uniform_matches_mark_all():
    inst = benchmark("lshape")
    hist = adaptive_loop(inst, mode="uniform", max_ndof=300)
    assert [r.ndof for r in hist.records] == [68, 256]


@pytest.mark.parametrize("make", [lshape_start_mesh, crack_start_mesh])
def test_red_refinement_dof_count_is_predicted(make):
    for mesh in (make(), rgb_refine(make(), [0, 3])):
        predicted = 2 * mesh.num_edges + 7 * mesh.num_triangles
        assert refined_ndof_bound(mesh) == predicted
        assert uniform_red_refine(mesh).ndof_mixed == predicted


def _bound_holds_on_every_refinement(levels, rejected, max_ndof):
    for (mesh, marked), fine in zip(levels, [m for m, _ in levels[1:]] + [rejected]):
        assert refined_ndof_bound(mesh, marked) <= fine.ndof_mixed
    # and it is what ends the run: the checked loop never builds `rejected`
    assert rejected.ndof_mixed > max_ndof
    assert refined_ndof_bound(*levels[-1]) > max_ndof


def test_rgb_bound_holds_on_crack_adaptive(crack_unchecked_120000):
    levels, rejected = crack_unchecked_120000
    assert len(levels) == 15 and rejected.ndof_mixed == 172400
    _bound_holds_on_every_refinement(levels, rejected, 120000)


def test_rgb_bound_holds_on_lshape_adaptive():
    levels, rejected = unchecked_adaptive_loop(benchmark("lshape"), max_ndof=30000)
    assert len(levels) == 12
    _bound_holds_on_every_refinement(levels, rejected, 30000)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rgb_bound_holds_for_drawn_marks(data):
    # start meshes have no refinement state (rgb None); the others carry
    # green and blue children, whose marks roll back to their parents
    make = data.draw(st.sampled_from([
        lshape_start_mesh,
        crack_start_mesh,
        _rgb_mesh_with_green_and_blue,
        lambda: graded_toward_corner(lshape_start_mesh(), 2),
    ]))
    mesh = make()
    marked = np.array(
        data.draw(st.lists(st.integers(0, mesh.num_triangles - 1), max_size=12)),
        dtype=np.int64,
    )
    assert refined_ndof_bound(mesh, marked) <= rgb_refine(mesh, marked).ndof_mixed


def test_budget_check_keeps_the_dof_sequence(crack_unchecked_120000, monkeypatch):
    levels, rejected = crack_unchecked_120000
    unchecked = [mesh.ndof_mixed for mesh, _ in levels] + [rejected.ndof_mixed]
    calls = []

    def counted(mesh, marked):
        calls.append(mesh.ndof_mixed)
        return rgb_refine(mesh, marked)

    monkeypatch.setattr(adapt, "rgb_refine", counted)
    # budgets N_k, N_{k+1} - 1 and N_{k+1} for the levels below 7,000 dofs;
    # the bound test above covers every refinement of the run. The unchecked
    # loop's levels do not depend on its budget, so at a smaller budget it
    # keeps a prefix of the levels it keeps at 120000
    for k in range(8):
        for budget in (unchecked[k], unchecked[k + 1] - 1, unchecked[k + 1]):
            calls.clear()
            hist = adaptive_loop(benchmark("crack"), max_ndof=budget)
            kept = [n for n in unchecked if n <= budget]
            assert hist.ndofs == kept
            # the mesh over the budget is built only when the bound passes it
            passed = refined_ndof_bound(*levels[len(kept) - 1]) <= budget
            assert len(calls) == len(hist.records) - 1 + passed
            if budget == unchecked[k]:
                assert not passed


def test_uniform_loop_builds_no_mesh_over_budget(monkeypatch):
    calls = []

    def counted(mesh):
        calls.append(mesh.num_triangles)
        return uniform_red_refine(mesh)

    monkeypatch.setattr(adapt, "uniform_red_refine", counted)
    hist = adaptive_loop(benchmark("lshape"), mode="uniform", max_ndof=16000)
    assert len(calls) == 4  # the 61696-dof mesh is never built
    # the history of the code that built it and then stopped
    expected = [
        (68, 1.0100233831401633, 0.161152730547886, 0.25718530405240386),
        (256, 0.5255184295919991, 0.08142117504503221, 0.18331212175835876),
        (992, 0.2771045906099844, 0.04074372124459595, 0.12047634956113078),
        (3904, 0.14882766552045348, 0.020295517079309, 0.07761360836300338),
        (15488, 0.08185330720600603, 0.010102973109713193, 0.04958538902120572),
    ]
    assert [r.ndof for r in hist.records] == [row[0] for row in expected]
    got = [(r.eta, r.e_u, r.e_p) for r in hist.records]
    assert np.allclose(got, [row[1:] for row in expected], rtol=1e-10, atol=0)
    assert hist.failure is None


@pytest.mark.parametrize(
    "problem, mode, max_ndof", [("lshape", "uniform", 4000), ("crack", "adaptive", 15000)]
)
def test_no_level_outlives_the_next_factorization(monkeypatch, problem, mode, max_ndof):
    # each level's mesh and piecewise data, held here by weakrefs only, are
    # freed by reference counting before the next level factors: no
    # solution, report or record of the loop still reaches them; and the
    # level's data, its piecewise data among them, die before its mesh is
    # refined
    refs = []
    alive_at_factor, alive_at_refine = [], []
    solve_sparse = solver.solve_sparse

    def spy(system):
        alive_at_factor.append(sum(r() is not None for pair in refs for r in pair))
        return solve_sparse(system)

    def refine_spy(refine):
        def refined(mesh, *args):
            alive_at_refine.append(sum(pw() is not None for _, pw in refs))
            return refine(mesh, *args)

        return refined

    def on_level(level):
        refs.append((weakref.ref(level.pw.mesh), weakref.ref(level.pw)))

    monkeypatch.setattr(solver, "solve_sparse", spy)
    for name in ("uniform_red_refine", "rgb_refine"):
        monkeypatch.setattr(adapt, name, refine_spy(getattr(adapt, name)))
    hist = adaptive_loop(benchmark(problem), mode=mode, max_ndof=max_ndof, on_level=on_level)
    assert len(hist.records) >= 4 and hist.failure is None
    assert alive_at_factor == [0] * len(hist.records)
    assert len(alive_at_refine) >= len(hist.records) - 1
    assert alive_at_refine == [0] * len(alive_at_refine)


@pytest.mark.parametrize(
    "problem,mode,max_ndof",
    [("crack", "adaptive", 3000), ("eigen_sweep", "uniform", 4000)],
    ids=["crack-adaptive-3000", "eigen-sweep-uniform-4000"],
)
def test_every_level_result_carries_the_verdicts_of_its_solve(
    problem, mode, max_ndof
):
    # the sweep's histories share each level's reaction-free data; every
    # level a callback sees passed both checks of its solve and records them
    checked = []

    def on_level(level):
        pw, solve, estimate, record = (
            level.pw, level.solve, level.estimate, level.record
        )
        assert record.equivalence == solve.equivalence
        assert max(solve.equivalence) <= solver.EQUIVALENCE_TOL
        assert max(solve.defects) <= solver.IDENTITY_TOL
        assert solve.report.correction <= solver.FORWARD_TOL
        assert solve.report.solution is solve.u_tilde.edge_values
        assert solve.mixed.mesh is pw.mesh and solve.u_tilde.mesh is pw.mesh
        assert record.eta == estimate.eta
        checked.append(record.ndof)

    if problem == "eigen_sweep":
        instance = [benchmark(problem, gamma=g) for g in DEFAULT_GAMMA_SWEEP]
        callbacks = [on_level] * len(instance)
    else:
        instance, callbacks = benchmark(problem), on_level
    hists = adaptive_loop(instance, mode=mode, max_ndof=max_ndof, on_level=callbacks)
    hists = hists if isinstance(hists, list) else [hists]
    assert len(checked) == sum(len(h.records) for h in hists) >= 5
    assert checked[-1] > checked[0]


def test_adaptive_eta_decreases_after_startup():
    inst = benchmark("lshape")
    hist = adaptive_loop(inst, theta=0.5, max_ndof=6000, mode="adaptive")
    etas = [r.eta for r in hist.records]
    assert len(etas) >= 6
    for i in range(3, len(etas) - 2):
        assert etas[i + 2] < etas[i]
    # reliability ratio stays bounded
    assert max(r.c_rel for r in hist.records) < 10.0


def test_loop_stops_when_estimator_vanishes():
    from afem.problem import ProblemInstance

    inst = ProblemInstance(
        name="null", field=field(), start_mesh=lshape_start_mesh
    )
    hist = adaptive_loop(inst, theta=0.5, max_ndof=10000, mode="adaptive")
    assert len(hist.records) == 1  # nothing to refine on the zero problem
    assert hist.records[0].eta == 0.0


def test_adaptive_crack_grades_toward_tip():
    inst = benchmark("crack")
    meshes = []

    def spy(level):
        meshes.append(level.pw.mesh)

    hist = adaptive_loop(inst, theta=0.5, max_ndof=8000, mode="adaptive", on_level=spy)
    ndofs = [r.ndof for r in hist.records]
    assert all(b > a for a, b in zip(ndofs, ndofs[1:]))
    # strong grading toward the tip: triangles concentrate near r < 0.25
    # far beyond that region's share of the area, and are much smaller there
    for mesh in meshes[-3:]:
        r = np.hypot(*mesh.centroid.T)
        near = r < 0.25
        count_frac = near.mean()
        area_frac = mesh.area[near].sum() / mesh.area.sum()
        assert count_frac >= 4.0 * area_frac
        assert mesh.h_t[near].min() <= 0.25 * mesh.h_t.max()
