"""Acceptance gate: every numbered criterion as a dedicated test.

Each test prints one ``[criterion N] ... PASS/FAIL`` line. The expensive
benchmark runs are shared session fixtures; per-level diagnostics (the
equivalence cross-check and the elementwise divergence identity) are
collected while the runs execute.

Where the paper promises a property without numbers, the criterion checks
what the promise implies: criterion 7 bounds how far the reliability and
efficiency constants move between levels of one run, and criterion 8
predicts the near-resonant estimator gap from the discrete mixed eigenvalue
of each level (computed by ``oracles.mixed_dirichlet_eigenvalue``), and
criterion 10 checks the a priori L2 estimate of the nonconforming method
through the ratio of its L2 and energy rates.

The same runs also pin the published adaptive meshes level by level
(``test_published_meshes_pinned``).
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from afem import bench, quadrature, solver
from afem.adapt import adaptive_loop, dorfler_mark, estimate_mixed
from afem.assembly import assemble_ncfem
from afem.mesh import build_mesh
from afem.problem import (
    CoefficientField,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    lshape_start_mesh,
    project_p0,
    s_of_t,
)
from afem.refine import uniform_red_refine
from afem.solver import solve_mixed_via_equivalence, solve_ncfem

from oracles import (
    cr_local_stiffness,
    integrate_triangle,
    mixed_dirichlet_eigenvalue,
    random_spd_matrix,
    random_triangle,
)

REF_UNIFORM_N = [68, 256, 992, 3904, 15488, 61696]
REF_UNIFORM_EU = [0.16656920, 0.08258681, 0.04098066, 0.02034316, 0.01011251, 0.00503450]
REF_UNIFORM_EP = [0.26578962, 0.19505767, 0.12772995, 0.08188794, 0.05215656, 0.03310369]
REF_UNIFORM_ETA = [1.01064602, 0.52572088, 0.27713363, 0.14883131, 0.08185377, 0.04621899]


def report(num, name, passed, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


class RunDiag:
    def __init__(self, history, div_resid, mesh_digests, seconds):
        self.history = history
        self.div_resid = div_resid
        self.mesh_digests = mesh_digests
        self.seconds = seconds


def mesh_digest(mesh):
    """SHA-1 of the vertices, triangles and green/blue flags of a mesh."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(mesh.green_flag, dtype=np.int64).tobytes())
    return h.hexdigest()


def run_with_diagnostics(instance, mode, theta, max_ndof):
    div_resid = []
    mesh_digests = []

    def spy(pw, mixed, u_tilde, est_report, record):
        target = pw.f_h - pw.gamma_h * mixed.u
        scale = max(1.0, float(np.abs(target).max()))
        div_resid.append(float(np.abs(mixed.div() - target).max()) / scale)
        mesh_digests.append(mesh_digest(pw.mesh))

    start = time.perf_counter()
    history = adaptive_loop(
        instance, theta=theta, max_ndof=max_ndof, mode=mode, on_level=spy
    )
    return RunDiag(history, div_resid, mesh_digests, time.perf_counter() - start)


@pytest.fixture(scope="module")
def uniform_lshape():
    return run_with_diagnostics(benchmark("lshape"), "uniform", 0.5, 65000)


@pytest.fixture(scope="module")
def adaptive_lshape():
    return run_with_diagnostics(benchmark("lshape"), "adaptive", 0.5, 55000)


@pytest.fixture(scope="module")
def uniform_crack():
    return run_with_diagnostics(benchmark("crack"), "uniform", 0.5, 35000)


@pytest.fixture(scope="module")
def adaptive_crack():
    return run_with_diagnostics(benchmark("crack"), "adaptive", 0.5, 50000)


@pytest.fixture(scope="module")
def eigen_runs():
    out = {}
    for gamma in (8.0, 9.63, 9.64):
        out[gamma] = run_with_diagnostics(
            benchmark("eigen_sweep", gamma=gamma), "uniform", 0.5, 16000
        )
    return out


def all_runs(*diags):
    for diag in diags:
        if isinstance(diag, dict):
            yield from diag.values()
        else:
            yield diag


def test_criterion_1_dof_counts(uniform_lshape):
    t0 = time.perf_counter()
    mesh = lshape_start_mesh()
    counted = []
    for _ in range(6):
        counted.append(mesh.ndof_mixed)
        mesh = uniform_red_refine(mesh)
    count_seconds = time.perf_counter() - t0
    ndofs = [r.ndof for r in uniform_lshape.history.records]
    ok = (
        counted == REF_UNIFORM_N
        and ndofs == REF_UNIFORM_N
        and count_seconds < 1.0
        and uniform_lshape.seconds < 60.0
    )
    report(
        1, "dof-count reproduction", ok,
        f"counted={counted}, solved={ndofs}, "
        f"count {count_seconds:.2f}s, run {uniform_lshape.seconds:.1f}s",
    )


def test_criterion_2_equivalence(
    uniform_lshape, adaptive_lshape, uniform_crack, adaptive_crack, eigen_runs
):
    worst = 0.0
    levels = 0
    for diag in all_runs(
        uniform_lshape, adaptive_lshape, uniform_crack, adaptive_crack, eigen_runs
    ):
        for rec in diag.history.records:
            worst = max(worst, *rec.equivalence)
            levels += 1
    report(
        2, "equivalence of the two mixed routes", worst <= 1e-8,
        f"max relative discrepancy {worst:.2e} over {levels} levels",
    )


def test_criterion_3_divergence_identity(
    uniform_lshape, adaptive_lshape, uniform_crack, adaptive_crack, eigen_runs
):
    worst = 0.0
    for diag in all_runs(
        uniform_lshape, adaptive_lshape, uniform_crack, adaptive_crack, eigen_runs
    ):
        if diag.div_resid:
            worst = max(worst, max(diag.div_resid))
    report(
        3, "elementwise divergence identity", worst <= 1e-12,
        f"max scaled residual {worst:.2e}",
    )


def test_criterion_4_uniform_lshape(uniform_lshape):
    recs = uniform_lshape.history.records
    rate_p = [recs[-2].rate_p, recs[-1].rate_p]
    rate_u = [recs[-2].rate_u, recs[-1].rate_u]
    rates_ok = all(0.29 <= r <= 0.37 for r in rate_p) and all(
        0.47 <= r <= 0.53 for r in rate_u
    )
    abs_ok = True
    details = []
    for rec, eu, ep, eta in zip(recs, REF_UNIFORM_EU, REF_UNIFORM_EP, REF_UNIFORM_ETA):
        for got, ref, tag in ((rec.e_u, eu, "e_u"), (rec.e_p, ep, "e_p"),
                              (rec.eta, eta, "eta")):
            rel = abs(got - ref) / ref
            if rel > 0.20:
                abs_ok = False
                details.append(f"{tag}@{rec.ndof}: {got:.6f} vs {ref:.6f}")
    report(
        4, "uniform L-shape reference values", rates_ok and abs_ok,
        f"CR(e_p)={[f'{r:.4f}' for r in rate_p]}, "
        f"CR(e_u)={[f'{r:.4f}' for r in rate_u]}"
        + (f", deviations: {details}" if details else ", all values within 20%"),
    )


def test_criterion_5_adaptive_lshape(uniform_lshape, adaptive_lshape):
    recs = adaptive_lshape.history.records
    rates = [r.rate_p for r in recs if r.ndof > 5000 and not np.isnan(r.rate_p)]
    mean_rate = float(np.mean(rates))
    uni_final = uniform_lshape.history.records[-1]
    ada_final = recs[-1]
    ratio = uni_final.e_p / ada_final.e_p
    ok = 0.43 <= mean_rate <= 0.57 and ratio >= 2.0
    report(
        5, "adaptive L-shape rates and gain", ok,
        f"mean CR(e_p)={mean_rate:.4f} over Ndof>5000, "
        f"e_p uniform@{uni_final.ndof} / adaptive@{ada_final.ndof} = {ratio:.2f}",
    )


def test_criterion_6_crack_rates(uniform_crack, adaptive_crack):
    uni = uniform_crack.history.records
    ada = adaptive_crack.history.records
    uni_rate = uni[-1].rate_p
    ada_rates = [r.rate_p for r in ada if r.ndof > 5000 and not np.isnan(r.rate_p)]
    ada_mean = float(np.mean(ada_rates))
    ok = 0.20 <= uni_rate <= 0.30 and 0.43 <= ada_mean <= 0.57
    report(
        6, "crack benchmark rates", ok,
        f"uniform CR(e_p)={uni_rate:.4f}, adaptive mean CR(e_p)={ada_mean:.4f}",
    )


def test_criterion_7_efficiency_index(
    uniform_lshape, adaptive_lshape, uniform_crack, adaptive_crack
):
    # reliability and efficiency hold with h-independent constants whose
    # values are not given: within one run, c_rel and eta/e_p must stay
    # put over the levels with Ndof >= 1000
    ok = True
    details = []
    for name, diag in (
        ("lshape uniform", uniform_lshape),
        ("lshape adaptive", adaptive_lshape),
        ("crack uniform", uniform_crack),
        ("crack adaptive", adaptive_crack),
    ):
        recs = [r for r in diag.history.records if r.ndof >= 1000]
        c_rel = [r.c_rel for r in recs]
        eff = [r.efficiency for r in recs]
        spread_rel = max(c_rel) / min(c_rel)
        spread_eff = max(eff) / min(eff)
        ok = ok and len(recs) >= 2 and spread_rel <= 1.25 and spread_eff <= 1.5
        details.append(
            f"{name} ({len(recs)} levels): c_rel {min(c_rel):.3f}-{max(c_rel):.3f}"
            f" (x{spread_rel:.3f}), eta/e_p {min(eff):.3f}-{max(eff):.3f}"
            f" (x{spread_eff:.3f})"
        )
    report(
        7, "level-independent estimator constants (c_rel x1.25, eta/e_p x1.5)",
        ok, "; ".join(details),
    )


def test_criterion_8_eigen_sweep_sensitivity(eigen_runs):
    # near resonance the discrete solution is dominated by the eigenvector
    # of the discrete eigenvalue lambda_h nearest gamma, so the estimator
    # scales like 1/|gamma - lambda_h| on every level
    base = eigen_runs[8.0].history.records
    ok = True
    details = []
    for gamma in (9.63, 9.64):
        recs = eigen_runs[gamma].history.records
        mesh = benchmark("eigen_sweep", gamma=gamma).start_mesh()
        gaps, ratios = [], []
        for k, rec in enumerate(recs):
            if k >= len(base) or not rec.ndof == base[k].ndof == mesh.ndof_mixed:
                ok = False
                break
            lam = mixed_dirichlet_eigenvalue(mesh, gamma)
            gaps.append(rec.eta / base[k].eta)
            ratios.append(gaps[-1] * abs(gamma - lam) / abs(8.0 - lam))
            mesh = uniform_red_refine(mesh)
        ok = (
            ok
            and len(gaps) >= 2
            and all(abs(r - 1.0) <= 0.05 for r in ratios)
            and all(b > a for a, b in zip(gaps, gaps[1:]))
        )
        details.append(
            f"gamma={gamma}: gaps={[f'{g:.2f}' for g in gaps]},"
            f" measured/predicted={[f'{r:.4f}' for r in ratios]}"
        )
    report(
        8, "eigen-sweep gap follows the discrete spectrum (5%, growing)",
        ok, "; ".join(details),
    )


def test_criterion_9_property_suites():
    failures = []

    # patch tests to 1e-10
    square = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
    )
    field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=lambda x, y: np.asarray(x, dtype=float),
    )
    pw = project_p0(field, square)
    mixed, *_ = solve_mixed_via_equivalence(square, pw, u_dirichlet=field.u_dirichlet)
    if np.abs(mixed.u - square.centroid[:, 0]).max() > 1e-10:
        failures.append("mixed patch test u")
    flux = mixed.flux_at(square.centroid[:, None, :])[:, 0, :]
    if np.abs(flux - [-1.0, 0.0]).max() > 1e-10:
        failures.append("mixed patch test p")
    cr_field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=lambda x, y: np.asarray(x, dtype=float)
        + np.asarray(y, dtype=float),
    )
    sol = solve_ncfem(uniform_red_refine(square), cr_field)
    mesh = sol.mesh
    if np.abs(sol.edge_values - mesh.edge_mid.sum(axis=1)).max() > 1e-10:
        failures.append("CR patch test")

    # Doerfler minimality, exhaustive for n <= 12
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        eta_sq = rng.uniform(0, 1, n)
        theta = rng.uniform(0.1, 1.0)
        marked = dorfler_mark(eta_sq, theta)
        target = theta * eta_sq.sum()
        best = min(
            len(sub)
            for k in range(n + 1)
            for sub in itertools.combinations(range(n), k)
            if eta_sq[list(sub)].sum() >= target - 1e-12
        )
        if len(marked.indices) != best:
            failures.append(f"doerfler minimality n={n}")
            break

    # local CR stiffness against the quadrature oracle to 1e-13
    for _ in range(10):
        tri = random_triangle(rng)
        a = random_spd_matrix(rng)
        b = rng.uniform(-2, 2, 2)
        gamma = rng.uniform(-3, 3)
        m1 = build_mesh(tri, np.array([[0, 1, 2]]))
        field = CoefficientField(
            a=constant_matrix(a),
            b=constant_vector(b),
            gamma=constant_scalar(gamma),
            f=constant_scalar(0.0),
            u_dirichlet=constant_scalar(0.0),
        )
        system = assemble_ncfem(m1, project_p0(field, m1))
        te = m1.triangle_edges[0]
        local = system.in_dof_order()[0].toarray()[np.ix_(te, te)]
        oracle = cr_local_stiffness(tri, a, b, gamma)
        if np.abs(local - oracle).max() > 1e-13 * np.abs(oracle).max():
            failures.append("CR stiffness oracle")
            break

    # s_of_t against the quadrature oracle on 100 random SPD instances
    for _ in range(100):
        tri = random_triangle(rng)
        a_inv = np.linalg.inv(random_spd_matrix(rng))
        c = tri.mean(axis=0)

        def integrand(x, y):
            dx, dy = x - c[0], y - c[1]
            return (
                a_inv[0, 0] * dx**2
                + (a_inv[0, 1] + a_inv[1, 0]) * dx * dy
                + a_inv[1, 1] * dy**2
            )

        expected = integrate_triangle(integrand, tri, order=8)
        s_t = s_of_t(build_mesh(tri, np.array([[0, 1, 2]])), a_inv[None])[0]
        if abs(s_t - expected) > 1e-13 * abs(expected):
            failures.append("s_of_t oracle")
            break

    # estimator vanishes on the zero problem
    zero_field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=constant_scalar(0.0),
    )
    mesh = lshape_start_mesh()
    pw0 = project_p0(zero_field, mesh)
    mixed0, u0, _ = solve_mixed_via_equivalence(mesh, pw0, constant_scalar(0.0))
    if estimate_mixed(mesh, mixed0, u0, zero_field, pw0).eta != 0.0:
        failures.append("estimator zero problem")

    report(
        9, "property suites", not failures,
        "all sub-checks green" if not failures else f"failed: {failures}",
    )


def cr_errors(sol, instance):
    """(||u - u_CR||, ||grad_NC(u - u_CR)||), the CR function evaluated as
    affine per triangle from its first vertex trace and its gradient, with
    the error norms' dyadic quadrature at the singular corner."""
    mesh = sol.mesh
    pv = mesh.triangle_vertices()
    trace0 = sol.vertex_traces()[:, 0]
    grads = sol.gradients()
    ex = instance.exact
    corners = bench._singular_corners(mesh, instance.singular_point)
    sing = corners.any(axis=1)
    totals = np.zeros(2)
    for idx, dyadic in ((np.flatnonzero(~sing), False), (np.flatnonzero(sing), True)):
        m = len(idx)
        v0, c, g = pv[idx, 0], trace0[idx], grads[idx]

        def u_err(x, y):
            per = np.size(x) // m
            offset = np.stack([x, y], axis=-1) - np.repeat(v0, per, axis=0)
            u_cr = np.repeat(c, per) + np.einsum(
                "nd,nd->n", np.repeat(g, per, axis=0), offset
            )
            return (ex(x, y)[0] - u_cr) ** 2

        def grad_err(x, y):
            # grad u = -A^-1 (p + u b) from the exact flux
            u, p, _ = ex(x, y)
            flux_part = p + u[:, None] * instance.field.b(x, y)
            a = instance.field.a(x, y)
            grad_u = -np.linalg.solve(a, flux_part[..., None])[..., 0]
            d = grad_u - np.repeat(g, np.size(x) // m, axis=0)
            return np.einsum("nd,nd->n", d, d)

        for k, fn in enumerate((u_err, grad_err)):
            if dyadic:
                rot = bench._rotate_singular_first(pv[idx], corners[idx])
                per_tri = quadrature.integrate_dyadic(
                    fn, rot, mesh.area[idx], bench.SINGULAR_QUAD_DEPTH
                )
            else:
                per_tri = quadrature.integrate(fn, pv[idx], mesh.area[idx])
            totals[k] += per_tri.sum()
    return tuple(float(v) for v in np.sqrt(totals))


def test_criterion_10_ncfem_l2_rate():
    # reduced regularity on the L-shape (s = 2/3): the broken energy error
    # of plain CR falls like N^(-s/2) and the L2 error like N^(-s), so the
    # ratio of the two rates is 2 whatever the constants
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    edges, errors = [], []
    for _ in range(6):
        edges.append(mesh.num_edges)
        errors.append(cr_errors(solve_ncfem(mesh, inst.field), inst))
        mesh = uniform_red_refine(mesh)
    rates = [
        [np.log(e0 / e1) / np.log(n1 / n0) for e0, e1 in zip(prev, cur)]
        for n0, n1, prev, cur in zip(edges, edges[1:], errors, errors[1:])
    ]
    ratios = [r_l2 / r_energy for r_l2, r_energy in rates[-3:]]
    ok = min(edges[-3:]) >= 1000 and all(abs(r - 2.0) <= 0.15 for r in ratios)
    report(
        10, "nonconforming L2 rate twice the energy rate (2 +- 0.15)", ok,
        f"N={edges}, L2 rates={[f'{r[0]:.3f}' for r in rates]}, energy rates="
        f"{[f'{r[1]:.3f}' for r in rates]}, last three ratios="
        f"{[f'{r:.3f}' for r in ratios]}",
    )


# mesh_digest of every level of the adaptive runs, frozen from the
# dict-and-loop red-green-blue refinement that the array code replaced;
# L-shape levels 4-12 from the marking that sorts on 30 mantissa bits
PINNED_LSHAPE_ADAPTIVE = [
    "2d3a4927963eca49d2ca75c6252f091f77bf0453",
    "eda2d40be950b199062e0303acd29373cd6779ca",
    "da4da999a62871e8427835e8e1530d921efa16b7",
    "f2cf60a76c46fecaf9c79d388fd59dce5a1953cd",
    "85488fc015199123ca87a252233b832825addd4e",
    "3fe1917a022f943bcf6a761fc9b79f674797e71a",
    "d475c2ef1ac878d2997c42912d1ed94703ce65fc",
    "01d2e112c80e47bf928ea3325cd4a9b5c2c440eb",
    "2de082065002c4635e1fd9d72e10d2770735ecfd",
    "77adfe724ace961c8af06b67fc9e819148170a9b",
    "eb514fafe15d9f9839e369e5b7fdd23d48837fd6",
    "d20ba9c6dbd904d1c70dfd02da7f8a0e07310fd5",
    "a6807f80933d72953a5d953647f4edaf80eac45b",
]

PINNED_CRACK_ADAPTIVE = [
    "7115bdd297199cb8854a5370c849ae4fdb5d85c6",
    "f81ec63b07cdeb4838954c6c433998e45911a10e",
    "ab3c0f98d7af15e8dec08bf277136132a9cb604c",
    "16c5b7b1ab207cadb67251a89994fca7670838aa",
    "03cafc98f0e8d11c9dcf68670d76e2fc07386afd",
    "882f2270c5a661333a58019ca4b72f717cb90d97",
    "f23c1e5e5bc5cf04d13b5966001ea5bcbf7d5f18",
    "3f9084b8fd47c328d3dbaf7b7d3f261aa75acd3e",
    "e39268bb24551268dd5726b0af7f90883b1a2f22",
    "7f86efa2eb05efba835c74e7b1eacd11f3eebe8e",
    "cc56a1d8633e639f61d64ab69c736c044705ad1b",
    "1fb3a3b95bb03b8f9d4020b890bcb165226e90b6",
    "338b631324b4306cb88043633a3c1b628c23c0c0",
]


def test_published_meshes_pinned(adaptive_lshape, adaptive_crack):
    for diag, pinned in (
        (adaptive_lshape, PINNED_LSHAPE_ADAPTIVE),
        (adaptive_crack, PINNED_CRACK_ADAPTIVE),
    ):
        assert diag.mesh_digests == pinned


def test_published_meshes_do_not_depend_on_solver_arithmetic(monkeypatch):
    # the L-shape problem is mirror-symmetric, so mirror triangles carry
    # estimator values equal up to roundoff; with COLAMD and partial
    # pivoting in place of the mesh orders the meshes must not move.
    # Levels 0-6 include the near-ties of levels 1 and 3.
    def colamd(system):
        x, correction = solver._lu_solve(system.matrix, system.rhs)
        return solver.LinearSolveReport(system.full_solution(x), correction)

    monkeypatch.setattr(solver, "solve_sparse", colamd)
    diag = run_with_diagnostics(benchmark("lshape"), "adaptive", 0.5, 2600)
    assert diag.mesh_digests == PINNED_LSHAPE_ADAPTIVE[:7]
