import math

import numpy as np
import pytest

from afem import bench, quadrature
from afem.adapt import adaptive_loop
from afem.assembly import MixedSolution
from afem.bench import (
    ConvergenceHistory,
    _rotate_singular_first,
    _singular_corners,
    ExperimentConfig,
    LevelRecord,
    error_norms,
    run_experiment,
    sensitivity_event,
)
from afem.errors import ConfigError, NoExactSolution
from afem.mesh import build_mesh
from afem.problem import (
    CoefficientField,
    ProblemInstance,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    project_p0,
)
from afem.refine import uniform_red_refine
from afem.solver import solve_mixed_via_equivalence

from oracles import integrate_triangle
from test_adapt import _crack_adaptive_mesh

SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def norms(mixed, inst):
    """error_norms with the level's degree-5 data built as the estimator
    builds it."""
    data = quadrature.degree5_data(mixed.mesh, inst.field, inst.exact)
    return error_norms(mixed, inst, data)


def test_error_norms_zero_when_solution_in_space():
    # constant exact solution: u = 1, b = 0 gives p = 0 and f = 0
    mesh = build_mesh(*SQUARE)
    field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=constant_scalar(1.0),
    )
    def exact(x, y):
        return np.ones(np.size(x)), np.zeros((np.size(x), 2)), np.zeros(np.size(x))

    inst = ProblemInstance(
        name="const", field=field, start_mesh=lambda: mesh, exact=exact
    )
    pw = project_p0(field, mesh)
    mixed, *_ = solve_mixed_via_equivalence(mesh, pw, u_dirichlet=field.u_dirichlet)
    e_u, e_p, e_div = norms(mixed, inst)
    assert max(e_u, e_p, e_div) < 1e-10


def test_error_norms_zero_discrete_solution_against_oracle():
    # e_u of the zero solution is ||u||; compare with an independent
    # quadrature oracle with deep dyadic refinement at the corner
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    zero = MixedSolution(
        mesh=mesh,
        flux_const=np.zeros((mesh.num_triangles, 2)),
        flux_slope=np.zeros(mesh.num_triangles),
        u=np.zeros(mesh.num_triangles),
    )
    e_u, _, _ = norms(zero, inst)

    def u_sq(x, y):
        return inst.exact(x, y)[0] ** 2

    total = 0.0
    for tri in mesh.triangle_vertices():
        corner = np.flatnonzero(np.hypot(tri[:, 0], tri[:, 1]) < 1e-12)
        if len(corner):
            tri = np.roll(tri, -int(corner[0]), axis=0)
            total += integrate_triangle(u_sq, tri, order=10, subdivide=12)
        else:
            total += integrate_triangle(u_sq, tri, order=10)
    assert e_u == pytest.approx(math.sqrt(total), rel=1e-4)


def test_rotate_singular_first_matches_roll_loop():
    rng = np.random.default_rng(3)
    point = np.array([0.25, -0.5])
    verts = rng.uniform(-1.0, 1.0, (12, 3, 2))
    verts[np.arange(12), np.arange(12) % 3] = point  # local position 0, 1, 2
    expected = verts.copy()
    for m in range(len(verts)):
        k = int(np.flatnonzero((verts[m] == point).all(axis=1))[0])
        expected[m] = np.roll(verts[m], -k, axis=0)
    rotated = _rotate_singular_first(verts, (verts == point).all(axis=2))
    assert np.array_equal(rotated, expected)
    assert np.array_equal(rotated[:, 0], np.broadcast_to(point, (12, 2)))


def test_physical_points_bit_identical_to_einsum():
    rng = np.random.default_rng(4)
    verts = rng.uniform(-1.0, 1.0, (500, 3, 2))
    verts[:5, :, 0] = 0.0  # zero products
    verts[5:10, :2, 1] = -0.0  # two of three products -0.0
    expected = np.einsum("qi,mid->mqd", quadrature.DEGREE5[0], verts)
    points = np.ascontiguousarray(quadrature.physical_points(verts))
    assert np.array_equal(points.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("depth", [0, 3])
@pytest.mark.parametrize("m", [7, 1000])
def test_integrate_dyadic_stacked_rows_equal_scalar_calls(m, depth):
    rng = np.random.default_rng(m + depth)
    verts = rng.uniform(-1.0, 1.0, (m, 3, 2))
    e1, e2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    verts[cross < 0] = verts[cross < 0][:, [0, 2, 1]]  # counter-clockwise
    areas = 0.5 * np.abs(cross)
    parts = (
        lambda x, y: np.sin(3.0 * x) * y,
        lambda x, y: np.exp(x - y),
        lambda x, y: np.hypot(x, y) ** (2.0 / 3.0),
    )
    stacked = quadrature.integrate_dyadic(
        lambda x, y: np.stack([g(x, y) for g in parts]), verts, areas, depth
    )
    assert stacked.shape == (3, m)
    for row, g in zip(stacked, parts):
        assert np.array_equal(row, quadrature.integrate_dyadic(g, verts, areas, depth))


# error_norms on uniform meshes, frozen bit for bit (float.hex of e_u, e_p,
# e_div) once the three-pass implementation had given way to the fused pass,
# every system was factored in the mesh order with minimum vertex separators
# and every solve took one refinement step
@pytest.mark.parametrize(
    "name, levels, expected",
    [
        ("lshape", 2, ("0x1.4dc5c6c869835p-5", "0x1.ed789bd4e7820p-4",
                       "0x1.c608612804a72p-4")),
        ("crack", 1, ("0x1.ca82af8f12fd5p-5", "0x1.5c9888f19036dp-2",
                      "0x1.0f94425ee4fd3p-2")),
    ],
)
def test_error_norms_frozen_values(name, levels, expected):
    inst = benchmark(name)
    mesh = inst.start_mesh()
    for _ in range(levels):
        mesh = uniform_red_refine(mesh)
    pw = project_p0(inst.field, mesh)
    mixed, *_ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=inst.field.u_dirichlet
    )
    assert norms(mixed, inst) == tuple(float.fromhex(h) for h in expected)


def test_error_norms_requires_exact_solution():
    inst = benchmark("eigen_sweep", gamma=8.0)
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    mixed, *_ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=inst.field.u_dirichlet
    )
    with pytest.raises(NoExactSolution):
        norms(mixed, inst)


def test_lshape_level0_full_pipeline_error():
    inst = benchmark("lshape")
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    mixed, *_ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=inst.field.u_dirichlet
    )
    e_u, e_p, e_div = norms(mixed, inst)
    assert e_u == pytest.approx(0.16656920, rel=0.20)


def test_convergence_rate_table_values():
    hist = ConvergenceHistory()
    hist.add(LevelRecord(level=0, ndof=68, e_u=0.16656920, e_p=0.26578962, eta=1.0))
    hist.add(LevelRecord(level=1, ndof=256, e_u=0.08258681, e_p=0.19505767, eta=0.5))
    assert hist.records[1].rate_u == pytest.approx(0.5292, abs=5e-5)
    # the published reference rounds the exact 0.23340 down to 0.2333
    assert hist.records[1].rate_p == pytest.approx(0.2333, abs=1e-4)


def test_convergence_rate_constant_sequence():
    hist = ConvergenceHistory()
    hist.add(LevelRecord(level=0, ndof=10, e_u=1.0, e_p=1.0, eta=1.0))
    hist.add(LevelRecord(level=1, ndof=40, e_u=1.0, e_p=1.0, eta=1.0))
    assert hist.records[1].rate_u == pytest.approx(0.0, abs=1e-15)


def test_convergence_rate_needs_two_levels():
    # a first level has NaN rates, whatever its errors
    hist = ConvergenceHistory()
    hist.add(LevelRecord(level=0, ndof=68, e_u=0.5, e_p=0.5, eta=0.5))
    record = hist.records[0]
    assert math.isnan(record.rate_u)
    assert math.isnan(record.rate_p)
    assert math.isnan(record.rate_eta)


def test_csv_roundtrip_bit_for_text(tmp_path):
    # every numeric cell of the written CSV reads back to its record's value
    # exactly, and the empty cells are exactly the NaN fields
    config = ExperimentConfig(
        problem="lshape", mode="uniform", max_ndof=300, out=str(tmp_path)
    )
    hist = run_experiment(config, echo=lambda *a: None).histories["lshape"]
    header, *rows = (tmp_path / "lshape_uniform.csv").read_text().splitlines()
    names = header.split(",")
    assert len(rows) == len(hist.records) == 2
    for row, record in zip(rows, hist.records):
        cells = row.split(",")
        assert len(cells) == len(names)
        for name, cell in zip(names, cells):
            value = getattr(record, name)
            if cell == "":
                assert math.isnan(value), name
            else:
                assert float(cell) == value, name


def test_ratio_columns_are_consistent():
    inst = benchmark("lshape")
    hist = adaptive_loop(inst, mode="uniform", max_ndof=300)
    for r in hist.records:
        assert r.efficiency == pytest.approx(r.eta / r.e_p, rel=1e-14)
        flux_part = math.hypot(r.e_p, r.e_div) / r.eta
        assert r.c_rel == pytest.approx(flux_part + r.e_u / r.eta, rel=1e-14)


def test_run_experiment_writes_csv(tmp_path):
    config = ExperimentConfig(
        problem="lshape", mode="uniform", max_ndof=300, out=str(tmp_path)
    )
    result = run_experiment(config, echo=lambda *a: None)
    assert result.exit_code == 0
    path = tmp_path / "lshape_uniform.csv"
    assert path.exists()
    rows = path.read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == [68, 256]


def test_run_experiment_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="lshape", mode="sideways").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="lshape", theta=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="nonexistent_problem").validate()


def test_nan_budget_is_config_error(tmp_path):
    # NaN fails every comparison: the run used to solve nothing, write
    # nothing and exit 0
    config = ExperimentConfig(
        problem="lshape", max_ndof=float("nan"), out=str(tmp_path)
    )
    with pytest.raises(ConfigError, match="max-ndof"):
        run_experiment(config, echo=lambda *_: None)
    assert not list(tmp_path.iterdir())
    with pytest.raises(ConfigError, match="max-ndof"):
        adaptive_loop(benchmark("lshape"), mode="uniform", max_ndof=float("nan"))


def test_eigen_sweep_single_gamma_records_event(tmp_path):
    config = ExperimentConfig(
        problem="eigen_sweep",
        mode="uniform",
        gamma=9.64,
        max_ndof=4000,
        out=str(tmp_path),
    )
    result = run_experiment(config, echo=lambda *a: None)
    key = "eigen_sweep_gamma9.64"
    assert key in result.events  # large-error signature of the sweep
    assert (tmp_path / f"{key}_uniform.csv").exists()
    assert (tmp_path / "eigen_sweep_uniform_combined.csv").exists()


def test_eigen_sweep_benign_gamma_has_no_event(tmp_path):
    config = ExperimentConfig(
        problem="eigen_sweep",
        mode="uniform",
        gamma=8.0,
        max_ndof=4000,
        out=str(tmp_path),
    )
    result = run_experiment(config, echo=lambda *a: None)
    assert result.events == {}
    assert result.exit_code == 0


def test_sensitivity_event_rules():
    hist = ConvergenceHistory()
    hist.records = [
        LevelRecord(level=0, ndof=68, eta=4.0),
        LevelRecord(level=1, ndof=256, eta=6.0),
    ]
    assert "grew" in sensitivity_event(hist)
    hist.records[1].eta = 2.0  # ordinary decay: no event
    assert sensitivity_event(hist) is None
    hist.failure = "SingularMatrix at level 1: boom"
    assert "SingularMatrix" in sensitivity_event(hist)


def test_error_norms_in_blocks_bit_identical(monkeypatch):
    # the adaptive crack mesh of the estimator's bit-identity test, with
    # green children and triangles at the singular vertex: blocks of 7
    # triangles give the norms of one block, bit for bit
    inst = benchmark("crack")
    mesh = _crack_adaptive_mesh()
    assert {1, 2} <= set(mesh.green_flag.tolist())
    assert _singular_corners(mesh, inst.singular_point).any()
    assert mesh.num_triangles <= bench.ERROR_BLOCK
    pw = project_p0(inst.field, mesh)
    mixed, *_ = solve_mixed_via_equivalence(
        mesh, pw, u_dirichlet=inst.field.u_dirichlet
    )
    whole = norms(mixed, inst)
    monkeypatch.setattr(bench, "ERROR_BLOCK", 7)
    assert [v.hex() for v in norms(mixed, inst)] == [v.hex() for v in whole]
