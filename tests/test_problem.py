import numpy as np
import pytest

from afem.errors import NotPositiveDefinite, UnknownBenchmark
from afem.mesh import build_mesh
from afem.problem import (
    DEFAULT_GAMMA_SWEEP,
    LSHAPE_LAMBDA_1,
    CoefficientField,
    ProblemInstance,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    lshape_start_mesh,
    project_p0,
    register_problem,
    s_of_t,
)

from oracles import (
    integrate_triangle,
    random_spd_matrix,
    random_triangle,
    residual_of_exact,
)

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def unit_field(**over):
    base = dict(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=constant_scalar(0.0),
    )
    base.update(over)
    return CoefficientField(**base)


def test_project_constants():
    mesh = lshape_start_mesh()
    pw = project_p0(unit_field(), mesh)
    assert np.allclose(pw.a_h, np.eye(2))
    assert np.allclose(pw.b_h, 0.0)
    assert np.allclose(pw.gamma_h, 0.0)
    assert np.allclose(np.einsum("tde,te->td", pw.a_h, pw.b_star_h), pw.b_h,
                       atol=1e-12)


def test_project_evaluates_at_centroids():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    field = unit_field(
        b=lambda x, y: np.stack([np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float)], axis=-1),
        f=lambda x, y: np.asarray(x, dtype=float),
    )
    pw = project_p0(field, mesh)
    assert pw.b_h[0] == pytest.approx((1 / 3, 1 / 3), abs=1e-15)
    assert pw.f_h[0] == pytest.approx(1 / 3, abs=1e-15)


def test_project_rejects_indefinite_matrix():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    with pytest.raises(NotPositiveDefinite):
        project_p0(unit_field(a=constant_matrix([[1.0, 0.0], [0.0, -1.0]])), mesh)


def s_of_one(tri, a_h_inv):
    """S_T of a single counter-clockwise triangle."""
    mesh = build_mesh(tri, np.array([[0, 1, 2]]))
    return s_of_t(mesh, a_h_inv[None])[0]


def test_s_of_t_reference_value():
    assert s_of_one(REF_TRI, np.eye(2)) == pytest.approx(1 / 18, rel=1e-14)


def test_s_of_t_scaling_and_linearity():
    rng = np.random.default_rng(5)
    tri = random_triangle(rng)
    base = s_of_one(tri, np.eye(2))
    assert s_of_one(3.0 * tri, np.eye(2)) == pytest.approx(81.0 * base, rel=1e-13)
    assert s_of_one(REF_TRI, 0.5 * np.eye(2)) == pytest.approx(1 / 36, rel=1e-14)


def test_s_of_t_against_quadrature_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        tri = random_triangle(rng)
        a_inv = np.linalg.inv(random_spd_matrix(rng))
        c = tri.mean(axis=0)

        def integrand(x, y):
            dx = x - c[0]
            dy = y - c[1]
            return (
                a_inv[0, 0] * dx * dx
                + (a_inv[0, 1] + a_inv[1, 0]) * dx * dy
                + a_inv[1, 1] * dy * dy
            )

        expected = integrate_triangle(integrand, tri, order=8)
        assert s_of_one(tri, a_inv) == pytest.approx(expected, rel=1e-13)


def exact_u(inst, x, y):
    return inst.exact(np.asarray(x), np.asarray(y))[0]


def test_lshape_exact_values():
    inst = benchmark("lshape")
    assert exact_u(inst, [0.0], [1.0])[0] == pytest.approx(np.sin(np.pi / 3), rel=1e-12)
    # the re-entrant edges theta = 0 and theta = 3*pi/2 carry zero data
    x = np.array([0.25, 0.5, 1.0])
    assert np.abs(exact_u(inst, x, np.zeros(3))).max() < 1e-14
    assert np.abs(exact_u(inst, np.zeros(3), -x)).max() < 1e-14


def test_crack_exact_values():
    inst = benchmark("crack")
    val = exact_u(inst, [-0.5], [0.0])[0]  # r=0.5, theta=pi
    assert val == pytest.approx(np.sqrt(0.5), rel=1e-12)
    # both slit sides carry zero data
    x = np.array([0.25, 0.5, 0.9])
    assert np.abs(exact_u(inst, x, np.zeros(3))).max() < 1e-14


def test_unknown_benchmark():
    with pytest.raises(UnknownBenchmark):
        benchmark("poisson_cube")


def _interior_samples(name, rng, n=200, r_min=0.1):
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-1.0, 1.0, 2)
        r = np.hypot(x, y)
        if r < r_min + 0.02 or r > 0.9:
            continue
        if name == "lshape" and (x > 0.02 and y < -0.02):
            continue
        if name == "crack" and abs(y) < 0.02 and x > 0:
            continue
        pts.append((x, y))
    return np.array(pts)


@pytest.mark.parametrize("name", ["lshape", "crack"])
def test_exact_solution_satisfies_pde(name):
    inst = benchmark(name)
    pts = _interior_samples(name, np.random.default_rng(9))
    res = residual_of_exact(inst, pts[:, 0], pts[:, 1], h=1e-6)
    assert np.abs(res).max() < 1e-8


def polar_gradient(name, x, y):
    """grad u written independently of the package: grad(r^a sin(a t)) is
    a r^(a-1) (sin((a-1) t), cos((a-1) t)), t in [0, 2 pi)."""
    r = np.hypot(x, y)
    t = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    a = 2.0 / 3.0 if name == "lshape" else 0.5
    rad = a * r ** (a - 1.0)
    g = np.stack([rad * np.sin((a - 1.0) * t), rad * np.cos((a - 1.0) * t)], axis=-1)
    if name == "crack":
        g[:, 1] -= y  # the -y^2/2 part
    return g


@pytest.mark.parametrize("name", ["lshape", "crack"])
def test_gradient_matches_finite_differences(name):
    inst = benchmark(name)
    pts = _interior_samples(name, np.random.default_rng(10))
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-7
    gx = (exact_u(inst, x + h, y) - exact_u(inst, x - h, y)) / (2 * h)
    gy = (exact_u(inst, x, y + h) - exact_u(inst, x, y - h)) / (2 * h)
    g = polar_gradient(name, x, y)
    scale = np.abs(g).max()
    assert np.abs(np.stack([gx, gy], axis=-1) - g).max() < 1e-6 * scale


@pytest.mark.parametrize("name", ["lshape", "crack"])
def test_flux_is_consistent_with_gradient(name):
    inst = benchmark(name)
    pts = _interior_samples(name, np.random.default_rng(11))
    x, y = pts[:, 0], pts[:, 1]
    u, p, f = inst.exact(x, y)
    # one closed form: the fused u is the boundary data's u and the fused
    # load the field's f, bit for bit
    assert np.array_equal(u, inst.field.u_dirichlet(x, y))
    assert np.array_equal(f, inst.field.f(x, y))
    a = inst.field.a(x, y)
    b = inst.field.b(x, y)
    g = polar_gradient(name, x, y)
    expected = -(np.einsum("nde,ne->nd", a, g) + u[:, None] * b)
    assert np.abs(expected - p).max() < 1e-10


def test_eigen_sweep_instance():
    inst = benchmark("eigen_sweep", gamma=9.64)
    assert inst.exact is None
    x = np.array([0.3])
    y = np.array([0.3])
    assert inst.field.gamma(x, y)[0] == pytest.approx(-9.64)
    assert inst.field.f(x, y)[0] == pytest.approx(1.0)
    assert 9.63 < LSHAPE_LAMBDA_1 < 9.64
    assert DEFAULT_GAMMA_SWEEP[0] == 8.0
    with pytest.raises(UnknownBenchmark):
        benchmark("eigen_sweep", gamma=float("nan"))


def test_register_problem_plugin():
    def factory(**kw):
        return ProblemInstance(
            name="plugin",
            field=unit_field(f=constant_scalar(1.0)),
            start_mesh=lambda: build_mesh(REF_TRI, np.array([[0, 1, 2]])),
        )

    register_problem("plugin_test", factory)
    inst = benchmark("plugin_test")
    assert inst.name == "plugin"
    assert inst.start_mesh().num_triangles == 1
