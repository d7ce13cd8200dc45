import itertools

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from afem.assembly import (
    assemble_mixed_direct,
    assemble_modified_ncfem,
    assemble_ncfem,
)
from afem.errors import SingularLocalFactor
from afem.mesh import build_mesh
from afem.problem import (
    CoefficientField,
    benchmark,
    constant_matrix,
    constant_scalar,
    constant_vector,
    crack_start_mesh,
    lshape_start_mesh,
    project_p0,
)
from afem.refine import rgb_refine, uniform_red_refine

from oracles import (
    cr_local_stiffness,
    mixed_dirichlet_eigenvalue,
    random_spd_matrix,
    random_triangle,
    reference_mixed_direct,
    reference_modified_ncfem,
    reference_ncfem,
)
from test_mesh import _rgb_mesh_with_green_and_blue

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def make_field(a=None, b=(0.0, 0.0), gamma=0.0, f=0.0, u_d=0.0):
    return CoefficientField(
        a=constant_matrix(np.eye(2) if a is None else a),
        b=constant_vector(b),
        gamma=constant_scalar(gamma),
        f=constant_scalar(f),
        u_dirichlet=constant_scalar(u_d) if np.isscalar(u_d) else u_d,
    )


def local_matrix(mesh, system, t=0):
    te = mesh.triangle_edges[t]
    return system.in_dof_order()[0].toarray()[np.ix_(te, te)]


def test_cr_stiffness_reference_triangle():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    system = assemble_ncfem(mesh, project_p0(make_field(), mesh))
    expected = np.array([[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 2.0]])
    assert np.abs(local_matrix(mesh, system) - expected).max() < 1e-13


def test_cr_reaction_is_scaled_identity():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    pure = assemble_ncfem(mesh, project_p0(make_field(gamma=1.0), mesh))
    diff = assemble_ncfem(mesh, project_p0(make_field(), mesh))
    react = local_matrix(mesh, pure) - local_matrix(mesh, diff)
    assert np.abs(react - (0.5 / 3.0) * np.eye(3)).max() < 1e-14


def test_cr_local_matrices_match_quadrature_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tri = random_triangle(rng)
        a = random_spd_matrix(rng)
        b = rng.uniform(-2, 2, 2)
        gamma = rng.uniform(-3, 3)
        mesh = build_mesh(tri, np.array([[0, 1, 2]]))
        pw = project_p0(make_field(a=a, b=b, gamma=gamma), mesh)
        system = assemble_ncfem(mesh, pw)
        oracle = cr_local_stiffness(tri, a, b, gamma)
        scale = np.abs(oracle).max()
        assert np.abs(local_matrix(mesh, system) - oracle).max() < 1e-13 * scale


def test_cr_diffusion_rows_annihilate_constants():
    rng = np.random.default_rng(4)
    tri = random_triangle(rng)
    mesh = build_mesh(tri, np.array([[0, 1, 2]]))
    pw = project_p0(make_field(a=random_spd_matrix(rng)), mesh)
    k = local_matrix(mesh, assemble_ncfem(mesh, pw))
    assert np.abs(k - k.T).max() < 1e-13
    assert np.abs(k.sum(axis=1)).max() < 1e-13


def test_assembled_ncfem_spd_for_pure_diffusion():
    mesh = lshape_start_mesh()
    pw = project_p0(make_field(), mesh)
    system = assemble_ncfem(mesh, pw, u_dirichlet=constant_scalar(0.0))
    lu = spla.splu(system.matrix.tocsc())  # factorization succeeds
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(system.matrix.shape[0])
        assert v @ (system.matrix @ v) > 0


def test_zero_data_gives_zero_solution():
    mesh = lshape_start_mesh()
    pw = project_p0(make_field(), mesh)
    system = assemble_ncfem(mesh, pw, u_dirichlet=constant_scalar(0.0))
    assert np.abs(system.rhs).max() == 0.0


def test_modified_equals_plain_without_reaction_and_convection():
    mesh = lshape_start_mesh()
    inst = benchmark("lshape")
    pw = project_p0(make_field(a=[[2.0, 0.3], [0.3, 1.0]]), mesh)
    plain = assemble_ncfem(mesh, pw)
    modified = assemble_modified_ncfem(mesh, pw)
    assert np.abs((plain.matrix - modified.matrix).toarray()).max() < 1e-14
    assert np.abs(plain.rhs - modified.rhs).max() < 1e-14


def test_condensation_factor_on_reference_triangle():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    pw = project_p0(make_field(gamma=4.0), mesh)
    # S_T = 1/18 and |T| = 1/2, so the factor is (1 + 4*(1/9)/4)^-1 = 9/10
    assert pw.s_t[0] == pytest.approx(1 / 18, rel=1e-14)
    assert pw.kappa[0] == pytest.approx(0.9, rel=1e-14)


def test_singular_local_factor_detected():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    # gamma = -4 |T| / S_T makes 1 + gamma_h S_T/(4|T|) vanish
    gamma = -4.0 * 0.5 / (1 / 18)
    pw = project_p0(make_field(gamma=gamma), mesh)
    with pytest.raises(SingularLocalFactor):
        assemble_modified_ncfem(mesh, pw)


def test_dirichlet_elimination_moves_columns():
    mesh = build_mesh(REF_TRI, np.array([[0, 1, 2]]))
    pw = project_p0(make_field(gamma=1.0), mesh)
    zero = assemble_ncfem(mesh, pw, u_dirichlet=constant_scalar(0.0))
    assert zero.matrix.shape == (0, 0)  # single triangle: all edges boundary
    assert np.allclose(zero.fixed_values, 0.0)

    mesh2 = build_mesh(*SQUARE)
    pw2 = project_p0(make_field(gamma=1.0), mesh2)
    raw2 = assemble_ncfem(mesh2, pw2)
    ones = assemble_ncfem(mesh2, pw2, u_dirichlet=constant_scalar(1.0))
    free = ones.free
    full = raw2.in_dof_order()[0].toarray()
    expected = -full[np.ix_(free, ones.fixed)] @ np.ones(len(ones.fixed))
    assert np.allclose(ones.rhs, expected, atol=1e-14)


@pytest.mark.parametrize(
    "make", [lshape_start_mesh, crack_start_mesh, _rgb_mesh_with_green_and_blue]
)
def test_mixed_boundary_term_matches_triangle_sign_lookup(make):
    mesh = make()

    def u_d(x, y):
        return 1.0 + 0.3 * np.asarray(x, dtype=float) - np.asarray(y, dtype=float)

    pw = project_p0(make_field(b=(0.5, -1.0), gamma=2.0, f=1.0), mesh)
    plain = assemble_mixed_direct(mesh, pw)
    folded = assemble_mixed_direct(mesh, pw, u_dirichlet=u_d)
    # reference: the edge's sign in the local numbering of its one triangle
    bnd = mesh.boundary_edges
    tri = np.where(
        mesh.edge_tris[bnd, 0] >= 0, mesh.edge_tris[bnd, 0], mesh.edge_tris[bnd, 1]
    )
    local = mesh.triangle_edges[tri] == bnd[:, None]
    sigma = mesh.triangle_edge_signs[tri][local].astype(float)
    assert set(sigma.tolist()) == {-1.0, 1.0}
    mid = mesh.edge_mid[bnd]
    expected = np.zeros(len(plain.rhs))
    expected[bnd] = -sigma * mesh.edge_length[bnd] * u_d(mid[:, 0], mid[:, 1])
    assert np.array_equal(folded.in_dof_order()[1] - plain.in_dof_order()[1], expected)
    assert (folded.matrix != plain.matrix).nnz == 0


def test_lshape_boundary_value_at_unit_height():
    inst = benchmark("lshape")
    val = inst.field.u_dirichlet(np.array([0.0]), np.array([1.0]))[0]
    assert val == pytest.approx(0.8660254, abs=1e-7)
    # every boundary dof receives u_D(mid E) after elimination
    mesh = inst.start_mesh()
    pw = project_p0(inst.field, mesh)
    system = assemble_ncfem(mesh, pw, u_dirichlet=inst.field.u_dirichlet)
    mids = mesh.edge_mid[system.fixed]
    assert np.allclose(
        system.fixed_values, inst.field.u_dirichlet(mids[:, 0], mids[:, 1])
    )


def test_mixed_divergence_rows():
    mesh = build_mesh(*SQUARE)
    pw = project_p0(make_field(f=1.0), mesh)
    system = assemble_mixed_direct(mesh, pw)
    ne = mesh.num_edges
    a, rhs = system.in_dof_order()
    a = a.toarray()
    for t in range(mesh.num_triangles):
        row = a[ne + t]
        for k, e in enumerate(mesh.triangle_edges[t]):
            expected = mesh.triangle_edge_signs[t, k] * mesh.edge_length[e]
            assert row[e] == pytest.approx(expected, rel=1e-14)
        assert row[ne + t] == pytest.approx(0.0, abs=1e-15)  # gamma = 0
    assert np.allclose(rhs[ne:], pw.f_h * mesh.area)


def test_mixed_block_structure():
    mesh = lshape_start_mesh()
    pw = project_p0(make_field(gamma=-4.0), mesh)
    system = assemble_mixed_direct(mesh, pw)
    ne = mesh.num_edges
    c_block = system.in_dof_order()[0].toarray()[ne:, ne:]
    assert np.allclose(c_block, np.diag(pw.gamma_h * mesh.area))
    # with gamma = 0, b = 0 the mass block is SPD and B has full row rank
    pw0 = project_p0(make_field(), mesh)
    sys0 = assemble_mixed_direct(mesh, pw0)
    k0 = sys0.in_dof_order()[0].toarray()
    m_block = k0[:ne, :ne]
    assert np.linalg.eigvalsh((m_block + m_block.T) / 2).min() > 0
    b_block = k0[ne:, :ne]
    assert np.linalg.matrix_rank(b_block) == mesh.num_triangles


def test_mixed_eigenvalue_oracle_matches_dense_schur():
    # eliminating the fluxes from K0 x = lambda D x leaves the SPD pencil
    # B M^-1 B^T u = lambda diag(|T|) u over the triangle scalars
    mesh = uniform_red_refine(lshape_start_mesh())
    assert mesh.ndof_mixed == 256
    pw = project_p0(make_field(), mesh)
    k0 = assemble_mixed_direct(mesh, pw).in_dof_order()[0].toarray()
    ne = mesh.num_edges
    schur = -k0[ne:, :ne] @ np.linalg.solve(k0[:ne, :ne], k0[:ne, ne:])
    dense = sla.eigh(schur, np.diag(mesh.area), eigvals_only=True)
    assert dense[0] == pytest.approx(9.2872378, abs=1e-7)
    assert mixed_dirichlet_eigenvalue(mesh, 9.63) == pytest.approx(dense[0], rel=1e-12)
    # nearest to the shift, not the smallest
    assert mixed_dirichlet_eigenvalue(mesh, 15.0) == pytest.approx(dense[1], rel=1e-12)


def test_one_point_quadrature_exact_for_p0_coefficients():
    # with piecewise constant data the centroid rule is the exact L2 mean,
    # so assembly equals the quadrature oracle exactly
    rng = np.random.default_rng(33)
    tri = random_triangle(rng)
    a = random_spd_matrix(rng)
    b = rng.uniform(-1, 1, 2)
    gamma = rng.uniform(-2, 2)
    mesh = build_mesh(tri, np.array([[0, 1, 2]]))
    pw = project_p0(make_field(a=a, b=b, gamma=gamma), mesh)
    system = assemble_ncfem(mesh, pw)
    oracle = cr_local_stiffness(tri, a, b, gamma)
    assert np.abs(local_matrix(mesh, system) - oracle).max() < 1e-13


def test_dump_triplets(tmp_path):
    mesh = build_mesh(*SQUARE)
    system = assemble_mixed_direct(mesh, project_p0(make_field(f=1.0), mesh))
    path = tmp_path / "system.txt"
    system.dump_triplets(path)
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("%")]
    n, m, nnz = (int(v) for v in lines[0].split())
    assert (n, m) == system.matrix.shape
    assert nnz == system.matrix.nnz
    assert len(lines) == 1 + nnz + len(system.rhs)


def _variable_field(rng):
    # A = A0 + x A1 + y A2 stays SPD on the unit disc: the eigenvalues of
    # A0 are at least 1.2 and |x A1 + y A2| is at most 0.7
    a0 = random_spd_matrix(rng) + 1.0 * np.eye(2)
    a1, a2 = (0.35 * m / np.linalg.norm(m, 2)
              for m in (random_spd_matrix(rng) - np.eye(2) for _ in range(2)))
    c = rng.uniform(-1.0, 1.0, 6)

    def a(x, y):
        x = np.asarray(x, dtype=float)[:, None, None]
        y = np.asarray(y, dtype=float)[:, None, None]
        return a0 + x * a1 + y * a2

    def b(x, y):
        return np.stack([c[0] + c[1] * np.asarray(y, dtype=float),
                         c[2] * np.asarray(x, dtype=float)], axis=-1)

    return CoefficientField(
        a=a,
        b=b,
        gamma=lambda x, y: c[3] - 3.0 * np.asarray(x, dtype=float) ** 2,
        f=lambda x, y: np.sin(3.0 * np.asarray(x, dtype=float)) + c[4] * y,
        u_dirichlet=lambda x, y: c[5] + np.asarray(x, dtype=float) * y,
    )


def _is_canonical_csc(m):
    """Row indices strictly increasing within every column."""
    steps = np.diff(m.indices)
    inner = np.ones(len(steps), dtype=bool)
    inner[m.indptr[1:-1][m.indptr[1:-1] > 0] - 1] = False
    return m.format == "csc" and bool(np.all(steps[inner] > 0))


def test_assembly_bit_identical_to_lexsort_einsum_reference():
    rng = np.random.default_rng(11)
    mesh = crack_start_mesh()
    for _ in range(4):
        marked = rng.choice(mesh.num_triangles, mesh.num_triangles // 3,
                            replace=False)
        mesh = rgb_refine(mesh, np.sort(marked))
    assert (mesh.green_flag > 0).any()
    field = _variable_field(rng)
    pw = project_p0(field, mesh)
    assert np.ptp(pw.a_h[:, 0, 1]) > 0 and np.abs(pw.b_h).max() > 0
    for (assemble, reference), u_dirichlet in itertools.product(
        (
            (assemble_modified_ncfem, reference_modified_ncfem),
            (assemble_mixed_direct, reference_mixed_direct),
            (assemble_ncfem, reference_ncfem),
        ),
        (field.u_dirichlet, None),
    ):
        matrix, rhs = assemble(mesh, pw, u_dirichlet=u_dirichlet).in_dof_order()
        ref_matrix, ref_rhs = reference(mesh, pw, u_dirichlet)
        assert _is_canonical_csc(matrix)
        assert _is_canonical_csc(ref_matrix)
        for name in ("indices", "indptr"):
            assert np.array_equal(
                getattr(matrix, name), getattr(ref_matrix, name)
            ), (assemble.__name__, name)
        # bit patterns, so that -0.0 and +0.0 count as different
        assert np.array_equal(
            matrix.data.view(np.int64), ref_matrix.data.view(np.int64)
        ), assemble.__name__
        assert np.array_equal(rhs.view(np.int64), ref_rhs.view(np.int64))
