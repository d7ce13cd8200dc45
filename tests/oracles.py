"""Independent reference computations used by the tests.

Everything here is deliberately written without the package's own
quadrature or assembly helpers so it can serve as an oracle for them:
triangle integration goes through a Duffy-transformed Gauss-Legendre grid.
The exceptions are :func:`reference_estimate_mixed`, the estimator as it
was before it shared a level's degree-5 data with the error norms, which
the package must still reproduce bit for bit, and
:func:`mixed_dirichlet_eigenvalue`: the discrete
spectrum it reports is that of the very matrix the package solves, so it
takes that matrix from the package's mixed assembly and guards the result
with its own eigen-residual check instead. :func:`reference_ncfem`,
:func:`reference_modified_ncfem` and :func:`reference_mixed_direct` are the
lexsort-and-einsum formulation of the three assemblies, which the package's
array kernels must reproduce bit for bit; :func:`reference_hybrid_mixed`
eliminates the same einsum element arrays of the mixed system triangle by
triangle with dense solves. :func:`normal_jumps` and
:func:`residual_of_exact` are consistency diagnostics of a mixed solution
and of the benchmarks' exact data. :func:`vertices_inside_edges` tests every
vertex against every edge; :func:`red_split_without_closure` builds the
meshes it is run on, and :func:`graded_toward_corner` graded ones.
:func:`kuhn_matching_size` is the augmenting-path matching, for the size of
the nested dissection's separators. :func:`reference_minimum_cover` is the
separator step as it was written with ``np.setdiff1d`` and ``np.r_``, which
the package's edge orders must reproduce exactly, and
:func:`unchecked_adaptive_loop` the adaptive loop before it tested the dof
budget ahead of refining.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import leggauss

from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

from afem import quadrature
from afem.adapt import average_cr, dorfler_mark, estimate_mixed, grad_p1
from afem.assembly import assemble_mixed_direct
from afem.problem import (
    CoefficientField,
    ProblemInstance,
    constant_matrix,
    constant_scalar,
    constant_vector,
    inv_2x2,
    lshape_start_mesh,
    project_p0,
)
from afem.refine import rgb_refine
from afem.solver import solve_mixed_via_equivalence


def duffy_rule(order=12):
    """Tensor Gauss-Legendre rule mapped to the reference triangle
    {(u, v): u, v >= 0, u + v <= 1} via x = s, y = t(1-s)."""
    nodes, weights = leggauss(order)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    ss, tt = np.meshgrid(s, s, indexing="ij")
    ws, wt = np.meshgrid(w, w, indexing="ij")
    x = ss
    y = tt * (1.0 - ss)
    wq = ws * wt * (1.0 - ss)  # Jacobian of the Duffy map
    return x.ravel(), y.ravel(), wq.ravel()


def integrate_triangle(fn, verts, order=12, subdivide=0):
    """Integral of fn(x, y) over one triangle, optionally with dyadic
    subdivision toward vertex 0 for point singularities there."""
    verts = np.asarray(verts, dtype=float)
    if subdivide > 0:
        v0, v1, v2 = verts
        m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
        total = 0.0
        for child in ((m01, v1, m12), (m20, m12, v2), (m01, m12, m20)):
            total += integrate_triangle(fn, np.array(child), order)
        return total + integrate_triangle(
            fn, np.array((v0, m01, m20)), order, subdivide - 1
        )
    xr, yr, wr = duffy_rule(order)
    v0, v1, v2 = verts
    jac = abs(
        (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    )
    x = v0[0] + (v1[0] - v0[0]) * xr + (v2[0] - v0[0]) * yr
    y = v0[1] + (v1[1] - v0[1]) * xr + (v2[1] - v0[1]) * yr
    return jac * float(np.sum(wr * fn(x, y)))


def cr_basis_gradients(verts):
    """Gradients of the three Crouzeix-Raviart basis functions (edge k
    opposite vertex k) on one triangle, computed from first principles."""
    verts = np.asarray(verts, dtype=float)
    grads = np.empty((3, 2))
    area2 = (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1]) - (
        verts[2][0] - verts[0][0]
    ) * (verts[1][1] - verts[0][1])
    for k in range(3):
        d = verts[(k + 1) % 3] - verts[(k + 2) % 3]
        grads[k] = -2.0 * np.array([d[1], -d[0]]) / area2
    return grads


def cr_basis_values(verts, x, y):
    """Values of the CR basis at points, via barycentric coordinates."""
    verts = np.asarray(verts, dtype=float)
    area2 = (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1]) - (
        verts[2][0] - verts[0][0]
    ) * (verts[1][1] - verts[0][1])
    lam = np.empty((3, np.size(x)))
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    for k in range(3):
        a, b = verts[(k + 1) % 3], verts[(k + 2) % 3]
        lam[k] = ((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])) / area2
    return 1.0 - 2.0 * lam


def cr_local_stiffness(verts, a_mat=None, b_vec=None, gamma=0.0, order=12):
    """Local CR element matrix by direct quadrature (the oracle)."""
    a_mat = np.eye(2) if a_mat is None else np.asarray(a_mat, dtype=float)
    b_vec = np.zeros(2) if b_vec is None else np.asarray(b_vec, dtype=float)
    grads = cr_basis_gradients(verts)
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            def integrand(x, y, i=i, j=j):
                psi = cr_basis_values(verts, x, y)
                diff = grads[j] @ a_mat @ grads[i]
                conv = psi[j] * (b_vec @ grads[i])
                reac = gamma * psi[i] * psi[j]
                return diff + conv + reac

            out[i, j] = integrate_triangle(integrand, verts, order)
    return out


def random_spd_matrix(rng, dim=2, scale=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.2, 3.0, dim) * scale
    return (q * eigs) @ q.T


def random_triangle(rng, scale=1.0):
    """A non-degenerate CCW triangle with diameter about ``scale``."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2)) * scale
        area2 = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (
            pts[2][0] - pts[0][0]
        ) * (pts[1][1] - pts[0][1])
        if area2 < 0:
            pts = pts[[0, 2, 1]]
            area2 = -area2
        if area2 > 0.05 * scale**2:
            return pts


def normal_jumps(mixed):
    """[p]_E . nu_E on interior edges (zero for conforming fluxes)."""
    mesh = mixed.mesh
    inner = mesh.interior_edges
    tp = mesh.edge_tris[inner, 0]
    tm = mesh.edge_tris[inner, 1]
    mid = mesh.edge_mid[inner]
    # canonical direction (min -> max vertex) rotated 90 degrees CCW
    ev = mesh.vertices[mesh.edges[inner, 1]] - mesh.vertices[mesh.edges[inner, 0]]
    nu = np.stack([-ev[:, 1], ev[:, 0]], axis=1) / mesh.edge_length[inner, None]
    val_p = mixed.flux_const[tp] + mixed.flux_slope[tp, None] * mid
    val_m = mixed.flux_const[tm] + mixed.flux_slope[tm, None] * mid
    return np.einsum("ed,ed->e", val_p - val_m, nu)


def vertices_inside_edges(vertices, edges):
    """All (vertex, edge) pairs with the vertex strictly inside the edge,
    sorted; every pair is tested, with the package's tolerances."""
    v = np.asarray(vertices, dtype=float)
    a = v[edges[:, 0]][None, :, :]
    ab = v[edges[:, 1]][None, :, :] - a
    ap = v[:, None, :] - a  # (V, E, 2)
    t = (ap * ab).sum(axis=2) / (ab * ab).sum(axis=2)
    cross = np.abs(ap[..., 0] * ab[..., 1] - ap[..., 1] * ab[..., 0])
    length = np.sqrt((ab * ab).sum(axis=2))
    mid = np.abs(a + 0.5 * ab).max(axis=2)
    dist = np.maximum(1e-12 * length, 64 * np.finfo(float).eps * mid)
    hit = (cross <= dist * length) & (t > 1e-12) & (t < 1 - 1e-12)
    return sorted(zip(*(idx.tolist() for idx in np.nonzero(hit))))


def red_split_without_closure(mesh, t):
    """(vertices, triangles) of ``mesh`` with triangle ``t`` split into four
    through its edge midpoints and no neighbour closed: each interior edge
    of ``t`` leaves a hanging node."""
    v = mesh.vertices
    a, b, c = (int(k) for k in mesh.triangles[t])
    ma, mb, mc = len(v), len(v) + 1, len(v) + 2
    mids = 0.5 * np.array([v[b] + v[c], v[c] + v[a], v[a] + v[b]])
    kids = [[a, mc, mb], [mc, b, ma], [mb, ma, c], [ma, mb, mc]]
    tris = np.concatenate([np.delete(mesh.triangles, t, axis=0), kids])
    return np.concatenate([v, mids]), tris


def graded_toward_corner(mesh, steps):
    """``mesh`` after ``steps`` red-green-blue refinements of the triangles
    at the origin (the L-shape's re-entrant corner)."""
    for _ in range(steps):
        at_corner = (mesh.vertices[mesh.triangles] == 0.0).all(axis=2).any(axis=1)
        mesh = rgb_refine(mesh, np.flatnonzero(at_corner))
    return mesh


def kuhn_matching_size(low, up):
    """Size of a maximum matching of the bipartite graph with links
    ``low[k] -> up[k]``, by Kuhn's augmenting paths (1955)."""
    links = {}
    for u, v in zip(low.tolist(), up.tolist()):
        links.setdefault(u, []).append(v)
    mate = {}  # upper end -> its lower end

    def augment(u, seen):
        for v in links[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in links)


def reference_minimum_cover(low, up):
    """Minimum vertex cover of the bipartite graph with links ``low -> up``
    by König's construction, as ``afem.ordering._minimum_cover`` computed it
    with ``np.setdiff1d`` for the free lower ends and ``np.r_``."""
    lows, lo = np.unique(low, return_inverse=True)
    ups, hi = np.unique(up, return_inverse=True)
    nl, nu = len(lows), len(ups)
    links = sp.csr_matrix((np.ones(len(lo)), (lo, hi)), (nl, nu))
    mate = maximum_bipartite_matching(links, perm_type="row")
    matched = np.flatnonzero(mate >= 0)
    free = np.setdiff1d(np.arange(nl), mate)
    source = nl + nu
    rows = np.r_[lo, nl + matched, np.full(len(free), source)]
    cols = np.r_[nl + hi, mate[matched], free]
    paths = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), (source + 1, source + 1))
    seen = np.zeros(source + 1, dtype=bool)
    seen[breadth_first_order(paths, source, return_predecessors=False)] = True
    return np.r_[lows[~seen[:nl]], ups[seen[nl:source]]]


def unchecked_adaptive_loop(instance, max_ndof, theta=0.5):
    """The meshes of ``adapt.adaptive_loop`` in adaptive mode as the loop
    ran before it tested the budget ahead of refining: every level is
    refined, and the ``while`` test rejects the mesh over the budget.

    Only what decides the meshes runs (the reconstruction route, the
    estimator and the marking). Returns ``(levels, rejected)``: one
    ``(mesh, marked)`` per solved level, and the refined mesh the loop
    built and rejected, or None where the estimator vanished.
    """
    mesh = instance.start_mesh()
    levels = []
    while mesh.ndof_mixed <= max_ndof:
        pw = project_p0(instance.field, mesh)
        solve = solve_mixed_via_equivalence(pw)
        report = estimate_mixed(solve.mixed, solve.u_tilde, instance.field, pw)
        marked = dorfler_mark(report.per_triangle_sq, theta).indices
        levels.append((mesh, marked))
        if len(marked) == 0:
            return levels, None
        mesh = rgb_refine(mesh, marked)
    return levels, mesh


def residual_of_exact(instance, x, y, h=1e-5):
    """First-order-system residual div p + gamma u - f of the exact data,
    with the flux divergence taken by central differences (the flux already
    carries the sign, p = -(A grad u + u b))."""
    cf = instance.field
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def flux(x, y):
        return instance.exact(x, y)[1]

    div_p = (flux(x + h, y)[..., 0] - flux(x - h, y)[..., 0]) / (2 * h) + (
        flux(x, y + h)[..., 1] - flux(x, y - h)[..., 1]
    ) / (2 * h)
    return div_p + cf.gamma(x, y) * instance.exact(x, y)[0] - cf.f(x, y)


def constant_instance():
    """u = 1 on the L-shape: u_D = 1 and f = b = gamma = 0, so the exact
    flux vanishes and both mixed routes' fluxes are roundoff."""
    field = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=constant_scalar(1.0),
    )
    return ProblemInstance(
        name="constant",
        field=field,
        start_mesh=lshape_start_mesh,
        exact=lambda x, y: (
            np.ones(np.size(x)), np.zeros((np.size(x), 2)), np.zeros(np.size(x))
        ),
        singular_point=(0.0, 0.0),
    )


def reference_estimate_mixed(mesh, mixed, u_cr_tilde, coeffs, pw):
    """The estimator's five squared terms per triangle, each evaluating the
    coefficient callbacks at its own points: the formulation before the
    estimator and the error norms shared a level's degree-5 data."""
    pv = mesh.triangle_vertices()
    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))
    resid = pw.f_h - pw.gamma_h * mixed.u
    pts = quadrature.physical_points(pv)
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    g = np.asarray(coeffs.f(x, y), dtype=float).reshape(pts.shape[:2]) - np.asarray(
        coeffs.gamma(x, y), dtype=float
    ).reshape(pts.shape[:2]) * mixed.u[:, None]
    osc_sq = mesh.area * (((g - resid[:, None]) ** 2) @ quadrature.DEGREE5[1])
    p_at_mids = mixed.flux_at(mids)
    a_inv = pw.a_h_inv[:, None, :, :]
    r = (
        a_inv[..., 0] * p_at_mids[..., 0, None]
        + a_inv[..., 1] * p_at_mids[..., 1, None]
        + (mixed.u[:, None] * pw.b_star_h)[:, None, :]
    )
    volume_sq = mesh.h_t**2 * quadrature.affine_sq_l2(mesh.area, r)
    gv = grad_p1(mesh, -average_cr(u_cr_tilde))
    nonconf_sq = quadrature.affine_sq_l2(mesh.area, r - gv[:, None, :])
    xm, ym = mids[..., 0].ravel(), mids[..., 1].ravel()
    a_inv_pts = inv_2x2(np.asarray(coeffs.a(xm, ym), dtype=float).reshape(-1, 3, 2, 2))
    diff_a = np.einsum(
        "tqde,tqe->tqd", a_inv_pts - pw.a_h_inv[:, None, :, :], p_at_mids
    )
    b_pts = np.asarray(coeffs.b(xm, ym), dtype=float).reshape(-1, 3, 2)
    b_star_pts = np.einsum("tqde,tqe->tqd", a_inv_pts, b_pts)
    diff_b = mixed.u[:, None, None] * (b_star_pts - pw.b_star_h[:, None, :])
    return {
        "osc": osc_sq,
        "volume": volume_sq,
        "nonconformity": nonconf_sq,
        "coeff_a": quadrature.affine_sq_l2(mesh.area, diff_a),
        "coeff_b": quadrature.affine_sq_l2(mesh.area, diff_b),
    }


def mixed_dirichlet_eigenvalue(mesh, shift):
    """Eigenvalue nearest ``shift`` of the lowest-order mixed (RT0)
    discretization of the Dirichlet Laplacian on ``mesh``.

    Solves the pencil K0 x = lambda D x, where K0 is the saddle-point matrix
    of the package's mixed assembly with zero reaction and
    D = diag(0 on edge fluxes, |T| on triangle scalars), so that the system
    solved for reaction -gamma is K0 - gamma D. Shift-invert: the dominant
    eigenvalue nu of (K0 - shift D)^-1 D gives lambda = shift + 1/nu. The
    eigenpair is accepted only if its relative residual is below 1e-10.
    """
    laplace = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=constant_vector((0.0, 0.0)),
        gamma=constant_scalar(0.0),
        f=constant_scalar(0.0),
        u_dirichlet=constant_scalar(0.0),
    )
    k0 = assemble_mixed_direct(project_p0(laplace, mesh)).in_dof_order()[0]
    weight = np.concatenate([np.zeros(mesh.num_edges), mesh.area])
    lu = spla.splu((k0 - shift * sp.diags(weight)).tocsc())
    op = spla.LinearOperator(
        k0.shape, matvec=lambda x: lu.solve(weight * x), dtype=float
    )
    nu, vec = spla.eigs(op, k=1, which="LM", v0=np.ones(k0.shape[0]))
    lam = shift + 1.0 / nu[0].real
    x = vec[:, 0].real
    residual = np.linalg.norm(k0 @ x - lam * weight * x) / (
        spla.norm(k0, 1) * np.linalg.norm(x)
    )
    if abs(nu[0].imag) > 1e-10 * abs(nu[0]) or residual > 1e-10:
        raise ArithmeticError(
            f"eigenpair near {shift} rejected: residual {residual:.2e},"
            f" nu = {nu[0]}"
        )
    return float(lam)


# -- reference assemblies: triplets lexsorted, element integrals by einsum ----


def _reference_compress(rows, cols, vals, shape):
    order = np.lexsort((rows, cols))
    m = sp.coo_matrix(
        (vals[order], (rows[order], cols[order])), shape=shape
    ).tocsc()
    m.sum_duplicates()
    return m


def _reference_grad_bary(mesh):
    pv = mesh.vertices[mesh.triangles]
    out = np.empty_like(pv)
    for k in range(3):
        d = pv[:, (k + 1) % 3] - pv[:, (k + 2) % 3]
        out[:, k, 0] = d[:, 1]
        out[:, k, 1] = -d[:, 0]
    return out / (2.0 * mesh.area)[:, None, None]


def _reference_cr(mesh, pw, conv_weight, react, local_rhs, u_dirichlet):
    """(matrix, rhs) of a CR system with the element reaction block
    ``react`` and loads ``local_rhs``: over the free edges in ascending
    order, or over all edges when ``u_dirichlet`` is None."""
    area = mesh.area
    ne = mesh.num_edges
    grad_psi = -2.0 * _reference_grad_bary(mesh)
    diff = np.einsum("t,tde,tje,tid->tij", area, pw.a_h, grad_psi, grad_psi)
    conv = np.einsum("t,td,tid->ti", conv_weight * area / 3.0, pw.b_h, grad_psi)
    local = diff + np.repeat(conv[:, :, None], 3, axis=2) + react
    te = mesh.triangle_edges
    matrix = _reference_compress(
        np.repeat(te, 3, axis=1).ravel(), np.tile(te, (1, 3)).ravel(),
        local.ravel(), (ne, ne),
    )
    rhs = np.zeros(ne)
    np.add.at(rhs, te.ravel(), local_rhs.ravel())
    if u_dirichlet is None:
        return matrix, rhs
    bnd = mesh.boundary_edges
    mid = mesh.edge_mid[bnd]
    values = np.asarray(u_dirichlet(mid[:, 0], mid[:, 1]), dtype=float).ravel()
    free = np.setdiff1d(np.arange(ne), bnd)
    return (
        matrix[np.ix_(free, free)].tocsc(),
        rhs[free] - matrix[np.ix_(free, bnd)] @ values,
    )


def reference_ncfem(mesh, pw, u_dirichlet):
    """(matrix, rhs) of the plain CR system; ``pw`` is the level's
    piecewise data."""
    area = mesh.area
    react = (pw.gamma_h * area / 3.0)[:, None, None] * np.eye(3)[None, :, :]
    load = np.repeat((pw.f_h * area / 3.0)[:, None], 3, axis=1)
    return _reference_cr(mesh, pw, 1.0, react, load, u_dirichlet)


def reference_modified_ncfem(mesh, pw, u_dirichlet):
    """(matrix, rhs) of the condensed modified CR system; ``pw`` is the
    level's piecewise data."""
    area = mesh.area
    s_mean = pw.s_t / area
    kappa = 1.0 / (1.0 + pw.gamma_h * s_mean / 4.0)
    grad_psi = -2.0 * _reference_grad_bary(mesh)
    react = (pw.gamma_h * kappa * area / 9.0)[:, None, None] * np.ones((1, 3, 3))
    correction = kappa * s_mean / 4.0 * pw.f_h
    local_rhs = (
        (pw.f_h * area / 3.0)[:, None]
        - np.einsum("t,td,tid->ti", correction * area, pw.b_h, grad_psi)
        - (pw.gamma_h * correction * area / 3.0)[:, None]
    )
    return _reference_cr(mesh, pw, kappa, react, local_rhs, u_dirichlet)


def reference_mixed_elements(mesh, pw):
    """(mass, div_coef, w): the (T, 3, 3) flux mass matrices, (T, 3)
    divergence rows and (T, 3) convection couplings of the saddle-point
    system, by einsum."""
    te = mesh.triangle_edges
    pv = mesh.vertices[mesh.triangles]
    sig = mesh.triangle_edge_signs.astype(float)
    scale = sig * mesh.edge_length[te] / (2.0 * mesh.area[:, None])
    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))
    vals = scale[:, :, None, None] * (mids[:, None, :, :] - pv[:, :, None, :])
    a_inv_vals = np.einsum("tde,tkqe->tkqd", pw.a_h_inv, vals)
    mass = np.einsum("t,tiqd,tjqd->tij", mesh.area / 3.0, a_inv_vals, vals)
    div_coef = sig * mesh.edge_length[te]
    w = np.einsum(
        "t,td,tkd->tk", mesh.area, pw.b_star_h, mesh.centroid[:, None, :] - pv
    ) * scale
    return mass, div_coef, w


def reference_mixed_direct(mesh, pw, u_dirichlet):
    """(matrix, rhs) of the saddle-point system, edge fluxes first; with
    no boundary term when ``u_dirichlet`` is None."""
    ne, nt = mesh.num_edges, mesh.num_triangles
    te = mesh.triangle_edges
    mass, div_coef, w = reference_mixed_elements(mesh, pw)
    tri_ids = ne + np.repeat(np.arange(nt), 3)
    rows = [np.repeat(te, 3, axis=1).ravel(), tri_ids, te.ravel(),
            ne + np.arange(nt)]
    cols = [np.tile(te, (1, 3)).ravel(), te.ravel(), tri_ids, ne + np.arange(nt)]
    data = [mass.ravel(), div_coef.ravel(), (w - div_coef).ravel(),
            pw.gamma_h * mesh.area]
    matrix = _reference_compress(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data),
        (ne + nt, ne + nt),
    )
    rhs = np.zeros(ne + nt)
    rhs[ne:] = pw.f_h * mesh.area
    if u_dirichlet is None:
        return matrix, rhs
    bnd = mesh.boundary_edges
    sigma = np.where(mesh.edge_tris[bnd, 0] >= 0, 1.0, -1.0)
    mid = mesh.edge_mid[bnd]
    values = np.asarray(u_dirichlet(mid[:, 0], mid[:, 1]), dtype=float).ravel()
    rhs[bnd] -= sigma * mesh.edge_length[bnd] * values
    return matrix, rhs


def reference_hybrid_mixed(mesh, pw, multiplier):
    """(local, load, (flux_const, flux_slope, u)): the hybridized element
    blocks and loads, and the mixed solution recovered from the edge
    ``multiplier``, each triangle's (4, 4) block [[M, w - b], [b^T, c]]
    eliminated by a dense solve.

    With D = diag(b) and Z = K^-1 [[D, 0], [0, f]], the block is D Z_pp and
    the load D Z_pu; the edge fluxes and the scalar solve K (p, u) =
    (-D lambda, f), and the flux is sum_k p_k b_k / (2|T|) (x - P_k)."""
    nt = mesh.num_triangles
    mass, div_coef, w = reference_mixed_elements(mesh, pw)
    block = np.zeros((nt, 4, 4))
    block[:, :3, :3] = mass
    block[:, :3, 3] = w - div_coef
    block[:, 3, :3] = div_coef
    block[:, 3, 3] = pw.gamma_h * mesh.area
    f = pw.f_h * mesh.area
    right = np.zeros((nt, 4, 4))
    right[:, :3, :3] = div_coef[:, :, None] * np.eye(3)
    right[:, 3, 3] = f
    z = np.linalg.solve(block, right)
    local = div_coef[:, :, None] * z[:, :3, :3]
    load = div_coef * z[:, :3, 3]
    data = np.concatenate(
        (-div_coef * multiplier[mesh.triangle_edges], f[:, None]), axis=1
    )
    x = np.linalg.solve(block, data[:, :, None])[:, :, 0]
    coef = x[:, :3] * div_coef / (2.0 * mesh.area[:, None])
    pv = mesh.vertices[mesh.triangles]
    flux_const = -np.einsum("tk,tkd->td", coef, pv)
    return local, load, (flux_const, coef.sum(axis=1), x[:, 3])
