"""Element matrices and global sparse systems.

Three systems are assembled here, all with centroid (one-point) coefficient
quadrature and exact integration of the polynomial element integrands:

* the nonconforming system  a_NC(u, v) = (f_h, v)  over edge-midpoint dofs;
* its condensed modification whose solution reconstructs the mixed one;
* the saddle-point system of the lowest-order mixed method over edge-flux
  dofs (normal component on the canonical edge normal) followed by one
  scalar dof per triangle (:func:`assemble_mixed_direct`), and the element
  blocks of the same system hybridized, over one multiplier per edge
  (:func:`assemble_hybrid_mixed`), equal to the condensed modification's
  triangle by triangle up to roundoff.

Each assembler takes ``pw = project_p0(field, mesh)``, the piecewise data of
its mesh, which also holds the condensation factor ``pw.kappa``.

Each system is a (T, k, k) block of element matrices over a (T, k) array
of dofs: a triangle's three edges (k = 3), plus its scalar in the
saddle-point system (k = 4, :func:`_mixed_blocks`), which hybridization
takes back to k = 3. One scatter (:func:`_scatter`) numbers the dofs in
the order of elimination and sums the blocks into CSC form.

Dirichlet data enters by elimination (the edge systems: boundary edges
are fixed to u_D(mid E), :func:`edge_system`) or through the natural
boundary term of the first mixed equation, approximated with the
one-point edge rule |E| u_D(mid E).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MeshMismatch
from .problem import require_finite


@dataclass
class SparseSystem:
    """Sparse system over the ``free`` dofs, scattered from element blocks
    in the order of elimination: row and column ``i`` are dof ``free[i]``.

    Eliminated Dirichlet dofs are listed in ``fixed`` with their values;
    :meth:`full_solution` puts them back. ``kind`` labels the dump only.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    ndofs: int
    free: np.ndarray
    fixed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    fixed_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    kind: str = "cr"

    def full_solution(self, x_free):
        out = np.empty(self.ndofs)
        out[self.free] = x_free
        out[self.fixed] = self.fixed_values
        return out

    def in_dof_order(self):
        """``(matrix, rhs)`` with rows and columns in ascending dof order;
        the matrix as CSC with sorted row indices."""
        rank = np.argsort(self.free)
        return self.matrix[np.ix_(rank, rank)].sorted_indices(), self.rhs[rank]

    def dump_triplets(self, path):
        """Matrix-market style triplet text dump, in ascending dof order."""
        matrix, rhs = self.in_dof_order()
        coo = matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"% {self.kind} system, {coo.shape[0]} x {coo.shape[1]},"
                     f" {coo.nnz} entries\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {float(v)!r}\n")
            fh.write(f"% rhs {len(rhs)}\n")
            for v in rhs:
                fh.write(f"{float(v)!r}\n")


@dataclass
class CRSolution:
    """Piecewise affine, continuous at edge midpoints; one dof per edge."""

    mesh: object
    edge_values: np.ndarray

    def gradients(self):
        """Broken gradient per triangle, shape (T, 2)."""
        grad_psi = -2.0 * self.mesh.grad_bary()
        dofs = self.edge_values[self.mesh.triangle_edges]
        return np.einsum("tk,tkd->td", dofs, grad_psi)

    def triangle_means(self):
        """Integral means per triangle = average of the three edge values."""
        return self.edge_values[self.mesh.triangle_edges].mean(axis=1)

    def vertex_traces(self):
        """Values at the triangle corners, shape (T, 3)."""
        dofs = self.edge_values[self.mesh.triangle_edges]
        return dofs.sum(axis=1, keepdims=True) - 2.0 * dofs


@dataclass
class MixedSolution:
    """Per-triangle affine flux c + d*x and scalar P0 part."""

    mesh: object
    flux_const: np.ndarray  # (T, 2)
    flux_slope: np.ndarray  # (T,)
    u: np.ndarray           # (T,)

    def flux_at(self, points):
        """Evaluate the flux at per-triangle points of shape (T, Q, 2)."""
        return self.flux_const[:, None, :] + self.flux_slope[:, None, None] * points

    def div(self):
        """Elementwise divergence, constant per triangle."""
        return 2.0 * self.flux_slope


def mixed_from_local_flux(mesh, flux, u):
    """Expand the (T, 3) flux dofs of each triangle's edges into the
    per-triangle affine representation."""
    # local basis sigma |E| / (2|T|) (x - P_opp)
    coef = flux * (_divergence_rows(mesh) / (2.0 * mesh.area)).T
    slope = coef.sum(axis=1)
    const = -np.einsum("tk,tkd->td", coef, mesh.triangle_vertices())
    return MixedSolution(mesh=mesh, flux_const=const, flux_slope=slope, u=u)


def _divergence_rows(mesh):
    """(3, T) divergence rows b_T = sigma |E| = (div q, 1)_T of the signed
    local flux basis, coordinate-major."""
    return _coordinate_major(
        mesh.triangle_edge_signs * mesh.edge_length[mesh.triangle_edges]
    )


def _require_mesh(mesh, pw):
    if pw.mesh is not mesh:
        raise MeshMismatch("piecewise data belongs to a different mesh")


def _scatter(n, dofs, local, load, free, fixed, values, kind="cr"):
    """Sparse system of the (T, k, k) element blocks ``local`` and (T, k)
    loads ``load`` over the (T, k) dofs ``dofs`` of an ``n``-dof space.

    Dof ``free[i]`` is row and column ``i``; the ``fixed`` dofs, set to
    ``values``, are numbered after them, so their rows are dropped and
    their columns move to the right-hand side in ``fixed`` order. No entry
    gets more than two triplets: a dof lies in at most two triangles, and
    two distinct dofs share at most one. A sum of two floats does not
    depend on their order, so the triplets are not sorted first; each load
    is one sequential sum from 0.0 in triangle order.
    """
    nf, k = len(free), dofs.shape[1]
    # int32 positions are SuperLU's index type: scipy keeps them as they are
    position = np.empty(n, dtype=np.int32)
    position[free] = np.arange(nf, dtype=np.int32)
    position[fixed] = np.arange(nf, n, dtype=np.int32)
    pos = position[dofs]
    rows = np.repeat(pos, k, axis=1).ravel()
    cols = np.tile(pos, (1, k)).ravel()
    vals = local.ravel()
    if len(fixed):  # a fixed dof's row holds no equation
        keep = rows < nf
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    matrix = sp.csc_matrix((vals, (rows, cols)), shape=(nf, n))
    matrix.sum_duplicates()
    rhs = np.bincount(pos.ravel(), weights=load.ravel(), minlength=n)[:nf]
    if len(fixed):
        rhs = rhs - matrix[:, nf:] @ values
        matrix = matrix[:, :nf]
    return SparseSystem(matrix, rhs, ndofs=n, free=free, fixed=fixed,
                        fixed_values=values, kind=kind)


def _diffusion(area, a, grad):
    """Element diffusion blocks |T| (A grad_j) . grad_i, shape (T, 3, 3).

    The products and their sum order (d, then e, onto +0.0) are those of
    ``einsum("t,tde,tje,tid->tij", area, a, grad, grad)``, bit for bit.
    """
    scaled = area[:, None, None] * a
    out = np.zeros((len(area), 3, 3))
    for d in range(2):
        for e in range(2):
            term = scaled[:, d, e, None, None] * grad[:, None, :, e]
            out += term * grad[:, :, d, None]
    return out


def _cr_system(mesh, pw, grad_psi, conv_weight, react, local_rhs, u_dirichlet):
    """Shared nonconforming kernel over edge dofs: ``(system, local)``, the
    system and its (T, 3, 3) element blocks.

    Element matrix: diffusion (A_h grad psi_j, grad psi_i) plus the
    convection row (conv_weight b_h psi_j, grad psi_i), int_T psi_j = |T|/3,
    plus the (T, 3, 3) reaction block; ``local_rhs`` holds the (T, 3)
    element loads. The free edges are numbered in ``mesh.edge_order``.
    """
    # the mesh's edge order first: built on first use, it outlives the
    # level, and built among the triplet temporaries it fragments the heap
    mesh.edge_order
    area = mesh.area
    diff = _diffusion(area, pw.a_h, grad_psi)
    conv = np.einsum("t,td,tid->ti", conv_weight * area / 3.0, pw.b_h, grad_psi)
    local = diff + conv[:, :, None] + react
    return edge_system(mesh, local, local_rhs, u_dirichlet), local


def edge_system(mesh, local, load, u_dirichlet):
    """Sparse system of (T, 3, 3) element blocks ``local`` and (T, 3) loads
    ``load`` over each triangle's edges. With ``u_dirichlet`` given, the
    boundary edges are fixed to u_D(mid E); the free edges are numbered in
    ``mesh.edge_order``."""
    fixed, values = np.empty(0, dtype=int), np.empty(0)
    if u_dirichlet is not None:
        fixed, values = mesh.boundary_edges, _boundary_values(mesh, u_dirichlet)
    is_free = np.ones(mesh.num_edges, dtype=bool)
    is_free[fixed] = False
    free = mesh.edge_order[is_free[mesh.edge_order]]
    return _scatter(mesh.num_edges, mesh.triangle_edges, local, load, free,
                    fixed, values)


def _boundary_values(mesh, u_dirichlet):
    """u_D at the boundary-edge midpoints, in ``mesh.boundary_edges`` order."""
    bnd = mesh.boundary_edges
    mid = mesh.edge_mid[bnd]
    values = np.asarray(u_dirichlet(mid[:, 0], mid[:, 1]), dtype=float).ravel()
    return require_finite(
        "u_D", values, "boundary midpoint", mesh.edge_tris[bnd].max(axis=1)
    )


def assemble_ncfem(mesh, pw, u_dirichlet=None):
    """Nonconforming system for a_NC(u, v) = (f_h, v) over all edge dofs.

    Coefficients enter through their centroid values (the piecewise data);
    the remaining polynomial integrals are exact. With ``u_dirichlet``
    given, boundary dofs are fixed to u_D(mid E) and eliminated.
    """
    _require_mesh(mesh, pw)
    area = mesh.area
    react = (
        (pw.gamma_h * area / 3.0)[:, None, None] * np.eye(3)[None, :, :]
    )
    load = np.repeat((pw.f_h * area / 3.0)[:, None], 3, axis=1)
    return _cr_system(
        mesh, pw, -2.0 * mesh.grad_bary(), 1.0, react, load, u_dirichlet
    )[0]


def assemble_modified_ncfem(mesh, pw, u_dirichlet=None):
    """Condensed modified nonconforming system: ``(system, local, load)``,
    the system and the (T, 3, 3) element blocks and (T, 3) loads it is
    scattered from.

    The zero-order couplings act on the elementwise mean of the trial
    function (one-point integration semantics), scaled by the condensation
    factor ``pw.kappa``, first computed here; the load carries the matching
    corrections.
    """
    _require_mesh(mesh, pw)
    kappa = pw.kappa
    grad_psi = -2.0 * mesh.grad_bary()
    area = mesh.area
    # (gamma_h kappa Pi0 u, Pi0 v): mean of a CR basis function is 1/3
    react = (pw.gamma_h * kappa * area / 9.0)[:, None, None] * np.ones(
        (1, 3, 3)
    )
    load = pw.f_h * area / 3.0
    correction = kappa * pw.s_mean / 4.0 * pw.f_h
    local_rhs = (
        load[:, None]
        - np.einsum("t,td,tid->ti", correction * area, pw.b_h, grad_psi)
        - (pw.gamma_h * correction * area / 3.0)[:, None]
    )
    system, local = _cr_system(
        mesh, pw, grad_psi, kappa, react, local_rhs, u_dirichlet
    )
    return system, local, local_rhs


def _coordinate_major(a):
    """The (T, ...) array ``a`` with its triangle axis last and contiguous:
    each entry a (T,) row, over which every array operation runs one loop."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


MASS_BLOCK = 8192  # triangles per block of the mass loop of _mixed_blocks


def _mixed_blocks(mesh, pw, lower=False):
    """``(mass, w, div)``, coordinate-major: the (3, 3, T) flux mass
    matrices M_T (edge-midpoint rule, exact), their entries below the
    diagonal zero unless ``lower``, and the (3, T) convection couplings w_T
    and divergence rows b_T = sigma |E|. With c_T = gamma_h |T| and f_T =
    f_h |T|, a triangle's saddle-point block over its three edge fluxes and
    its scalar is [[M_T, w_T - b_T], [b_T^T, c_T]], its load (0, f_T). The
    products and sum order (q, then d, onto +0.0) are those of
    ``einsum("t,tiqd,tjqd->tij", |T|/3, A^-1 v, v)``, v the basis at the
    edge midpoints, and ``einsum("t,td,tkd->tk", |T|, b*, c - P)``."""
    area = mesh.area
    pv = _coordinate_major(mesh.triangle_vertices())  # (3, 2, T): P_k, x/y
    div = _divergence_rows(mesh)
    # (3, T) coefficient of (x - P_k) in the signed local basis, whose
    # divergence is sigma |E| / |T|
    scale = div / (2.0 * area)
    a_inv = _coordinate_major(pw.a_h_inv)
    third = area / 3.0
    mass = np.zeros((3, 3, len(area)))
    # the first column of row i; M_T is symmetric, and the hybridization
    # reads its upper triangle only
    first = [0, 0, 0] if lower else [0, 1, 2]
    # over blocks of triangles whose arrays stay in the cache
    for lo in range(0, len(area), MASS_BLOCK):
        t = slice(lo, lo + MASS_BLOCK)
        vals = np.empty(pv[..., t].shape)  # basis k, coordinate e, at one point
        for q in range(3):  # the midpoint of edge (P_q, P_q+1)
            np.subtract(0.5 * (pv[q, :, t] + pv[(q + 1) % 3, :, t]), pv[..., t], out=vals)
            vals *= scale[:, None, t]
            for d in range(2):
                a_inv_vals = third[t] * (
                    a_inv[d, 0, t] * vals[:, 0] + a_inv[d, 1, t] * vals[:, 1]
                )
                for i, j in enumerate(first):
                    mass[i, j:, t] += a_inv_vals[i] * vals[j:, d]
    # (u b*_h, q)_T couples each triangle's scalar to its edges
    w = (area * pw.b_star_h.T)[:, None] * (mesh.centroid.T[:, None] - pv.swapaxes(0, 1))
    w = (0.0 + w[0] + w[1]) * scale
    return mass, w, div


def assemble_mixed_direct(mesh, pw, u_dirichlet=None):
    """Saddle-point system of the lowest-order mixed method.

    Dofs: edge fluxes (canonical edge index), then triangle scalars, with
    block structure [[M, W - B^T], [B, C]]: the flux mass matrix M, the
    convection coupling W, the divergence block B and C = diag(gamma_h |T|),
    summed from 4 x 4 blocks of the :func:`_mixed_blocks` arrays, in dof
    order. The direct route solves it hybridized
    (:func:`assemble_hybrid_mixed`); this assembly serves ``--dump-systems``.
    """
    _require_mesh(mesh, pw)
    ne, nt = mesh.num_edges, mesh.num_triangles
    mass, w, div = _mixed_blocks(mesh, pw, lower=True)
    react, source = pw.gamma_h * mesh.area, pw.f_h * mesh.area
    # (u b*_h, q)_T - (div q, u)_T couples each triangle dof to its edges
    local = np.block([[mass.transpose(2, 0, 1), (w - div).T[:, :, None]],
                      [div.T[:, None, :], react[:, None, None]]])
    load = np.column_stack((np.zeros((nt, 3)), source))
    if u_dirichlet is not None:
        # natural data -sigma |E| u_D(mid E) on the boundary edge's one
        # triangle, whose sign on it is sigma
        bnd = mesh.boundary_edges
        flux = np.zeros(ne)
        flux[bnd] = mesh.edge_length[bnd] * _boundary_values(mesh, u_dirichlet)
        load[:, :3] = -mesh.triangle_edge_signs * flux[mesh.triangle_edges]
    dofs = np.column_stack((mesh.triangle_edges, np.arange(ne, ne + nt)))
    return _scatter(ne + nt, dofs, local, load, np.arange(ne + nt),
                    np.empty(0, dtype=int), np.empty(0), kind="mixed")


# entry (i, j) of a symmetric 3 x 3 matrix kept by its upper triangle, the
# rows (00, 01, 02, 11, 12, 22)
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _symmetric_inverse(m):
    """(6, T) upper triangles of the inverses of the symmetric (3, 3, T)
    matrices ``m``: the symmetric adjugate of their upper triangles."""
    (a, b, c), (_, d, e), (_, _, f) = m
    inv = np.stack((d * f - e * e, c * e - b * f, b * e - c * d,
                    a * f - c * c, b * c - a * e, a * d - b * b))
    return inv / (a * inv[0] + b * inv[1] + c * inv[2])


def _symmetric_times(upper, v):
    """(3, T) products of the symmetric matrices of the (6, T) ``upper``
    triangles with the (3, T) vectors ``v``."""
    return np.stack([upper[i] * v[0] + upper[j] * v[1] + upper[k] * v[2]
                     for i, j, k in _SYMMETRIC])


def hybrid_inverses(mesh, pw):
    """``(m_inv, m_inv_g, m_inv_b, div)``: the reaction-free arrays of
    :func:`assemble_hybrid_mixed`, coordinate-major. They are the (6, T)
    upper triangles of M_T^-1, the (3, T) products M_T^-1 g_T and M_T^-1 b_T
    (g_T = w_T - b_T), and the (3, T) divergence rows b_T. Fields that differ
    only in gamma share them on one mesh."""
    mass, w, div = _mixed_blocks(mesh, pw)
    m_inv = _symmetric_inverse(mass)
    del mass
    return m_inv, _symmetric_times(m_inv, w - div), _symmetric_times(m_inv, div), div


def assemble_hybrid_mixed(mesh, pw, inverses=hybrid_inverses):
    """The saddle-point system hybridized (Arnold & Brezzi 1985):
    ``(local, load, recover)``, the (T, 3, 3) element blocks and (T, 3)
    loads over each triangle's edge multipliers (transposed coordinate-major
    arrays), and the map from all edges' multipliers to the mixed solution.

    Each triangle keeps its own fluxes p_T; a multiplier lambda_E per edge,
    u_D(mid E) on the boundary edges (:func:`edge_system`), ties them to
    their neighbours'. With the element arrays M_T, g_T = w_T - b_T, b_T of
    :func:`_mixed_blocks`, c_T = gamma_h |T|, f_T = f_h |T| and D =
    diag(b_T), a triangle solves M_T p_T + g_T u_T = -D lambda_T,
    b_T . p_T + c_T u_T = f_T exactly: with s_T = c_T - b_T^T M_T^-1 g_T,

        u_T = (f_T + b_T^T M_T^-1 D lambda_T) / s_T,
        p_T = -M_T^-1 (D lambda_T + g_T u_T),

    and the continuity of the normal flux, sum_T D p_T = 0 on every interior
    edge, is the system D (M^-1 + M^-1 g b^T M^-1 / s) D lambda =
    -D M^-1 g f / s, summed over the triangles. Its blocks and loads are the
    modified nonconforming ones to roundoff (Marini 1985), and s_T =
    4|T| / (S_T/|T| kappa_T), which vanishes only where ``pw.kappa`` raises
    :class:`SingularLocalFactor`. M_T^-1 is symmetric like M_T and is kept
    by its upper triangle, so ``recover`` holds 13 doubles per triangle.
    ``inverses(mesh, pw)`` builds the arrays of :func:`hybrid_inverses`, or
    returns those a caller keeps for fields that differ only in gamma.
    """
    _require_mesh(mesh, pw)
    # no boundary load: u_D enters as lambda
    m_inv, m_inv_g, m_inv_b, div = inverses(mesh, pw)
    s = pw.gamma_h * mesh.area - np.einsum("kt,kt->t", div, m_inv_g)  # b^T M^-1 g
    f_over_s = pw.f_h * mesh.area / s
    m_inv_b_over_s = m_inv_b / s
    del m_inv_b  # freed here unless the builder keeps it
    dm_inv_g = div * m_inv_g
    hybrid = div[:, None] * m_inv[_SYMMETRIC] * div
    hybrid += dm_inv_g[:, None] * (m_inv_b_over_s * div)

    def recover(multiplier):
        d_lambda = _divergence_rows(mesh) * multiplier[mesh.triangle_edges].T
        u = f_over_s + np.einsum("kt,kt->t", m_inv_b_over_s, d_lambda)
        flux = -_symmetric_times(m_inv, d_lambda) - m_inv_g * u
        return mixed_from_local_flux(mesh, flux.T, u)

    return hybrid.transpose(2, 0, 1), (-dm_inv_g * f_over_s).T, recover
