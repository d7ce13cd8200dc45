"""Element matrices and global sparse systems.

Three systems are assembled here, all with centroid (one-point) coefficient
quadrature and exact integration of the polynomial element integrands:

* the nonconforming system  a_NC(u, v) = (f_h, v)  over edge-midpoint dofs;
* its condensed modification whose solution reconstructs the mixed one;
* the direct saddle-point system of the lowest-order mixed method over
  edge-flux dofs (normal component on the canonical edge normal) followed
  by one scalar dof per triangle.

Dirichlet data enters by elimination (nonconforming) or through the
natural boundary term of the first mixed equation, approximated with the
one-point edge rule |E| u_D(mid E).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MeshMismatch, SingularLocalFactor


@dataclass
class SparseSystem:
    """Triplet-assembled sparse system over the ``free`` dofs, numbered in
    the order of elimination: row and column ``i`` are dof ``free[i]``.

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


def mixed_from_edge_flux(mesh, edge_flux, u):
    """Expand edge flux dofs into the per-triangle affine representation."""
    s = (
        mesh.triangle_edge_signs
        * mesh.edge_length[mesh.triangle_edges]
        / (2.0 * mesh.area[:, None])
    )  # (T, 3); local basis sigma |E| / (2|T|) (x - P_opp)
    coef = edge_flux[mesh.triangle_edges] * s
    slope = coef.sum(axis=1)
    const = -np.einsum("tk,tkd->td", coef, mesh.triangle_vertices())
    return MixedSolution(mesh=mesh, flux_const=const, flux_slope=slope, u=u)


def _coerce_pw(mesh, pw_or_field):
    from .problem import PiecewiseData, project_p0

    if isinstance(pw_or_field, PiecewiseData):
        if pw_or_field.mesh is not mesh:
            raise MeshMismatch("piecewise data belongs to a different mesh")
        return pw_or_field
    return project_p0(pw_or_field, mesh)


def _cr_triplets(te, local):
    """Scatter (T, 3, 3) local matrices into COO triplets over the (T, 3)
    edge dofs ``te``."""
    rows = np.repeat(te, 3, axis=1).ravel()
    cols = np.tile(te, (1, 3)).ravel()
    return rows, cols, local.ravel()


def _compress(rows, cols, vals, shape):
    # No entry of either system gets more than two triplets: an edge lies in
    # at most two triangles and two distinct edges share at most one. A sum
    # of two floats does not depend on their order, so neither do the bits.
    m = sp.csc_matrix((vals, (rows, cols)), shape=shape)
    m.sum_duplicates()
    return m


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
    """Shared nonconforming kernel over edge dofs.

    Element matrix: diffusion (A_h grad psi_j, grad psi_i) plus the
    convection row (conv_weight b_h psi_j, grad psi_i), int_T psi_j = |T|/3,
    plus the (T, 3, 3) reaction block; ``local_rhs`` holds the (T, 3)
    element loads. The free edges are numbered in ``mesh.edge_order``.
    """
    area = mesh.area
    ne = mesh.num_edges
    # dofs numbered first: the mesh's orders, built on first use, outlive the
    # level, and built among the triplet temporaries they fragment the heap
    fixed, values = np.empty(0, dtype=int), np.empty(0)
    if u_dirichlet is not None:
        # essential data: fix boundary dofs to u_D(mid E), move their columns
        fixed, values = mesh.boundary_edges, _boundary_values(mesh, u_dirichlet)
    is_free = np.ones(ne, dtype=bool)
    is_free[fixed] = False
    free = mesh.edge_order[is_free[mesh.edge_order]]

    diff = _diffusion(area, pw.a_h, grad_psi)
    conv = np.einsum("t,td,tid->ti", conv_weight * area / 3.0, pw.b_h, grad_psi)
    te = mesh.triangle_edges
    rows, cols, vals = _cr_triplets(te, diff + conv[:, :, None] + react)
    matrix = _compress(rows, cols, vals, (ne, ne))
    rhs = np.zeros(ne)
    np.add.at(rhs, te.ravel(), local_rhs.ravel())
    return SparseSystem(
        matrix=matrix[np.ix_(free, free)],
        rhs=rhs[free] - matrix[np.ix_(free, fixed)] @ values,
        ndofs=ne,
        free=free,
        fixed=fixed,
        fixed_values=values,
    )


def _boundary_values(mesh, u_dirichlet):
    """u_D at the boundary-edge midpoints, in ``mesh.boundary_edges`` order."""
    mid = mesh.edge_mid[mesh.boundary_edges]
    return np.asarray(u_dirichlet(mid[:, 0], mid[:, 1]), dtype=float).ravel()


def assemble_ncfem(mesh, pw_or_field, u_dirichlet=None):
    """Nonconforming system for a_NC(u, v) = (f_h, v) over all edge dofs.

    Coefficients enter through their centroid values (the piecewise data);
    the remaining polynomial integrals are exact. With ``u_dirichlet``
    given, boundary dofs are fixed to u_D(mid E) and eliminated.
    """
    pw = _coerce_pw(mesh, pw_or_field)
    area = mesh.area
    react = (
        (pw.gamma_h * area / 3.0)[:, None, None] * np.eye(3)[None, :, :]
    )
    load = np.repeat((pw.f_h * area / 3.0)[:, None], 3, axis=1)
    return _cr_system(
        mesh, pw, -2.0 * mesh.grad_bary(), 1.0, react, load, u_dirichlet
    )


def s_mean(pw):
    """Element mean of the second-moment form, S_T / |T| (scales like h^2).

    The condensation machinery pairs the S-weighted data against piecewise
    constants in L2, so it is the mean, not the integral, that multiplies
    them; using the raw integral breaks the reconstruction identity by a
    factor |T|.
    """
    return pw.s_t / pw.mesh.area


def condensation_factors(pw):
    """kappa_T = (1 + gamma_h (S_T/|T|) / 4)^(-1), guarded against blow-up."""
    denom = 1.0 + pw.gamma_h * s_mean(pw) / 4.0
    if np.any(np.abs(denom) < 1e-12):
        bad = int(np.argmin(np.abs(denom)))
        raise SingularLocalFactor(
            f"1 + gamma_h S_T/(4|T|) = {denom[bad]:.3e} on triangle {bad};"
            " refine the mesh"
        )
    return 1.0 / denom


def assemble_modified_ncfem(mesh, pw, u_dirichlet=None):
    """Condensed modified nonconforming system.

    The zero-order couplings act on the elementwise mean of the trial
    function (one-point integration semantics), scaled by the condensation
    factor kappa_T; the load carries the matching corrections.
    """
    pw = _coerce_pw(mesh, pw)
    kappa = condensation_factors(pw)
    grad_psi = -2.0 * mesh.grad_bary()
    area = mesh.area
    # (gamma_h kappa Pi0 u, Pi0 v): mean of a CR basis function is 1/3
    react = (pw.gamma_h * kappa * area / 9.0)[:, None, None] * np.ones(
        (1, 3, 3)
    )
    load = pw.f_h * area / 3.0
    correction = kappa * s_mean(pw) / 4.0 * pw.f_h
    local_rhs = (
        load[:, None]
        - np.einsum("t,td,tid->ti", correction * area, pw.b_h, grad_psi)
        - (pw.gamma_h * correction * area / 3.0)[:, None]
    )
    return _cr_system(mesh, pw, grad_psi, kappa, react, local_rhs, u_dirichlet)


def assemble_mixed_direct(mesh, pw, u_dirichlet=None):
    """Saddle-point system of the lowest-order mixed method.

    Dofs: edge fluxes (canonical edge index), then triangle scalars, with
    block structure [[M, W - B^T], [B, C]]: the flux mass matrix M
    (edge-midpoint rule, exact), the convection coupling W, the divergence
    block B and C = diag(gamma_h |T|). Rows and columns are numbered in
    ``mesh.saddle_order``, the order of elimination.
    """
    pw = _coerce_pw(mesh, pw)
    ne, nt = mesh.num_edges, mesh.num_triangles
    n = ne + nt
    # dofs numbered first (see _cr_system); dof d is row position[d]
    position = np.empty(n, dtype=np.int64)
    position[mesh.saddle_order] = np.arange(n)
    te, tri = position[mesh.triangle_edges], position[ne:]
    pv = mesh.triangle_vertices()
    sig = mesh.triangle_edge_signs.astype(float)
    scale = sig * mesh.edge_length[mesh.triangle_edges] / (
        2.0 * mesh.area[:, None]
    )  # (T, 3) coefficient of (x - P_k) in the signed local basis

    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))  # edge midpoints, (T, 3, 2)
    # basis values at the quadrature (edge mid) points: (T, k_basis, q, 2)
    vals = scale[:, :, None, None] * (mids[:, None, :, :] - pv[:, :, None, :])
    # einsum("tde,tkqe->tkqd", a_h_inv, vals) up to the sign of zero
    # entries, which the mass sum (onto +0.0, like einsum) cannot see
    a_inv = pw.a_h_inv[:, None, None, :, :]
    a_inv_vals = (
        a_inv[..., 0] * vals[..., 0, None] + a_inv[..., 1] * vals[..., 1, None]
    )
    mass = np.einsum("t,tiqd,tjqd->tij", mesh.area / 3.0, a_inv_vals, vals)

    rows, cols, data = _cr_triplets(te, mass)
    rows = [rows]
    cols = [cols]
    data = [data]

    # divergence of the signed basis is sigma |E| / |T|; (div p, 1)_T = sigma |E|
    div_coef = sig * mesh.edge_length[mesh.triangle_edges]  # (T, 3)
    tri_ids = np.repeat(tri, 3)
    rows.append(tri_ids)
    cols.append(te.ravel())
    data.append(div_coef.ravel())

    # (u b*_h, q)_T - (div q, u)_T couples each triangle dof to its edges
    w = np.einsum(
        "t,td,tkd->tk",
        mesh.area,
        pw.b_star_h,
        mesh.centroid[:, None, :] - pv,
    ) * scale
    rows.append(te.ravel())
    cols.append(tri_ids)
    data.append((w - div_coef).ravel())

    rows.append(tri)
    cols.append(tri)
    data.append(pw.gamma_h * mesh.area)

    matrix = _compress(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data), (n, n)
    )
    rhs = np.zeros(n)
    rhs[tri] = pw.f_h * mesh.area
    if u_dirichlet is not None:
        # natural data -sigma |E| u_D(mid E); T_plus (column 0) has sigma = +1
        bnd = mesh.boundary_edges
        sigma = np.where(mesh.edge_tris[bnd, 0] >= 0, 1.0, -1.0)
        values = _boundary_values(mesh, u_dirichlet)
        rhs[position[bnd]] -= sigma * mesh.edge_length[bnd] * values
    return SparseSystem(matrix, rhs, ndofs=n, free=mesh.saddle_order, kind="mixed")
