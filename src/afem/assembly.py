"""Element matrices and global sparse systems.

Three systems are assembled here, all with centroid (one-point) coefficient
quadrature and exact integration of the polynomial element integrands:

* the nonconforming system  a_NC(u, v) = (f_h, v)  over edge-midpoint dofs;
* its condensed modification whose solution reconstructs the mixed one;
* the direct saddle-point system of the lowest-order mixed method over
  edge-flux dofs (normal component on the canonical edge normal) followed
  by one scalar dof per triangle.

Each assembler takes ``pw = project_p0(field, mesh)``, the piecewise data of
its mesh, which also holds the condensation factor ``pw.kappa``.

Each system is a (T, k, k) block of element matrices over a (T, k) array
of dofs: a triangle's three edges (k = 3), plus its scalar in the
saddle-point system (k = 4). One scatter (:func:`_scatter`) numbers the
dofs in the order of elimination and sums the blocks into CSC form.

Dirichlet data enters by elimination (nonconforming) or through the
natural boundary term of the first mixed equation, approximated with the
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
    local = diff + conv[:, :, None] + react
    return _scatter(ne, mesh.triangle_edges, local, local_rhs, free, fixed, values)


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
    )


def assemble_modified_ncfem(mesh, pw, u_dirichlet=None):
    """Condensed modified nonconforming system.

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
    return _cr_system(mesh, pw, grad_psi, kappa, react, local_rhs, u_dirichlet)


def assemble_mixed_direct(mesh, pw, u_dirichlet=None):
    """Saddle-point system of the lowest-order mixed method.

    Dofs: edge fluxes (canonical edge index), then triangle scalars, with
    block structure [[M, W - B^T], [B, C]]: the flux mass matrix M
    (edge-midpoint rule, exact), the convection coupling W, the divergence
    block B and C = diag(gamma_h |T|). Each triangle contributes a 4 x 4
    element matrix over its three edge fluxes and its scalar. Rows and
    columns are numbered in ``mesh.saddle_order``, the order of elimination.
    """
    _require_mesh(mesh, pw)
    ne, nt = mesh.num_edges, mesh.num_triangles
    free = mesh.saddle_order  # dofs numbered first (see _cr_system)
    te = mesh.triangle_edges
    pv = mesh.triangle_vertices()
    sig = mesh.triangle_edge_signs.astype(float)
    # divergence of the signed basis is sigma |E| / |T|; (div p, 1)_T = sigma |E|
    div_coef = sig * mesh.edge_length[te]  # (T, 3)
    # (T, 3) coefficient of (x - P_k) in the signed local basis
    scale = div_coef / (2.0 * mesh.area[:, None])

    mids = 0.5 * (pv + np.roll(pv, -1, axis=1))  # edge midpoints, (T, 3, 2)
    # basis values at the quadrature (edge mid) points: (T, k_basis, q, 2)
    vals = scale[:, :, None, None] * (mids[:, None, :, :] - pv[:, :, None, :])
    # einsum("tde,tkqe->tkqd", a_h_inv, vals) up to the sign of zero
    # entries, which the mass sum (onto +0.0, like einsum) cannot see
    a_inv = pw.a_h_inv[:, None, None, :, :]
    a_inv_vals = (
        a_inv[..., 0] * vals[..., 0, None] + a_inv[..., 1] * vals[..., 1, None]
    )
    local = np.empty((nt, 4, 4))
    local[:, :3, :3] = np.einsum(
        "t,tiqd,tjqd->tij", mesh.area / 3.0, a_inv_vals, vals
    )
    local[:, 3, :3] = div_coef
    # (u b*_h, q)_T - (div q, u)_T couples each triangle dof to its edges
    w = np.einsum(
        "t,td,tkd->tk",
        mesh.area,
        pw.b_star_h,
        mesh.centroid[:, None, :] - pv,
    ) * scale
    local[:, :3, 3] = w - div_coef
    local[:, 3, 3] = pw.gamma_h * mesh.area

    load = np.zeros((nt, 4))
    load[:, 3] = pw.f_h * mesh.area
    if u_dirichlet is not None:
        # natural data -sigma |E| u_D(mid E) on the boundary edge's one
        # triangle, whose sign on it is sigma
        bnd = mesh.boundary_edges
        flux = np.zeros(ne)
        flux[bnd] = mesh.edge_length[bnd] * _boundary_values(mesh, u_dirichlet)
        load[:, :3] = -sig * flux[te]
    dofs = np.column_stack((te, np.arange(ne, ne + nt)))
    return _scatter(ne + nt, dofs, local, load, free, np.empty(0, dtype=int),
                    np.empty(0), kind="mixed")
