"""Quadrature rules on triangles.

All triangle rules are stored in barycentric coordinates with weights
normalized to sum to one, so that

    integral_T g dx  ~=  |T| * sum_k w_k g(x_k),   x_k = sum_i bary[k,i] P_i.

The edge-midpoint rule (:func:`affine_sq_l2`) is exact for quadratic
polynomials and is the rule used inside element integrals; the 7-point
rule has degree 5 and serves data oscillation and error norms, which share
a level's points and load data through :class:`Degree5Data`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import require_finite

_A1, _B1 = 0.059715871789770, 0.470142064105115
_A2, _B2 = 0.797426985353087, 0.101286507323456
_W1, _W2 = 0.132394152788506, 0.125939180544827

# classical 7-point rule, exact through degree 5
DEGREE5 = (
    np.array(
        [
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [_A1, _B1, _B1],
            [_B1, _A1, _B1],
            [_B1, _B1, _A1],
            [_A2, _B2, _B2],
            [_B2, _A2, _B2],
            [_B2, _B2, _A2],
        ]
    ),
    np.array([0.225, _W1, _W1, _W1, _W2, _W2, _W2]),
)


def affine_sq_l2(areas, value_at_mids):
    """Elementwise int_T |w|^2 for w affine on T, given at the three edge
    midpoints as an (M, 3, d) array; the edge-midpoint rule is exact here."""
    return areas / 3.0 * np.einsum("tqd,tqd->t", value_at_mids, value_at_mids)


def physical_points(verts):
    """Map the degree-5 rule's points onto a batch of triangles.

    verts: (M, 3, 2) vertex coordinates; returns (M, 7, 2), a view of a
    coordinate-major array, so that ``pts[..., d]`` is contiguous. The
    products and their sum order are those of
    ``einsum("qi,mid->mqd", DEGREE5[0], verts)``, bit for bit: einsum adds
    onto +0.0, which differs only for three products -0.0, and the three
    vertices of a triangle never share a coordinate -0.0.
    """
    bary = DEGREE5[0]
    out = np.empty((2, len(verts), len(bary)))
    for d in range(2):
        x = verts[:, :, d, None]
        out[d] = x[:, 0] * bary[:, 0] + x[:, 1] * bary[:, 1] + x[:, 2] * bary[:, 2]
    return out.transpose(1, 2, 0)


@dataclass(frozen=True)
class Degree5Data:
    """The degree-5 points of every triangle of a mesh, one (T, 7) array per
    coordinate, with the load f and the reaction gamma evaluated there and,
    for a problem with an exact solution, u (T, 7) and its flux p (T, 7, 2)
    from the evaluation that gave f."""

    x: np.ndarray
    y: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    u: Optional[np.ndarray] = None
    p: Optional[np.ndarray] = None


def degree5_data(mesh, coeffs, exact=None):
    """Map the degree-5 points onto every triangle of ``mesh`` and evaluate
    the data there, once for all 7T points: gamma from ``coeffs``, and u, p
    and f from one call of ``exact(x, y) -> (u, p, f)`` where an exact
    solution is given, else f from ``coeffs``. A value that is not finite
    raises NonFiniteCoefficient."""
    pts = physical_points(mesh.triangle_vertices())
    x, y = pts[..., 0], pts[..., 1]
    xs, ys = x.ravel(), y.ravel()

    def checked(name, values):
        values = require_finite(name, values, "degree-5 point", per_triangle=x.shape[1])
        return values.reshape(x.shape + values.shape[1:])

    u = p = None
    if exact is None:
        f = coeffs.f(xs, ys)
    else:
        u, p, f = exact(xs, ys)
        u, p = checked("u", u), checked("p", p)
    f = checked("f", f)
    gamma = checked("gamma", coeffs.gamma(xs, ys))
    return Degree5Data(x=x, y=y, f=f, gamma=gamma, u=u, p=p)


def element_sums(vals, areas):
    """The degree-5 rule's element integrals of pointwise values.

    ``vals`` holds (M*Q,) values at the points of M triangles, Q per
    triangle, or (K, M*Q) for K stacked integrands; returns the (M,) or
    (K, M) integrals, each stacked row summed exactly as that row alone
    would be.
    """
    vals = vals.reshape(vals.shape[:-1] + (len(areas), len(DEGREE5[1])))
    return areas * (vals @ DEGREE5[1])


def integrate(fn, verts, areas):
    """Integrate ``fn(x, y)`` over a triangle batch.

    fn receives the M*Q flattened coordinates and evaluates pointwise,
    returning (M*Q,) values or (K, M*Q) for K stacked integrands, which
    :func:`element_sums` weighs.
    """
    pts = physical_points(verts)
    vals = np.asarray(fn(pts[..., 0].ravel(), pts[..., 1].ravel()))
    return element_sums(vals, areas)


def integrate_dyadic(fn, verts, areas, depth):
    """Element integrals with dyadic subdivision toward local vertex 0.

    Each triangle is split through its edge midpoints; the child containing
    vertex 0 is recursed ``depth`` more times while the remaining three
    children use the plain rule; depth 0 is :func:`integrate` itself, and
    stacked integrands are taken as there. Used for integrands with a
    point singularity at vertex 0.
    """
    if depth == 0:
        return integrate(fn, verts, areas)
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
    m01 = 0.5 * (v0 + v1)
    m12 = 0.5 * (v1 + v2)
    m20 = 0.5 * (v2 + v0)
    quarter = 0.25 * areas
    total = 0.0
    for child in (
        np.stack([m01, v1, m12], axis=1),
        np.stack([m20, m12, v2], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ):
        total += integrate(fn, child, quarter)
    corner = np.stack([v0, m01, m20], axis=1)
    return total + integrate_dyadic(fn, corner, quarter, depth - 1)
