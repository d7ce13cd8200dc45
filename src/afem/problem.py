"""Problem data: coefficient fields, piecewise projections, benchmarks.

Coefficient callbacks are vectorized: given flat arrays ``x, y`` of length
N they return arrays of shape (N, 2, 2) for the diffusion matrix, (N, 2)
for the convection field and (N,) for scalars. The piecewise-constant
projection realizes the L2 projection by one-point (centroid) quadrature,
which is also how every discrete system evaluates its coefficients, and
gives the condensation factor of the modified nonconforming method. A
problem with a known solution carries it as a callable ``exact(x, y) ->
(u, p, f)``: u, shape (N,), its flux p = -(A grad u + u b), shape (N, 2),
and the load f = div p + gamma u, shape (N,), from one evaluation of the
closed form. The estimator and the error norms take the load from it at
their quadrature points, so it must equal the field's ``f``.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .errors import (
    MeshMismatch,
    NonFiniteCoefficient,
    NotPositiveDefinite,
    SingularLocalFactor,
    UnknownBenchmark,
)
from .mesh import build_mesh, read_mesh_file

# first Dirichlet-Laplace eigenvalue of the L-shaped domain
LSHAPE_LAMBDA_1 = 9.6397238440219

# default reaction sweep magnitudes bracketing LSHAPE_LAMBDA_1
DEFAULT_GAMMA_SWEEP = (8.0, 9.0, 9.5, 9.63, 9.64, 9.7, 10.0, 12.0)


@dataclass(frozen=True)
class CoefficientField:
    """Variable coefficients of -div(A grad u + u b) + gamma u = f."""

    a: Callable
    b: Callable
    gamma: Callable
    f: Callable
    u_dirichlet: Callable


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    field: CoefficientField
    start_mesh: Callable
    exact: Optional[Callable] = None  # exact(x, y) -> (u, p, f)
    singular_point: Optional[tuple] = None


@dataclass(frozen=True)
class PiecewiseData:
    """Per-triangle constants: centroid values of the coefficients plus the
    second-moment functional S_T and the condensation factor it gives."""

    mesh: object
    a_h: np.ndarray       # (T, 2, 2)
    a_h_inv: np.ndarray   # (T, 2, 2)
    b_h: np.ndarray       # (T, 2)
    b_star_h: np.ndarray  # (T, 2), solves A_h b* = b
    gamma_h: np.ndarray   # (T,)
    f_h: np.ndarray       # (T,)
    s_t: np.ndarray       # (T,)

    @property
    def s_mean(self):
        """S_T / |T|, the element mean of the second-moment form (scales like
        h^2): the condensation pairs it with piecewise constants in L2, where
        the raw integral would break the reconstruction identity by |T|."""
        return self.s_t / self.mesh.area

    @cached_property
    def kappa(self):
        """kappa_T = (1 + gamma_h (S_T/|T|) / 4)^(-1), computed on first use,
        which raises :class:`SingularLocalFactor` near blow-up."""
        denom = 1.0 + self.gamma_h * self.s_mean / 4.0
        if np.any(np.abs(denom) < 1e-12):
            bad = int(np.argmin(np.abs(denom)))
            raise SingularLocalFactor(
                f"1 + gamma_h S_T/(4|T|) = {denom[bad]:.3e} on triangle {bad};"
                " refine the mesh"
            )
        return 1.0 / denom


@dataclass(frozen=True)
class Reaction:
    """The reaction ``gamma`` of a field that differs from the one projected
    to ``like``, a :class:`PiecewiseData`, in gamma alone; for it
    :func:`project_p0` projects gamma and shares the rest of ``like``."""

    gamma: Callable
    like: PiecewiseData


def constant_matrix(m):
    m = np.asarray(m, dtype=float)

    def a(x, y):
        return np.broadcast_to(m, (np.size(x), 2, 2))

    return a


def constant_vector(v):
    v = np.asarray(v, dtype=float)

    def b(x, y):
        return np.broadcast_to(v, (np.size(x), 2))

    return b


def constant_scalar(c):
    c = float(c)

    def g(x, y):
        return np.full(np.size(x), c)

    return g


def s_of_t(mesh, a_h_inv):
    """Second-moment functional per triangle, shape (T,).

    Computed with the edge-midpoint rule, which integrates the quadratic
    integrand exactly:  S_T = (|T|/3) sum_k (m_k - c)^T A_h^{-1} (m_k - c).
    """
    mids = mesh.triangle_edge_midpoints() - mesh.centroid[:, None, :]
    return mesh.area / 3.0 * np.einsum("tkd,tde,tke->t", mids, a_h_inv, mids)


def inv_2x2(m):
    """Inverses of a stack of 2x2 matrices by the adjugate formula."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    return np.stack([d, -b, -c, a], axis=-1).reshape(m.shape) / det[..., None, None]


def require_finite(name, values, point, triangles=None, per_triangle=1):
    """``values`` as a float array, one row per point, unless a row is NaN or
    infinite: then :class:`NonFiniteCoefficient` naming the coefficient, the
    kind of ``point`` and its triangle. Row ``i`` lies in triangle ``k = i //
    per_triangle``, or in ``triangles[k]`` where they are given."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=1)
        i = int(np.argmax(bad))
        k = i // per_triangle
        t = k if triangles is None else int(triangles[k])
        shown = " ".join(str(values[i]).split())  # a matrix on one line
        raise NonFiniteCoefficient(f"{name} = {shown} at the {point} of triangle {t}")
    return values


def project_p0(coeffs, mesh):
    """Centroid projection of the coefficient field onto piecewise constants.

    ``coeffs`` is a :class:`CoefficientField`, or a :class:`Reaction` whose
    ``like`` lives on ``mesh``: then only gamma is projected."""
    cx, cy = mesh.centroid[:, 0], mesh.centroid[:, 1]

    def at_centroids(name, fn, shape=(-1,)):
        values = np.asarray(fn(cx, cy), dtype=float).reshape(shape)
        return require_finite(name, values, "centroid")

    if isinstance(coeffs, Reaction):
        if coeffs.like.mesh is not mesh:
            raise MeshMismatch("piecewise data belongs to a different mesh")
        return replace(coeffs.like, gamma_h=at_centroids("gamma", coeffs.gamma))

    # finite before the SPD test: one NaN would poison the symmetry scale
    a_h = at_centroids("A", coeffs.a, (-1, 2, 2))
    asym = np.abs(a_h[:, 0, 1] - a_h[:, 1, 0])
    spd = (
        (a_h[:, 0, 0] > 0)
        & (a_h[:, 0, 0] * a_h[:, 1, 1] - a_h[:, 0, 1] * a_h[:, 1, 0] > 0)
        & (asym <= 1e-12 * np.abs(a_h).max())
    )
    if not np.all(spd):
        bad = int(np.flatnonzero(~spd)[0])
        raise NotPositiveDefinite(
            f"A at centroid of triangle {bad} is not symmetric positive definite"
        )
    a_h_inv = inv_2x2(a_h)
    b_h = at_centroids("b", coeffs.b, (-1, 2))
    gamma_h = at_centroids("gamma", coeffs.gamma)
    f_h = at_centroids("f", coeffs.f)
    b_star_h = np.einsum("tde,te->td", a_h_inv, b_h)
    return PiecewiseData(
        mesh=mesh,
        a_h=a_h,
        a_h_inv=a_h_inv,
        b_h=b_h,
        b_star_h=b_star_h,
        gamma_h=gamma_h,
        f_h=f_h,
        s_t=s_of_t(mesh, a_h_inv),
    )


# -- benchmark domains -------------------------------------------------------


def lshape_start_mesh():
    """(-1,1)^2 minus [0,1]x[-1,0] on the 0.5 grid, diagonals toward origin."""
    coords = np.linspace(-1.0, 1.0, 5)
    index = {}
    verts = []
    for j, y in enumerate(coords):
        for i, x in enumerate(coords):
            if x > 0 and y < 0:
                continue  # inside the removed quadrant
            index[(i, j)] = len(verts)
            verts.append((x, y))
    tris = []
    for j in range(4):
        for i in range(4):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if any(c not in index for c in corners):
                continue
            p00, p10, p11, p01 = (index[c] for c in corners)
            cx = coords[i] + 0.25
            cy = coords[j] + 0.25
            if cx * cy > 0:
                tris.append((p00, p10, p11))
                tris.append((p00, p11, p01))
            else:
                tris.append((p00, p10, p01))
                tris.append((p10, p11, p01))
    return build_mesh(np.array(verts), np.array(tris), strict=False)


def crack_start_mesh():
    """Sixteen-gon approximation of the slit unit disc, read from package data.

    The shipped file is conforming, so it is read without the overlap scan,
    which would import scipy.spatial at start-up.
    """
    ref = resources.files("afem").joinpath("data/crack0.mesh")
    with resources.as_file(ref) as path:
        return read_mesh_file(path, strict=False)


def _polar(x, y):
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta = np.where(theta < 0, theta + 2.0 * np.pi, theta)
    return r, theta


def _lshape_instance():
    two_thirds = 2.0 / 3.0

    def b(x, y):
        return np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=-1)

    def exact(x, y):
        r, t = _polar(x, y)
        s, c = np.sin(two_thirds * t), np.cos(two_thirds * t)
        u = r**two_thirds * s
        rad = two_thirds * r ** (two_thirds - 1.0)
        ur, ut = rad * s, rad * c
        ct, st = np.cos(t), np.sin(t)
        grad_u = np.stack([ur * ct - ut * st, ur * st + ut * ct], axis=-1)
        # u is harmonic; div(u b) = b.grad u + 2u = (2/3)u + 2u by homogeneity
        return u, -(grad_u + u[..., None] * b(x, y)), -20.0 / 3.0 * u

    coeffs = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=b,
        gamma=constant_scalar(-4.0),
        f=lambda x, y: exact(x, y)[2],
        u_dirichlet=lambda x, y: exact(x, y)[0],
    )
    return ProblemInstance(
        name="lshape",
        field=coeffs,
        start_mesh=lshape_start_mesh,
        exact=exact,
        singular_point=(0.0, 0.0),
    )


def _crack_instance():
    def b(x, y):
        return np.stack(
            [np.asarray(x, dtype=float) - 1.0, np.asarray(y, dtype=float) + 1.0],
            axis=-1,
        )

    def exact(x, y):
        r, t = _polar(x, y)
        y = np.asarray(y, dtype=float)
        sqrt_r, s, c = np.sqrt(r), np.sin(0.5 * t), np.cos(0.5 * t)
        u = sqrt_r * s - 0.5 * y**2
        rad = 0.5 / sqrt_r
        ur, ut = rad * s, rad * c
        ct, st = np.cos(t), np.sin(t)
        g = np.stack([ur * ct - ut * st, ur * st + ut * ct - y], axis=-1)
        bxy = b(x, y)
        # -Laplace(u) = 1; gamma = 0, so f = 1 - b.grad u - u div b
        f = 1.0 - np.einsum("...d,...d->...", bxy, g) - 2.0 * u
        return u, -(g + u[..., None] * bxy), f

    coeffs = CoefficientField(
        a=constant_matrix(np.eye(2)),
        b=b,
        gamma=constant_scalar(0.0),
        f=lambda x, y: exact(x, y)[2],
        u_dirichlet=lambda x, y: exact(x, y)[0],
    )
    return ProblemInstance(
        name="crack",
        field=coeffs,
        start_mesh=crack_start_mesh,
        exact=exact,
        singular_point=(0.0, 0.0),
    )


# the eigen sweep's coefficients but gamma, one object for every sweep value,
# so that the histories of a sweep share their reaction-free data by identity
_EIGEN_SWEEP_FIELD = CoefficientField(
    a=constant_matrix(np.eye(2)),
    b=constant_vector((0.0, 0.0)),
    gamma=None,
    f=constant_scalar(1.0),
    u_dirichlet=constant_scalar(0.0),
)


def _eigen_sweep_instance(gamma):
    """L-shape Laplacian with reaction -gamma and unit load.

    The reaction coefficient is the negative of the sweep magnitude: the
    operator -Laplace - gamma is singular exactly when gamma hits a
    Dirichlet-Laplace eigenvalue, so magnitudes near LSHAPE_LAMBDA_1 probe
    the indefinite regime.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise UnknownBenchmark("eigen_sweep needs a finite gamma")
    return ProblemInstance(
        name="eigen_sweep",
        field=replace(_EIGEN_SWEEP_FIELD, gamma=constant_scalar(-gamma)),
        start_mesh=lshape_start_mesh,
        exact=None,
        singular_point=None,
    )


_REGISTRY = {
    "lshape": lambda **kw: _lshape_instance(),
    "crack": lambda **kw: _crack_instance(),
    "eigen_sweep": lambda **kw: _eigen_sweep_instance(
        kw.get("gamma", DEFAULT_GAMMA_SWEEP[0])
    ),
}


def register_problem(name, factory):
    """Plugin point: ``factory(**params) -> ProblemInstance``."""
    _REGISTRY[name] = factory


def benchmark(name, **params):
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownBenchmark(
            f"unknown benchmark {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(**params)

