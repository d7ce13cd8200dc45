"""Triangulations of polygonal (possibly slit) domains.

Conventions
-----------
* triangles are vertex index triples listed counterclockwise;
* local edge k of a triangle is the edge opposite local vertex k;
* the canonical form of an edge is (min index, max index) and its unit
  normal nu_E is the canonical direction rotated 90 degrees
  counterclockwise, so jumps across interior edges are orientation-free;
* slit domains duplicate the vertices along the slit, which keeps every
  boundary edge in exactly one triangle.

A Triangulation is immutable after construction: everything it carries,
including the green/blue flags and the red-green-blue refinement state
that :mod:`afem.refine` keeps behind an adaptively refined mesh, is passed
to the constructor or, like the edge order and the uniform red child,
derived from it once, and refinement always returns a new mesh. The red
child is kept on its parent (:func:`afem.refine.uniform_red_refine`), so
all histories that refine one mesh uniformly walk one hierarchy, and the
edge order of each level is computed once however many histories solve on
it.

An undirected edge (a, b) is identified by one int64 key,
``min(a, b) << 32 | max(a, b)`` (:func:`edge_key`); sorting the keys sorts
the edges lexicographically by (min, max).
"""

import itertools
from functools import cached_property

import numpy as np

from . import ordering
from .errors import DanglingBoundaryTag, HangingNode, NonPositiveArea

# A triangle is degenerate when its signed area is at most DEGENERATE times
# its longest edge squared; a vertex lies on an edge E when its distance to
# E's line is at most ON_LINE |E|. Both scale with the element tested, so a
# mesh keeps its verdicts when it is scaled or moved. Neither goes below the
# rounding of the coordinates, ROUNDING times their magnitude: a smaller
# distance from a line cannot be told from zero there.
DEGENERATE = 1e-14
ON_LINE = 1e-12
ROUNDING = 64 * float(np.finfo(float).eps)

_KEY_BITS = 32  # vertex indices must stay below 2**31 for int64 keys
_KEY_MASK = (1 << _KEY_BITS) - 1


def edge_key(a, b):
    """int64 key of the undirected edges (a, b), elementwise."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return (np.minimum(a, b) << _KEY_BITS) | np.maximum(a, b)


def key_vertices(key):
    """(min, max) vertex indices of edge keys."""
    return key >> _KEY_BITS, key & _KEY_MASK


def find_keys(keys, queries):
    """Index of each query in the sorted unique ``keys``, -1 where absent."""
    if len(keys) == 0:
        return np.full(np.shape(queries), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[pos] == queries, pos, -1)


class Triangulation:
    """Conforming triangle mesh with cached geometry.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise
    edges : (E, 2) int array, canonical orientation (min, max), sorted
    edge_keys : (E,) int64 array, sorted :func:`edge_key` of ``edges``
    triangle_edges : (T, 3) int array, edge opposite local vertex k
    triangle_edge_signs : (T, 3) int array, +1 where the triangle's outward
        normal on that edge coincides with the canonical nu_E
    edge_tris : (E, 2) int array, [T_plus, T_minus] with -1 when absent;
        T_plus is the triangle whose outward normal is nu_E
    boundary_edges : (K,) int array, the edges with one triangle (u = u_D)
    green_flag : (T,) int array, 0 plain, 1 green child, 2 blue child
    rgb : refinement state of :func:`afem.refine.rgb_refine`, or None
    area, h_t, centroid : per-triangle geometry
    edge_length, edge_mid : per-edge geometry
    edge_order : (E,) int array, :func:`afem.ordering.nested_dissection`
    """

    def __init__(self, vertices, triangles, green_flag=None, rgb=None):
        # own copies: every array is frozen at the end of construction
        self.vertices = np.array(vertices, dtype=float, order="C")
        self.triangles = np.array(triangles, dtype=np.int64, order="C")
        t = self.triangles
        v = self.vertices

        # signed areas; reject clockwise or degenerate triangles
        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        d1 = p1 - p0
        d2 = p2 - p0
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        longest = np.max([np.hypot(*d.T) for d in (d1, d2, p2 - p1)], axis=0)
        # area DEGENERATE |E|^2, or a height over E within the rounding
        tol = longest * np.maximum(
            DEGENERATE * longest, 0.5 * ROUNDING * np.abs(p0).max(axis=1)
        )
        if np.any(signed <= tol):
            bad = int(np.argmin(signed - tol))
            raise NonPositiveArea(
                f"triangle {bad} has signed area {signed[bad]:.3e}"
            )
        self.area = signed

        # unique edges; local edge k is opposite local vertex k
        start = t[:, [1, 2, 0]]  # traversal order: (v1, v2), (v2, v0), (v0, v1)
        end = t[:, [2, 0, 1]]
        self.edge_keys, inverse, counts = np.unique(
            edge_key(start, end).ravel(), return_inverse=True, return_counts=True
        )
        self.edges = np.stack(key_vertices(self.edge_keys), axis=1)
        if np.any(counts > 2):
            bad = int(np.argmax(counts))
            raise HangingNode(
                f"edge {_pair(self.edges[bad])} belongs to {counts[bad]} triangles"
            )
        self.triangle_edges = inverse.reshape(-1, 3)
        # +1 iff the triangle traverses the edge from higher to lower index
        self.triangle_edge_signs = np.where(start > end, 1, -1).astype(np.int64)

        self.edge_tris = np.full((len(self.edges), 2), -1, dtype=np.int64)
        tri_ids = np.repeat(np.arange(len(t)), 3)
        side = np.where(self.triangle_edge_signs.ravel() > 0, 0, 1)
        self.edge_tris[inverse, side] = tri_ids
        # two triangles on one edge must traverse it in opposite directions;
        # a missing side here means overlapping (same-orientation) triangles
        one_sided = (counts == 2) & (
            (self.edge_tris[:, 0] < 0) | (self.edge_tris[:, 1] < 0)
        )
        if np.any(one_sided):
            bad = int(np.argmax(one_sided))
            raise HangingNode(
                f"edge {_pair(self.edges[bad])} is traversed twice in the"
                " same direction (overlapping triangles)"
            )

        self.boundary_edges = np.flatnonzero(counts == 1)

        self.green_flag = (
            np.zeros(len(t), dtype=np.int64)
            if green_flag is None
            else np.array(green_flag, dtype=np.int64)
        )
        self.rgb = rgb

        # geometry cache
        self.centroid = (p0 + p1 + p2) / 3.0  # bitwise v[t].mean(axis=1)
        self._triangle_vertices = np.stack((p0, p1, p2), axis=1)  # v[t]
        self._grad_bary = _grad_bary(self._triangle_vertices, signed)
        ev = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_length = np.hypot(ev[:, 0], ev[:, 1])
        self.edge_mid = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])
        te = self.edge_length[self.triangle_edges]
        self.h_t = np.maximum(np.maximum(te[:, 0], te[:, 1]), te[:, 2])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def interior_edges(self):
        return np.flatnonzero((self.edge_tris >= 0).all(axis=1))

    @cached_property
    def edge_order(self):
        """Nested-dissection order of the edges, computed on first use; both
        sparse factorizations of a level share it."""
        order = ordering.nested_dissection(self)
        order.flags.writeable = False
        return order

    @property
    def ndof_mixed(self):
        """Unknowns of the mixed system: all edge fluxes plus all triangles."""
        return self.num_edges + self.num_triangles

    def triangle_vertices(self):
        """Vertex coordinates per triangle, shape (T, 3, 2), read-only."""
        return self._triangle_vertices

    def grad_bary(self):
        """Gradients of the barycentric coordinate functions, shape (T, 3, 2),
        read-only."""
        return self._grad_bary

    def min_angle(self):
        """Smallest interior angle over all triangles, in radians."""
        pv = self.triangle_vertices()
        worst = np.inf
        for k in range(3):
            a = pv[:, (k + 1) % 3] - pv[:, k]
            b = pv[:, (k + 2) % 3] - pv[:, k]
            cosang = np.einsum("ij,ij->i", a, b) / (
                np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
            )
            worst = min(worst, np.arccos(np.clip(cosang, -1.0, 1.0)).min())
        return float(worst)


def _grad_bary(pv, area):
    """grad lambda_k = rot_{-90}(P_{k+1} - P_{k+2}) / (2|T|), indices cyclic."""
    out = np.empty_like(pv)
    for k in range(3):
        d = pv[:, (k + 1) % 3] - pv[:, (k + 2) % 3]
        out[:, k, 0] = d[:, 1]
        out[:, k, 1] = -d[:, 0]
    return out / (2.0 * area)[:, None, None]


def _pair(edge):
    return (int(edge[0]), int(edge[1]))


def build_mesh(vertices, triangles, strict=True, green_flag=None, rgb=None):
    """Assemble and validate a :class:`Triangulation`.

    strict rejects vertices that no triangle uses and runs the
    vertex-on-edge overlap scan; the refinements and the two start meshes,
    conforming by construction, turn it off.

    green_flag and rgb are the refinement state that
    :func:`afem.refine.rgb_refine` hands to the new mesh.
    """
    tri_arr = np.asarray(triangles, dtype=np.int64)
    nv = len(np.asarray(vertices))
    if not np.isfinite(vertices).all():
        raise ValueError("vertex coordinates must be finite numbers")
    if nv >= 1 << (_KEY_BITS - 1):
        raise ValueError(f"{nv} vertices exceed the edge-key range")
    if not tri_arr.size:
        raise ValueError("a mesh needs at least one triangle")
    if tri_arr.min() < 0 or tri_arr.max() >= nv:
        bad = tri_arr[(tri_arr < 0) | (tri_arr >= nv)][0]
        raise ValueError(
            f"triangle references vertex {int(bad)} but only {nv} vertices given"
        )
    if strict:
        unused = np.bincount(tri_arr.ravel(), minlength=nv) == 0
        if unused.any():
            raise ValueError(
                f"vertex {int(np.argmax(unused))} belongs to no triangle"
            )
    mesh = Triangulation(vertices, tri_arr, green_flag, rgb)
    if strict:
        _scan_for_hanging_nodes(mesh)
    return mesh


def _slit_vertices(mesh):
    """Mask of the vertices on the two sides of a slit: pairs with the same
    coordinates (to 12 digits) that no edge joins and that both lie on the
    boundary."""
    rounded = np.round(mesh.vertices, 12)
    _, group, size = np.unique(
        rounded, axis=0, return_inverse=True, return_counts=True
    )
    paired = np.flatnonzero(size[group] == 2)
    a, b = paired[np.argsort(group[paired], kind="stable")].reshape(-1, 2).T
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[mesh.edges[mesh.boundary_edges]] = True
    slit = (
        (find_keys(mesh.edge_keys, edge_key(a, b)) < 0)
        & on_boundary[a]
        & on_boundary[b]
    )
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[a[slit]] = mask[b[slit]] = True
    return mask


def _scan_for_hanging_nodes(mesh):
    """Flag vertices lying strictly inside an edge (partial overlap).

    Every vertex but the slit pairs (:func:`_slit_vertices`) is tested
    against every edge it could lie on: those whose midpoint ball, widened
    by the collinearity tolerance, contains it. A slit vertex is left out
    because its twin, a rounding away, could pass for an inner point of the
    edges ending at the twin. A hit across a slit (:func:`_across_slit`)
    is no hanging node either.
    """
    v = mesh.vertices
    slit = _slit_vertices(mesh)
    scanned = np.flatnonzero(~slit)
    # imported here, so that the unscanned start meshes skip it
    from scipy.spatial import cKDTree

    dist = _on_line_distance(mesh)
    # |p - mid E| <= |E|/2 + dist(p, line E) for p projecting inside E;
    # the relative slack covers the rounding of the tree's distances
    radius = (0.5 + 1e-9) * mesh.edge_length + dist
    near = cKDTree(v[scanned]).query_ball_point(mesh.edge_mid, radius)
    edge = np.repeat(np.arange(len(near)), [len(hits) for hits in near])
    vert = scanned[
        np.fromiter(itertools.chain.from_iterable(near), np.int64, len(edge))
    ]
    a = v[mesh.edges[edge, 0]]
    ab = v[mesh.edges[edge, 1]] - a
    ap = v[vert] - a
    t = np.einsum("ij,ij->i", ap, ab) / np.einsum("ij,ij->i", ab, ab)
    cross = np.abs(ap[:, 0] * ab[:, 1] - ap[:, 1] * ab[:, 0])
    tol = dist[edge] * mesh.edge_length[edge]  # cross = dist(p, line E) |E|
    on_edge = (cross <= tol) & (t > 1e-12) & (t < 1 - 1e-12)
    vert, edge = vert[on_edge], edge[on_edge]
    hanging = ~_across_slit(mesh, slit, vert, edge, tol[on_edge])
    if np.any(hanging):
        k, e = min(zip(vert[hanging].tolist(), edge[hanging].tolist()))
        raise HangingNode(f"vertex {k} lies inside edge {_pair(mesh.edges[e])}")


def _on_line_distance(mesh):
    """Per edge E: the largest distance from E's line at which a point lies
    on it, ON_LINE |E|, but no less than the rounding of E's coordinates."""
    return np.maximum(
        ON_LINE * mesh.edge_length, ROUNDING * np.abs(mesh.edge_mid).max(axis=1)
    )


def _across_slit(mesh, slit, vert, edge, tol):
    """Which hits (vert[i] strictly inside edge[i]) lie across a slit;
    ``tol[i]`` bounds :func:`_side` on the line of edge[i].

    Refining one side of a slit and not the other leaves a vertex of the
    finer side inside a boundary edge of the coarser side, although the
    mesh is conforming. Locally that is a hanging node whose edge has lost
    its triangle on the vertex's side; only the slit's twins tell the two
    apart. A hit lies across a slit if the edge is a boundary edge, every
    triangle at the vertex lies in the closed half-plane of the edge's line
    away from the edge's own triangle (none of them overlaps it), and the
    boundary edges along that line on the vertex's side reach one end of
    the edge at the end's slit twin: the vertex's side is the other side.
    """
    across = np.zeros(len(vert), dtype=bool)
    ends = mesh.edges[edge]
    # a boundary edge across a slit ends at a slit pair
    cand = np.flatnonzero(
        (mesh.edge_tris[edge] < 0).any(axis=1) & slit[ends].any(axis=1)
    )
    if not len(cand):
        return across
    v = mesh.vertices
    rounded = np.round(v, 12)  # the coordinates that pair slit twins
    touching = mesh.triangles[np.isin(mesh.triangles, vert[cand]).any(axis=1)]
    bnd = mesh.edges[mesh.boundary_edges]
    bnd_side = mesh.centroid[mesh.edge_tris[mesh.boundary_edges].max(axis=1)]
    for i in cand:
        a, b = v[ends[i]]
        own = np.sign(_side(a, b, mesh.centroid[mesh.edge_tris[edge[i]].max()]))
        at_vertex = touching[(touching == vert[i]).any(axis=1)]
        if np.any(own * _side(a, b, v[at_vertex]) > tol[i]):
            continue  # a triangle at the vertex overlaps the edge's triangle
        along = (np.abs(_side(a, b, v[bnd])) <= tol[i]).all(axis=1) & (
            own * _side(a, b, bnd_side) < 0
        )
        reach = np.unique(bnd[along])
        at_end = (rounded[reach][:, None] == rounded[ends[i]]).all(axis=2)
        twins = reach[at_end.any(axis=1) & ~np.isin(reach, ends[i])]
        across[i] = slit[twins].any()
    return across


def _side(a, b, p):
    """Cross product (b - a) x (p - a): positive left of the line a -> b."""
    ab = b - a
    return ab[0] * (p[..., 1] - a[1]) - ab[1] * (p[..., 0] - a[0])


# -- plain-text mesh files -------------------------------------------------


def write_mesh_file(mesh, path):
    """Write the plain-text mesh format.

    Header ``vertices N / triangles M / boundary K`` followed by N vertex
    lines ``x y``, M triangle lines ``i j k`` and K boundary lines
    ``i j tag`` (0-based indices, tag 0, ``#`` comments).
    """
    lines = [
        f"vertices {mesh.num_vertices} / triangles {mesh.num_triangles}"
        f" / boundary {len(mesh.boundary_edges)}"
    ]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for i, j in mesh.edges[mesh.boundary_edges]:
        lines.append(f"{i} {j} 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh_file(path, strict=True):
    """Read the plain-text mesh format written by :func:`write_mesh_file`.

    Boundary lines must name boundary edges, in either orientation, or
    :class:`DanglingBoundaryTag` is raised; their tags are dropped.
    ``strict`` is passed on to :func:`build_mesh`.
    """
    with open(path) as fh:
        text = fh.read()
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].replace("/", " ")
        tokens.extend(line.split())
    pos = 0

    def expect(word):
        nonlocal pos
        if pos + 1 >= len(tokens) or tokens[pos] != word:
            raise ValueError(f"mesh file: expected '{word} <count>' in header")
        pos += 1
        val = int(tokens[pos])
        pos += 1
        return val

    nv = expect("vertices")
    nt = expect("triangles")
    nb = expect("boundary")
    need = 2 * nv + 3 * nt + 3 * nb
    if len(tokens) - pos != need:
        raise ValueError(
            f"mesh file: expected {need} data tokens, found {len(tokens) - pos}"
        )
    data = tokens[pos:]
    verts = np.array(data[: 2 * nv], dtype=float).reshape(nv, 2)
    ofs = 2 * nv
    tris = np.array(data[ofs : ofs + 3 * nt], dtype=int).reshape(nt, 3)
    ofs += 3 * nt
    bnd = np.array(data[ofs:], dtype=int).reshape(nb, 3)
    mesh = build_mesh(verts, tris, strict=strict)
    keys = edge_key(bnd[:, 0], bnd[:, 1])
    dangling = find_keys(mesh.edge_keys[mesh.boundary_edges], keys) < 0
    dangling |= (bnd[:, :2] >= nv).any(axis=1)  # would alias another key
    if dangling.any():
        i, j = bnd[np.argmax(dangling), :2]
        raise DanglingBoundaryTag(f"tagged edge ({i}, {j}) is not a boundary edge")
    return mesh
