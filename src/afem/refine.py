"""Uniform red refinement and adaptive red-green-blue refinement.

The adaptive scheme keeps, next to the published conforming mesh, a
*skeleton* of triangles produced by red refinements only (each similar to
one of the initial triangles). Green and blue bisections exist solely as a
conforming closure of the skeleton against the set of split edges and are
recomputed from scratch after every refinement step. Marking a green or
blue child therefore rolls back to its skeleton parent, which is then
red-refined -- the rule that keeps minimum angles bounded over arbitrarily
many adaptive levels.

Both refinements are array code: edges are int64 keys
(:func:`afem.mesh.edge_key`) kept in sorted arrays and looked up with
``searchsorted``, in the style of Funken, Praetorius and Wissgott,
"Efficient implementation of adaptive P1-FEM in Matlab" (CMAM 2011).
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidMark
from .mesh import build_mesh, edge_key, find_keys, key_vertices


def uniform_red_refine(mesh):
    """Split every triangle into four similar children via edge midpoints."""
    new_vertices = np.vstack([mesh.vertices, mesh.edge_mid])
    mid = mesh.num_vertices + mesh.triangle_edges  # (T, 3) midpoint opposite vertex k
    t = mesh.triangles
    children = np.concatenate(
        [
            np.stack([t[:, 0], mid[:, 2], mid[:, 1]], axis=1),
            np.stack([mid[:, 2], t[:, 1], mid[:, 0]], axis=1),
            np.stack([mid[:, 1], mid[:, 0], t[:, 2]], axis=1),
            np.stack([mid[:, 0], mid[:, 1], mid[:, 2]], axis=1),
        ]
    )
    return build_mesh(new_vertices, children, strict=False)


def _local_edge_keys(tris):
    """(n, 3) keys of the edges opposite local vertices 0, 1, 2."""
    return edge_key(tris[:, [1, 2, 0]], tris[:, [2, 0, 1]])


class _RgbState(NamedTuple):
    """Skeleton connectivity behind a published mesh."""

    skeleton: np.ndarray  # (S, 3) vertex triples (CCW)
    split: np.ndarray  # sorted keys of the split skeleton edges
    split_mid: np.ndarray  # midpoint vertex of each split edge
    parent_of: np.ndarray  # published triangle -> skeleton index


def _fresh_state(mesh):
    empty = np.empty(0, dtype=np.int64)
    return _RgbState(mesh.triangles, empty, empty, np.arange(mesh.num_triangles))


def refined_ndof_bound(mesh, marked=None):
    """Mixed dofs (edges plus triangles) of the mesh that refining ``mesh``
    builds, or a lower bound on them, without building it.

    With ``marked`` None, red refinement of every triangle: E' = 2E + 3T
    edges and T' = 4T triangles, so exactly 2E + 7T. Otherwise
    :func:`rgb_refine` of the ``marked`` triangle indices, whose mesh has at
    least 5/2 (S + 3R) dofs, with S the skeleton size and R the number of
    distinct skeleton parents of the marked set: each of those parents turns
    red and adds three skeleton triangles, every skeleton triangle publishes
    at least one triangle, and E' >= 3T'/2 for any mesh.
    """
    if marked is None:
        return 2 * mesh.num_edges + 7 * mesh.num_triangles
    state = mesh.rgb if mesh.rgb is not None else _fresh_state(mesh)
    red = len(np.unique(state.parent_of[marked]))
    return (5 * (len(state.skeleton) + 3 * red) + 1) // 2


def rgb_refine(mesh, marked):
    """Red-refine the marked triangles and close with green/blue bisections.

    marked is any iterable of published triangle indices. Marked green or
    blue children are first coarsened back to their skeleton parent, which
    is then red-refined. The closure rule is: a skeleton triangle with all
    three edges split becomes red, two split edges give a blue triple, one
    gives a green pair. Iterated until no closure child would carry a
    hanging node.
    """
    if not isinstance(marked, np.ndarray):
        marked = np.fromiter(marked, dtype=np.int64)
    marked = np.unique(marked.astype(np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= mesh.num_triangles):
        raise InvalidMark(f"marked indices must lie in [0, {mesh.num_triangles})")
    if not marked.size:
        return mesh

    state = mesh.rgb if mesh.rgb is not None else _fresh_state(mesh)
    skeleton = state.skeleton
    keys = _local_edge_keys(skeleton)
    # midpoints exist exactly for the edges split before this step; the
    # keys of their two halves are fixed during the closure
    pos = find_keys(state.split, keys)
    has_mid = pos >= 0
    mid = np.full(keys.shape, -1, dtype=np.int64)
    mid[has_mid] = state.split_mid[pos[has_mid]]
    lo, hi = key_vertices(keys)
    halves = (edge_key(lo, mid), edge_key(mid, hi))

    red = np.zeros(len(skeleton), dtype=bool)
    red[state.parent_of[marked]] = True

    # closure to a fixed point: any skeleton triangle whose prospective
    # green/blue child would contain a split half-edge is promoted to red,
    # as is any triangle with all three edges split; the rule is monotone,
    # so promoting every candidate of a sweep at once reaches the same set
    while True:
        split_now = np.union1d(state.split, keys[red])
        present = find_keys(split_now, keys) >= 0
        half_split = has_mid & (
            (find_keys(split_now, halves[0]) >= 0)
            | (find_keys(split_now, halves[1]) >= 0)
        )
        promote = ~red & (
            present.all(axis=1) | (present & half_split).any(axis=1)
        )
        if not promote.any():
            break
        red |= promote

    # new midpoints, numbered by first occurrence over the red triangles in
    # skeleton order, edges (v1, v2), (v2, v0), (v0, v1)
    nv = mesh.num_vertices
    red_mid = mid[red].ravel()
    fresh = red_mid < 0
    fresh_keys, first, inverse = np.unique(
        keys[red].ravel()[fresh], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = nv + np.arange(len(order))
    red_mid[fresh] = number[inverse]
    a, b = key_vertices(fresh_keys[order])
    coords = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
    mid_keys = np.concatenate([state.split, fresh_keys])
    by_key = np.argsort(mid_keys)
    mid_keys = mid_keys[by_key]
    mid_vals = np.concatenate([state.split_mid, number])[by_key]

    # red triangles become their four children in place
    v0, v1, v2 = skeleton[red].T
    m0, m1, m2 = red_mid.reshape(-1, 3).T
    keep = np.flatnonzero(~red)
    new_skeleton = _scatter(
        np.where(red, 4, 1),
        (keep, [skeleton[keep]]),
        (
            np.flatnonzero(red),
            [
                np.stack([v0, m2, m1], axis=1),
                np.stack([m2, v1, m0], axis=1),
                np.stack([m1, m0, v2], axis=1),
                np.stack([m0, m1, m2], axis=1),
            ],
        ),
    )

    # keep the split edges still owned by some skeleton triangle
    keys = _local_edge_keys(new_skeleton)
    splits = find_keys(split_now, keys) >= 0
    new_split = np.unique(keys[splits])
    edge_mid = np.full(keys.shape, -1, dtype=np.int64)
    edge_mid[splits] = mid_vals[find_keys(mid_keys, keys[splits])]

    # close the skeleton: one split edge gives a green pair, two a blue triple
    n = splits.sum(axis=1)
    if np.any(n == 3):  # pragma: no cover - promoted to red above
        raise AssertionError("triply split triangle escaped promotion")
    plain = np.flatnonzero(n == 0)

    gr = np.flatnonzero(n == 1)
    k = np.argmax(splits[gr], axis=1)  # the split edge is opposite vertex k
    v, va, vb = (new_skeleton[gr, (k + j) % 3] for j in range(3))
    m = edge_mid[gr, k]
    green = [np.stack([v, va, m], axis=1), np.stack([v, m, vb], axis=1)]

    bl = np.flatnonzero(n == 2)
    k = np.argmin(splits[bl], axis=1)  # the unsplit edge is opposite vertex k
    vc, va, vb = (new_skeleton[bl, (k + j) % 3] for j in range(3))
    ma = edge_mid[bl, (k + 1) % 3]  # on the edge opposite va
    mb = edge_mid[bl, (k + 2) % 3]  # on the edge opposite vb
    # split the quad (va, vb, ma, mb) along its shorter diagonal
    da = coords[va] - coords[ma]
    db = coords[vb] - coords[mb]
    short_a = np.hypot(da[:, 0], da[:, 1]) <= np.hypot(db[:, 0], db[:, 1])
    blue = [
        np.stack([mb, ma, vc], axis=1),
        np.stack([va, vb, np.where(short_a, ma, mb)], axis=1),
        np.stack([np.where(short_a, va, vb), ma, mb], axis=1),
    ]

    counts = n + 1
    published = _scatter(
        counts, (plain, [new_skeleton[plain]]), (gr, green), (bl, blue)
    )

    state = _RgbState(
        new_skeleton,
        new_split,
        mid_vals[find_keys(mid_keys, new_split)],
        np.repeat(np.arange(len(new_skeleton)), counts),
    )
    return build_mesh(
        coords,
        published,
        strict=False,
        green_flag=np.repeat(n, counts),
        rgb=state,
    )


def _scatter(counts, *groups):
    """Stack the children of all parents, parent by parent.

    ``counts[p]`` is the number of children of parent p; each group is
    ``(parents, children)`` with ``children[j]`` the (len(parents), 3)
    array of every listed parent's child j.
    """
    start = np.cumsum(counts) - counts
    out = np.empty((int(counts.sum()), 3), dtype=np.int64)
    for parents, children in groups:
        for j, child in enumerate(children):
            out[start[parents] + j] = child
    return out
