"""Fill-reducing orderings of the two linear systems, computed from the mesh.

Both systems of a level have one unknown per edge, and the saddle-point
system one more per triangle. Their sparsity follows the mesh, so one
geometric nested dissection of the edges (George 1973, "Nested dissection
of a regular finite element mesh") orders both:

* :func:`nested_dissection` orders the edges; the modified nonconforming
  system takes it restricted to its free edges (:func:`restrict`);
* :func:`saddle_order` inserts each triangle's scalar unknown into it so
  that every leading block of the saddle-point matrix stays nonsingular,
  which lets it be factored with diagonal (static) pivots.
"""

import numpy as np

ND_LEAF = 16  # subdomains of at most this many edges are not split further


def nested_dissection(mesh):
    """Nested-dissection order of the edges of ``mesh``.

    Two edges are neighbours when they share a triangle. Every subdomain
    (at first all edges) larger than ``ND_LEAF`` is split at the median of
    its edge midpoints, along x and y in turn; the upper-half ends of the
    neighbour pairs that the split cuts form a vertex separator, numbered
    after both halves. All subdomains of one depth are split in one pass.
    """
    ne = mesh.num_edges
    te = mesh.triangle_edges
    pair_i = np.concatenate([te[:, 0], te[:, 1], te[:, 0]])
    pair_j = np.concatenate([te[:, 1], te[:, 2], te[:, 2]])
    rank = np.empty((2, ne), dtype=np.int64)
    for axis in (0, 1):
        rank[axis, np.argsort(mesh.edge_mid[:, axis], kind="stable")] = np.arange(ne)
    # base-3 digits of the tree path, one per depth: 0 lower half, 1 upper
    # half, 2 separator; sorting the keys numbers each separator after both
    # of its halves
    key = np.zeros(ne, dtype=np.int64)
    digit = 3**38  # depth 38 would need 2**38 edges
    dom = np.zeros(ne, dtype=np.int64)  # subdomain id, -1 once numbered
    depth = 0
    while True:
        live = np.flatnonzero(dom >= 0)
        if not len(live):
            break
        live = live[np.argsort(dom[live] * ne + rank[depth % 2, live])]
        d = dom[live]
        first = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        size = np.diff(np.r_[first, len(d)])
        size_of = np.repeat(size, size)
        upper = np.arange(len(d)) - np.repeat(first, size) >= size_of // 2
        split = size_of > ND_LEAF
        dom[live] = np.where(split, 2 * d + upper, -1)
        key[live[split & upper]] += digit
        # a pair with one end in each half of a split lies in one subdomain:
        # every pair that spans two subdomains has an end in a separator
        side = np.full(ne, 2, dtype=np.int8)
        side[live[split]] = upper[split]
        cut = side[pair_i] + side[pair_j] == 1
        sep = np.where(side[pair_i[cut]] == 1, pair_i[cut], pair_j[cut])
        key[sep] += digit
        dom[sep] = -1
        digit //= 3
        depth += 1
    return np.argsort(key, kind="stable")


def restrict(order, free):
    """``order`` of all dofs restricted to the ``free`` ones, as positions in
    ``free``."""
    position = np.full(len(order), -1, dtype=np.int64)
    position[free] = np.arange(len(free))
    kept = position[order]
    return kept[kept >= 0]


def saddle_order(mesh):
    """Order of the saddle-point unknowns: edges ``0..E-1``, triangles ``E + t``.

    The edges keep ``mesh.edge_order``. Eliminating a set of edges and
    triangles leaves a nonsingular leading block when every patch of
    eliminated triangles, connected through eliminated edges, has an
    eliminated edge (an "outlet") to the boundary or to a triangle not yet
    eliminated: otherwise the divergence rows of the patch sum to zero on the
    eliminated edges, and with a zero reaction block the block is singular.
    Each triangle goes right after the first of its edges at which
    eliminating it keeps that true; one that fails when its last edge goes
    waits until it passes. Patches are tracked by union-find with an outlet
    count per root, in one sweep over the edges.
    """
    ne, nt = mesh.num_edges, mesh.num_triangles
    edge_order = mesh.edge_order
    step = np.empty(ne, dtype=np.int64)
    step[edge_order] = np.arange(ne)
    # the two sides of each edge in elimination order; nt is the boundary
    sides = np.where(mesh.edge_tris >= 0, mesh.edge_tris, nt)[edge_order]
    t_steps = np.sort(step[mesh.triangle_edges], axis=1)
    t_sides = sides[t_steps]  # (T, 3, 2)
    on_b = t_sides[:, :, 1] == np.arange(nt)[:, None]
    # rank[i, s]: how many edges of side s of step i went before it
    rank = np.zeros((ne, 2), dtype=np.int64)
    rank[t_steps, on_b.astype(np.int64)] = np.arange(3)
    # the side across each triangle's edges, in step order, flat (3T,)
    across = np.where(on_b, t_sides[:, :, 0], t_sides[:, :, 1]).ravel().tolist()

    done = [False] * (nt + 1)  # the boundary is never eliminated
    parent = list(range(nt + 1))
    outlets = [0] * (nt + 1)
    placed = []  # flat (step, triangle) pairs in placement order
    waiting = []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def place(t, k):
        """Eliminate t after its first k edges if its merged patch keeps an
        outlet."""
        total = 0
        touching = {}
        for s in across[3 * t : 3 * t + k]:
            if done[s]:
                r = find(s)
                touching[r] = touching.get(r, 0) + 1
            else:
                total += 1
        for r, m in touching.items():
            total += outlets[r] - m
        if total <= 0:
            return False
        done[t] = True
        for r in touching:
            parent[r] = t
        outlets[t] = total
        return True

    side_a, side_b = sides[:, 0].tolist(), sides[:, 1].tolist()
    rank_a, rank_b = rank[:, 0].tolist(), rank[:, 1].tolist()
    for i in range(ne):
        a, b = side_a[i], side_b[i]
        if done[a]:
            ra = find(a)
            if not done[b]:
                outlets[ra] += 1
            elif ra != (rb := find(b)):
                parent[rb] = ra
                outlets[ra] += outlets[rb]
        elif done[b]:
            outlets[find(b)] += 1
        for t, k in ((a, rank_a[i]), (b, rank_b[i])):
            if t == nt or done[t]:
                continue
            if place(t, k + 1):
                placed += (i, t)
            elif k == 2:
                waiting.append(t)
        if waiting:
            still = []
            for t in waiting:
                if place(t, 3):
                    placed += (i, t)
                else:
                    still.append(t)
            waiting = still
    placed = np.array(placed, dtype=np.int64).reshape(-1, 2)
    after, tri = placed[:, 0], placed[:, 1]
    order = np.empty(ne + nt, dtype=np.int64)
    order[after + 1 + np.arange(nt)] = ne + tri
    order[np.arange(ne) + np.searchsorted(after, np.arange(ne))] = edge_order
    return order
