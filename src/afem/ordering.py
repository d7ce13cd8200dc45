"""Fill-reducing orderings of the two linear systems, computed from the mesh.

Both systems of a level have one unknown per edge, and the saddle-point
system one more per triangle. Their sparsity follows the mesh, so one
geometric nested dissection of the edges (George 1973, "Nested dissection
of a regular finite element mesh") orders both:

* :func:`nested_dissection` orders the edges, with minimum vertex
  separators taken from the cut neighbour pairs of each geometric split;
  the nonconforming systems number their free edges in it;
* :func:`saddle_order` inserts each triangle's scalar unknown into it so
  that every leading block of the saddle-point matrix stays nonsingular,
  which lets the matrix, assembled in this order, be factored with
  diagonal (static) pivots.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (
    breadth_first_order,
    maximum_bipartite_matching,
    minimum_spanning_tree,
)

ND_LEAF = 16  # subdomains of at most this many edges are not split further


def nested_dissection(mesh):
    """Nested-dissection order of the edges of ``mesh``.

    Two edges are neighbours when they share a triangle. Every subdomain
    (at first all edges) larger than ``ND_LEAF`` is split at the median of
    its edge midpoints, along x and y in turn. The neighbour pairs that the
    split cuts form a bipartite graph between the two halves; a minimum
    vertex cover of it (:func:`_minimum_cover`) is the separator, numbered
    after both halves. This is the edge-to-vertex separator step of METIS
    (Karypis & Kumar 1998); the separator is at most as large as either
    half's set of cut ends, and its size enters the fill quadratically. All
    subdomains of one depth are split in one pass, with one matching and
    one path search for all of them.
    """
    ne = mesh.num_edges
    te = mesh.triangle_edges
    pair_i = np.concatenate([te[:, 0], te[:, 1], te[:, 0]])
    pair_j = np.concatenate([te[:, 1], te[:, 2], te[:, 2]])
    rank = np.empty((2, ne), dtype=np.int64)
    for axis in (0, 1):
        rank[axis, np.argsort(mesh.edge_mid[:, axis], kind="stable")] = np.arange(ne)
    # base-3 digits of the tree path, one per depth: 0 lower half, 1 upper
    # half, 2 separator, whichever half its edges came from; sorting the keys
    # numbers each separator after both of its halves
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
        i, j = pair_i[cut], pair_j[cut]
        low = np.where(side[i] == 0, i, j)
        sep = _minimum_cover(low, i + j - low)
        key[sep] += np.where(side[sep] == 0, 2 * digit, digit)
        dom[sep] = -1
        digit //= 3
        depth += 1
    return np.argsort(key, kind="stable")


def _minimum_cover(low, up):
    """Minimum vertex cover of the bipartite graph with links ``low -> up``.

    König's construction (1931): given a maximum matching, the cover is the
    upper ends that an alternating path from an unmatched lower end reaches,
    and the lower ends that none reaches. Both sides are numbered locally;
    in the path graph, node ``u`` is lower end ``u``, ``nl + v`` upper end
    ``v`` and ``nl + nu`` the source of the paths. Every link leads from
    lower to upper, a matched one also back: a matched lower end is reached
    only from its mate, so its matched link leads nowhere new.
    """
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


def saddle_order(mesh):
    """Order of the saddle-point unknowns: edges ``0..E-1``, triangles ``E + t``.

    The edges keep ``mesh.edge_order``. Eliminating a set of edges and
    triangles leaves a nonsingular leading block when every patch of
    eliminated triangles, connected through eliminated edges, has an
    eliminated edge (an "outlet") to the boundary or to a triangle not yet
    eliminated: otherwise the divergence rows of the patch sum to zero on the
    eliminated edges, and with a zero reaction block the block is singular.

    The dual graph has a node per triangle, one for the boundary, and a link
    per edge weighted by its step in the edge order (a triangle keeps only
    its earliest boundary edge). Its minimum spanning tree (Kruskal 1956)
    is rooted at the boundary, and each triangle goes right after the link
    to its parent. The triangle of a patch nearest the root then has its
    tree edge eliminated, and that edge leads out of the patch: a parent
    inside it would be nearer the root.
    """
    ne, nt = mesh.num_edges, mesh.num_triangles
    step = np.empty(ne, dtype=np.int64)
    step[mesh.edge_order] = np.arange(ne)
    # the two sides of each edge; nt is the boundary
    sides = np.where(mesh.edge_tris >= 0, mesh.edge_tris, nt)
    a, b = sides.min(axis=1), sides.max(axis=1)
    # csr_matrix sums duplicate links: keep a triangle's earliest boundary edge
    bnd = np.flatnonzero(b == nt)
    bnd = bnd[np.argsort(step[bnd])]
    _, first = np.unique(a[bnd], return_index=True)
    keep = np.r_[np.flatnonzero(b < nt), bnd[first]]
    # zero weights are no links to minimum_spanning_tree
    graph = sp.csr_matrix((step[keep] + 1.0, (a[keep], b[keep])), (nt + 1, nt + 1))
    tree = minimum_spanning_tree(graph).tocoo()
    _, parent = breadth_first_order(tree, nt, directed=False, return_predecessors=True)
    child = np.where(parent[tree.row] == tree.col, tree.row, tree.col)
    after = np.empty(nt, dtype=np.int64)
    after[child] = tree.data.astype(np.int64) - 1
    return np.argsort(np.r_[2 * step, 2 * after + 1])
