"""Fill-reducing order of the linear systems, computed from the mesh.

Every system that a level factors has one unknown per interior edge: the
modified nonconforming system and the hybridized saddle-point system. Their
sparsity follows the mesh, so one geometric nested dissection of the edges
(George 1973, "Nested dissection of a regular finite element mesh"),
:func:`nested_dissection`, orders them, with minimum vertex separators
taken from the cut neighbour pairs of each geometric split. Assembled in
this order, the systems are factored with diagonal (static) pivots.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

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
    is_free = np.ones(nl, dtype=bool)
    is_free[mate[matched]] = False
    free = np.flatnonzero(is_free)
    source = nl + nu
    rows = np.concatenate([lo, nl + matched, np.full(len(free), source)])
    cols = np.concatenate([nl + hi, mate[matched], free])
    paths = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), (source + 1, source + 1))
    seen = np.zeros(source + 1, dtype=bool)
    seen[breadth_first_order(paths, source, return_predecessors=False)] = True
    return np.concatenate([lows[~seen[:nl]], ups[seen[nl:source]]])
