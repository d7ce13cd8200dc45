import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import afem
from afem.errors import DanglingBoundaryTag, HangingNode, InvalidMark, NonPositiveArea
from afem.mesh import _slit_vertices, build_mesh, read_mesh_file, write_mesh_file
from afem.problem import crack_start_mesh, lshape_start_mesh
from afem.refine import rgb_refine, uniform_red_refine
from oracles import red_split_without_closure, vertices_inside_edges

REF = (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def check_invariants(mesh, polygon_area=None):
    counts = np.zeros(mesh.num_edges, dtype=int)
    for row in mesh.triangle_edges:
        counts[row] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(np.flatnonzero(counts == 1), np.sort(mesh.boundary_edges))
    assert np.all(mesh.area > 0)
    if polygon_area is not None:
        assert abs(mesh.area.sum() - polygon_area) <= 1e-12 * polygon_area


def test_reference_triangle():
    mesh = build_mesh(*REF)
    assert mesh.num_triangles == 1
    assert mesh.num_edges == 3
    assert len(mesh.boundary_edges) == 3
    assert mesh.area[0] == pytest.approx(0.5, abs=1e-15)
    check_invariants(mesh, polygon_area=0.5)


def test_lshape_counts_match_derived_values():
    mesh = lshape_start_mesh()
    assert mesh.num_vertices == 21
    assert mesh.num_edges == 44
    assert mesh.num_triangles == 24
    assert mesh.ndof_mixed == 68
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1
    check_invariants(mesh, polygon_area=3.0)


def test_shared_edge_deduplicated_with_consistent_normal():
    verts, tris = SQUARE
    # list the shared edge in opposite orders in the two triangles
    mesh = build_mesh(verts, np.array([[0, 1, 2], [2, 3, 0]]))
    inner = mesh.interior_edges
    assert len(inner) == 1
    e = inner[0]
    assert mesh.edge_tris[e, 0] >= 0 and mesh.edge_tris[e, 1] >= 0
    # the two triangles see opposite signs of the one canonical normal
    signs = []
    for t in mesh.edge_tris[e]:
        k = list(mesh.triangle_edges[t]).index(e)
        signs.append(mesh.triangle_edge_signs[t, k])
    assert sorted(signs) == [-1, 1]


def test_clockwise_triangle_rejected():
    with pytest.raises(NonPositiveArea):
        build_mesh(REF[0], np.array([[0, 2, 1]]))


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_sliver_rejected_at_every_scale(scale):
    # area 5e-16 scale^2, below the tolerance 1e-14 max|v|^2 at any size
    verts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]])
    with pytest.raises(NonPositiveArea):
        build_mesh(verts, np.array([[0, 1, 2]]))


def test_overused_edge_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])
    with pytest.raises(HangingNode):
        build_mesh(verts, tris)


def test_vertex_inside_edge_rejected():
    verts = np.array(
        [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, -1.0], [2.0, -1.0]]
    )
    # vertex 3 sits halfway along edge (0, 1) of the top triangle
    tris = np.array([[0, 1, 2], [0, 4, 3], [3, 4, 5], [3, 5, 1]])
    with pytest.raises(HangingNode):
        build_mesh(verts, tris)


SPLITS = [(0, 0), (1, 5), (2, 40), (2, 97)]


@pytest.mark.parametrize(
    "level, pick, scale",
    [(*split, 1.0) for split in SPLITS] + [(*split, 1e-6) for split in SPLITS],
    ids=[f"{a}-{b}" for a, b in SPLITS] + [f"{a}-{b}-1e-06" for a, b in SPLITS],
)
def test_hanging_node_scan_matches_all_pairs_oracle(level, pick, scale):
    # the scan reports the smallest (vertex, edge) pair that the all-pairs
    # oracle finds; on the closed meshes both find none. The tolerances
    # scale with the mesh: a mesh below unit size is no degenerate one
    mesh = lshape_start_mesh()
    for _ in range(level):
        mesh = uniform_red_refine(mesh)
    build_mesh(scale * mesh.vertices, mesh.triangles)
    assert vertices_inside_edges(scale * mesh.vertices, mesh.edges) == []
    verts, tris = red_split_without_closure(mesh, pick)
    verts = scale * verts
    loose = build_mesh(verts, tris, strict=False)
    hits = vertices_inside_edges(loose.vertices, loose.edges)
    assert hits
    k, e = hits[0]
    i, j = (int(x) for x in loose.edges[e])
    with pytest.raises(HangingNode, match=rf"^vertex {k} lies inside edge \({i}, {j}\)$"):
        build_mesh(verts, tris)


@pytest.mark.parametrize("s", [0.01, 0.25, 0.999])
def test_vertex_off_midpoint_inside_edge_rejected(s):
    # vertex 3 sits at the fraction s of edge (0, 1) of the top triangle
    verts = np.array(
        [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [2.0 * s, 0.0], [0.0, -1.0], [2.0, -1.0]]
    )
    tris = np.array([[0, 1, 2], [0, 4, 3], [3, 4, 5], [3, 5, 1]])
    assert vertices_inside_edges(verts, build_mesh(verts, tris, strict=False).edges)
    with pytest.raises(HangingNode, match=r"^vertex 3 lies inside edge \(0, 1\)$"):
        build_mesh(verts, tris)


def test_start_meshes_do_not_import_the_scan_tree():
    # the overlap scan imports scipy.spatial only for meshes it scans, and
    # neither start mesh is scanned
    code = (
        "import sys, afem; afem.lshape_start_mesh(); afem.crack_start_mesh();"
        " print('scipy.spatial' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(afem.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_unused_vertex_rejected():
    verts, tris = SQUARE
    with pytest.raises(ValueError, match=r"^vertex 4 belongs to no triangle$"):
        build_mesh(np.vstack([verts, [[0.5, 0.5]]]), tris)
    build_mesh(np.vstack([verts, [[0.5, 0.5]]]), tris, strict=False)


def test_slit_pairs_are_the_doubled_slit_vertices():
    mesh = crack_start_mesh()
    slit = mesh.vertices[_slit_vertices(mesh)]
    assert sorted(map(tuple, slit.tolist())) == [(0.5, 0.0)] * 2 + [(1.0, 0.0)] * 2
    build_mesh(mesh.vertices, mesh.triangles)  # scanned, and conforming
    # a copy of vertex 0 (the slit tip) that no triangle uses is no slit
    # pair: neither it nor vertex 0 is left out of the scan
    copy = np.vstack([mesh.vertices, mesh.vertices[:1]])
    mask = _slit_vertices(build_mesh(copy, mesh.triangles, strict=False))
    assert not mask[0] and not mask[-1] and mask.sum() == 4


def test_hanging_node_in_slit_mesh_rejected():
    mesh = uniform_red_refine(uniform_red_refine(crack_start_mesh()))
    build_mesh(mesh.vertices, mesh.triangles)
    interior = np.flatnonzero(
        np.isin(mesh.triangle_edges, mesh.interior_edges).all(axis=1)
    )
    verts, tris = red_split_without_closure(mesh, interior[0])
    assert _slit_vertices(build_mesh(verts, tris, strict=False)).sum() == 16
    with pytest.raises(HangingNode, match="lies inside edge"):
        build_mesh(verts, tris)


def one_sided_slit_mesh():
    """The slit disc with only the triangles above the slit refined near
    the tip: (0.125, 0), (0.25, 0) and (0.375, 0) have no twin below."""
    mesh = crack_start_mesh()
    for _ in range(2):
        c = mesh.centroid
        mesh = rgb_refine(mesh, np.flatnonzero((c[:, 1] > 0) & (np.hypot(*c.T) < 0.6)))
    return mesh


def test_one_sided_slit_refinement_roundtrips(tmp_path):
    mesh = one_sided_slit_mesh()
    on_slit = mesh.vertices[(mesh.vertices[:, 1] == 0) & (mesh.vertices[:, 0] > 0)]
    xs, counts = np.unique(on_slit[:, 0], return_counts=True)
    assert dict(zip(xs.tolist(), counts.tolist())) == {
        0.125: 1, 0.25: 1, 0.375: 1, 0.5: 2, 1.0: 2,
    }
    path = tmp_path / "one_sided.mesh"
    write_mesh_file(mesh, path)
    back = read_mesh_file(path)  # scanned: each untwinned vertex lies
    # inside the lower boundary edge from the tip to (0.5, 0)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertices, mesh.vertices)


def test_overlap_across_slit_rejected():
    # a triangle at the untwinned (0.25, 0) that reaches below the slit
    # overlaps the lower side: its vertex is a hanging node again
    mesh = one_sided_slit_mesh()
    v = mesh.vertices
    (k,) = np.flatnonzero((v[:, 0] == 0.25) & (v[:, 1] == 0))
    (a,) = np.flatnonzero(np.isclose(v, [0.0, -0.5]).all(axis=1))
    (b,) = np.flatnonzero(np.isclose(v, [0.5**1.5, -(0.5**1.5)]).all(axis=1))
    tris = np.vstack([mesh.triangles, [[k, a, b]]])
    with pytest.raises(HangingNode, match=rf"^vertex {k} lies inside edge \(0, "):
        build_mesh(v, tris)


def test_hanging_node_at_slit_pair_rejected():
    # red-split an upper triangle on the slit without closing it: the
    # midpoint of its slit edge lies across the slit, as in a one-sided
    # refinement, but its other two edges end at slit pairs and leave
    # hanging nodes all the same
    mesh = uniform_red_refine(crack_start_mesh())
    slit = _slit_vertices(mesh)
    on_slit = slit[mesh.triangles].sum(axis=1) == 2
    (t,) = np.flatnonzero(on_slit & (mesh.centroid[:, 1] > 0))[:1]
    verts, tris = red_split_without_closure(mesh, t)
    with pytest.raises(HangingNode, match="lies inside edge"):
        build_mesh(verts, tris)


def test_non_matching_interface_without_slit_rejected():
    # the left half of the square has one edge on x = 0.5, the right half
    # two: the triangles on both sides of (0.5, 0.5) do not overlap, but
    # the edge ends at no slit pair, so the vertex is a hanging node
    verts = np.array(
        [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1], [0, 1], [0.5, 0.5]]
    )
    tris = np.array([[0, 1, 4], [0, 4, 5], [1, 2, 6], [2, 3, 6], [3, 4, 6]])
    with pytest.raises(HangingNode, match=r"^vertex 6 lies inside edge \(1, 4\)$"):
        build_mesh(verts, tris)


def test_overlapping_triangles_rejected():
    # two CCW triangles covering the same region traverse the shared edge
    # in the same direction
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(HangingNode):
        build_mesh(verts, tris, strict=False)


def _square_file(tmp_path, boundary_lines):
    verts, tris = SQUARE
    lines = [f"vertices 4 / triangles 2 / boundary {len(boundary_lines)}"]
    lines += [f"{x} {y}" for x, y in verts]
    lines += [f"{i} {j} {k}" for i, j, k in tris]
    path = tmp_path / "square.mesh"
    path.write_text("\n".join(lines + boundary_lines) + "\n")
    return path


def test_dangling_boundary_tag(tmp_path):
    # every boundary edge, reversed and shuffled, with arbitrary tags
    path = _square_file(tmp_path, ["0 3 4", "2 1 0", "3 2 9", "1 0 -2"])
    mesh = read_mesh_file(path)
    assert mesh.edges[mesh.interior_edges].tolist() == [[0, 2]]
    # the diagonal is interior; (1, 2**32 + 2) has the edge key of (1, 2)
    for line in ["0 2 7", "1 4294967298 0"]:
        with pytest.raises(DanglingBoundaryTag, match="is not a boundary edge"):
            read_mesh_file(_square_file(tmp_path, ["0 1 0", line]))


def test_h_t_is_longest_edge():
    mesh = build_mesh(*REF)
    assert mesh.h_t[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_uniform_refine_counts():
    mesh = build_mesh(*REF)
    fine = uniform_red_refine(mesh)
    assert fine.num_triangles == 4
    assert fine.num_edges == 9
    check_invariants(fine, polygon_area=0.5)


def test_uniform_refine_lshape_dof_sequence():
    mesh = lshape_start_mesh()
    seq = []
    for _ in range(3):
        seq.append(mesh.ndof_mixed)
        v, e, t = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        mesh = uniform_red_refine(mesh)
        assert mesh.num_vertices == v + e
        assert mesh.num_edges == 2 * e + 3 * t
        assert mesh.num_triangles == 4 * t
    seq.append(mesh.ndof_mixed)
    assert seq == [68, 256, 992, 3904]
    check_invariants(mesh, polygon_area=3.0)


def test_area_conserved_across_refinements():
    mesh = crack_start_mesh()
    total = mesh.area.sum()
    rng = np.random.default_rng(3)
    for _ in range(3):
        marked = rng.choice(mesh.num_triangles, size=mesh.num_triangles // 4, replace=False)
        mesh = rgb_refine(mesh, marked)
        assert abs(mesh.area.sum() - total) <= 1e-12 * total
        check_invariants(mesh)


def test_rgb_mark_all_equals_uniform():
    mesh = lshape_start_mesh()
    red = rgb_refine(mesh, range(mesh.num_triangles))
    uni = uniform_red_refine(mesh)
    assert red.num_vertices == uni.num_vertices
    assert red.num_edges == uni.num_edges
    assert red.num_triangles == uni.num_triangles
    # same partition: identical multisets of centroids
    ca = np.sort(np.round(red.centroid, 12).view("f8,f8"), axis=0)
    cb = np.sort(np.round(uni.centroid, 12).view("f8,f8"), axis=0)
    assert np.array_equal(ca, cb)


def test_rgb_empty_marks_returns_mesh_unchanged():
    mesh = lshape_start_mesh()
    assert rgb_refine(mesh, []) is mesh


def test_rgb_single_mark_on_square():
    mesh = build_mesh(*SQUARE)
    fine = rgb_refine(mesh, [0])
    assert fine.num_triangles == 6
    assert sorted(fine.green_flag.tolist()) == [0, 0, 0, 0, 1, 1]
    check_invariants(fine, polygon_area=1.0)


def test_rgb_invalid_mark():
    mesh = build_mesh(*SQUARE)
    with pytest.raises(InvalidMark):
        rgb_refine(mesh, [5])


def test_green_rollback_keeps_angles_bounded():
    mesh = lshape_start_mesh()
    initial = mesh.min_angle()
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = max(1, mesh.num_triangles // 6)
        marked = rng.choice(mesh.num_triangles, size=k, replace=False)
        mesh = rgb_refine(mesh, marked)
        check_invariants(mesh, polygon_area=3.0)
    assert mesh.min_angle() >= 0.4 * initial


def test_rollback_cascade_stays_conforming():
    # refine one triangle, then a red child against an existing green pair:
    # the green neighbor must roll back to its parent and re-close without
    # a hanging node at the new quarter point of the old shared edge
    mesh = build_mesh(*SQUARE)
    mesh = rgb_refine(mesh, [0])
    greens = np.flatnonzero(mesh.green_flag == 1)
    reds = np.flatnonzero(mesh.green_flag == 0)
    # pick a red child sharing an edge with a green child
    green_edges = set(mesh.triangle_edges[greens].ravel().tolist())
    target = next(
        int(t) for t in reds
        if green_edges.intersection(mesh.triangle_edges[t].tolist())
    )
    fine = rgb_refine(mesh, [target])
    check_invariants(fine, polygon_area=1.0)
    build_mesh(fine.vertices, fine.triangles, strict=True)  # overlap scan
    # the old green pair is gone; its parent was red-refined instead
    assert fine.num_triangles > mesh.num_triangles + 3


def test_crack_mesh_slit_is_duplicated():
    mesh = crack_start_mesh()
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1
    coords = np.round(mesh.vertices, 12)
    uniq, counts = np.unique(coords, axis=0, return_counts=True)
    dup = uniq[counts == 2]
    # (0.5, 0) and (1, 0) are doubled; the crack tip (0, 0) is not
    assert any(np.allclose(p, (0.5, 0.0)) for p in dup)
    assert any(np.allclose(p, (1.0, 0.0)) for p in dup)
    assert not any(np.allclose(p, (0.0, 0.0)) for p in dup)
    refined = uniform_red_refine(mesh)
    assert refined.num_vertices - refined.num_edges + refined.num_triangles == 1
    check_invariants(refined)


def test_mesh_file_roundtrip(tmp_path):
    mesh = crack_start_mesh()
    for _ in range(4):  # grade toward the slit tip at the origin
        nearest = np.argsort(np.hypot(*mesh.centroid.T), kind="stable")
        mesh = rgb_refine(mesh, nearest[: mesh.num_triangles // 5])
    path = tmp_path / "crack.mesh"
    write_mesh_file(mesh, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(
        back.edges[back.boundary_edges], mesh.edges[mesh.boundary_edges]
    )
    digest = hashlib.sha1(path.read_bytes()).hexdigest()
    assert digest == "8d8b66e874e6109dba24ed0931d8ac6e2216738c"


def test_mesh_file_comments_and_slashes(tmp_path):
    text = """# a comment
vertices 3 / triangles 1 / boundary 3
0 0
1 0   # trailing comment
0 1
0 1 2
0 1 0
1 2 0
2 0 0
"""
    path = tmp_path / "tri.mesh"
    path.write_text(text)
    mesh = read_mesh_file(path)
    assert mesh.num_triangles == 1


def test_negative_vertex_index_reported():
    with pytest.raises(ValueError, match="references vertex -1 "):
        build_mesh(REF[0], np.array([[0, 1, -1]]))


def _reference_edge_table(triangles):
    """Edge table through np.unique over (min, max) row pairs."""
    t = np.asarray(triangles)
    raw = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
    pairs = np.sort(raw, axis=2).reshape(-1, 2)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    signs = np.where(raw[:, :, 0] > raw[:, :, 1], 1, -1)
    edge_tris = np.full((len(edges), 2), -1)
    for row, (e, s) in enumerate(zip(inverse.ravel(), signs.ravel())):
        edge_tris[e, 0 if s > 0 else 1] = row // 3
    return {
        "edges": edges,
        "triangle_edges": inverse.reshape(-1, 3),
        "triangle_edge_signs": signs,
        "edge_tris": edge_tris,
    }


def _rgb_mesh_with_green_and_blue():
    # two neighbours of triangle 0 give it a blue triple; marking a green
    # child then rolls it back to its red-refined skeleton parent
    mesh = rgb_refine(crack_start_mesh(), [1, 17])
    mesh = rgb_refine(mesh, [int(np.flatnonzero(mesh.green_flag == 1)[0])])
    assert {1, 2} <= set(mesh.green_flag.tolist())
    return mesh


@pytest.mark.parametrize(
    "make", [lshape_start_mesh, crack_start_mesh, _rgb_mesh_with_green_and_blue]
)
def test_edge_table_matches_unique_pairs_reference(make):
    source = make()
    mesh = build_mesh(source.vertices, source.triangles)
    for name, expected in _reference_edge_table(source.triangles).items():
        assert np.array_equal(getattr(mesh, name), expected), name


def test_mesh_is_read_only():
    mesh = rgb_refine(lshape_start_mesh(), [0])
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 1
    with pytest.raises(ValueError):
        mesh.green_flag[:] = 0
    # the per-triangle geometry is computed once and handed out read-only
    assert mesh.triangle_vertices() is mesh.triangle_vertices()
    assert mesh.grad_bary() is mesh.grad_bary()
    with pytest.raises(ValueError):
        mesh.triangle_vertices()[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        mesh.grad_bary()[:] = 0.0
    assert np.array_equal(mesh.triangle_vertices(), mesh.vertices[mesh.triangles])


def test_mesh_file_malformed(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("vertices 2 triangles 1 boundary 0\n0 0\n1 0\n0 1 2\n")
    with pytest.raises(ValueError):
        read_mesh_file(path)
