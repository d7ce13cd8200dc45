import re

import numpy as np
import pytest

from afem import problem
from afem.cli import main
from afem.mesh import build_mesh, write_mesh_file
from afem.refine import rgb_refine, uniform_red_refine
from oracles import red_split_without_closure


def test_run_lshape_exit_zero(tmp_path, capsys):
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "CR(e_p)" in out
    assert (tmp_path / "lshape_uniform.csv").exists()


def test_missing_problem_is_config_error(capsys):
    assert main(["run", "--mode", "uniform"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_theta_is_config_error(tmp_path):
    assert main(
        ["run", "--problem", "lshape", "--theta", "0", "--out", str(tmp_path)]
    ) == 1


def test_unknown_problem_is_config_error(tmp_path, capsys):
    assert main(["run", "--problem", "nope", "--out", str(tmp_path)]) == 1
    assert "unknown problem" in capsys.readouterr().err


def test_bad_mode_flag_is_config_error(tmp_path, capsys):
    code = main(
        ["run", "--problem", "lshape", "--mode", "sideways", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_malformed_flag_value_is_config_error(tmp_path, capsys):
    code = main(
        ["run", "--problem", "lshape", "--max-ndof", "abc", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_malformed_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = lshape\ntheta = half\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "bad value for theta" in capsys.readouterr().err


def test_registered_problem_runs(tmp_path, monkeypatch):
    monkeypatch.setitem(
        problem._REGISTRY, "lshape_plugin", lambda **kw: problem.benchmark("lshape")
    )
    code = main(
        [
            "run", "--problem", "lshape_plugin", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "lshape_plugin_uniform.csv").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "problem = lshape\n"
        "mode = adaptive\n"
        "theta = 0.5\n"
        "max-ndof = 100   # small run\n"
        f"out = {tmp_path}\n"
    )
    code = main(["run", "--config", str(cfg), "--mode", "uniform"])
    assert code == 0
    assert (tmp_path / "lshape_uniform.csv").exists()  # flag overrode the file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = lshape\nwat = 1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_singular_sweep_exits_two(tmp_path, capsys):
    # gamma is the discrete mixed eigenvalue lambda_h,0 of the start mesh
    code = main(
        [
            "run", "--problem", "eigen_sweep", "--gamma", "8.729895749288895",
            "--mode", "uniform", "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    text = (tmp_path / "eigen_sweep_gamma8.7299_uniform.csv").read_text()
    assert "aborted" in text  # partial CSV carries the failure marker
    assert "event:" in capsys.readouterr().out


def test_eigen_sweep_default_grid(tmp_path):
    code = main(
        [
            "run", "--problem", "eigen_sweep", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.glob("eigen_sweep_gamma*.csv"))
    assert len(csvs) == 8  # the default magnitude grid
    combined = (tmp_path / "eigen_sweep_uniform_combined.csv").read_text()
    header = combined.splitlines()[0].split(",")
    assert header[:2] == ["level", "ndof"]
    assert len(header) == 10


def test_adaptive_sweep_combined_ndof_matches_per_gamma(tmp_path):
    code = main(
        [
            "run", "--problem", "eigen_sweep", "--mode", "adaptive",
            "--max-ndof", "600", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    combined = (tmp_path / "eigen_sweep_adaptive_combined.csv").read_text()
    header, *rows = [ln.split(",") for ln in combined.splitlines()]
    per_gamma = {}
    for col in header[2:]:
        path = tmp_path / f"eigen_sweep_gamma{col[4:]}_adaptive.csv"
        head, *lines = path.read_text().splitlines()
        eta = head.split(",").index("eta")
        per_gamma[col] = [
            (ln.split(",")[1], ln.split(",")[eta])
            for ln in lines if not ln.startswith("#")
        ]
    assert len(rows) == max(map(len, per_gamma.values()))
    for lev, row in enumerate(rows):
        assert row[0] == str(lev)
        at_level = [recs[lev] for recs in per_gamma.values() if lev < len(recs)]
        ndofs = {ndof for ndof, _ in at_level}
        assert row[1] == (ndofs.pop() if len(ndofs) == 1 else "")
        for col, cell in zip(header[2:], row[2:]):
            recs = per_gamma[col]
            assert cell == (recs[lev][1] if lev < len(recs) else "")
    # the adaptive meshes of the sweep values diverge within this budget
    assert any(row[1] == "" for row in rows)


def test_gamma_outside_eigen_sweep_is_config_error(tmp_path, capsys):
    args = ["run", "--mode", "uniform", "--max-ndof", "80", "--out", str(tmp_path)]
    assert main(args + ["--problem", "lshape", "--gamma", "5"]) == 1
    assert "gamma applies to eigen_sweep only" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = crack\ngamma = 5\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert "gamma applies to eigen_sweep only" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_custom_mesh_flag(tmp_path, capsys):
    square = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
    )
    path = tmp_path / "square.mesh"
    write_mesh_file(square, path)
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "60", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 0
    text = (tmp_path / "lshape_uniform.csv").read_text()
    assert text.splitlines()[1].split(",")[1] == "7"  # 5 edges + 2 triangles


def test_mesh_file_below_unit_size_runs(tmp_path, capsys):
    # the twice-refined L-shape scaled by 1e-6: its smallest area, 7.8e-15,
    # is no degenerate triangle at that size
    mesh = uniform_red_refine(uniform_red_refine(problem.lshape_start_mesh()))
    path = tmp_path / "small.mesh"
    write_mesh_file(build_mesh(1e-6 * mesh.vertices, mesh.triangles), path)
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "4000", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "lshape_uniform.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["992", "3904"]


def test_adaptive_run_with_theta_one(tmp_path):
    # at 24,576 triangles the sequential prefix sums of the contributions
    # end below the marking target; every triangle is marked instead
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "adaptive", "--theta", "1",
            "--max-ndof", "61696", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "lshape_adaptive.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [
        "68", "256", "992", "3904", "15488", "61696"
    ]


def test_dump_systems_flag(tmp_path):
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "80", "--out", str(tmp_path), "--dump-systems",
        ]
    )
    assert code == 0
    sysdir = tmp_path / "systems"
    assert (sysdir / "level0_modified_nc.txt").exists()
    assert (sysdir / "level0_mixed.txt").exists()


def _triplets(path):
    """{(row, col): value} of a ``--dump-systems`` file."""
    lines = path.read_text().splitlines()
    nnz = int(lines[1].split()[2])
    return {
        (int(i), int(j)): float(v)
        for i, j, v in (line.split() for line in lines[2 : 2 + nnz])
    }


def test_dump_systems_of_a_sweep_name_each_value(tmp_path):
    # 8 sweep values x 3 levels x 2 systems, none overwriting another
    code = main(
        [
            "run", "--problem", "eigen_sweep", "--mode", "uniform",
            "--max-ndof", "1000", "--out", str(tmp_path), "--dump-systems",
        ]
    )
    assert code == 0
    files = sorted(p.name for p in (tmp_path / "systems").iterdir())
    assert len(files) == 48
    assert "eigen_sweep_gamma9.63_level2_mixed.txt" in files
    assert "eigen_sweep_gamma12_level0_modified_nc.txt" in files
    # the two values' saddle systems differ only in the reaction block
    # C = diag(gamma_h |T|), by the ratio of the values
    ne = problem.lshape_start_mesh().num_edges
    sys8, sys9 = (
        _triplets(tmp_path / "systems" / f"eigen_sweep_gamma{g}_level0_mixed.txt")
        for g in (8, 9)
    )
    assert sys8.keys() == sys9.keys()
    reaction = [ij for ij in sys8 if min(ij) >= ne]
    assert reaction and all(i == j for i, j in reaction)
    for ij in sys8:
        if ij in reaction:
            assert sys9[ij] == pytest.approx(sys8[ij] * 9 / 8, rel=1e-14)
            assert sys9[ij] != sys8[ij]
        else:
            assert sys9[ij] == sys8[ij]


def test_missing_mesh_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "missing.mesh"
    code = main(
        ["run", "--problem", "lshape", "--mesh", str(path), "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err


@pytest.mark.parametrize(
    "text",
    [
        "vertices 3 / triangles 1 / boundary 0\n0 0\n1 0\n0 1\n0 1 5\n",
        "vertices 3 / triangles 1 / boundary\n",
        "vertices 1 / triangles 0 / boundary 0\n0 0\n",
        "vertices 4 / triangles 2 / boundary 1\n"
        "0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 2 0\n",
        "vertices 3 / triangles 1 / boundary 0\n0 0\n1 0\n0 1\n0 2 1\n",
        "vertices 3 / triangles 1 / boundary 0\n0 0\n1 0\n0 1\n"
        "0 1 99999999999999999999\n",
        "vertices 3 / triangles 1 / boundary 0\nnan 1\n1 0\n0 1\n0 1 2\n",
        "vertices 3 / triangles 1 / boundary 0\ninf 0\n1 0\n0 1\n0 1 2\n",
    ],
    ids=[
        "index_out_of_range",
        "header_cut_short",
        "no_triangles",
        "interior_boundary_line",
        "clockwise_triangle",
        "index_overflow",
        "nan_vertex",
        "inf_vertex",
    ],
)
def test_malformed_mesh_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code = main(
        ["run", "--problem", "lshape", "--mesh", str(path), "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err


def _hanging_lshape_file(path, unused_copy=False):
    # uniform L-shape level 4 with one interior triangle red-split and not
    # closed: three hanging nodes in a file of 6,147 triangles
    mesh = problem.lshape_start_mesh()
    for _ in range(4):
        mesh = uniform_red_refine(mesh)
    interior = np.flatnonzero(
        np.isin(mesh.triangle_edges, mesh.interior_edges).all(axis=1)
    )
    verts, tris = red_split_without_closure(mesh, interior[len(interior) // 2])
    assert len(tris) == 6147
    if unused_copy:
        verts = np.vstack([verts, verts[:1]])
    write_mesh_file(build_mesh(verts, tris, strict=False), path)


def test_large_mesh_file_with_hanging_node_is_config_error(tmp_path, capsys):
    path = tmp_path / "hanging.mesh"
    _hanging_lshape_file(path)
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "30000", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert re.search(r"lies inside edge \(\d+, \d+\)", err), err
    assert not list(tmp_path.glob("*.csv"))


def test_unused_copy_of_a_vertex_does_not_hide_hanging_nodes(tmp_path, capsys):
    # a copy of vertex 0 that no triangle uses once switched the scan off
    path = tmp_path / "hanging.mesh"
    _hanging_lshape_file(path, unused_copy=True)
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "30000", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(path) in err and "belongs to no triangle" in err
    assert not list(tmp_path.glob("*.csv"))


def test_mesh_file_with_unused_vertex_is_config_error(tmp_path, capsys):
    path = tmp_path / "unused.mesh"
    path.write_text(
        "vertices 4 / triangles 1 / boundary 0\n0 0\n1 0\n0 1\n5 5\n0 1 2\n"
    )
    code = main(
        ["run", "--problem", "lshape", "--mesh", str(path), "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "vertex 3 belongs to no triangle" in err


def test_slit_mesh_file_runs(tmp_path, capsys):
    # the shipped slit disc, read as a user file, passes the overlap scan
    path = tmp_path / "crack.mesh"
    write_mesh_file(problem.crack_start_mesh(), path)
    code = main(
        [
            "run", "--problem", "crack", "--mode", "adaptive", "--max-ndof",
            "2000", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 0
    ref = tmp_path / "ref"
    assert main(
        [
            "run", "--problem", "crack", "--mode", "adaptive", "--max-ndof",
            "2000", "--out", str(ref),
        ]
    ) == 0
    assert (tmp_path / "crack_adaptive.csv").read_bytes() == (
        ref / "crack_adaptive.csv"
    ).read_bytes()


def test_one_sided_slit_mesh_file_runs(tmp_path, capsys):
    # refining one side of the slit only leaves vertices without a twin on
    # the other side; the file is conforming and must run
    mesh = problem.crack_start_mesh()
    c = mesh.centroid
    mesh = rgb_refine(mesh, np.flatnonzero((c[:, 1] > 0) & (np.hypot(*c.T) < 0.6)))
    path = tmp_path / "one_sided.mesh"
    write_mesh_file(mesh, path)
    code = main(
        [
            "run", "--problem", "crack", "--mode", "adaptive", "--max-ndof",
            "1500", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("problem", ["lshape", "eigen_sweep"])
def test_budget_below_start_mesh_is_config_error(tmp_path, capsys, problem):
    code = main(
        ["run", "--problem", problem, "--max-ndof", "10", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "68" in err
    assert not list(tmp_path.glob("*.csv"))


def test_config_dump_systems_takes_only_switch_words(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = lshape\ndump_systems = maybe\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "bad value for dump_systems" in capsys.readouterr().err
    assert not (tmp_path / "systems").exists()

    cfg.write_text(
        "problem = lshape\nmode = uniform\nmax_ndof = 80\ndump_systems = ON\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "systems" / "level0_mixed.txt").exists()
