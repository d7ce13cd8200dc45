import dataclasses
import re

import numpy as np
import pytest

import afem
from afem import adapt, assembly, bench, problem, solver
from afem.cli import main
from afem.mesh import build_mesh, write_mesh_file
from afem.refine import rgb_refine, uniform_red_refine
from oracles import constant_instance, graded_toward_corner, red_split_without_closure


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


def _nan_right_of(x, y):
    return np.where(x > 0.3, np.nan, 1.0)


def _nan_near(cx, cy, radius):
    """NaN within ``radius`` of (cx, cy), one elsewhere. On the L-shape start
    mesh no centroid or edge midpoint lies within 0.15 of (-1, -1), and
    within 0.02 of the origin only the error norms' dyadic points do."""
    return lambda x, y: np.where(np.hypot(x - cx, y - cy) < radius, np.nan, 1.0)


# (-0.75, -0.75) is an edge midpoint of the L-shape start mesh, 0.12 from
# the nearest centroid
_nan_at_midpoint = _nan_near(-0.75, -0.75, 0.05)


@pytest.mark.parametrize(
    "coefficient, value, where",
    [
        ("f", _nan_right_of, "f = nan at the centroid"),
        ("gamma", _nan_right_of, "gamma = nan at the centroid"),
        ("b", lambda x, y: np.stack([0 * x, _nan_right_of(x, y)], axis=1),
         r"b = \[ 0\. nan\] at the centroid"),
        ("u_dirichlet", _nan_right_of, "u_D = nan at the boundary midpoint"),
        ("f", _nan_near(-1.0, -1.0, 0.15), "f = nan at the degree-5 point"),
        ("gamma", _nan_near(0.0, 0.0, 0.02), "gamma = nan at the dyadic point"),
        ("a", lambda x, y: _nan_at_midpoint(x, y)[:, None, None] * np.eye(2),
         r"A = \[\[nan nan\] \[nan nan\]\] at the edge midpoint"),
        ("b", lambda x, y: np.stack([np.ones_like(x), _nan_at_midpoint(x, y)], 1),
         r"b = \[ 1\. nan\] at the edge midpoint"),
    ],
    ids=[
        "f", "gamma", "b", "u_dirichlet", "f-degree-5-point", "gamma-dyadic-point",
        "A-edge-midpoint", "b-edge-midpoint",
    ],
)
def test_non_finite_coefficient_is_input_error(
    tmp_path, capsys, monkeypatch, coefficient, value, where
):
    # not a singular matrix (exit 2): the data is wrong, whatever the mesh
    monkeypatch.setattr(problem, "_REGISTRY", dict(problem._REGISTRY))
    lshape = problem.benchmark("lshape")
    field = dataclasses.replace(lshape.field, **{coefficient: value})
    # a replaced f is no longer the exact solution's load, which the
    # quadrature points would take in its place
    exact = None if coefficient == "f" else lshape.exact
    afem.register_problem(
        "nan_data", lambda **kw: dataclasses.replace(lshape, field=field, exact=exact)
    )
    code = main(
        [
            "run", "--problem", "nan_data", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(rf"^afem: error: {where} of triangle \d+$", err, re.M), err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "output, near, where",
    [
        (0, (-1.0, -1.0, 0.15), "u = nan at the degree-5 point"),
        (1, (-1.0, -1.0, 0.15), r"p = \[nan nan\] at the degree-5 point"),
        (2, (-1.0, -1.0, 0.15), "f = nan at the degree-5 point"),
        (0, (0.0, 0.0, 0.02), "u = nan at the dyadic point"),
        (1, (0.0, 0.0, 0.02), r"p = \[nan nan\] at the dyadic point"),
        (2, (0.0, 0.0, 0.02), "f = nan at the dyadic point"),
    ],
    ids=["u-degree-5", "p-degree-5", "f-degree-5", "u-dyadic", "p-dyadic", "f-dyadic"],
)
def test_non_finite_exact_solution_is_input_error(
    tmp_path, capsys, monkeypatch, output, near, where
):
    # the error norms used to take u and p unchecked: NaN u near (-1, -1)
    # gave e_u = c_rel = rate_u = nan on both levels and exit 0
    lshape = problem.benchmark("lshape")
    mask = _nan_near(*near)

    def exact(x, y):
        values = list(lshape.exact(x, y))
        nan = mask(x, y)
        values[output] = values[output] * (nan[:, None] if output == 1 else nan)
        return tuple(values)

    inst = dataclasses.replace(lshape, exact=exact)
    with pytest.raises(afem.NonFiniteCoefficient, match=where):
        adapt.adaptive_loop(inst, mode="uniform", max_ndof=300)
    monkeypatch.setattr(problem, "_REGISTRY", dict(problem._REGISTRY))
    afem.register_problem("nan_exact", lambda **kw: inst)
    code = main(
        [
            "run", "--problem", "nan_exact", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(rf"^afem: error: {where} of triangle \d+$", err, re.M), err
    assert not list(tmp_path.glob("*.csv"))


def _diffusion_bad_at_triangle_3(kind):
    """Identity A with a NaN matrix, or +inf in A[0, 0], at the centroid of
    the L-shape start mesh's triangle 3."""
    target = problem.lshape_start_mesh().centroid[3]

    def a(x, y):
        out = np.tile(np.eye(2), (np.size(x), 1, 1))
        hit = (np.asarray(x) == target[0]) & (np.asarray(y) == target[1])
        if kind == "nan":
            out[hit] = np.nan
        else:
            out[hit, 0, 0] = np.inf
        return out

    return a


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_non_finite_diffusion_names_its_triangle(
    tmp_path, capsys, monkeypatch, kind
):
    # a NaN used to fail the symmetry test of every triangle (reported as
    # triangle 0), and +inf passed the SPD test into a NaN inverse
    monkeypatch.setattr(problem, "_REGISTRY", dict(problem._REGISTRY))
    lshape = problem.benchmark("lshape")
    field = dataclasses.replace(lshape.field, a=_diffusion_bad_at_triangle_3(kind))
    afem.register_problem(
        "bad_a", lambda **kw: dataclasses.replace(lshape, field=field)
    )
    with pytest.raises(afem.NonFiniteCoefficient, match=r"of triangle 3$"):
        problem.project_p0(field, lshape.start_mesh())
    code = main(
        [
            "run", "--problem", "bad_a", "--mode", "uniform",
            "--max-ndof", "300", "--out", str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(r"^afem: error: A = .* at the centroid of triangle 3$", err, re.M)
    assert not list(tmp_path.glob("*.csv"))


def test_constant_solution_runs(tmp_path, monkeypatch):
    # u = 1: both routes' fluxes are roundoff, so the cross-check must not
    # measure the flux discrepancy against the flux alone
    monkeypatch.setitem(problem._REGISTRY, "constant", lambda **kw: constant_instance())
    code = main(
        [
            "run", "--problem", "constant", "--mode", "uniform",
            "--max-ndof", "4000", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "constant_uniform.csv").exists()


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


def test_negative_gamma_in_exponent_form_is_a_value(tmp_path):
    # argparse's negative-number pattern does not match -1e5, so it read the
    # value as an option; both spellings run and write the same CSVs
    csvs = []
    for i, gamma in enumerate((["--gamma", "-1e5"], ["--gamma=-1e5"])):
        out = tmp_path / str(i)
        args = ["--problem", "eigen_sweep", *gamma, "--max-ndof", "300"]
        assert main(["run", *args, "--out", str(out)]) == 0
        csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert "eigen_sweep_gamma-100000_uniform.csv" in csvs[0]
    assert csvs[0] == csvs[1]


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


def test_mesh_file_graded_toward_the_corner_runs(tmp_path, capsys):
    # 19 corner refinements: vertex 242 lies 6.7e-7 from the line of edge
    # (255, 257), 1.3e-6 long, which is no hanging node at that size
    path = tmp_path / "graded.mesh"
    write_mesh_file(graded_toward_corner(problem.lshape_start_mesh(), 19), path)
    code = main(
        [
            "run", "--problem", "lshape", "--mode", "uniform",
            "--max-ndof", "1300", "--mesh", str(path), "--out", str(tmp_path),
        ]
    )
    assert code == 0, capsys.readouterr().err
    rows = (tmp_path / "lshape_uniform.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1227"]


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


@pytest.mark.parametrize("out", ["/dev/null/x", ""], ids=["under-a-file", "empty"])
def test_unwritable_output_directory_is_config_error(capsys, out):
    code = main(["run", "--problem", "lshape", "--max-ndof", "300", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"afem: configuration error: cannot write '.*': .+\n", err), err


def _count_levels(monkeypatch, csv=None):
    """Spy on the P0 projection that starts every level; returns a list that
    gets, per level, the rows of the CSV file ``csv`` on disk at its start
    (None while there is no file)."""
    levels = []
    project = adapt.project_p0

    def spy(coeffs, mesh):
        rows = csv.read_text().splitlines()[1:] if csv and csv.exists() else None
        levels.append(rows)
        return project(coeffs, mesh)

    monkeypatch.setattr(adapt, "project_p0", spy)
    return levels


@pytest.mark.parametrize(
    "args, blocked, solved",
    [
        (["--problem", "lshape"], "lshape_uniform.csv", 1),
        (["--problem", "lshape"], "lshape_uniform.gp", 1),
        (["--problem", "eigen_sweep", "--gamma", "9"],
         "eigen_sweep_uniform_combined.csv", 2),
        (["--problem", "lshape", "--dump-systems"], "systems/level0_mixed.txt", 1),
    ],
    ids=["csv", "gp", "combined-csv", "system-dump"],
)
def test_unwritable_output_file_is_config_error(
    tmp_path, capsys, monkeypatch, args, blocked, solved
):
    # a directory stands where the run writes the file; a level's files are
    # written as it completes, so the run stops after the first level that
    # writes it (the combined CSV comes after both levels)
    (tmp_path / blocked).mkdir(parents=True)
    levels = _count_levels(monkeypatch)
    code = main(["run", *args, "--max-ndof", "300", "--out", str(tmp_path)])
    assert code == 1
    expected = f"cannot write {str(tmp_path / blocked)!r}: Is a directory"
    assert capsys.readouterr().err == f"afem: configuration error: {expected}\n"
    assert len(levels) == solved


def test_rows_are_written_as_levels_complete(tmp_path, monkeypatch):
    csv = tmp_path / "lshape_uniform.csv"
    on_disk = _count_levels(monkeypatch, csv)
    args = ["--problem", "lshape", "--max-ndof", "4000", "--out", str(tmp_path)]
    assert main(["run", *args]) == 0
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 4
    # while level k + 1 is solved the file holds rows 0..k
    assert on_disk == [None, rows[:1], rows[:2], rows[:3]]


def _lshape_abort_on_level_2(tmp_path, capsys, violation):
    """Run lshape uniform to 4000 dofs, which aborts on level 2 (992 dofs):
    the CSV keeps rows 0-1 and its abort line, and stderr names ``violation``
    on level 2."""
    args = ["--problem", "lshape", "--max-ndof", "4000", "--out", str(tmp_path)]
    assert main(["run", *args]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"afem: error: level 2: {violation} by \(.+, .+\)\n", err
    )
    header, *lines = (tmp_path / "lshape_uniform.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[:2]] == [["0", "68"], ["1", "256"]]
    reason = err.removeprefix("afem: error: ").rstrip("\n")
    assert lines[2:] == [f"# aborted: EquivalenceViolation: {reason}"]


def test_equivalence_violation_leaves_rows_and_abort_line(
    tmp_path, capsys, monkeypatch
):
    # the hybrid recovery's scalar perturbed by 1e-6 relative on level 2
    assemble = solver.assemble_hybrid_mixed

    def perturbed(mesh, pw, *args):
        local, load, recover = assemble(mesh, pw, *args)
        if mesh.ndof_mixed != 992:
            return local, load, recover

        def recover_perturbed(multiplier):
            mixed = recover(multiplier)
            return dataclasses.replace(mixed, u=mixed.u * (1 + 1e-6))

        return local, load, recover_perturbed

    monkeypatch.setattr(solver, "assemble_hybrid_mixed", perturbed)
    _lshape_abort_on_level_2(tmp_path, capsys, "routes differ")


def test_element_identity_violation_leaves_rows_and_abort_line(
    tmp_path, capsys, monkeypatch
):
    # the convection coupling w_T of the hybridized blocks perturbed by 1e-9
    # relative on level 2; the hybrid recovery moves by about as much, far
    # under EQUIVALENCE_TOL, so only the comparison of the element blocks
    # sees it
    blocks = assembly._mixed_blocks

    def perturbed(mesh, pw):
        mass, w, *rest = blocks(mesh, pw)
        if mesh.ndof_mixed == 992:
            assert np.abs(w).max() > 0
            w = w * (1 + 1e-9)
        return mass, w, *rest

    monkeypatch.setattr(assembly, "_mixed_blocks", perturbed)
    _lshape_abort_on_level_2(
        tmp_path, capsys, "element blocks and loads differ from the hybridized ones"
    )


def test_sweep_violation_stops_every_running_history(tmp_path, capsys, monkeypatch):
    # the hybridized element blocks of gamma = 9.63 perturbed by 1e-9
    # relative on level 2: the sweep's histories advance together, so the
    # values before it in the sweep have solved level 2 and those after it
    # only level 1; each CSV keeps its rows and ends with the abort line
    assemble = solver.assemble_hybrid_mixed

    def perturbed(mesh, pw, *args):
        local, load, recover = assemble(mesh, pw, *args)
        if mesh.ndof_mixed == 992 and pw.gamma_h[0] == -9.63:
            local = local * (1 + 1e-9)
        return local, load, recover

    monkeypatch.setattr(solver, "assemble_hybrid_mixed", perturbed)
    args = ["--problem", "eigen_sweep", "--max-ndof", "4000", "--out", str(tmp_path)]
    assert main(["run", *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # the tables come after the loop
    violation = "element blocks and loads differ from the hybridized ones"
    assert re.fullmatch(rf"afem: error: level 2: {violation} by \(.+, .+\)\n", err)
    reason = err.removeprefix("afem: error: ").rstrip("\n")
    for g in problem.DEFAULT_GAMMA_SWEEP:
        csv = tmp_path / f"eigen_sweep_gamma{g:g}_uniform.csv"
        header, *lines = csv.read_text().splitlines()
        solved = [68, 256, 992] if g < 9.63 else [68, 256]
        assert [line.split(",")[1] for line in lines[:-1]] == [str(n) for n in solved]
        assert lines[-1] == f"# aborted: EquivalenceViolation: {reason}"
    assert not (tmp_path / "eigen_sweep_uniform_combined.csv").exists()


def test_sweep_history_ended_before_an_exception_keeps_its_end(
    tmp_path, capsys, monkeypatch
):
    # gamma = 9 ends singular on level 1; gamma = 12 raises on level 2, after
    # the values before it have solved level 2: the singular history keeps
    # its own abort line, and every history still running gets the error's
    solve = adapt.solve_mixed_via_equivalence

    def failing(mesh, pw, *args, **kwargs):
        if pw.gamma_h[0] == -9.0 and mesh.ndof_mixed == 256:
            raise afem.SingularMatrix("injected")
        if pw.gamma_h[0] == -12.0 and mesh.ndof_mixed == 992:
            raise afem.EquivalenceViolation("injected")
        return solve(mesh, pw, *args, **kwargs)

    monkeypatch.setattr(adapt, "solve_mixed_via_equivalence", failing)
    args = ["--problem", "eigen_sweep", "--max-ndof", "4000", "--out", str(tmp_path)]
    assert main(["run", *args]) == 1
    assert capsys.readouterr().err == "afem: error: level 2: injected\n"
    for g in problem.DEFAULT_GAMMA_SWEEP:
        csv = tmp_path / f"eigen_sweep_gamma{g:g}_uniform.csv"
        _, *lines = csv.read_text().splitlines()
        rows, end = [line.split(",")[1] for line in lines[:-1]], lines[-1]
        if g == 9.0:
            assert rows == ["68"]
            assert end == "# aborted: SingularMatrix at level 1: injected"
        else:
            assert rows == (["68", "256"] if g == 12.0 else ["68", "256", "992"])
            assert end == "# aborted: EquivalenceViolation: level 2: injected"


def test_interrupt_leaves_rows_and_abort_line(tmp_path, monkeypatch):
    # any exception out of the loop is marked in the CSV and raised unchanged
    project = adapt.project_p0
    interrupt = KeyboardInterrupt()

    def project_until_level_2(coeffs, mesh):
        if mesh.ndof_mixed == 992:
            raise interrupt
        return project(coeffs, mesh)

    monkeypatch.setattr(adapt, "project_p0", project_until_level_2)
    config = bench.ExperimentConfig("lshape", max_ndof=4000, out=str(tmp_path))
    with pytest.raises(KeyboardInterrupt) as caught:
        bench.run_experiment(config, echo=lambda *_: None)
    assert caught.value is interrupt
    lines = (tmp_path / "lshape_uniform.csv").read_text().splitlines()
    assert len(lines) == 4 and lines[3] == "# aborted: KeyboardInterrupt"


def test_systems_path_taken_by_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "systems").write_text("")
    code = main(
        ["run", "--problem", "lshape", "--dump-systems", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err
