"""One mesh hierarchy per run: a uniform red child is built once per parent
and kept on it, each mesh computes its edge order once, and the histories of a
sweep all start from one mesh. A run with a single history must still free
its coarse levels as it refines."""

import gc
import weakref

import numpy as np
import pytest

from afem import bench, mesh, ordering, problem, refine
from afem.mesh import write_mesh_file
from afem.problem import lshape_start_mesh
from afem.refine import uniform_red_refine

_ORDERS = ("edge_order",)


def _arrays(m):
    return {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}


def test_red_child_is_built_once_and_equals_a_fresh_one():
    parent = lshape_start_mesh()
    child = uniform_red_refine(parent)
    assert uniform_red_refine(parent) is child
    assert uniform_red_refine(child) is uniform_red_refine(child)
    fresh = uniform_red_refine(lshape_start_mesh())
    assert fresh is not child
    ours, theirs = _arrays(child), _arrays(fresh)
    assert ours.keys() == theirs.keys()
    for name in [*ours, *_ORDERS]:
        assert np.array_equal(getattr(child, name), getattr(fresh, name)), name


def test_orders_are_computed_once_per_mesh_and_frozen():
    m = lshape_start_mesh()
    for name in _ORDERS:
        order = getattr(m, name)
        assert getattr(m, name) is order
        assert not order.flags.writeable
    assert np.array_equal(m.edge_order, ordering.nested_dissection(m))


def test_eigen_sweep_builds_each_level_and_its_orders_once(tmp_path, monkeypatch):
    calls = {"build_mesh": 0, "nested_dissection": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    build = spy("build_mesh", mesh.build_mesh)
    for module in (mesh, problem, refine):
        monkeypatch.setattr(module, "build_mesh", build)
    monkeypatch.setattr(
        ordering, "nested_dissection",
        spy("nested_dissection", ordering.nested_dissection),
    )

    config = bench.ExperimentConfig(
        problem="eigen_sweep", mode="uniform", max_ndof=4000, out=str(tmp_path)
    )
    result = bench.run_experiment(config, echo=lambda *_: None)
    assert len(result.histories) == 8
    ndofs = {tuple(h.ndofs) for h in result.histories.values()}
    assert ndofs == {(68, 256, 992, 3904)}
    # one call per distinct level, where each sweep value used to build its own
    assert calls == {"build_mesh": 4, "nested_dissection": 4}


def _watch_level_zero(monkeypatch):
    """Make the first system that ``--dump-systems`` assembles per level hold
    the level-0 mesh by a weakref only; returns ``(level, level-0 mesh
    alive)`` per level. A wrapper of ``adaptive_loop`` would hold the start
    mesh itself."""
    seen = []
    refs = []
    assemble = bench.assemble_modified_ncfem

    def spy(mesh, pw, **kwargs):
        if not refs:
            refs.append(weakref.ref(mesh))
        gc.collect()
        seen.append((len(seen), refs[0]() is not None))
        return assemble(mesh, pw, **kwargs)

    monkeypatch.setattr(bench, "assemble_modified_ncfem", spy)
    return seen


@pytest.mark.parametrize("from_file", [False, True], ids=["builtin", "mesh-file"])
def test_single_history_frees_its_coarse_levels(tmp_path, monkeypatch, from_file):
    mesh_path = None
    if from_file:
        mesh_path = str(tmp_path / "lshape.mesh")
        write_mesh_file(lshape_start_mesh(), mesh_path)
    seen = _watch_level_zero(monkeypatch)
    config = bench.ExperimentConfig(
        problem="lshape", mode="uniform", max_ndof=4000, out=str(tmp_path),
        mesh=mesh_path, dump_systems=True,
    )
    bench.run_experiment(config, echo=lambda *_: None)
    assert [level for level, _ in seen] == [0, 1, 2, 3]
    assert [alive for level, alive in seen if level >= 2] == [False, False]


def _count_reaction_free_builds(monkeypatch):
    """Count the builds of a level's reaction-free data by its parts: S_T of
    the P0 projection, the hybridization's M_T^-1 and the estimator's
    degree-5 points. Returns the per-part lists of meshes (None for the
    points, which get vertices only)."""
    from afem import adapt, assembly, quadrature

    built = {"s_of_t": [], "hybrid_inverses": [], "physical_points": []}

    def spy(name, fn, module):
        def counted(*args):
            built[name].append(args[0] if name != "physical_points" else None)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    spy("s_of_t", problem.s_of_t, problem)
    inverses = assembly.hybrid_inverses
    for module in (assembly, adapt):
        spy("hybrid_inverses", inverses, module)
    spy("physical_points", quadrature.physical_points, quadrature)
    return built


@pytest.mark.parametrize("mode", ["uniform", "adaptive"])
def test_sweep_in_lockstep_equals_separate_runs(monkeypatch, mode):
    # the eight histories advance together and share each level's
    # reaction-free data; each must be bit for bit the run of its value alone
    from afem.adapt import adaptive_loop

    def sweep():
        gammas = problem.DEFAULT_GAMMA_SWEEP
        return [problem.benchmark("eigen_sweep", gamma=g) for g in gammas]

    alone = [adaptive_loop(inst, mode=mode, max_ndof=4000) for inst in sweep()]
    built = _count_reaction_free_builds(monkeypatch)
    together = adaptive_loop(sweep(), mode=mode, max_ndof=4000)
    assert len(together) == 8
    for hist, ref in zip(together, alone):
        assert hist.ndofs == ref.ndofs
        for name in ("eta", "equivalence"):
            assert np.array_equal(
                np.array(hist.column(name)).view(np.int64),
                np.array(ref.column(name)).view(np.int64),
            ), name
        assert hist.failure == ref.failure
    # one build per distinct mesh per level: the four uniform levels, or the
    # adaptive start mesh and then each history's own meshes
    attempted = [len(h.records) + (h.failure is not None) for h in together]
    meshes = 4 if mode == "uniform" else 1 + sum(n - 1 for n in attempted)
    if mode == "uniform":
        assert attempted == [4] * 8
    assert {name: len(calls) for name, calls in built.items()} == dict.fromkeys(
        built, meshes
    )
    assert len({id(m) for m in built["s_of_t"]}) == meshes
