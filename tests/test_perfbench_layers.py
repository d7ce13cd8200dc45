"""The benchmark tracer wraps afem functions by module attribute; every
layer it names must still exist, or ``perfbench/run.py --trace 1`` breaks.
Likewise the benchmark's summary and CSV checks read the histories and CSVs
that ``bench.run_experiment`` leaves."""

import dataclasses
import importlib
import importlib.util
import itertools
import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from afem import adapt, bench, quadrature
from afem import problem as afem_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """A ``perfbench`` script loaded by path, as a module."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    spans = _load_perfbench("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.LAYERS and not missing


def test_benchmark_summary_reads_resolve(tmp_path):
    # perfbench/child.py summarises the run; perfbench/run.py attaches the
    # CSV texts and perfbench/checks.py compares them with the summary
    child = _load_perfbench("child")
    checks = _load_perfbench("checks")
    config = bench.ExperimentConfig(
        problem="lshape", mode="uniform", max_ndof=4000, out=str(tmp_path)
    )
    sample = child._summary(bench.run_experiment(config, echo=lambda *_: None))
    sample["csv_text"] = {
        os.path.basename(path): Path(path).read_text()
        for path in sample["csv_paths"]
    }
    res = checks.CheckResult()
    checks._check_csvs(sample, config.mode, res)
    assert res.problems == []
    assert list(sample["histories"]) == ["lshape"]
    for hist in sample["histories"].values():
        lengths = {
            len(hist[name]) for name in ("ndof", "eta", "e_u", "e_p", "equivalence")
        }
        assert lengths == {4}


@pytest.mark.parametrize(
    "problem, mode, max_ndof, dump_systems",
    [
        ("lshape", "uniform", 4000, False),
        ("crack", "adaptive", 1500, False),
        ("lshape", "uniform", 4000, True),
        ("eigen_sweep", "uniform", 4000, False),
    ],
    ids=[
        "lshape-uniform-4000", "crack-adaptive-1500", "lshape-uniform-4000-dump",
        "eigen-sweep-uniform-4000",
    ],
)
def test_level_clock_sees_one_projection_per_level(
    tmp_path, monkeypatch, problem, mode, max_ndof, dump_systems
):
    # perfbench/child.py timestamps every level at adapt.project_p0, and
    # perfbench/spans.py opens a level span at each problem.project_p0
    # called under the loop, so no level may project twice, nor a level
    # that a sweep's histories share be projected once for all of them
    seen = []
    project_p0 = afem_problem.project_p0

    def counting(coeffs, mesh):
        seen.append(mesh.ndof_mixed)
        return project_p0(coeffs, mesh)

    monkeypatch.setattr(adapt, "project_p0", counting)
    monkeypatch.setattr(afem_problem, "project_p0", counting)
    config = bench.ExperimentConfig(
        problem=problem,
        mode=mode,
        max_ndof=max_ndof,
        out=str(tmp_path),
        dump_systems=dump_systems,
    )
    histories = bench.run_experiment(config, echo=lambda *_: None).histories
    assert all(len(h.records) >= 3 for h in histories.values())
    # a sweep's histories advance together, level by level
    ndofs = [h.ndofs for h in histories.values()]
    levels = range(max(map(len, ndofs)))
    assert seen == [n[k] for k in levels for n in ndofs if k < len(n)]


@pytest.mark.parametrize(
    "problem, mode, max_ndof",
    [("lshape", "uniform", 4000), ("crack", "adaptive", 1500),
     ("eigen_sweep", "uniform", 4000)],
    ids=["lshape-uniform-4000", "crack-adaptive-1500", "eigen-sweep-uniform-4000"],
)
def test_each_level_evaluates_its_data_once(
    tmp_path, monkeypatch, problem, mode, max_ndof
):
    # after the solves, gamma is evaluated once on the level's 7T degree-5
    # points, which the estimator and the error norms share, and so is the
    # exact solution, which gives the load there with u and p; without one,
    # f is. The dyadic subdivision at the singular vertex evaluates gamma
    # and the exact solution once at each of its own points. f itself is
    # evaluated only at the centroids when an exact solution gives the load.
    events = []  # ("level", mesh) at each projection, (callback, points) per call
    project_p0 = afem_problem.project_p0

    def counting_p0(coeffs, mesh):
        events.append(("level", mesh))
        return project_p0(coeffs, mesh)

    def counting(name, fn):
        def wrapped(x, y):
            events.append((name, np.size(x)))
            return fn(x, y)

        return wrapped

    original = afem_problem._REGISTRY[problem]

    def factory(**params):
        inst = original(**params)
        field = dataclasses.replace(
            inst.field,
            f=counting("f", inst.field.f),
            gamma=counting("gamma", inst.field.gamma),
        )
        exact = inst.exact and counting("exact", inst.exact)
        return dataclasses.replace(inst, field=field, exact=exact)

    monkeypatch.setattr(adapt, "project_p0", counting_p0)
    monkeypatch.setitem(afem_problem._REGISTRY, problem, factory)
    config = bench.ExperimentConfig(
        problem=problem, mode=mode, max_ndof=max_ndof, out=str(tmp_path)
    )
    histories = bench.run_experiment(config, echo=lambda *_: None).histories
    q = len(quadrature.DEGREE5[1])
    dyadic_calls = 3 * bench.SINGULAR_QUAD_DEPTH + 1  # three children per depth
    levels = 0
    for i, (kind, mesh) in enumerate(events):
        if kind != "level":
            continue
        levels += 1
        calls = defaultdict(list)
        for name, points in itertools.takewhile(
            lambda event: event[0] != "level", events[i + 1:]
        ):
            calls[name].append(points)
        t = mesh.num_triangles
        # the centroids (project_p0), then the shared degree-5 points
        if problem == "eigen_sweep":
            expected = {"f": [t, q * t], "gamma": [t, q * t]}
        else:
            s = int(bench._singular_corners(mesh, (0.0, 0.0)).any(axis=1).sum())
            assert s > 0
            dyadic = [q * s] * dyadic_calls
            expected = {
                "f": [t], "gamma": [t, q * t] + dyadic, "exact": [q * t] + dyadic
            }
        assert calls == expected
    assert levels == sum(len(h.records) for h in histories.values()) >= 3


@pytest.mark.parametrize(
    "problem, mode, max_ndof, finest",
    [("lshape", "uniform", 62000, 61696), ("crack", "adaptive", 20000, 17691)],
    ids=["lshape-uniform-62000", "crack-adaptive-20000"],
)
def test_every_level_factors_once_in_order(
    tmp_path, monkeypatch, problem, mode, max_ndof, finest
):
    # one splu call per level, the reconstruction route's, in the mesh's
    # order (NATURAL column order), and the benchmark's tracer sees every
    # factorization and its fill
    spans = _load_perfbench("spans")
    calls = []
    splu = spla.splu

    def spy(matrix, **options):
        calls.append((matrix.shape[0], options.get("permc_spec")))
        return splu(matrix, **options)

    monkeypatch.setattr(spla, "splu", spy)
    config = bench.ExperimentConfig(
        problem=problem, mode=mode, max_ndof=max_ndof, out=str(tmp_path)
    )
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        result = bench.run_experiment(config, echo=lambda *_: None)
    finally:
        tracer.uninstall()
    (history,) = result.histories.values()
    levels = len(history.records)
    assert history.ndofs[-1] == finest
    assert len(calls) == levels
    assert all(permc == "NATURAL" for _, permc in calls)
    metrics = tracer.metrics()
    assert metrics["solver.factorizations"] == levels
    assert metrics["solver.nnz_lu_direct"] == 0
    assert metrics["solver.nnz_lu_recon"] > 0


def test_level_clock_of_a_sweep_in_lockstep(tmp_path):
    # perfbench/child.py's untraced clock wraps adapt.project_p0 and
    # adapt.adaptive_loop: the sweep's histories share one loop, so each
    # reaction marks the start of its level and the loop's end closes the
    # last, and finest_level_s sums the eight reactions' finest levels
    child = _load_perfbench("child")
    config = bench.ExperimentConfig(
        problem="eigen_sweep", mode="uniform", max_ndof=1000, out=str(tmp_path)
    )
    loop, project = adapt.adaptive_loop, adapt.project_p0
    sample = child._timed(adapt, bench, config)
    assert (adapt.adaptive_loop, adapt.project_p0) == (loop, project)
    levels = sample["levels"]
    # one record per mark but the loop-end one, in level-major order
    assert [lv["ndof"] for lv in levels] == [68] * 8 + [256] * 8 + [992] * 8
    assert {lv["loop"] for lv in levels} == {0}
    assert all(lv["wall_s"] > 0 for lv in levels)
    top = max(lv["ndof"] for lv in levels)
    assert sum(lv["ndof"] == top for lv in levels) == 8
    assert [h["ndof"] for h in sample["histories"].values()] == [[68, 256, 992]] * 8
