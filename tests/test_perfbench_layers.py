"""The benchmark tracer wraps afem functions by module attribute; every
layer it names must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from afem import adapt, bench
from afem import problem as afem_problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.LAYERS and not missing


@pytest.mark.parametrize(
    "problem, mode, max_ndof, dump_systems",
    [
        ("lshape", "uniform", 4000, False),
        ("crack", "adaptive", 1500, False),
        ("lshape", "uniform", 4000, True),
    ],
    ids=["lshape-uniform-4000", "crack-adaptive-1500", "lshape-uniform-4000-dump"],
)
def test_level_clock_sees_one_projection_per_level(
    tmp_path, monkeypatch, problem, mode, max_ndof, dump_systems
):
    # perfbench/child.py timestamps every level at adapt.project_p0, and
    # perfbench/spans.py opens a level span at each problem.project_p0
    # called under the loop, so no level may project twice
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
    (history,) = bench.run_experiment(config, echo=lambda *_: None).histories.values()
    assert len(history.records) >= 3
    assert seen == history.ndofs
