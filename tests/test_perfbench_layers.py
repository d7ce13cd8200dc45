"""The benchmark tracer wraps afem functions by module attribute; every
layer it names must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

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
