"""The benchmark's tracer wraps `segtransfer` functions by name and skips
a name it cannot find, so a rename in `src/` would read as a per-layer
metric of 0 rather than fail.  This guard loads `benchmarks/tracer.py`
as it is and checks that every function it wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# wrapped by the tracer, gone from the package; their metrics read 0
GONE = {
    ("toy_pipeline", "pixel_features"),
    ("toy_pipeline", "backward_all"),
    ("toy_pipeline", "prob_map_stats"),
    ("transfer", "batch_centroids"),
}


def wrapped_functions():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer._wrappers(tracer.Recorder("guard")))


def exists(module, name):
    return callable(getattr(importlib.import_module(f"segtransfer.{module}"), name, None))


@pytest.mark.parametrize("module,name", wrapped_functions())
def test_every_wrapped_function_exists(module, name):
    assert exists(module, name) != ((module, name) in GONE)
