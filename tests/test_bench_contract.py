"""The names the benchmark tracer wraps must exist in t2mc.

`bench/tracer.py` resolves each traced function by module and attribute
path, and each counted operator in its class's own ``__dict__``; a rename or
a move into a base class would otherwise only show when a traced benchmark
run crashes.  The tracer is loaded by file path and only read: nothing is
installed or run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, path):
    owner = importlib.import_module(f"t2mc.{module_name}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def test_spans_and_counters_resolve(tracer):
    entries = list(tracer.SPANS.values()) + list(tracer.COUNTERS.values())
    assert entries
    for module_name, path in entries:
        owner, attr = _owner(module_name, path)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{path}"


def test_operators_are_bound_in_their_own_class(tracer):
    paths = [(module_name, path)
             for module_name, paths in tracer.OPERATORS.values()
             for path in paths]
    assert paths
    for module_name, path in paths:
        owner, attr = _owner(module_name, path)
        assert isinstance(owner, type), f"{module_name}.{path}"
        assert callable(owner.__dict__.get(attr)), f"{module_name}.{path}"
