"""The names the benchmark tracer wraps must exist in t2mc, and the
pipeline functions its workloads must reach must be reached.

`bench/tracer.py` resolves each traced function by module and attribute
path, and each counted operator in its class's own ``__dict__``; a rename or
a move into a base class would otherwise only show when a traced benchmark
run crashes.  The tracer is loaded by file path and only read: nothing is
installed or run.  `bench/workloads.py` is parsed, not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


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


def _pipeline_names():
    """The `_PIPELINE` tuple of `bench/workloads.py`, read without
    importing the file."""
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_PIPELINE"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no _PIPELINE in bench/workloads.py")


def test_rep_to_mc_reaches_every_pipeline_function(monkeypatch):
    """The benchmark requires its workloads to reach these functions; a
    unipotent J4 at bound 4 enters each of them."""
    from t2mc.qlinalg import Matrix
    from t2mc.torus_rep import TorusRep

    names = _pipeline_names()
    assert names
    calls = dict.fromkeys(names, 0)
    for name in names:
        owner, attr = _owner(*name.split(".", 1))
        real = getattr(owner, attr)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    n = 4
    j4 = Matrix.from_rows([[int(j in (i, i + 1)) for j in range(n)]
                           for i in range(n)])
    owner, attr = _owner("mcdg", "rep_to_mc")
    getattr(owner, attr)(TorusRep(j4, Matrix.identity(n)), bound=4)
    assert all(calls.values()), calls
