"""The names the benchmark's tracer (bench/tracer.py) wraps must exist,
so a rename that would break the traced benchmark fails here first.
The tracer module is only loaded; nothing is installed."""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from distgraphs.experiments import ExperimentReport
from distgraphs.field import FieldSpec

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for layer, fns in tracer.TRACED.items():
        module = importlib.import_module(f"distgraphs.{layer}")
        for name in fns:
            assert callable(getattr(module, name, None)), f"distgraphs.{layer}.{name}"


@pytest.mark.parametrize(
    "layer, name, position, param",
    [("adreg", "annulus_stats", 1, "centers"), ("ffgeom", "distance_histogram", 0, "E"),
     ("experiments", "_run_instances", 0, "instances")],
)
def test_counted_arguments_keep_their_positions(layer, name, position, param):
    # The tracer's work counters read these arguments by position.
    fn = getattr(importlib.import_module(f"distgraphs.{layer}"), name)
    assert list(inspect.signature(fn).parameters)[position] == param


def test_traced_tables_are_cached_properties(tracer):
    for table in tracer.TABLES:
        assert isinstance(FieldSpec.__dict__.get(table), functools.cached_property), table


def test_report_has_records_csv():
    assert callable(getattr(ExperimentReport, "records_csv", None))
