"""The names the benchmark's tracer (bench/tracer.py) wraps must exist,
and the configs of its workloads (bench/workloads.py) must read and
expand, so a change that would break the benchmark fails here first.
Both modules are only loaded by path; nothing is installed or run."""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from distgraphs.experiments import SWEEPS, ExperimentConfig, ExperimentReport, _read_params
from distgraphs.field import FieldSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_configs_expand(workloads, seed):
    # Each config passes the checks the bench's sweeps make before their
    # first instance runs: the config, its sweep's param table, expand.
    for name in workloads.NAMES:
        for doc in workloads.configs(name, seed):
            config = ExperimentConfig.from_dict(doc)
            sweep = SWEEPS[config.kind]
            assert sweep.expand(_read_params(config.params, sweep.params), config.seed), name


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
