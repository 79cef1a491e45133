"""The benchmark's contract with the package.  The names benchmark/tracer.py
wraps exist in the package, and every workload of benchmark/workloads.py
runs its set-up and one operation at its tiny size: a renamed or moved
traced function, or a change to an API the workloads read, fails here, not
only in the benchmark's self-test."""

import importlib.util
import pathlib
import sys

import pytest

import schrodmix

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_benchmark_module(name: str):
    # loaded by path, under a name that no benchmark module imports; it is
    # registered, since a dataclass resolves its module by name
    spec = importlib.util.spec_from_file_location(
        "schrodmix_benchmark_" + name, ROOT / "benchmark" / (name + ".py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load_benchmark_module("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load_benchmark_module("workloads")


def _span_name(func) -> str:
    # the name the tracer gives a wrapped function's spans
    return "%s.%s" % (func.__module__.rsplit(".", 1)[-1], func.__name__)


def test_every_wrapped_binding_is_a_callable(tracer):
    for module_name, attr in tracer.WRAPPED:
        module = getattr(schrodmix, module_name)
        assert callable(getattr(module, attr, None)), "%s.%s" % (module_name, attr)


def test_every_span_the_metrics_read_is_wrapped(tracer):
    spans = {_span_name(getattr(getattr(schrodmix, m), a)) for m, a in tracer.WRAPPED}
    for name in list(tracer._COUNTS) + list(tracer.STEPPING):
        assert name in spans, name


@pytest.mark.parametrize("workload", ["controlled_coupling", "ensemble_mix", "trajectory_io"])
def test_every_workload_runs_at_its_tiny_size(workloads, workload, tmp_path):
    assert sorted(workloads.WORKLOADS) == ["controlled_coupling", "ensemble_mix", "trajectory_io"]
    prep = workloads.prepare(schrodmix, workload, 3, str(tmp_path), "tiny")
    # run_operation raises CheckFailed on an output that fails its checks
    digests, _ = workloads.run_operation(schrodmix, prep, str(tmp_path / "out"))
    assert sorted(digests) == sorted(prep.workload.outputs)
