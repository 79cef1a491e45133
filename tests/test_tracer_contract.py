"""The names benchmark/tracer.py wraps exist in the package: a renamed or
moved traced function fails here, not only in the benchmark's self-test."""

import importlib.util
import pathlib

import pytest

import schrodmix

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    # loaded by path, under a name that no benchmark module imports
    spec = importlib.util.spec_from_file_location(
        "schrodmix_benchmark_tracer", ROOT / "benchmark" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
