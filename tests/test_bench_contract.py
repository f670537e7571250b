"""The program names the benchmark calls or wraps still resolve.

bench/run.py calls entry points and helpers through ``modules["layer"]``,
its ``Probe`` observes spans by their ``layer.qualname``, and
``bench/spans.METHODS`` lists the methods a traced run wraps.  A change
that deletes or renames one of those names breaks only the benchmark;
these checks catch it in the ordinary test suite.  They read bench/ and
change nothing there.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling modules by bare name
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def modules(run):
    return {m: importlib.import_module(f"freegroups.{m}") for m in run.MODULES}


def resolve(modules, dotted: str):
    layer, *path = dotted.split(".")
    obj = modules[layer]
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_run_module_attributes_resolve(run, modules):
    used = set(re.findall(r'modules\["(\w+)"\]\.(\w+)', (BENCH / "run.py").read_text()))
    assert ("primitivity", "whitehead_minimize") in used
    for layer, attr in sorted(used):
        assert callable(resolve(modules, f"{layer}.{attr}")), (layer, attr)
    api = run.entry_points(modules)
    assert all(callable(fn) for fn in vars(api).values())


def test_methods_resolve(run, modules):
    spans = sys.modules["spans"]
    for layer, classes in spans.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                # the tracer patches the class's own attribute
                assert callable(cls.__dict__.get(meth)), f"{layer}.{cls_name}.{meth}"


def test_observers_name_wrapped_functions(run, modules):
    observed = set(run.Probe().tracer.observers)
    assert "verify.run_claims" in observed
    for name in observed:
        assert callable(resolve(modules, name)), name
    # an observer fires only on a span of its name, so each name must be
    # one the traced run wraps
    tracer = run.Tracer()
    tracer.install(modules)
    try:
        run.entry_points(modules, tracer)
    finally:
        tracer.uninstall()
    assert observed <= set(tracer.names), sorted(observed - set(tracer.names))
