"""The benchmark's tracer wraps program functions by name
(perfbench/tracing.py, TARGETS); a rename or deletion of one of them
breaks `perfbench/run.py --trace 1`. This test reads that list without
changing it and checks that every name still resolves in svcnet."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_target_resolves(target):
    owner = importlib.import_module(f"svcnet.{target.module}")
    cls_name, _, attr = target.qualname.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert inspect.isclass(owner)
        assert attr in owner.__dict__  # the tracer replaces the class's own attribute
    assert callable(getattr(owner, attr))
