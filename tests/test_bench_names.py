"""The benchmark's tracer finds the functions it counts by name.

``bench/tracer.py`` wraps functions by their dotted names and takes per-layer
counts from the ones in ``COUNTERS``.  A renamed or deleted function is skipped
there without an error, so its metrics would read 0; this test fails instead.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # compiled from its text, so no bytecode cache is written next to it
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


COUNTED = sorted(load_tracer().COUNTERS)


def test_tracer_counts_some_names():
    assert len(COUNTED) >= 9


@pytest.mark.parametrize("name", COUNTED)
def test_counted_name_resolves(name):
    layer, *attrs = name.split(".")
    target = importlib.import_module(f"lineagekg.{layer}")
    for attr in attrs:
        assert hasattr(target, attr), f"lineagekg.{name} does not exist"
        target = getattr(target, attr)
    assert callable(target)
