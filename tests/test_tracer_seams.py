"""The benchmark's tracer finds every entry point it wraps.

``perfbench/tracer.py`` wraps fedsim's functions by module and attribute
name and counts events through the engine's kind constants. A name that no
longer resolves is reported absent rather than failing, so a rename would
otherwise surface only where the benchmark runs traced; these checks fail
wherever the suite runs.
"""

import importlib

import pytest

from fedsim import engine
from perfbench.tracer import EVENT_KINDS, TARGETS


@pytest.mark.parametrize("module, attribute", [target[:2] for target in TARGETS], ids=[t[2] for t in TARGETS])
def test_every_traced_entry_point_is_a_callable_of_fedsim(module, attribute):
    owner = importlib.import_module(f"fedsim.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"fedsim.{module}.{attribute}"


@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_every_traced_event_kind_has_its_engine_constant(kind):
    assert getattr(engine, kind.upper(), None) is not None
