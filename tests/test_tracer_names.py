"""The benchmark tracer's tables name functions that exist.

``perfbench/tracer.py`` wraps functions by module and name; a renamed or
deleted function would make a traced benchmark run fail at start-up.  The
tracer's source is read and executed, never imported, so nothing is written
next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """The tracer module, executed from its source; no bytecode is written."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _named():
    tracer = _tracer()
    root_layer, root_attr = tracer.ROOT.split(".")
    names = [(root_layer, root_attr), ("knowledge", "KnowledgeBase.advance_slot")]
    # perfbench/test_perfbench.py reads these where the tracer patches them
    names += [("verify", "lift_rows"), ("schemes", "generate_states"),
              ("knowledge", "solve_full_column_rank")]
    for table in (tracer.SPANNED, tracer.COUNTED):
        names += [(layer, attr) for layer, attrs in table.items() for attr in attrs]
    return names


@pytest.mark.parametrize("layer,attr", _named())
def test_traced_name_resolves(layer, attr):
    target = importlib.import_module(f"xsdof.{layer}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
