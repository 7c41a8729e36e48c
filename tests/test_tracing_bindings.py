"""The benchmark tracer rebinds fdrelay functions by (module, attribute) name.

A name missing from the package makes every traced benchmark row fail, so
each one is resolved here, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {**tracing.SPANS, **tracing.COUNTS}


BINDINGS = _bindings()


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_traced_name_resolves(name):
    module, attr = BINDINGS[name]
    assert callable(getattr(importlib.import_module(module), attr, None)), name
