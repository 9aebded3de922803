"""The names the benchmark's traced run wraps must exist in the package.

`bench/spans.py` replaces module attributes and class methods by name;
a name that the package drops would otherwise surface only as an
AttributeError in `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,attr", [(m, c, a) for m, c, a, *_ in spans.METHODS])
def test_traced_method_resolves(module, cls, attr):
    klass = getattr(importlib.import_module(module), cls)
    assert callable(vars(klass).get(attr))
