"""The benchmark's span boundaries still name attributes of the program.

``bench/spans.py`` wraps each boundary through ``__dict__`` lookups, so a
renamed function or method would make ``bench/run.py --trace 1`` fail only
when it runs.  This test reads ``bench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize(
    "name, module, cls, attr", load_boundaries(), ids=str
)
def test_boundary_resolves(name, module, cls, attr):
    target = importlib.import_module(module)
    if cls is not None:
        target = target.__dict__[cls]
    assert attr in target.__dict__, f"{name}: {module}.{cls or ''}.{attr} is gone"
    assert callable(target.__dict__[attr])
