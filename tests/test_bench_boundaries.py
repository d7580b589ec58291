"""The benchmark still works with the program: its span boundaries name
attributes of the program, and its self-test passes.

``bench/spans.py`` wraps each boundary through ``__dict__`` lookups, so a
renamed function or method would make ``bench/run.py --trace 1`` fail only
when it runs.  These tests read and run ``bench/`` and change nothing there.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def test_bench_selftest_passes():
    # the checkers, the span arithmetic and the imports of bench/run.py
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
