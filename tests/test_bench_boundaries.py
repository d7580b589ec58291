"""The benchmark still works with the program: its span boundaries name
attributes of the program, the wrapped objectives return what the spans
read, and its self-test passes.

``bench/spans.py`` wraps each boundary through ``__dict__`` lookups, so a
renamed function or method would make ``bench/run.py --trace 1`` fail only
when it runs.  These tests read and run ``bench/`` and change nothing there.
"""

import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starspec.optimizer import _WarmObjective, objective, search_mesh

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


@pytest.mark.parametrize("params, sentinel", [([2.0, 1.0, 2.5], False), ([5e-4, 1.0, 2.5], True)])
def test_objective_boundaries_return_floats(params, sentinel):
    # spans.py counts the sentinels of "optimizer.objective" with
    # math.isinf on the result of objective and _WarmObjective.negative
    mesh = search_mesh(5.0)
    warm = _WarmObjective(3, 0.0, mesh)
    warm.kappa, warm._T = 1.0, warm._diag.weighted_block(1.0)
    for value in (objective(params, 3, 5.0, 0.0, mesh), warm.negative(np.array(params))):
        assert type(value) is float
        assert math.isinf(value) is sentinel
