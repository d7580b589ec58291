"""Spans around the calls that one starspec module makes into the next.

The wrappers are installed from outside the package, around the functions
and methods listed in ``BOUNDARIES``; the package's own code is unchanged.
Each call records a span (name, start, end, parent span, run id) in memory.
The spans are written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover; one thread runs
everything, so the children never overlap and their durations add up.

Importing this module imports neither starspec nor numpy.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: (span name, module, class or None, attribute).  Several entries may share
#: a span name; they are one boundary.
BOUNDARIES = (
    ("cli.run", "starspec.cli", None, "run"),
    ("optimizer.search", "starspec.optimizer", None, "optimize"),
    ("optimizer.search", "starspec.optimizer", None, "verify_sharp_local_max"),
    ("optimizer.objective", "starspec.optimizer", None, "objective"),
    ("optimizer.objective", "starspec.optimizer", "_WarmObjective", "negative"),
    ("geometry.make_star", "starspec.geometry", None, "make_star"),
    ("spectral.refine", "starspec.spectral", None, "refine_until"),
    ("spectral.root", "starspec.spectral", None, "_solve_level"),
    # one eigenvalue for the root finder, against the eigenvector afterwards
    ("spectral.lambda", "starspec.spectral", "_CurveSolver", "lam"),
    ("spectral.vector", "starspec.spectral", "_CurveSolver", "top_pair"),
    ("spectral.eigh", "scipy.linalg", None, "eigh"),
    ("spectral.eigh", "scipy.linalg", None, "eigvalsh"),
    ("spectral.eigsh", "scipy.sparse.linalg", None, "eigsh"),
    ("discretization.star_matrix", "starspec.discretization", "StarAssembler", "matrix"),
    ("discretization.block", "starspec.discretization", "BlockAssembler", "weighted_block"),
    ("discretization.block_init", "starspec.discretization", "BlockAssembler", "__init__"),
)

#: the root span around one job; its self time is the benchmark's own glue
ROOT = "bench.job"

#: every per-layer metric of a traced job, with its unit
LAYER_METRICS = {
    "cli.run.self_s": "s",
    "optimizer.self_s": "s",
    "optimizer.objective.calls": "count",
    "optimizer.objective.sentinel_frac": "ratio",
    "geometry.make_star.calls": "count",
    "geometry.make_star.self_s": "s",
    "spectral.refine.self_s": "s",
    "spectral.root.calls": "count",
    "spectral.root.self_s": "s",
    "spectral.lambda.calls": "count",
    "spectral.lambda.self_s": "s",
    "spectral.lambda_per_root": "ratio",
    "spectral.vector.calls": "count",
    "spectral.vector.self_s": "s",
    "spectral.eigh.calls": "count",
    "spectral.eigh.self_s": "s",
    "spectral.eigsh.calls": "count",
    "spectral.eigsh.self_s": "s",
    "spectral.dim.max": "count",
    "discretization.star_matrix.calls": "count",
    "discretization.star_matrix.self_s": "s",
    "discretization.star_matrix.bytes": "B",
    "discretization.block.calls": "count",
    "discretization.block.self_s": "s",
    "discretization.block_init.calls": "count",
    "discretization.block_init.self_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
}

#: self-time metrics, one per span name; together they cover the root span
SELF_TIME_METRICS = {
    "cli.run.self_s": ("cli.run",),
    "optimizer.self_s": ("optimizer.search", "optimizer.objective"),
    "geometry.make_star.self_s": ("geometry.make_star",),
    "spectral.refine.self_s": ("spectral.refine",),
    "spectral.root.self_s": ("spectral.root",),
    "spectral.lambda.self_s": ("spectral.lambda",),
    "spectral.vector.self_s": ("spectral.vector",),
    "spectral.eigh.self_s": ("spectral.eigh",),
    "spectral.eigsh.self_s": ("spectral.eigsh",),
    "discretization.star_matrix.self_s": ("discretization.star_matrix",),
    "discretization.block.self_s": ("discretization.block",),
    "discretization.block_init.self_s": ("discretization.block_init",),
    "bench.self_s": (ROOT,),
}


class Tracer:
    """Records spans while installed; ``run_id`` tags the spans of one job."""

    def __init__(self):
        self.names = sorted({b[0] for b in BOUNDARIES} | {ROOT})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("q")
        self.run = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        # observations made from arguments and results, per run id
        self.max_bytes: dict[int, int] = {}
        self.max_dim: dict[int, int] = {}
        self.sentinels: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        nid = self._ids[name]
        names, parent, run, start, end = (
            self.name_id, self.parent, self.run, self.start, self.end
        )
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self._wrap(name, fn)(*args)

    # -- observations ----------------------------------------------------------

    def _observe_matrix(self, args, result):
        rid = self.run_id
        self.max_bytes[rid] = max(self.max_bytes.get(rid, 0), int(result.nbytes))

    def _observe_solve(self, args, result):
        rid = self.run_id
        self.max_dim[rid] = max(self.max_dim.get(rid, 0), int(args[0].shape[0]))

    def _observe_objective(self, args, result):
        if math.isinf(result):
            self.sentinels[self.run_id] = self.sentinels.get(self.run_id, 0) + 1

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self, run_id: int):
        """Wrap every boundary for the duration of one job."""
        self.run_id = run_id
        observers = {
            "discretization.star_matrix": self._observe_matrix,
            "spectral.eigh": self._observe_solve,
            "spectral.eigsh": self._observe_solve,
            "optimizer.objective": self._observe_objective,
        }
        try:
            for name, module, cls, attr in BOUNDARIES:
                target = importlib.import_module(module)
                if cls is not None:
                    target = getattr(target, cls)
                original = target.__dict__[attr]
                wrapped = self._wrap(name, original, observers.get(name))
                self._patch(target, attr, wrapped)
                if cls is None:
                    # names imported into other starspec modules
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name.split(".")[0] != "starspec" or mod is target:
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)
            yield self
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    # -- results ---------------------------------------------------------------

    def self_times(self, run_id: int) -> dict[str, tuple[int, float]]:
        """Calls and summed self time of every span name in one run."""
        import numpy as np

        n = len(self.name_id)
        names = np.frombuffer(self.name_id, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        run = np.frombuffer(self.run, dtype=np.uint16, count=n)
        dur = (np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        mine = run == run_id
        k = len(self.names)
        calls = np.bincount(names[mine], minlength=k)
        total = np.bincount(names[mine], weights=self_s[mine], minlength=k)
        return {
            name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)
        }

    def metrics(self, run_id: int) -> dict[str, float]:
        """Every per-layer metric of one traced job, except the run-level ones."""
        st = self.self_times(run_id)
        calls = {name: c for name, (c, _) in st.items()}
        m = {
            key: sum(st[name][1] for name in names)
            for key, names in SELF_TIME_METRICS.items()
        }
        for key in LAYER_METRICS:
            if key.endswith(".calls"):
                m[key] = calls[key.removesuffix(".calls")]
        objective_calls = calls["optimizer.objective"]
        m["optimizer.objective.sentinel_frac"] = (
            self.sentinels.get(run_id, 0) / objective_calls if objective_calls else 0.0
        )
        roots = calls["spectral.root"]
        m["spectral.lambda_per_root"] = calls["spectral.lambda"] / roots if roots else 0.0
        m["spectral.dim.max"] = self.max_dim.get(run_id, 0)
        m["discretization.star_matrix.bytes"] = self.max_bytes.get(run_id, 0)
        m["trace.spans"] = sum(calls.values())
        return m

    def write(self, path: str) -> None:
        """Write every span recorded so far to an ``.npz`` file."""
        import numpy as np

        n = len(self.name_id)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            run=np.frombuffer(self.run, dtype=np.uint16, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
        )
