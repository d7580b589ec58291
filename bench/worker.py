"""One benchmark process: time the set-up of a workload, then run its jobs.

Run by ``run.py``, one fresh process per set-up sample and one per measured
run, so that import time and peak memory belong to this workload alone:

    python3 bench/worker.py --workload NAME --job-seed N --mode setup --result FILE
    python3 bench/worker.py --workload NAME --job-seed N --mode measure \\
        --seconds S --trace 0|1 --result FILE

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
result is a JSON document written to ``--result``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402

#: a measured run stops starting jobs once this many seconds have passed,
#: whatever ``--seconds`` says, so that it ends well within three minutes
HARD_STOP_S = 120.0


def timed_setup(wl, job_seed):
    """Import starspec and build the workload's inputs; returns the time."""
    t0 = perf_counter()
    import starspec

    state = wl.setup(starspec, job_seed)
    return perf_counter() - t0, starspec, state


def run_job(wl, starspec, state, tracer=None, run_id=0):
    """Run and check one job; returns its record."""
    record = {"traced": tracer is not None, "ok": False, "energy": None, "error": None}
    t0 = perf_counter()
    try:
        if tracer is None:
            result = wl.run(starspec, state)
        else:
            with tracer.installed(run_id):
                result = tracer.call(ROOT_SPAN, wl.run, starspec, state)
    except Exception as exc:  # a failed job is counted, not fatal
        record["wall_s"] = perf_counter() - t0
        record["error"] = "".join(traceback.format_exception_only(exc)).strip()
        return record
    record["wall_s"] = perf_counter() - t0
    try:
        record["energy"] = wl.check(starspec, result)
        record["ok"] = True
    except Exception as exc:  # CheckFailed, or output the check cannot read
        record["error"] = "".join(traceback.format_exception_only(exc)).strip()
    return record


#: a job starts only if this many median job times still fit in ``seconds``,
#: so a run ends in time even when its next job is slower than the median
NEXT_JOB_MARGIN = 1.25


def measure(wl, job_seed, seconds, trace):
    """At least one job, and more while they fit in ``seconds``; traced runs
    alternate an untraced and a traced job and always make one of each."""
    setup_s, starspec, state = timed_setup(wl, job_seed)
    tracer = Tracer() if trace else None
    jobs = []
    peak_rss_mib = None
    start = perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        rec = run_job(wl, starspec, state, tracer if traced else None, len(jobs))
        if traced:
            rec.update(tracer.metrics(len(jobs)))
        jobs.append(rec)
        if peak_rss_mib is None:
            # after the first job, so the figure does not depend on the job count
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - start
        estimate = NEXT_JOB_MARGIN * statistics.median(j["wall_s"] for j in jobs)
        if trace and len(jobs) < 2 and elapsed + estimate <= HARD_STOP_S:
            continue
        if elapsed + estimate > min(seconds, HARD_STOP_S):
            break
    doc = {
        "setup_s": setup_s,
        "jobs": jobs,
        "peak_rss_mib": peak_rss_mib,
        "env": environment(),
    }
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"spans-{wl.name}.npz")
        tracer.write(path)
        doc["spans_file"] = os.path.relpath(path, ROOT)
    return doc


def _blas_threads():
    """Thread counts reported by every OpenBLAS library loaded in-process."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return counts
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(lib)] = fn()
                break
    return counts


def _openblas_versions():
    import numpy as np
    import scipy

    out = {}
    for mod in (np, scipy):
        try:
            cfg = mod.show_config(mode="dicts")
            out[mod.__name__] = cfg["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError, AttributeError):
            out[mod.__name__] = None
    return out


def environment():
    import platform

    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_versions(),
        "machine": platform.machine(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--job-seed", type=int, default=None)
    p.add_argument("--mode", required=True, choices=("setup", "measure"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, OUT_DIR)
    if args.mode == "setup":
        doc = {"setup_s": timed_setup(wl, args.job_seed)[0]}
    else:
        doc = measure(wl, args.job_seed, args.seconds, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
