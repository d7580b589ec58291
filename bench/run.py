"""The starspec benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 \\
        [--job-seed N]

Workloads (``workloads.py``): ``ladder-tetra``, ``optimize-n4`` and
``verify-n12``.  Each runs in fresh processes with one BLAS thread:

* set-up: ``SETUP_PROBES`` processes each time ``import starspec`` plus the
  workload's set-up (build the star and meshes, or parse the job document),
  and the measuring process times it once more;
* measuring: one process repeats the job for about ``--seconds`` and checks
  every output.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
time of one job after set-up), ``setup_s`` (median set-up time) and
``peak_rss_mib`` (peak resident memory of the measuring process up to
the end of its first job).  With
``--trace 1`` the measuring process alternates untraced and traced jobs and
the metrics are the per-layer ones from the traced jobs (``spans.py``),
with the tracing overhead (traced minus untraced ``wall_s``).  Failed jobs
(an exception, a non-zero exit status or a failed output check) count in
``failed``; ``error_rate`` is ``failed / attempted``.

``--seed`` seeds the processes' string hashing and is recorded with the
result.  It does not choose the job: the run time of ``optimize-n4`` and
``verify-n12`` depends on their job seed (``--job-seed``, by default 1 and
3) by a factor of three, so runs are comparable only at one job seed.
``ladder-tetra`` has fixed inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
summarise the run.  The full record (environment, commit, every job) goes
to ``.bench_out/``.  Without the package source (``src/starspec``) the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "starspec")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402

#: set-up samples taken in processes of their own, besides the measuring one
SETUP_PROBES = 5
#: time outside the reported self times that a traced job may leave
ADD_UP_SLACK_S = 0.1
#: every process this run starts must end within this many seconds
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
#: per-layer metrics of the whole traced run, besides those of each job
RUN_LAYER_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "check.energy_spread_rel": "ratio",
}
PER_LAYER = {**spans.LAYER_METRICS, **RUN_LAYER_METRICS}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(seed: int) -> dict:
    """``worker.py`` pins the BLAS threads itself, before importing numpy."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_worker(args: list[str], env: dict, deadline: float, tag: str) -> dict:
    """Run ``worker.py`` in a fresh process and return its result document."""
    result = os.path.join(OUT_DIR, f"worker-{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args, "--result", result],
            env=env, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with status {proc.returncode}")
    with open(result) as fh:
        doc = json.load(fh)
    os.remove(result)
    return doc


def tail_percentile(samples: list[float]):
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def git_commit() -> str | None:
    """The commit checked out, or None outside a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def energy_spread(jobs: list[dict]) -> float:
    """(max - min) / |median| of the checked energies of the passing jobs."""
    energies = [j["energy"] for j in jobs if j["ok"]]
    if len(energies) < 2:
        return 0.0
    return (max(energies) - min(energies)) / abs(statistics.median(energies))


def unattributed(job: dict) -> float:
    """A traced job's wall time minus every self time reported for it."""
    return job["wall_s"] - sum(job[k] for k in spans.SELF_TIME_METRICS)


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced jobs, plus the overhead."""
    traced = [j for j in jobs if j["traced"]]
    untraced = [j for j in jobs if not j["traced"]]
    m = {k: statistics.median(j[k] for j in traced) for k in spans.LAYER_METRICS}
    m["trace.wall_s"] = statistics.median(j["wall_s"] for j in traced)
    m["trace.untraced_wall_s"] = statistics.median(j["wall_s"] for j in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.unattributed_s"] = statistics.median(unattributed(j) for j in traced)
    m["check.energy_spread_rel"] = energy_spread(jobs)
    return m


def self_times_add_up(m: dict[str, float]) -> bool:
    """The reported self times cover the traced wall time.

    This checks the tracer's own bookkeeping: every span's self time is
    reported under some metric, and nothing but installing the wrappers
    (a few ms) lies outside the root span.  The slack is fixed rather than the
    measured overhead, which is machine noise of up to seconds.  A slow call
    that is not wrapped passes: its time shows in the self time of the span
    that makes it (``bench.self_s``, ``cli.run.self_s``,
    ``spectral.refine.self_s``, ``optimizer.self_s``).
    """
    slack = max(ADD_UP_SLACK_S, 0.01 * m["trace.wall_s"])
    return abs(m["trace.unattributed_s"]) <= slack


def bench(args) -> tuple[dict, list[str]]:
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        raise BenchError(f"no package source at {os.path.relpath(SRC, ROOT)}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env(args.seed)
    job_seed = args.job_seed
    if job_seed is None:
        job_seed = workloads.WORKLOADS[args.workload].default_seed
    common = ["--workload", args.workload]
    if job_seed is not None:
        common += ["--job-seed", str(job_seed)]

    setup = [
        run_worker(common + ["--mode", "setup"], env, deadline, f"setup{i}")["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    doc = run_worker(
        common + ["--mode", "measure", "--seconds", str(args.seconds),
                  "--trace", str(args.trace)],
        env, deadline, "measure",
    )
    setup.append(doc["setup_s"])
    jobs = doc["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    correct = failed == 0
    notes = []
    if args.trace:
        values = layer_metrics(jobs)
        units = PER_LAYER
        if not self_times_add_up(values):
            correct = False
            notes.append("per-layer self times do not add up to the traced wall time")
    else:
        walls = [j["wall_s"] for j in jobs]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": doc["peak_rss_mib"],
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "job_seed": job_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "env": doc["env"],
        "setup_samples_s": setup,
        "peak_rss_mib": doc["peak_rss_mib"],
        "jobs": jobs,
        "spans_file": doc.get("spans_file"),
        "result": result,
    }
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result, summary(record, notes, os.path.relpath(path, ROOT))


def summary(record: dict, notes: list[str], path: str) -> list[str]:
    jobs = record["jobs"]
    walls = [j["wall_s"] for j in jobs if not j["traced"]]
    result = record["result"]
    env = record["env"]
    tail = tail_percentile(walls)
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  job seed "
        f"{record['job_seed']}  trace {record['trace']}  commit "
        f"{record['git_commit'] or 'unknown'}",
        f"env: nproc {env['nproc']}, BLAS threads {env['blas_threads']}, Python "
        f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, OpenBLAS "
        f"{env['openblas']}",
        f"wall_s: median {statistics.median(walls):.4f} s over {len(walls)} "
        f"untraced jobs; tail percentile: "
        + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "none (fewer than 10 samples beyond p90)"),
        f"setup_s: median {statistics.median(record['setup_samples_s']):.4f} s over "
        f"{len(record['setup_samples_s'])} processes",
        f"peak_rss_mib: {record['peak_rss_mib']:.1f} MiB",
        f"error_rate: {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.3g}",
        "energies: " + ", ".join(
            repr(j["energy"]) if j["ok"] else f"FAILED ({j['error']})" for j in jobs
        ) + f"; spread {energy_spread(jobs):.3g} relative",
    ]
    if record["trace"]:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        lines.append(
            f"tracing overhead: {m['trace.overhead_s']:.4f} s (traced "
            f"{m['trace.wall_s']:.4f} s, untraced {m['trace.untraced_wall_s']:.4f} s), "
            f"unattributed {m['trace.unattributed_s']:.2e} s"
        )
    lines += notes
    lines.append(f"record: {path}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--job-seed", type=int, default=None,
                   help="seed of the optimize and verify jobs (default: 1 and 3)")
    args = p.parse_args(argv)
    try:
        result, lines = bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
