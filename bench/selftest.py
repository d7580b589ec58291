"""Self-test of the benchmark: its output checks, its span arithmetic, its
metric names and its refusal to run without the package source.

    python3 bench/selftest.py

It takes a few seconds.  The workloads themselves are checked by every run
of ``run.py``, whose ``correct`` is false if a job or the tracing fails.

Exits with status 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def accepted(wl, starspec, result) -> bool:
    try:
        wl.check(starspec, result)
    except workloads.CheckFailed:
        return False
    return True


def cli_result(wl, doc: dict, code: int = 0):
    with open(wl.out_path, "w") as fh:
        json.dump(doc, fh)
    return code, wl.out_path


def check_checkers(starspec) -> None:
    off = 1.0 + 1e-9

    ladder = workloads.make("ladder-tetra", OUT_DIR)
    E = ladder.ref_energy

    def ladder_result(energy, **meta):
        base = dict(converged=True, ladder_deltas=[1e-4, 2e-7], observed_order=9.0)
        base.update(meta)
        return SimpleNamespace(ground_energy=energy, mesh_metadata=base)

    expect(accepted(ladder, starspec, ladder_result(E)), "ladder-tetra: reference energy accepted")
    expect(not accepted(ladder, starspec, ladder_result(E * off)),
           "ladder-tetra: energy off by 1e-9 relative rejected")
    expect(not accepted(ladder, starspec, ladder_result(E, converged=False)),
           "ladder-tetra: unconverged ladder rejected")
    expect(not accepted(ladder, starspec, ladder_result(E, observed_order=1.5)),
           "ladder-tetra: observed order below 2 rejected")

    verify = workloads.make("verify-n12", OUT_DIR)
    E = verify.ref_energy

    def verify_doc(energy, passed=True):
        return {"results": {"passed": passed, "sharp_energy": energy, "degenerate": False}}

    expect(accepted(verify, starspec, cli_result(verify, verify_doc(E))),
           "verify-n12: reference energy accepted")
    expect(not accepted(verify, starspec, cli_result(verify, verify_doc(E * off))),
           "verify-n12: energy off by 1e-9 relative rejected")
    expect(not accepted(verify, starspec, cli_result(verify, verify_doc(E), code=3)),
           "verify-n12: non-zero exit rejected")
    expect(not accepted(verify, starspec, cli_result(verify, verify_doc(E, passed=False))),
           "verify-n12: failed verdict rejected")

    opt = workloads.make("optimize-n4", OUT_DIR)
    E = opt.sharp_energy(starspec)

    def opt_doc(energy, congruent=True, gap=0.0):
        return {"results": {"best_energy": energy, "congruent_to_sharp": congruent},
                "diagnostics": {"kernel_sum_gap": gap}}

    expect(accepted(opt, starspec, cli_result(opt, opt_doc(E))),
           "optimize-n4: the sharp energy accepted")
    # energies are negative: 1e-9 relative above the discrete maximum
    expect(not accepted(opt, starspec, cli_result(opt, opt_doc(E / off))),
           "optimize-n4: energy 1e-9 relative above the sharp star rejected")
    expect(not accepted(opt, starspec, cli_result(opt, opt_doc(E), code=2)),
           "optimize-n4: non-zero exit rejected")
    expect(not accepted(opt, starspec, cli_result(opt, opt_doc(E, congruent=False))),
           "optimize-n4: non-congruent optimum rejected")
    expect(not accepted(opt, starspec, cli_result(opt, opt_doc(E, gap=-1e-9))),
           "optimize-n4: negative kernel sum gap rejected")


def check_self_times() -> None:
    """Self times of nested spans partition the root span, and the check that
    they add up fails when one span's self time goes unreported."""
    tracer = spans.Tracer()
    inner = tracer._wrap("spectral.eigh", lambda: time.sleep(0.1))

    def middle():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer._wrap("spectral.lambda", middle)
    t0 = time.perf_counter()
    tracer.call(spans.ROOT, outer)
    wall = time.perf_counter() - t0
    st = tracer.self_times(0)
    total = sum(s for _, s in st.values())
    expect(st["spectral.eigh"][0] == 2 and st["spectral.lambda"][0] == 1,
           "span counts: 2 inner, 1 middle")
    expect(abs(st["spectral.eigh"][1] - 0.2) < 0.02 and abs(st["spectral.lambda"][1] - 0.01) < 0.01,
           f"self times {st['spectral.eigh'][1]:.4f} s and {st['spectral.lambda'][1]:.4f} s "
           "match the sleeps")
    expect(0.0 <= wall - total < 1e-3,
           f"self times add up to the wall time ({total:.6f} s against {wall:.6f} s)")

    job = {"wall_s": wall, **tracer.metrics(0)}
    m = {"trace.wall_s": wall, "trace.unattributed_s": run.unattributed(job)}
    expect(run.self_times_add_up(m), "the add-up check accepts the reported self times")
    job["spectral.eigh.self_s"] = 0.0
    m["trace.unattributed_s"] = run.unattributed(job)
    expect(not run.self_times_add_up(m),
           "the add-up check rejects a span whose self time goes unreported")


def check_names() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    expect(layer == run.PER_LAYER, "per-layer metrics match BENCHMARK.json")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "workloads match BENCHMARK.json")
    expect(set(spans.SELF_TIME_METRICS) <= set(spans.LAYER_METRICS),
           "every self-time metric is reported")
    covered = sorted(n for names in spans.SELF_TIME_METRICS.values() for n in names)
    expect(covered == spans.Tracer().names,
           "every span name has exactly one self-time metric")


def check_refuses_without_source() -> None:
    """In a directory holding only BENCHMARK.json and bench/, no result."""
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder-tetra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without the source: exit {proc.returncode}, no result printed")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    import starspec

    check_checkers(starspec)
    check_self_times()
    check_names()
    check_refuses_without_source()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
