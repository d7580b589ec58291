import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starspec import discretization
from starspec.cli import (
    _GROUPS, COMMANDS, MAX_BATCH_ENTRIES, main, parse_job, render_json, run,
)
from starspec.discretization import build_mesh
from starspec.errors import ParseError
from starspec.geometry import make_star, sharp_configuration
from starspec.spectral import bound_states, solve_energy


def job_text(**kw):
    return json.dumps(kw)


MINIMAL_SPECTRUM = {
    "command": "spectrum",
    "star": {"sharp": 4},
    "alpha": 0.0,
    "arm_length": 5.0,
}


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_json_blocks() -> list[str]:
    """The fenced ``json`` blocks of README.md."""
    with open(README) as fh:
        parts = fh.read().split("```json\n")[1:]
    return [part.split("```", 1)[0] for part in parts]


class TestParseJob:
    def test_readme_examples_parse(self):
        blocks = readme_json_blocks()
        assert blocks
        for block in blocks:
            parse_job(block)

    def test_benchmark_jobs_parse(self, tmp_path):
        path = os.path.join(os.path.dirname(README), "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        jobs = [w(str(tmp_path)) for w in workloads.WORKLOADS.values()
                if hasattr(w, "document")]
        assert jobs
        for w in jobs:
            parse_job(json.dumps(w.document(w.default_seed)))

    def test_minimal_defaults(self):
        job = parse_job(job_text(**MINIMAL_SPECTRUM))
        assert job.doc["command"] == "spectrum"
        assert job.doc["star"] == {"sharp": 4}
        assert job.doc["mesh"] == {"panels": 8, "order": 12, "grading": 2.0}
        assert job.doc["solver"] == {"levels": 1}
        assert job.doc["output"] == {"path": None}
        # spectrum reads no search settings, so it takes and echoes none
        assert "optimize" not in job.doc

    def test_unsupported_sharp(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 5},
                               alpha=0.0, arm_length=1.0))

    def test_both_star_sources_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum",
                               star={"sharp": 4, "directions": [[0, 0, 1]]},
                               alpha=0.0, arm_length=1.0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=1.0, turbo=True))
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=1.0,
                               mesh={"panels": 8, "extra": 1}))

    def test_negative_length_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=-5.0))

    def test_invalid_json_context(self):
        with pytest.raises(ParseError, match="line"):
            parse_job("{not json}")

    def test_sweep_requirements(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="sweep-angle", alpha=0.0, arm_length=1.0))
        job = parse_job(job_text(command="sweep-angle", alpha=0.0, arm_length=1.0,
                                 sweep={"phi_min": 0.5, "phi_max": 3.0, "count": 3}))
        assert job.doc["sweep"]["count"] == 3

    def test_sweep_star_conflict(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="sweep-angle", star={"sharp": 2},
                               alpha=0.0, arm_length=1.0,
                               sweep={"phi_min": 0.5, "phi_max": 3.0, "count": 3}))

    def test_explicit_directions(self):
        job = parse_job(job_text(command="design-check",
                                 star={"directions": [[0, 0, 1], [0, 0, -1]]},
                                 design={"order": 1}))
        assert job.doc["star"]["directions"] == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


class TestBatchBound:
    """Correction batches are bounded at parse time, from the layout alone."""

    def test_general_star_at_the_size_caps_exits_2_unallocated(self, tmp_path, capsys):
        # 128 random arms at 8 panels of order 16 fill MAX_ROWS; their 8,128
        # distinct chords and diagonal block would ask for batches of 4.7e8
        # entries (3.5 GiB): 4.0e8 prototype values and 7.5e7 distances
        dirs = np.random.default_rng(0).standard_normal((128, 3))
        dirs = (dirs / np.linalg.norm(dirs, axis=1)[:, None]).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(job_text(command="spectrum", star={"directions": dirs},
                                alpha=0.0, arm_length=1.0,
                                mesh={"panels": 8, "order": 16}))
        tracemalloc.start()
        try:
            code = main(["--job", str(bad), "--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"more than {MAX_BATCH_ENTRIES} entries" in capsys.readouterr().err
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("sharp", [4, 6])
    def test_sharp_stars_at_the_size_caps_parse(self, sharp):
        parse_job(job_text(command="spectrum", star={"sharp": sharp}, alpha=0.0,
                           arm_length=5.0, mesh={"panels": 128, "order": 16}))


class TestRun:
    def test_spectrum_roundtrip(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 2}, alpha=0.0, arm_length=6.0,
            mesh={"panels": 6, "order": 8},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"job_echo", "results", "diagnostics", "versions", "meta"}
        assert doc["results"]["levels"][0]["j"] == 1
        assert doc["results"]["levels"][0]["energy"] < 0
        assert doc["diagnostics"]["ground_vector_positivity"] is True
        assert doc["diagnostics"]["parity"] == "symmetric"

    def test_determinism_outside_meta(self, tmp_path):
        out = tmp_path / "res.json"
        texts = []
        for _ in range(2):
            job = parse_job(job_text(
                command="design-check", star={"sharp": 6}, design={"order": 3},
                output={"path": str(out)},
            ))
            assert run(job) == 0
            doc = json.loads(out.read_text())
            doc.pop("meta")
            texts.append(render_json(doc))
        assert texts[0] == texts[1]

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="bounds", star={"sharp": 2}, alpha=0.125, arm_length=4.0,
            bounds={"phi": 0.1},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        text = out.read_text()
        doc = json.loads(text)
        val = doc["results"]["segment_existence_length"]
        import math

        assert val == pytest.approx(2 * math.pi * math.exp(2 * math.pi * 0.125
                                                           + 0.5772156649015329),
                                    rel=1e-15)

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        job = parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=6.0,
            sweep={"phi_min": 1.5, "phi_max": 3.0, "count": 3},
            mesh={"panels": 6, "order": 8},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi,E_1,E_1_plus_bound"
        assert len(lines) == 4
        for row in lines[1:]:
            assert len(row.split(",")) == 3

    def test_two_arm_outputs_pinned(self, tmp_path):
        # two-arm stars solve their top on the 48-row sector matrix, so
        # BLAS threading cannot change the bits: the CSV and the levels at
        # 17 digits, as the two-sector solver gave them
        out = tmp_path / "sweep.csv"
        assert run(parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=2.0,
            sweep={"phi_min": 0.05, "phi_max": math.pi, "count": 5},
            mesh={"panels": 6, "order": 8}, output={"path": str(out)},
        ))) == 0
        assert out.read_text() == (
            "phi,E_1,E_1_plus_bound\n"
            "0.050000000000000003,-506.82277335039294,-10.143382549462128\n"
            "0.82289816339744837,-2.8704823999405127,1.6791868350486259\n"
            "1.5957963267948967,-1.2924715687012438,2.0270587454748181\n"
            "2.368694490192345,-0.95814738696312496,2.1270657181795465\n"
            "3.1415926535897931,-0.88253724979697112,2.152164348585146\n"
        )
        out = tmp_path / "res.json"
        assert run(parse_job(job_text(
            command="spectrum", star={"directions": [[0, 0, 1], [0.8, 0, 0.6]]},
            alpha=0.0, arm_length=3.0, mesh={"panels": 6, "order": 8},
            output={"path": str(out)},
        ))) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["levels"][0] == {
            "j": 1, "kappa": 1.5732137543713216, "energy": -2.475001516943109}
        assert doc["diagnostics"]["parity"] == "symmetric"

    def test_multi_chord_outputs_pinned(self, tmp_path):
        # perturbed octahedra have up to 15 distinct chords, built as one
        # correction batch; 96 rows on the dense LAPACK path, so BLAS
        # threading cannot change the bits.  Values as the per-chord
        # batches gave them: the joint batch moves them by rounding only
        out = tmp_path / "res.json"
        assert run(parse_job(job_text(
            command="verify-sharp", star={"sharp": 6}, alpha=0.0, arm_length=3.0,
            mesh={"panels": 4, "order": 4}, verify={"scale": 0.05, "trials": 2},
            optimize={"seed": 3}, output={"path": str(out)},
        ))) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"] is True
        assert doc["results"]["sharp_energy"] == pytest.approx(-78.70730765788537, rel=1e-13)
        assert doc["diagnostics"]["perturbed_energies"] == pytest.approx(
            [-78.97980028278756, -78.98891978148941], rel=1e-13)

    def test_design_check_results(self):
        job = parse_job(job_text(command="design-check", star={"sharp": 12},
                                 design={"order": 5}))
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run(job) == 0
        doc = json.loads(buf.getvalue())
        assert doc["results"]["is_design"] is True

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        job = parse_job(job_text(
            command="optimize", star={"sharp": 2}, alpha=3.0, arm_length=0.2,
            optimize={"starts": 2, "seed": 0},
            output={"path": str(out)},
        ))
        assert run(job) == 3
        assert not out.exists()

    def test_tiny_arm_length_has_no_bound_state(self, tmp_path):
        # an arm far shorter than 1, but above the mesh's limit, runs
        # without a float warning
        out = tmp_path / "res.json"
        job = parse_job(job_text(**dict(MINIMAL_SPECTRUM, arm_length=1e-100),
                                 output={"path": str(out)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(job) == 0
        doc = json.loads(out.read_text())
        assert (doc["results"]["levels"], doc["diagnostics"]["bound_states"]) == ([], 0)

    @pytest.mark.parametrize("star, record", [
        ({"sharp": 4}, {"path": "sector", "dim": 48, "group_counts": [3],
                        "warm_evaluations": 0}),
        ({"directions": [[0, 0, 1], [1, 0, 0], [0.6, 0.8, 0]]},
         {"path": "dense", "dim": 144, "group_counts": None, "warm_evaluations": 0}),
    ], ids=["sharp4", "asymmetric3"])
    def test_spectrum_eigensolver_record(self, star, record, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star=star, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, output={"path": str(out)},
        ))
        assert run(job) == 0
        assert json.loads(out.read_text())["diagnostics"]["eigensolver"] == record

    def test_spectrum_root_evaluations(self, tmp_path):
        # the ground root's lambda evaluations, as the library counts them
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 4}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, output={"path": str(out)},
        ))
        assert run(job) == 0
        star = make_star(sharp_configuration(4), 5.0, 0.0)
        res = bound_states(star, build_mesh(5.0, 6, 8, 2.0), 0.0)[1]
        assert 1 <= res.root_evaluations <= 6
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["root_evaluations"] == res.root_evaluations

    def test_verify_solves_as_the_library(self, tmp_path):
        # the job sets no root tolerance: its sharp energy is the library's
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="verify-sharp", star={"sharp": 2}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 4, "order": 6}, verify={"trials": 1}, output={"path": str(out)},
        ))
        assert run(job) == 0
        sharp_energy = json.loads(out.read_text())["results"]["sharp_energy"]
        star = make_star(sharp_configuration(2), 5.0, 0.0)
        assert sharp_energy == solve_energy(star, build_mesh(5.0, 4, 6, 2.0), 0.0)[1]

    def test_bounds_near_coincident_arms(self, tmp_path, capsys):
        # make_star admits arms 1e-9 rad apart; tau(1e-9) is about 3.63
        out = tmp_path / "res.json"
        jb = tmp_path / "job.json"
        jb.write_text(job_text(command="bounds", alpha=0.0, arm_length=1.0,
                               star={"directions": [[0, 0, 1], [1e-9, 0, 1]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--job", str(jb), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        threshold = json.loads(out.read_text())["results"]["nonexistence_threshold"]
        assert math.isfinite(threshold)
        assert threshold == pytest.approx(3.6291635951864, rel=1e-9)

    def test_bounds_report(self, tmp_path, monkeypatch):
        from starspec import bounds

        calls = []
        tau = bounds.offdiag_norm_bound
        monkeypatch.setattr(bounds, "offdiag_norm_bound",
                            lambda phi: calls.append(np.size(phi)) or tau(phi))
        bounds._pair_top.cache_clear()
        out = tmp_path / "res.json"
        jb = tmp_path / "job.json"
        jb.write_text(job_text(command="bounds", star={"sharp": 4}, alpha=0.0, arm_length=1.0,
                               bounds={"phi": 0.1}, output={"path": str(out)}))
        assert main(["--job", str(jb)]) == 0
        doc = json.loads(out.read_text())
        # tau in one pass over the pairs of the star, and once for the
        # two-arm star at phi
        assert calls == [6, 1]
        results = doc["results"]
        assert set(results) == {"segment_existence_length", "nonexistence_threshold",
                                "energy_lower_bound", "small_angle"}
        assert results["energy_lower_bound"] < 0.0
        b = results["small_angle"]
        assert set(b) == {"phi", "k", "lower", "upper"}
        assert b["upper"] == -2.7451211450647612
        assert b["lower"] == pytest.approx(-8111.03, abs=0.01)
        assert doc["diagnostics"] == {}

    def test_arpack_runs_repeat(self, tmp_path):
        # the perturbed icosahedra take the ARPACK path (1152 rows)
        texts = []
        for _ in range(2):
            out = tmp_path / "res.json"
            job = parse_job(job_text(
                command="verify-sharp", star={"sharp": 12}, alpha=0.0, arm_length=3.0,
                verify={"trials": 2}, optimize={"seed": 3},
            ))
            assert run(job, out_path=str(out)) == 0
            doc = json.loads(out.read_text())
            doc.pop("meta")
            texts.append(render_json(doc))
        assert texts[0] == texts[1]

    def test_search_through_subset_driver_failures(self, tmp_path):
        # LAPACK's subset driver fails at some kappas of this 8 x 8 search
        # matrix; the search falls back to the full driver there
        job = parse_job(job_text(
            command="optimize", star={"sharp": 2}, alpha=-1.0,
            arm_length=1.2313601059970256, mesh={"panels": 2, "order": 2, "grading": 1.0},
            optimize={"starts": 1},
        ))
        assert run(job, out_path=str(tmp_path / "res.json")) == 0


#: one minimal document per JSON-writing command (sweep-angle writes CSV,
#: which has no echo) and its ``job_echo``: the document normalized, the
#: defaults of every group the command reads filled in, keys in a fixed order
ECHOES = {
    "spectrum": (MINIMAL_SPECTRUM, {
        **MINIMAL_SPECTRUM,
        "mesh": {"panels": 8, "order": 12, "grading": 2.0},
        "solver": {"levels": 1},
        "output": {"path": None},
    }),
    "optimize": (
        {"command": "optimize", "star": {"sharp": 2}, "alpha": 0, "arm_length": 5,
         "optimize": {"starts": 1}},
        {"command": "optimize", "star": {"sharp": 2}, "alpha": 0, "arm_length": 5,
         "mesh": {"panels": 3, "order": 5, "grading": 2.0},
         "optimize": {"starts": 1, "seed": 0},
         "output": {"path": None}},
    ),
    "verify-sharp": (
        {"command": "verify-sharp", "star": {"sharp": 2}, "alpha": -0.5, "arm_length": 3.0,
         "verify": {"trials": 1}},
        {"command": "verify-sharp", "star": {"sharp": 2}, "alpha": -0.5, "arm_length": 3.0,
         "mesh": {"panels": 12, "order": 8, "grading": 2.0},
         "optimize": {"seed": 0},
         "verify": {"scale": 0.05, "trials": 1},
         "output": {"path": None}},
    ),
    "bounds": (
        {"command": "bounds", "star": {"directions": [[0, 0, 1], [1, 0, 0]]},
         "alpha": 0.25, "arm_length": 2},
        {"command": "bounds", "star": {"directions": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]},
         "alpha": 0.25, "arm_length": 2,
         "bounds": {"phi": None, "k": 1},
         "output": {"path": None}},
    ),
    "design-check": (
        {"command": "design-check", "star": {"sharp": 6}},
        {"command": "design-check", "star": {"sharp": 6},
         "design": {"order": 3},
         "output": {"path": None}},
    ),
}


class TestJobEcho:
    @pytest.mark.parametrize("command", sorted(ECHOES))
    def test_minimal_document_echo(self, command, tmp_path):
        document, expected = ECHOES[command]
        out = tmp_path / "res.json"
        assert run(parse_job(json.dumps(document)), out_path=str(out)) == 0
        echo = json.loads(out.read_text())["job_echo"]
        assert echo == expected
        assert list(echo) == list(expected)

    @pytest.mark.parametrize("command", ["optimize", "verify-sharp"])
    def test_echo_reruns_the_job(self, command, tmp_path):
        # the echo names the mesh the command solved on, so running the
        # echo as the job gives the same answer
        document, _ = ECHOES[command]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(parse_job(json.dumps(document)), out_path=str(first)) == 0
        out = json.loads(first.read_text())
        assert run(parse_job(json.dumps(out["job_echo"])), out_path=str(second)) == 0
        again = json.loads(second.read_text())
        for key in ("results", "diagnostics"):
            assert again[key] == out[key], key


def count_star_assemblers(monkeypatch):
    calls = []
    init = discretization.StarAssembler.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(discretization.StarAssembler, "__init__", counting_init)
    return calls


class TestOneSolverPerStar:
    def test_spectrum_two_levels(self, tmp_path, monkeypatch):
        calls = count_star_assemblers(monkeypatch)
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 4}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, solver={"levels": 2},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        assert len(calls) == 1
        doc = json.loads(out.read_text())
        levels = doc["results"]["levels"]
        # 17-digit output of the solver that built one assembler per call;
        # level 1 comes from the 48-row sector matrix
        assert levels[0] == {"j": 1, "kappa": 4.087130620703261, "energy": -16.704636710690227}
        # level 2 comes from the full 192-row matrix, whose eigensolve rounds
        # differently with the BLAS thread count: check it against the
        # library in this process
        _, res = bound_states(
            make_star(sharp_configuration(4), 5.0, 0.0), build_mesh(5.0, 6, 8, 2.0), 0.0, 2
        )
        assert levels[1] == {"j": 2, "kappa": res.levels[1].kappa, "energy": res.levels[1].energy}
        assert doc["diagnostics"]["bound_states"] == 6

    def test_sweep_one_per_angle(self, tmp_path, monkeypatch):
        calls = count_star_assemblers(monkeypatch)
        job = parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=6.0,
            sweep={"phi_min": 1.5, "phi_max": 3.0, "count": 3},
            mesh={"panels": 6, "order": 8},
            output={"path": str(tmp_path / "sweep.csv")},
        ))
        assert run(job) == 0
        assert len(calls) == 3

    def test_sweep_takes_no_full_eigendecomposition(self, tmp_path, monkeypatch):
        # the CSV prints no level count, so no angle solves the whole
        # spectrum at kappa = 0; an angle whose level does not cross gets an
        # empty E_1 (at alpha = 0.3 only the narrowest pair, phi = 0.05,
        # has a level)
        import scipy.linalg as sla

        eigh, full = sla.eigh, []

        def counting_eigh(*args, **kwargs):
            full.append("subset_by_index" not in kwargs)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigh", counting_eigh)
        for alpha, crossing in ((0.0, 12), (0.3, 1)):
            out = tmp_path / f"sweep{alpha}.csv"
            assert run(parse_job(job_text(
                command="sweep-angle", alpha=alpha, arm_length=1.0,
                sweep={"phi_min": 0.05, "phi_max": math.pi, "count": 12},
                output={"path": str(out)},
            ))) == 0
            rows = out.read_text().strip().splitlines()[1:]
            assert len(rows) == 12
            assert sum(row.split(",")[1] != "" for row in rows) == crossing
        assert full.count(True) == 0


#: settings that a command accepts in a group it reads but does not read
#: itself: (document, the key the error names)
NOT_READ = {
    "sweep-angle with solver.levels": ({
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 2},
        "solver": {"levels": 2}}, "solver.levels"),
    "optimize with solver.levels": (dict(
        MINIMAL_SPECTRUM, command="optimize", solver={"levels": 1}), "solver.levels"),
    "verify-sharp with solver.levels": (dict(
        MINIMAL_SPECTRUM, command="verify-sharp", solver={"levels": 1}), "solver.levels"),
    "verify-sharp with optimize.starts": (dict(
        MINIMAL_SPECTRUM, command="verify-sharp", optimize={"starts": 1}), "optimize.starts"),
}
KEYS_NOT_READ = {case: doc for case, (doc, _) in NOT_READ.items()}

#: documents carrying the removed root tolerance or output format, or a
#: solver group where the command reads none: (document, the name the error
#: gives)
SWEEP = {"command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
         "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 2}}
REMOVED = {
    f"{doc['command']} with solver.kappa_tol": (dict(doc, solver={"kappa_tol": 1e-10}),
                                                 "kappa_tol")
    for doc in (MINIMAL_SPECTRUM, SWEEP, dict(MINIMAL_SPECTRUM, command="optimize"),
                dict(MINIMAL_SPECTRUM, command="verify-sharp"))
}
REMOVED["sweep-angle with a solver group"] = (dict(SWEEP, solver={}), "'solver'")
REMOVED["spectrum with output.format"] = (dict(MINIMAL_SPECTRUM, output={"format": "json"}),
                                          "format")

#: job documents that must be rejected with exit status 2, one per input
BAD_INPUTS = {
    "alpha NaN": dict(MINIMAL_SPECTRUM, alpha=float("nan")),
    "arm_length Infinity": dict(MINIMAL_SPECTRUM, arm_length=float("inf")),
    "alpha -Infinity": dict(MINIMAL_SPECTRUM, alpha=float("-inf")),
    "mesh.grading NaN": dict(MINIMAL_SPECTRUM, mesh={"grading": float("nan")}),
    # not a key: root brackets close at kappa = 0, so no floor is set
    "solver.kappa_floor NaN": dict(MINIMAL_SPECTRUM, solver={"kappa_floor": float("nan")}),
    "solver.kappa_floor": dict(MINIMAL_SPECTRUM, solver={"kappa_floor": 1e-4}),
    "solver.kappa_tol Infinity": dict(MINIMAL_SPECTRUM, solver={"kappa_tol": float("inf")}),
    # not a key: the direction search is a gradient descent with no simplex
    "optimize.simplex_tol Infinity": dict(
        MINIMAL_SPECTRUM, command="optimize", optimize={"simplex_tol": float("inf")}),
    "optimize.simplex_tol": dict(
        MINIMAL_SPECTRUM, command="optimize", optimize={"simplex_tol": 1e-5}),
    "verify-sharp with optimize.simplex_tol": dict(
        MINIMAL_SPECTRUM, command="verify-sharp", optimize={"seed": 1, "simplex_tol": 1e-5}),
    "sweep.phi_max NaN": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": float("nan"), "count": 3}},
    "verify.scale NaN": dict(
        MINIMAL_SPECTRUM, command="verify-sharp", verify={"scale": float("nan")}),
    "bounds.constant Infinity": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"constant": float("inf")}),
    # not a key: the lower side of the small-angle bounds is proven from the
    # star alone
    "bounds.constant": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"constant": 1.0}),
    "bounds.k 0": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 0.1, "k": 0}),
    "bounds.k -1 without phi": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"k": -1}),
    "optimize.seed -1": dict(MINIMAL_SPECTRUM, command="optimize", optimize={"seed": -1}),
    "verify-sharp with optimize.seed -1": dict(
        MINIMAL_SPECTRUM, command="verify-sharp", optimize={"seed": -1}),
    # one arm: were the cap not checked at parse time, the run would stop at once
    "optimize.starts above the cap": dict(
        MINIMAL_SPECTRUM, command="optimize", star={"directions": [[0, 0, 1]]},
        optimize={"starts": 10_001}),
    "verify.trials above the cap": dict(
        MINIMAL_SPECTRUM, command="verify-sharp", verify={"scale": 0.0, "trials": 10_001}),
    "bounds.phi NaN": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"phi": float("nan")}),
    "direction coordinate string": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], ["x", 0, 0]]}),
    "direction coordinate true": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], [True, 0, 0]]}),
    "direction coordinate NaN": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], [float("nan"), 0, 0]]}),
    "output.path integer": dict(MINIMAL_SPECTRUM, output={"path": 7}),
    # not a key: the command fixes the format
    "output.format integer": dict(MINIMAL_SPECTRUM, output={"format": 7}),
    "bounds.phi 0": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 0.0}),
    "bounds.phi above pi": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 3.2}),
    "mesh.panels above the cap": dict(MINIMAL_SPECTRUM, mesh={"panels": 129}),
    "mesh.order above the cap": dict(MINIMAL_SPECTRUM, mesh={"order": 17}),
    "matrix rows above the cap": dict(
        MINIMAL_SPECTRUM, star={"sharp": 12}, mesh={"panels": 128, "order": 11}),
    "optimize directions above the row cap": dict(
        MINIMAL_SPECTRUM, command="optimize",
        star={"directions": [[0, 0, 1]] * 171}),
    "design.order above the cap": {
        "command": "design-check", "star": {"sharp": 4}, "design": {"order": 65}},
    # not a key: sweep-angle writes CSV
    "sweep-angle with json output": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 1.0, "phi_max": 1.0, "count": 1},
        "output": {"format": "json"}},
    "sweep.count above the cap": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 10_001}},
    "bounds with 257 arms": dict(
        MINIMAL_SPECTRUM, command="bounds", star={"directions": [[0, 0, 1]] * 257}),
    "bounds with a mesh": dict(MINIMAL_SPECTRUM, command="bounds", mesh={}),
    "design-check with a solver": {
        "command": "design-check", "star": {"sharp": 4}, "solver": {"levels": 1}},
    "design-check with alpha": {"command": "design-check", "star": {"sharp": 4}, "alpha": 0},
    "spectrum with optimize settings": dict(MINIMAL_SPECTRUM, optimize={"seed": 1}),
    "sweep-angle with optimize settings": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 2}, "optimize": {}},
    **KEYS_NOT_READ,
    **{case: doc for case, (doc, _) in REMOVED.items()},
}

#: job documents that parse but must be rejected with exit status 2 when run
INVALID_JOBS = {
    "mesh.grading 1e300": dict(MINIMAL_SPECTRUM, mesh={"grading": 1e300}),
    "arm_length 1e308": dict(MINIMAL_SPECTRUM, arm_length=1e308),
    "arm_length 1e-160": dict(MINIMAL_SPECTRUM, arm_length=1e-160),
    "design-check non-unit directions": {
        "command": "design-check", "star": {"directions": [[0, 0, 0], [0, 0, 2]]}},
    "bounds with phi, small-angle lower bound overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", alpha=-58.0, bounds={"phi": 0.5}),
    "bounds, energy lower bound overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", star={"sharp": 2}, alpha=-57.0),
    "bounds with a 401-digit k": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 0.5, "k": 10**400}),
    "bounds with phi 1e-200, lower side overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 1e-200}),
    "bounds, segment existence length overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", alpha=113.0),
    "sweep-angle, small-angle bound overflows": {
        "command": "sweep-angle", "alpha": -200.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 0.5, "count": 1}},
    "optimize with one arm": {
        "command": "optimize", "star": {"directions": [[0, 0, 1]]},
        "alpha": 0, "arm_length": 1},
}


#: a minimal valid document of each command
MINIMAL_DOCUMENTS = {
    "spectrum": MINIMAL_SPECTRUM,
    "sweep-angle": SWEEP,
    "optimize": dict(MINIMAL_SPECTRUM, command="optimize"),
    "verify-sharp": dict(MINIMAL_SPECTRUM, command="verify-sharp"),
    "bounds": dict(MINIMAL_SPECTRUM, command="bounds"),
    "design-check": {"command": "design-check", "star": {"sharp": 4}},
}
#: (group, key) of every key with a range in the job schema
RANGED_KEYS = [(group, key) for group, keys in _GROUPS.items()
               for key, (kind, *_) in keys.items() if kind is not str]


def with_key(group, key, value):
    """The minimal document of the first command that reads ``group.key``,
    with the key set to ``value``."""
    doc = MINIMAL_DOCUMENTS[_GROUPS[group][key][2][0]]
    return dict(doc, **{group: dict(doc.get(group, {}), **{key: value})})


class TestSchemaRanges:
    """Every key's range in ``_GROUPS``: both ends parse, one step past
    either end exits 2 with an error that names the key."""

    @pytest.mark.parametrize("group, key", RANGED_KEYS, ids=[".".join(k) for k in RANGED_KEYS])
    def test_ends_parse(self, group, key):
        _, _, _, least, greatest = _GROUPS[group][key]
        for value in (least, greatest):
            if math.isinf(value):
                continue
            doc = with_key(group, key, value)
            if key.startswith("phi_"):  # keep phi_min <= phi_max
                doc["sweep"].update(phi_min=value, phi_max=value)
            assert parse_job(json.dumps(doc)).doc[group][key] == value

    @pytest.mark.parametrize("group, key", RANGED_KEYS, ids=[".".join(k) for k in RANGED_KEYS])
    def test_one_step_outside_exits_2(self, group, key, tmp_path, capsys):
        kind, _, _, least, greatest = _GROUPS[group][key]
        if kind is int:
            outside = [least - 1, greatest + 1]
        else:
            outside = [math.nextafter(least, -math.inf), math.nextafter(greatest, math.inf)]
        bad = tmp_path / "bad.json"
        for value in outside:
            if math.isinf(value):
                continue
            bad.write_text(json.dumps(with_key(group, key, value)))
            assert main(["--job", str(bad)]) == 2
            assert f"'{group}.{key}' must be at least" in capsys.readouterr().err


class TestNearCoincidentArms:
    """Two arms 1e-8 rad apart: their squared chord, 1e-16, is kept from the
    differences of the directions (2 - 2 <d_i, d_j> rounds to 0 there)."""

    def test_spectrum_has_a_level(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"directions": [[0, 0, 1], [1e-8, 0, 1]]},
            alpha=0.0, arm_length=1.0, mesh={"panels": 4, "order": 6}))
        assert run(job, out_path=str(out)) == 0
        levels = json.loads(out.read_text())["results"]["levels"]
        assert len(levels) == 1 and levels[0]["energy"] < 0.0

    def test_sweep_has_a_level(self, tmp_path):
        out = tmp_path / "sweep.csv"
        job = parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=1.0,
            sweep={"phi_min": 1e-8, "phi_max": 1e-8, "count": 1},
            mesh={"panels": 4, "order": 6}))
        assert run(job, out_path=str(out)) == 0
        (row,) = out.read_text().strip().splitlines()[1:]
        assert float(row.split(",")[1]) < 0.0


class TestMain:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exit_2(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_INPUTS[case]))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert "parse error" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("case", sorted(NOT_READ))
    def test_key_not_read_is_named(self, case, tmp_path, capsys):
        document, key = NOT_READ[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert f"'{key}' is only valid for" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REMOVED))
    def test_removed_key_is_named(self, case, tmp_path, capsys):
        document, name = REMOVED[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["--job", str(bad)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(INVALID_JOBS))
    def test_invalid_job_exit_2(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(INVALID_JOBS[case]))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_start_and_trial_caps(self):
        starts, trials = _GROUPS["optimize"]["starts"][4], _GROUPS["verify"]["trials"][4]
        at_cap = [dict(MINIMAL_SPECTRUM, command="optimize", optimize={"starts": starts}),
                  dict(MINIMAL_SPECTRUM, command="verify-sharp", verify={"trials": trials})]
        for doc in at_cap:
            parse_job(json.dumps(doc))
        for case in ("optimize.starts above the cap", "verify.trials above the cap"):
            with pytest.raises(ParseError, match="at most 10000"):
                parse_job(json.dumps(BAD_INPUTS[case]))

    def test_output_path_null_means_not_given(self):
        job = parse_job(job_text(**MINIMAL_SPECTRUM, output={"path": None}))
        assert job.doc["output"]["path"] is None

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(job_text(command="spectrum", star={"sharp": 4},
                                alpha=0.0, arm_length=-5.0))
        assert main(["--job", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["--job", "/nonexistent/job.json"]) == 2

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "res.json"
        jb = tmp_path / "job.json"
        jb.write_text(job_text(command="design-check", star={"sharp": 4},
                               design={"order": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "starspec.cli", "--job", str(jb),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["is_design"] is True


#: JSON values of every kind, NaN and the infinities included (json.loads
#: accepts them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers() | st.floats()


def _group(*keys):
    return st.dictionaries(st.sampled_from(keys), NUMBERS | JSON_VALUES, max_size=3)


#: job documents near the valid ones: known keys, plausible and arbitrary values
JOB_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "command": st.sampled_from(COMMANDS) | JSON_VALUES,
    "star": st.fixed_dictionaries({}, optional={
        "sharp": st.sampled_from([2, 3, 4, 6, 12]) | JSON_VALUES,
        "directions": st.lists(st.lists(NUMBERS, min_size=3, max_size=3), max_size=3)
        | JSON_VALUES,
    }) | JSON_VALUES,
    "alpha": NUMBERS | JSON_VALUES,
    "arm_length": NUMBERS | JSON_VALUES,
    "mesh": _group("panels", "order", "grading", "extra"),
    "solver": _group("kappa_tol", "levels"),
    "optimize": _group("starts", "seed", "simplex_tol"),
    "sweep": _group("phi_min", "phi_max", "count"),
    "verify": _group("scale", "trials"),
    "bounds": _group("constant", "phi", "k"),
    "design": _group("order"),
    "output": _group("format", "path"),
    "extra": JSON_VALUES,
})


class TestParseJobFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JOB_DOCUMENTS)
    def test_documents_raise_only_parse_error(self, doc):
        try:
            parse_job(json.dumps(doc))
        except ParseError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.text(max_size=40) | JSON_VALUES.map(json.dumps))
    def test_any_text_raises_only_parse_error(self, text):
        try:
            parse_job(text)
        except ParseError:
            pass


def _unit(theta, phi):
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]


#: unit directions, and arbitrary 3-vectors (rejected when run)
DIRECTIONS = (
    st.builds(_unit, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
    | st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
)
SMALL_SHARP = st.sampled_from([2, 3]).map(lambda n: {"sharp": n})
SMALL_STARS = SMALL_SHARP | st.lists(DIRECTIONS, min_size=1, max_size=3).map(
    lambda dirs: {"directions": dirs})


#: small integers, negative ones and ones far beyond a float's range
WIDE_INTEGERS = st.integers(-3, 3) | st.integers(max_value=-4) | st.integers(10**300, 10**400)


def _small_job(command):
    """Valid documents of one command, small enough to run: at most three
    arms, at most 4 panels of order 4, one start, one trial, two angles;
    each carries only the groups and keys its command reads."""
    groups = {
        "command": st.just(command),
        "alpha": st.floats(-3.0, 3.0),
        "arm_length": st.floats(0.05, 8.0),
        "star": SMALL_STARS,
    }
    if command in ("spectrum", "sweep-angle", "optimize", "verify-sharp"):
        groups["mesh"] = st.fixed_dictionaries({
            "panels": st.integers(2, 4), "order": st.integers(2, 4),
            "grading": st.floats(1.0, 4.0)})
        if command == "spectrum":
            groups["solver"] = st.fixed_dictionaries({}, optional={"levels": st.integers(1, 3)})
    if command == "optimize":
        groups["optimize"] = st.fixed_dictionaries({"starts": st.just(1)}, optional={
            "seed": WIDE_INTEGERS})
    elif command == "verify-sharp":
        groups["optimize"] = st.fixed_dictionaries({}, optional={"seed": WIDE_INTEGERS})
    if command == "sweep-angle":
        del groups["star"]
        groups["sweep"] = st.fixed_dictionaries({
            "phi_min": st.floats(1e-3, 3.1), "phi_max": st.just(3.14),
            "count": st.integers(1, 2)})
    elif command == "verify-sharp":
        groups["star"] = SMALL_SHARP
        groups["verify"] = st.fixed_dictionaries({
            "scale": st.floats(0.0, 0.5), "trials": st.just(1)})
    elif command == "bounds":
        groups["bounds"] = st.fixed_dictionaries({}, optional={
            "phi": st.floats(1e-3, math.pi), "k": WIDE_INTEGERS})
    elif command == "design-check":
        del groups["alpha"], groups["arm_length"]
        groups["design"] = st.fixed_dictionaries({"order": st.integers(1, 8)})
    return st.fixed_dictionaries(groups)


class TestMainFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(COMMANDS).flatmap(_small_job))
    @example(INVALID_JOBS["optimize with one arm"])
    def test_exit_status_without_traceback(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            job = os.path.join(tmp, "job.json")
            with open(job, "w") as fh:
                json.dump(doc, fh)
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["--job", job, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
